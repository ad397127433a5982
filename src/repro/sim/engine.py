"""Step-based intermittent-inference simulator (§III-D of the paper).

The engine alternates between two regimes:

* **charging** (rail off) — fast-forwarded analytically through the
  capacitor ODE; no fidelity is lost because nothing but charging
  happens while the rail is down;
* **executing** (rail on) — stepped at a fraction of the current tile's
  latency, so that harvesting-during-execution (the ``T·k_eh·A_eh``
  term of Eq. 3), mid-tile power failures, and emergent checkpoint
  exceptions are all captured.

A tile that fails to complete even from a brimming capacitor violates
Eq. 8 (``E_tile <= E_available``); the engine detects the repeated
failure and reports the design infeasible instead of looping forever.

Cycle-skipping fast path
------------------------

Under constant harvest and no active fault injector, the
(charge → execute k tiles → power off) pattern within a layer is
exactly periodic: every energy cycle starts from the same capacitor
voltage (``U_on``, pinned by the closed-form charge fast-forward), runs
the same tile costs at the same step size, and dies at the same
``U_off`` crossing.  :class:`StepSimulator` observes the boundaries of
consecutive cycles; once two consecutive cycles produce the same
signature (tiles completed, step count, per-cycle deltas of every
:class:`~repro.energy.controller.EnergyAccounting` field and of the
inference bookkeeping), it replays ``m`` whole cycles arithmetically —
advancing time, accounting, tile index and ``power_cycles`` in O(1)
instead of O(m · tiles · steps_per_tile).  The engine drops back to
exact per-step simulation at layer boundaries (the skip never crosses
one), near the end of the run, and whenever faults, variable harvest or
a non-repeating state (e.g. JIT progress carried across cycles)
disable the fast path.  Replayed cycles advance the trace's per-kind
counters in bulk; individual events are not materialised.

Piecewise-constant harvest
--------------------------

A harvester that exposes ``next_change_after(t)`` (its output is
constant on ``[t, next_change_after(t))`` — e.g.
:class:`~repro.energy.traces.TraceHarvester`) keeps the fast path: the
cycle pattern is periodic *within each constant segment*, so the
observer additionally stamps every boundary snapshot with the absolute
time of the next harvest change.  Snapshots from different segments
never pair into a candidate delta, and a replay is capped so that it
ends at or before the current segment boundary — every harvest sample
of the replayed span therefore sees exactly the power the observed
cycle saw, preserving the exact-vs-fast identity.  At a segment
boundary the matcher re-arms (two fresh in-segment cycles must match
again before the next skip).
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.energy.controller import EnergyController
from repro.errors import EvaluationTimeout, SimulationError
from repro.obs.state import OBS, span
from repro.sim.intermittent import InferenceController
from repro.sim.metrics import InferenceMetrics
from repro.sim.trace import EventKind, Trace


@dataclass
class SimulationResult:
    """Outcome of one step-simulated inference."""

    metrics: InferenceMetrics
    trace: Trace
    energy: EnergyController
    inference: InferenceController
    #: Whole energy cycles replayed arithmetically by the fast path.
    fast_cycles_skipped: int = 0
    #: Number of distinct fast-forward segments (≤ one per layer).
    fast_segments: int = 0


@dataclass
class _RunState:
    """Mutable per-run bookkeeping of :meth:`StepSimulator.run`."""

    busy_time: float = 0.0
    charge_time: float = 0.0
    steps: int = 0
    fail_streak: int = 0
    last_fail_key: Optional[Tuple[int, int]] = None
    last_fail_retained: float = -1.0
    cycles_skipped: int = 0
    fast_segments: int = 0


class _PhaseProfile:
    """Per-phase wall-clock accumulators of one profiled run.

    Only allocated when observability runs with profiling on; the
    default path never touches this class.  ``checkpoint_s`` includes
    the controller steps the checkpoint commit issues internally, so
    the two phases overlap by design (each answers its own question:
    "how long do controller steps take" vs "what does checkpointing
    cost end to end").
    """

    __slots__ = ("controller_step_s", "charge_ff_s", "checkpoint_s")

    def __init__(self) -> None:
        self.controller_step_s = 0.0
        self.charge_ff_s = 0.0
        self.checkpoint_s = 0.0


#: Relative tolerance used when matching the float deltas of two
#: observed cycles (and hence the documented metric tolerance of the
#: fast path): per-cycle sums differ from one another only by
#: accumulation rounding, orders of magnitude below this bound.
FAST_REL_TOL = 1e-9
#: Absolute float-noise floor for delta matching, in J / s.  Fields that
#: are identically zero per cycle (e.g. curtailment below the voltage
#: clamp) carry only rounding residue; treat them as equal.
FAST_ABS_TOL = 1e-15


#: Every field the fast path replays, named once as ``(owner,
#: attribute)``: the owner is an entry of :meth:`_CycleObserver._owners`.
#: Snapshots, deltas, matching and replay all read these two tables.
#: Counters must repeat exactly from cycle to cycle.
_COUNTERS = (
    ("run", "steps"),
    ("inference", "tile_index"),
    ("acct", "power_cycles"),
    ("inference", "exceptions"),
    ("inference", "planned_checkpoints"),
    ("inference", "rollbacks"),
    ("inference", "checkpoint_retries"),
)
#: Floats match within ``FAST_REL_TOL``: the simulator clocks, the
#: inference energy bookkeeping, every float field of
#: :class:`EnergyAccounting` and the residual per-tile state.  The last
#: two are ~1e-18 rounding residue under the eager strategy (``deliver``
#: subtracts tile costs from delivered energy); replaying them by delta
#: keeps the fast path faithful without demanding bitwise repetition of
#: float noise.
_FLOATS = (
    ("energy", "time"), ("run", "busy_time"), ("run", "charge_time"),
    ("inference", "wasted_energy"),
    ("breakdown", "compute"), ("breakdown", "vm"), ("breakdown", "nvm"),
    ("breakdown", "static"), ("breakdown", "checkpoint"),
    ("acct", "harvested"), ("acct", "stored"), ("acct", "delivered"),
    ("acct", "leaked"), ("acct", "conversion_loss"), ("acct", "curtailed"),
    ("inference", "tile_energy_done"), ("run", "last_fail_retained"),
)
_STEPS = _COUNTERS.index(("run", "steps"))
_TILES = _COUNTERS.index(("inference", "tile_index"))
_TIME = _FLOATS.index(("energy", "time"))


@dataclass(frozen=True)
class _CycleSnapshot:
    """Full replayable state at one steady-cycle boundary.

    A boundary is the instant the rail turns on with the capacitor
    sitting at exactly ``U_on`` — either the warm start of the run or
    the end of a closed-form recharge.
    """

    layer_index: int
    fail_streak: int
    #: last_fail_key relative to (layer_index, tile_index); None if unset.
    fail_key_rel: Optional[Tuple[int, int]]
    #: Absolute time of the next harvest-power change (``math.inf`` for
    #: a constant harvester).  Strictly increasing across segments, so
    #: an exact compare pins both snapshots to the same constant
    #: stretch of a piecewise harvester.
    next_change: float
    trace_counts: Dict[EventKind, int]
    counters: Tuple[int, ...]  # one per _COUNTERS entry
    floats: Tuple[float, ...]  # one per _FLOATS entry


@dataclass
class _CycleDelta:
    """Per-cycle advance between two consecutive boundaries."""

    counters: Tuple[int, ...]
    floats: Tuple[float, ...]
    trace_counts: Dict[EventKind, int]

    @classmethod
    def between(cls, a: "_CycleSnapshot",
                b: "_CycleSnapshot") -> Optional["_CycleDelta"]:
        """Delta ``b - a``, or ``None`` if the pair cannot repeat.

        The skip stays strictly inside one layer and one constant
        harvest segment, so a boundary pair spanning a layer change or
        a harvest change — or one that made no whole-tile progress —
        is not a candidate cycle.
        """
        if b.layer_index != a.layer_index:
            return None
        if b.next_change != a.next_change:
            return None
        counters = tuple(cb - ca for ca, cb in zip(a.counters, b.counters))
        if counters[_TILES] <= 0:
            return None
        counts = {kind: b.trace_counts.get(kind, 0) - a.trace_counts.get(kind, 0)
                  for kind in set(a.trace_counts) | set(b.trace_counts)}
        return cls(
            counters=counters,
            floats=tuple(fb - fa for fa, fb in zip(a.floats, b.floats)),
            trace_counts=counts,
        )

    def matches(self, other: "_CycleDelta") -> bool:
        """Whether two consecutive cycle deltas describe the same cycle."""
        if (self.counters != other.counters
                or self.trace_counts != other.trace_counts):
            return False
        return all(
            math.isclose(x, y, rel_tol=FAST_REL_TOL, abs_tol=FAST_ABS_TOL)
            for x, y in zip(self.floats, other.floats)
        )


class _CycleObserver:
    """Detects the steady energy cycle and replays it arithmetically.

    The simulator calls :meth:`observe` at every cycle boundary.  The
    observer keeps the last boundary snapshot and the delta of the last
    completed cycle; as soon as two consecutive deltas match (see
    :meth:`_CycleDelta.matches`) and at least one more whole cycle fits
    inside the current layer (and inside the remaining step budget), it
    applies ``m`` cycles worth of deltas to the controller, the
    inference state, the trace counters and the run clocks in O(1).
    """

    def __init__(self, simulator: "StepSimulator", state: _RunState) -> None:
        self.simulator = simulator
        self.state = state
        self._previous: Optional[_CycleSnapshot] = None
        self._last_delta: Optional[_CycleDelta] = None

    # -- boundary handling -------------------------------------------------------

    def observe(self) -> None:
        """Record a boundary; fast-forward when the cycle has stabilised."""
        snapshot = self._snapshot()
        previous, self._previous = self._previous, snapshot
        if previous is None:
            return
        delta = _CycleDelta.between(previous, snapshot)
        last_delta, self._last_delta = self._last_delta, delta
        if delta is None or last_delta is None:
            return
        if not delta.matches(last_delta):
            return
        # The Eq. 8 retry bookkeeping must repeat exactly from cycle to
        # cycle; residual tile progress is covered by the float deltas
        # (a JIT tile genuinely spanning cycles changes the tile delta
        # or layer index instead, which `between` already rejects).
        if (previous.fail_streak != snapshot.fail_streak
                or previous.fail_key_rel != snapshot.fail_key_rel):
            return
        m = self._skippable_cycles(snapshot, delta)
        if m >= 1:
            self._apply(snapshot, delta, m)

    def _skippable_cycles(self, at: _CycleSnapshot,
                          delta: _CycleDelta) -> int:
        """How many whole cycles can be replayed from this boundary.

        Every replayed cycle must end strictly inside the current layer
        (index ≤ n_tiles − 1): the layer-crossing cycle runs tiles with
        different costs and skips the final in-layer checkpoint, so it
        is always simulated exactly.  A ``max_steps`` budget caps the
        skip as well, preserving the exact path's timeout semantics.
        Under a piecewise-constant harvester the replay must also end
        at or before the current segment boundary: the cycle straddling
        the harvest change sees a different power profile, so it is
        simulated exactly (and the matcher then re-arms).
        """
        simulator = self.simulator
        layer = simulator.inference.plan[at.layer_index]
        tile_index = at.counters[_TILES]
        m = (layer.n_tiles - 1 - tile_index) // delta.counters[_TILES]
        if simulator.max_steps is not None:
            m = min(m, (simulator.max_steps - self.state.steps)
                    // delta.counters[_STEPS])
        if not math.isinf(at.next_change):
            cycle_time = delta.floats[_TIME]
            if cycle_time <= 0.0:
                return 0
            now = simulator.energy.time
            fit = int((at.next_change - now) / cycle_time)
            while fit > 0 and now + fit * cycle_time > at.next_change:
                fit -= 1  # floating-point guard at the boundary
            m = min(m, fit)
        return m

    def _apply(self, at: _CycleSnapshot, delta: _CycleDelta, m: int) -> None:
        """Advance the whole simulation by ``m`` cycles in O(1)."""
        simulator, st = self.simulator, self.state
        owners = self._owners()
        for table, steps in ((_FLOATS, delta.floats),
                             (_COUNTERS, delta.counters)):
            for (owner, name), step in zip(table, steps):
                obj = owners[owner]
                setattr(obj, name, getattr(obj, name) + m * step)
        if at.fail_key_rel is not None:
            inference = simulator.inference
            st.last_fail_key = (inference.layer_index + at.fail_key_rel[0],
                                inference.tile_index + at.fail_key_rel[1])
        for kind, count in delta.trace_counts.items():
            simulator.trace.record_bulk(kind, m * count)

        st.cycles_skipped += m
        st.fast_segments += 1
        # The post-skip boundary is a fresh observation base; the next
        # cycles of this layer (or the next layer) re-stabilise first.
        self._previous = self._snapshot()
        self._last_delta = None

    # -- state capture -----------------------------------------------------------

    def _owners(self) -> Dict[str, object]:
        """The objects the replay tables name, by owner key."""
        simulator = self.simulator
        energy, inference = simulator.energy, simulator.inference
        return {"run": self.state, "energy": energy,
                "acct": energy.accounting, "inference": inference,
                "breakdown": inference.breakdown}

    def _snapshot(self) -> _CycleSnapshot:
        simulator, st = self.simulator, self.state
        energy, inference = simulator.energy, simulator.inference
        owners = self._owners()
        probe = getattr(energy.harvester, "next_change_after", None)
        next_change = (probe(energy.time) if probe is not None else math.inf)
        key = st.last_fail_key
        fail_key_rel = (None if key is None else
                        (key[0] - inference.layer_index,
                         key[1] - inference.tile_index))
        return _CycleSnapshot(
            layer_index=inference.layer_index,
            fail_streak=st.fail_streak,
            fail_key_rel=fail_key_rel,
            next_change=next_change,
            trace_counts=simulator.trace.counts(),
            counters=tuple(getattr(owners[owner], name)
                           for owner, name in _COUNTERS),
            floats=tuple(getattr(owners[owner], name)
                         for owner, name in _FLOATS),
        )


class StepSimulator:
    """Drives the energy controller and the inference controller in steps."""

    #: Consecutive failures of the *same* tile from a full energy cycle
    #: before the design is declared infeasible (first failure may start
    #: from a partially drained capacitor, so allow one retry).
    MAX_TILE_RETRIES = 2

    #: Consecutive verify failures of the same planned checkpoint before
    #: the runtime gives up on committing it and rolls the tile back.
    MAX_CHECKPOINT_RETRIES = 4

    def __init__(self, energy: EnergyController, inference: InferenceController,
                 steps_per_tile: int = 16,
                 max_charge_wait: float = 3600.0 * 24,
                 max_steps: Optional[int] = None,
                 time_budget_s: Optional[float] = None,
                 fast_forward: bool = True,
                 trace_capacity: Optional[int] = Trace.DEFAULT_CAPACITY) -> None:
        if steps_per_tile <= 0:
            raise SimulationError(
                f"steps_per_tile must be positive, got {steps_per_tile}"
            )
        if max_charge_wait <= 0:
            raise SimulationError(
                f"max_charge_wait must be positive, got {max_charge_wait} "
                "(a non-positive wait declares every design infeasible)"
            )
        if max_steps is not None and max_steps <= 0:
            raise SimulationError(
                f"max_steps must be positive, got {max_steps}"
            )
        if time_budget_s is not None and time_budget_s <= 0:
            raise SimulationError(
                f"time_budget_s must be positive, got {time_budget_s}"
            )
        self.energy = energy
        self.inference = inference
        self.steps_per_tile = steps_per_tile
        self.max_charge_wait = max_charge_wait
        self.max_steps = max_steps
        self.time_budget_s = time_budget_s
        self.fast_forward = fast_forward
        self.trace = Trace(capacity=trace_capacity)

    def _fast_path_allowed(self) -> bool:
        """Cycle skipping needs (piecewise-)time-invariant dynamics.

        An attached injector with any non-zero rate perturbs harvest,
        leakage or the checkpoint machinery and forces the exact path.
        An *inert* injector (all rates zero) is numerically identical
        to no injector at all — the invariant the fault tests pin — so
        it keeps the fast path.  A constant harvester qualifies
        outright; a piecewise-constant one (it exposes
        ``next_change_after``) qualifies too, with every skip confined
        to one constant segment by the observer.  Anything else — e.g.
        stochastically fluctuating harvest — is conservatively
        simulated step by step.
        """
        if not self.fast_forward:
            return False
        faults = self.energy.faults
        if faults is not None and faults.enabled:
            return False
        harvester = self.energy.harvester
        if getattr(harvester, "constant_power", False):
            return True
        return callable(getattr(harvester, "next_change_after", None))

    def run(self) -> SimulationResult:
        """Simulate until the inference finishes or proves infeasible.

        Raises :class:`EvaluationTimeout` when the run exhausts its
        ``max_steps`` / ``time_budget_s`` budget — fault injection can
        turn a finite design into an endless rollback/retry grind, and
        a search must be able to penalize such candidates instead of
        hanging on them.  Skipped cycles count against ``max_steps`` as
        if they had been stepped, so budget semantics do not depend on
        whether the fast path engaged.
        """
        if not OBS.enabled:
            return self._run(None)
        prof = _PhaseProfile() if OBS.profile else None
        with span("sim.run"):
            return self._run(prof)

    def _run(self, prof: Optional[_PhaseProfile]) -> SimulationResult:
        st = _RunState()
        try:
            return self._run_loop(st, prof)
        finally:
            if OBS.enabled:
                registry = OBS.registry
                registry.counter("sim.runs").inc()
                registry.counter("sim.steps").inc(st.steps)
                registry.counter("sim.fast_cycles_skipped").inc(
                    st.cycles_skipped)
                if prof is not None:
                    registry.counter("sim.controller_step_seconds").inc(
                        prof.controller_step_s)
                    registry.counter("sim.charge_fastforward_seconds").inc(
                        prof.charge_ff_s)
                    registry.counter("sim.checkpoint_seconds").inc(
                        prof.checkpoint_s)

    def _run_loop(self, st: _RunState,
                  prof: Optional[_PhaseProfile]) -> SimulationResult:
        energy, inference, trace = self.energy, self.inference, self.trace
        deadline = (None if self.time_budget_s is None
                    else _time.monotonic() + self.time_budget_s)
        observer = (_CycleObserver(self, st) if self._fast_path_allowed()
                    else None)
        v_on = energy.pmic.v_on
        if (observer is not None and energy.rail_on()
                and energy.voltage == v_on):
            # A warm start at exactly U_on is already a cycle boundary.
            observer.observe()

        while not inference.finished:
            st.steps += 1
            if self.max_steps is not None and st.steps > self.max_steps:
                raise EvaluationTimeout(
                    f"simulation exceeded its step budget of "
                    f"{self.max_steps} steps"
                )
            if deadline is not None and _time.monotonic() > deadline:
                raise EvaluationTimeout(
                    f"simulation exceeded its wall-clock budget of "
                    f"{self.time_budget_s:.3g} s"
                )
            if not energy.rail_on():
                if prof is None:
                    wait = energy.fast_forward_to_on(self.max_charge_wait)
                else:
                    t0 = _time.perf_counter()
                    wait = energy.fast_forward_to_on(self.max_charge_wait)
                    prof.charge_ff_s += _time.perf_counter() - t0
                if math.isinf(wait):
                    return self._infeasible(
                        "harvester cannot charge the capacitor to U_on "
                        "(leakage outpaces input)", st
                    )
                st.charge_time += wait
                trace.record(energy.time, EventKind.POWER_ON)
                if (observer is not None and energy.voltage == v_on
                        and not inference.finished):
                    observer.observe()

            tile = inference.current_layer.tile
            if inference.tile_energy_done == 0.0:
                trace.record(
                    energy.time, EventKind.TILE_STARTED,
                    layer=inference.current_layer.layer_name,
                    tile=inference.tile_index,
                )
            dt = max(tile.latency, 1e-9) / self.steps_per_tile
            power = inference.tile_power()

            # The controller splits the step exactly at the U_off
            # crossing, so its delivered-energy delta is the true rail
            # output even when the cycle dies mid-step.
            delivered_before = energy.accounting.delivered
            if prof is None:
                energy.step(dt, power)
            else:
                t0 = _time.perf_counter()
                energy.step(dt, power)
                prof.controller_step_s += _time.perf_counter() - t0
            st.busy_time += dt
            delivered = energy.accounting.delivered - delivered_before
            completed = inference.deliver(delivered) if delivered > 0 else []
            for layer_name, tile_idx in completed:
                st.fail_streak = 0
                st.last_fail_key = None
                st.last_fail_retained = -1.0
                trace.record(energy.time, EventKind.TILE_COMPLETED,
                             layer=layer_name, tile=tile_idx)
                if prof is None:
                    self._charge_boundary_checkpoint()
                else:
                    t0 = _time.perf_counter()
                    self._charge_boundary_checkpoint()
                    prof.checkpoint_s += _time.perf_counter() - t0

            if not energy.rail_on() and not inference.finished:
                # Mid-tile power failure.
                trace.record(energy.time, EventKind.POWER_OFF)
                lost = inference.power_failure()
                # Progress retained across the failure: 0 under the
                # eager strategy (volatile state lost), the accumulated
                # tile energy under JIT.  A retry only counts against
                # the Eq. 8 streak when it made no headway — a JIT tile
                # legitimately spans several energy cycles.
                retained = inference.tile_energy_done
                if lost:
                    trace.record(
                        energy.time, EventKind.EXCEPTION,
                        layer=inference.current_layer.layer_name,
                        tile=inference.tile_index,
                    )
                fail_key = (inference.layer_index, inference.tile_index)
                if (fail_key == st.last_fail_key
                        and retained <= st.last_fail_retained + 1e-15):
                    st.fail_streak += 1
                else:
                    st.fail_streak = 1
                    st.last_fail_key = fail_key
                st.last_fail_retained = retained
                if st.fail_streak >= self.MAX_TILE_RETRIES:
                    return self._infeasible(
                        f"tile {fail_key} needs more energy than one full "
                        "energy cycle delivers (violates Eq. 8)", st,
                    )

        trace.record(energy.time, EventKind.INFERENCE_COMPLETED)
        return self._finished(st)

    # -- internals ---------------------------------------------------------------

    def _charge_boundary_checkpoint(self) -> None:
        """Draw the planned inter-tile checkpoint energy from storage.

        Under fault injection the commit itself can misbehave: the NVM
        write may fail its read-back verify (detected, paid for, and
        retried up to :attr:`MAX_CHECKPOINT_RETRIES` times), and a
        brownout while the commit is in flight may corrupt it, forcing
        a rollback to the last consistent checkpoint — the just-
        completed tile is reverted and re-executed.  With no injector
        attached the nominal single-save path below runs unchanged.
        """
        inference, energy = self.inference, self.energy
        if inference.finished:
            return
        at_boundary = inference.tile_index > 0
        if not at_boundary:
            return
        round_energy = inference.checkpoint_round_energy()
        if round_energy <= 0.0:
            return
        round_time = inference.checkpoint_round_time()
        faults = energy.faults
        retries = 0
        while True:
            energy.step(round_time, round_energy / max(round_time, 1e-9))
            browned_out = not energy.rail_on()
            if (browned_out and faults is not None
                    and faults.commit_corrupts()):
                layer, tile = inference.rollback_tile()
                self.trace.record(energy.time, EventKind.ROLLBACK,
                                  layer=layer, tile=tile,
                                  detail="brownout corrupted commit")
                return
            if faults is not None and faults.checkpoint_write_fails():
                self.trace.record(energy.time, EventKind.CHECKPOINT_FAILED,
                                  layer=inference.current_layer.layer_name,
                                  tile=inference.tile_index,
                                  detail="NVM write failed verify")
                # The wasted write + verify read go on the checkpoint
                # bill; the storage draw of the retry itself happens at
                # the top of the next loop iteration.
                inference.checkpoint_retry()
                retries += 1
                if retries >= self.MAX_CHECKPOINT_RETRIES:
                    # The boundary state never reached NVM: replay the
                    # tile from the last consistent checkpoint.
                    layer, tile = inference.rollback_tile()
                    self.trace.record(
                        energy.time, EventKind.ROLLBACK,
                        layer=layer, tile=tile,
                        detail=f"commit abandoned after {retries} retries")
                    return
                continue
            self.trace.record(energy.time, EventKind.CHECKPOINT_SAVED,
                              layer=inference.current_layer.layer_name,
                              tile=inference.tile_index)
            return

    def _metrics(self, st: _RunState) -> InferenceMetrics:
        acct = self.energy.accounting
        breakdown = self.inference.breakdown
        breakdown.cap_leakage = acct.leaked
        breakdown.conversion = acct.conversion_loss
        # Steady-state repetition period: restore the energy bank to the
        # on-threshold before the next back-to-back inference starts.
        harvested_power = self.energy.harvester.power_at(self.energy.time)
        faults = self.energy.faults
        if faults is not None:
            # Price the refill at the same derated harvest the
            # controller saw, not the raw panel output.
            harvested_power *= faults.harvest_factor(self.energy.time)
        refill = self.energy.capacitor.time_to_reach(
            self.energy.pmic.v_on,
            self.energy.pmic.charge_power(harvested_power),
        )
        sustained = self.energy.time + (0.0 if math.isinf(refill) else refill)
        refill_harvest = (0.0 if math.isinf(refill)
                          else harvested_power * refill)
        return InferenceMetrics(
            e2e_latency=self.energy.time,
            busy_time=st.busy_time,
            charge_time=st.charge_time,
            energy=breakdown,
            harvested_energy=acct.harvested + refill_harvest,
            power_cycles=acct.power_cycles,
            exceptions=self.inference.exceptions,
            sustained_period=sustained,
        )

    def _finished(self, st: _RunState) -> SimulationResult:
        return SimulationResult(
            metrics=self._metrics(st),
            trace=self.trace,
            energy=self.energy,
            inference=self.inference,
            fast_cycles_skipped=st.cycles_skipped,
            fast_segments=st.fast_segments,
        )

    def _infeasible(self, reason: str, st: _RunState) -> SimulationResult:
        if OBS.enabled:
            OBS.registry.counter("sim.infeasible").inc()
        # Partial-progress clocks are folded into the marker metrics so
        # callers can see how far the design got before giving up.
        metrics = InferenceMetrics.infeasible(
            reason, busy_time=st.busy_time, charge_time=st.charge_time)
        return SimulationResult(
            metrics=metrics,
            trace=self.trace,
            energy=self.energy,
            inference=self.inference,
            fast_cycles_skipped=st.cycles_skipped,
            fast_segments=st.fast_segments,
        )
