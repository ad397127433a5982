"""One benchmark workload, run in its own fresh process.

``bench.py`` starts this script once per set-up sample and once for the
measured run.  The script builds the workload's inputs from ``--seed``
and prints ``READY`` as soon as the first timed operation could start:
the parent times set-up from spawn to that line.  With ``--setup-only``
it stops there; otherwise it runs the timed phase for ``--seconds``,
checks the program's outputs and prints one JSON result line.

Usage (normally through ``bench.py``)::

    python3 perfbench/workload.py --workload price-mix --seed 0 \\
        --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import pathlib
import random
import resource
import selectors
import socket
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from _common import (GENERATOR_COUNT, GENERATOR_NAME,  # noqa: E402
                     RESULTS_DIR, HostSpeed, median, metadata, summarize)
from tracing import LAYERS, ROOT_LAYER, Tracer, merge_totals  # noqa: E402

from repro import api  # noqa: E402
from repro.campaign import runner as campaign_runner  # noqa: E402
from repro.campaign.spec import CampaignSpec, ObjectiveSpec  # noqa: E402
from repro.dataflow.cost_model import (clear_layer_cost_cache,  # noqa: E402
                                       layer_cost_cache_stats)
from repro.environments import ScenarioGenerator  # noqa: E402
from repro.errors import ChrysalisError  # noqa: E402
from repro.explore.bilevel import BilevelExplorer  # noqa: E402
from repro.explore.ga import GAConfig  # noqa: E402
from repro.explore.mapper_search import (clear_mapper_memo,  # noqa: E402
                                         mapper_memo_stats)
from repro.explore.objectives import Objective  # noqa: E402
from repro.explore.space import DesignSpace  # noqa: E402
from repro.serialize import design_to_dict, metrics_to_dict  # noqa: E402
from repro.workloads import zoo  # noqa: E402


def _digest(items: Any) -> str:
    canonical = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _report_json(report: Any) -> str:
    """Canonical text of one evaluation report's numbers (NaN-safe
    equality: two reports are equal when their texts are)."""
    return json.dumps({
        "metrics": metrics_to_dict(report.metrics),
        "by_environment": {name: metrics_to_dict(metrics) for name, metrics
                           in report.by_environment.items()},
    }, sort_keys=True)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _lower_pool(workload: str, space: DesignSpace, count: int,
                rng: random.Random) -> list:
    """``count`` designs lowered from seeded genomes by the SW mapper."""
    explorer = BilevelExplorer(zoo.workload_by_name(workload), space,
                               Objective.lat_sp())
    designs = []
    for _ in range(50 * count):
        design = explorer.lower_genome(space.sample(rng))
        if design is not None:
            designs.append(design)
            if len(designs) == count:
                return designs
    raise SystemExit(f"could not lower {count} {workload} designs")


def layer_metrics(totals: Dict[str, Any], traced_wall_s: float, ops: int,
                  **specific: float) -> Dict[str, float]:
    """The per-layer metrics every workload reports, from tracer totals.

    ``specific`` carries the values measured outside the tracer (cache
    hit ratios, serve split, overhead); absent ones are 0 because the
    workload does not exercise that layer.
    """
    calls, self_s, extras = totals["calls"], totals["self_s"], totals["extras"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = _ratio(calls.get(layer, 0), ops)
        metrics[f"{layer}.self_pct"] = 100.0 * _ratio(self_s.get(layer, 0.0),
                                                      traced_wall_s)
    metrics["dataflow.cost_model.items_per_call"] = _ratio(
        extras.get("layer_cost_batch.items", 0),
        extras.get("layer_cost_batch.calls", 0))
    metrics["sim.analytical.designs_per_call"] = _ratio(
        extras.get("evaluate_plans.items", 0),
        extras.get("evaluate_plans.calls", 0))
    metrics["explore.batch_eval.genomes_per_call"] = _ratio(
        extras.get("evaluate_many.items", 0),
        extras.get("evaluate_many.calls", 0))
    metrics["sim.engine.cycles_skipped_ratio"] = _ratio(
        extras.get("sim.cycles_skipped", 0), extras.get("sim.power_cycles", 0))
    metrics["sim.engine.cycles_per_ms"] = _ratio(
        extras.get("sim.power_cycles", 0),
        1e3 * self_s.get("sim.engine", 0.0))
    metrics["unattributed_pct"] = 100.0 * _ratio(self_s.get(ROOT_LAYER, 0.0),
                                                 traced_wall_s)
    for name in ("dataflow.cost_model.cache_hit_ratio",
                 "explore.mapper_search.memo_hit_ratio",
                 "explore.bilevel.failed_candidate_ratio",
                 "serve.wire_pct", "serve.queue_wait_pct", "serve.price_pct",
                 "serve.remainder_pct",
                 "serve.batch_occupancy_mean", "serve.coalesce_ratio",
                 "serve.saturated_rps", "trace_overhead_pct"):
        metrics[name] = specific.pop(name.replace(".", "_"), 0.0)
    if specific:
        raise TypeError(f"unknown layer metrics {sorted(specific)}")
    return metrics


class _Counters:
    """Program-side counters summed over the traced operations."""

    def __init__(self) -> None:
        self.cache_hits = self.cache_misses = 0
        self.memo_hits = self.memo_misses = 0
        self.failed_candidates = self.candidates = 0

    def add_caches(self, cache: Tuple[int, int], memo: Tuple[int, int]) -> None:
        self.cache_hits += cache[0]
        self.cache_misses += cache[1]
        self.memo_hits += memo[0]
        self.memo_misses += memo[1]

    def ratios(self) -> Dict[str, float]:
        return {
            "dataflow_cost_model_cache_hit_ratio": _ratio(
                self.cache_hits, self.cache_hits + self.cache_misses),
            "explore_mapper_search_memo_hit_ratio": _ratio(
                self.memo_hits, self.memo_hits + self.memo_misses),
            "explore_bilevel_failed_candidate_ratio": _ratio(
                self.failed_candidates, self.candidates),
        }


def _clear_caches() -> None:
    """What a fresh ``repro search`` process starts with."""
    clear_layer_cost_cache()
    clear_mapper_memo()


def _sides(tracer: Optional[Tracer], index: int) -> Tuple[bool, ...]:
    """Run untraced and, with a tracer, traced as well.  The order flips
    with ``index`` so drift over a run does not bias the overhead."""
    sides = (False, True) if tracer else (False,)
    return sides[::-1] if index % 2 else sides


@contextmanager
def _installed(tracer: Optional[Tracer]) -> Iterator[None]:
    """The tracer's wrappers in place for the block (none for ``None``)."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


class Workload:
    """Base class: subclasses define ``setup`` and the timed phase."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.digest_items: List[Any] = []
        self.samples: Dict[str, List[float]] = {"scalar_ms": [],
                                                "batched_ms": []}
        self.diagnostics: Dict[str, Any] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Optional[Tracer]
                ) -> Optional[Dict[str, float]]:
        """Run the timed phase; return per-layer metrics when traced."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def export_spans(self, tracer: Tracer, path: pathlib.Path) -> None:
        tracer.export(path)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def result(self, per_layer: Optional[Dict[str, Any]],
               tracer: Optional[Tracer]) -> Dict[str, Any]:
        """What the measured run reports to ``bench.py``."""
        self.check("timed_ops_succeeded", all(self.samples.values()))
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "outputs_digest": _digest(self.digest_items),
            "samples": self.samples,
            "diagnostics": self.diagnostics,
            "per_layer": per_layer,
            "missing_trace_targets": tracer.missing if tracer else [],
            "rss_kb": self.rss_kb(),
            "metadata": metadata(),
        }

    def start_timing(self) -> None:
        self.speed = HostSpeed()
        #: Traced wall seconds as measured, and both sides' seconds at
        #: the reference host speed (for the tracing overhead).
        self.traced_wall = 0.0
        self.scaled = {False: 0.0, True: 0.0}

    def account(self, traced: bool, elapsed: float) -> float:
        """Book one timed op of ``elapsed`` seconds, run just now; returns
        the factor that scales its times to the reference host speed."""
        factor = self.speed.factor()
        self.scaled[traced] += elapsed * factor
        if traced:
            self.traced_wall += elapsed
        return factor

    def trace_overhead_pct(self) -> float:
        return 100.0 * (_ratio(self.scaled[True], self.scaled[False]) - 1.0)


# ---------------------------------------------------------------------------
# search-msp430 / search-future
# ---------------------------------------------------------------------------


class SearchWorkload(Workload):
    """Bilevel GA (lat*sp), one serial and one batched pass per round.

    A pass searches every network of the workload once; each search
    starts from cleared caches, as a fresh ``repro search`` process
    would.  Round ``i`` uses GA seed ``1000 * seed + i`` for both modes.
    """

    #: Rounds always run, whatever the time budget; their outputs form
    #: the digest, so it is the same on every run of one seed.
    DIGEST_ROUNDS = 2

    def __init__(self, seed: int, quick: bool, *, space: Callable[[], Any],
                 networks: Sequence[str], population: int, generations: int,
                 campaign: bool) -> None:
        super().__init__(seed, quick)
        self.space_factory = space
        self.network_names = tuple(networks)
        self.population = 6 if quick else population
        self.generations = 2 if quick else generations
        self.campaign = campaign
        self.counters = _Counters()

    def setup(self) -> None:
        self.space = self.space_factory()
        self.objective = Objective.lat_sp()
        self.networks = [zoo.workload_by_name(name)
                         for name in self.network_names]

    def _pass(self, ga_seed: int, batched: bool, tracer: Optional[Tracer]
              ) -> Tuple[float, list, bool]:
        """One search per network; returns wall seconds, outputs and
        whether every search succeeded."""
        elapsed = 0.0
        outputs = []
        failed = self.failed
        config = GAConfig(population_size=self.population,
                          generations=self.generations, seed=ga_seed,
                          batched=batched)
        for network in self.networks:
            _clear_caches()
            self.attempted += 1
            start = time.perf_counter()
            try:
                with tracer.root() if tracer else nullcontext():
                    explorer = BilevelExplorer(network, self.space,
                                               self.objective,
                                               ga_config=config)
                    result = explorer.run()
            except ChrysalisError as error:
                self.failed += 1
                outputs.append([network.name, type(error).__name__])
                continue
            finally:
                elapsed += time.perf_counter() - start
            if tracer:
                self.counters.add_caches(layer_cost_cache_stats(),
                                         mapper_memo_stats())
                self.counters.failed_candidates += len(result.failures)
                self.counters.candidates += result.stats.hw_evaluations
            outputs.append([network.name, result.score,
                            design_to_dict(result.design)])
        return elapsed, outputs, self.failed == failed

    def _campaign_spec(self) -> CampaignSpec:
        """8 runs: har/kws x paper/indoor x 2 seeds, pop 8 x gen 4."""
        return CampaignSpec(
            name="perfbench",
            workloads=("har", "kws"),
            objectives=(ObjectiveSpec.from_objective(Objective.lat_sp()),),
            environments=("paper", "indoor"),
            seeds=(2 * self.seed, 2 * self.seed + 1),
            population=4 if self.quick else 8,
            generations=2 if self.quick else 4,
        )

    def _campaign_sample(self, workdir: str, index: int,
                         tracer: Optional[Tracer]) -> Tuple[float, list, bool]:
        """The whole campaign into a fresh SQLite store."""
        spec = self._campaign_spec()
        store = pathlib.Path(workdir) / f"campaign-{index}.sqlite"
        _clear_caches()
        runs = len(spec.expand())
        self.attempted += runs
        start = time.perf_counter()
        with tracer.root() if tracer else nullcontext():
            progress = campaign_runner.run_campaign(spec, store)
        elapsed = time.perf_counter() - start
        self.failed += runs - progress.completed
        return elapsed, sorted([outcome.key.run_hash, outcome.score]
                               for outcome in progress.executed), (
            progress.completed == runs)

    def measure(self, seconds: float, tracer: Optional[Tracer]
                ) -> Optional[Dict[str, float]]:
        start = time.perf_counter()
        search_share = 0.8 if self.campaign else 1.0
        search_deadline = start + seconds * search_share
        self.start_timing()
        traced_ops = 0
        rounds = 0
        while (rounds < self.DIGEST_ROUNDS
               or time.perf_counter() < search_deadline):
            ga_seed = 1000 * self.seed + rounds
            outputs = {}
            for traced in _sides(tracer, rounds):
                active = tracer if traced else None
                with _installed(active):
                    for batched in (False, True):
                        elapsed, outs, ok = self._pass(ga_seed, batched,
                                                       active)
                        ms = 1e3 * elapsed * self.account(traced, elapsed)
                        outputs[traced, batched] = outs
                        traced_ops += traced
                        if ok and not traced:
                            self.samples["batched_ms" if batched
                                         else "scalar_ms"].append(ms)
                self.check("serial_equals_batched",
                           outputs[traced, False] == outputs[traced, True])
            if rounds < self.DIGEST_ROUNDS:
                self.digest_items.append(outputs[False, False])
            rounds += 1
        self.diagnostics["rounds"] = rounds
        if self.campaign:
            traced_ops += self._measure_campaign(start + seconds, tracer)
        self.diagnostics["reference_ms"] = summarize(self.speed.readings)
        if tracer is None:
            return None
        return layer_metrics(tracer.totals(), self.traced_wall, traced_ops,
                             trace_overhead_pct=self.trace_overhead_pct(),
                             **self.counters.ratios())

    def _measure_campaign(self, deadline: float, tracer: Optional[Tracer]
                          ) -> int:
        """Repeat the campaign until ``deadline``; returns traced ops."""
        traced_ops = 0
        samples: List[float] = []
        min_repeats = 1 if self.quick else 3
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as workdir:
            index = repeats = 0
            scores = None
            while repeats < min_repeats or time.perf_counter() < deadline:
                repeats += 1
                for traced in _sides(tracer, repeats):
                    active = tracer if traced else None
                    with _installed(active):
                        elapsed, outcome, ok = self._campaign_sample(
                            workdir, index, active)
                    ms = 1e3 * elapsed * self.account(traced, elapsed)
                    index += 1
                    traced_ops += traced
                    if ok and not traced:
                        samples.append(ms)
                    if scores is None:
                        scores = outcome
                        self.digest_items.append(outcome)
                    self.check("campaign_repeats", outcome == scores)
        self.diagnostics["campaign_ms"] = samples
        return traced_ops


# ---------------------------------------------------------------------------
# price-mix
# ---------------------------------------------------------------------------


class PriceMixWorkload(Workload):
    """Direct API pricing, one closed-loop caller, no search or store.

    One cycle is 12 scalar rounds (one ``evaluate(analytical)`` per
    workload each), one batch round (one ``evaluate_batch`` of
    ``BATCH`` designs per workload) and 5 step rounds (one
    ``evaluate(step)`` on ``har`` and on ``kws``, each in a seeded
    environment).  A round prices every workload once so that its time
    does not depend on which workload a seed happens to draw.
    """

    WORKLOADS = ("har", "kws", "cifar10", "mobilenet")
    STEP_WORKLOADS = ("har", "kws")
    POOL = BATCH = 64
    SCALAR_ROUNDS, STEP_ROUNDS = 12, 5

    def setup(self) -> None:
        rng = random.Random(self.seed)
        pool = 16 if self.quick else self.POOL
        self.batch = min(pool, self.BATCH)
        labels = ScenarioGenerator(name=GENERATOR_NAME, seed=self.seed,
                                   count=GENERATOR_COUNT).expand()
        self.step_envs = ("paper", "indoor") + tuple(labels)
        existing, future = DesignSpace.existing_aut(), DesignSpace.future_aut()
        self.pools = {
            name: _lower_pool(name, existing if name in self.STEP_WORKLOADS
                              else future, pool, rng)
            for name in self.WORKLOADS
        }
        # Warm-up: fill the layer-cost cache the timed calls will hit.
        for name, designs in self.pools.items():
            api.evaluate_batch(designs, name)
        for name in self.STEP_WORKLOADS:
            for env in self.step_envs:
                api.evaluate(self.pools[name][0], name, env, fidelity="step")

    def _cycle(self, rng: random.Random) -> List[Tuple[str, list]]:
        pools = self.pools
        rounds: List[Tuple[str, list]] = []
        for _ in range(self.SCALAR_ROUNDS):
            rounds.append(("scalar", [(name, rng.choice(pools[name]))
                                      for name in self.WORKLOADS]))
        rounds.append(("batched", [(name, rng.sample(pools[name], self.batch))
                                   for name in self.WORKLOADS]))
        for _ in range(self.STEP_ROUNDS):
            rounds.append(("step", [(name, rng.choice(pools[name]),
                                     rng.choice(self.step_envs))
                                    for name in self.STEP_WORKLOADS]))
        return rounds

    def _call(self, kind: str, item: tuple) -> bool:
        self.attempted += 1
        try:
            if kind == "scalar":
                api.evaluate(item[1], item[0], fidelity="analytical")
            elif kind == "batched":
                api.evaluate_batch(item[1], item[0])
            else:
                api.evaluate(item[1], item[0], item[2], fidelity="step")
        except ChrysalisError:
            self.failed += 1
            return False
        return True

    def _run_cycle(self, rounds: List[Tuple[str, list]]
                   ) -> Tuple[float, Dict[str, List[float]]]:
        """Run one cycle; returns its seconds and the milliseconds of
        each round and call that succeeded."""
        perf = time.perf_counter
        times: Dict[str, List[float]] = {"scalar_ms": [], "batched_ms": [],
                                         "scalar_call_ms": [],
                                         "step_call_ms": []}
        cycle_start = perf()
        for kind, items in rounds:
            round_start = perf()
            ok = True
            for item in items:
                call_start = perf()
                call_ok = self._call(kind, item)
                ok = ok and call_ok
                if call_ok and kind != "batched":
                    times[kind + "_call_ms"].append(
                        1e3 * (perf() - call_start))
            if ok and kind != "step":
                times[kind + "_ms"].append(1e3 * (perf() - round_start))
        return perf() - cycle_start, times

    def measure(self, seconds: float, tracer: Optional[Tracer]
                ) -> Optional[Dict[str, float]]:
        rng = random.Random(self.seed + 1)
        record = {"scalar_ms": self.samples["scalar_ms"],
                  "batched_ms": self.samples["batched_ms"],
                  "scalar_call_ms": [], "step_call_ms": []}
        counters = _Counters()
        self.start_timing()
        cycles = 0
        deadline = time.perf_counter() + seconds
        while cycles < 1 or time.perf_counter() < deadline:
            rounds = self._cycle(rng)
            for traced in _sides(tracer, cycles):
                if not traced:
                    elapsed, times = self._run_cycle(rounds)
                    factor = self.account(False, elapsed)
                    for key, values in times.items():
                        record[key].extend(value * factor for value in values)
                    continue
                cache0, memo0 = layer_cost_cache_stats(), mapper_memo_stats()
                with _installed(tracer), tracer.root():
                    elapsed, _ = self._run_cycle(rounds)
                self.account(True, elapsed)
                cache1, memo1 = layer_cost_cache_stats(), mapper_memo_stats()
                counters.add_caches(
                    (cache1[0] - cache0[0], cache1[1] - cache0[1]),
                    (memo1[0] - memo0[0], memo1[1] - memo0[1]))
            cycles += 1
        batched_ms = record["batched_ms"]
        self.diagnostics.update(
            cycles=cycles,
            reference_ms=summarize(self.speed.readings),
            analytical_call_ms=_tail_summary(record["scalar_call_ms"]),
            step_call_ms=_tail_summary(record["step_call_ms"]),
            batch_designs_per_s=_ratio(
                len(self.WORKLOADS) * self.batch,
                1e-3 * median(batched_ms)) if batched_ms else None)
        self._verify(random.Random(self.seed + 2))
        if tracer is None:
            return None
        return layer_metrics(tracer.totals(), self.traced_wall, cycles,
                             trace_overhead_pct=self.trace_overhead_pct(),
                             **counters.ratios())

    def _verify(self, rng: random.Random) -> None:
        """Batch equals scalar pricing; seeded outputs form the digest."""
        for name in self.WORKLOADS:
            sample = rng.sample(self.pools[name], 16)
            batch = [_report_json(r) for r in api.evaluate_batch(sample, name)]
            single = [_report_json(api.evaluate(d, name, fidelity="analytical"))
                      for d in sample]
            self.check("batch_equals_scalar", batch == single)
            self.digest_items.append(batch)
        for name in self.STEP_WORKLOADS:
            for env in self.step_envs:
                report = api.evaluate(rng.choice(self.pools[name]), name, env,
                                      fidelity="step")
                self.digest_items.append(_report_json(report))


def _tail_summary(values: Sequence[float]) -> Dict[str, float]:
    return summarize(values) if values else {"count": 0}


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


class LoadGenerator:
    """Closed-loop JSON-lines load over two TCP connections.

    The calling thread keeps a set number of requests outstanding and
    sends the next one as each answer arrives; requests alternate
    between the connections.  Every request line is pre-encoded, so
    generator cost stays small next to the server's.
    """

    def __init__(self, port: int, bodies: Sequence[bytes],
                 connections: int = 2) -> None:
        self.bodies = bodies
        self.socks = [socket.create_connection(("127.0.0.1", port))
                      for _ in range(connections)]
        self.selector = selectors.DefaultSelector()
        for sock in self.socks:
            self.selector.register(sock, selectors.EVENT_READ, bytearray())
        self.next_id = 0
        #: id -> [sent, received, ok, response or None]
        self.records: Dict[int, list] = {}
        self.received = 0
        self.keep: set = set()

    def close(self) -> None:
        self.selector.close()
        for sock in self.socks:
            sock.close()

    def _send(self, index: int, keep: bool = False) -> int:
        request_id = self.next_id
        self.next_id += 1
        line = (b'{"id":' + str(request_id).encode() + b","
                + self.bodies[index] + b"\n")
        self.records[request_id] = [time.perf_counter(), 0.0, False, None]
        if keep:
            self.keep.add(request_id)
        self.socks[request_id % len(self.socks)].sendall(line)
        return request_id

    def _pump(self, done: Callable[[], bool], timeout: float,
              on_response: Optional[Callable[[], None]] = None) -> None:
        """Read responses until ``done()`` or ``timeout`` seconds pass."""
        limit = time.perf_counter() + timeout
        while not done():
            remaining = limit - time.perf_counter()
            if remaining <= 0:
                return
            for key, _ in self.selector.select(min(remaining, 0.05)):
                chunk = key.fileobj.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                buffer = key.data
                buffer.extend(chunk)
                while True:
                    end = buffer.find(b"\n")
                    if end < 0:
                        break
                    line = bytes(buffer[:end])
                    del buffer[:end + 1]
                    now = time.perf_counter()
                    response = json.loads(line)
                    record = self.records.get(response["id"])
                    if record is None:
                        continue  # answer to an earlier, timed-out phase
                    record[1] = now
                    record[2] = bool(response.get("ok"))
                    self.received += 1
                    if response["id"] in self.keep:
                        record[3] = response
                    if on_response is not None:
                        on_response()

    def request(self, index: int) -> Dict[str, Any]:
        """One request, waited for (used by the output check)."""
        request_id = self._send(index, keep=True)
        record = self.records[request_id]
        self._pump(lambda: record[1] > 0.0, 30.0)
        self.keep.discard(request_id)
        if record[3] is None:
            raise ConnectionError(f"no response to request {request_id}")
        return record[3]

    def closed_loop(self, outstanding: int, seconds: float,
                    pick: Callable[[], int]) -> Tuple[List[list], float]:
        """Keep ``outstanding`` requests in flight for ``seconds``, then
        wait for the last answers.  Returns the records of this phase in
        send order and the elapsed seconds."""
        self.records = {}
        self.received = 0
        first = self.next_id
        start = time.perf_counter()
        stop = start + seconds

        def refill() -> None:
            if time.perf_counter() < stop:
                self._send(pick())

        for _ in range(outstanding):
            refill()
        self._pump(lambda: time.perf_counter() >= stop
                   and self.received == self.next_id - first,
                   timeout=seconds + 30.0, on_response=refill)
        elapsed = time.perf_counter() - start
        return [self.records[i] for i in range(first, self.next_id)], elapsed


class ServeHost:
    """The program process: ``serve_host.py`` with its control pipe."""

    def __init__(self, seed: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_host.py"),
             "--generator-seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "LISTENING":
            self.close()
            raise SystemExit("serve host did not start")
        self.port = int(line[1])

    def command(self, **payload: Any) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise ConnectionError("serve host exited")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()  # EOF: the host drains and exits
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


class ServeWorkload(Workload):
    """Closed-loop load against ``repro serve run``'s server.

    The load levels are the ones ``benchmarks/bench_serve.py`` measures:
    1, 8 and 64 requests kept outstanding.  At 1-way every request finds
    the server idle, the concurrency-1 regime; 8-way requests batch and
    coalesce; 64-way gives the saturated throughput.  Requests follow
    Zipf(``ZIPF_S``) popularity over 128 distinct (design, workload,
    environment) tuples.
    """

    SCALAR_OUTSTANDING, BATCHED_OUTSTANDING = 1, 8
    SATURATION_OUTSTANDING = 64
    #: Shares of ``--seconds``: warm-up, 1-way, 8-way, 64-way.  A traced
    #: run halves 1-way and 8-way and repeats them traced.
    WARMUP, SCALAR, BATCHED, SATURATION = 0.1, 0.4, 0.35, 0.15
    #: Timed phases run in slices this long; between slices, with no
    #: request in flight, the load generator reads the host speed.
    SLICE_S = 0.25
    DESIGNS_PER_WORKLOAD = 16
    #: Assumed popularity skew: no request trace is cited.
    ZIPF_S = 1.1

    def setup(self) -> None:
        rng = random.Random(self.seed)
        labels = ScenarioGenerator(name=GENERATOR_NAME, seed=self.seed,
                                   count=GENERATOR_COUNT).expand()
        envs = ("paper", "indoor") + tuple(labels[:2])
        space = DesignSpace.existing_aut()
        classes = []
        for name in ("har", "kws"):
            designs = _lower_pool(name, space, self.DESIGNS_PER_WORKLOAD, rng)
            for env in envs:
                members = [(design, name, env) for design in designs]
                rng.shuffle(members)
                classes.append(members)
        # Popularity rank r falls in (workload, environment) class r mod
        # 8, so every seed offers the same mix of pricing work and only
        # the designs behind each rank change.
        self.tuples = [members[rank]
                       for rank in range(self.DESIGNS_PER_WORKLOAD)
                       for members in classes]
        self.ranks = range(len(self.tuples))
        self.cum_weights = list(itertools.accumulate(
            1.0 / (rank + 1) ** self.ZIPF_S for rank in self.ranks))
        bodies = [json.dumps({"design": design_to_dict(design),
                              "workload": name, "environment": env,
                              "fidelity": "analytical"})[1:].encode()
                  for design, name, env in self.tuples]
        self.host = ServeHost(self.seed)
        self.loadgen = LoadGenerator(self.host.port, bodies)

    def close(self) -> None:
        loadgen = getattr(self, "loadgen", None)
        if loadgen is not None:
            loadgen.close()
        host = getattr(self, "host", None)
        if host is not None:
            host.close()

    def rss_kb(self) -> int:
        return self.final_host_rss

    def export_spans(self, tracer: Tracer, path: pathlib.Path) -> None:
        # The layers run in the host; this process only generates load.
        self.host.command(cmd="export", path=str(path.resolve()))

    def _pick(self, rng: random.Random) -> int:
        return rng.choices(self.ranks, cum_weights=self.cum_weights)[0]

    def _phase(self, name: str, outstanding: int, seconds: float,
               rng: random.Random) -> Dict[str, Any]:
        """A closed loop with ``outstanding`` requests, in slices;
        latencies are scaled to the reference host speed
        (``latency_ms``) and kept as measured (``raw_latency_ms``)."""
        count = max(1, round(seconds / self.SLICE_S))
        records: List[list] = []
        factors: List[float] = []
        elapsed = 0.0
        for _ in range(count):
            part, part_s = self.loadgen.closed_loop(
                outstanding, seconds / count, lambda: self._pick(rng))
            factor = self.speed.factor()
            records += part
            factors += [factor] * len(part)
            elapsed += part_s * factor
        self.attempted += len(records)
        ok = [(r, f) for r, f in zip(records, factors) if r[1] and r[2]]
        self.failed += len(records) - len(ok)
        return {
            "name": name,
            "latency_ms": [1e3 * (r[1] - r[0]) * f for r, f in ok],
            "raw_latency_ms": [1e3 * (r[1] - r[0]) for r, _ in ok],
            "ok_per_s": len(ok) / elapsed if elapsed else 0.0,
            "host": self.host.command(cmd="snapshot"),
        }

    def measure(self, seconds: float, tracer: Optional[Tracer]
                ) -> Optional[Dict[str, float]]:
        rng = random.Random(self.seed + 1)
        traced = tracer is not None
        scalar_s = self.SCALAR * seconds * (0.5 if traced else 1.0)
        batched_s = self.BATCHED * seconds * (0.5 if traced else 1.0)
        # Host and load generator together use every CPU.
        self.speed = HostSpeed(every_cpu=True)
        self._phase("warm-up", self.SCALAR_OUTSTANDING,
                    self.WARMUP * seconds, rng)
        self._verify(random.Random(self.seed + 2))
        self.host.command(cmd="snapshot")
        scalar = self._phase("1-way", self.SCALAR_OUTSTANDING, scalar_s, rng)
        batched = self._phase("8-way", self.BATCHED_OUTSTANDING, batched_s,
                              rng)
        saturated = self._phase("64-way", self.SATURATION_OUTSTANDING,
                                self.SATURATION * seconds, rng)
        phases = [scalar, batched, saturated]
        if traced:
            self.host.command(cmd="trace", on=True)
            traced_scalar = self._phase("1-way-traced",
                                        self.SCALAR_OUTSTANDING, scalar_s,
                                        rng)
            traced_batched = self._phase("8-way-traced",
                                         self.BATCHED_OUTSTANDING, batched_s,
                                         rng)
            self.host.command(cmd="trace", on=False)
            phases += [traced_scalar, traced_batched]
        self.final_host_rss = self.host.command(cmd="snapshot")["rss_kb"]
        self.samples["scalar_ms"] = scalar["latency_ms"]
        self.samples["batched_ms"] = batched["latency_ms"]
        self.diagnostics["reference_ms"] = summarize(self.speed.readings)
        self.diagnostics["saturated_rps"] = saturated["ok_per_s"]
        for phase in phases:
            stats = phase["host"]["stats"]
            self.diagnostics[phase["name"]] = {
                "latency_ms": _tail_summary(phase["latency_ms"]),
                "raw_latency_ms": _tail_summary(phase["raw_latency_ms"]),
                "queue_wait_p50_ms": 1e3 * (
                    stats["queue_wait_seconds"]["p50"] or 0.0),
                "queue_wait_p99_ms": 1e3 * (
                    stats["queue_wait_seconds"]["p99"] or 0.0),
                "batch_occupancy_mean": _ratio(
                    stats["batch_occupancy"]["sum"],
                    stats["batch_occupancy"]["count"]),
                "coalesce_ratio": stats["coalesce_rate"],
                "shed": stats["shed"],
                "timeouts": stats["timeouts"],
            }
        if not traced:
            return None
        return self._layer_metrics(traced_scalar, traced_batched, scalar,
                                   saturated["ok_per_s"])

    def _layer_metrics(self, scalar: Dict[str, Any], batched: Dict[str, Any],
                       untraced_scalar: Dict[str, Any],
                       saturated_rps: float) -> Dict[str, Optional[float]]:
        """Layer table over both traced phases; the 1-way latency split
        into wire, queue wait, pricing and the rest of the server's
        request path (as measured, not scaled)."""
        phases = (scalar, batched)
        totals = merge_totals([phase["host"]["trace"] for phase in phases])
        wall = sum(phase["host"]["wall_s"] for phase in phases)
        requests = sum(len(phase["latency_ms"]) for phase in phases)
        cache = [sum(phase["host"]["cache"][i] for phase in phases)
                 for i in (0, 1)]
        memo = [sum(phase["host"]["memo"][i] for phase in phases)
                for i in (0, 1)]
        occupancy = [phase["host"]["stats"]["batch_occupancy"]
                     for phase in phases]
        split: Dict[str, Optional[float]] = dict.fromkeys(
            ("serve_wire_pct", "serve_queue_wait_pct", "serve_price_pct",
             "serve_remainder_pct", "trace_overhead_pct"))
        if scalar["latency_ms"] and untraced_scalar["latency_ms"]:
            host = scalar["host"]
            total = median(scalar["raw_latency_ms"])
            server = median(host["submit_ms"]) if host["submit_ms"] else 0.0
            batch_ns = host["trace"]["extras"].get("api.evaluate_batch.ns",
                                                   [])
            price = 1e-6 * median(batch_ns) if batch_ns else 0.0
            queue = 1e3 * (host["stats"]["queue_wait_seconds"]["p50"] or 0.0)
            split.update(
                serve_wire_pct=100.0 * _ratio(total - server, total),
                serve_queue_wait_pct=100.0 * _ratio(queue, total),
                serve_price_pct=100.0 * _ratio(price, total),
                serve_remainder_pct=100.0 * _ratio(server - queue - price,
                                                   total),
                trace_overhead_pct=100.0 * (_ratio(
                    median(scalar["latency_ms"]),
                    median(untraced_scalar["latency_ms"])) - 1.0))
        metrics = layer_metrics(
            totals, wall, requests,
            dataflow_cost_model_cache_hit_ratio=_ratio(cache[0], sum(cache)),
            explore_mapper_search_memo_hit_ratio=_ratio(memo[0], sum(memo)),
            serve_batch_occupancy_mean=_ratio(
                sum(h["sum"] for h in occupancy),
                sum(h["count"] for h in occupancy)),
            serve_coalesce_ratio=batched["host"]["stats"]["coalesce_rate"],
            serve_saturated_rps=saturated_rps, **split)
        # The host has no bench root span: everything outside the
        # layers (idle time included) is unattributed.
        metrics["unattributed_pct"] = 100.0 - sum(
            metrics[f"{layer}.self_pct"] for layer in LAYERS)
        return metrics

    def _verify(self, rng: random.Random) -> None:
        """Served reports equal local ``evaluate(analytical)``."""
        for index in rng.sample(range(len(self.tuples)), 16):
            design, name, env = self.tuples[index]
            response = self.loadgen.request(index)
            local = api.evaluate(design, name, env, fidelity="analytical")
            served = response.get("report") or {}
            wire = json.dumps({"metrics": served.get("metrics"),
                               "by_environment": served.get("by_environment")},
                              sort_keys=True)
            self.check("served_equals_local",
                       response.get("ok") and wire == _report_json(local))
            self.digest_items.append(wire)


WORKLOADS: Dict[str, Callable[[int, bool], Workload]] = {
    "search-msp430": lambda seed, quick: SearchWorkload(
        seed, quick, space=DesignSpace.existing_aut, networks=("har", "kws"),
        population=32, generations=20, campaign=True),
    "search-future": lambda seed, quick: SearchWorkload(
        seed, quick, space=DesignSpace.future_aut, networks=("cifar10",),
        population=8, generations=5, campaign=False),
    "price-mix": PriceMixWorkload,
    "serve": ServeWorkload,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="traced runs: write the kept spans here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        tracer = Tracer() if args.trace else None
        per_layer = workload.measure(args.seconds, tracer)
        if tracer is not None and args.spans:
            workload.export_spans(tracer, pathlib.Path(args.spans))
        result = workload.result(per_layer, tracer)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
