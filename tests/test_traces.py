"""Tests for piecewise-constant traces and the segment-aware fast path."""

import math

import pytest

from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.energy.traces import (
    DAY_S,
    TraceEnvironment,
    TraceHarvester,
    TraceSegment,
    cloud_trace,
    diurnal_trace,
    schedule_trace,
    trickle_trace,
)
from repro.errors import ConfigurationError
from repro.faults.injector import FaultConfig, FaultInjector
from repro.sim.evaluator import ChrysalisEvaluator, build_harvester
from repro.units import uF
from repro.workloads import zoo

REL = 1e-9  # the engine's documented fast-path tolerance

DARK = LightEnvironment.darker().k_eh


def make_setup(workload="har", n_tiles=128, cap=uF(10), panel=1.0):
    network = zoo.workload_by_name(workload)
    design = AuTDesign.with_default_mappings(
        EnergyDesign(panel_area_cm2=panel, capacitance_f=cap),
        InferenceDesign.msp430(), network, n_tiles=n_tiles)
    return ChrysalisEvaluator(network), design


def make_trace(name="trace", scale=1.0):
    """A paper-scale four-segment trace with mid-cycle boundaries."""
    return TraceEnvironment(name, (
        TraceSegment(45.0, scale * DARK),
        TraceSegment(30.0, scale * 0.6 * DARK),
        TraceSegment(45.0, scale * 0.8 * DARK),
        TraceSegment(60.0, scale * 0.45 * DARK),
    ))


def assert_equivalent(exact, fast):
    em, fm = exact.metrics, fast.metrics
    assert em.feasible == fm.feasible
    for name in ("e2e_latency", "busy_time", "charge_time",
                 "harvested_energy", "sustained_period"):
        assert getattr(fm, name) == pytest.approx(getattr(em, name), rel=REL)
    assert fm.total_energy == pytest.approx(em.total_energy, rel=REL)
    assert fm.power_cycles == em.power_cycles
    assert fm.exceptions == em.exceptions
    assert fast.trace.counts() == exact.trace.counts()


class TestTraceEnvironment:
    def test_lookup_is_right_continuous_and_periodic(self):
        tr = TraceEnvironment("t", (TraceSegment(10.0, 1e-4),
                                    TraceSegment(20.0, 3e-4)))
        assert tr.period_s == 30.0
        assert tr.k_eh_at_s(0.0) == 1e-4
        assert tr.k_eh_at_s(10.0) == 3e-4  # boundary: new segment applies
        assert tr.k_eh_at_s(29.999) == 3e-4
        assert tr.k_eh_at_s(30.0) == 1e-4  # wraps
        assert tr.k_eh_at_s(40.0) == 3e-4

    def test_mean_k_eh_is_time_weighted(self):
        tr = TraceEnvironment("t", (TraceSegment(10.0, 1e-4),
                                    TraceSegment(30.0, 5e-4)))
        expected = (10.0 * 1e-4 + 30.0 * 5e-4) / 40.0
        assert tr.k_eh == pytest.approx(expected)

    def test_next_change_is_strictly_increasing(self):
        tr = TraceEnvironment("t", (TraceSegment(10.0, 1e-4),
                                    TraceSegment(20.0, 3e-4)))
        t, seen = 0.0, []
        for _ in range(6):
            t = tr.next_change_after(t)
            seen.append(t)
        assert seen == [10.0, 30.0, 40.0, 60.0, 70.0, 90.0]
        # Exactly at a boundary, the *next* one is strictly later.
        assert tr.next_change_after(10.0) == 30.0

    def test_single_segment_never_changes(self):
        tr = trickle_trace(2e-5)
        assert tr.next_change_after(0.0) == math.inf
        assert tr.k_eh == 2e-5

    def test_segment_counter_never_wraps(self):
        # Lookups several periods out count the whole periods elapsed:
        # boundaries come back in absolute time, and the coefficient is
        # the one of the segment the time falls in after the wrap.
        tr = TraceEnvironment("t", (TraceSegment(10.0, 1e-4),
                                    TraceSegment(20.0, 3e-4)))
        times = (0.0, 10.0, 30.0, 40.0, 60.0, 65.0, 95.0)
        assert [tr.next_change_after(t) for t in times] == [
            10.0, 30.0, 40.0, 60.0, 70.0, 70.0, 100.0]
        assert [tr.k_eh_at_s(t) for t in times] == [
            1e-4, 3e-4, 1e-4, 3e-4, 1e-4, 1e-4, 1e-4]

    def test_json_round_trip_preserves_hash(self):
        tr = make_trace()
        back = TraceEnvironment.from_json(tr.to_json())
        assert back == tr
        assert back.content_hash == tr.content_hash

    def test_content_hash_sees_segments(self):
        a = TraceEnvironment("same", (TraceSegment(10.0, 1e-4),))
        b = TraceEnvironment("same", (TraceSegment(10.0, 2e-4),))
        assert a.content_hash != b.content_hash

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="segment"):
            TraceEnvironment("t", ())
        with pytest.raises(ConfigurationError, match="duration"):
            TraceSegment(0.0, 1e-4)
        with pytest.raises(ConfigurationError, match="k_eh"):
            TraceSegment(1.0, -1e-4)

    @pytest.mark.parametrize("duration_s, k_eh, field", [
        (math.inf, 1e-4, "duration_s"),
        (math.nan, 1e-4, "duration_s"),
        (1.0, math.inf, "k_eh"),
        (1.0, math.nan, "k_eh"),
    ])
    def test_validation_rejects_non_finite(self, duration_s, k_eh, field):
        with pytest.raises(ConfigurationError, match=field):
            TraceSegment(duration_s, k_eh)


class TestGenerators:
    def test_diurnal_follows_the_haurwitz_staircase(self):
        base = LightEnvironment.brighter()
        tr = diurnal_trace(base)
        assert tr.period_s == DAY_S
        # Midday segments harvest, the merged night stretch does not.
        assert tr.k_eh_at_s(12.5 * 3600.0) > 0.0
        assert tr.k_eh_at_s(1.0 * 3600.0) == 0.0
        assert tr.k_eh_at_s(12.5 * 3600.0) == pytest.approx(
            base.k_eh_at(12.5), rel=0.5)

    def test_cloud_trace_is_seeded_and_bounded(self):
        base = LightEnvironment.brighter()
        a = cloud_trace(base, seed=3)
        b = cloud_trace(base, seed=3)
        c = cloud_trace(base, seed=4)
        assert a.segments == b.segments
        assert a.segments != c.segments
        clear = diurnal_trace(base, step_s=600.0)
        assert all(s.k_eh <= clear.k_eh_at_s(t) + 1e-18
                   for t, s in zip(
                       (sum(x.duration_s for x in a.segments[:i])
                        for i in range(len(a.segments))), a.segments))

    def test_schedule_trace_shape(self):
        tr = schedule_trace(5e-5, k_off=1e-6, on_hour=8.0, off_hour=18.0)
        assert tr.period_s == DAY_S
        assert tr.k_eh_at_s(7.9 * 3600.0) == 1e-6
        assert tr.k_eh_at_s(8.0 * 3600.0) == 5e-5
        assert tr.k_eh_at_s(18.0 * 3600.0) == 1e-6
        with pytest.raises(ConfigurationError, match="on_hour"):
            schedule_trace(5e-5, on_hour=18.0, off_hour=8.0)


class TestTraceHarvester:
    def test_dispatch_and_power(self):
        _, design = make_setup()
        tr = make_trace()
        harvester = build_harvester(design, tr)
        assert isinstance(harvester, TraceHarvester)
        assert not harvester.constant_power
        assert harvester.power_at(0.0) > harvester.power_at(50.0)
        assert harvester.next_change_after(0.0) == 45.0
        # A static preset still builds the paper's constant harvester.
        static = build_harvester(design, LightEnvironment.darker())
        assert static.constant_power

    def test_single_segment_is_constant(self):
        _, design = make_setup()
        harvester = build_harvester(design, trickle_trace(2e-5))
        assert harvester.constant_power
        assert harvester.next_change_after(0.0) == math.inf


class TestSegmentAwareFastPath:
    def test_fast_matches_exact_on_piecewise_trace(self):
        evaluator, design = make_setup()
        tr = make_trace()
        exact = evaluator.simulate(design, tr, fast_forward=False)
        fast = evaluator.simulate(design, tr, fast_forward=True)
        assert exact.metrics.feasible
        assert exact.fast_cycles_skipped == 0
        assert fast.fast_cycles_skipped > 0  # engaged despite the trace
        assert fast.fast_segments >= 2      # re-armed across boundaries
        assert_equivalent(exact, fast)

    def test_boundaries_fall_mid_cycle(self):
        # Segment durations with no relation to the cycle period: the
        # replay cap must stop the fast path short of every boundary.
        evaluator, design = make_setup()
        tr = TraceEnvironment("ragged", (
            TraceSegment(37.31, DARK),
            TraceSegment(23.07, 0.55 * DARK),
            TraceSegment(41.93, 0.75 * DARK),
        ))
        exact = evaluator.simulate(design, tr, fast_forward=False)
        fast = evaluator.simulate(design, tr, fast_forward=True)
        assert fast.fast_cycles_skipped > 0
        assert_equivalent(exact, fast)

    def test_charge_coasts_across_a_blackout(self):
        # A 40 s blackout 2 s into the run: every in-flight charge phase
        # must coast through the dead segment and finish after it.
        evaluator, design = make_setup()
        tr = TraceEnvironment("gap", (TraceSegment(2.0, 5e-4),
                                      TraceSegment(40.0, 0.0),
                                      TraceSegment(3558.0, 5e-4)))
        exact = evaluator.simulate(design, tr, fast_forward=False)
        fast = evaluator.simulate(design, tr, fast_forward=True)
        assert exact.metrics.feasible
        assert exact.metrics.e2e_latency > 40.0  # the blackout bit
        assert_equivalent(exact, fast)

    def test_single_segment_degenerates_to_constant(self):
        evaluator, design = make_setup()
        tr = trickle_trace(DARK, name="flat")
        static = evaluator.simulate(design, LightEnvironment.darker(),
                                    fast_forward=True)
        flat = evaluator.simulate(design, tr, fast_forward=True)
        assert flat.fast_cycles_skipped == static.fast_cycles_skipped > 0
        assert flat.metrics.e2e_latency == static.metrics.e2e_latency

    def test_active_injector_still_disables_fast_path(self):
        evaluator, design = make_setup()
        tr = make_trace()
        injector = FaultInjector(FaultConfig.stress().with_seed(3))
        nominal = evaluator.simulate(design, tr)
        assert nominal.fast_cycles_skipped > 0
        faulted = evaluator.simulate(design, tr, faults=injector)
        assert faulted.fast_cycles_skipped == 0
        assert faulted.fast_segments == 0

    def test_faulted_trace_runs_identical_regardless_of_flag(self):
        evaluator, design = make_setup()
        tr = make_trace()
        injector = FaultInjector(FaultConfig.stress().with_seed(7))
        a = evaluator.simulate(design, tr, faults=injector,
                               fast_forward=True)
        b = evaluator.simulate(design, tr, faults=injector,
                               fast_forward=False)
        assert a.trace.events == b.trace.events
        assert a.metrics.e2e_latency == b.metrics.e2e_latency


class TestChargingFaultsOnTraces:
    """A fault that perturbs charging waits for the light, as a run
    without faults does, instead of calling a dark stretch hopeless."""

    NIGHTS = schedule_trace(6e-5, k_off=0.0, on_hour=8.0, off_hour=18.0,
                            name="dark-nights")

    def _run(self, config=None):
        # 8 cm², 470 µF: the banked energy runs out before 8 am, so the
        # first recharge starts in the dark.
        evaluator, design = make_setup(n_tiles=1, cap=uF(470), panel=8.0)
        faults = None if config is None else FaultInjector(config)
        return evaluator.simulate(design, self.NIGHTS, faults=faults)

    @pytest.mark.parametrize("config", [
        FaultConfig(seed=3, harvest_dropout_rate=0.3),
        FaultConfig(cap_leakage_drift_rate=2e-6),
        FaultConfig.stress(seed=2),
        FaultConfig(harvest_dropout_rate=1e-9),
        FaultConfig(cap_leakage_drift_rate=1e-12),
    ], ids=["dropout", "leakage-drift", "stress", "tiny-dropout",
            "tiny-drift"])
    def test_recharge_through_the_night_is_feasible(self, config):
        nominal = self._run()
        assert nominal.metrics.feasible
        assert nominal.metrics.e2e_latency > 8 * 3600.0  # waited for 8 am
        faulted = self._run(config)
        assert faulted.metrics.feasible, faulted.metrics.infeasible_reason
        assert faulted.metrics.e2e_latency == pytest.approx(
            nominal.metrics.e2e_latency, rel=0.02)

    def test_inert_injector_matches_no_injector(self):
        nominal = self._run()
        inert = self._run(FaultConfig())
        assert inert.metrics == nominal.metrics
