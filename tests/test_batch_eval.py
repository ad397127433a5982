"""Batch-vs-scalar identity suite for the vectorized evaluation core.

The contract under test: the scalar :class:`AnalyticalModel` is the
oracle, and every batched path — :class:`BatchAnalyticalModel`, the
public :func:`repro.evaluate_batch`, and a ``GAConfig(batched=True)``
search — must reproduce its results *bit for bit* (``==`` on every
float field, not approx), feasible and infeasible candidates alike.
"""

import math

import pytest

from repro import evaluate, evaluate_batch
from repro.dataflow.cost_model import (clear_layer_cost_cache,
                                       layer_cost_cache_stats)
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.errors import MappingError
from repro.explore.bilevel import BilevelExplorer
from repro.explore.ga import GAConfig
from repro.explore.batch_eval import VectorizedGenomeEvaluator
from repro.explore.mapper_search import clear_mapper_memo, mapper_memo_stats
from repro.explore.objectives import Objective
from repro.explore.space import DesignSpace
from repro.hardware.accelerators import AcceleratorFamily
from repro.obs import state as obs_state
from repro.sim.analytical import (AnalyticalModel, BatchAnalyticalModel,
                                  CycleBudget)
from repro.units import uF
from repro.workloads import zoo

NETWORKS = {
    "har_cnn": zoo.har_cnn,
    "mnist_cnn": zoo.mnist_cnn,
    "cifar10_cnn": zoo.cifar10_cnn,
}

ENVIRONMENTS = {
    "brighter": LightEnvironment.brighter,
    "darker": LightEnvironment.darker,
}


def _designs_for(network):
    """A zoo of candidates spanning both setups plus pathological ones.

    The last two are deliberately infeasible: a starved harvester whose
    leakage eats the entire income, and a single-tile mapping whose one
    tile cannot fit in an energy cycle on the paper's existing AuT.
    """
    msp = InferenceDesign.msp430()
    tpu = InferenceDesign(family=AcceleratorFamily.TPU, n_pes=64,
                          cache_bytes_per_pe=512)
    eyeriss = InferenceDesign(family=AcceleratorFamily.EYERISS, n_pes=64,
                              cache_bytes_per_pe=512)
    mid = EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(100))
    big = EnergyDesign(panel_area_cm2=10.0, capacitance_f=uF(470))
    starved = EnergyDesign(panel_area_cm2=0.05, capacitance_f=uF(10))
    return [
        AuTDesign.with_default_mappings(mid, msp, network, n_tiles=2),
        AuTDesign.with_default_mappings(big, tpu, network, n_tiles=2),
        AuTDesign.with_default_mappings(big, eyeriss, network, n_tiles=4),
        AuTDesign.with_default_mappings(mid, tpu, network, n_tiles=1),
        AuTDesign.with_default_mappings(starved, msp, network, n_tiles=2),
        AuTDesign.with_default_mappings(mid, msp, network, n_tiles=1),
    ]


def assert_metrics_identical(batch, scalar):
    """Bit-identity: every field compared with ``==``, never approx."""
    assert batch.feasible == scalar.feasible
    assert batch.infeasible_reason == scalar.infeasible_reason
    assert batch.e2e_latency == scalar.e2e_latency
    assert batch.busy_time == scalar.busy_time
    assert batch.charge_time == scalar.charge_time
    assert batch.harvested_energy == scalar.harvested_energy
    assert batch.sustained_period == scalar.sustained_period
    assert batch.power_cycles == scalar.power_cycles
    assert batch.exceptions == scalar.exceptions
    assert batch.energy.compute == scalar.energy.compute
    assert batch.energy.vm == scalar.energy.vm
    assert batch.energy.nvm == scalar.energy.nvm
    assert batch.energy.static == scalar.energy.static
    assert batch.energy.checkpoint == scalar.energy.checkpoint
    assert batch.energy.cap_leakage == scalar.energy.cap_leakage
    assert batch.energy.conversion == scalar.energy.conversion


class TestBatchModelIdentity:
    @pytest.mark.parametrize("env_name", sorted(ENVIRONMENTS))
    @pytest.mark.parametrize("net_name", sorted(NETWORKS))
    def test_mixed_batch_matches_scalar_oracle(self, net_name, env_name):
        """One heterogeneous sweep — several accelerator families,
        duplicates, and infeasible candidates — equals N scalar calls."""
        network = NETWORKS[net_name]()
        environment = ENVIRONMENTS[env_name]()
        designs = _designs_for(network)
        designs.append(designs[0])  # duplicate genome in the same batch

        batched = BatchAnalyticalModel(network, environment).evaluate_many(
            designs)
        assert len(batched) == len(designs)
        saw_infeasible = False
        for design, got in zip(designs, batched):
            want = AnalyticalModel(design, network, environment).evaluate()
            assert_metrics_identical(got, want)
            saw_infeasible = saw_infeasible or not want.feasible
        assert saw_infeasible, "zoo must exercise the infeasible path"

    def test_empty_batch(self, har_network, brighter):
        assert BatchAnalyticalModel(har_network, brighter,
                                    None).evaluate_many([]) == []

    def test_order_preserved_under_grouping(self, har_network, brighter):
        """Designs are grouped by accelerator internally; results must
        still come back in submission order."""
        designs = _designs_for(har_network)
        interleaved = [designs[1], designs[0], designs[3], designs[2],
                       designs[0]]
        batched = BatchAnalyticalModel(
            har_network, brighter).evaluate_many(interleaved)
        for design, got in zip(interleaved, batched):
            want = AnalyticalModel(design, har_network, brighter).evaluate()
            assert_metrics_identical(got, want)


class TestEvaluateBatchAPI:
    def test_reports_match_scalar_evaluate(self, har_network):
        designs = _designs_for(har_network)
        reports = evaluate_batch(designs, har_network)
        assert len(reports) == len(designs)
        for design, report in zip(designs, reports):
            want = evaluate(design, har_network, fidelity="analytical")
            assert report.fidelity == "analytical"
            assert report.design is design
            assert report.simulations is None
            assert_metrics_identical(report.metrics, want.metrics)
            assert (list(report.by_environment)
                    == list(want.by_environment))
            for name in report.by_environment:
                assert_metrics_identical(report.by_environment[name],
                                         want.by_environment[name])

    def test_empty_design_list(self):
        assert evaluate_batch([], "har") == []


def _feasible_pool(network):
    """16 designs that run in both paper environments."""
    families = (InferenceDesign.msp430(),
                InferenceDesign(family=AcceleratorFamily.TPU, n_pes=64,
                                cache_bytes_per_pe=512))
    return [
        AuTDesign.with_default_mappings(
            EnergyDesign(panel_area_cm2=area, capacitance_f=uF(cap)),
            inference, network, n_tiles=n_tiles)
        for area in (6.0, 10.0) for cap in (100, 470)
        for inference in families for n_tiles in (2, 4)
    ]


def _warm_probes(price):
    """Layer-cost ``(hits, misses)`` of ``price()`` run on a warm cache."""
    clear_layer_cost_cache()
    price()
    hits0, misses0 = layer_cost_cache_stats()
    price()
    hits1, misses1 = layer_cost_cache_stats()
    return hits1 - hits0, misses1 - misses0


class TestPlansPricedOnce:
    """Tile costs do not depend on the light: a design's plan is read
    from the layer-cost cache once, however many environments price it."""

    def test_batch_probes_each_layer_once_per_design(self, har_network):
        designs = _feasible_pool(har_network)
        reports = evaluate_batch(designs, har_network)
        assert all(report.feasible and len(report.by_environment) == 2
                   for report in reports)
        probes = _warm_probes(lambda: evaluate_batch(designs, har_network))
        assert probes == (len(har_network) * 16, 0) == (80, 0)

    def test_batch_skips_designs_that_cannot_charge(self, har_network,
                                                    brighter):
        designs = _feasible_pool(har_network) + _designs_for(har_network)
        indoor = LightEnvironment.indoor()
        charging = sum(CycleBudget.of(design.energy, indoor).net > 0.0
                       for design in designs)
        assert charging < len(designs)
        probes = _warm_probes(lambda: evaluate_batch(
            designs, har_network, environments=(indoor, brighter)))
        assert probes == (len(har_network) * charging, 0)

    def test_evaluate_probes_each_layer_once(self, har_network, msp_design):
        assert len(evaluate(msp_design, har_network, fidelity="analytical")
                   .by_environment) == 2
        probes = _warm_probes(lambda: evaluate(
            msp_design, har_network, fidelity="analytical"))
        assert probes == (len(har_network), 0)


SMALL_GA = dict(population_size=6, generations=3, seed=11)


def make_explorer(space=DesignSpace.existing_aut, **overrides):
    params = dict(SMALL_GA, **overrides)
    return BilevelExplorer(
        network=zoo.har_cnn(),
        space=space(),
        objective=Objective.lat_sp(),
        ga_config=GAConfig(**params),
    )


def assert_results_equal(a, b):
    assert a.score == b.score
    assert a.design == b.design
    assert a.history.best == b.history.best
    assert a.history.mean == b.history.mean
    assert a.history.evaluations == b.history.evaluations
    assert [p.values for p in a.evaluated] == [p.values for p in b.evaluated]
    assert len(a.failures) == len(b.failures)
    assert ([(r.candidate, r.family, r.stage) for r in a.failures.records]
            == [(r.candidate, r.family, r.stage) for r in b.failures.records])


#: The existing-AuT search above, and the future-AuT search of the
#: pricing golden file, where nearly every genome is its own accelerator.
SEARCHES = {
    "existing_aut": {},
    "future_aut": dict(space=DesignSpace.future_aut, population_size=6,
                       generations=2, seed=7),
}


class TestBatchedSearchIdentity:
    @pytest.mark.parametrize("setup", sorted(SEARCHES))
    def test_batched_search_matches_serial(self, setup):
        # Both runs start from cold caches: the batched scan must price
        # exactly the rungs the serial scan prices (equal misses).
        clear_layer_cost_cache()
        serial = make_explorer(**SEARCHES[setup]).run()
        clear_mapper_memo()
        clear_layer_cost_cache()
        batched = make_explorer(batched=True, **SEARCHES[setup]).run()
        assert_results_equal(serial, batched)
        assert serial.stats.hw_evaluations == batched.stats.hw_evaluations
        assert serial.stats.mapper_hits == batched.stats.mapper_hits
        assert serial.stats.mapper_misses == batched.stats.mapper_misses
        assert (serial.stats.layer_cost_misses
                == batched.stats.layer_cost_misses)
        assert batched.stats.batched_sweeps > 0
        assert batched.stats.batched_genomes > 0
        assert batched.stats.scalar_fallbacks == 0
        assert serial.stats.batched_sweeps == 0
        assert math.isfinite(batched.score)

    def test_batched_recorded_in_summary(self):
        result = make_explorer(batched=True).run()
        assert "batched" in result.summary()


def _cold_search(network, batched, **ga):
    """A lat*sp search over the existing space from cleared caches."""
    clear_mapper_memo()
    clear_layer_cost_cache()
    return BilevelExplorer(
        network=network, space=DesignSpace.existing_aut(),
        objective=Objective.lat_sp(),
        ga_config=GAConfig(batched=batched, **ga)).run()


class TestOneBuildPerAccelerator:
    """A search builds each accelerator once: the SW-level scan, the
    pricing of every genome and the final pricing of the winner share
    the process's one cost model per accelerator."""

    @pytest.mark.parametrize("batched", [False, True])
    def test_msp430_search_builds_once(self, batched, monkeypatch):
        builds = []
        build = InferenceDesign.build
        monkeypatch.setattr(InferenceDesign, "build",
                            lambda self: builds.append(self) or build(self))
        result = _cold_search(zoo.har_cnn(), batched, population_size=16,
                              generations=10, seed=0)
        assert result.stats.hw_evaluations > 80
        assert builds == [InferenceDesign.msp430()]


class TestUnmappableCounter:
    """``mapper.unmappable`` counts each unmappable energy design once,
    whether one ``optimize`` call or a multi-design ``scan`` searched it,
    so it reads the same for serial and batched searches."""

    @staticmethod
    def unmappable(batched):
        obs_state.enable()
        try:
            with obs_state.run_scope("search") as scope:
                _cold_search(zoo.kws_mlp(), batched, population_size=16,
                             generations=6, seed=0)
            return scope.snapshot()["metrics"]["counters"].get(
                "mapper.unmappable", 0)
        finally:
            obs_state.disable()
            obs_state.reset()

    def test_serial_and_batched_count_alike(self):
        serial = self.unmappable(False)
        assert serial == 4
        assert self.unmappable(True) == serial


class TestGroupRerun:
    @staticmethod
    def warm_broken_search(batched):
        """Seed 3 after seed 0 warmed the mapper memo, every panel
        under 10 cm2 unmappable."""
        clear_mapper_memo()
        clear_layer_cost_cache()
        make_explorer(seed=0).run()
        clear_layer_cost_cache()
        explorer = make_explorer(seed=3, batched=batched)
        original = explorer.mapper.scan

        def sabotaged(inference, energies):
            if any(energy.panel_area_cm2 < 10.0 for energy in energies):
                raise MappingError("synthetic: no tiling")
            return original(inference, energies)

        explorer.mapper.scan = sabotaged
        return explorer.run()

    def test_group_with_memo_hits_is_priced_once(self):
        """A group whose scan raises is re-run one genome at a time;
        its memo hits must not be priced in the generation pass too."""
        serial = self.warm_broken_search(False)
        batched = self.warm_broken_search(True)
        assert_results_equal(serial, batched)
        assert len(serial.failures) > 0
        assert batched.stats.scalar_fallbacks > 0
        # One memo probe per genome, a failed genome's included.
        assert (serial.stats.mapper_hits + serial.stats.mapper_misses
                == serial.stats.hw_evaluations)
        assert batched.stats.mapper_hits == serial.stats.mapper_hits > 0
        assert batched.stats.mapper_misses == serial.stats.mapper_misses
        assert (batched.stats.layer_cost_hits
                == serial.stats.layer_cost_hits)
        assert (batched.stats.layer_cost_misses
                == serial.stats.layer_cost_misses)


class TestMapperMemoLifetime:
    def test_memo_survives_explorer_turnover(self):
        """Regression for the dead mapper memo (``mapper_hit_rate: 0.0``).

        The memo used to live on the explorer instance, so a second
        search over the same space — the exact scenario the ``memoized``
        benchmark mode measures — re-missed every projection.  It is now
        process-wide: a fresh explorer replaying the same seed must see
        hits only.
        """
        cold = make_explorer().run()
        assert cold.stats.mapper_misses > 0
        warm = make_explorer().run()
        assert warm.stats.mapper_hits > 0
        assert warm.stats.mapper_misses == 0
        assert_results_equal(cold, warm)

    def test_repeated_genome_population_hits(self):
        """Within one run, duplicate projections must score memo hits."""
        explorer = make_explorer()
        genome = explorer.space.seed_genomes()[0]
        explorer.evaluate_genome(genome)
        explorer.evaluate_genome(dict(genome))
        assert explorer.stats.mapper_hits > 0


class TestBatchedMapperMemo:
    """The vectorized evaluator and the process-wide mapper memo.

    Regression suite for the batched-mode memo bypass: warm batched
    runs used to report ``mapper_hit_rate: 0.0`` because the bench
    only ever ran the batched mode cold, which hid that the batched
    duplicate-key fast path skipped the process-wide hit counter.
    """

    def test_batched_mode_consults_and_fills_process_memo(self):
        cold = make_explorer(batched=True).run()
        assert cold.stats.mapper_misses > 0
        warm = make_explorer(batched=True).run()
        assert warm.stats.mapper_hits > 0
        assert warm.stats.mapper_misses == 0
        assert_results_equal(cold, warm)

    def test_memo_is_shared_across_batched_and_scalar_modes(self):
        """A cold batched run must warm the memo for scalar mode —
        the sharing the serving layer's mixed traffic relies on."""
        batched = make_explorer(batched=True).run()
        serial = make_explorer().run()
        assert serial.stats.mapper_hits > 0
        assert serial.stats.mapper_misses == 0
        assert_results_equal(batched, serial)

    def test_duplicate_designs_count_as_process_memo_hits(self):
        """Batched duplicate-key short-circuits must keep the global
        hit/miss accounting probe-for-probe identical to serial mode
        (they used to bump only the per-run stats, so
        ``mapper_memo_stats()`` under-reported batched hits)."""
        serial = make_explorer()
        genome = serial.space.seed_genomes()[0]
        first = serial.evaluate_genome(genome)
        second = serial.evaluate_genome(dict(genome))
        serial_stats = mapper_memo_stats()

        clear_mapper_memo()
        batched = make_explorer(batched=True)
        evaluator = VectorizedGenomeEvaluator(batched)
        scores = evaluator.evaluate_many([genome, dict(genome)])

        assert scores == [first, second]
        assert mapper_memo_stats() == serial_stats
        hits, _misses = mapper_memo_stats()
        assert hits > 0  # the duplicate genome is a (counted) hit
