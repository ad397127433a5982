"""Tests for the MAESTRO-lite analytical dataflow cost model."""

import pytest

from repro.dataflow.cost_model import DataflowCostModel
from repro.dataflow.directives import DataflowStyle
from repro.dataflow.mapping import LayerMapping
from repro.hardware.accelerators import eyeriss_like, tpu_like
from repro.hardware.checkpoint import CheckpointModel
from repro.hardware.msp430 import MSP430Platform
from repro.workloads.layers import Conv2D, Dense


@pytest.fixture
def conv():
    return Conv2D("c", in_channels=16, out_channels=32, in_height=16,
                  in_width=16, kernel=3, padding=1)


@pytest.fixture
def fc():
    return Dense("fc", in_features=1024, out_features=256)


def model_for(hardware):
    return DataflowCostModel(hardware, CheckpointModel(
        nvm=hardware.nvm.technology))


def ws(n_tiles=1, tile_dim="Y", spatial_dim="K"):
    return LayerMapping(style=DataflowStyle.WEIGHT_STATIONARY,
                        n_tiles=n_tiles, tile_dim=tile_dim,
                        spatial_dim=spatial_dim)


class TestBasicAccounting:
    def test_macs_conserved_across_tiling(self, conv):
        model = model_for(tpu_like())
        whole = model.layer_cost(conv, ws(n_tiles=1))
        split = model.layer_cost(conv, ws(n_tiles=4))
        assert whole.macs == conv.macs
        # Tiled total covers at least the layer (ceil rounding may add).
        assert split.macs >= conv.macs

    def test_energy_positive_components(self, conv):
        cost = model_for(tpu_like()).layer_cost(conv, ws(n_tiles=2))
        tile = cost.tile
        assert tile.compute_energy > 0
        assert tile.vm_energy > 0
        assert tile.nvm_energy > 0
        assert tile.static_energy > 0
        assert tile.checkpoint_energy > 0

    def test_single_tile_no_checkpoint(self, conv):
        cost = model_for(tpu_like()).layer_cost(conv, ws(n_tiles=1))
        assert cost.tile.checkpoint_energy == 0.0
        assert cost.tile.checkpoint_bytes == 0.0

    def test_layer_cost_scales_tiles(self, conv):
        cost = model_for(tpu_like()).layer_cost(conv, ws(n_tiles=4))
        assert cost.energy == pytest.approx(cost.n_tiles * cost.tile.energy)

    def test_oversplit_clamped(self, conv):
        # Y = 16; requesting 1000 tiles must clamp, not crash.
        cost = model_for(tpu_like()).layer_cost(conv, ws(n_tiles=1000))
        assert cost.n_tiles == 16


class TestTilingTradeoffs:
    def test_more_tiles_more_total_checkpoint_energy(self, conv):
        model = model_for(tpu_like())
        few = model.layer_cost(conv, ws(n_tiles=2))
        many = model.layer_cost(conv, ws(n_tiles=8))
        assert many.checkpoint_energy > few.checkpoint_energy

    def test_more_tiles_smaller_tile_energy(self, conv):
        model = model_for(tpu_like())
        few = model.layer_cost(conv, ws(n_tiles=2))
        many = model.layer_cost(conv, ws(n_tiles=8))
        assert many.tile.energy < few.tile.energy

    def test_total_energy_grows_with_tiling(self, conv):
        """The Eq. 5 tradeoff: N_tile up -> E_all up (ckpt + halo refetch)."""
        model = model_for(tpu_like())
        energies = [model.layer_cost(conv, ws(n_tiles=n)).energy
                    for n in (1, 2, 4, 8, 16)]
        assert energies == sorted(energies)


class TestHardwareKnobs:
    def test_more_pes_less_compute_time(self, conv):
        small = model_for(tpu_like(n_pes=4)).layer_cost(conv, ws())
        large = model_for(tpu_like(n_pes=32)).layer_cost(conv, ws())
        assert large.tile.compute_time < small.tile.compute_time

    def test_pes_beyond_spatial_extent_idle(self, conv):
        # K=32 spatial extent: 64 PEs cannot all be used.
        cost = model_for(tpu_like(n_pes=64)).layer_cost(conv, ws())
        assert cost.tile.active_pes == 32

    def test_bigger_cache_not_worse(self, conv):
        small = model_for(tpu_like(cache_bytes_per_pe=128)).layer_cost(
            conv, ws())
        large = model_for(tpu_like(cache_bytes_per_pe=2048)).layer_cost(
            conv, ws())
        assert large.tile.vm_energy <= small.tile.vm_energy + 1e-15

    def test_single_pe_time_matches_eq6(self, conv):
        hw = tpu_like(n_pes=8)
        model = model_for(hw)
        t_df = model.single_pe_time(conv)
        assert t_df == pytest.approx(
            conv.macs / hw.pes.macs_per_second_per_pe
        )


class TestDataflowStyles:
    def test_styles_price_differently(self, fc):
        model = model_for(eyeriss_like())
        costs = {}
        for style in DataflowStyle:
            mapping = LayerMapping(style=style, n_tiles=1, tile_dim="K",
                                   spatial_dim="C")
            costs[style] = model.layer_cost(fc, mapping).energy
        assert len(set(costs.values())) > 1

    def test_tpu_penalises_non_native_styles(self, conv):
        model = model_for(tpu_like())
        ws_cost = model.layer_cost(conv, LayerMapping(
            style=DataflowStyle.WEIGHT_STATIONARY, n_tiles=1,
            tile_dim="Y", spatial_dim="K")).tile.vm_energy
        os_cost = model.layer_cost(conv, LayerMapping(
            style=DataflowStyle.OUTPUT_STATIONARY, n_tiles=1,
            tile_dim="Y", spatial_dim="K")).tile.vm_energy
        # For this layer weights are the smallest operand, so WS keeps
        # traffic low and the TPU's OS penalty makes it worse still.
        assert os_cost > ws_cost


class TestMSP430Path:
    def test_serialised_io(self, conv):
        hw = MSP430Platform().as_accelerator()
        cost = model_for(hw).layer_cost(conv, ws(n_tiles=4))
        tile = cost.tile
        assert tile.latency == pytest.approx(
            tile.compute_time + tile.io_time
        )

    def test_accelerator_overlaps_io(self, conv):
        cost = model_for(tpu_like()).layer_cost(conv, ws(n_tiles=4))
        tile = cost.tile
        assert tile.latency == pytest.approx(
            max(tile.compute_time, tile.io_time)
        )

    def test_msp430_is_orders_slower_than_accelerator(self, conv):
        msp = model_for(MSP430Platform().as_accelerator()).layer_cost(
            conv, ws())
        tpu = model_for(tpu_like(n_pes=64)).layer_cost(conv, ws())
        assert msp.busy_time > 100 * tpu.busy_time


class TestPoolPricing:
    def test_pool_datapath_energy_discounted(self):
        """A pooling op is a comparison/accumulate, not a full MAC:
        its datapath energy is discounted (the pre-v1.1 branch computed
        the discount and threw it away)."""
        from repro.dataflow.cost_model import _POOL_OP_ENERGY_SCALE
        from repro.workloads.layers import Pool2D

        hw = tpu_like()
        model = model_for(hw)
        pool = Pool2D("p", channels=16, in_height=16, in_width=16)
        tile = model.layer_cost(pool, ws(tile_dim="Y", spatial_dim="X")).tile
        assert tile.macs > 0
        # Only the datapath term is discounted; the per-op cache-access
        # energy is the same for a compare as for a MAC.
        cache_term = (3.0 * tile.macs * pool.bytes_per_element
                      * hw.pes.cache_access_energy_per_byte)
        assert tile.compute_energy == pytest.approx(
            _POOL_OP_ENERGY_SCALE * hw.pes.compute_energy(tile.macs)
            + cache_term)
        assert tile.compute_energy < (hw.pes.compute_energy(tile.macs)
                                      + cache_term)
        # Time is not discounted: a compare still occupies an issue slot.
        assert tile.compute_time == pytest.approx(
            hw.pes.compute_time(tile.macs, tile.active_pes))


class TestLayerCostCache:
    def test_cached_results_identical(self, conv):
        from repro.dataflow.cost_model import (clear_layer_cost_cache,
                                               configure_layer_cost_cache,
                                               layer_cost_cache_stats)

        try:
            configure_layer_cost_cache(enabled=False)
            cold = model_for(tpu_like()).layer_cost(conv, ws(n_tiles=4))
            configure_layer_cost_cache(enabled=True)
            clear_layer_cost_cache()
            model = model_for(tpu_like())
            miss = model.layer_cost(conv, ws(n_tiles=4))
            hit = model.layer_cost(conv, ws(n_tiles=4))
            assert cold == miss == hit
            assert hit is miss  # the cached instance is shared
            assert layer_cost_cache_stats() == (1, 1)
            # A second model on equal hardware shares the entries.
            other = model_for(tpu_like())
            assert other.layer_cost(conv, ws(n_tiles=4)) is miss
            assert layer_cost_cache_stats() == (2, 1)
        finally:
            configure_layer_cost_cache(enabled=True)
            clear_layer_cost_cache()

    def test_profile_mode_times_each_outcome(self, conv):
        """Profile mode records one latency sample per call, in the
        histogram of its outcome: a cold call misses, a warm call hits,
        and a call with the cache disabled is uncached."""
        from repro.dataflow.cost_model import (clear_layer_cost_cache,
                                               configure_layer_cost_cache)
        from repro.obs import state as obs_state

        names = ("miss", "hit", "uncached")

        def counts():
            histograms = obs_state.snapshot()["metrics"]["histograms"]
            return [histograms.get(f"cost.layer_cost.{name}_seconds",
                                   {}).get("count", 0) for name in names]

        model = model_for(tpu_like())
        try:
            configure_layer_cost_cache(enabled=True)
            clear_layer_cost_cache()
            obs_state.reset()
            obs_state.enable(profile=True)
            model.layer_cost(conv, ws(n_tiles=4))
            assert counts() == [1, 0, 0]
            model.layer_cost(conv, ws(n_tiles=4))
            assert counts() == [1, 1, 0]
            configure_layer_cost_cache(enabled=False)
            model.layer_cost(conv, ws(n_tiles=4))
            assert counts() == [1, 1, 1]
        finally:
            obs_state.disable()
            obs_state.reset()
            configure_layer_cost_cache(enabled=True)
            clear_layer_cost_cache()

    def test_different_hardware_do_not_collide(self, conv):
        from repro.dataflow.cost_model import (clear_layer_cost_cache,
                                               configure_layer_cost_cache)

        try:
            configure_layer_cost_cache(enabled=True)
            clear_layer_cost_cache()
            small = model_for(tpu_like(n_pes=8)).layer_cost(conv, ws())
            large = model_for(tpu_like(n_pes=64)).layer_cost(conv, ws())
            assert small.tile.compute_time > large.tile.compute_time
        finally:
            clear_layer_cost_cache()

    # -- the tile geometry shared across accelerators ----------------------

    @pytest.fixture
    def builds(self, monkeypatch):
        """Every ``(layer, mapping)`` whose tile geometry is built, in
        order, from a cold cache."""
        from repro.dataflow import cost_model

        built = []
        build = cost_model._TileGeometry.of.__func__

        def counted(cls, layer, mapping):
            built.append((layer, mapping))
            return build(cls, layer, mapping)

        monkeypatch.setattr(cost_model._TileGeometry, "of",
                            classmethod(counted))
        cost_model.configure_layer_cost_cache(enabled=True)
        cost_model.clear_layer_cost_cache()
        yield built
        cost_model.configure_layer_cost_cache(enabled=True)
        cost_model.clear_layer_cost_cache()

    def test_second_accelerator_prices_from_shared_geometry(self, conv,
                                                            builds):
        from repro.dataflow.cost_model import (configure_layer_cost_cache,
                                               layer_cost_cache_stats)

        small = model_for(tpu_like(n_pes=8)).layer_cost(conv, ws(n_tiles=4))
        assert (len(builds), layer_cost_cache_stats()) == (1, (0, 1))
        large = model_for(tpu_like(n_pes=64)).layer_cost(conv, ws(n_tiles=4))
        # One more miss, counted once, and no second geometry.
        assert (len(builds), layer_cost_cache_stats()) == (1, (0, 2))
        configure_layer_cost_cache(enabled=False)
        assert large == model_for(tpu_like(n_pes=64)).layer_cost(
            conv, ws(n_tiles=4))
        assert small != large

    def test_clear_drops_every_geometry(self, conv, builds):
        from repro.dataflow.cost_model import clear_layer_cost_cache

        for _ in range(3):
            # A fresh model per round, as each search builds its own.
            model = model_for(tpu_like())
            model.layer_cost(conv, ws(n_tiles=4))
            model.layer_cost(conv, ws(n_tiles=4))
            clear_layer_cost_cache()
        # Each miss after a clear rebuilds, the hits in between do not.
        assert len(builds) == 3
        model_for(eyeriss_like()).layer_cost(conv, ws(n_tiles=4))
        assert len(builds) == 4

    def test_every_clear_reaches_a_long_lived_model(self, conv, builds):
        from repro.dataflow.cost_model import (clear_layer_cost_cache,
                                               layer_cost_cache_stats)

        model = model_for(tpu_like())  # built once, kept across clears
        stats = []
        for _ in range(3):
            clear_layer_cost_cache()
            model.layer_cost(conv, ws(n_tiles=4))
            stats.append(layer_cost_cache_stats())
        # Each pricing after a clear misses: no clear leaves behind an
        # entry the model added after an earlier one.
        assert stats == [(0, 1)] * 3
        assert len(builds) == 3

    def test_cache_off_neither_reads_nor_fills_geometry(self, conv, builds):
        from repro.dataflow import cost_model

        model = model_for(tpu_like())
        cost_model.configure_layer_cost_cache(enabled=False)
        model.layer_cost(conv, ws(n_tiles=4))
        model.layer_cost(conv, ws(n_tiles=4))
        assert len(builds) == 2 and not cost_model._TILE_GEOMETRY
        cost_model.configure_layer_cost_cache(enabled=True)
        warm = model.layer_cost(conv, ws(n_tiles=4))
        assert len(builds) == 3 and len(cost_model._TILE_GEOMETRY) == 1
        cost_model.configure_layer_cost_cache(enabled=False)
        assert model_for(eyeriss_like()).layer_cost(conv, ws(n_tiles=4))
        assert model.layer_cost(conv, ws(n_tiles=4)) == warm
        assert len(builds) == 5 and len(cost_model._TILE_GEOMETRY) == 1

    def test_geometry_flushes_at_the_cache_bound(self, conv, builds,
                                                 monkeypatch):
        from repro.dataflow import cost_model

        monkeypatch.setattr(cost_model._LAYER_COST_CACHE, "maxsize", 2)
        model = model_for(tpu_like())
        sizes = []
        for n_tiles in (1, 2, 4, 8):
            model.layer_cost(conv, ws(n_tiles=n_tiles))
            sizes.append(len(cost_model._TILE_GEOMETRY))
        assert sizes == [1, 2, 1, 2]


    def test_registry_flushes_with_the_cache(self, conv, builds,
                                             monkeypatch):
        """A kept model's bucket stays the one ``map_for`` returns: an
        overflow flush empties the accelerator registry too."""
        from repro.dataflow import cost_model
        from repro.design import InferenceDesign
        from repro.hardware.accelerators import AcceleratorFamily
        from repro.sim.analytical import _cost_model

        monkeypatch.setattr(cost_model._LAYER_COST_CACHE, "maxsize", 2)
        inference = InferenceDesign(family=AcceleratorFamily.TPU, n_pes=8)
        model = _cost_model(inference, None)
        prefix = (model.hardware.cache_key(), model.checkpoint)
        for n_tiles in (1, 2):
            assert _cost_model(inference, None) is model
            model.layer_cost(conv, ws(n_tiles=n_tiles))
        model.layer_cost(conv, ws(n_tiles=4))  # over the bound: flush
        assert not cost_model._COST_MODELS
        kept = _cost_model(inference, None)
        assert kept is not model and _cost_model(inference, None) is kept
        assert kept._cache_map is cost_model._LAYER_COST_CACHE.map_for(
            prefix)
        assert model._cache_map is not kept._cache_map


    def test_racing_first_lookups_price_alike(self, conv, builds):
        """Serve prices on one executor thread, but nothing stops two
        threads' first lookups from racing: each may build, the registry
        keeps one model per accelerator, and every caller prices alike."""
        import sys
        import threading

        from repro.dataflow import cost_model
        from repro.design import InferenceDesign
        from repro.hardware.accelerators import AcceleratorFamily
        from repro.sim.analytical import _cost_model

        designs = [InferenceDesign(family=AcceleratorFamily.TPU, n_pes=n)
                   for n in (4, 8, 16)]
        expected = {design: _cost_model(design, None).layer_cost(
            conv, ws(n_tiles=4)) for design in designs}
        cost_model.clear_layer_cost_cache()
        priced, errors = [], []

        def worker():
            try:
                for _ in range(50):
                    for design in designs:
                        priced.append((design, _cost_model(
                            design, None).layer_cost(conv, ws(n_tiles=4))))
            except Exception as error:  # reported by the assert below
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(priced) == 4 * 50 * len(designs)
        assert all(cost == expected[design] for design, cost in priced)
        assert len(cost_model._COST_MODELS) == len(designs)


class TestTwoLevelMemo:
    """The class behind the layer-cost cache and the mapper memo."""

    def test_flush_reaches_a_dict_a_clear_dropped(self):
        from repro.dataflow.cost_model import _TwoLevelMemo

        memo = _TwoLevelMemo(maxsize=2)
        held = memo.map_for(("hw",))  # a client built before the clear
        memo.clear()
        memo.insert(held, ("key",), 0)
        other = memo.map_for(("other",))
        memo.insert(other, (1,), 1)
        memo.insert(other, (2,), 2)  # over the bound: flush
        assert not held and not other

    def test_flush_drops_the_prefix_index(self):
        from repro.dataflow.cost_model import _TwoLevelMemo

        memo = _TwoLevelMemo(maxsize=4)
        for prefix in range(100):  # one prefix per accelerator
            memo.insert(memo.map_for((prefix,)), ("key",), prefix)
        # Flushes bound the index as they bound the entries, with no
        # clear in between (a serving process never clears).
        assert len(memo._maps) <= memo.maxsize

    def test_cleared_dicts_die_with_their_last_client(self):
        from repro.dataflow.cost_model import _TwoLevelMemo

        memo = _TwoLevelMemo(maxsize=4)
        for prefix in range(100):  # one prefix per accelerator
            memo.map_for((prefix,))
        held = memo.map_for(("kept",))
        memo.clear()
        assert list(memo._live.values()) == [held]
        del held
        assert not memo._live
