"""Tests for the inference controller's tile-progress state machine."""

import pytest

from repro.dataflow.cost_model import DataflowCostModel
from repro.dataflow.mapping import LayerMapping
from repro.errors import SimulationError
from repro.hardware.accelerators import tpu_like
from repro.hardware.checkpoint import CheckpointModel
from repro.sim.intermittent import InferenceController
from repro.workloads.layers import Conv2D


@pytest.fixture
def plan():
    conv = Conv2D("c", in_channels=4, out_channels=8, in_height=8,
                  in_width=8, kernel=3, padding=1)
    hw = tpu_like(n_pes=8)
    model = DataflowCostModel(hw, CheckpointModel(nvm=hw.nvm.technology))
    mapping = LayerMapping.default(conv, n_tiles=4)
    return [model.layer_cost(conv, mapping)]


def make_controller(plan):
    return InferenceController(plan=plan)


class TestProgress:
    def test_empty_plan_rejected(self):
        with pytest.raises(SimulationError):
            InferenceController(plan=[])

    def test_initial_state(self, plan):
        controller = make_controller(plan)
        assert not controller.finished
        assert controller.tile_energy_demand() > 0

    def test_partial_delivery_no_completion(self, plan):
        controller = make_controller(plan)
        demand = controller.tile_energy_demand()
        completed = controller.deliver(demand / 2)
        assert completed == []
        assert controller.tile_energy_demand() == pytest.approx(demand / 2)

    def test_exact_delivery_completes_tile(self, plan):
        controller = make_controller(plan)
        demand = controller.tile_energy_demand()
        completed = controller.deliver(demand)
        assert completed == [(plan[0].layer_name, 0)]
        assert controller.tile_index == 1

    def test_surplus_rolls_into_next_tile(self, plan):
        controller = make_controller(plan)
        demand = controller.tile_energy_demand()
        controller.deliver(demand * 1.5)
        assert controller.tile_index == 1
        assert controller.tile_energy_done == pytest.approx(demand * 0.5)

    def test_full_run_finishes(self, plan):
        controller = make_controller(plan)
        total_tiles = plan[0].n_tiles
        completed = controller.deliver(
            plan[0].tile.energy_without_checkpoint * total_tiles + 1e-12)
        assert len(completed) == total_tiles
        assert controller.finished

    def test_deliver_negative_rejected(self, plan):
        with pytest.raises(SimulationError):
            make_controller(plan).deliver(-1.0)

    def test_current_layer_after_finish_raises(self, plan):
        controller = make_controller(plan)
        controller.deliver(plan[0].tile.energy_without_checkpoint
                           * plan[0].n_tiles + 1e-12)
        with pytest.raises(SimulationError):
            _ = controller.current_layer


class TestPowerFailure:
    def test_midtile_failure_loses_progress(self, plan):
        controller = make_controller(plan)
        controller.deliver(controller.tile_energy_demand() / 2)
        lost = controller.power_failure()
        assert lost is True
        assert controller.exceptions == 1
        assert controller.tile_energy_done == 0.0

    def test_boundary_failure_loses_nothing(self, plan):
        controller = make_controller(plan)
        lost = controller.power_failure()
        assert lost is False
        assert controller.exceptions == 0

    def test_emergency_checkpoint_charged(self, plan):
        controller = make_controller(plan)
        controller.deliver(controller.tile_energy_demand() / 2)
        controller.power_failure()
        assert controller.breakdown.checkpoint > 0.0


class TestBookkeeping:
    def test_planned_checkpoints_between_tiles(self, plan):
        controller = make_controller(plan)
        per_tile = plan[0].tile.energy_without_checkpoint
        controller.deliver(per_tile * plan[0].n_tiles + 1e-12)
        # N_tile tiles have N_tile - 1 internal boundaries.
        assert controller.planned_checkpoints == plan[0].n_tiles - 1

    def test_breakdown_accumulates_tile_energy(self, plan):
        controller = make_controller(plan)
        per_tile = plan[0].tile.energy_without_checkpoint
        controller.deliver(per_tile * plan[0].n_tiles + 1e-12)
        expected = plan[0].n_tiles * plan[0].tile.compute_energy
        assert controller.breakdown.compute == pytest.approx(expected)

    def test_tile_power_matches_energy_over_latency(self, plan):
        controller = make_controller(plan)
        tile = plan[0].tile
        assert controller.tile_power() == pytest.approx(
            tile.energy_without_checkpoint / tile.latency)
