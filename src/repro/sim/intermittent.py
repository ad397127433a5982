"""Inference controller: tile-by-tile intermittent execution state.

This is the inference-subsystem half of the paper's step simulation:
the evaluator "invokes the energy controller, which monitors energy
changes, and the inference controller, which tracks inference changes".

The controller walks the execution plan (one :class:`LayerCost` per
layer, each made of ``n_tiles`` identical tiles) and converts delivered
energy into tile progress.  What happens on a power failure depends on
the checkpoint strategy:

* **eager** (the paper's model) — in-flight progress is volatile and
  lost; the failure costs an extra emergency save+resume round.  These
  are how the ``r_exc`` exceptions of Eq. 5 *emerge* in the step
  simulator rather than being assumed.
* **jit** — a voltage monitor fires one just-in-time save before the
  collapse, preserving the tile's progress at the cost of writing the
  whole live working set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.dataflow.cost_model import LayerCost
from repro.errors import SimulationError
from repro.hardware.checkpoint import CheckpointModel, CheckpointStrategy
from repro.hardware.memory import FRAM
from repro.sim.metrics import EnergyBreakdown


def _default_checkpoint() -> CheckpointModel:
    return CheckpointModel(nvm=FRAM)


@dataclass
class InferenceController:
    """Tracks how far the inference has progressed.

    ``checkpoint`` must be the same model that priced the plan's tiles,
    so that the per-round energies charged here match the expected
    values baked into the tile costs.
    """

    plan: Sequence[LayerCost]
    checkpoint: CheckpointModel = field(default_factory=_default_checkpoint)
    layer_index: int = 0
    tile_index: int = 0
    tile_energy_done: float = 0.0
    exceptions: int = 0
    planned_checkpoints: int = 0
    breakdown: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    #: Delivered energy whose work was discarded (volatile progress lost
    #: to power failures, tiles replayed after corrupted commits), J.
    wasted_energy: float = 0.0
    #: Tiles rolled back because a brownout corrupted their commit.
    rollbacks: int = 0
    #: Checkpoint commits that failed verify and were retried.
    checkpoint_retries: int = 0

    def __post_init__(self) -> None:
        if not self.plan:
            raise SimulationError("empty execution plan")

    # -- observers ------------------------------------------------------------

    @property
    def strategy(self) -> CheckpointStrategy:
        return self.checkpoint.strategy

    @property
    def finished(self) -> bool:
        return self.layer_index >= len(self.plan)

    @property
    def current_layer(self) -> LayerCost:
        if self.finished:
            raise SimulationError("inference already finished")
        return self.plan[self.layer_index]

    def tile_energy_demand(self) -> float:
        """Energy still needed to finish the current tile, J.

        Uses the tile's checkpoint-free energy: checkpoint rounds are
        charged separately at boundaries and failures.
        """
        tile = self.current_layer.tile
        return tile.energy_without_checkpoint - self.tile_energy_done

    def tile_power(self) -> float:
        """Average rail power while executing the current tile, W."""
        tile = self.current_layer.tile
        if tile.latency <= 0.0:
            return 0.0
        return tile.energy_without_checkpoint / tile.latency

    # -- checkpoint-round energies --------------------------------------------

    def checkpoint_round_energy(self) -> float:
        """One planned (boundary) save+resume round, J; 0 under JIT."""
        if self.finished or self.strategy is CheckpointStrategy.JIT:
            return 0.0
        if self.current_layer.n_tiles <= 1:
            return 0.0
        ws = self.current_layer.tile.working_set_bytes
        return (self.checkpoint.save_energy(ws)
                + self.checkpoint.resume_energy(ws))

    def checkpoint_round_time(self) -> float:
        """Duration of one planned round, s; 0 under JIT."""
        if self.finished or self.strategy is CheckpointStrategy.JIT:
            return 0.0
        if self.current_layer.n_tiles <= 1:
            return 0.0
        ws = self.current_layer.tile.working_set_bytes
        return (self.checkpoint.save_time(ws)
                + self.checkpoint.resume_time(ws))

    def checkpoint_retry(self) -> float:
        """Charge one failed commit + read-back verify; returns its J.

        Called by the engine when fault injection fails a planned
        checkpoint write: the wasted write and the verify read are
        added to the checkpoint energy bill, and the retry counter
        feeds the resilience report.
        """
        ws = self.current_layer.tile.working_set_bytes
        energy = self.checkpoint.commit_retry_energy(ws)
        self.breakdown.checkpoint += energy
        self.checkpoint_retries += 1
        return energy

    def rollback_tile(self) -> Tuple[str, int]:
        """Revert the last completed tile after a corrupted commit.

        A brownout corrupted the in-flight checkpoint, so the restore
        finds only the *previous* consistent checkpoint: the tile whose
        boundary was being committed must be re-executed.  Its energy
        was genuinely spent (it stays in the breakdown) but the work is
        lost, so it also counts as waste.  Returns the (layer, tile)
        that will re-execute.
        """
        if self.tile_index <= 0:
            raise SimulationError(
                "rollback requested with no in-layer checkpoint boundary"
            )
        self.tile_index -= 1
        tile = self.current_layer.tile
        self.wasted_energy += tile.energy_without_checkpoint
        self.rollbacks += 1
        self.tile_energy_done = 0.0
        return (self.current_layer.layer_name, self.tile_index)

    def _emergency_round_energy(self) -> float:
        ws = self.current_layer.tile.working_set_bytes
        if self.strategy is CheckpointStrategy.JIT:
            volume = self.checkpoint.header_bytes + ws
            nvm = self.checkpoint.nvm
            return nvm.write_energy(volume) + nvm.read_energy(volume)
        return (self.checkpoint.save_energy(ws)
                + self.checkpoint.resume_energy(ws))

    # -- progress ----------------------------------------------------------------

    def deliver(self, energy: float) -> List[Tuple[str, int]]:
        """Consume ``energy`` joules of rail power; returns completed tiles.

        Each completed tile is reported as ``(layer_name, tile_index)``
        so the engine can emit trace events and charge the planned
        checkpoint at the boundary.
        """
        if energy < 0:
            raise SimulationError(f"negative energy delivery: {energy}")
        completed: List[Tuple[str, int]] = []
        self.tile_energy_done += energy
        while not self.finished:
            demand = self.tile_energy_demand()
            if demand > 1e-15:
                break
            leftover = -demand
            completed.append((self.current_layer.layer_name, self.tile_index))
            self._complete_tile()
            self.tile_energy_done = leftover
        if self.finished:
            self.tile_energy_done = 0.0
        return completed

    def power_failure(self) -> bool:
        """Handle a rail drop; returns ``True`` if work was lost.

        Eager: mid-tile progress is volatile and lost, and the retry
        pays an emergency save+resume.  JIT: the voltage monitor saved
        the live state just in time — progress survives, the save+
        restore energy is still paid.
        """
        if self.finished:
            return False
        mid_tile = self.tile_energy_done > 1e-15
        if not mid_tile:
            return False
        self.exceptions += 1
        self.breakdown.checkpoint += self._emergency_round_energy()
        if self.strategy is CheckpointStrategy.JIT:
            return False
        self.wasted_energy += self.tile_energy_done
        self.tile_energy_done = 0.0
        return True

    # -- internals -------------------------------------------------------------------

    def _complete_tile(self) -> None:
        layer = self.current_layer
        tile = layer.tile
        self.breakdown.compute += tile.compute_energy
        self.breakdown.vm += tile.vm_energy
        self.breakdown.nvm += tile.nvm_energy
        self.breakdown.static += tile.static_energy
        planned_round = self.checkpoint_round_energy()
        self.tile_index += 1
        if self.tile_index < layer.n_tiles and planned_round > 0.0:
            # Planned checkpoint between energy-cycle tiles.
            self.breakdown.checkpoint += planned_round
            self.planned_checkpoints += 1
        if self.tile_index >= layer.n_tiles:
            self.tile_index = 0
            self.layer_index += 1
