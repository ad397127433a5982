"""Checkpoint save/resume cost model.

In the paper's hardware dataflow (Fig. 4), when energy runs out the
current state — "all data in VM and the processing hardware" — is saved
to NVM (step 6) and later resumed (step 7).  Eq. 5 charges the inference
``N_tile * (1 + r_exc) * N_ckpt * (e_r + e_w)`` for this: one planned
checkpoint per inter-tile boundary, plus a fraction ``r_exc`` of
unplanned mid-tile exceptions.

``N_ckpt`` is the volume of one checkpoint: the live VM working set plus
a fixed header for architectural state (register file, loop iterators,
progress counters).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.memory import MemoryTechnology


class CheckpointStrategy(enum.Enum):
    """How the runtime decides when to checkpoint.

    ``EAGER`` is the paper's iNAS-like strategy: a planned save at every
    inter-tile boundary, so a power failure costs at most one tile.
    ``JIT`` (just-in-time, in the HAWAII/DICE lineage) skips planned
    saves: a voltage monitor triggers one save right before the rail
    collapses, preserving the in-flight tile at the price of reserving
    save-energy headroom and trusting the detector.
    """

    EAGER = "eager"
    JIT = "jit"


@dataclass(frozen=True)
class CheckpointModel:
    """Cost model for saving/restoring intermittent-execution state.

    Parameters
    ----------
    nvm:
        Technology checkpoints are written to (FRAM on existing AuTs).
    header_bytes:
        Architectural state saved regardless of data volume.
    live_fraction:
        Fraction of the VM working set that is actually live at an
        inter-tile boundary (outputs were just flushed to NVM, so only
        cross-tile context — e.g. halo rows and iterator state — remains).
    exception_rate:
        The paper's ``r_exc``: expected number of unplanned energy
        exceptions per tile, each costing one extra save + resume.
    strategy:
        Eager boundary checkpoints (the paper's model) or just-in-time
        saves only when power actually fails.
    """

    nvm: MemoryTechnology
    header_bytes: int = 128
    live_fraction: float = 0.25
    exception_rate: float = 0.05
    strategy: CheckpointStrategy = CheckpointStrategy.EAGER

    def __post_init__(self) -> None:
        if self.header_bytes < 0:
            raise ConfigurationError(
                f"header_bytes must be non-negative, got {self.header_bytes}"
            )
        if not 0.0 <= self.live_fraction <= 1.0:
            raise ConfigurationError(
                f"live_fraction must be in [0, 1], got {self.live_fraction}"
            )
        if self.exception_rate < 0:
            raise ConfigurationError(
                f"exception_rate must be non-negative, got {self.exception_rate}"
            )

    def checkpoint_bytes(self, working_set_bytes: float) -> float:
        """``N_ckpt`` for a tile with the given VM working set."""
        return self.header_bytes + self.live_fraction * working_set_bytes

    def save_energy(self, working_set_bytes: float) -> float:
        """Energy of one checkpoint save, J."""
        return self.nvm.write_energy(self.checkpoint_bytes(working_set_bytes))

    def resume_energy(self, working_set_bytes: float) -> float:
        """Energy of one checkpoint restore, J."""
        return self.nvm.read_energy(self.checkpoint_bytes(working_set_bytes))

    def save_time(self, working_set_bytes: float) -> float:
        return self.nvm.write_time(self.checkpoint_bytes(working_set_bytes))

    def resume_time(self, working_set_bytes: float) -> float:
        return self.nvm.read_time(self.checkpoint_bytes(working_set_bytes))

    def commit_retry_energy(self, working_set_bytes: float) -> float:
        """Energy of one failed-and-retried commit, J.

        A failed NVM write still consumed its energy; the read-back
        verify that detects the failure costs one extra read of the
        checkpoint volume.  The successful retry itself is charged as a
        normal save by the caller.
        """
        volume = self.checkpoint_bytes(working_set_bytes)
        return self.nvm.write_energy(volume) + self.nvm.read_energy(volume)

    def expected_tile_overhead_energy(self, working_set_bytes: float) -> float:
        """Expected checkpoint energy charged to one tile (Eq. 5 term).

        Eager: one planned save+resume at the tile boundary, scaled by
        ``1 + r_exc`` for unplanned mid-tile exceptions.  JIT: only the
        ``r_exc`` emergency rounds (no planned saves), but the live
        fraction is the *whole* working set — at an arbitrary failure
        point nothing has been flushed yet.
        """
        one_round = self.save_energy(working_set_bytes) + self.resume_energy(
            working_set_bytes
        )
        if self.strategy is CheckpointStrategy.JIT:
            jit_bytes = self.header_bytes + working_set_bytes
            jit_round = (self.nvm.write_energy(jit_bytes)
                         + self.nvm.read_energy(jit_bytes))
            return self.exception_rate * jit_round
        return (1.0 + self.exception_rate) * one_round
