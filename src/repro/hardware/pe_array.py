"""Processing-element array abstraction.

Both reconfigurable-accelerator families in the paper's Table V design
space are parameterised by the same two knobs CHRYSALIS searches:

* ``n_pes`` — the PE count (1 - 168 in the paper's space);
* ``cache_bytes_per_pe`` — the per-PE local buffer (128 B - 2 KB).

The per-MAC energy and throughput differ per family and are set by the
factories in :mod:`repro.hardware.accelerators`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PEArray:
    """An array of MAC processing elements with per-PE local caches.

    Parameters
    ----------
    n_pes:
        Number of processing elements.
    cache_bytes_per_pe:
        Local buffer per PE, bytes.
    mac_energy:
        Energy of one multiply-accumulate, J (datapath only; operand
        movement is charged by the dataflow cost model).
    clock_hz:
        PE clock.
    macs_per_cycle_per_pe:
        Issue width of one PE.
    cache_access_energy_per_byte:
        Energy to move one byte between a PE's cache and its datapath.
    static_power_per_pe:
        Leakage/clock overhead of one powered PE, W.
    """

    n_pes: int
    cache_bytes_per_pe: int
    mac_energy: float
    clock_hz: float
    macs_per_cycle_per_pe: int = 1
    cache_access_energy_per_byte: float = 0.01e-9
    static_power_per_pe: float = 5e-6

    def __post_init__(self) -> None:
        if self.n_pes <= 0:
            raise ConfigurationError(f"n_pes must be positive, got {self.n_pes}")
        if self.cache_bytes_per_pe <= 0:
            raise ConfigurationError(
                f"cache_bytes_per_pe must be positive, got {self.cache_bytes_per_pe}"
            )
        if self.mac_energy < 0:
            raise ConfigurationError(
                f"mac_energy must be non-negative, got {self.mac_energy}"
            )
        if self.clock_hz <= 0:
            raise ConfigurationError(
                f"clock_hz must be positive, got {self.clock_hz}"
            )
        if self.macs_per_cycle_per_pe <= 0:
            raise ConfigurationError("macs_per_cycle_per_pe must be positive")

    @property
    def macs_per_second_per_pe(self) -> float:
        return self.macs_per_cycle_per_pe * self.clock_hz

    @property
    def static_power(self) -> float:
        """Leakage of the whole (powered) array, W."""
        return self.n_pes * self.static_power_per_pe

    def compute_time(self, macs: float, active_pes: int | None = None) -> float:
        """Seconds to execute ``macs`` on ``active_pes`` PEs (default all)."""
        if macs < 0:
            raise ConfigurationError(f"macs must be non-negative, got {macs}")
        pes = self.n_pes if active_pes is None else active_pes
        if not 0 < pes <= self.n_pes:
            raise ConfigurationError(
                f"active_pes={pes} outside [1, {self.n_pes}]"
            )
        return macs / (pes * self.macs_per_second_per_pe)

    def compute_energy(self, macs: float) -> float:
        """Datapath energy for ``macs`` multiply-accumulates, J."""
        return macs * self.mac_energy
