"""Power-management IC model, based on the TI BQ25570 the paper uses.

The BQ25570 combines a boost charger (panel → storage), a buck regulator
(storage → load) and a programmable "VBAT_OK" hysteresis comparator that
implements the intermittent-computing on/off thresholds (the paper's
``U_on``/``U_off``).  We model:

* boost charging efficiency (harvest path);
* buck regulation efficiency (load path);
* the hysteresis comparator with cold-start behaviour;
* quiescent consumption of the IC itself.

Datasheet-flavoured defaults: ~85 % boost, ~90 % buck, 488 nA quiescent,
cold start from 600 mV, VBAT_OK window programmable (default 3.0 V on,
2.2 V off — representative of published intermittent-computing setups).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PowerManagementIC:
    """A BQ25570-like energy-harvesting PMIC.

    Parameters
    ----------
    v_on:
        Storage voltage at which the load rail is enabled (``U_on``).
    v_off:
        Storage voltage at which the load rail is cut (``U_off``).
    boost_efficiency:
        Fraction of harvested power that reaches the capacitor.
    buck_efficiency:
        Fraction of capacitor power that reaches the load.
    quiescent_power:
        Static draw of the IC itself, W.
    v_cold_start:
        Minimum panel voltage for the charger to start from a fully
        depleted capacitor.
    """

    v_on: float = 3.0
    v_off: float = 2.2
    boost_efficiency: float = 0.85
    buck_efficiency: float = 0.90
    quiescent_power: float = 1.5e-6
    v_cold_start: float = 0.6

    def __post_init__(self) -> None:
        if not 0 < self.v_off < self.v_on < math.inf:
            raise ConfigurationError(
                f"need 0 < v_off < v_on < inf, got v_off={self.v_off}, "
                f"v_on={self.v_on}"
            )
        for name in ("boost_efficiency", "buck_efficiency"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {value}")
        if not 0.0 <= self.quiescent_power < math.inf:
            raise ConfigurationError(
                f"quiescent_power must be non-negative and finite, "
                f"got {self.quiescent_power}"
            )
        if not -math.inf < self.v_cold_start < math.inf:
            raise ConfigurationError(
                f"v_cold_start must be finite, got {self.v_cold_start}"
            )

    # -- power paths -----------------------------------------------------------

    def charge_power(self, harvested_power: float) -> float:
        """Power delivered into the capacitor for a given harvest, W."""
        if harvested_power < 0:
            raise ConfigurationError(
                f"harvested_power must be non-negative, got {harvested_power}"
            )
        return max(harvested_power * self.boost_efficiency - self.quiescent_power, 0.0)

    def drain_power(self, load_power: float) -> float:
        """Power drawn from the capacitor to serve ``load_power`` at the rail, W."""
        if load_power < 0:
            raise ConfigurationError(
                f"load_power must be non-negative, got {load_power}"
            )
        return load_power / self.buck_efficiency

    def usable_cycle_energy(self, capacitance: float) -> float:
        """Load-side energy of one full U_on → U_off discharge, J.

        ``1/2 C (U_on² − U_off²)`` reduced by the buck efficiency.
        """
        raw = 0.5 * capacitance * (self.v_on**2 - self.v_off**2)
        return raw * self.buck_efficiency

    # -- comparator --------------------------------------------------------------

    def rail_enabled(self, storage_voltage: float, currently_on: bool) -> bool:
        """Hysteresis comparator: should the load rail be on?

        When off, the rail turns on only once the storage voltage reaches
        ``v_on``; when on, it stays on until the voltage drops below
        ``v_off``.
        """
        if currently_on:
            return storage_voltage >= self.v_off
        return storage_voltage >= self.v_on
