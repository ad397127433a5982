"""Energy-storage capacitor with the paper's leakage model.

Physics implemented here:

* stored energy ``E = 1/2 C V^2``;
* leakage current ``I_R = k_cap * C * U`` (Eq. 2), hence leakage power
  ``P_leak = k_cap * C * U^2``;
* usable energy of one discharge cycle
  ``E_cycle = 1/2 C (U_on^2 - U_off^2)`` — the first term of Eq. 3.

Charging under constant input power with voltage-dependent leakage obeys
``C·U·dU/dt = P_in − k_cap·C·U²``.  Substituting ``y = U²`` yields a
linear ODE with the closed-form solution used by
:meth:`Capacitor.time_to_reach`, which lets the simulator fast-forward
through charging phases instead of stepping them.  Charge moves only
through :meth:`Capacitor.step`, which integrates that ODE exactly over
a step of constant net power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Default leakage coefficient, 1/s.  Follows the aluminium-electrolytic
#: rule of thumb I_leak ~ 0.01 * C * V: a 10 mF device at 3 V leaks
#: ~300 uA (~0.9 mW) — enough to starve a small panel, which is exactly
#: the large-capacitor unavailability Fig. 2(b) of the paper shows —
#: while a 100 uF device leaks only ~3 uA.
DEFAULT_K_CAP = 1.0e-2


@dataclass
class Capacitor:
    """A capacitor with state (its voltage) and leakage.

    Parameters
    ----------
    capacitance:
        Farads.  The paper's design space spans 1 uF - 10 mF.
    rated_voltage:
        Maximum voltage the device tolerates; charging clamps here.
    k_cap:
        Leakage coefficient of Eq. 2, 1/s.
    voltage:
        Initial voltage, volts.
    """

    capacitance: float
    rated_voltage: float = 5.0
    k_cap: float = DEFAULT_K_CAP
    voltage: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise ConfigurationError(
                f"capacitance must be positive, got {self.capacitance}"
            )
        if self.rated_voltage <= 0:
            raise ConfigurationError(
                f"rated voltage must be positive, got {self.rated_voltage}"
            )
        if self.k_cap < 0:
            raise ConfigurationError(f"k_cap must be non-negative, got {self.k_cap}")
        if not 0 <= self.voltage <= self.rated_voltage:
            raise ConfigurationError(
                f"initial voltage {self.voltage} outside [0, {self.rated_voltage}]"
            )

    # -- static properties ---------------------------------------------------

    def stored_energy(self) -> float:
        """Energy currently stored, J."""
        return 0.5 * self.capacitance * self.voltage**2

    def energy_between(self, v_high: float, v_low: float) -> float:
        """Usable energy of a discharge from ``v_high`` down to ``v_low``, J.

        This is the ``1/2 C (U_on^2 - U_off^2)`` term of Eq. 3.
        """
        if v_low > v_high:
            raise ConfigurationError(f"v_low={v_low} exceeds v_high={v_high}")
        return 0.5 * self.capacitance * (v_high**2 - v_low**2)

    def leakage_current(self, voltage: float | None = None) -> float:
        """Leakage current at the given (default: current) voltage, A (Eq. 2)."""
        u = self.voltage if voltage is None else voltage
        return self.k_cap * self.capacitance * u

    def leakage_power(self, voltage: float | None = None) -> float:
        """Power lost to leakage at the given (default: current) voltage, W."""
        u = self.voltage if voltage is None else voltage
        return self.leakage_current(u) * u

    # -- dynamics --------------------------------------------------------------

    def step(self, net_input_power: float, dt: float) -> float:
        """Advance the capacitor by ``dt`` seconds under external power.

        ``net_input_power`` is harvested power minus load power, W; the
        leakage of Eq. 2 is applied internally on top of it.  Voltage is
        clamped to [0, rated_voltage].  Returns the new voltage.
        """
        if dt < 0:
            raise ConfigurationError(f"dt must be non-negative, got {dt}")
        if dt == 0:
            return self.voltage
        # Exact integration of C·U·dU/dt = P - a·U² with y = U², written
        # with expm1 so that the a -> 0 limit degrades gracefully to the
        # ideal-capacitor linear law instead of overflowing in P/a.
        a = self.k_cap * self.capacitance
        y0 = self.voltage**2
        x = 2.0 * a * dt / self.capacitance if a > 0 else 0.0
        if x > 1e-12:
            decay = -math.expm1(-x)  # 1 - e^-x, ~x for tiny x
            y = y0 * math.exp(-x) + net_input_power * decay / a
        else:
            # Leakage negligible over this step: ideal-capacitor law
            # (also avoids denormal noise when k_cap is pathologically
            # tiny).
            y = y0 + 2.0 * net_input_power * dt / self.capacitance
        y = min(max(y, 0.0), self.rated_voltage**2)
        self.voltage = math.sqrt(y)
        return self.voltage

    def time_to_reach(self, target_voltage: float, input_power: float) -> float:
        """Seconds of charging needed to reach ``target_voltage``.

        Uses the closed-form solution of the charging ODE.  Returns
        ``math.inf`` when the target lies above ``sqrt(P_in / (k_cap*C))``,
        where leakage eats the whole input power (the panel can never
        out-run leakage), and 0 when already there.
        """
        if target_voltage <= self.voltage:
            return 0.0
        if target_voltage > self.rated_voltage:
            return math.inf
        return self.time_until(target_voltage, input_power)

    def time_until(self, target_voltage: float,
                   net_input_power: float) -> float:
        """Seconds until the voltage crosses ``target_voltage`` under a
        constant net input power (charging *or* discharging).

        Returns 0 when already there and ``math.inf`` when the target is
        never reached (the trajectory converges to its equilibrium on
        the wrong side, or moves away from the target).
        """
        a = self.k_cap * self.capacitance
        y0 = self.voltage**2
        y1 = target_voltage**2
        if y1 == y0:
            return 0.0
        negligible_leak = (
            a == 0
            or a * self.rated_voltage**2 < abs(net_input_power) * 1e-9
        )
        if negligible_leak:
            if net_input_power == 0.0:
                return math.inf
            t = self.capacitance * (y1 - y0) / (2.0 * net_input_power)
            return t if t >= 0.0 else math.inf
        y_inf = net_input_power / a
        numerator = y1 - y_inf
        denominator = y0 - y_inf
        if denominator == 0.0:
            return math.inf  # sitting at equilibrium, never moving
        ratio = numerator / denominator
        # The trajectory is y_inf + (y0 - y_inf) e^{-x}: it reaches y1
        # only if y1 lies strictly between y0 and y_inf.
        if ratio <= 0.0 or ratio > 1.0:
            return math.inf
        return -(self.capacitance / (2.0 * a)) * math.log(ratio)
