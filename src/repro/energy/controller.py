"""Energy controller — the intermittent-power state machine.

The paper's energy subsystem describer includes "an energy controller
responsible for implementing the logic of the energy subsystem ...
[which] emulates the intermittent computing power logic and communicates
with the inference subsystem describer."  This module is that component.

The controller owns a harvester, a capacitor and a PMIC, and exposes:

* :meth:`EnergyController.step` — advance by ``dt`` while the load draws
  ``load_power``; reports whether the rail stayed up;
* :meth:`EnergyController.fast_forward_to_on` — analytically skip a
  charging phase (the step simulator uses this so that searches remain
  fast without losing the step-based semantics during computation);
* cumulative accounting of harvested / delivered / leaked energy, and
  the number of power cycles — the quantities Figs. 8, 9 and 11 plot.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.energy.capacitor import Capacitor
from repro.energy.harvester import Harvester
from repro.energy.pmic import PowerManagementIC
from repro.errors import ConfigurationError
from repro.obs.state import OBS

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.injector import FaultInjector


class PowerState(enum.Enum):
    """Rail state of the intermittent system."""

    OFF = "off"  # charging; load rail disabled
    ON = "on"  # load rail enabled; computation may proceed


@dataclass
class EnergyAccounting:
    """Cumulative energy bookkeeping, all in joules."""

    harvested: float = 0.0  # electrical energy out of the harvester
    stored: float = 0.0  # energy that actually entered the capacitor
    delivered: float = 0.0  # load-side energy consumed by computation
    leaked: float = 0.0  # lost to capacitor leakage
    conversion_loss: float = 0.0  # lost in the PMIC's converters
    curtailed: float = 0.0  # harvest discarded at the rated-voltage clamp
    power_cycles: int = 0  # number of OFF -> ON transitions


@dataclass
class EnergyController:
    """State machine tying harvester, capacitor and PMIC together."""

    harvester: Harvester
    capacitor: Capacitor
    pmic: PowerManagementIC = field(default_factory=PowerManagementIC)
    time: float = 0.0
    state: PowerState = PowerState.OFF
    accounting: EnergyAccounting = field(default_factory=EnergyAccounting)
    #: Optional fault-injection hook; ``None`` (the default) keeps the
    #: nominal path untouched, and an injector with all rates zero is
    #: numerically identical to it.
    faults: Optional["FaultInjector"] = None

    def __post_init__(self) -> None:
        if self.pmic.v_on > self.capacitor.rated_voltage:
            raise ConfigurationError(
                f"PMIC v_on={self.pmic.v_on} exceeds capacitor rating "
                f"{self.capacitor.rated_voltage}"
            )
        # Pristine leakage coefficient — the drift fault ages it as a
        # function of absolute time, so the baseline must be pinned.
        self._base_k_cap = self.capacitor.k_cap
        self._sync_state()

    # -- observers ---------------------------------------------------------------

    @property
    def voltage(self) -> float:
        """Current storage voltage, V."""
        return self.capacitor.voltage

    def rail_on(self) -> bool:
        return self.state is PowerState.ON

    def available_cycle_energy(self) -> float:
        """Load-side energy remaining before the rail cuts off, J.

        From the current voltage down to ``U_off``, through the buck.
        Zero when the rail is off.
        """
        if not self.rail_on():
            return 0.0
        raw = self.capacitor.energy_between(self.voltage, self.pmic.v_off)
        return raw * self.pmic.buck_efficiency

    # -- dynamics -----------------------------------------------------------------

    def step(self, dt: float, load_power: float = 0.0) -> PowerState:
        """Advance the subsystem by ``dt`` seconds.

        ``load_power`` is the rail-side power the inference subsystem is
        drawing; it is only honoured while the rail is on (an off rail
        delivers nothing).  Returns the state *after* the step.
        """
        if dt < 0:
            raise ConfigurationError(f"dt must be non-negative, got {dt}")
        if load_power < 0:
            raise ConfigurationError(
                f"load_power must be non-negative, got {load_power}"
            )
        capacitor, pmic, faults = self.capacitor, self.pmic, self.faults
        if OBS.enabled:
            OBS.registry.counter("energy.controller.steps").inc()
        while True:
            harvested_power = self.harvester.power_at(self.time)
            if faults is not None:
                capacitor.k_cap = faults.k_cap_at(self.time, self._base_k_cap)
                harvested_power *= faults.harvest_factor(self.time)
            charge_power = pmic.charge_power(harvested_power)
            if self.rail_on() and load_power > 0:
                drain_power = pmic.drain_power(load_power)
                if faults is not None:
                    drain_power *= faults.esr_factor(
                        self.accounting.power_cycles)
            else:
                load_power = 0.0
                drain_power = 0.0

            # If the load will drag the storage down to U_off before the
            # step ends, split the step at the crossing: the rail (and
            # the load) cut exactly there, and the remainder charges
            # load-free in the next pass of this loop.
            if drain_power > charge_power:
                t_off = capacitor.time_until(pmic.v_off,
                                             charge_power - drain_power)
                if t_off < dt:
                    self._advance(t_off, harvested_power, charge_power,
                                  drain_power, load_power)
                    self.state = PowerState.OFF
                    dt -= t_off
                    load_power = 0.0
                    if OBS.enabled:
                        OBS.registry.counter(
                            "energy.controller.off_splits").inc()
                    continue

            self._advance(dt, harvested_power, charge_power, drain_power,
                          load_power)
            self._transition(v_before=self.voltage)
            return self.state

    def _advance(self, dt: float, harvested_power: float,
                 charge_power: float, drain_power: float,
                 load_power: float) -> None:
        """Integrate the capacitor and update the energy accounting.

        This is the hottest function of the step simulator, so the
        capacitor/accounting attribute chains are resolved once and the
        leakage power (``k_cap * C * U * U``, Eqs. 2) is inlined instead
        of paying two method calls per step.  The arithmetic matches
        ``Capacitor.leakage_power`` operation for operation, so results
        stay bit-identical.
        """
        capacitor = self.capacitor
        acct = self.accounting
        half_c = 0.5 * capacitor.capacitance
        leak_coeff = capacitor.k_cap * capacitor.capacitance
        u = capacitor.voltage
        energy_before = half_c * u**2
        leak_before = leak_coeff * u * u
        capacitor.step(charge_power - drain_power, dt)
        u = capacitor.voltage
        leak_after = leak_coeff * u * u
        energy_after = half_c * u**2

        leak_energy = 0.5 * (leak_before + leak_after) * dt
        # Anything the charger pushed that neither ended up stored, nor
        # served the load, nor leaked, was curtailed at the voltage clamp.
        curtailed = ((charge_power - drain_power) * dt - leak_energy
                     - (energy_after - energy_before))

        self.time += dt
        acct.harvested += harvested_power * dt
        acct.stored += charge_power * dt
        acct.delivered += load_power * dt
        acct.leaked += leak_energy
        acct.curtailed += max(curtailed, 0.0)
        acct.conversion_loss += (
            (harvested_power - charge_power) + (drain_power - load_power)
        ) * dt

    #: Iteration cap of the charge loop; only a backstop for an
    #: unbounded ``max_wait`` on a trace that never lets the charge land.
    MAX_CHARGE_WINDOWS = 1_000_000

    def fast_forward_to_on(self, max_wait: float = math.inf) -> float:
        """Charge with no load until the rail turns on; returns elapsed s.

        The charge power is constant over windows that end at the
        harvester's next change (``next_change_after``; a constant
        harvester has one endless window) or, when faults perturb
        charging, at the end of the shading window.  Each window is
        charged in closed form, so the cost is O(windows) however long
        the charge takes; a window that cannot reach ``v_on`` — a night,
        a shaded window — is charged through.

        Returns ``math.inf`` when ``max_wait`` runs out, or when the
        harvester never changes again and even its unshaded power cannot
        out-run leakage; the caller flags the design infeasible.  A
        failed charge that never started leaves the state untouched; one
        that charged through windows first leaves that partial charge
        behind, which callers treat as terminal anyway.
        """
        if self.rail_on():
            return 0.0
        obs_on = OBS.enabled
        if obs_on:
            OBS.registry.counter("energy.controller.charge_fastforwards").inc()
        capacitor, pmic, v_on = self.capacitor, self.pmic, self.pmic.v_on
        faults = self.faults
        if faults is not None and not faults.perturbs_charging:
            faults = None
        next_change = getattr(self.harvester, "next_change_after", None)
        waited = 0.0
        for _ in range(self.MAX_CHARGE_WINDOWS):
            if obs_on:
                OBS.registry.counter("energy.controller.charge_windows").inc()
            if waited >= max_wait:
                return math.inf
            panel_power = self.harvester.power_at(self.time)
            harvested_power = panel_power
            if faults is not None:
                capacitor.k_cap = faults.k_cap_at(self.time, self._base_k_cap)
                harvested_power = panel_power * faults.harvest_factor(self.time)
            charge_power = pmic.charge_power(harvested_power)
            wait = capacitor.time_to_reach(v_on, charge_power)
            change = (math.inf if next_change is None
                      else next_change(self.time))
            end = (change if faults is None
                   else min(faults.window_end(self.time), change))
            window = max(end - self.time, 1e-9)
            if wait <= window:
                if math.isinf(wait) or waited + wait > max_wait:
                    return math.inf
                self._advance(wait, harvested_power, charge_power, 0.0, 0.0)
                self._snap_to_on()
                self._transition(v_before=0.0)
                return waited + wait
            if (math.isinf(wait) and math.isinf(change)
                    and math.isinf(capacitor.time_to_reach(
                        v_on, pmic.charge_power(panel_power)))):
                # The light never changes again and even unshaded it
                # cannot out-run leakage: hopeless.
                return math.inf
            chunk = min(window, max_wait - waited)
            self._advance(chunk, harvested_power, charge_power, 0.0, 0.0)
            waited += chunk
        return math.inf

    def _snap_to_on(self) -> None:
        # The preceding charge was solved to land exactly on U_on, so
        # any residual deviation (~1e-13 V either side) is integration
        # noise: pin the comparator's view to exactly U_on.  This also
        # makes every charge-phase exit bitwise identical, which the
        # step simulator's cycle-skipping fast path relies on.
        if self.capacitor.voltage != self.pmic.v_on:
            self.capacitor.voltage = min(self.pmic.v_on,
                                         self.capacitor.rated_voltage)

    # -- internals -------------------------------------------------------------------

    def _transition(self, v_before: float) -> None:
        was_on = self.rail_on()
        now_on = self.pmic.rail_enabled(self.voltage, currently_on=was_on)
        if now_on and not was_on:
            self.accounting.power_cycles += 1
        self.state = PowerState.ON if now_on else PowerState.OFF

    def _sync_state(self) -> None:
        if self.pmic.rail_enabled(self.voltage, currently_on=False):
            self.state = PowerState.ON
            # Starting charged counts as the first energy cycle.
            self.accounting.power_cycles += 1
        else:
            self.state = PowerState.OFF
