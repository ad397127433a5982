"""Tests for the intermittent-power energy controller."""

import math

import pytest

from repro.energy.capacitor import Capacitor
from repro.energy.controller import EnergyController, PowerState
from repro.energy.environment import LightEnvironment
from repro.energy.harvester import SolarHarvester
from repro.energy.pmic import PowerManagementIC
from repro.energy.solar_panel import SolarPanel
from repro.energy.traces import TraceEnvironment, TraceHarvester, TraceSegment
from repro.errors import ConfigurationError
from repro.faults.injector import FaultConfig, FaultInjector
from repro.units import uF


def make_controller(area_cm2=8.0, capacitance=uF(470), voltage=0.0,
                    environment=None, k_cap=1.2e-3):
    env = environment or LightEnvironment.brighter()
    return EnergyController(
        harvester=SolarHarvester(SolarPanel(area_cm2=area_cm2), env),
        capacitor=Capacitor(capacitance=capacitance, rated_voltage=5.0,
                            k_cap=k_cap, voltage=voltage),
        pmic=PowerManagementIC(),
    )


class TestStateMachine:
    def test_starts_off_when_empty(self):
        assert make_controller().state is PowerState.OFF

    def test_starts_on_when_charged(self):
        assert make_controller(voltage=3.5).state is PowerState.ON

    def test_charges_to_on(self):
        controller = make_controller()
        wait = controller.fast_forward_to_on()
        assert controller.state is PowerState.ON
        assert wait > 0.0
        assert controller.voltage == pytest.approx(controller.pmic.v_on,
                                                   rel=1e-6)

    def test_power_cycle_counted(self):
        controller = make_controller()
        controller.fast_forward_to_on()
        assert controller.accounting.power_cycles == 1

    def test_load_drains_to_off(self):
        controller = make_controller(area_cm2=1.0, voltage=3.0)
        # Load far above harvest: must eventually cut off.
        for _ in range(10000):
            if controller.step(0.01, load_power=50e-3) is PowerState.OFF:
                break
        assert controller.state is PowerState.OFF
        # The rail cut exactly at U_off; the step remainder may have
        # recharged slightly, but never back up to U_on.
        assert controller.voltage < controller.pmic.v_on

    def test_hysteresis_keeps_rail_on_between_thresholds(self):
        controller = make_controller(voltage=2.6)
        # 2.6 V is below v_on: from cold start the rail must be off.
        assert controller.state is PowerState.OFF

    def test_fast_forward_noop_when_on(self):
        controller = make_controller(voltage=3.5)
        assert controller.fast_forward_to_on() == 0.0

    def test_fast_forward_infeasible_reports_inf(self):
        # Monster capacitor + huge leakage: equilibrium below v_on.
        controller = make_controller(area_cm2=1.0, capacitance=10e-3,
                                     k_cap=1.0)
        assert math.isinf(controller.fast_forward_to_on())
        assert controller.state is PowerState.OFF

    def test_dark_trace_charges_until_max_wait(self):
        # A trace that changes (here: from dark to dark) is never
        # hopeless by itself, with or without a charging fault: the
        # charge runs through it until the wait budget is spent.
        dark = TraceEnvironment("dark", (TraceSegment(60.0, 0.0),
                                         TraceSegment(60.0, 0.0)))
        for faults in (None, FaultInjector(
                FaultConfig(harvest_dropout_rate=0.5))):
            controller = EnergyController(
                harvester=TraceHarvester(panel=SolarPanel(area_cm2=8.0),
                                         trace=dark),
                capacitor=Capacitor(capacitance=uF(470), rated_voltage=5.0,
                                    k_cap=1.2e-3),
                faults=faults)
            assert math.isinf(controller.fast_forward_to_on(max_wait=600.0))
            assert controller.time == pytest.approx(600.0)
            assert controller.state is PowerState.OFF

    def test_constant_dark_under_faults_is_hopeless_at_once(self):
        controller = make_controller(area_cm2=1.0, capacitance=10e-3,
                                     k_cap=1.0)
        controller.faults = FaultInjector(
            FaultConfig(harvest_dropout_rate=0.5))
        assert math.isinf(controller.fast_forward_to_on())
        assert controller.time == 0.0


class TestAccounting:
    def test_harvested_energy_accumulates(self):
        controller = make_controller()
        controller.step(1.0)
        p = controller.harvester.power_at(0.0)
        assert controller.accounting.harvested == pytest.approx(p)

    def test_conversion_loss_positive(self):
        controller = make_controller(voltage=3.5)
        controller.step(1.0, load_power=1e-3)
        assert controller.accounting.conversion_loss > 0.0

    def test_delivered_only_while_on(self):
        controller = make_controller()  # starts OFF
        controller.step(1.0, load_power=5e-3)
        assert controller.accounting.delivered == 0.0

    def test_leakage_tracked(self):
        controller = make_controller(capacitance=10e-3, voltage=3.0)
        controller.step(10.0)
        assert controller.accounting.leaked > 0.0

    def test_available_cycle_energy(self):
        controller = make_controller(voltage=3.0)
        expected = (0.5 * uF(470) * (3.0**2 - 2.2**2)
                    * controller.pmic.buck_efficiency)
        assert controller.available_cycle_energy() == pytest.approx(expected)

    def test_available_cycle_energy_zero_when_off(self):
        assert make_controller().available_cycle_energy() == 0.0


class TestValidation:
    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            make_controller().step(-1.0)

    def test_negative_load_rejected(self):
        with pytest.raises(ConfigurationError):
            make_controller().step(1.0, load_power=-1.0)

    def test_pmic_threshold_above_rating_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyController(
                harvester=SolarHarvester(SolarPanel(area_cm2=1.0),
                                         LightEnvironment.brighter()),
                capacitor=Capacitor(capacitance=uF(100), rated_voltage=2.0),
                pmic=PowerManagementIC(v_on=3.0, v_off=2.2),
            )


class TestEnergyConservation:
    def test_energy_balance_closes(self):
        """stored-in + harvested == delivered + losses + still-stored."""
        controller = make_controller(voltage=3.5)
        initial = controller.capacitor.stored_energy()
        for _ in range(200):
            controller.step(0.05, load_power=2e-3)
        acct = controller.accounting
        final = controller.capacitor.stored_energy()
        lhs = initial + acct.harvested
        rhs = (final + acct.delivered + acct.leaked + acct.conversion_loss
               + acct.curtailed)
        assert lhs == pytest.approx(rhs, rel=0.02)

    def test_no_curtailment_below_rated_voltage(self):
        controller = make_controller(area_cm2=2.0, voltage=2.5)
        controller.step(0.5, load_power=2e-3)
        assert controller.accounting.curtailed == pytest.approx(0.0, abs=1e-9)


class _RecursiveReference(EnergyController):
    """The pre-optimization controller: recursive split, method-call
    `_advance`.  Kept verbatim so the iterative rewrite is pinned
    bit-for-bit against the behaviour it replaced."""

    def step(self, dt, load_power=0.0):
        if dt < 0:
            raise ConfigurationError(f"dt must be non-negative, got {dt}")
        if load_power < 0:
            raise ConfigurationError(
                f"load_power must be non-negative, got {load_power}"
            )
        harvested_power = self.harvester.power_at(self.time)
        if self.faults is not None:
            self.capacitor.k_cap = self.faults.k_cap_at(
                self.time, self._base_k_cap)
            harvested_power *= self.faults.harvest_factor(self.time)
        charge_power = self.pmic.charge_power(harvested_power)
        if self.rail_on() and load_power > 0:
            drain_power = self.pmic.drain_power(load_power)
            if self.faults is not None:
                drain_power *= self.faults.esr_factor(
                    self.accounting.power_cycles)
        else:
            load_power = 0.0
            drain_power = 0.0
        if drain_power > charge_power:
            t_off = self.capacitor.time_until(self.pmic.v_off,
                                              charge_power - drain_power)
            if t_off < dt:
                self._advance(t_off, harvested_power, charge_power,
                              drain_power, load_power)
                self.state = PowerState.OFF
                return self.step(dt - t_off, load_power=0.0)
        self._advance(dt, harvested_power, charge_power, drain_power,
                      load_power)
        self._transition(v_before=self.voltage)
        return self.state

    def _advance(self, dt, harvested_power, charge_power, drain_power,
                 load_power):
        energy_before = self.capacitor.stored_energy()
        leak_before = self.capacitor.leakage_power()
        self.capacitor.step(charge_power - drain_power, dt)
        leak_after = self.capacitor.leakage_power()
        energy_after = self.capacitor.stored_energy()
        leak_energy = 0.5 * (leak_before + leak_after) * dt
        curtailed = ((charge_power - drain_power) * dt - leak_energy
                     - (energy_after - energy_before))
        self.time += dt
        acct = self.accounting
        acct.harvested += harvested_power * dt
        acct.stored += charge_power * dt
        acct.delivered += load_power * dt
        acct.leaked += leak_energy
        acct.curtailed += max(curtailed, 0.0)
        acct.conversion_loss += (
            (harvested_power - charge_power) + (drain_power - load_power)
        ) * dt


class TestIterativeSplitRegression:
    """The iterative mid-step split must be bitwise identical to the
    recursive implementation it replaced, including at a U_off crossing
    where the step is split and the remainder recharges load-free."""

    def _pair(self):
        def build(cls):
            return cls(
                harvester=SolarHarvester(SolarPanel(area_cm2=1.0),
                                         LightEnvironment.darker()),
                capacitor=Capacitor(capacitance=uF(470), rated_voltage=5.0,
                                    k_cap=1.2e-3, voltage=3.0),
                pmic=PowerManagementIC(),
            )
        return build(EnergyController), build(_RecursiveReference)

    def _assert_bitwise_equal(self, a, b):
        assert a.time == b.time
        assert a.voltage == b.voltage
        assert a.state is b.state
        for field_name in ("harvested", "stored", "delivered", "leaked",
                           "conversion_loss", "curtailed", "power_cycles"):
            assert getattr(a.accounting, field_name) == \
                getattr(b.accounting, field_name), field_name

    def test_plain_step_identical(self):
        new, old = self._pair()
        for _ in range(50):
            s_new = new.step(0.01, load_power=2e-3)
            s_old = old.step(0.01, load_power=2e-3)
            assert s_new is s_old
        self._assert_bitwise_equal(new, old)

    def test_u_off_crossing_identical(self):
        # A load far above harvest drags the rail to U_off mid-step:
        # the split point, the post-split recharge, and every
        # accounting field must match the recursive reference exactly.
        new, old = self._pair()
        crossed = False
        for _ in range(5000):
            s_new = new.step(0.05, load_power=20e-3)
            s_old = old.step(0.05, load_power=20e-3)
            assert s_new is s_old
            if s_new is PowerState.OFF:
                crossed = True
                break
        assert crossed, "test setup never reached the U_off crossing"
        self._assert_bitwise_equal(new, old)
        # And the runs stay locked in step after the crossing too.
        for _ in range(100):
            assert new.step(0.05, load_power=20e-3) is \
                old.step(0.05, load_power=20e-3)
        self._assert_bitwise_equal(new, old)
