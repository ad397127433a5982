"""Tests for the capacitor model (Eqs. 2-3 physics + charging ODE)."""

import math

import pytest

from repro.energy.capacitor import Capacitor
from repro.errors import ConfigurationError
from repro.units import uF, mF


def make_cap(capacitance=uF(100), voltage=0.0, k_cap=1.2e-3):
    return Capacitor(capacitance=capacitance, rated_voltage=5.0,
                     k_cap=k_cap, voltage=voltage)


class TestStaticProperties:
    def test_stored_energy(self):
        cap = make_cap(voltage=3.0)
        assert cap.stored_energy() == pytest.approx(0.5 * uF(100) * 9.0)

    def test_energy_between_matches_eq3_first_term(self):
        cap = make_cap()
        # 1/2 C (U_on^2 - U_off^2) with U_on=3, U_off=2.2
        expected = 0.5 * uF(100) * (3.0**2 - 2.2**2)
        assert cap.energy_between(3.0, 2.2) == pytest.approx(expected)

    def test_energy_between_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            make_cap().energy_between(2.0, 3.0)

    def test_leakage_current_eq2(self):
        cap = make_cap(capacitance=mF(10), voltage=3.0)
        # I_R = k_cap * C * U
        assert cap.leakage_current() == pytest.approx(1.2e-3 * mF(10) * 3.0)

    def test_leakage_grows_with_capacitance(self):
        small = make_cap(capacitance=uF(10), voltage=3.0)
        large = make_cap(capacitance=mF(10), voltage=3.0)
        assert large.leakage_current() == pytest.approx(
            1000.0 * small.leakage_current()
        )

    def test_leakage_power_is_current_times_voltage(self):
        cap = make_cap(capacitance=mF(1), voltage=2.5)
        assert cap.leakage_power() == pytest.approx(
            cap.leakage_current() * 2.5
        )


class TestDynamics:
    def test_charging_increases_voltage(self):
        cap = make_cap()
        cap.step(net_input_power=5e-3, dt=0.01)
        assert cap.voltage > 0.0

    def test_no_leakage_charging_matches_energy_balance(self):
        cap = make_cap(k_cap=0.0)
        cap.step(net_input_power=1e-3, dt=1.0)
        assert cap.stored_energy() == pytest.approx(1e-3, rel=1e-9)

    def test_discharge_under_load(self):
        cap = make_cap(voltage=3.0)
        cap.step(net_input_power=-5e-3, dt=0.01)
        assert cap.voltage < 3.0

    def test_voltage_clamped_at_rated(self):
        cap = make_cap(voltage=4.9)
        cap.step(net_input_power=1.0, dt=10.0)
        assert cap.voltage == pytest.approx(5.0)

    def test_voltage_never_negative(self):
        cap = make_cap(voltage=0.5)
        cap.step(net_input_power=-1.0, dt=10.0)
        assert cap.voltage == 0.0

    def test_leakage_decays_open_circuit(self):
        cap = make_cap(capacitance=mF(10), voltage=3.0)
        cap.step(net_input_power=0.0, dt=100.0)
        assert 0.0 < cap.voltage < 3.0

    def test_zero_dt_is_identity(self):
        cap = make_cap(voltage=2.0)
        assert cap.step(1e-3, 0.0) == 2.0


class TestTimeToReach:
    def test_already_there(self):
        assert make_cap(voltage=3.0).time_to_reach(2.5, 1e-3) == 0.0

    def test_matches_stepped_integration(self):
        cap_a = make_cap(capacitance=uF(470))
        p_in = 2e-3
        t_analytic = cap_a.time_to_reach(3.0, p_in)
        cap_b = make_cap(capacitance=uF(470))
        t, dt = 0.0, t_analytic / 5000
        while cap_b.voltage < 3.0 and t < 10 * t_analytic:
            cap_b.step(p_in, dt)
            t += dt
        assert t == pytest.approx(t_analytic, rel=0.01)

    def test_infinite_when_leakage_dominates(self):
        cap = make_cap(capacitance=mF(10), k_cap=1.0)
        # Equilibrium voltage far below 3 V for this input power.
        assert math.isinf(cap.time_to_reach(3.0, 1e-6))

    def test_infinite_beyond_rated_voltage(self):
        assert math.isinf(make_cap().time_to_reach(6.0, 1.0))

    def test_bigger_capacitor_charges_slower(self):
        p_in = 2e-3
        t_small = make_cap(capacitance=uF(100)).time_to_reach(3.0, p_in)
        t_large = make_cap(capacitance=mF(1)).time_to_reach(3.0, p_in)
        assert t_large > t_small

    def test_no_leak_matches_ideal_formula(self):
        cap = make_cap(capacitance=uF(100), k_cap=0.0)
        p_in = 1e-3
        # t = C * V^2 / (2 P)
        assert cap.time_to_reach(3.0, p_in) == pytest.approx(
            uF(100) * 9.0 / (2 * p_in)
        )


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"capacitance": 0.0},
        {"capacitance": -1e-6},
        {"capacitance": 1e-6, "rated_voltage": 0.0},
        {"capacitance": 1e-6, "k_cap": -1.0},
        {"capacitance": 1e-6, "voltage": 9.0},
    ])
    def test_bad_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            Capacitor(**kwargs)

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cap().step(0.0, -1.0)
