"""Property-based tests for capacitor physics (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.capacitor import Capacitor

capacitances = st.floats(min_value=1e-6, max_value=1e-2)
voltages = st.floats(min_value=0.0, max_value=5.0)
powers = st.floats(min_value=0.0, max_value=0.1)
durations = st.floats(min_value=0.0, max_value=100.0)
k_caps = st.floats(min_value=0.0, max_value=0.1)


def make(c, v, k):
    return Capacitor(capacitance=c, rated_voltage=5.0, k_cap=k, voltage=v)


@given(c=capacitances, v=voltages, k=k_caps, p=powers, dt=durations)
@settings(max_examples=200)
def test_voltage_always_within_bounds(c, v, k, p, dt):
    cap = make(c, v, k)
    cap.step(p, dt)
    assert 0.0 <= cap.voltage <= 5.0


@given(c=capacitances, v=voltages, k=k_caps, p=powers, dt=durations)
def test_discharge_never_increases_voltage(c, v, k, p, dt):
    cap = make(c, v, k)
    cap.step(-p, dt)
    assert cap.voltage <= v + 1e-12


@given(c=capacitances, v=voltages, k=k_caps, dt=durations)
def test_open_circuit_leakage_is_monotone_decay(c, v, k, dt):
    cap = make(c, v, k)
    cap.step(0.0, dt)
    assert cap.voltage <= v + 1e-12


@given(c=capacitances, v=st.floats(min_value=0.0, max_value=3.0),
       k=k_caps, p=st.floats(min_value=1e-6, max_value=0.1))
def test_time_to_reach_consistent_with_step(c, v, k, p):
    cap = make(c, v, k)
    t = cap.time_to_reach(3.5, p)
    if math.isinf(t):
        # Charging forever must never exceed the target.
        probe = make(c, v, k)
        probe.step(p, 1e6)
        assert probe.voltage <= 3.5 + 1e-6
    else:
        probe = make(c, v, k)
        probe.step(p, t)
        assert probe.voltage >= 3.5 - 1e-6


@given(c=capacitances, v=voltages, k=k_caps,
       split=st.floats(min_value=0.1, max_value=0.9),
       p=powers, dt=st.floats(min_value=0.0, max_value=10.0))
def test_charging_is_time_composable(c, v, k, split, p, dt):
    """step(dt) == step(a*dt) then step((1-a)*dt) — the exact ODE
    solution must compose."""
    one_shot = make(c, v, k)
    one_shot.step(p, dt)
    two_shot = make(c, v, k)
    two_shot.step(p, split * dt)
    two_shot.step(p, (1.0 - split) * dt)
    assert one_shot.voltage == two_shot.voltage or \
        abs(one_shot.voltage - two_shot.voltage) < 1e-9


@given(c=capacitances, u_on=st.floats(min_value=1.0, max_value=5.0),
       delta=st.floats(min_value=0.01, max_value=0.99))
def test_energy_between_positive_and_additive(c, u_on, delta):
    cap = make(c, 0.0, 0.0)
    u_mid = u_on * (1.0 - delta / 2)
    u_off = u_on * (1.0 - delta)
    total = cap.energy_between(u_on, u_off)
    split_sum = (cap.energy_between(u_on, u_mid)
                 + cap.energy_between(u_mid, u_off))
    assert total >= 0.0
    assert abs(total - split_sum) < 1e-12 + 1e-9 * total
