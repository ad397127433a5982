"""Property-based tests for the analytical model's design-space shape.

These encode the monotonicities the whole search methodology rests on:
if they break, the explorer's gradients point the wrong way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.cost_model import TileCost
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.sim.analytical import AnalyticalModel, CycleBudget
from repro.workloads import zoo

panels = st.floats(min_value=1.0, max_value=30.0)
caps = st.floats(min_value=2e-5, max_value=1e-2)
tiles = st.integers(min_value=1, max_value=16)


def model_for(panel, cap, n_tiles=4, env=None, network=None):
    net = network or zoo.har_cnn()
    design = AuTDesign.with_default_mappings(
        EnergyDesign(panel_area_cm2=panel, capacitance_f=cap),
        InferenceDesign.msp430(), net, n_tiles=n_tiles)
    return AnalyticalModel(design, net,
                           env or LightEnvironment.brighter())


@given(panel=panels, cap=caps, n=tiles)
@settings(max_examples=60, deadline=None)
def test_sustained_period_finite_and_positive_when_feasible(panel, cap, n):
    metrics = model_for(panel, cap, n).evaluate()
    if metrics.feasible:
        assert metrics.sustained_period > 0.0
        assert metrics.sustained_period >= metrics.busy_time - 1e-12


@given(panel=panels, cap=caps, n=tiles)
@settings(max_examples=60, deadline=None)
def test_bigger_panel_never_slower(panel, cap, n):
    """Monotonicity in A_eh: Eq. 7's denominator grows with the panel."""
    small = model_for(panel, cap, n).evaluate()
    large = model_for(min(panel * 1.5, 30.0), cap, n).evaluate()
    if small.feasible and large.feasible:
        assert large.sustained_period <= small.sustained_period * 1.0001


@given(panel=panels, cap=caps, n=tiles)
@settings(max_examples=60, deadline=None)
def test_brighter_never_slower_than_darker(panel, cap, n):
    bright = model_for(panel, cap, n,
                       env=LightEnvironment.brighter()).evaluate()
    dark = model_for(panel, cap, n,
                     env=LightEnvironment.darker()).evaluate()
    if bright.feasible and dark.feasible:
        assert bright.sustained_period <= dark.sustained_period * 1.0001
    if not bright.feasible:
        # If it cannot run in the bright, it cannot run in the dark.
        assert not dark.feasible


@given(panel=panels, cap=caps)
@settings(max_examples=60, deadline=None)
def test_cycle_energy_monotone_in_capacitance(panel, cap):
    small = model_for(panel, cap)
    large = model_for(panel, min(cap * 2.0, 1e-2))
    assert large.available_cycle_energy() >= small.available_cycle_energy()


@given(panel=panels, cap=caps, n=tiles)
@settings(max_examples=60, deadline=None)
def test_energy_breakdown_components_nonnegative(panel, cap, n):
    metrics = model_for(panel, cap, n).evaluate()
    if metrics.feasible:
        b = metrics.energy
        for value in (b.compute, b.vm, b.nvm, b.static, b.checkpoint,
                      b.cap_leakage, b.conversion):
            assert value >= 0.0


@given(panel=panels, cap=caps, n=tiles)
@settings(max_examples=40, deadline=None)
def test_feasibility_matches_min_tile_scan(panel, cap, n):
    """If evaluate() reports an Eq. 8 infeasibility at n tiles, some
    layer's tile fails Eq. 8 (``tile_feasible``)."""
    model = model_for(panel, cap, n)
    metrics = model.evaluate()
    if metrics.feasible or "Eq. 8" not in metrics.infeasible_reason:
        return
    assert not all(model.tile_feasible(cost) for cost in model.plan()), (
        "evaluate() infeasible but every layer satisfied Eq. 8")


finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)


def _tile(energy, time):
    """A tile whose ``energy`` and ``total_time`` are exactly these."""
    return TileCost(
        macs=0, active_pes=1, compute_time=0.0, io_time=0.0, latency=time,
        compute_energy=energy, vm_energy=0.0, nvm_read_bytes=0.0,
        nvm_write_bytes=0.0, nvm_energy=0.0, static_energy=0.0,
        working_set_bytes=0.0, checkpoint_bytes=0.0, checkpoint_energy=0.0,
        checkpoint_time=0.0, fits_vm=True)


@given(nets=st.lists(finite, min_size=2, max_size=2),
       stored=non_negative, buck=st.floats(min_value=1e-3, max_value=1.0),
       time=non_negative, energy=non_negative)
@settings(max_examples=200, deadline=None)
def test_eq3_never_decreases_as_net_grows(nets, stored, buck, time, energy):
    """The SW-level scan checks Eq. 8 only in the environment with the
    least ``net``: exact only because Eq. 3's ``available(t)`` never
    decreases as ``net`` grows when ``t >= 0`` (no tolerance)."""
    low, high = sorted(nets)
    budgets = [CycleBudget(p_eh=1e-3, leak=1e-6, net=net, stored=stored,
                           buck=buck, chain=0.8 * buck)
               for net in (low, high)]
    assert budgets[1].available(time) >= budgets[0].available(time)
    tile = _tile(energy, time)
    assert (tile.energy, tile.total_time) == (energy, time)
    if budgets[0].fits(tile):
        assert budgets[1].fits(tile)
