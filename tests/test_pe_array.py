"""Tests for the PE-array abstraction."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.pe_array import PEArray


@pytest.fixture
def array():
    return PEArray(n_pes=16, cache_bytes_per_pe=512, mac_energy=2e-12,
                   clock_hz=200e6)


class TestThroughput:
    def test_compute_time_all_pes(self, array):
        macs = 3.2e9
        assert array.compute_time(macs) == pytest.approx(1.0)

    def test_compute_time_partial_activation(self, array):
        macs = 1e6
        assert array.compute_time(macs, active_pes=4) == pytest.approx(
            4 * array.compute_time(macs, active_pes=16))

    def test_compute_energy(self, array):
        assert array.compute_energy(1e9) == pytest.approx(2e-3)

    def test_static_power_scales_with_pes(self):
        small = PEArray(n_pes=4, cache_bytes_per_pe=512, mac_energy=2e-12,
                        clock_hz=200e6)
        large = PEArray(n_pes=8, cache_bytes_per_pe=512, mac_energy=2e-12,
                        clock_hz=200e6)
        assert large.static_power == pytest.approx(2 * small.static_power)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_pes": 0},
        {"cache_bytes_per_pe": 0},
        {"mac_energy": -1.0},
        {"clock_hz": 0.0},
        {"macs_per_cycle_per_pe": 0},
    ])
    def test_bad_construction(self, kwargs):
        defaults = dict(n_pes=4, cache_bytes_per_pe=512, mac_energy=1e-12,
                        clock_hz=1e6)
        defaults.update(kwargs)
        with pytest.raises(ConfigurationError):
            PEArray(**defaults)

    def test_bad_active_pes(self, array):
        with pytest.raises(ConfigurationError):
            array.compute_time(1.0, active_pes=17)
        with pytest.raises(ConfigurationError):
            array.compute_time(1.0, active_pes=0)

    def test_negative_macs(self, array):
        with pytest.raises(ConfigurationError):
            array.compute_time(-1.0)
