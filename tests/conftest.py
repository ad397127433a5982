"""Shared fixtures for the CHRYSALIS test suite."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.environments import EnvironmentSpec
from repro.explore.mapper_search import clear_mapper_memo
from repro.hardware.accelerators import AcceleratorFamily
from repro.serve import EvaluationService, ServeServer
from repro.units import uF
from repro.workloads import zoo


@pytest.fixture(autouse=True)
def _fresh_mapper_memo():
    """Isolate tests from the process-wide mapper memo.

    The memo deliberately outlives explorers (that lifetime is the PR 7
    bugfix), which means one test's SW-level searches would otherwise
    leak into the next test's hit/miss accounting and monkeypatching.
    """
    clear_mapper_memo()
    yield
    clear_mapper_memo()


@pytest.fixture
def brighter():
    return LightEnvironment.brighter()


@pytest.fixture
def darker():
    return LightEnvironment.darker()


@pytest.fixture
def har_network():
    return zoo.har_cnn()


@pytest.fixture
def simple_network():
    return zoo.simple_conv()


@pytest.fixture
def cifar_network():
    return zoo.cifar10_cnn()


@pytest.fixture
def msp_energy_design():
    """A mid-range existing-AuT energy subsystem."""
    return EnergyDesign(panel_area_cm2=8.0, capacitance_f=uF(100))


@pytest.fixture
def msp_design(msp_energy_design, har_network):
    """A complete MSP430-based design for the HAR workload."""
    return AuTDesign.with_default_mappings(
        msp_energy_design, InferenceDesign.msp430(), har_network, n_tiles=2
    )


@pytest.fixture
def tpu_design(cifar_network):
    """A TPU-like future-AuT design for CIFAR-10."""
    energy = EnergyDesign(panel_area_cm2=10.0, capacitance_f=uF(470))
    inference = InferenceDesign(family=AcceleratorFamily.TPU, n_pes=64,
                                cache_bytes_per_pe=512)
    return AuTDesign.with_default_mappings(energy, inference, cifar_network,
                                           n_tiles=2)


@pytest.fixture
def spec_builds(monkeypatch):
    """Names of the :class:`EnvironmentSpec` objects built during a test,
    one entry per ``EnvironmentSpec.build`` call."""
    names = []
    build = EnvironmentSpec.build

    def counted(spec):
        names.append(spec.name)
        return build(spec)

    monkeypatch.setattr(EnvironmentSpec, "build", counted)
    return names


@pytest.fixture(scope="module")
def server_address():
    """One service and server on a background event loop; yields the
    server's ``(host, port)``."""
    loop = asyncio.new_event_loop()
    started = threading.Event()
    state = {}

    async def serve():
        service = EvaluationService()
        async with service, ServeServer(service) as server:
            state["address"] = server.address
            state["stop"] = asyncio.Event()
            started.set()
            await state["stop"].wait()

    thread = threading.Thread(target=loop.run_until_complete,
                              args=(serve(),))
    thread.start()
    assert started.wait(10.0)
    yield state["address"]
    loop.call_soon_threadsafe(state["stop"].set)
    thread.join(10.0)
    assert not thread.is_alive()
    loop.close()
