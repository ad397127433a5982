"""Step simulator pinned against frozen outputs.

``tests/golden/step.json`` holds one record per step-simulated run,
written by ``tests/golden/make_step.py``.  The grid covers har and kws
on the MSP430 with designs that finish on their banked energy, designs
that must recharge (some through a dark night) and many-tile designs
whose energy cycle the fast path replays; constant light, schedule
traces with dark and dim nights, diurnal, cloud and trickle traces and
generated scenario labels; no injector, an inert one and
:meth:`FaultConfig.stress` (on the environments whose light never
changes); each with the cycle-skipping fast path on and off.

Per run the record keeps a SHA-256 over ``float.hex`` of every metric
field and every field of the controller's energy accounting, plus
``fast_cycles_skipped``, ``fast_segments`` and the trace's per-kind
event counts, so a mismatch names the run and what moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.energy.traces import (cloud_trace, diurnal_trace, schedule_trace,
                                 trickle_trace)
from repro.environments import ScenarioGenerator, environment_by_name
from repro.explore.mapper_search import MappingOptimizer
from repro.faults.injector import FaultConfig, FaultInjector
from repro.sim.engine import SimulationResult
from repro.sim.evaluator import ChrysalisEvaluator
from repro.sim.metrics import EnergyBreakdown
from repro.units import uF
from repro.workloads import zoo

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "step.json"

#: Light that never changes: the presets and the one-segment trickles.
CONSTANT = ("brighter", "darker", "indoor", "trickle", "starved")

#: ``(panel cm², capacitance µF)`` of the mapper-lowered designs: the
#: small ones recharge, the 20 cm² / 1 mF ones mostly finish on the
#: energy banked at the start.
SIZES = ((2.0, 100.0), (8.0, 470.0), (20.0, 1000.0))

#: Many small tiles on a small capacitor: each layer spans many
#: identical energy cycles, which the fast path replays.
MANY_TILES = {"har": (32, 10.0), "kws": (72, 10.0)}


def _hex(value: Any) -> str:
    return float.hex(float(value))


def designs() -> Dict[str, Tuple[str, AuTDesign]]:
    out: Dict[str, Tuple[str, AuTDesign]] = {}
    inference = InferenceDesign.msp430()
    for workload in ("har", "kws"):
        network = zoo.workload_by_name(workload)
        mapper = MappingOptimizer(network)
        for area, cap in SIZES:
            energy = EnergyDesign(panel_area_cm2=area, capacitance_f=uF(cap))
            mappings = mapper.optimize(energy, inference)
            assert mappings is not None
            out[f"{workload}-{area:g}cm2-{cap:g}uF"] = (workload, AuTDesign(
                energy=energy, inference=inference, mappings=mappings))
        n_tiles, cap = MANY_TILES[workload]
        out[f"{workload}-{n_tiles}tiles-{cap:g}uF"] = (
            workload, AuTDesign.with_default_mappings(
                EnergyDesign(panel_area_cm2=1.0, capacitance_f=uF(cap)),
                inference, network, n_tiles=n_tiles))
    return out


def environments() -> Dict[str, Any]:
    labels = ScenarioGenerator(name="golden-step", seed=5, count=4).expand()
    envs: Dict[str, Any] = {
        "brighter": LightEnvironment.brighter(),
        "darker": LightEnvironment.darker(),
        "indoor": LightEnvironment.indoor(),
        "trickle": trickle_trace(2e-5),
        # Too dim to out-run leakage: every run that recharges fails.
        "starved": trickle_trace(1e-9, name="starved"),
        "schedule-dark": schedule_trace(6e-5, k_off=0.0, on_hour=8.0,
                                        off_hour=18.0, name="schedule-dark"),
        "schedule-dim": schedule_trace(6e-5, k_off=1e-6, on_hour=8.0,
                                       off_hour=18.0, name="schedule-dim"),
        "diurnal": diurnal_trace(LightEnvironment.brighter(), step_s=1800.0),
        "cloud": cloud_trace(LightEnvironment.darker(), seed=3),
    }
    for label in labels:
        envs[label] = environment_by_name(label)[0]
    return envs


def injectors(env_name: str) -> Dict[str, Optional[FaultInjector]]:
    """None and an inert injector everywhere; stress on constant light
    only (charging faults on a changing trace are not pinned)."""
    out: Dict[str, Optional[FaultInjector]] = {
        "none": None, "inert": FaultInjector(FaultConfig())}
    if env_name in CONSTANT:
        out["stress"] = FaultInjector(FaultConfig.stress(seed=1))
    return out


def record(result: SimulationResult) -> Dict[str, Any]:
    metrics = result.metrics
    values = [metrics.e2e_latency, metrics.busy_time, metrics.charge_time,
              metrics.harvested_energy, metrics.sustained_period,
              metrics.power_cycles, metrics.exceptions]
    values += [getattr(metrics.energy, f.name)
               for f in dataclasses.fields(EnergyBreakdown)]
    acct = result.energy.accounting
    values += [getattr(acct, f.name) for f in dataclasses.fields(acct)]
    text = "\n".join([str(metrics.feasible), metrics.infeasible_reason]
                     + [_hex(value) for value in values])
    return {
        "feasible": metrics.feasible,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "fast_cycles_skipped": result.fast_cycles_skipped,
        "fast_segments": result.fast_segments,
        "counts": {kind.value: count for kind, count
                   in sorted(result.trace.counts().items(),
                             key=lambda item: item[0].value)},
    }


def collect() -> Dict[str, Any]:
    """Every run's record (the generator's entry point)."""
    out: Dict[str, Any] = {}
    envs = environments()
    for design_name, (workload, design) in designs().items():
        evaluator = ChrysalisEvaluator(zoo.workload_by_name(workload))
        for env_name, environment in envs.items():
            for fault_name, injector in injectors(env_name).items():
                for fast in (True, False):
                    result = evaluator.simulate(design, environment,
                                                faults=injector,
                                                fast_forward=fast)
                    key = (f"{design_name}/{env_name}/{fault_name}/"
                           f"{'fast' if fast else 'exact'}")
                    out[key] = record(result)
    return out


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def test_step_runs_match_golden(golden):
    got = collect()
    moved = sorted(key for key in golden if got.get(key) != golden[key])
    assert not moved, f"{len(moved)} step runs moved: " + ", ".join(moved[:20])
    assert got == golden


def test_golden_covers_recharges_and_replays(golden):
    runs = golden.values()
    assert any(run["counts"].get("power_on", 0) > 1 for run in runs)
    assert any(run["counts"].get("power_on", 0) == 1 for run in runs)
    assert any(run["fast_cycles_skipped"] > 0 for run in runs)
    assert any(not run["feasible"] for run in runs)
    assert any(run["counts"].get("rollback", 0) > 0
               or run["counts"].get("checkpoint_failed", 0) > 0
               for run in runs)
