"""Survival-under-faults sweep: stress a design across fault intensities.

For each intensity the base :class:`~repro.faults.injector.FaultConfig`
is scaled (:meth:`FaultConfig.scaled`) and the design is step-simulated
under several fault seeds.  Each cell aggregates survival (fraction of
seeds whose inference completed), latency over the survivors, and the
mean resilience figures — the data behind a survival-under-faults curve
and the ``repro faults-sweep`` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.design import AuTDesign
from repro.energy.environment import LightEnvironment
from repro.errors import ChrysalisError, ConfigurationError
from repro.faults.injector import FaultConfig, FaultInjector
from repro.faults.report import ResilienceReport
from repro.hardware.checkpoint import CheckpointModel
from repro.sim.evaluator import ChrysalisEvaluator
from repro.workloads.network import Network


@dataclass(frozen=True)
class FaultSweepCell:
    """Aggregated outcome of one fault intensity."""

    intensity: float
    runs: int
    #: Fraction of fault seeds whose inference ran to completion.
    survival: float
    #: Mean e2e latency over the surviving runs, s (``inf`` if none).
    mean_latency_s: float
    mean_forward_progress: float
    mean_reexecution_overhead: float
    mean_checkpoint_loss_rate: float
    mean_rollbacks: float
    mean_exceptions: float


def run_faults_sweep(design: AuTDesign, network: Network,
                     environment: LightEnvironment,
                     base: Optional[FaultConfig] = None,
                     intensities: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
                     seeds_per_cell: int = 3,
                     checkpoint: Optional[CheckpointModel] = None,
                     max_steps: int = 500_000) -> List[FaultSweepCell]:
    """Stress ``design`` across scaled fault intensities.

    The plan is built once, before any run, so a design that does not
    fit ``network`` raises.  Only a run's own errors count against
    survival: a run that raises a :class:`~repro.errors.ChrysalisError`
    (budget exhaustion included) or ends infeasible is a non-survivor
    of its cell rather than aborting the sweep.
    """
    if seeds_per_cell < 1:
        raise ConfigurationError(
            f"seeds_per_cell must be at least 1, got {seeds_per_cell}"
        )
    base = base if base is not None else FaultConfig.stress()
    _, run = ChrysalisEvaluator(
        network, environments=(environment,), checkpoint=checkpoint,
        max_steps=max_steps)._planned(design, environment)
    cells: List[FaultSweepCell] = []
    for intensity in intensities:
        config = base.scaled(intensity)
        survivors: List[float] = []
        reports: List[ResilienceReport] = []
        for offset in range(seeds_per_cell):
            injector = FaultInjector(config.with_seed(base.seed + offset))
            try:
                result = run(environment, faults=injector)
            except ChrysalisError:
                continue
            reports.append(ResilienceReport.from_simulation(result))
            if result.metrics.feasible:
                survivors.append(result.metrics.e2e_latency)
        cells.append(FaultSweepCell(
            intensity=intensity,
            runs=seeds_per_cell,
            survival=len(survivors) / seeds_per_cell,
            mean_latency_s=(sum(survivors) / len(survivors)
                            if survivors else math.inf),
            mean_forward_progress=_mean(
                [r.forward_progress_ratio for r in reports]),
            mean_reexecution_overhead=_mean(
                [r.reexecution_overhead for r in reports]),
            mean_checkpoint_loss_rate=_mean(
                [r.checkpoint_loss_rate for r in reports]),
            mean_rollbacks=_mean([float(r.rollbacks) for r in reports]),
            mean_exceptions=_mean([float(r.exceptions) for r in reports]),
        ))
    return cells


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
