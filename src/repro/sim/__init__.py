"""Simulation and evaluation of intermittent inference.

Two evaluation paths, cross-checked against each other:

* :mod:`repro.sim.analytical` — the closed-form model of the paper's
  Eqs. 1-9; fast enough for millions of search queries.
* :mod:`repro.sim.engine` + :mod:`repro.sim.intermittent` — the
  step-based simulator of §III-D: charging is fast-forwarded through
  the capacitor ODE, computation is stepped so that harvest-during-
  execution, mid-tile power failures and emergent checkpoints are all
  captured.

:mod:`repro.sim.evaluator` is the facade (the "CHRYSALIS Evaluator") the
explorer calls.
"""

from repro.sim.analytical import AnalyticalModel
from repro.sim.engine import SimulationResult, StepSimulator
from repro.sim.evaluator import ChrysalisEvaluator
from repro.sim.intermittent import InferenceController
from repro.sim.metrics import EnergyBreakdown, InferenceMetrics
from repro.sim.trace import Event, EventKind, Trace

__all__ = [
    "AnalyticalModel",
    "ChrysalisEvaluator",
    "EnergyBreakdown",
    "Event",
    "EventKind",
    "InferenceController",
    "InferenceMetrics",
    "SimulationResult",
    "StepSimulator",
    "Trace",
]
