"""CHRYSALIS — automated EA/IA co-design for Autonomous Things.

Reproduction of "A Tale of Two Domains: Exploring Efficient Architecture
Design for Truly Autonomous Things" (ISCA 2024).

Quickstart::

    from repro import Chrysalis, Objective, evaluate, zoo

    tool = Chrysalis(zoo.har_cnn(), setup="existing",
                     objective=Objective.lat_sp())
    solution = tool.generate()
    print(solution.report())

    report = evaluate(solution.design, "har")     # re-price any design
    print(report.metrics.e2e_latency)

The public surface is ``__all__`` below (see docs/API.md).  Every
other name is imported from its subsystem module.

Package map
-----------
``repro.energy``     energy subsystem (harvesting, storage, PMIC, MPPT)
``repro.workloads``  DNN layer IR + the paper's workload zoo
``repro.dataflow``   data-centric mapping directives + cost model
``repro.hardware``   MSP430/LEA and TPU/Eyeriss-like hardware models
``repro.sim``        analytical (Eqs. 1-9) and step-based evaluation
``repro.explore``    design spaces, objectives, GA, bi-level explorer
``repro.faults``     seeded fault injection + resilience reporting
``repro.core``       the Table II usage-model API
``repro.campaign``   durable, resumable multi-scenario DSE campaigns
``repro.obs``        metrics registry, run-scoped spans, profiling
``repro.api``        the single-entry :func:`evaluate` facade
``repro.serve``      always-on evaluation service (coalesce + batch)
"""

from repro import obs, serve
from repro.api import (FIDELITIES, EvalRequest, EvaluationReport, evaluate,
                       evaluate_batch, evaluate_many)
from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.core.chrysalis import Chrysalis
from repro.core.result import AuTSolution
from repro.core.scenarios import Scenario
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.energy.environment import LightEnvironment
from repro.energy.traces import TraceEnvironment
from repro.environments import (
    EnvironmentSpec,
    ScenarioGenerator,
    environment_by_name,
    register_environment,
)
from repro.explore.objectives import Objective, ObjectiveKind
from repro.explore.space import DesignSpace
from repro.faults import FaultConfig, run_faults_sweep
from repro.sim.evaluator import ChrysalisEvaluator
from repro.workloads import zoo

__version__ = "6.0.0"

#: The blessed public surface (tests/test_public_api.py snapshots it).
__all__ = [
    "AuTDesign",
    "AuTSolution",
    "CampaignSpec",
    "Chrysalis",
    "ChrysalisEvaluator",
    "DesignSpace",
    "EnergyDesign",
    "EnvironmentSpec",
    "EvalRequest",
    "EvaluationReport",
    "FIDELITIES",
    "FaultConfig",
    "InferenceDesign",
    "LightEnvironment",
    "Objective",
    "ObjectiveKind",
    "ResultStore",
    "Scenario",
    "ScenarioGenerator",
    "TraceEnvironment",
    "__version__",
    "environment_by_name",
    "evaluate",
    "evaluate_batch",
    "evaluate_many",
    "obs",
    "register_environment",
    "run_campaign",
    "run_faults_sweep",
    "serve",
    "zoo",
]
