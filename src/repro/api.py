"""The single-entry evaluation API.

Historically, pricing one design meant choosing between three entry
points with three calling conventions: :class:`AnalyticalModel`
(one environment, closed form), :class:`StepSimulator` (hand-built
controllers), and :class:`ChrysalisEvaluator` (network-level, but mode
flags and per-call overrides grew organically).  :func:`evaluate` is the
one front door::

    from repro import evaluate

    report = evaluate(design, "har_cnn", fidelity="step")
    print(report.metrics.e2e_latency)

It resolves workloads by name, scenarios into environment sets, runs
either fidelity through the exact same code paths the old entry points
used (results are bit-identical to calling them directly), and returns
an :class:`EvaluationReport` carrying the averaged metrics, the
per-environment breakdown, the raw simulation results (step fidelity),
and — when requested with ``obs=True`` — a self-contained observability
snapshot of the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.scenarios import Scenario
from repro.design import AuTDesign
from repro.energy.environment import LightEnvironment
from repro.environments import environment_by_name
from repro.errors import ConfigurationError
from repro.hardware.checkpoint import CheckpointModel
from repro.obs import state as obs_state
from repro.sim.analytical import BatchAnalyticalModel
from repro.sim.engine import SimulationResult
from repro.sim.evaluator import ChrysalisEvaluator, _average_metrics
from repro.sim.metrics import InferenceMetrics
from repro.workloads import zoo
from repro.workloads.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.faults.injector import FaultInjector

#: The two evaluation fidelities: the step-based simulator (faithful;
#: default) and the closed-form analytical model (fast; what the search
#: inner loop uses).
FIDELITIES = ("step", "analytical")


@dataclass
class EvaluationReport:
    """Everything one :func:`evaluate` call produced."""

    #: The evaluated design (exactly the object passed in).
    design: AuTDesign
    #: Resolved workload name.
    workload: str
    #: ``"step"`` or ``"analytical"``.
    fidelity: str
    #: Metrics averaged over the environments (the paper's protocol:
    #: any infeasible environment makes the whole report infeasible,
    #: and these metrics are then that environment's marker metrics).
    metrics: InferenceMetrics
    #: Per-environment metrics, in evaluation order.  On an infeasible
    #: design this holds the environments evaluated up to and including
    #: the infeasible one.
    by_environment: Dict[str, InferenceMetrics] = field(default_factory=dict)
    #: Step fidelity only: the full per-environment simulation results
    #: (trace, controllers, fast-path counters); ``None`` otherwise.
    simulations: Optional[Dict[str, SimulationResult]] = None
    #: Observability snapshot of this evaluation (``obs=True`` or an
    #: enclosing enabled scope); ``None`` otherwise.
    obs: Optional[Dict[str, Any]] = None

    @property
    def feasible(self) -> bool:
        return self.metrics.feasible


def _resolve_workload(workload: Union[str, Network]) -> Network:
    if isinstance(workload, str):
        return zoo.workload_by_name(workload)
    return workload


def _resolve_environments(
    scenario: Optional[Union[str, Scenario]],
    environments: Optional[Sequence[LightEnvironment]],
) -> tuple:
    if environments is not None:
        if scenario is not None:
            raise ConfigurationError(
                "pass either scenario or environments, not both")
        return tuple(environments)
    if scenario is not None:
        if isinstance(scenario, str):
            # A string resolves through the unified registry, so any
            # environment label works here: scenario names, presets,
            # "scenario:<name>", registered traces.
            return environment_by_name(scenario)
        return tuple(scenario.environments)
    return environment_by_name("paper")


def evaluate(design: AuTDesign,
             workload: Union[str, Network],
             scenario: Optional[Union[str, Scenario]] = None,
             *,
             fidelity: str = "step",
             environments: Optional[Sequence[LightEnvironment]] = None,
             fast_forward: bool = True,
             faults: Optional["FaultInjector"] = None,
             obs: bool = False,
             checkpoint: Optional[CheckpointModel] = None,
             steps_per_tile: int = 16,
             max_steps: Optional[int] = None,
             time_budget_s: Optional[float] = None) -> EvaluationReport:
    """Price one design on one workload — the unified entry point.

    Parameters
    ----------
    design:
        The :class:`AuTDesign` to evaluate.
    workload:
        A :class:`~repro.workloads.network.Network` or a zoo name
        (``"har_cnn"``, ``"kws_dscnn"``, ...).
    scenario:
        Optional SWaP :class:`~repro.core.scenarios.Scenario`, or any
        environment label the registry resolves
        (:func:`repro.environments.environment_by_name`): a scenario
        name, a preset (``"brighter"``), or a registered trace label.
        Mutually exclusive with ``environments``; with neither, the
        paper's brighter/darker pair is used.
    fidelity:
        ``"step"`` (default) runs the step-based intermittent simulator;
        ``"analytical"`` the closed-form Eqs. 1-9 model.  Results are
        bit-identical to the underlying engines called directly.
    fast_forward:
        Step fidelity: enable the cycle-skipping fast path (pass
        ``False`` for a complete per-step event trace).
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector`; a fresh
        copy is taken per simulated environment, so repeated calls see
        identical fault sequences.  Step fidelity only.
    obs:
        ``True`` records the evaluation into an isolated observability
        scope and attaches its snapshot as ``report.obs`` (enabling
        observability for the duration of the call if it was off).
    checkpoint, steps_per_tile, max_steps, time_budget_s:
        Forwarded to the underlying evaluator unchanged.
    """
    if fidelity not in FIDELITIES:
        raise ConfigurationError(
            f"fidelity must be one of {FIDELITIES}, got {fidelity!r}")
    network = _resolve_workload(workload)
    envs = _resolve_environments(scenario, environments)
    evaluator = ChrysalisEvaluator(
        network, envs,
        checkpoint=checkpoint,
        steps_per_tile=steps_per_tile,
        faults=faults,
        max_steps=max_steps,
        time_budget_s=time_budget_s,
        fast_forward=fast_forward,
    )

    def _run() -> EvaluationReport:
        by_env: Dict[str, InferenceMetrics] = {}
        simulations: Optional[Dict[str, SimulationResult]] = (
            {} if fidelity == "step" else None)
        average: Optional[InferenceMetrics] = None
        for environment in envs:
            if fidelity == "step":
                result = evaluator.simulate(design, environment)
                simulations[environment.name] = result
                metrics = result.metrics
            else:
                metrics = evaluator.evaluate(design, environment)
            by_env[environment.name] = metrics
            if not metrics.feasible:
                # The paper's protocol: one failing environment fails
                # the design, and its marker metrics are the verdict.
                average = metrics
                break
        if average is None:
            average = _average_metrics(list(by_env.values()))
        return EvaluationReport(
            design=design,
            workload=network.name,
            fidelity=fidelity,
            metrics=average,
            by_environment=by_env,
            simulations=simulations,
        )

    enabled_here = False
    if obs and not obs_state.OBS.enabled:
        obs_state.enable(profile=True)
        enabled_here = True
    try:
        if obs_state.OBS.enabled:
            with obs_state.run_scope("api.evaluate", workload=network.name,
                                     fidelity=fidelity) as scope:
                report = _run()
            report.obs = scope.snapshot()
        else:
            report = _run()
    finally:
        if enabled_here:
            # Leave no trace: the caller never turned observability on,
            # so drop the residue the scope merged into the globals.
            obs_state.disable()
            obs_state.reset()
    return report


def evaluate_batch(designs: Sequence[AuTDesign],
                   workload: Union[str, Network],
                   scenario: Optional[Union[str, Scenario]] = None,
                   *,
                   environments: Optional[Sequence[LightEnvironment]] = None,
                   checkpoint: Optional[CheckpointModel] = None,
                   obs: bool = False) -> List[EvaluationReport]:
    """Price many designs on one workload in one call.

    The batched counterpart of :func:`evaluate` at analytical fidelity:
    designs sharing an accelerator configuration are priced together
    through :class:`~repro.sim.analytical.BatchAnalyticalModel`
    (hardware built once per group, repeated mappings served from the
    layer-cost cache), so a whole GA population or Pareto front does
    not pay for ``N`` separate hardware builds.

    Every report is **bit-identical** to ``evaluate(design, workload,
    fidelity="analytical", ...)`` for the same design — same averaged
    metrics, same per-environment breakdown (environments up to and
    including the first infeasible one), same infeasibility verdicts.
    The step simulator has no batched form; asking for it is a
    :class:`ConfigurationError` at :func:`evaluate`'s door, and this
    function simply does not take a fidelity.

    Returns one :class:`EvaluationReport` per design, in order; an
    empty design list returns an empty list.
    """
    designs = list(designs)
    network = _resolve_workload(workload)
    envs = _resolve_environments(scenario, environments)
    if not designs:
        return []

    def _run() -> List[EvaluationReport]:
        metrics_by_env = [
            BatchAnalyticalModel(network, environment,
                                 checkpoint).evaluate_many(designs)
            for environment in envs
        ]
        reports: List[EvaluationReport] = []
        for index, design in enumerate(designs):
            by_env: Dict[str, InferenceMetrics] = {}
            average: Optional[InferenceMetrics] = None
            for environment, env_metrics in zip(envs, metrics_by_env):
                metrics = env_metrics[index]
                by_env[environment.name] = metrics
                if not metrics.feasible:
                    average = metrics
                    break
            if average is None:
                average = _average_metrics(list(by_env.values()))
            reports.append(EvaluationReport(
                design=design,
                workload=network.name,
                fidelity="analytical",
                metrics=average,
                by_environment=by_env,
                simulations=None,
            ))
        return reports

    enabled_here = False
    if obs and not obs_state.OBS.enabled:
        obs_state.enable(profile=True)
        enabled_here = True
    try:
        if obs_state.OBS.enabled:
            with obs_state.run_scope("api.evaluate_batch",
                                     workload=network.name,
                                     designs=len(designs)) as scope:
                reports = _run()
            snapshot = scope.snapshot()
            for report in reports:
                report.obs = snapshot
        else:
            reports = _run()
    finally:
        if enabled_here:
            obs_state.disable()
            obs_state.reset()
    return reports


@dataclass(frozen=True)
class EvalRequest:
    """One entry of a heterogeneous :func:`evaluate_many` batch.

    The batched counterpart of one :func:`evaluate` call's arguments:
    ``workload`` accepts a zoo name or a :class:`Network`, and
    ``scenario`` / ``environments`` follow the same mutually-exclusive
    resolution rules (neither means the paper's brighter/darker pair).
    """

    design: AuTDesign
    workload: Union[str, Network]
    scenario: Optional[Union[str, Scenario]] = None
    environments: Optional[Tuple[LightEnvironment, ...]] = None
    checkpoint: Optional[CheckpointModel] = None


def evaluate_many(requests: Sequence[EvalRequest],
                  *, obs: bool = False) -> List[EvaluationReport]:
    """Price a heterogeneous request batch at analytical fidelity.

    Where :func:`evaluate_batch` takes many designs against *one*
    workload/environment context, this takes arbitrary mixed requests —
    different workloads, scenarios, checkpoint models — and partitions
    them into homogeneous groups, pricing each group through one
    :func:`evaluate_batch` call.  Results come back in
    request order and are bit-identical to calling
    ``evaluate(fidelity="analytical")`` per request.

    This is the pricing engine behind the evaluation service's
    micro-batcher (:mod:`repro.serve`): whatever mix of requests a
    flush drains, each compatibility group costs one batch call.
    """
    requests = list(requests)
    if not requests:
        return []
    resolved = []
    groups: Dict[tuple, List[int]] = {}
    for index, request in enumerate(requests):
        network = _resolve_workload(request.workload)
        envs = _resolve_environments(request.scenario, request.environments)
        resolved.append((network, envs, request.checkpoint))
        groups.setdefault((network, envs, request.checkpoint),
                          []).append(index)

    def _run() -> List[Optional[EvaluationReport]]:
        reports: List[Optional[EvaluationReport]] = [None] * len(requests)
        for (network, envs, checkpoint), indices in groups.items():
            batch = evaluate_batch(
                [requests[i].design for i in indices], network,
                environments=envs, checkpoint=checkpoint)
            for i, report in zip(indices, batch):
                reports[i] = report
        return reports

    enabled_here = False
    if obs and not obs_state.OBS.enabled:
        obs_state.enable(profile=True)
        enabled_here = True
    try:
        if obs_state.OBS.enabled:
            with obs_state.run_scope("api.evaluate_many",
                                     requests=len(requests),
                                     groups=len(groups)) as scope:
                reports = _run()
            snapshot = scope.snapshot()
            for report in reports:
                report.obs = snapshot
        else:
            reports = _run()
    finally:
        if enabled_here:
            obs_state.disable()
            obs_state.reset()
    return reports


def serve(**config_knobs: Any):
    """Build the always-on evaluation service (front door for traffic).

    Returns an unstarted
    :class:`~repro.serve.service.EvaluationService`; drive it as an
    async context manager::

        import asyncio
        from repro.api import serve

        async def main():
            async with serve(max_wait_ms=2.0) as service:
                report = await service.submit(design, "har")
                print(report.metrics.e2e_latency)

        asyncio.run(main())

    Keyword arguments are :class:`~repro.serve.service.ServeConfig`
    fields (``max_batch_size``, ``max_wait_ms``, ``max_queue``,
    ``default_deadline_s``, ``drain_timeout_s``).  Identical in-flight
    requests coalesce onto one evaluation, analytical requests
    micro-batch through :func:`evaluate_many`'s grouped pricing, and
    responses stay bit-identical to :func:`evaluate` — see
    ``docs/SERVING.md``.
    """
    # Imported lazily: repro.serve imports this module's evaluators.
    from repro.serve.service import EvaluationService, ServeConfig

    return EvaluationService(ServeConfig(**config_knobs))


__all__ = ["FIDELITIES", "EvalRequest", "EvaluationReport", "evaluate",
           "evaluate_batch", "evaluate_many", "serve"]
