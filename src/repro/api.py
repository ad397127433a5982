"""The single-entry evaluation API.

:func:`evaluate` prices one design on one workload::

    from repro import evaluate

    report = evaluate(design, "har_cnn", fidelity="step")
    print(report.metrics.e2e_latency)

It resolves the workload by name and the scenario into an environment
set, then runs the paper's every-environment rule at the chosen
fidelity (:mod:`repro.sim.evaluator` holds both forms): the design's
plan is built once and priced, or step-simulated, in each environment
up to and including the first infeasible one.  Results are
bit-identical to :meth:`ChrysalisEvaluator.evaluate` and
:meth:`ChrysalisEvaluator.simulate` per environment.  The returned
:class:`EvaluationReport` carries the verdict, the per-environment
breakdown, the simulation results (step fidelity) and, with
``obs=True``, a self-contained observability snapshot of the call.
:func:`evaluate_batch` and :func:`evaluate_many` price many designs at
analytical fidelity, and :func:`serve` builds the evaluation service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from repro.core.scenarios import Scenario
from repro.design import AuTDesign
from repro.energy.environment import LightEnvironment
from repro.environments import environment_by_name
from repro.errors import ConfigurationError
from repro.hardware.checkpoint import CheckpointModel
from repro.obs import state as obs_state
from repro.sim.engine import SimulationResult
from repro.sim.evaluator import (ChrysalisEvaluator,
                                 _evaluate_every_environment,
                                 _simulate_every_environment)
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
    #: the infeasible one.  Keyed by environment name: when two priced
    #: environments share a name, the later one's entry is kept here,
    #: though ``metrics`` averages both.
    by_environment: Dict[str, InferenceMetrics] = field(default_factory=dict)
    #: Step fidelity only: the full per-environment simulation results
    #: (trace, controllers, fast-path counters), keyed like
    #: ``by_environment``; ``None`` otherwise.
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
    """The environment set a request names; the one place that checks
    it is not empty, for :func:`evaluate`, :func:`evaluate_batch`,
    :func:`evaluate_many` and the evaluation service."""
    if environments is not None:
        if scenario is not None:
            raise ConfigurationError(
                "pass either scenario or environments, not both")
        envs = tuple(environments)
    elif scenario is None:
        envs = environment_by_name("paper")
    elif isinstance(scenario, str):
        # A string resolves through the unified registry, so any
        # environment label works here: scenario names, presets,
        # "scenario:<name>", registered traces.
        envs = environment_by_name(scenario)
    else:
        envs = tuple(scenario.environments)
    if not envs:
        raise ConfigurationError("at least one environment is required")
    return envs


def _by_name(environments: Sequence[LightEnvironment],
             values: Sequence[Any]) -> Dict[str, Any]:
    """``values`` keyed by environment name (a later namesake wins)."""
    return dict(zip([environment.name for environment in environments],
                    values))


def _analytical_reports(designs: Sequence[AuTDesign], network: Network,
                        envs: Sequence[LightEnvironment],
                        checkpoint: Optional[CheckpointModel]
                        ) -> List[EvaluationReport]:
    """One analytical report per design from one run of the rule, for
    :func:`evaluate_batch` and :func:`evaluate` (a batch of one)."""
    return [
        EvaluationReport(design=design, workload=network.name,
                         fidelity="analytical", metrics=verdict,
                         by_environment=_by_name(envs, row))
        for design, (row, verdict) in zip(designs, _evaluate_every_environment(
            designs, network, envs, checkpoint))
    ]


def _observed(obs: bool, run: Callable[[], Any], name: str,
              **tags: Any) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """``(run(), snapshot)``: under observability (``obs=True``, or an
    enclosing enabled scope) ``run`` executes in a run scope named
    ``name`` and the snapshot is that scope's; otherwise it is ``None``.
    Observability that ``obs=True`` switched on is switched off and
    reset afterwards, so the call leaves no trace in the globals."""
    enabled_here = not obs_state.OBS.enabled
    if enabled_here:
        if not obs:
            return run(), None
        obs_state.enable(profile=True)
    try:
        with obs_state.run_scope(name, **tags) as scope:
            result = run()
        return result, scope.snapshot()
    finally:
        if enabled_here:
            obs_state.disable()
            obs_state.reset()


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

    def _run() -> EvaluationReport:
        if fidelity == "analytical":
            return _analytical_reports([design], network, envs, checkpoint)[0]
        evaluator = ChrysalisEvaluator(
            network, envs, checkpoint=checkpoint,
            steps_per_tile=steps_per_tile, faults=faults,
            max_steps=max_steps, time_budget_s=time_budget_s,
            fast_forward=fast_forward)
        results, verdict = _simulate_every_environment(evaluator, design)
        return EvaluationReport(
            design=design, workload=network.name, fidelity=fidelity,
            metrics=verdict,
            by_environment=_by_name(envs, [r.metrics for r in results]),
            simulations=_by_name(envs, results))

    report, report_obs = _observed(obs, _run, "api.evaluate",
                                   workload=network.name, fidelity=fidelity)
    report.obs = report_obs
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
    The step simulator has no batched form, so this function does not
    take a fidelity.

    Returns one :class:`EvaluationReport` per design, in order; an
    empty design list returns an empty list.
    """
    designs = list(designs)
    network = _resolve_workload(workload)
    envs = _resolve_environments(scenario, environments)
    if not designs:
        return []

    reports, snapshot = _observed(
        obs, lambda: _analytical_reports(designs, network, envs, checkpoint),
        "api.evaluate_batch", workload=network.name, designs=len(designs))
    for report in reports:
        report.obs = snapshot
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

    The evaluation service (:mod:`repro.serve`) does not call this
    function: its flush groups requests the same way and calls
    :func:`evaluate_batch` itself, once per compatibility group.
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

    reports, snapshot = _observed(obs, _run, "api.evaluate_many",
                                  requests=len(requests), groups=len(groups))
    for report in reports:
        report.obs = snapshot
    return reports


def serve(**config_knobs: Any):
    """Build the always-on evaluation service (front door for traffic).

    Returns an unstarted
    :class:`~repro.serve.service.EvaluationService`; drive it as an
    async context manager::

        import asyncio
        from repro.api import serve

        async def main():
            async with serve(max_batch_size=16) as service:
                report = await service.submit(design, "har")
                print(report.metrics.e2e_latency)

        asyncio.run(main())

    Keyword arguments are :class:`~repro.serve.service.ServeConfig`
    fields (``max_batch_size``, ``max_queue``, ``default_deadline_s``,
    ``drain_timeout_s``).  Identical in-flight requests coalesce onto
    one evaluation, each flush prices every compatibility group of
    analytical requests in one :func:`evaluate_batch` call, and
    responses stay bit-identical to :func:`evaluate` — see
    ``docs/SERVING.md``.
    """
    # Imported lazily: repro.serve imports this module's evaluators.
    from repro.serve.service import EvaluationService, ServeConfig

    return EvaluationService(ServeConfig(**config_knobs))


__all__ = ["FIDELITIES", "EvalRequest", "EvaluationReport", "evaluate",
           "evaluate_batch", "evaluate_many", "serve"]
