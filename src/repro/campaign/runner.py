"""Executes the pending runs of a campaign spec against a result store.

The runner is the crash-safety half of the subsystem.  Its contract:

* **resumable** — ``run()`` expands the spec, registers every run key
  (idempotent), and executes only the runs that are not already
  terminal (``done`` or ``exhausted``).  Rows left ``running`` by a
  crashed process are treated as pending again, and ``failed`` rows
  are retried until they burn through the spec's ``max_attempts``, at
  which point they flip to ``exhausted`` and stay that way (surfaced
  in ``campaign status`` / ``report``).  Re-invoking a finished
  campaign executes nothing.
* **failure-absorbing** — one broken run must never kill the campaign:
  any :class:`~repro.errors.ChrysalisError` a search raises (no
  feasible design, bad workload interaction, ...) is recorded as a
  failed row, together with the candidate-level
  :class:`~repro.explore.failures.FailureLog` the search had absorbed
  up to that point, and the campaign moves on.  Genuine programming
  errors still propagate.
* **budgeted** — the spec's ``candidate_time_budget_s`` rides into
  every search's :class:`~repro.explore.bilevel.BilevelExplorer`, so a
  pathological candidate inside any run times out into a penalty
  instead of stalling the fleet.

Each run's search evaluates its GA generations in-process.
Multi-process execution of *whole runs* lives one level up in
:mod:`repro.campaign.fleet`, whose workers record every run through
this module's one attempt path (:func:`_attempt`, around
:func:`execute_search`) — the fleet's claim/heartbeat protocol changes
who runs what, never what a run computes or how it is stored.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign.spec import (
    PARETO_KIND,
    CampaignSpec,
    RunKey,
    _check_attempts,
)
from repro.campaign.store import (
    OUTCOME_LOST,
    STATUS_DONE,
    STATUS_EXHAUSTED,
    ResultStore,
    StoredRun,
)
from repro.core.chrysalis import Chrysalis
from repro.core.result import AuTSolution
from repro.environments import environment_by_name
from repro.errors import ChrysalisError, ConfigurationError
from repro.explore.bilevel import SearchResult
from repro.explore.ga import GAConfig
from repro.obs.state import OBS, run_scope
from repro.serialize import solution_to_dict
from repro.workloads import zoo

logger = logging.getLogger(__name__)


def execute_search(key: RunKey) -> Tuple[AuTSolution, Optional[SearchResult]]:
    """One full CHRYSALIS search for one run key.

    The single execution path shared by the in-process
    :class:`CampaignRunner` and the fleet's
    :class:`~repro.campaign.fleet.CampaignWorker` — which is what makes
    fleet results bit-identical to single-process results.
    """
    network = zoo.workload_by_name(key.workload)
    if key.objective.kind == PARETO_KIND:
        return _execute_pareto(key, network)
    tool = Chrysalis(
        network,
        setup=key.setup,
        objective=key.to_objective(),
        environments=environment_by_name(key.environment),
        ga_config=GAConfig(population_size=key.population,
                           generations=key.generations,
                           seed=key.seed),
        candidate_time_budget_s=key.candidate_time_budget_s,
    )
    solution = tool.generate()
    return solution, tool.last_result


def _execute_pareto(key: RunKey, network,
                    ) -> Tuple[AuTSolution, Optional[SearchResult]]:
    """One NSGA-II multi-objective run for an ``objective: pareto`` key.

    The stored scalar solution is the front's representative point (the
    smallest panel x latency product); the whole front is persisted via
    :func:`success_payload`'s ``front`` entry.
    """
    from repro.explore.nsga2 import ParetoExplorer

    environments = environment_by_name(key.environment)
    tool = Chrysalis(network, setup=key.setup, environments=environments)
    explorer = ParetoExplorer(
        network, tool.space,
        environments=environments,
        ga_config=GAConfig(population_size=key.population,
                           generations=key.generations,
                           seed=key.seed),
    )
    result = explorer.search()
    solution = AuTSolution.from_search(
        result, network, objective_label="pareto (panel x latency front)")
    return solution, result


def success_payload(solution: AuTSolution,
                    result: Optional[SearchResult],
                    key: Optional[RunKey] = None) -> Dict[str, Any]:
    """The ``record_success`` keyword payload for a finished search.

    One construction path for every executor (single-process runner and
    fleet workers), so the persisted ``solution_json`` bytes are
    identical no matter who ran the search.  For ``objective: pareto``
    runs (``key`` given) the payload additionally carries the whole
    front as ``front`` rows of ``{panel_cm2, latency_s, design}``.
    """
    metrics = solution.average_metrics
    latency = metrics.sustained_period or metrics.e2e_latency
    front = None
    if (key is not None and key.objective.kind == PARETO_KIND
            and result is not None):
        from repro.serialize import design_to_dict

        front = [
            {
                "panel_cm2": point.values[0],
                "latency_s": point.values[1],
                "design": design_to_dict(point.payload),
            }
            for point in result.evaluated
        ]
    return {
        "score": solution.score,
        "panel_cm2": solution.solar_panel_cm2,
        "latency_s": latency,
        "solution": solution_to_dict(solution),
        "stats": None if result is None else result.stats.as_dict(),
        "failures": (None if result is None else
                     [dataclasses.asdict(record)
                      for record in result.failures]),
        "front": front,
    }


@dataclass(frozen=True)
class RunOutcome:
    """What happened to one executed run of this invocation."""

    key: RunKey
    status: str  # "done" | "failed" | "exhausted" | "lost" (fleet only)
    score: Optional[float] = None
    error: Optional[str] = None
    wall_seconds: float = 0.0


def _attempt(store: ResultStore, campaign: str, key: RunKey,
             execute: Callable[[RunKey], Tuple[Any, Any]], *,
             worker_id: Optional[str] = None,
             max_attempts: Optional[int] = None,
             retry_delay_s: Optional[float] = None) -> RunOutcome:
    """Execute one run and record it: the one attempt path of the runner
    and the fleet's workers, so both write the same row for a key.

    The run records into its own ``campaign.run`` observability scope,
    whose snapshot is the blob the store keeps.  A ChrysalisError is
    logged and recorded as a failure; any other error propagates.  A
    write the lease guard drops reads ``"lost"``.
    """
    tags = {} if worker_id is None else {"worker": worker_id}
    started = time.monotonic()
    with run_scope("campaign.run", run=key.run_hash[:12],
                   workload=key.workload, **tags) as scope:
        try:
            solution, result = execute(key)
            failure = None
        except ChrysalisError as error:
            failure = error
    obs = scope.snapshot() if OBS.enabled else None
    wall = time.monotonic() - started
    if failure is not None:
        logger.warning("campaign %s: run %s failed: %s",
                       campaign, key.describe(), failure)
        error = f"{type(failure).__name__}: {failure}"
        status = store.record_failure(
            key, error=error, wall_seconds=wall, campaign=campaign, obs=obs,
            worker_id=worker_id, max_attempts=max_attempts,
            retry_delay_s=retry_delay_s)
        return RunOutcome(key=key, status=status or OUTCOME_LOST,
                          error=error, wall_seconds=wall)
    written = store.record_success(
        key, wall_seconds=wall, campaign=campaign, obs=obs,
        worker_id=worker_id, **success_payload(solution, result, key))
    return RunOutcome(key=key, status=STATUS_DONE if written else OUTCOME_LOST,
                      score=solution.score, wall_seconds=wall)


def _check_overrides(max_runs: Optional[int],
                     max_attempts: Optional[int]) -> None:
    """Reject a ``max_runs`` below 0 or a ``max_attempts`` below 1."""
    if max_runs is not None and max_runs < 0:
        raise ConfigurationError(
            f"max_runs must be non-negative, got {max_runs}")
    _check_attempts(max_attempts)


@dataclass
class CampaignProgress:
    """Summary of one ``CampaignRunner.run()`` invocation."""

    campaign: str
    total: int = 0
    skipped: int = 0  # already terminal (done/exhausted) before this pass
    executed: List[RunOutcome] = field(default_factory=list)
    remaining: int = 0  # still pending after this invocation (max_runs)

    @property
    def completed(self) -> int:
        return sum(1 for o in self.executed if o.status == STATUS_DONE)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.executed if o.status != STATUS_DONE)

    @property
    def exhausted(self) -> int:
        return sum(1 for o in self.executed
                   if o.status == STATUS_EXHAUSTED)

    def render(self) -> str:
        lines = [
            f"campaign    : {self.campaign}",
            f"runs        : {self.total} total, {self.skipped} already "
            f"complete (skipped)",
            f"this pass   : {self.completed} completed, {self.failed} "
            f"failed ({self.exhausted} exhausted), {self.remaining} "
            f"still pending",
        ]
        for outcome in self.executed:
            wall = f"{outcome.wall_seconds:.1f}s"
            if outcome.status == STATUS_DONE:
                lines.append(f"  [done]   {outcome.key.describe()} "
                             f"score={outcome.score:.4g} ({wall})")
            else:
                lines.append(f"  [{outcome.status}] {outcome.key.describe()} "
                             f"{outcome.error} ({wall})")
        return "\n".join(lines)


class CampaignRunner:
    """Drives a :class:`CampaignSpec` to completion against a store.

    Parameters
    ----------
    spec:
        The campaign grid to execute.
    store:
        Where results persist; reusing the same store is what makes the
        campaign resumable.
    max_runs:
        Execute at most this many runs this invocation, then return
        (the remaining runs stay pending for the next invocation — also
        how the CI smoke job emulates an interrupted campaign).
    max_attempts:
        Override of the spec's retry cap.  A run that has failed this
        many times becomes ``exhausted`` and is never retried again —
        without it, a deterministic always-failing run would be re-run
        on every re-invocation forever.
    on_progress:
        Optional callback invoked with each :class:`RunOutcome` as it
        lands, for live CLI output.
    """

    def __init__(self, spec: CampaignSpec, store: ResultStore,
                 max_runs: Optional[int] = None,
                 max_attempts: Optional[int] = None,
                 on_progress: Optional[Callable[[RunOutcome], None]] = None,
                 ) -> None:
        _check_overrides(max_runs, max_attempts)
        self.spec = spec
        self.store = store
        self.max_runs = max_runs
        self.max_attempts = (spec.max_attempts if max_attempts is None
                             else max_attempts)
        self.on_progress = on_progress

    # -- planning ------------------------------------------------------------

    def pending_runs(self) -> List[RunKey]:
        """Spec runs not yet terminal in the store, in grid order.

        Includes never-registered and retryable ``failed`` runs, plus
        ``running`` rows (a live row would belong to *this* runner; a
        stale one is a crash leftover and must be re-run).  ``done``
        and ``exhausted`` rows are skipped.
        """
        pending = []
        for key in self.spec.expand():
            row = self.store.get(key.run_hash)
            if row is None or row.status not in (STATUS_DONE,
                                                 STATUS_EXHAUSTED):
                pending.append(key)
        return pending

    # -- execution -----------------------------------------------------------

    def run(self) -> CampaignProgress:
        keys = self.spec.expand()
        created = self.store.register(self.spec.name, keys)
        if created:
            logger.info("campaign %s: registered %d new run(s)",
                        self.spec.name, created)
        if self.max_attempts is not None:
            # Rows that burned their attempts in earlier invocations
            # (possibly under an older release without the cap).
            spent = self.store.exhaust_spent(self.spec.name,
                                             self.max_attempts)
            if spent:
                logger.info("campaign %s: %d run(s) out of attempts, "
                            "marked exhausted", self.spec.name, len(spent))
        pending = self.pending_runs()
        progress = CampaignProgress(
            campaign=self.spec.name,
            total=len(keys),
            skipped=len(keys) - len(pending),
        )
        batch = pending if self.max_runs is None else pending[:self.max_runs]
        progress.remaining = len(pending) - len(batch)
        for key in batch:
            progress.executed.append(self._run_one(key))
        return progress

    def _run_one(self, key: RunKey) -> RunOutcome:
        self.store.mark_running(key)
        outcome = _attempt(self.store, self.spec.name, key,
                           self._execute_run, max_attempts=self.max_attempts)
        if self.on_progress is not None:
            self.on_progress(outcome)
        return outcome

    def _execute_run(self, key: RunKey
                     ) -> Tuple[AuTSolution, Optional[SearchResult]]:
        """One search via :func:`execute_search`.

        Kept as a method so tests (and alternative executors) can stub
        the expensive part while keeping the store/resume protocol
        intact.
        """
        return execute_search(key)


def run_campaign(spec: CampaignSpec, store_path,
                 max_runs: Optional[int] = None,
                 max_attempts: Optional[int] = None,
                 on_progress: Optional[Callable[[RunOutcome], None]] = None,
                 ) -> CampaignProgress:
    """Convenience wrapper: open the store, run, close."""
    with ResultStore(store_path) as store:
        runner = CampaignRunner(spec, store,
                                max_runs=max_runs, max_attempts=max_attempts,
                                on_progress=on_progress)
        return runner.run()


__all__ = [
    "CampaignProgress",
    "CampaignRunner",
    "RunOutcome",
    "StoredRun",
    "execute_search",
    "run_campaign",
]
