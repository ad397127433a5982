"""Durable, resumable multi-scenario DSE campaigns.

The paper's result tables are fleets of searches; this package manages
such fleets end to end:

* :mod:`~repro.campaign.spec` — declarative :class:`CampaignSpec` grids
  that expand into content-hashed :class:`RunKey` cells;
* :mod:`~repro.campaign.store` — the SQLite :class:`ResultStore` every
  run persists into (WAL mode, schema-versioned, idempotent upserts);
* :mod:`~repro.campaign.runner` — the crash-safe, failure-absorbing
  :class:`CampaignRunner` (re-invocation skips completed runs);
* :mod:`~repro.campaign.fleet` — lease-based multi-worker execution:
  :class:`CampaignWorker` claim/heartbeat loops and the
  :class:`FleetCoordinator` that spawns and babysits them (dead
  workers' runs re-queue within one lease TTL);
* :mod:`~repro.campaign.report` — :class:`CampaignReport` winners and
  Pareto fronts rebuilt purely from the store.

See ``docs/CAMPAIGNS.md`` and ``python -m repro campaign --help``.
"""

from repro.campaign.fleet import (
    CampaignWorker,
    FleetConfig,
    FleetCoordinator,
    FleetProgress,
    WorkerSummary,
)
from repro.campaign.report import CampaignReport, ScenarioSummary
from repro.campaign.runner import (
    CampaignProgress,
    CampaignRunner,
    RunOutcome,
    run_campaign,
)
from repro.campaign.spec import (
    CampaignSpec,
    ObjectiveSpec,
    RunKey,
    expand_grid,
)
from repro.campaign.store import ResultStore, StoredRun, WorkerStatus

__all__ = [
    "CampaignProgress",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignWorker",
    "FleetConfig",
    "FleetCoordinator",
    "FleetProgress",
    "ObjectiveSpec",
    "ResultStore",
    "RunKey",
    "RunOutcome",
    "ScenarioSummary",
    "StoredRun",
    "WorkerStatus",
    "WorkerSummary",
    "expand_grid",
    "run_campaign",
]
