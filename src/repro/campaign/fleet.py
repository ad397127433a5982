"""Fault-tolerant multi-worker campaign execution.

This is the coordinator/worker split the ROADMAP's "heavy traffic"
item asks for, built on the v3 :class:`~repro.campaign.store.ResultStore`
lease layer rather than a bespoke message queue: the SQLite file *is*
the queue, the heartbeat channel, and the result sink, so any process
that can open the file can join the fleet — no sockets, no registry,
no single stateful coordinator to lose.

Topology::

    python -m repro campaign fleet SPEC --workers 3      (coordinator)
        |-- spawns --> python -m repro campaign worker SPEC   (local)
        |-- spawns --> python -m repro campaign worker SPEC   (local)
        |-- spawns --> python -m repro campaign worker SPEC   (local)
        |                         . . .
        |   any extra `campaign worker` on any machine sharing the file
        `-- watches the store: reaps stale leases, reports liveness

Protocol, per worker:

1. :meth:`ResultStore.claim` atomically leases the next executable run
   (``pending``, retryable ``failed``, or expired-lease ``running``)
   and stamps it ``lease_deadline = now + ttl``.
2. A daemon heartbeat thread extends the lease every ``ttl/4`` seconds
   over its own store connection while the (blocking) search runs,
   and stops however the run ends.
3. The runner's attempt path records the result through a
   lease-guarded upsert: if the worker lost its lease mid-run (it
   stalled past the TTL and the run was reclaimed), the write is
   dropped — results are deterministic per run key, so the
   reclaimant's eventual write is byte-identical anyway.
4. A failed run is re-queued with capped exponential backoff
   (deterministically jittered by run hash, so the schedule is
   reproducible) until it burns ``max_attempts`` attempts and becomes
   ``exhausted``.

A worker that dies — SIGKILL, OOM, power loss — simply stops
heartbeating: within one TTL its leases expire and any other claimant
(or the coordinator's reap loop) re-queues them.  The fleet therefore
converges with *any* non-empty subset of its workers alive, and
``tests/_chaos.py`` proves it by SIGKILLing workers mid-run and
asserting the surviving fleet still completes every run with solutions
bit-identical to a single-process :class:`CampaignRunner`.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.campaign.runner import _attempt, execute_search
from repro.campaign.spec import (
    CampaignSpec,
    RunKey,
    _check_attempts,
    _check_seconds,
)
from repro.campaign.store import (
    DEFAULT_LEASE_TTL_S,
    OUTCOME_LOST,
    STATUS_DONE,
    STATUS_EXHAUSTED,
    ResultStore,
    StoredRun,
    WorkerStatus,
)
from repro.errors import ConfigurationError, StoreError
from repro.obs.state import OBS

#: Chaos/test hook: a positive float here makes every worker sleep that
#: long inside each claimed run, widening the crash window the
#: SIGKILL-injection harness aims at.  Ignored (zero) in normal use.
RUN_DELAY_ENV = "REPRO_FLEET_RUN_DELAY_S"


@dataclass(frozen=True)
class FleetConfig:
    """Execution-policy knobs shared by workers and the coordinator.

    Everything here is result-neutral: it changes who executes a run
    and when, never what the run computes.
    """

    lease_ttl_s: float = DEFAULT_LEASE_TTL_S
    #: Lease-extension period; defaults to a quarter TTL so a worker
    #: survives three missed beats before losing its runs.
    heartbeat_s: Optional[float] = None
    #: Idle/watch polling period.
    poll_s: float = 0.25
    #: Failed-run backoff: ``min(cap, base * 2**(attempt-1))``, jittered.
    backoff_base_s: float = 1.0
    backoff_cap_s: float = 30.0
    #: Retry cap override; ``None`` uses the spec's ``max_attempts``.
    max_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("lease_ttl_s", "heartbeat_s", "poll_s",
                     "backoff_base_s", "backoff_cap_s"):
            _check_seconds(name, getattr(self, name))
        if self.heartbeat_s is not None \
                and self.heartbeat_s >= self.lease_ttl_s:
            raise ConfigurationError(
                "heartbeat_s must be shorter than lease_ttl_s "
                "(a beat slower than the TTL loses every lease)")
        _check_attempts(self.max_attempts)

    @property
    def heartbeat_interval_s(self) -> float:
        return (self.lease_ttl_s / 4.0 if self.heartbeat_s is None
                else self.heartbeat_s)

    def attempts_cap(self, spec: CampaignSpec) -> int:
        return (spec.max_attempts if self.max_attempts is None
                else self.max_attempts)


def retry_delay_s(run_hash: str, attempt: int,
                  config: FleetConfig) -> float:
    """Capped exponential backoff with deterministic jitter.

    The jitter (x0.75..x1.25) decorrelates workers hammering the same
    store without making retry schedules irreproducible: it is seeded
    by (run hash, attempt), not by wall clock or PRNG state.
    """
    raw = min(config.backoff_cap_s,
              config.backoff_base_s * (2.0 ** max(0, attempt - 1)))
    digest = hashlib.sha256(
        f"{run_hash}:{attempt}".encode("utf-8")).hexdigest()
    jitter = 0.75 + 0.5 * (int(digest[:8], 16) / 0xFFFFFFFF)
    return raw * jitter


@dataclass
class WorkerSummary:
    """What one worker did over its lifetime."""

    worker_id: str
    claimed: int = 0
    done: int = 0
    failed: int = 0
    #: Claims whose final write was dropped because the lease expired
    #: and another worker took the run over.
    lease_lost: int = 0
    #: Stale leases this worker reaped from dead peers.
    reaped: int = 0


class CampaignWorker:
    """One fleet member: claim, heartbeat, execute, record, repeat.

    Runs until the campaign is terminal (every run ``done`` or
    ``exhausted``).  Safe to run many per store — that is the point —
    and safe to kill at any instant: held leases expire within one TTL
    and the runs are re-queued.

    Parameters
    ----------
    spec / store_path:
        What to run and where the shared store lives.
    worker_id:
        Fleet-unique name; defaults to ``host:pid``.
    config:
        Lease TTL / heartbeat / backoff policy.
    execute:
        Injectable run executor (tests); defaults to the same
        :func:`~repro.campaign.runner.execute_search` the
        single-process runner uses.
    """

    def __init__(self, spec: CampaignSpec, store_path, *,
                 worker_id: Optional[str] = None,
                 config: Optional[FleetConfig] = None,
                 execute: Optional[Callable[[RunKey], Tuple[Any, Any]]] = None,
                 on_progress: Optional[Callable[[str, StoredRun], None]] = None,
                 ) -> None:
        self.spec = spec
        self.store_path = str(store_path)
        self.worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}"
        self.config = config or FleetConfig()
        self._execute = execute or self._default_execute
        self.on_progress = on_progress

    def _default_execute(self, key: RunKey) -> Tuple[Any, Any]:
        delay = float(os.environ.get(RUN_DELAY_ENV, "0") or 0.0)
        if delay > 0:
            time.sleep(delay)  # chaos-harness crash window
        return execute_search(key)

    # -- the loop ------------------------------------------------------------

    def run(self) -> WorkerSummary:
        summary = WorkerSummary(worker_id=self.worker_id)
        config = self.config
        campaign = self.spec.name
        with ResultStore(self.store_path) as store:
            store.register(campaign, self.spec.expand())
            store.register_worker(
                self.worker_id, campaign, pid=os.getpid(),
                host=socket.gethostname(), lease_ttl_s=config.lease_ttl_s)
            cap = config.attempts_cap(self.spec)
            while True:
                claimed = store.claim(campaign, self.worker_id,
                                      ttl_s=config.lease_ttl_s,
                                      max_attempts=cap)
                if claimed is None:
                    # Nothing claimable: reap dead peers' leases, retire
                    # spent rows, and stop once the campaign is terminal.
                    reaped = store.reap_stale(campaign, max_attempts=cap)
                    summary.reaped += len(reaped)
                    if reaped:
                        continue
                    store.exhaust_spent(campaign, cap)
                    if store.unfinished_count(campaign) == 0:
                        break
                    store.heartbeat(self.worker_id)  # visibly idle, alive
                    time.sleep(config.poll_s)
                    continue
                summary.claimed += 1
                self._run_claimed(store, claimed, summary)
            store.retire_worker(self.worker_id)
        if OBS.enabled:
            OBS.registry.counter("fleet.worker.claims").inc(summary.claimed)
            OBS.registry.counter("fleet.worker.reaped").inc(summary.reaped)
        return summary

    def _run_claimed(self, store: ResultStore, row: StoredRun,
                     summary: WorkerSummary) -> None:
        def execute(key: RunKey) -> Tuple[Any, Any]:
            with self._lease_heartbeat(row.run_hash):
                return self._execute(key)

        outcome = _attempt(
            store, self.spec.name, row.key, execute,
            worker_id=self.worker_id,
            max_attempts=self.config.attempts_cap(self.spec),
            retry_delay_s=retry_delay_s(row.run_hash, row.attempts,
                                        self.config))
        if outcome.status == STATUS_DONE:
            summary.done += 1
        elif outcome.status == OUTCOME_LOST:
            summary.lease_lost += 1
        else:
            summary.failed += 1
        if self.on_progress is not None:
            self.on_progress(outcome.status, row)

    @contextlib.contextmanager
    def _lease_heartbeat(self, run_hash: str) -> Iterator[None]:
        """Extend one run's lease on a timer while the body (a blocking
        search) runs, from a sidecar thread on its own store connection.
        The thread stops however the body exits, so a worker that dies
        mid-run stops heartbeating."""
        interval_s = self.config.heartbeat_interval_s
        halt = threading.Event()

        def beat() -> None:
            try:
                store = ResultStore(self.store_path)
            except StoreError:
                return
            with store:
                while not halt.wait(interval_s):
                    try:
                        if not store.heartbeat(self.worker_id, run_hash,
                                               ttl_s=self.config.lease_ttl_s):
                            return  # lost: the result write is dropped
                    except StoreError:
                        continue  # transient contention; the lease has slack

        thread = threading.Thread(target=beat, daemon=True,
                                  name=f"lease-heartbeat-{self.worker_id}")
        thread.start()
        try:
            yield
        finally:
            halt.set()
            thread.join(timeout=max(1.0, 2 * interval_s))


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------


@dataclass
class FleetProgress:
    """Where a fleet invocation left the campaign."""

    campaign: str
    counts: Dict[str, int]
    workers: List[WorkerStatus] = field(default_factory=list)
    reaped: int = 0
    converged: bool = False
    wall_seconds: float = 0.0

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def render(self) -> str:
        done = self.counts.get(STATUS_DONE, 0)
        lines = [
            f"campaign    : {self.campaign}",
            f"runs        : {done}/{self.total} done "
            f"({self.counts.get('failed', 0)} failed, "
            f"{self.counts.get(STATUS_EXHAUSTED, 0)} exhausted, "
            f"{self.reaped} stale lease(s) reaped)",
            f"converged   : {'yes' if self.converged else 'no'} "
            f"({self.wall_seconds:.1f}s)",
        ]
        for worker in self.workers:
            lines.append(
                f"  [{worker.state:<6}] {worker.worker_id} "
                f"pid={worker.pid} done={worker.runs_done} "
                f"failed={worker.runs_failed} "
                f"({worker.throughput_per_min:.1f} runs/min)")
        return "\n".join(lines)


def spawn_worker(spec_path, store_path, worker_id: str,
                 config: FleetConfig,
                 python: Optional[str] = None) -> subprocess.Popen:
    """Start one ``campaign worker`` subprocess against a shared store."""
    import repro

    env = dict(os.environ)
    package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    argv = [python or sys.executable, "-m", "repro", "campaign", "worker",
            str(spec_path), "--store", str(store_path),
            "--worker-id", worker_id,
            "--lease-ttl", str(config.lease_ttl_s),
            "--heartbeat-every", str(config.heartbeat_interval_s),
            "--poll", str(config.poll_s)]
    if config.max_attempts is not None:
        argv += ["--max-attempts", str(config.max_attempts)]
    return subprocess.Popen(argv, env=env)


class FleetCoordinator:
    """Spawns local workers and babysits the store until convergence.

    The coordinator holds no campaign state of its own — everything it
    knows it reads from the store, and everything it does (reaping
    stale leases, retiring spent rows) any worker also does
    opportunistically.  Killing the coordinator mid-campaign loses
    nothing: re-invoking it (or just running more workers) resumes.
    """

    def __init__(self, spec: CampaignSpec, spec_path, store_path, *,
                 n_workers: int = 2,
                 config: Optional[FleetConfig] = None) -> None:
        if n_workers < 1:
            raise ConfigurationError("a fleet needs at least one worker")
        self.spec = spec
        self.spec_path = str(spec_path)
        self.store_path = str(store_path)
        self.n_workers = n_workers
        self.config = config or FleetConfig()
        self.children: Dict[str, subprocess.Popen] = {}
        self._reaped = 0

    def start(self) -> None:
        """Register the grid and spawn the local worker processes."""
        with ResultStore(self.store_path) as store:
            store.register(self.spec.name, self.spec.expand())
        stamp = os.getpid()
        for index in range(self.n_workers):
            worker_id = f"fleet-{stamp}-w{index}"
            self.children[worker_id] = spawn_worker(
                self.spec_path, self.store_path, worker_id, self.config)

    def live_children(self) -> Dict[str, subprocess.Popen]:
        return {worker_id: proc for worker_id, proc in self.children.items()
                if proc.poll() is None}

    def wait(self,
             on_tick: Optional[Callable[["FleetCoordinator", ResultStore],
                                        None]] = None,
             timeout_s: Optional[float] = None) -> FleetProgress:
        """Watch until the campaign is terminal or no worker is left.

        ``on_tick(coordinator, store)`` runs every poll period — the
        chaos harness uses it to aim SIGKILLs.  ``timeout_s`` is a
        hard stop that terminates the children (the campaign stays
        resumable; nothing is lost but time).
        """
        config = self.config
        campaign = self.spec.name
        cap = config.attempts_cap(self.spec)
        started = time.monotonic()
        converged = False
        with ResultStore(self.store_path) as store:
            while True:
                self._reaped += len(store.reap_stale(campaign,
                                                     max_attempts=cap))
                store.exhaust_spent(campaign, cap)
                if on_tick is not None:
                    on_tick(self, store)
                if store.unfinished_count(campaign) == 0:
                    converged = True
                    break
                external = [w for w in store.workers_status(campaign)
                            if w.alive and w.worker_id not in self.children]
                if not self.live_children() and not external:
                    break  # every worker is gone; campaign stays resumable
                if (timeout_s is not None
                        and time.monotonic() - started > timeout_s):
                    break
                time.sleep(config.poll_s)
            self._drain()
            progress = FleetProgress(
                campaign=campaign,
                counts=store.status_counts(campaign),
                workers=store.workers_status(campaign),
                reaped=self._reaped,
                converged=converged,
                wall_seconds=time.monotonic() - started,
            )
        if OBS.enabled:
            OBS.registry.counter("fleet.coordinator.reaped").inc(
                self._reaped)
        return progress

    def run(self, timeout_s: Optional[float] = None) -> FleetProgress:
        self.start()
        return self.wait(timeout_s=timeout_s)

    def _drain(self) -> None:
        """Give converged workers a grace period, then terminate."""
        deadline = time.monotonic() + max(5.0, 4 * self.config.poll_s)
        for proc in self.children.values():
            remaining = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(0.1, remaining))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()


__all__ = [
    "CampaignWorker",
    "FleetConfig",
    "FleetCoordinator",
    "FleetProgress",
    "RUN_DELAY_ENV",
    "WorkerSummary",
    "retry_delay_s",
    "spawn_worker",
]
