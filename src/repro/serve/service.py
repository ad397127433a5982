"""Always-on evaluation service: coalescing + micro-batching.

The search layer (``repro.explore``) amortizes evaluation cost because
one caller owns the whole population.  A *service* has the opposite
shape: many independent callers, one request each, no caller-side
batching possible.  :class:`EvaluationService` recovers the amortized
economics server-side:

* **Coalescing** — a request is its value, ``(design, network,
  environments, fidelity, checkpoint)``, compared with ``==``; while
  an equal request is in flight, every further submission awaits the
  same future and the evaluation runs once.
* **Micro-batching** — accepted requests queue into a work-conserving
  batcher: as soon as its queue drains it flushes what it holds, up to
  ``max_batch_size`` requests.  Each flush groups analytical requests
  by ``(network, environments, checkpoint)`` value, as
  :func:`repro.api.evaluate_many` does, and prices every group through
  one :func:`repro.api.evaluate_batch` call, so a flush of N
  compatible requests builds each accelerator's hardware once, not N
  times.
* **Admission control** — the queue is bounded (``max_queue``); when it
  is full new requests are shed with
  :class:`~repro.errors.ServiceOverloadError` instead of growing an
  unbounded backlog.  Per-request deadlines surface as the library's
  existing :class:`~repro.errors.EvaluationTimeout`.

Responses are bit-identical to calling :func:`repro.api.evaluate`
directly — the service changes *when and with whom* a request is
priced, never *what* it computes.  It keeps no memo of past requests:
once a request completes, only the batcher's last batch may still
refer to it.  Evaluation runs on a single worker thread,
keeping the event loop responsive and the process-wide caches
(layer-cost cache, mapper memo) uncontended.

All dependencies are stdlib; tests inject ``evaluate_fn`` /
``evaluate_batch_fn`` / ``time_fn`` to run against fakes and a
deterministic clock.
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple, Union)

from repro.api import (FIDELITIES, EvaluationReport, _resolve_environments,
                       _resolve_workload)
from repro.design import AuTDesign
from repro.energy.environment import LightEnvironment
from repro.errors import (ChrysalisError, ConfigurationError,
                          EvaluationTimeout, ServiceClosedError,
                          ServiceOverloadError)
from repro.hardware.checkpoint import CheckpointModel
from repro.obs.registry import Histogram, _histogram_dict
from repro.workloads.network import Network


def _check_seconds(name: str, value: float) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is a positive,
    finite number of seconds (the wire's rule for ``deadline_s``)."""
    if not 0.0 < value < math.inf:
        raise ConfigurationError(
            f"{name} must be a positive, finite number of seconds, "
            f"got {value}")


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of the evaluation service (all SLO-facing).

    ``max_batch_size`` bounds how much company one flush can hold; the
    batcher flushes as soon as its admission queue drains, since
    requests that were going to batch together arrive in the same
    event-loop wave anyway.  ``max_queue`` is the admission limit —
    beyond it requests are shed, trading availability for bounded
    latency.  ``default_deadline_s`` applies to requests that do not
    carry their own deadline (``None`` means no deadline).
    """

    max_batch_size: int = 64
    max_queue: int = 1024
    default_deadline_s: Optional[float] = None
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1, got {self.max_queue}")
        if self.default_deadline_s is not None:
            _check_seconds("default_deadline_s", self.default_deadline_s)
        _check_seconds("drain_timeout_s", self.drain_timeout_s)


@dataclass
class ServeStats:
    """Service-lifetime SLO accounting (always on, unlike ``OBS``).

    Counters track request outcomes; the histograms carry the
    power-of-two bucket distributions that :meth:`as_dict` renders as
    p50/p90/p99.  ``requests`` counts every accepted submission,
    including coalesced ones; ``evaluated`` counts requests that were
    actually priced, so ``coalesce_rate`` is the fraction of accepted
    traffic served for free off an in-flight twin.
    """

    requests: int = 0
    coalesced: int = 0
    evaluated: int = 0
    batches: int = 0
    shed: int = 0
    timeouts: int = 0
    failures: int = 0
    latency_seconds: Histogram = field(
        default_factory=lambda: Histogram("serve.request_seconds"))
    queue_wait_seconds: Histogram = field(
        default_factory=lambda: Histogram("serve.queue_wait_seconds"))
    batch_occupancy: Histogram = field(
        default_factory=lambda: Histogram("serve.batch_occupancy"))

    @property
    def coalesce_rate(self) -> float:
        return self.coalesced / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "evaluated": self.evaluated,
            "batches": self.batches,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "coalesce_rate": self.coalesce_rate,
            "latency_seconds": _histogram_dict(self.latency_seconds),
            "queue_wait_seconds": _histogram_dict(self.queue_wait_seconds),
            "batch_occupancy": _histogram_dict(self.batch_occupancy),
        }


class _Key:
    """A value with its hash computed once, for the service's dicts.

    ``value`` holds frozen dataclasses, tuples of them, strings and
    None, so ``==`` compares it by content.  The hash comes from
    ``cheap``: parts that are cheap to hash and equal whenever the
    values are equal, such as a design and a workload's name.  Hashing
    a trace's segments or a network's layers on every probe would cost
    more than the rest of the request's bookkeeping, and a namesake of
    other content still differs at ``==``.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: tuple, *cheap: Hashable) -> None:
        self.value = value
        self._hash = hash(cheap)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Key) and self._hash == other._hash \
            and self.value == other.value


@dataclass
class _Pending:
    """One admitted, not-yet-priced request (the coalescing unit)."""

    key: _Key
    design: AuTDesign
    network: Network
    environments: Tuple[LightEnvironment, ...]
    checkpoint: Optional[CheckpointModel]
    fidelity: str
    future: "asyncio.Future[EvaluationReport]"
    deadline: Optional[float]
    enqueued_at: float


_STOP = object()

EvaluateFn = Callable[..., EvaluationReport]
EvaluateBatchFn = Callable[..., List[EvaluationReport]]


def _default_evaluate(design: AuTDesign, network: Network,
                      environments: Sequence[LightEnvironment],
                      checkpoint: Optional[CheckpointModel],
                      fidelity: str) -> EvaluationReport:
    from repro import api

    return api.evaluate(design, network, environments=list(environments),
                        fidelity=fidelity, checkpoint=checkpoint)


def _default_evaluate_batch(designs: Sequence[AuTDesign], network: Network,
                            environments: Sequence[LightEnvironment],
                            checkpoint: Optional[CheckpointModel]
                            ) -> List[EvaluationReport]:
    from repro import api

    return api.evaluate_batch(list(designs), network,
                              environments=list(environments),
                              checkpoint=checkpoint)


class EvaluationService:
    """Long-lived asyncio front end over the evaluation engine.

    Lifecycle::

        service = EvaluationService(ServeConfig(max_batch_size=16))
        async with service:                      # start() ... stop()
            report = await service.submit(design, "har")

    ``submit`` resolves the request exactly as :func:`repro.api.evaluate`
    would, coalesces it onto any identical in-flight evaluation, and
    otherwise enqueues it for the batcher.  ``stop(drain=True)`` (the
    context-manager default) refuses new work but prices everything
    already admitted before returning.

    Thread model: the event loop owns all bookkeeping; the only other
    thread is a single-worker executor that runs the (synchronous,
    CPU-bound) evaluations, so process-wide caches see no concurrent
    writers beyond what serial evaluation already produces.
    """

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 evaluate_fn: EvaluateFn = _default_evaluate,
                 evaluate_batch_fn: EvaluateBatchFn = _default_evaluate_batch,
                 time_fn: Callable[[], float] = time.monotonic) -> None:
        self.config = config or ServeConfig()
        self.stats = ServeStats()
        self._evaluate_fn = evaluate_fn
        self._evaluate_batch_fn = evaluate_batch_fn
        self._time_fn = time_fn
        self._inflight: Dict[_Key, _Pending] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closing = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._batcher is not None and not self._batcher.done() \
            and not self._closing

    async def start(self) -> "EvaluationService":
        if self._batcher is not None and not self._batcher.done():
            raise ServiceClosedError("service is already running")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")
        self._closing = False
        self._batcher = self._loop.create_task(
            self._batch_loop(), name="repro-serve-batcher")
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Refuse new requests; finish (``drain=True``) or fail
        (``drain=False``) everything already admitted."""
        if self._batcher is None:
            return
        self._closing = True
        if drain:
            await self._queue.put(_STOP)
            try:
                await asyncio.wait_for(self._batcher,
                                       timeout=self.config.drain_timeout_s)
            except asyncio.TimeoutError:
                self._batcher.cancel()
        else:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            # Fail everything still pending (queued or mid-flush) so no
            # waiter hangs on a future nothing will ever complete.
            while not self._queue.empty():
                self._queue.get_nowait()
            for entry in list(self._inflight.values()):
                self._fail(entry, ServiceClosedError("service stopped"))
        self._batcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "EvaluationService":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop(drain=True)

    # -- request path ---------------------------------------------------------

    async def submit(self, design: AuTDesign,
                     workload: Union[str, Network],
                     scenario: Any = None, *,
                     environments: Optional[
                         Sequence[LightEnvironment]] = None,
                     fidelity: str = "analytical",
                     checkpoint: Optional[CheckpointModel] = None,
                     deadline_s: Optional[float] = None
                     ) -> EvaluationReport:
        """Evaluate one design through the service.

        Same request surface as :func:`repro.api.evaluate` (workload by
        zoo name or :class:`Network`, scenario *or* explicit
        environments) plus a per-request ``deadline_s``.  Raises
        :class:`ServiceClosedError` when the service is not accepting,
        :class:`ServiceOverloadError` when the admission queue is full,
        and :class:`EvaluationTimeout` when the deadline expires before
        a result is ready.
        """
        if not self.running:
            raise ServiceClosedError(
                "service is not running (use 'async with service:' or "
                "await service.start())")
        if fidelity not in FIDELITIES:
            raise ConfigurationError(
                f"unknown fidelity {fidelity!r}; expected one of "
                f"{FIDELITIES}")
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        else:
            _check_seconds("deadline_s", deadline_s)
        network = _resolve_workload(workload)
        envs = _resolve_environments(scenario, environments)
        key = _Key((design, network, envs, fidelity, checkpoint),
                   design, network.name, fidelity)

        started = self._loop.time()
        entry = self._inflight.get(key)
        if entry is not None and not entry.future.done():
            self.stats.requests += 1
            self.stats.coalesced += 1
        else:
            deadline = None if deadline_s is None \
                else self._time_fn() + deadline_s
            entry = _Pending(
                key=key, design=design, network=network,
                environments=envs, checkpoint=checkpoint, fidelity=fidelity,
                future=self._loop.create_future(), deadline=deadline,
                enqueued_at=started)
            try:
                self._queue.put_nowait(entry)
            except asyncio.QueueFull:
                self.stats.shed += 1
                raise ServiceOverloadError(
                    f"admission queue full ({self.config.max_queue} "
                    f"requests); back off and retry") from None
            self.stats.requests += 1
            self._inflight[key] = entry
            entry.future.add_done_callback(partial(self._forget, key))
        return await self._await_result(entry, deadline_s, started)

    async def _await_result(self, entry: _Pending,
                            deadline_s: Optional[float],
                            started: float) -> EvaluationReport:
        # Shielded so one waiter's deadline cannot cancel the shared
        # (possibly coalesced) evaluation out from under other waiters.
        try:
            if deadline_s is None:
                report = await asyncio.shield(entry.future)
            else:
                report = await asyncio.wait_for(
                    asyncio.shield(entry.future), timeout=deadline_s)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            raise EvaluationTimeout(
                f"{entry.fidelity} {entry.network.name!r} request missed "
                f"its {deadline_s:g} s deadline") from None
        except EvaluationTimeout:
            # Expired in the queue (flush-side); counted per waiter here
            # so coalesced requests each show up in the SLO accounting.
            self.stats.timeouts += 1
            raise
        self.stats.latency_seconds.observe(self._loop.time() - started)
        return report

    def _forget(self, key: _Key, future: "asyncio.Future") -> None:
        self._inflight.pop(key, None)
        if not future.cancelled():
            future.exception()  # mark retrieved; waiters may have gone

    def _fail(self, entry: _Pending, error: ChrysalisError) -> None:
        if not entry.future.done():
            entry.future.set_exception(error)

    # -- batcher --------------------------------------------------------------

    async def _batch_loop(self) -> None:
        while True:
            entry = await self._queue.get()
            if entry is _STOP:
                break
            batch = [entry]
            stop = False
            while len(batch) < self.config.max_batch_size:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break  # work-conserving: price what we have now
                if nxt is _STOP:
                    stop = True
                    break
                batch.append(nxt)
            await self._flush(batch)
            if stop:
                break

    async def _flush(self, batch: List[_Pending]) -> None:
        now = self._time_fn()
        loop_now = self._loop.time()
        live: List[_Pending] = []
        for entry in batch:
            self.stats.queue_wait_seconds.observe(
                loop_now - entry.enqueued_at)
            if entry.future.done():
                continue  # waiter-side deadline already fired
            if entry.deadline is not None and now >= entry.deadline:
                self._fail(entry, EvaluationTimeout(
                    f"{entry.fidelity} {entry.network.name!r} request "
                    f"expired in queue before evaluation started"))
                continue
            live.append(entry)
        if not live:
            return
        self.stats.batches += 1
        self.stats.batch_occupancy.observe(float(len(live)))

        groups: Dict[_Key, List[_Pending]] = {}
        singles: List[_Pending] = []
        for entry in live:
            if entry.fidelity == "analytical":
                group = _Key((entry.network, entry.environments,
                              entry.checkpoint), entry.network.name)
                groups.setdefault(group, []).append(entry)
            else:
                singles.append(entry)

        for members in groups.values():
            first = members[0]
            try:
                reports = await self._loop.run_in_executor(
                    self._executor, partial(
                        self._evaluate_batch_fn,
                        [m.design for m in members], first.network,
                        first.environments, first.checkpoint))
            except ChrysalisError as exc:
                self.stats.failures += len(members)
                for member in members:
                    self._fail(member, exc)
                continue
            self.stats.evaluated += len(members)
            for member, report in zip(members, reports):
                if not member.future.done():
                    member.future.set_result(report)
        for entry in singles:
            try:
                report = await self._loop.run_in_executor(
                    self._executor, partial(
                        self._evaluate_fn, entry.design, entry.network,
                        entry.environments, entry.checkpoint,
                        entry.fidelity))
            except ChrysalisError as exc:
                self.stats.failures += 1
                self._fail(entry, exc)
                continue
            self.stats.evaluated += 1
            if not entry.future.done():
                entry.future.set_result(report)


__all__ = ["EvaluationService", "ServeConfig", "ServeStats"]
