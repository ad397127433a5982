"""Always-on evaluation service (coalescing + micro-batching).

``repro.serve`` turns independent single-request evaluation traffic
into batched work on the vectorized analytical core:

* :class:`EvaluationService` — the asyncio core: coalescing of
  in-flight requests equal by value, bounded-latency micro-batching
  onto :func:`repro.api.evaluate_batch`, admission control,
  per-request deadlines, graceful drain.
* :class:`ServeConfig` / :class:`ServeStats` — SLO knobs and
  service-lifetime accounting (throughput, p50/p99 latency, coalesce
  rate, batch occupancy).
* :class:`ServeServer` / :class:`ServeClient` — a newline-delimited
  JSON TCP transport over one shared service.

Front door: :func:`repro.api.serve` (builds a configured service).
Architecture notes live in ``docs/SERVING.md``.
"""

from repro.serve.net import RemoteReport, ServeClient, ServeServer
from repro.serve.service import EvaluationService, ServeConfig, ServeStats

__all__ = [
    "EvaluationService",
    "RemoteReport",
    "ServeClient",
    "ServeConfig",
    "ServeServer",
    "ServeStats",
]
