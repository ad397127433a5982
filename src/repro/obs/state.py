"""The process-wide observability switchboard.

Every instrumented module resolves the singleton once::

    from repro.obs.state import OBS, span

    if OBS.enabled:                      # branch only — never allocates
        OBS.registry.counter("x").inc()

    with span("ga.generation", gen=i):   # no-op singleton when disabled
        ...

Observability is **disabled by default**; the disabled fast path is a
single attribute test on a slotted object (hot loops guard with
``if OBS.enabled:`` and allocate nothing), and ``span()`` returns the
shared :data:`~repro.obs.spans.NOOP_SPAN` singleton.  ``enable()``
turns on metrics + spans, and — unless ``profile=False`` — the
fine-grained per-phase profiling hooks (controller-step timing, the
cost model's cache hit/miss latency split, mapper inner-search timing).

Run scoping
-----------

:func:`run_scope` isolates one run (for example a campaign run) into a
fresh registry + recorder, yields a handle whose
:meth:`RunScope.snapshot` is the run's self-contained observability
blob, and on exit folds the child data back into the enclosing scope
(via :func:`merge_snapshot`) so outer aggregates keep seeing everything.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import NOOP_SPAN, LiveSpan, SpanRecorder

SNAPSHOT_VERSION = 1


class Observability:
    """Process-wide state: master switch, registry, span recorder."""

    __slots__ = ("enabled", "profile", "registry", "recorder")

    def __init__(self) -> None:
        self.enabled = False
        self.profile = False
        self.registry = MetricsRegistry()
        self.recorder = SpanRecorder()


#: The one instance instrumented modules read.
OBS = Observability()


def enable(profile: bool = True) -> None:
    """Turn observability on (metrics + spans [+ profiling hooks])."""
    OBS.enabled = True
    OBS.profile = profile


def disable() -> None:
    """Back to the no-op fast path (recorded data is kept, not cleared)."""
    OBS.enabled = False
    OBS.profile = False


def is_enabled() -> bool:
    return OBS.enabled


def reset() -> None:
    """Drop all recorded metrics and spans (state switch unchanged)."""
    OBS.registry.reset()
    OBS.recorder.reset()


def span(name: str, **tags: Any):
    """Open a timed span; the shared no-op singleton when disabled."""
    if not OBS.enabled:
        return NOOP_SPAN
    return LiveSpan(OBS.recorder, name, tags or None)


def snapshot() -> Dict[str, Any]:
    """Self-contained JSON-ready dump of the current scope."""
    return {
        "version": SNAPSHOT_VERSION,
        "profile": OBS.profile,
        "metrics": OBS.registry.as_dict(),
        "spans": OBS.recorder.as_dict(),
    }


def merge_snapshot(payload: Optional[Dict[str, Any]]) -> None:
    """Fold a child scope's snapshot into the current scope.

    Spans graft under the currently-open span; metrics aggregate.
    """
    if not payload:
        return
    OBS.registry.merge(payload.get("metrics"))
    OBS.recorder.merge(payload.get("spans"))


class RunScope:
    """Handle of one :func:`run_scope` — snapshot source for persistence."""

    __slots__ = ("data",)

    def __init__(self) -> None:
        #: Filled at scope exit; ``snapshot()`` works both mid-scope and
        #: after exit.
        self.data: Optional[Dict[str, Any]] = None

    def snapshot(self) -> Dict[str, Any]:
        return self.data if self.data is not None else snapshot()


@contextlib.contextmanager
def run_scope(name: Optional[str] = None, **tags: Any) -> Iterator[RunScope]:
    """Isolate one run into fresh metrics/span storage.

    No-op (yielding a scope whose snapshot is ``None``) while
    observability is disabled.  On exit the child registry merges into
    the parent registry and the child span forest grafts under the
    parent's open span, so enclosing scopes lose nothing.
    """
    handle = RunScope()
    if not OBS.enabled:
        yield handle
        return
    outer_registry, outer_recorder = OBS.registry, OBS.recorder
    OBS.registry = MetricsRegistry()
    OBS.recorder = SpanRecorder()
    root = span(name, **tags) if name is not None else None
    try:
        if root is not None:
            with root:
                yield handle
        else:
            yield handle
    finally:
        handle.data = snapshot()
        OBS.registry, OBS.recorder = outer_registry, outer_recorder
        merge_snapshot(handle.data)
