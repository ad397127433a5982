"""Run-scoped span trees: nestable, timed, exception-tagging.

A *span* is one timed region of a run — ``with span("ga.generation",
gen=i): ...`` — and spans opened while another is active nest under it,
so a whole campaign run yields a tree like::

    campaign.run
      search.run
        ga.generation
          search.genome
            mapper.optimize
            eval.average
        search.final_pricing
          eval.average

The :class:`SpanRecorder` owns one such forest per run scope.  It is
deliberately *not* thread-safe: CHRYSALIS parallelism is process-based
(campaign fleet workers each record their own runs).  A closing run
scope grafts its forest under the enclosing scope's currently-open span
(:meth:`SpanRecorder.merge`).

Memory is bounded: after ``max_spans`` materialised spans the recorder
stops allocating nodes and only counts what it dropped
(:attr:`SpanRecorder.dropped`), so a pathologically chatty run degrades
to counters instead of exhausting memory.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional


class SpanNode:
    """One finished (or in-flight) span of the tree."""

    __slots__ = ("name", "tags", "start", "duration", "error", "children")

    def __init__(self, name: str, tags: Optional[Dict[str, Any]] = None,
                 start: float = 0.0, duration: float = 0.0,
                 error: Optional[str] = None,
                 children: Optional[List["SpanNode"]] = None) -> None:
        self.name = name
        self.tags = tags or {}
        self.start = start
        self.duration = duration
        #: Exception type name when the span body raised, else ``None``.
        self.error = error
        self.children: List[SpanNode] = children if children is not None else []

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        node: Dict[str, Any] = {"name": self.name, "duration": self.duration}
        if self.tags:
            node["tags"] = dict(self.tags)
        if self.error is not None:
            node["error"] = self.error
        if self.children:
            node["children"] = [child.as_dict() for child in self.children]
        return node

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanNode":
        return cls(
            name=data["name"],
            tags=dict(data.get("tags", {})),
            duration=data.get("duration", 0.0),
            error=data.get("error"),
            children=[cls.from_dict(child)
                      for child in data.get("children", ())],
        )

    # -- aggregate views -----------------------------------------------------

    def self_time(self) -> float:
        """Duration not covered by child spans (floored at zero)."""
        return max(self.duration - sum(c.duration for c in self.children), 0.0)

    def walk(self):
        """Depth-first iteration over this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()


class SpanRecorder:
    """Collects one run scope's span forest."""

    #: Materialisation cap; spans beyond it are counted, not stored.
    DEFAULT_MAX_SPANS = 100_000

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.roots: List[SpanNode] = []
        self.count = 0
        self.dropped = 0
        self._stack: List[SpanNode] = []

    # -- recording -----------------------------------------------------------

    def start(self, name: str,
              tags: Optional[Dict[str, Any]] = None) -> Optional[SpanNode]:
        """Open a span; returns ``None`` when over the cap (still counted)."""
        self.count += 1
        if self.count > self.max_spans:
            self.dropped += 1
            return None
        node = SpanNode(name, tags, start=time.perf_counter())
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        return node

    def finish(self, node: Optional[SpanNode],
               error: Optional[str] = None) -> None:
        if node is None:
            return
        node.duration = time.perf_counter() - node.start
        node.error = error
        # Exception unwinding can pop ancestors out of order; truncate
        # back to this node's frame so the stack never corrupts.
        if node in self._stack:
            del self._stack[self._stack.index(node):]

    @property
    def current(self) -> Optional[SpanNode]:
        return self._stack[-1] if self._stack else None

    # -- merging -------------------------------------------------------------

    def merge(self, payload: Optional[Dict[str, Any]]) -> None:
        """Graft an :meth:`as_dict` forest under the open span."""
        if not payload:
            return
        nodes = [SpanNode.from_dict(data) for data in payload.get("roots", ())]
        parent = self.current
        if parent is not None:
            parent.children.extend(nodes)
        else:
            self.roots.extend(nodes)
        self.count += payload.get("count", sum(1 for node in nodes
                                               for _ in node.walk()))
        self.dropped += payload.get("dropped", 0)

    # -- snapshot ------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "dropped": self.dropped,
            "roots": [node.as_dict() for node in self.roots],
        }

    def reset(self) -> None:
        self.roots = []
        self.count = 0
        self.dropped = 0
        self._stack = []


class _NoopSpan:
    """The disabled-path span: a shared, allocation-free context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


#: The singleton every ``span(...)`` call returns while observability is
#: off — entering/exiting it allocates nothing.
NOOP_SPAN = _NoopSpan()


class LiveSpan:
    """Context manager recording one span into a recorder."""

    __slots__ = ("_recorder", "_name", "_tags", "_node")

    def __init__(self, recorder: SpanRecorder, name: str,
                 tags: Optional[Dict[str, Any]]) -> None:
        self._recorder = recorder
        self._name = name
        self._tags = tags
        self._node: Optional[SpanNode] = None

    def __enter__(self) -> "LiveSpan":
        self._node = self._recorder.start(self._name, self._tags)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder.finish(
            self._node,
            error=None if exc_type is None else exc_type.__name__,
        )
        return False  # never swallow the exception
