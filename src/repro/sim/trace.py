"""Event trace of a step-based simulation run.

The simulator records power transitions, tile lifecycle and checkpoint
activity; examples and tests use the trace to assert ordering invariants
(a resume never precedes its save, tiles complete in order, ...).

The trace is a **bounded ring buffer**: only the most recent
:data:`Trace.DEFAULT_CAPACITY` events are retained as :class:`Event`
objects, while exact per-:class:`EventKind` running counters cover the
whole run — so day-scale simulations stop accumulating millions of
event objects, yet ``count()`` stays exact.  Pass ``capacity=None`` for
the old unbounded full-retention behaviour (trace analysis and plotting
want the complete stream).

The cycle-skipping fast path of the step simulator accounts for the
events of arithmetically replayed cycles through :meth:`Trace.record_bulk`
— counters advance, but no per-event objects are materialised.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional


class EventKind(Enum):
    POWER_ON = "power_on"
    POWER_OFF = "power_off"
    TILE_STARTED = "tile_started"
    TILE_COMPLETED = "tile_completed"
    CHECKPOINT_SAVED = "checkpoint_saved"
    CHECKPOINT_RESUMED = "checkpoint_resumed"
    CHECKPOINT_FAILED = "checkpoint_failed"  # NVM commit failed verify
    ROLLBACK = "rollback"  # corrupted commit; replay last checkpoint
    EXCEPTION = "exception"  # unplanned mid-tile power failure
    LAYER_COMPLETED = "layer_completed"
    INFERENCE_COMPLETED = "inference_completed"


@dataclass(frozen=True)
class Event:
    """One timestamped simulation event."""

    time: float
    kind: EventKind
    layer: str = ""
    tile: int = -1
    detail: str = ""

    def render(self) -> str:
        where = f" {self.layer}[{self.tile}]" if self.layer else ""
        suffix = f" ({self.detail})" if self.detail else ""
        return f"t={self.time:12.6f}s {self.kind.value}{where}{suffix}"


class Trace:
    """Event log with exact counters and bounded event retention.

    ``capacity`` bounds how many :class:`Event` objects are kept (oldest
    evicted first); ``None`` retains everything.  ``count`` / ``__len__``
    always reflect the *full* recorded history, including evicted events
    and bulk-recorded (fast-forwarded) ones.
    """

    #: Retained-event bound of a default-constructed trace.  Large enough
    #: that every short run keeps its complete stream; small enough that
    #: day-scale runs stay O(1) in memory.
    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._counts: Dict[EventKind, int] = {}
        self._total = 0

    def record(self, time: float, kind: EventKind, layer: str = "",
               tile: int = -1, detail: str = "") -> None:
        self._events.append(Event(time, kind, layer, tile, detail))
        self._counts[kind] = self._counts.get(kind, 0) + 1
        self._total += 1

    def record_bulk(self, kind: EventKind, count: int) -> None:
        """Account for ``count`` events without materialising them.

        Used by the simulator's cycle-skipping fast path: the per-kind
        counters (and the total) advance exactly as if the events of the
        replayed cycles had been recorded one by one, in O(1).
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        self._counts[kind] = self._counts.get(kind, 0) + count
        self._total += count

    # -- observers ---------------------------------------------------------------

    @property
    def events(self) -> List[Event]:
        """The retained (most recent) events, oldest first."""
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Recorded events not retained (evicted or bulk-accounted)."""
        return self._total - len(self._events)

    def counts(self) -> Dict[EventKind, int]:
        """Exact per-kind counts over the full history (a copy)."""
        return dict(self._counts)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        """Total events recorded, including evicted and bulk ones."""
        return self._total

    def count(self, kind: EventKind) -> int:
        """Exact count of ``kind`` over the full history."""
        return self._counts.get(kind, 0)

    def render(self, limit: int | None = None) -> str:
        events = self.events
        shown = events if limit is None else events[:limit]
        lines = [event.render() for event in shown]
        remaining = self._total - len(shown)
        if remaining > 0:
            lines.append(f"... {remaining} more events")
        return "\n".join(lines)
