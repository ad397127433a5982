"""Bench-side tracing: timing wrappers around the program's layer entry
points, installed from outside so the program itself is unchanged.

A :class:`Tracer` resolves every target in :data:`LAYERS` once, then
:meth:`Tracer.install` swaps in wrappers and :meth:`Tracer.uninstall`
puts the originals back, so untraced operations run the program's own
code.  Each wrapper call records a span (layer, start, end, parent) on
a per-thread stack kept in memory.  A layer's self time is its span
durations minus the parts covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import pathlib
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _count_items(key: str, position: int) -> Callable[..., None]:
    def extra(acc: Dict[str, Any], args: tuple, result: Any,
              duration_ns: int) -> None:
        acc[key + ".calls"] = acc.get(key + ".calls", 0) + 1
        acc[key + ".items"] = acc.get(key + ".items", 0) + len(args[position])
    return extra


def _sim_cycles(acc: Dict[str, Any], args: tuple, result: Any,
                duration_ns: int) -> None:
    acc["sim.cycles_skipped"] = (acc.get("sim.cycles_skipped", 0)
                                 + result.fast_cycles_skipped)
    acc["sim.power_cycles"] = (acc.get("sim.power_cycles", 0)
                               + result.metrics.power_cycles)


def _batch_durations(acc: Dict[str, Any], args: tuple, result: Any,
                     duration_ns: int) -> None:
    acc.setdefault("api.evaluate_batch.ns", []).append(duration_ns)


#: Layer name (the program module it lives in) -> traced entry points as
#: ``(module, qualified name, extra)``.  ``extra(acc, args, result,
#: duration_ns)`` adds workload counters measured at the same boundary.
LAYERS: Dict[str, List[Tuple[str, str, Optional[Callable[..., None]]]]] = {
    "dataflow.cost_model": [
        ("repro.dataflow.cost_model", "DataflowCostModel.layer_cost", None),
        ("repro.dataflow.cost_model", "DataflowCostModel.layer_cost_batch",
         _count_items("layer_cost_batch", 2)),
    ],
    "explore.mapper_search": [
        ("repro.explore.mapper_search", "MappingOptimizer.optimize", None),
    ],
    "sim.analytical": [
        ("repro.sim.analytical", "AnalyticalModel.evaluate", None),
        ("repro.sim.analytical", "AnalyticalModel.plan", None),
        ("repro.sim.analytical", "BatchAnalyticalModel.evaluate_many", None),
        ("repro.sim.analytical", "BatchAnalyticalModel.evaluate_plans",
         _count_items("evaluate_plans", 1)),
    ],
    "explore.batch_eval": [
        ("repro.explore.batch_eval", "VectorizedGenomeEvaluator.evaluate_many",
         _count_items("evaluate_many", 1)),
    ],
    "explore.bilevel": [
        ("repro.explore.bilevel", "BilevelExplorer.evaluate_genome", None),
        ("repro.explore.bilevel", "BilevelExplorer.lower_genome", None),
    ],
    "sim.engine": [
        ("repro.sim.engine", "StepSimulator.run", _sim_cycles),
    ],
    "environments": [
        ("repro.environments", "environment_by_name", None),
    ],
    "campaign": [
        ("repro.campaign.store", "ResultStore.register", None),
        ("repro.campaign.store", "ResultStore.mark_running", None),
        ("repro.campaign.store", "ResultStore.record_success", None),
        ("repro.campaign.runner", "execute_search", None),
    ],
    "api": [
        ("repro.api", "evaluate", None),
        ("repro.api", "evaluate_batch", _batch_durations),
        ("repro.api", "evaluate_many", None),
    ],
}

#: Name of the bench's own root spans; their self time is the share of
#: a timed operation that no traced layer accounts for.
ROOT_LAYER = "bench"

#: Spans kept per thread for export; later spans are still aggregated.
SPAN_CAP = 100_000


def merge_totals(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several :meth:`Tracer.totals` results (lists concatenate)."""
    merged: Dict[str, Dict[str, Any]] = {"calls": {}, "self_s": {},
                                         "extras": {}}
    for part in parts:
        for group, target in merged.items():
            for key, value in part[group].items():
                if isinstance(value, list):
                    target.setdefault(key, []).extend(value)
                else:
                    target[key] = target.get(key, 0) + value
    return merged


class _ThreadState:
    __slots__ = ("thread", "stack", "calls", "self_ns", "extras", "spans",
                 "dropped")

    def __init__(self) -> None:
        self.thread = threading.current_thread().name
        #: Open spans as ``[span id, start ns, child ns]``.
        self.stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.extras: Dict[str, Any] = {}
        self.spans: List[Optional[tuple]] = []
        self.dropped = 0


class Tracer:
    """Per-layer span recorder over bench-installed wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self.missing: List[str] = []
        # Import every target module first, so the scan for by-name
        # imports of a function sees all of them.
        for targets in LAYERS.values():
            for module_name, _, _ in targets:
                try:
                    importlib.import_module(module_name)
                except ImportError:
                    pass  # reported as missing by _resolve
        for layer, targets in LAYERS.items():
            for module_name, qualname, extra in targets:
                self._resolve(layer, module_name, qualname, extra)

    # -- wrapper installation -------------------------------------------------

    def _resolve(self, layer: str, module_name: str, qualname: str,
                 extra: Optional[Callable[..., None]]) -> None:
        try:
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            # A renamed entry point must not break the benchmark; the
            # layer then reports fewer calls and the report says why.
            self.missing.append(f"{module_name}.{qualname}")
            return
        wrapper = self._wrap(layer, original, extra)
        if path:
            self._patches.append((owner, attr, original, wrapper))
            return
        # A module-level function is also called through every module
        # that imported it by name; patch each such reference.
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, state: _ThreadState) -> list:
        span_id = len(state.spans)
        if span_id < SPAN_CAP:
            state.spans.append(None)
        else:
            span_id = -1
            state.dropped += 1
        frame = [span_id, time.perf_counter_ns(), 0]
        state.stack.append(frame)
        return frame

    def _exit(self, state: _ThreadState, frame: list, layer: str) -> int:
        end = time.perf_counter_ns()
        stack = state.stack
        stack.pop()
        span_id, start, child_ns = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        state.calls[layer] = state.calls.get(layer, 0) + 1
        state.self_ns[layer] = (state.self_ns.get(layer, 0)
                                + duration - child_ns)
        if span_id >= 0:
            state.spans[span_id] = (layer, start, end,
                                    parent[0] if parent is not None else -1)
        return duration

    def _wrap(self, layer: str, function: Callable[..., Any],
              extra: Optional[Callable[..., None]]) -> Callable[..., Any]:
        enter, exit_, current = self._enter, self._exit, self._state

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = current()
            frame = enter(state)
            try:
                result = function(*args, **kwargs)
            finally:
                duration = exit_(state, frame, layer)
            if extra is not None:
                extra(state.extras, args, result, duration)
            return result

        return wrapper

    @contextmanager
    def root(self) -> Iterator[None]:
        """A bench-side root span around one timed operation."""
        state = self._state()
        frame = self._enter(state)
        try:
            yield
        finally:
            self._exit(state, frame, ROOT_LAYER)

    # -- results --------------------------------------------------------------

    def reset(self) -> None:
        """Start new totals; the kept spans stay for :meth:`export`."""
        with self._lock:
            for state in self._states:
                state.calls.clear()
                state.self_ns.clear()
                state.extras.clear()

    def totals(self) -> Dict[str, Any]:
        """Calls and self seconds per layer plus the merged counters."""
        with self._lock:
            totals = merge_totals([{
                "calls": dict(state.calls),
                "self_s": {layer: ns / 1e9
                           for layer, ns in state.self_ns.items()},
                "extras": dict(state.extras),
            } for state in self._states])
        totals["missing"] = list(self.missing)
        return totals

    def export(self, path: pathlib.Path) -> None:
        """Write every kept span, per thread, as one JSON file."""
        with self._lock:
            threads = {f"{index}:{state.thread}": {
                "spans": [span for span in state.spans if span is not None],
                "dropped": state.dropped,
            } for index, state in enumerate(self._states)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["layer", "start_ns", "end_ns", "parent"],
            "threads": threads,
        }, separators=(",", ":")))
