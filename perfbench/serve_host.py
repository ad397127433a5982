"""The program process of the ``serve`` workload.

Hosts an :class:`EvaluationService` behind a :class:`ServeServer` on an
ephemeral port with the default :class:`ServeConfig`, as ``repro serve
run`` does, after expanding the benchmark's seeded trace generator so
its labels resolve.  Prints ``LISTENING <port>``, then answers one JSON
command per stdin line on stdout:

* ``{"cmd": "trace", "on": true|false}`` installs or removes the
  bench-side timing wrappers;
* ``{"cmd": "snapshot"}`` returns what the service recorded since the
  previous snapshot (service stats, per-layer trace totals, cache
  counters, wall time, peak RSS) and starts a new interval;
* ``{"cmd": "export", "path": ...}`` writes the kept spans there.

End of input stops the server and drains the service.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import resource
import sys
import threading
import time
from typing import Any, Dict, List

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from _common import GENERATOR_COUNT, GENERATOR_NAME  # noqa: E402
from tracing import Tracer  # noqa: E402

from repro.dataflow.cost_model import layer_cost_cache_stats  # noqa: E402
from repro.environments import ScenarioGenerator  # noqa: E402
from repro.explore.mapper_search import mapper_memo_stats  # noqa: E402
from repro.serve import (EvaluationService, ServeConfig,  # noqa: E402
                         ServeServer)
from repro.serve.service import ServeStats  # noqa: E402


class Recorder:
    """Interval bookkeeping for the snapshot command."""

    def __init__(self, service: EvaluationService) -> None:
        self.service = service
        self.tracer = Tracer()
        #: Durations of ``EvaluationService.submit`` while tracing: the
        #: server-side latency of a request minus JSON (de)coding.
        self.submit_ns: List[int] = []
        self._submit = EvaluationService.submit
        self._start()

    def _start(self) -> None:
        self.started = time.perf_counter()
        self.cache0 = layer_cost_cache_stats()
        self.memo0 = mapper_memo_stats()

    def trace(self, on: bool) -> None:
        if not on:
            self.tracer.uninstall()
            EvaluationService.submit = self._submit
            return
        original, samples = self._submit, self.submit_ns

        async def timed_submit(service: EvaluationService, *args: Any,
                               **kwargs: Any) -> Any:
            start = time.perf_counter_ns()
            try:
                return await original(service, *args, **kwargs)
            finally:
                samples.append(time.perf_counter_ns() - start)

        self.tracer.install()
        EvaluationService.submit = timed_submit

    def snapshot(self) -> Dict[str, Any]:
        cache, memo = layer_cost_cache_stats(), mapper_memo_stats()
        data = {
            "wall_s": time.perf_counter() - self.started,
            "stats": self.service.stats.as_dict(),
            "submit_ms": [ns / 1e6 for ns in self.submit_ns],
            "trace": self.tracer.totals(),
            "cache": [cache[0] - self.cache0[0], cache[1] - self.cache0[1]],
            "memo": [memo[0] - self.memo0[0], memo[1] - self.memo0[1]],
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        self.service.stats = ServeStats()
        self.submit_ns.clear()
        self.tracer.reset()
        self._start()
        return data


async def serve() -> None:
    service = EvaluationService(ServeConfig())
    async with service, ServeServer(service, port=0) as server:
        recorder = Recorder(service)
        loop = asyncio.get_running_loop()
        commands: asyncio.Queue = asyncio.Queue()

        def read_stdin() -> None:
            for line in sys.stdin:
                loop.call_soon_threadsafe(commands.put_nowait, line)
            loop.call_soon_threadsafe(commands.put_nowait, None)

        threading.Thread(target=read_stdin, name="perfbench-control",
                         daemon=True).start()
        print(f"LISTENING {server.address[1]}", flush=True)
        while True:
            line = await commands.get()
            if line is None:
                break
            command = json.loads(line)
            if command["cmd"] == "trace":
                recorder.trace(bool(command["on"]))
                reply: Dict[str, Any] = {"ok": True}
            elif command["cmd"] == "snapshot":
                reply = recorder.snapshot()
            elif command["cmd"] == "export":
                recorder.tracer.export(pathlib.Path(command["path"]))
                reply = {"ok": True}
            else:
                reply = {"ok": False, "error": f"unknown {command['cmd']!r}"}
            print(json.dumps(reply), flush=True)
        recorder.trace(False)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--generator-seed", type=int, required=True)
    args = parser.parse_args()
    ScenarioGenerator(name=GENERATOR_NAME, seed=args.generator_seed,
                      count=GENERATOR_COUNT).expand()
    asyncio.run(serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
