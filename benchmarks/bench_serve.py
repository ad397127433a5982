#!/usr/bin/env python
"""Serving-throughput benchmark: per-request evaluate vs the service.

Models the always-on deployment the serving layer exists for: many
independent clients, each asking for one ``(design, workload)``
evaluation, with the realistic duplication of popular designs (the
request stream cycles through a pool of ``--designs`` distinct designs,
so at high concurrency identical requests overlap in flight).

Two arms price the *same* request stream at each concurrency level —

* ``baseline`` — one :func:`repro.api.evaluate` call per request on a
  single evaluation thread: what callers get without the service;
* ``serve``    — the same single evaluation thread behind
  :class:`repro.serve.EvaluationService`, which coalesces identical
  in-flight requests and micro-batches the rest through the vectorized
  analytical sweep —

so the measured speedup isolates the serving architecture (coalescing +
batching), not thread counts.  Both arms run with the process-wide
layer-cost cache *disabled*: with it on, the baseline silently memoizes
the repeated designs and the benchmark would compare caching against
caching instead of measuring what the service adds for requests the
cache doesn't already hold.  The accelerator registry follows the
cache, so the baseline builds an accelerator per request, as a cold
process would.  (Serving never reads the mapper memo.)  A
fidelity check pins the service's responses bit-identical to direct
evaluation.

Each arm runs ``REPEATS`` times per level.  The arms alternate, one
baseline and one serve repeat at a time with their order swapped on
every pair, so a slow patch of the host lands on both.  One 64-way
serve repeat takes ~10-16 ms on a 2-vCPU VM, so a single run would let
one slow repeat decide the gate: each arm records the median, interquartile
range and count of its ``wall_seconds`` next to the median repeat's
throughput, p50/p99 latency (and, for serve, coalesce rate and batch
occupancy), and every speedup is a ratio of medians.  Results go to
``BENCH_serve.json``.

CI runs ``--smoke --min-speedup 5`` and archives the JSON: the service
must be at least 5x faster than per-request evaluation at the highest
concurrency level (64-way).

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py --smoke
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --workload har --requests 256 --designs 32
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

from repro.api import evaluate
from repro.dataflow.cost_model import (clear_layer_cost_cache,
                                       configure_layer_cost_cache)
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.explore.mapper_search import MappingOptimizer
from repro.serve import EvaluationService, ServeConfig
from repro.workloads import zoo


#: Timed repeats of each arm per concurrency level.
REPEATS = 15


def _cold_caches() -> None:
    """Disable and clear the layer-cost cache (both arms, every repeat):
    the bench measures the serving architecture, not cache warmth
    either arm happens to inherit."""
    configure_layer_cost_cache(enabled=False)
    clear_layer_cost_cache()


def _restore_caches() -> None:
    configure_layer_cost_cache(enabled=True)
    clear_layer_cost_cache()


def build_design_pool(workload: str, count: int) -> List[AuTDesign]:
    """``count`` distinct valid designs (panel/capacitance sweep)."""
    network = zoo.workload_by_name(workload)
    inference = InferenceDesign.msp430()
    designs: List[AuTDesign] = []
    index = 0
    while len(designs) < count:
        fraction = (index % (2 * count)) / (2 * count)
        energy = EnergyDesign(
            panel_area_cm2=6.0 + 8.0 * fraction,
            capacitance_f=(100.0 + 10.0 * (index // (2 * count))) * 1e-6)
        mappings = MappingOptimizer(network).optimize(energy,
                                                      inference)
        if mappings is not None:
            designs.append(AuTDesign(energy=energy, inference=inference,
                                     mappings=mappings))
        index += 1
        if index > 20 * count:
            raise SystemExit("could not build the bench design pool")
    return designs


def bench_baseline(designs: List[AuTDesign], workload: str,
                   requests: int, concurrency: int) -> dict:
    """Per-request evaluate() on one eval thread at this concurrency."""
    _cold_caches()
    latencies: List[float] = []

    async def main() -> float:
        loop = asyncio.get_running_loop()
        gate = asyncio.Semaphore(concurrency)
        with ThreadPoolExecutor(max_workers=1) as executor:

            async def one(i: int) -> None:
                design = designs[i % len(designs)]
                async with gate:
                    begin = time.perf_counter()
                    await loop.run_in_executor(
                        executor, lambda: evaluate(design, workload,
                                                   fidelity="analytical"))
                    latencies.append(time.perf_counter() - begin)

            begin = time.perf_counter()
            await asyncio.gather(*[one(i) for i in range(requests)])
            return time.perf_counter() - begin

    wall = asyncio.run(main())
    return _arm_result(wall, requests, latencies)


def bench_serve(designs: List[AuTDesign], workload: str,
                requests: int, concurrency: int) -> dict:
    """The same request stream through the evaluation service."""
    _cold_caches()
    latencies: List[float] = []
    service = EvaluationService(ServeConfig(max_batch_size=64))

    async def main() -> float:
        gate = asyncio.Semaphore(concurrency)
        async with service:

            async def one(i: int) -> None:
                async with gate:
                    begin = time.perf_counter()
                    await service.submit(designs[i % len(designs)],
                                         workload)
                    latencies.append(time.perf_counter() - begin)

            begin = time.perf_counter()
            await asyncio.gather(*[one(i) for i in range(requests)])
            return time.perf_counter() - begin

    wall = asyncio.run(main())
    stats = service.stats
    occupancy = stats.batch_occupancy
    result = _arm_result(wall, requests, latencies)
    result.update({
        "evaluated": stats.evaluated,
        "coalesced": stats.coalesced,
        "coalesce_rate": stats.coalesce_rate,
        "batches": stats.batches,
        "mean_batch_occupancy": (occupancy.sum / occupancy.count
                                 if occupancy.count else 0.0),
    })
    return result


def _arm_result(wall: float, requests: int,
                latencies: List[float]) -> dict:
    latencies = sorted(latencies)

    def pct(q: float) -> float:
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return {
        "wall_seconds": wall,
        "requests_per_second": requests / wall if wall else 0.0,
        "p50_seconds": pct(0.50),
        "p99_seconds": pct(0.99),
    }


def _alternate(arms: Dict[str, Callable[[], dict]],
               repeats: int) -> Dict[str, List[dict]]:
    """``repeats`` runs of each arm, interleaved.

    Repeat ``r`` runs every arm once, in the given order when ``r`` is
    even and reversed when it is odd, so neither arm always runs first
    or always runs on the host's slower stretches.
    """
    runs: Dict[str, List[dict]] = {name: [] for name in arms}
    order = list(arms)
    for index in range(repeats):
        for name in (order if index % 2 == 0 else order[::-1]):
            runs[name].append(arms[name]())
    return runs


def _summarize(runs: List[dict]) -> dict:
    """The median run's result plus the median, interquartile range and
    count of every run's ``wall_seconds`` (quartiles as
    ``statistics.quantiles(values, n=4)``)."""
    seconds = [run["wall_seconds"] for run in runs]
    q1 = q3 = seconds[0]
    if len(seconds) > 1:
        q1, _, q3 = statistics.quantiles(seconds, n=4)
    ranked = sorted(runs, key=lambda run: run["wall_seconds"])
    return {**ranked[(len(ranked) - 1) // 2],
            "repeats": len(seconds),
            "wall_seconds_median": statistics.median(seconds),
            "wall_seconds_iqr": q3 - q1}


def check_identity(designs: List[AuTDesign], workload: str) -> bool:
    """Service responses must be bit-identical to direct evaluation."""
    _cold_caches()
    service = EvaluationService()

    async def main():
        async with service:
            return await asyncio.gather(*[
                service.submit(design, workload) for design in designs])

    served = asyncio.run(main())
    _cold_caches()
    return all(
        report.metrics == evaluate(design, workload,
                                   fidelity="analytical").metrics
        for design, report in zip(designs, served))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fixed budget for CI (~seconds)")
    parser.add_argument("--workload", default="har")
    parser.add_argument("--requests", type=int, default=256,
                        help="requests per arm per concurrency level")
    parser.add_argument("--designs", type=int, default=32,
                        help="distinct designs in the request stream")
    parser.add_argument("--concurrency", type=int, nargs="+",
                        default=[1, 8, 64],
                        help="offered-load sweep (in-flight caps)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="fail (exit 1) unless serve is at least X "
                             "times faster than baseline at the highest "
                             "concurrency level")
    parser.add_argument("--output", default="BENCH_serve.json")
    args = parser.parse_args(argv)

    if args.smoke:
        # Hot serving mix: 16-way duplication so the 64-way level keeps
        # every wave full of coalescable twins (the service's case).
        args.requests, args.designs = 128, 8

    print(f"benchmarking {args.workload}: {args.requests} requests over "
          f"{args.designs} distinct designs, "
          f"concurrency sweep {args.concurrency}, {REPEATS} alternating "
          "repeats per arm")

    designs = build_design_pool(args.workload, args.designs)
    identical = check_identity(designs[: min(8, len(designs))],
                               args.workload)

    levels = {}
    for concurrency in sorted(args.concurrency):
        runs = _alternate({
            "baseline": lambda: bench_baseline(
                designs, args.workload, args.requests, concurrency),
            "serve": lambda: bench_serve(
                designs, args.workload, args.requests, concurrency),
        }, REPEATS)
        baseline = _summarize(runs["baseline"])
        served = _summarize(runs["serve"])
        speedup = (baseline["wall_seconds_median"]
                   / served["wall_seconds_median"]
                   if served["wall_seconds_median"] else 0.0)
        levels[str(concurrency)] = {
            "baseline": baseline,
            "serve": served,
            "speedup": speedup,
        }
        print(f"  c={concurrency:<4} baseline "
              f"{baseline['wall_seconds_median'] * 1e3:7.1f} ms "
              f"(IQR {baseline['wall_seconds_iqr'] * 1e3:.1f}) | serve "
              f"{served['wall_seconds_median'] * 1e3:7.1f} ms "
              f"(IQR {served['wall_seconds_iqr'] * 1e3:.1f}) "
              f"({speedup:5.2f}x, coalesce "
              f"{served['coalesce_rate']:6.1%}, occupancy "
              f"{served['mean_batch_occupancy']:5.1f}, p50 "
              f"{served['p50_seconds'] * 1e3:6.1f} ms, p99 "
              f"{served['p99_seconds'] * 1e3:6.1f} ms)")
    _restore_caches()

    top = str(max(args.concurrency))
    report = {
        "workload": args.workload,
        "requests": args.requests,
        "distinct_designs": args.designs,
        "repeats": REPEATS,
        "identical_responses": identical,
        "levels": levels,
        "speedup_at_max_concurrency": levels[top]["speedup"],
    }
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  identical service responses: {identical}")
    print(f"report written to {path}")

    failed = False
    if not identical:
        print("ERROR: service responses diverged from direct "
              "evaluate()", file=sys.stderr)
        failed = True
    if levels[top]["serve"]["coalesce_rate"] <= 0.0:
        print("ERROR: no coalescing at the highest concurrency "
              "(duplicate in-flight requests were re-evaluated)",
              file=sys.stderr)
        failed = True
    if (args.min_speedup is not None
            and report["speedup_at_max_concurrency"] < args.min_speedup):
        print(f"ERROR: serve speedup "
              f"{report['speedup_at_max_concurrency']:.2f}x at "
              f"concurrency {top} (ratio of medians over {REPEATS} "
              f"alternating repeats) is below the required "
              f"{args.min_speedup:g}x", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
