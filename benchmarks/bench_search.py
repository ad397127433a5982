#!/usr/bin/env python
"""Search-throughput benchmark: serial vs memoized vs batched.

Runs the same fixed-seed bi-level search four ways —

* ``serial_cold`` — one process, the serial search with the layer-cost
  cache and mapper memo on, both cleared before *each* repeat: the
  scalar baseline, under the same cache rule as ``batched`` and
  perfbench's search workloads;
* ``memoized``    — the same, cleared once per mode — the second
  repeat runs against a warm process-wide memo, so this mode measures
  *cross-run* amortization (its ``mapper_hit_rate`` must be > 0; it was
  pinned at 0.0 while the memo's lifetime was one explorer);
* ``batched``     — one process, vectorized generation evaluation
  (``GAConfig.batched``), caches cleared before each repeat so the
  reported speedup is cold-path against ``serial_cold``;
* ``batched_warm`` — vectorized evaluation against the warm
  process-wide caches (cleared once, like ``memoized``): the repeat
  runs must *hit* the mapper memo the batched sweeps of the previous
  repeat filled, pinning the batched/scalar memo sharing the serving
  layer's coalescer depends on (``mapper_hit_rate`` here must be > 0;
  the cold ``batched`` mode structurally reports 0.0) —

verifies that all four modes return the *identical* best design and
score, and writes the resulting throughput and cache-hit numbers to
``BENCH_search.json``.

Each mode is timed ``--repeats`` times and the fastest run is kept, so
the reported speedups are about the code, not scheduler noise.  The
script also fails unless ``batched`` and ``serial_cold`` record the same
``layer_cost_misses`` and ``layer_cost_hits``: both modes run the same
generation evaluator, so their mapper scans must price exactly the same
rungs and their pricing the same (design, environment) pairs, and extra
work shows up as a count, not as a timing.  CI runs ``--smoke
--min-batched-speedup 1`` (a ~1 s budget) and archives the JSON as an
artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_search.py --smoke
    PYTHONPATH=src python benchmarks/bench_search.py \
        --workload cifar10 --population 24 --generations 12
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional

from repro.dataflow.cost_model import clear_layer_cost_cache
from repro.explore.bilevel import BilevelExplorer, SearchResult
from repro.explore.ga import GAConfig
from repro.explore.mapper_search import clear_mapper_memo
from repro.explore.objectives import Objective
from repro.explore.space import DesignSpace
from repro.workloads import zoo


def _clear_caches() -> None:
    clear_layer_cost_cache()
    clear_mapper_memo()


def _run_search(workload: str, setup: str, config: GAConfig) -> SearchResult:
    space = (DesignSpace.existing_aut() if setup == "existing"
             else DesignSpace.future_aut())
    explorer = BilevelExplorer(
        network=zoo.workload_by_name(workload),
        space=space,
        objective=Objective.lat_sp(),
        ga_config=config,
    )
    return explorer.run()


def _bench_mode(workload: str, setup: str, config: GAConfig,
                repeats: int, clear_each_repeat: bool) -> SearchResult:
    """Fastest of ``repeats`` runs (results are deterministic).

    Every mode runs with the layer-cost cache and mapper memo on.
    ``clear_each_repeat=True`` makes every repeat cold (baseline and
    batched modes); ``False`` clears once, so later repeats measure the
    warm process-wide caches (memoized and batched_warm modes).
    """
    _clear_caches()
    best: Optional[SearchResult] = None
    for index in range(repeats):
        if clear_each_repeat and index > 0:
            _clear_caches()
        result = _run_search(workload, setup, config)
        if best is None or result.stats.search_seconds < \
                best.stats.search_seconds:
            best = result
    assert best is not None
    return best


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fixed budget for CI (~seconds)")
    parser.add_argument("--workload", default="har")
    parser.add_argument("--setup", choices=("existing", "future"),
                        default="existing")
    parser.add_argument("--population", type=int, default=24)
    parser.add_argument("--generations", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed runs per mode; fastest is reported")
    parser.add_argument("--min-batched-speedup", type=float, default=None,
                        metavar="X",
                        help="fail (exit 1) unless the batched mode is at "
                             "least X times faster than serial_cold")
    parser.add_argument("--output", default="BENCH_search.json")
    args = parser.parse_args(argv)

    if args.smoke:
        args.population, args.generations = 16, 10

    base = dict(population_size=args.population,
                generations=args.generations, seed=args.seed)
    serial_cfg = GAConfig(**base)
    batched_cfg = GAConfig(**base, batched=True)

    print(f"benchmarking {args.workload} ({args.setup} space), "
          f"population={args.population} generations={args.generations} "
          f"seed={args.seed}")

    modes = {}
    modes["serial_cold"] = _bench_mode(
        args.workload, args.setup, serial_cfg,
        repeats=args.repeats, clear_each_repeat=True)
    modes["memoized"] = _bench_mode(
        args.workload, args.setup, serial_cfg,
        repeats=args.repeats, clear_each_repeat=False)
    modes["batched"] = _bench_mode(
        args.workload, args.setup, batched_cfg,
        repeats=args.repeats, clear_each_repeat=True)
    modes["batched_warm"] = _bench_mode(
        args.workload, args.setup, batched_cfg,
        repeats=max(args.repeats, 2), clear_each_repeat=False)
    _clear_caches()

    reference = modes["serial_cold"]
    identical_best = all(
        result.score == reference.score and result.design == reference.design
        for result in modes.values()
    )

    cold_rate = reference.stats.evals_per_second

    def speedup(name: str) -> float:
        return (modes[name].stats.evals_per_second / cold_rate
                if cold_rate else 0.0)

    report = {
        "workload": args.workload,
        "setup": args.setup,
        "population": args.population,
        "generations": args.generations,
        "seed": args.seed,
        "repeats": args.repeats,
        "identical_best": identical_best,
        "best_score": reference.score,
        "modes": {name: result.stats.as_dict()
                  for name, result in modes.items()},
        "speedup_memoized": speedup("memoized"),
        "speedup_batched": speedup("batched"),
        "speedup_batched_warm": speedup("batched_warm"),
    }

    path = pathlib.Path(args.output)
    path.write_text(json.dumps(report, indent=2) + "\n")

    for name, result in modes.items():
        stats = result.stats
        print(f"  {name:<12} {stats.search_seconds:8.3f} s  "
              f"{stats.evals_per_second:8.1f} evals/s  "
              f"layer hits {stats.layer_cost_hit_rate:6.1%}  "
              f"mapper hits {stats.mapper_hit_rate:6.1%}")
    print(f"  speedup: memoized {report['speedup_memoized']:.2f}x, "
          f"batched {report['speedup_batched']:.2f}x "
          f"(warm {report['speedup_batched_warm']:.2f}x)")
    print(f"  identical best across modes: {identical_best}")
    print(f"report written to {path}")

    failed = False
    if not identical_best:
        print("ERROR: modes disagreed on the best design",
              file=sys.stderr)
        failed = True
    if modes["memoized"].stats.mapper_hit_rate <= 0.0:
        print("ERROR: memoized mode recorded no mapper-memo hits "
              "(the process-wide memo is dead again)", file=sys.stderr)
        failed = True
    if modes["batched_warm"].stats.mapper_hit_rate <= 0.0:
        print("ERROR: warm batched mode recorded no mapper-memo hits "
              "(the vectorized evaluator is bypassing the process-wide "
              "memo)", file=sys.stderr)
        failed = True
    serial, batched = modes["serial_cold"].stats, modes["batched"].stats
    if batched.layer_cost_misses != serial.layer_cost_misses:
        print(f"ERROR: batched mode priced {batched.layer_cost_misses} "
              f"layer-cost misses, serial_cold {serial.layer_cost_misses} "
              f"(the two mapper scans no longer price the same rungs)",
              file=sys.stderr)
        failed = True
    if batched.layer_cost_hits != serial.layer_cost_hits:
        print(f"ERROR: batched mode recorded {batched.layer_cost_hits} "
              f"layer-cost hits, serial_cold {serial.layer_cost_hits} "
              f"(the two modes no longer price the same designs in the "
              f"same environments)", file=sys.stderr)
        failed = True
    if (args.min_batched_speedup is not None
            and report["speedup_batched"] < args.min_batched_speedup):
        print(f"ERROR: batched speedup {report['speedup_batched']:.2f}x is "
              f"below the required {args.min_batched_speedup:g}x",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
