#!/usr/bin/env python
"""Search-throughput benchmark: serial vs memoized vs batched.

Runs the same fixed-seed bi-level search four ways —

* ``serial_cold`` — one process, the serial search with the layer-cost
  cache and mapper memo on, both cleared before *each* repeat: the
  scalar baseline, under the same cache rule as ``batched`` and
  perfbench's search workloads;
* ``memoized``    — the same, cleared once per mode — every timed
  repeat runs against the process-wide memo an untimed first run
  filled, so this mode measures *cross-run* amortization (its
  ``mapper_hit_rate`` must be > 0; it was pinned at 0.0 while the
  memo's lifetime was one explorer);
* ``batched``     — one process, vectorized generation evaluation
  (``GAConfig.batched``), caches cleared before each repeat so the
  reported speedup is cold-path against ``serial_cold``;
* ``batched_warm`` — vectorized evaluation against the warm
  process-wide caches (cleared once, like ``memoized``): the timed
  runs must *hit* the mapper memo the batched sweeps of the untimed
  first run filled, pinning the batched/scalar memo sharing the serving
  layer's coalescer depends on (``mapper_hit_rate`` here must be > 0;
  the cold ``batched`` mode structurally reports 0.0) —

verifies that all four modes return the *identical* best design and
score, and writes the resulting throughput and cache-hit numbers to
``BENCH_search.json``.

Each mode is timed ``--repeats`` times.  The cold modes alternate, one
``serial_cold`` and one ``batched`` repeat at a time with their order
swapped on every pair, so a slow patch of the host lands on both; the
warm modes run one untimed search to fill the caches first.  Each mode
reports the median run's stats plus the median, interquartile range and
count of its ``search_seconds``, and every speedup is a ratio of
medians.  The script also fails unless ``batched`` and ``serial_cold``
record the same ``layer_cost_misses`` and ``layer_cost_hits``: both
modes run the same generation evaluator, so their mapper scans must
price exactly the same rungs and their pricing the same designs, and
extra work shows up as a count, not as a timing.  CI runs ``--smoke
--repeats 5 --min-batched-speedup 1`` (a few seconds) and archives the
JSON as an artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_search.py --smoke
    PYTHONPATH=src python benchmarks/bench_search.py \
        --workload cifar10 --population 24 --generations 12
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Optional

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


def _cold_modes(workload: str, setup: str, configs: Dict[str, GAConfig],
                repeats: int) -> Dict[str, List[SearchResult]]:
    """``repeats`` cold runs of each config, interleaved.

    Repeat ``r`` runs every config once, caches cleared before each
    run, in the given order when ``r`` is even and reversed when it is
    odd, so neither mode always runs first or always runs on the host's
    slower stretches.
    """
    runs: Dict[str, List[SearchResult]] = {name: [] for name in configs}
    order = list(configs)
    for index in range(repeats):
        for name in (order if index % 2 == 0 else order[::-1]):
            _clear_caches()
            runs[name].append(_run_search(workload, setup, configs[name]))
    return runs


def _warm_mode(workload: str, setup: str, config: GAConfig,
               repeats: int) -> List[SearchResult]:
    """``repeats`` runs against the process-wide caches an untimed first
    run filled (caches cleared once, before that run)."""
    _clear_caches()
    _run_search(workload, setup, config)
    return [_run_search(workload, setup, config) for _ in range(repeats)]


def _spread(runs: List[SearchResult]) -> Dict[str, float]:
    """Median, interquartile range and count of the runs' wall clocks
    (quartiles as ``statistics.quantiles(values, n=4)``)."""
    seconds = [run.stats.search_seconds for run in runs]
    q1 = q3 = seconds[0]
    if len(seconds) > 1:
        q1, _, q3 = statistics.quantiles(seconds, n=4)
    return {"repeats": len(seconds),
            "search_seconds_median": statistics.median(seconds),
            "search_seconds_iqr": q3 - q1}


def _median_run(runs: List[SearchResult]) -> SearchResult:
    """The run at the (lower) median rank of ``search_seconds``."""
    ranked = sorted(runs, key=lambda run: run.stats.search_seconds)
    return ranked[(len(ranked) - 1) // 2]


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
                        help="timed runs per mode; medians are reported")
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

    runs = _cold_modes(args.workload, args.setup,
                       {"serial_cold": serial_cfg, "batched": batched_cfg},
                       repeats=args.repeats)
    runs["memoized"] = _warm_mode(args.workload, args.setup, serial_cfg,
                                  repeats=args.repeats)
    runs["batched_warm"] = _warm_mode(args.workload, args.setup,
                                      batched_cfg, repeats=args.repeats)
    _clear_caches()
    order = ("serial_cold", "memoized", "batched", "batched_warm")
    modes = {name: _median_run(runs[name]) for name in order}
    spreads = {name: _spread(runs[name]) for name in order}

    reference = modes["serial_cold"]
    identical_best = all(
        run.score == reference.score and run.design == reference.design
        for mode_runs in runs.values() for run in mode_runs
    )

    def median_rate(name: str) -> float:
        seconds = spreads[name]["search_seconds_median"]
        return (modes[name].stats.hw_evaluations / seconds
                if seconds else 0.0)

    cold_rate = median_rate("serial_cold")

    def speedup(name: str) -> float:
        return median_rate(name) / cold_rate if cold_rate else 0.0

    report = {
        "workload": args.workload,
        "setup": args.setup,
        "population": args.population,
        "generations": args.generations,
        "seed": args.seed,
        "repeats": args.repeats,
        "identical_best": identical_best,
        "best_score": reference.score,
        "modes": {name: {**result.stats.as_dict(), **spreads[name]}
                  for name, result in modes.items()},
        "speedup_memoized": speedup("memoized"),
        "speedup_batched": speedup("batched"),
        "speedup_batched_warm": speedup("batched_warm"),
    }

    path = pathlib.Path(args.output)
    path.write_text(json.dumps(report, indent=2) + "\n")

    for name, result in modes.items():
        stats, spread = result.stats, spreads[name]
        print(f"  {name:<12} {spread['search_seconds_median']:8.3f} s "
              f"(IQR {spread['search_seconds_iqr']:.3f} s, "
              f"n={spread['repeats']})  "
              f"{median_rate(name):8.1f} evals/s  "
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
        print(f"ERROR: batched speedup {report['speedup_batched']:.2f}x "
              f"(ratio of medians over {args.repeats} alternating "
              f"repeats) is below the required "
              f"{args.min_batched_speedup:g}x", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
