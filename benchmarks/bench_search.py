#!/usr/bin/env python
"""Search-throughput benchmark: serial vs memoized vs batched vs surrogate.

Runs the same fixed-seed bi-level search five ways —

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
  the cold ``batched`` mode structurally reports 0.0);
* ``surrogate``    — the surrogate-guided explorer
  (``explore/guided.py``): a learned model triages each generation and
  only the top slice is oracle-priced —

verifies that the exact modes return the *identical* best design and
score, and writes the resulting throughput and cache-hit numbers to
``BENCH_search.json``.

The surrogate mode is deliberately *not* part of the exact
``identical_best`` set: pruning changes the GA trajectory after the
warmup generations (that is the entire point), so bit-identity is
structurally impossible whenever the serial winner first appears in a
post-warmup generation.  It is gated on two honest properties instead
(``--gate-surrogate``, enforced in CI): the guided best score must be
*no worse* than ``serial_cold``'s, and ``hw_evaluations`` must be at
most ``--max-surrogate-eval-ratio`` (default 0.5) of the serial
count.  Both are recorded in the JSON (``surrogate_no_regression``,
``surrogate_eval_ratio``) next to ``surrogate_identical_best`` for
the runs where identity does happen to hold.

Each mode is timed ``--repeats`` times and the fastest run is kept, so
the reported speedups are about the code, not scheduler noise.  The
script also fails unless ``batched`` and ``serial_cold`` record the same
``layer_cost_misses``: both scans must price exactly the same rungs, so
a batched mapper that prices more than it reaches shows up as a count,
not as a timing.  CI runs ``--smoke --min-batched-speedup 1`` (a ~1 s
budget) and archives the JSON as an artifact.

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


def _run_surrogate_search(workload: str, setup: str,
                          config: GAConfig) -> SearchResult:
    from repro.explore.guided import SurrogateConfig, SurrogateGuidedExplorer

    space = (DesignSpace.existing_aut() if setup == "existing"
             else DesignSpace.future_aut())
    explorer = SurrogateGuidedExplorer(
        network=zoo.workload_by_name(workload),
        space=space,
        objective=Objective.lat_sp(),
        ga_config=config,
        # Tuned on the smoke config: pure exploitation (no uncertainty
        # bonus), aggressive pruning with a small floor, refit every
        # generation — lands at ~0.4x the serial evaluation count while
        # matching or beating the serial best score.
        surrogate=SurrogateConfig(keep_fraction=0.2, warmup_generations=1,
                                  explore_weight=0.0, min_keep=2,
                                  refit_every=1),
    )
    return explorer.run()


def _bench_mode(workload: str, setup: str, config: GAConfig,
                repeats: int, clear_each_repeat: bool,
                runner=_run_search) -> SearchResult:
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
        result = runner(workload, setup, config)
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
    parser.add_argument("--gate-surrogate", action="store_true",
                        help="fail (exit 1) unless the surrogate mode "
                             "scores no worse than serial_cold within the "
                             "evaluation budget")
    parser.add_argument("--max-surrogate-eval-ratio", type=float,
                        default=0.5, metavar="R",
                        help="surrogate-mode hw_evaluations budget as a "
                             "fraction of serial_cold's (with "
                             "--gate-surrogate)")
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
    modes["surrogate"] = _bench_mode(
        args.workload, args.setup, serial_cfg,
        repeats=args.repeats, clear_each_repeat=True,
        runner=_run_surrogate_search)
    _clear_caches()

    reference = modes["serial_cold"]
    # The exact modes must agree bit-for-bit; the surrogate mode prunes,
    # so it is held to its own gates below instead.
    identical_best = all(
        result.score == reference.score and result.design == reference.design
        for name, result in modes.items() if name != "surrogate"
    )
    surrogate = modes["surrogate"]
    surrogate_identical = (surrogate.score == reference.score
                           and surrogate.design == reference.design)
    surrogate_no_regression = surrogate.score <= reference.score
    surrogate_eval_ratio = (
        surrogate.stats.hw_evaluations / reference.stats.hw_evaluations
        if reference.stats.hw_evaluations else 0.0)

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
        "surrogate_identical_best": surrogate_identical,
        "surrogate_no_regression": surrogate_no_regression,
        "surrogate_best_score": surrogate.score,
        "surrogate_eval_ratio": surrogate_eval_ratio,
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
    print(f"  identical best across exact modes: {identical_best}")
    print(f"  surrogate: score {surrogate.score:.6g} vs serial "
          f"{reference.score:.6g} "
          f"({'identical' if surrogate_identical else 'no regression' if surrogate_no_regression else 'REGRESSION'}), "
          f"{surrogate.stats.hw_evaluations}/"
          f"{reference.stats.hw_evaluations} oracle evals "
          f"({surrogate_eval_ratio:.2f}x)")
    print(f"report written to {path}")

    failed = False
    if not identical_best:
        print("ERROR: exact modes disagreed on the best design",
              file=sys.stderr)
        failed = True
    if args.gate_surrogate:
        if not surrogate_no_regression:
            print(f"ERROR: surrogate mode regressed the best score "
                  f"({surrogate.score:.6g} > {reference.score:.6g})",
                  file=sys.stderr)
            failed = True
        if surrogate_eval_ratio > args.max_surrogate_eval_ratio:
            print(f"ERROR: surrogate mode used "
                  f"{surrogate_eval_ratio:.2f}x of serial_cold's oracle "
                  f"evaluations (budget "
                  f"{args.max_surrogate_eval_ratio:g}x)", file=sys.stderr)
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
    serial_misses = modes["serial_cold"].stats.layer_cost_misses
    batched_misses = modes["batched"].stats.layer_cost_misses
    if batched_misses != serial_misses:
        print(f"ERROR: batched mode priced {batched_misses} layer-cost "
              f"misses, serial_cold {serial_misses} (the two mapper "
              f"scans no longer price the same rungs)", file=sys.stderr)
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
