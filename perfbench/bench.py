#!/usr/bin/env python3
"""CHRYSALIS benchmark: four workloads, end-to-end and per-layer metrics.

Each workload runs in fresh processes, one at a time (``workload.py``):
``SETUP_REPEATS - 1`` processes that only set up, then the measured
run.  Untraced runs report the end-to-end metrics of ``BENCHMARK.json``;
traced runs (``--trace``) install bench-side wrappers on the program's
layer entry points and report the per-layer metrics instead.  Timings
are scaled to a reference host speed (``_common.HostSpeed``).  Every
metric is printed by name with its unit; a JSON report goes to
``--output`` (default under the git-ignored ``perfbench/results/``); the
last stdout line is a JSON summary.  The exit status is non-zero when
any output check fails.

Usage::

    python3 perfbench/bench.py                       # all four, seed 0
    python3 perfbench/bench.py --workload price-mix --seed 3 --trace 0
    python3 perfbench/bench.py --trace               # per-layer metrics
    python3 perfbench/bench.py --quick               # seconds-long smoke
    python3 perfbench/bench.py compare BASE.json NEW.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from _common import (BENCH_DIR, REFERENCE_MS, RESULTS_DIR, ROOT,
                     SCHEMA_VERSION, HostSpeed, load_spec, median,
                     metric_units, quartiles, relative_iqr, report_runs,
                     summarize)

WORKLOADS = ("search-msp430", "search-future", "price-mix", "serve")

#: Set-ups timed per untraced run (the measured run's own included);
#: ``setup_s`` is their median.
SETUP_REPEATS = 3


class BenchError(RuntimeError):
    """A workload process failed; no result can be reported."""


def _spawn(workload: str, seed: int, seconds: float, trace: bool,
           quick: bool, setup_only: bool, deadline: float,
           spans: Optional[pathlib.Path] = None
           ) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run one workload process; returns (set-up seconds, result)."""
    command = [sys.executable, str(BENCH_DIR / "workload.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(trace))]
    if quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    if spans is not None:
        command += ["--spans", str(spans)]
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"{workload}: workload process exited with {code} "
                         f"(see its stderr above)")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Set-up samples plus one measured run, as a report dict."""
    deadline = time.monotonic() + 120.0 + 2.0 * seconds
    # Set-up times are scaled to the reference host speed like every
    # other timing; the measured run's own set-up uses the reading
    # taken just before it.  A fresh process may run on any CPU.
    speed = HostSpeed(every_cpu=True)
    setup_samples = []
    repeats = 1 if trace or quick else SETUP_REPEATS
    for _ in range(repeats - 1):
        elapsed = _spawn(workload, seed, seconds, trace, quick, True,
                         deadline)[0]
        setup_samples.append(elapsed * speed.factor())
    spans = (RESULTS_DIR / f"spans-{workload}-seed{seed}.json"
             if trace else None)
    setup_s, result = _spawn(workload, seed, seconds, trace, quick, False,
                             deadline, spans)
    setup_samples.append(setup_s * REFERENCE_MS / speed.readings[-1])
    return build_report(workload, seed, seconds, trace, quick, spec,
                        setup_samples, result)


def _median(values: Sequence[float]) -> Optional[float]:
    return median(values) if values else None


def build_report(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool, spec: Dict[str, Any],
                 setup_samples: List[float], result: Dict[str, Any]
                 ) -> Dict[str, Any]:
    """The report of one run from its set-up times and the workload
    process's result.  A timing with no successful op is ``None``."""
    samples = result["samples"]
    if trace:
        group, values = "per_layer", result["per_layer"]
    else:
        group = "end_to_end"
        values = {
            "setup_s": median(setup_samples),
            "scalar_p50_ms": _median(samples["scalar_ms"]),
            "batched_p50_ms": _median(samples["batched_ms"]),
            "peak_rss_mb": result["rss_kb"] / 1024.0,
        }
    units = metric_units(spec, group)
    if set(values) != set(units):
        raise BenchError(f"{workload}: metrics {sorted(set(values) ^ set(units))}"
                         f" differ between the run and BENCHMARK.json")
    checks = result["checks"]
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "correct": bool(checks) and all(checks.values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks": checks,
        "outputs_digest": result["outputs_digest"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "timings": {key: summarize(sample) if sample else {"count": 0}
                    for key, sample in (("setup_s", setup_samples),
                                        ("scalar_ms", samples["scalar_ms"]),
                                        ("batched_ms",
                                         samples["batched_ms"]))},
        "diagnostics": result["diagnostics"],
        "missing_trace_targets": result["missing_trace_targets"],
        "metadata": result["metadata"],
    }


def _print_report(report: Dict[str, Any]) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, "
          f"{'traced' if report['trace'] else 'untraced'}): "
          f"{report['attempted']} ops, {report['failed']} failed, "
          f"checks {report['checks']}")
    timings = report["timings"]
    details = {"setup_s": timings["setup_s"],
               "scalar_p50_ms": timings["scalar_ms"],
               "batched_p50_ms": timings["batched_ms"]}
    for name, metric in report["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        line = f"  {name:<40} {shown:>14} {metric['unit']}"
        detail = details.get(name) if not report["trace"] else None
        if detail and detail["count"]:
            line += (f"   (n={detail['count']}, p50 {detail['median']:.4g}, "
                     f"IQR {detail['iqr']:.4g}, "
                     f"p{detail['tail_pct']:g} {detail['tail']:.4g})")
        print(line)
    for target in report["missing_trace_targets"]:
        print(f"  warning: trace target {target} not found", file=sys.stderr)


def _check_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"the program is missing: no src/repro under {ROOT}")


def run(args: argparse.Namespace) -> int:
    spec = load_spec()
    _check_program()
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(spec["run_seconds"])
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    for workload in workloads:
        report = run_workload(workload, args.seed, seconds, bool(args.trace),
                              args.quick, spec)
        _print_report(report)
        reports.append(report)
    suffix = "-trace" if args.trace else ""
    output = pathlib.Path(args.output) if args.output else (
        RESULTS_DIR / f"{args.workload or 'all'}-seed{args.seed}{suffix}.json")
    output.parent.mkdir(parents=True, exist_ok=True)
    document = (reports[0] if args.workload
                else {"schema_version": SCHEMA_VERSION, "runs": reports})
    output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"report written to {output}")
    correct = all(report["correct"] for report in reports)
    if args.workload:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{report['workload']}/{name}": metric
                   for report in reports
                   for name, metric in report["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    """``better``/``same``/``worse``/``unresolved`` for one metric.

    Runs pair up in order (base[i] with new[i]).  ``worse``: the new
    median is worse than the base median by more than ``bound`` (a share
    of the base median).  ``better``: the new side wins at least nine
    tenths of the pairs and the medians differ by more than the base
    runs' interquartile range.  ``unresolved``: either side's
    run-to-run spread is wider than ``bound``, unless every new run
    beats every base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = median(base), median(new)
    beats_all = all(sign * n < sign * b for n in new for b in base)
    spread = max(relative_iqr(base) if len(base) > 1 else 0.0,
                 relative_iqr(new) if len(new) > 1 else 0.0)
    if spread > bound:
        return "better" if beats_all else "unresolved"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * n < sign * b)
    q1, _, q3 = quartiles(base)
    if (len(pairs) > 1 and wins >= 0.9 * len(pairs)
            and abs(new_median - base_median) > q3 - q1):
        return "better"
    worse_by = sign * (new_median - base_median) / abs(base_median)
    return "worse" if worse_by > bound else "same"


def _metric_table(runs: List[Dict[str, Any]]
                  ) -> Dict[Tuple[str, str], List[float]]:
    table: Dict[Tuple[str, str], List[float]] = {}
    for run_report in runs:
        for name, metric in run_report["metrics"].items():
            if metric["value"] is not None:  # no op succeeded: see failed
                table.setdefault((name, run_report["workload"]),
                                 []).append(metric["value"])
    return table


def failures_worse(base_runs: List[Dict[str, Any]],
                   new_runs: List[Dict[str, Any]]) -> bool:
    """Print failed/attempted per workload on each side; ``True`` when
    the new side fails a larger share of ops on any (workload, seed)
    that both sides ran.  Latencies count only ops that succeeded, so a
    change that fails more ops must not pass as faster."""
    counts: Dict[Tuple[str, int], Dict[str, List[int]]] = {}
    for side, runs in (("base", base_runs), ("new", new_runs)):
        for run_report in runs:
            key = (run_report["workload"], run_report["seed"])
            total = counts.setdefault(key, {}).setdefault(side, [0, 0])
            total[0] += run_report["failed"]
            total[1] += run_report["attempted"]
    worse = False
    for workload in WORKLOADS:
        rows = {seed: sides for (name, seed), sides in counts.items()
                if name == workload and len(sides) == 2}
        if not rows:
            continue
        grew = [seed for seed, sides in sorted(rows.items())
                if sides["new"][0] * sides["base"][1]
                > sides["base"][0] * sides["new"][1]]
        worse = worse or bool(grew)
        base_sum = [sum(sides["base"][i] for sides in rows.values())
                    for i in (0, 1)]
        new_sum = [sum(sides["new"][i] for sides in rows.values())
                   for i in (0, 1)]
        verdict_text = (f"worse (seeds {', '.join(map(str, grew))})"
                        if grew else "same")
        print(f"{'failed ops':<16} {workload:<14} "
              f"{base_sum[0]:>12}/{base_sum[1]:<17} "
              f"{new_sum[0]:>7}/{new_sum[1]:<13} {'':>6}  {verdict_text}")
    return worse


def compare(base_path: str, new_path: str) -> int:
    """One row per (end-to-end metric, workload) and one per workload
    for failed ops; exit 1 on any worse.

    Also names every (workload, seed) whose runs disagree on
    ``outputs_digest``: a pure speed change leaves outputs identical.
    """
    spec = load_spec()
    base_runs, new_runs = (
        [run for run in report_runs([path]) if not run["trace"]]
        for path in (base_path, new_path))
    base, new = _metric_table(base_runs), _metric_table(new_runs)
    print(f"{'metric':<16} {'workload':<14} {'base median [q1, q3]':>30} "
          f"{'new median':>12} {'change':>8} {'bound':>6}  verdict")
    worse = False
    for entry in spec["end_to_end"]:
        for workload in WORKLOADS:
            key = (entry["name"], workload)
            if key not in base or key not in new:
                continue
            q1, base_median, q3 = quartiles(base[key])
            new_median = median(new[key])
            result = verdict(base[key], new[key], entry["better"],
                             entry["bound"])
            worse = worse or result == "worse"
            change = 100.0 * (new_median - base_median) / base_median
            print(f"{entry['name']:<16} {workload:<14} "
                  f"{base_median:>12.5g} [{q1:.4g}, {q3:.4g}]"
                  f" {new_median:>12.5g} {change:>+7.1f}% "
                  f"{entry['bound']:>6.0%}  {result} "
                  f"({len(base[key])} vs {len(new[key])} runs)")
    worse = failures_worse(base_runs, new_runs) or worse
    digests: Dict[Tuple[str, int], set] = {}
    for run_report in base_runs + new_runs:
        digests.setdefault((run_report["workload"], run_report["seed"]),
                           set()).add(run_report["outputs_digest"])
    for (workload, seed), found in sorted(digests.items()):
        if len(found) > 1:
            print(f"outputs_digest differs between runs of {workload} "
                  f"seed {seed}")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(
            prog="bench.py compare",
            description="Compare two sets of runs against BENCHMARK.json "
                        "bounds.")
        parser.add_argument("base", help="base report, or a directory of "
                                         "reports (one per run)")
        parser.add_argument("new", help="new report or directory")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase length (default: BENCHMARK.json "
                             "run_seconds; 1 with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run reporting per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny budgets for a seconds-long smoke run")
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
