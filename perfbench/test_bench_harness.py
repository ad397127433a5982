"""Self-test of the benchmark harness: statistics helpers, the compare
verdicts, and seconds-long ``--quick`` runs of all four workloads.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_bench_harness.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import statistics
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from _common import (ROOT, load_spec, metric_units, percentile,  # noqa: E402
                     quartiles, relative_iqr, summarize, tail_percentile)
from bench import WORKLOADS, build_report, failures_worse, verdict  # noqa: E402
from tracing import Tracer  # noqa: E402
from workload import ServeWorkload  # noqa: E402

#: Where each traced layer does most of its work.
HEAVY = {
    "dataflow.cost_model": "search-future",
    "explore.mapper_search": "search-msp430",
    "sim.analytical": "price-mix",
    "explore.batch_eval": "search-future",
    "explore.bilevel": "search-msp430",
    "sim.engine": "price-mix",
    "environments": "serve",
    "campaign": "search-msp430",
    "api": "price-mix",
}


def _bench(*args: str, cwd: pathlib.Path = ROOT
           ) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "bench.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


# -- statistics helpers -------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    q1, q2, q3 = quartiles(values)
    assert relative_iqr(values) == pytest.approx((q3 - q1) / q2)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([5.0], 99) == 5.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(1, 1001))) == (99.0, 990)
    assert tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert tail_percentile(list(range(1, 41))) == (75.0, 30)
    assert tail_percentile([1.0, 2.0, 3.0]) == (50.0, 2.0)


def test_summarize_reports_count_and_spread():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary["count"] == 4
    assert summary["median"] == 2.5
    assert summary["iqr"] == summary["q3"] - summary["q1"]


# -- compare verdicts ---------------------------------------------------------


BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.1, 9.9, 10.0, 10.2]


def test_verdict_same_within_bound():
    assert verdict(BASE, [v * 1.03 for v in BASE], "lower", 0.1) == "same"


def test_verdict_worse_beyond_bound():
    assert verdict(BASE, [v * 1.2 for v in BASE], "lower", 0.1) == "worse"
    assert verdict(BASE, [v * 0.8 for v in BASE], "higher", 0.1) == "worse"


def test_verdict_better_needs_nine_tenths_of_pairs():
    assert verdict(BASE, [v * 0.9 for v in BASE], "lower", 0.1) == "better"
    mixed = [v * 0.9 for v in BASE[:8]] + [v * 1.05 for v in BASE[8:]]
    assert verdict(BASE, mixed, "lower", 0.1) == "same"


def test_verdict_unresolved_when_spread_exceeds_bound():
    wide = [5.0, 10.0, 15.0, 20.0, 8.0, 12.0]
    assert verdict(wide, [v * 1.01 for v in wide], "lower", 0.1) \
        == "unresolved"
    assert verdict(wide, [1.0] * 6, "lower", 0.1) == "better"


def _run(workload, seed, failed, attempted):
    return {"workload": workload, "seed": seed, "failed": failed,
            "attempted": attempted}


def test_more_failed_ops_is_worse(capsys):
    base = [_run("price-mix", 0, 0, 1000), _run("price-mix", 1, 2, 1000)]
    assert not failures_worse(base, base)
    fewer_ops = [_run("price-mix", 0, 0, 900), _run("price-mix", 1, 2, 1000)]
    assert not failures_worse(base, fewer_ops)
    more = [_run("price-mix", 0, 1, 1000), _run("price-mix", 1, 2, 1000)]
    assert failures_worse(base, more)
    assert "worse (seeds 0)" in capsys.readouterr().out


# -- whole runs ---------------------------------------------------------------


def test_serve_run_with_every_request_rejected_still_reports():
    workload = ServeWorkload(0, quick=True)
    try:
        workload.setup()
        # An unknown network: the server answers every request with an
        # error instead of a report.
        rejected = b'"workload":"no-such-network","fidelity":"analytical"}'
        workload.loadgen.bodies = [rejected] * len(workload.loadgen.bodies)
        tracer = Tracer()
        per_layer = workload.measure(1.0, tracer)
        result = workload.result(per_layer, tracer)
    finally:
        workload.close()
    assert result["failed"] == result["attempted"] > 0
    assert not result["checks"]["timed_ops_succeeded"]
    assert not result["checks"]["served_equals_local"]
    assert per_layer["serve.price_pct"] is None
    report = build_report("serve", 0, 1.0, False, True, load_spec(),
                          [0.5], result)
    assert not report["correct"]
    assert report["metrics"]["scalar_p50_ms"]["value"] is None
    assert report["metrics"]["setup_s"]["value"] == 0.5


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    runs = {}
    for trace in ("0", "1"):
        path = out / f"quick-trace{trace}.json"
        done = _bench("--quick", "--trace", trace, "--output", str(path))
        assert done.returncode == 0, done.stderr
        runs[trace] = (json.loads(path.read_text()), done.stdout, path)
    return runs


def test_quick_run_emits_every_end_to_end_metric(quick_runs):
    report, stdout, _ = quick_runs["0"]
    units = metric_units(load_spec(), "end_to_end")
    assert [run["workload"] for run in report["runs"]] == list(WORKLOADS)
    for run in report["runs"]:
        assert run["correct"], run["checks"]
        assert run["failed"] == 0
        assert run["metrics"] == {
            name: {"value": run["metrics"][name]["value"], "unit": unit}
            for name, unit in units.items()}
        assert all(metric["value"] > 0 for metric in run["metrics"].values())
        for name, unit in units.items():
            assert f" {name} " in stdout and unit in stdout
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] > 0


def test_traced_run_reaches_every_layer_on_its_heavy_workload(quick_runs):
    report, _, _ = quick_runs["1"]
    units = metric_units(load_spec(), "per_layer")
    by_workload = {run["workload"]: run for run in report["runs"]}
    for run in by_workload.values():
        assert set(run["metrics"]) == set(units)
        assert not run["missing_trace_targets"]
    for layer, workload in HEAVY.items():
        calls = by_workload[workload]["metrics"][f"{layer}.calls_per_op"]
        assert calls["value"] > 0, (layer, workload)
    serve = by_workload["serve"]["metrics"]
    assert serve["serve.batch_occupancy_mean"]["value"] >= 1.0
    assert serve["serve.price_pct"]["value"] > 0


def test_compare_reads_reports(quick_runs):
    _, _, path = quick_runs["0"]
    done = _bench("compare", str(path), str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    verdicts = [line.split()[-1] if line.startswith("failed ops")
                else line.split("%")[-1].split()[0]
                for line in done.stdout.splitlines()[1:]]
    assert verdicts == ["same"] * (len(load_spec()["end_to_end"]) + 1) * 4


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _bench("--workload", "price-mix", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
