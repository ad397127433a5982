"""Fig. 9: optimizing capacitor size (solar panel fixed at 8 cm^2).

The paper's observation: "a small capacitor size leads to excessive
checkpoint energy overhead due to frequent checkpoints, while a large
capacitor size results in an obvious capacitor leakage energy";
preferable capacitor sizes minimise latency in the interior.
"""

from _common import run_once, write_result
from repro.design import EnergyDesign, InferenceDesign
from repro.explore.sweeps import sweep
from repro.units import uF, mF
from repro.workloads import zoo

CAPACITORS = [uF(22), uF(47), uF(100), uF(220), uF(470), mF(1), mF(2.2),
              mF(4.7), mF(10)]
PANEL_CM2 = 8.0
APPS = ["simple_conv", "cifar10", "har", "kws"]


def sweep_app(name):
    result = sweep(zoo.workload_by_name(name), "capacitance_f", CAPACITORS,
                   EnergyDesign(panel_area_cm2=PANEL_CM2,
                                capacitance_f=CAPACITORS[0]),
                   InferenceDesign.msp430())
    rows = []
    for point in result.points:
        if not point.feasible:
            rows.append(None)
            continue
        metrics = point.metrics
        rows.append({
            "cap_uF": point.value * 1e6,
            "ckpt_mj": metrics.energy.checkpoint * 1e3,
            "leak_mj": metrics.energy.cap_leakage * 1e3,
            "latency_s": metrics.sustained_period,
            "n_tiles": point.n_tiles_total,
        })
    return rows


def run_experiment():
    return {app: sweep_app(app) for app in APPS}


def test_fig9_capacitor_sweep(benchmark):
    table = run_once(benchmark, run_experiment)

    lines = [f"Fig. 9 | capacitor sweep, panel fixed at {PANEL_CM2} cm^2 "
             "(two-environment average)"]
    for app, rows in table.items():
        lines.append(f"-- {app}")
        lines.append(f"{'cap uF':>9}{'ckpt mJ':>10}{'leak mJ':>10}"
                     f"{'latency s':>11}{'N_tiles':>9}")
        for row in rows:
            if row is None:
                lines.append("   (unavailable)")
                continue
            lines.append(
                f"{row['cap_uF']:>9.0f}{row['ckpt_mj']:>10.4f}"
                f"{row['leak_mj']:>10.4f}{row['latency_s']:>11.3f}"
                f"{row['n_tiles']:>9}")
    write_result("fig9_capacitor_sweep", lines)

    for app, rows in table.items():
        usable = [r for r in rows if r is not None]
        assert len(usable) >= 5, app
        # Small capacitors need finer tiling, hence more checkpoint
        # energy: the smallest usable capacitor checkpoints at least as
        # much as the largest.
        assert usable[0]["ckpt_mj"] >= usable[-1]["ckpt_mj"], app
        # Leakage energy grows monotonically with capacitance.
        leaks = [r["leak_mj"] for r in usable]
        assert all(b >= a - 1e-9 for a, b in zip(leaks, leaks[1:])), app
        # The preferable capacitor (min latency) is in the interior or
        # at least strictly better than the largest capacitor.
        latencies = [r["latency_s"] for r in usable]
        assert min(latencies) < latencies[-1], app

    # The big CNN's tiling responds to the capacitor: more tiles on the
    # smallest usable capacitor than on the largest (Eq. 9 in action).
    cifar = [r for r in table["cifar10"] if r is not None]
    assert cifar[0]["n_tiles"] > cifar[-1]["n_tiles"]
