"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``workloads``
    List the paper's workload zoo with layer/parameter/op counts.
``search``
    Run a CHRYSALIS search for one workload and print the solution.
``describe``
    Lower a named workload + explicit design knobs into the HW/SW
    describer output (no search).
``simulate``
    Step-simulate an explicit design and print metrics plus the head of
    the event trace.
``faults-sweep``
    Stress an explicit design across fault-injection intensities and
    print the survival-under-faults table.
``campaign run|fleet|worker|status|report``
    Durable multi-scenario campaigns: execute a JSON campaign spec
    against a SQLite result store (resumable — re-invoking skips
    completed runs), run it across a fault-tolerant multi-process
    fleet (``fleet`` spawns local workers; extra ``worker`` processes
    on any machine sharing the store file join the same campaign),
    show completion counts plus per-worker liveness, and rebuild the
    winners / Pareto-front report purely from the store.
``obs report``
    Render an observability snapshot — either a ``--obs-output`` JSON
    file or the per-run blobs persisted in a campaign store.
``serve run|bench``
    Always-on evaluation service: ``run`` starts the TCP front of one
    coalescing/micro-batching :class:`~repro.serve.EvaluationService`
    (JSON-lines protocol, see docs/SERVING.md); ``bench`` fires
    concurrent client traffic at a running service and prints
    client-side throughput and latency percentiles.

``search``, ``simulate``, and ``campaign run`` all accept ``--obs``
(record spans/metrics/profiling and print the report afterwards) and
``--obs-output PATH`` (also write the raw snapshot as JSON, the input
format of ``obs report``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import signal
import sys
import time
from typing import List, Optional

from repro.campaign import (
    CampaignReport,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
)
from repro.api import evaluate as api_evaluate
from repro.campaign.fleet import (
    CampaignWorker,
    FleetConfig,
    FleetCoordinator,
)
from repro.campaign.runner import _check_overrides
from repro.campaign.store import (
    STATUS_DONE,
    STATUS_EXHAUSTED,
    STATUS_FAILED,
)
from repro.core.chrysalis import Chrysalis
from repro.core.describer import describe_design
from repro.design import AuTDesign, EnergyDesign, InferenceDesign
from repro.environments import environment_by_name
from repro.errors import ChrysalisError, StoreError
from repro.explore.ga import GAConfig
from repro.explore.mapper_search import MappingOptimizer
from repro.explore.objectives import Objective
from repro.faults import FaultConfig, run_faults_sweep
from repro.hardware.accelerators import AcceleratorFamily
from repro.obs import (
    merge_snapshots,
    render_report,
    to_csv,
    to_json,
)
from repro.obs import state as obs_state
from repro.serialize import (
    design_from_json,
    design_to_json,
    solution_to_json,
)
from repro.serve import (
    EvaluationService,
    ServeClient,
    ServeConfig,
    ServeServer,
)
from repro.sim.report import render_faults_sweep
from repro.workloads import zoo


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--obs", action="store_true",
                   help="record spans/metrics/profiling and print the "
                        "observability report afterwards")
    p.add_argument("--obs-output", default=None, metavar="PATH",
                   help="also write the raw observability snapshot as "
                        "JSON (implies --obs; input of 'obs report')")


def _obs_begin(args: argparse.Namespace) -> bool:
    wanted = bool(getattr(args, "obs", False)
                  or getattr(args, "obs_output", None))
    if wanted:
        obs_state.enable(profile=True)
    return wanted


def _obs_finish(args: argparse.Namespace,
                snapshot: Optional[dict] = None) -> None:
    if snapshot is None:
        snapshot = obs_state.snapshot()
    obs_state.disable()
    print()
    print("-- observability " + "-" * 28)
    print(render_report(snapshot))
    if getattr(args, "obs_output", None):
        path = pathlib.Path(args.obs_output)
        path.write_text(to_json(snapshot))
        print(f"\nobservability snapshot written to {path}")


def _build_objective(args: argparse.Namespace) -> Objective:
    if args.objective == "lat":
        if args.sp_cap is None:
            raise ChrysalisError("--objective lat requires --sp-cap")
        return Objective.lat(args.sp_cap)
    if args.objective == "sp":
        if args.lat_cap is None:
            raise ChrysalisError("--objective sp requires --lat-cap")
        return Objective.sp(args.lat_cap)
    return Objective.lat_sp()


def _inference_design(args: argparse.Namespace) -> InferenceDesign:
    if args.arch == "msp430":
        return InferenceDesign.msp430()
    family = AcceleratorFamily(args.arch)
    return InferenceDesign(family=family, n_pes=args.pes,
                           cache_bytes_per_pe=args.cache)


def _explicit_design(args: argparse.Namespace, network,
                     environments=None) -> AuTDesign:
    if getattr(args, "design", None):
        design = design_from_json(
            pathlib.Path(args.design).read_text())
        design.validate_against(network)
        return design
    energy = EnergyDesign(panel_area_cm2=args.panel,
                          capacitance_f=args.cap * 1e-6)
    inference = _inference_design(args)
    mappings = MappingOptimizer(
        network, environments=environments).optimize(energy, inference)
    if mappings is None:
        raise ChrysalisError(
            "no feasible intermittent mapping for this design; "
            "try a bigger capacitor or panel"
        )
    return AuTDesign(energy=energy, inference=inference, mappings=mappings)


def cmd_workloads(args: argparse.Namespace) -> int:
    groups = (("existing", zoo.EXISTING_AUT_WORKLOADS),
              ("future", zoo.FUTURE_AUT_WORKLOADS),
              ("extension", zoo.EXTENSION_WORKLOADS))
    print(f"{'name':<14}{'setup':<11}{'layers':>7}{'params':>12}{'MACs':>14}")
    for setup, registry in groups:
        for name in registry:
            network = zoo.workload_by_name(name)
            print(f"{name:<14}{setup:<11}{network.num_weight_layers:>7}"
                  f"{network.params:>12,}{network.macs:>14,}")
    return 0


def write_solution_json(solution, path) -> pathlib.Path:
    """Persist a solution as JSON — the one write path ``search --output``
    and ``campaign run`` share (both go through ``repro.serialize``)."""
    path = pathlib.Path(path)
    path.write_text(solution_to_json(solution))
    return path


def cmd_search(args: argparse.Namespace) -> int:
    network = zoo.workload_by_name(args.workload)
    obs_on = _obs_begin(args)
    tool = Chrysalis(
        network,
        setup=args.setup,
        objective=_build_objective(args),
        ga_config=GAConfig(population_size=args.population,
                           generations=args.generations, seed=args.seed,
                           batched=args.batched),
    )
    solution = tool.generate()
    print(solution.report())
    if tool.last_result is not None:
        print()
        print("-- search throughput " + "-" * 24)
        print(tool.last_result.stats.render())
    if args.output:
        path = write_solution_json(solution, args.output)
        print(f"\nsolution written to {path}")
    if args.design_output:
        path = pathlib.Path(args.design_output)
        path.write_text(design_to_json(solution.design))
        print(f"design written to {path}")
    if obs_on:
        _obs_finish(args)
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    network = zoo.workload_by_name(args.workload)
    design = _explicit_design(args, network)
    print(describe_design(design, network, loop_nests=args.loop_nests))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    network = zoo.workload_by_name(args.workload)
    design = _explicit_design(args, network)
    environments = environment_by_name(args.environment)
    obs_on = _obs_begin(args)
    # The unified front door (results are bit-identical to driving
    # ChrysalisEvaluator.simulate directly).
    report = api_evaluate(design, network, environments=environments,
                          fidelity="step", fast_forward=not args.exact)
    metrics = report.metrics
    if not metrics.feasible:
        print(f"infeasible: {metrics.infeasible_reason}")
        if obs_on:
            _obs_finish(args, report.obs)
        return 1
    result = report.simulations[environments[0].name]
    print(f"e2e latency      : {metrics.e2e_latency:.4f} s "
          f"(busy {metrics.busy_time:.4f} s, "
          f"charge {metrics.charge_time:.4f} s)")
    print(f"sustained period : {metrics.sustained_period:.4f} s")
    print(f"total energy     : {metrics.total_energy * 1e3:.4f} mJ "
          f"(ckpt {metrics.energy.checkpoint * 1e3:.4f} mJ)")
    print(f"power cycles     : {metrics.power_cycles}, "
          f"exceptions: {metrics.exceptions}")
    print(f"system efficiency: {metrics.system_efficiency:.3f}")
    if result.fast_cycles_skipped:
        print(f"fast-forward     : {result.fast_cycles_skipped} cycles "
              f"replayed in {result.fast_segments} segments "
              f"(use --exact for a full per-step trace)")
    print()
    print(result.trace.render(limit=args.trace))
    if obs_on:
        _obs_finish(args, report.obs)
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    handlers = {
        "run": _campaign_run,
        "fleet": _campaign_fleet,
        "worker": _campaign_worker,
        "status": _campaign_status,
        "report": _campaign_report,
    }
    return handlers[args.campaign_command](args)


def _campaign_run(args: argparse.Namespace) -> int:
    spec = CampaignSpec.from_path(args.spec)
    _check_overrides(args.max_runs, args.max_attempts)  # before the store
    obs_on = _obs_begin(args)
    with ResultStore(args.store) as store:
        runner = CampaignRunner(
            spec, store,
            max_runs=args.max_runs,
            max_attempts=args.max_attempts,
            on_progress=lambda outcome: print(
                f"  [{outcome.status}] {outcome.key.describe()} "
                f"({outcome.wall_seconds:.1f}s)"),
        )
        print(f"campaign {spec.name}: {len(spec.expand())} run(s), "
              f"store {args.store}")
        progress = runner.run()
    print()
    print(progress.render())
    if obs_on:
        _obs_finish(args)
    return 0 if progress.failed == 0 else 1


def _fleet_config(args: argparse.Namespace) -> FleetConfig:
    return FleetConfig(
        lease_ttl_s=args.lease_ttl,
        heartbeat_s=args.heartbeat_every,
        poll_s=args.poll,
        max_attempts=args.max_attempts,
    )


def _campaign_fleet(args: argparse.Namespace) -> int:
    spec = CampaignSpec.from_path(args.spec)
    coordinator = FleetCoordinator(
        spec, args.spec, args.store,
        n_workers=args.fleet_workers,
        config=_fleet_config(args),
    )
    print(f"campaign {spec.name}: {len(spec.expand())} run(s), "
          f"{args.fleet_workers} worker(s), store {args.store}")
    progress = coordinator.run(timeout_s=args.timeout)
    print()
    print(progress.render())
    return 0 if progress.converged else 1


def _campaign_worker(args: argparse.Namespace) -> int:
    spec = CampaignSpec.from_path(args.spec)
    worker = CampaignWorker(
        spec, args.store,
        worker_id=args.worker_id,
        config=_fleet_config(args),
    )
    print(f"worker {worker.worker_id}: joining campaign {spec.name} "
          f"on {args.store}", flush=True)
    summary = worker.run()
    print(f"worker {worker.worker_id}: {summary.done} done, "
          f"{summary.failed} failed, {summary.lease_lost} lease(s) lost, "
          f"{summary.reaped} stale lease(s) reaped")
    return 0


def _existing_store(path: str) -> ResultStore:
    """Open the store a read-only command reads.  A missing file is a
    mistyped path, not an empty store: refuse it rather than create it."""
    if not pathlib.Path(path).exists():
        raise StoreError(f"no campaign store at {path}")
    return ResultStore(path)


def _campaign_status(args: argparse.Namespace) -> int:
    with _existing_store(args.store) as store:
        campaigns = ([args.campaign] if args.campaign
                     else store.campaigns())
        if not campaigns:
            print("store holds no campaigns")
            return 1
        incomplete = 0
        for name in campaigns:
            counts = store.status_counts(name)
            total = sum(counts.values())
            done = counts[STATUS_DONE]
            print(f"{name}: {done}/{total} complete "
                  f"({counts[STATUS_FAILED]} failed, "
                  f"{counts[STATUS_EXHAUSTED]} exhausted, "
                  f"{counts['pending'] + counts['running']} pending)")
            for worker in store.workers_status(name):
                print(f"  worker [{worker.state:<6}] {worker.worker_id}: "
                      f"{worker.runs_done} done, "
                      f"{worker.runs_failed} failed "
                      f"({worker.throughput_per_min:.1f} runs/min)")
            if args.runs:
                for run in store.runs(campaign=name):
                    print(f"  [{run.status:<9}] {run.key.describe()} "
                          f"(attempt {run.attempts})")
            incomplete += total - done
    return 0 if incomplete == 0 else 1


def _campaign_report(args: argparse.Namespace) -> int:
    with _existing_store(args.store) as store:
        report = CampaignReport.from_store(store, campaign=args.campaign,
                                           hypervolume=args.hypervolume)
    print(report.render_markdown())
    if args.json:
        path = pathlib.Path(args.json)
        path.write_text(json.dumps(report.as_dict(), indent=2))
        print(f"\nreport written to {path}")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    handlers = {"report": _obs_report}
    return handlers[args.obs_command](args)


def _obs_report(args: argparse.Namespace) -> int:
    if (args.snapshot is None) == (args.campaign is None):
        raise ChrysalisError(
            "pass a snapshot JSON file or --campaign STORE (exactly one)")
    if args.snapshot is not None:
        snapshot = json.loads(pathlib.Path(args.snapshot).read_text())
    else:
        # Reconstruct purely from the store's per-run blobs — no live
        # process state involved.
        with _existing_store(args.campaign) as store:
            rows = [run for run in store.runs() if run.obs is not None]
        if args.run:
            rows = [run for run in rows
                    if run.key.run_hash.startswith(args.run)]
        if not rows:
            print("store holds no observability blobs "
                  "(run the campaign with --obs)")
            return 1
        print(f"reconstructed from {len(rows)} stored run blob(s)")
        print()
        snapshot = merge_snapshots(run.obs for run in rows)
    print(render_report(snapshot, top=args.top))
    if args.csv:
        path = pathlib.Path(args.csv)
        path.write_text(to_csv(snapshot))
        print(f"\ncsv written to {path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    handlers = {"run": _serve_run, "bench": _serve_bench}
    return handlers[args.serve_command](args)


def _serve_config(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        max_batch_size=args.max_batch_size,
        max_queue=args.max_queue,
        default_deadline_s=args.deadline,
    )


def _render_serve_stats(stats) -> str:
    data = stats.as_dict()
    latency = data["latency_seconds"]
    occupancy = data["batch_occupancy"]
    mean_occupancy = (occupancy["sum"] / occupancy["count"]
                      if occupancy["count"] else 0.0)
    p50 = latency["p50"] or 0.0
    p99 = latency["p99"] or 0.0
    return (f"served {data['requests']} request(s): "
            f"{data['evaluated']} evaluated, "
            f"coalesce rate {data['coalesce_rate']:.1%}, "
            f"{data['batches']} batch(es) "
            f"(mean occupancy {mean_occupancy:.1f}), "
            f"latency p50 {p50 * 1e3:.1f} ms / p99 {p99 * 1e3:.1f} ms, "
            f"{data['shed']} shed, {data['timeouts']} timeout(s), "
            f"{data['failures']} failure(s)")


def _serve_run(args: argparse.Namespace) -> int:
    service = EvaluationService(_serve_config(args))

    async def _main() -> None:
        async with service, \
                ServeServer(service, args.host, args.port) as server:
            host, port = server.address
            print(f"evaluation service listening on {host}:{port} "
                  f"(max batch {args.max_batch_size}, "
                  f"queue {args.max_queue}); Ctrl-C to stop", flush=True)
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except (NotImplementedError, RuntimeError):
                    pass  # platform without signal support in loops
            await stop.wait()
            print("draining ...", flush=True)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    print(_render_serve_stats(service.stats))
    return 0


def _serve_design_pool(args: argparse.Namespace,
                       network) -> List[AuTDesign]:
    """Distinct valid designs for bench traffic (panel-area sweep)."""
    if getattr(args, "design", None):
        design = design_from_json(pathlib.Path(args.design).read_text())
        design.validate_against(network)
        return [design]
    inference = _inference_design(args)
    designs: List[AuTDesign] = []
    count = max(1, args.designs)
    for index in range(count):
        fraction = index / max(count - 1, 1)
        energy = EnergyDesign(
            panel_area_cm2=args.panel * (0.75 + 0.5 * fraction),
            capacitance_f=args.cap * 1e-6)
        mappings = MappingOptimizer(network).optimize(energy, inference)
        if mappings is not None:
            designs.append(AuTDesign(energy=energy, inference=inference,
                                     mappings=mappings))
    if not designs:
        raise ChrysalisError(
            "no feasible design in the bench pool; try a bigger "
            "--panel or --cap")
    return designs


def _serve_bench(args: argparse.Namespace) -> int:
    for flag, value in (("--requests", args.requests),
                        ("--concurrency", args.concurrency)):
        if value < 1:
            raise ChrysalisError(f"{flag} must be at least 1, got {value}")
    network = zoo.workload_by_name(args.workload)
    designs = _serve_design_pool(args, network)
    latencies: List[float] = []

    async def _main() -> float:
        async with await ServeClient.connect(args.host,
                                             args.port) as client:
            gate = asyncio.Semaphore(args.concurrency)

            async def one(index: int) -> None:
                async with gate:
                    begin = time.perf_counter()
                    await client.evaluate(
                        designs[index % len(designs)], args.workload,
                        environment=args.environment,
                        deadline_s=args.deadline)
                    latencies.append(time.perf_counter() - begin)

            begin = time.perf_counter()
            await asyncio.gather(*[one(i) for i in range(args.requests)])
            return time.perf_counter() - begin

    wall = asyncio.run(_main())
    latencies.sort()

    def pct(q: float) -> float:
        return latencies[min(len(latencies) - 1,
                             int(q * len(latencies)))] * 1e3

    print(f"{args.requests} request(s) over {len(designs)} distinct "
          f"design(s) at concurrency {args.concurrency}: "
          f"{args.requests / wall:.1f} req/s "
          f"(p50 {pct(0.50):.1f} ms, p99 {pct(0.99):.1f} ms)")
    return 0


def cmd_faults_sweep(args: argparse.Namespace) -> int:
    network = zoo.workload_by_name(args.workload)
    # A multi-environment label stresses its first environment (the
    # sweep is per-environment by construction).
    environment = environment_by_name(args.environment)[0]
    # Map the design for the environment being stressed: sweeping a
    # design that is nominally infeasible there tells you nothing.
    design = _explicit_design(args, network, environments=(environment,))
    base = FaultConfig.stress().with_seed(args.fault_seed)
    cells = run_faults_sweep(
        design, network, environment,
        base=base,
        intensities=tuple(args.intensities),
        seeds_per_cell=args.seeds_per_cell,
        max_steps=args.max_steps,
    )
    print(f"fault model      : stress profile, seed {args.fault_seed}")
    print(f"environment      : {args.environment}, "
          f"{args.seeds_per_cell} seed(s) per intensity")
    print()
    print(render_faults_sweep(cells))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CHRYSALIS: EA/IA co-design for Autonomous Things",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the workload zoo")

    search = sub.add_parser("search", help="run a CHRYSALIS search")
    search.add_argument("workload")
    search.add_argument("--setup", choices=("existing", "future"),
                        default="existing")
    search.add_argument("--objective", choices=("lat", "sp", "lat*sp"),
                        default="lat*sp")
    search.add_argument("--sp-cap", type=float, default=None,
                        help="panel-area cap (cm^2) for --objective lat")
    search.add_argument("--lat-cap", type=float, default=None,
                        help="latency cap (s) for --objective sp")
    search.add_argument("--population", type=int, default=12)
    search.add_argument("--generations", type=int, default=8)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--batched", action="store_true",
                        help="vectorized in-process generation evaluation "
                             "(identical results)")
    search.add_argument("--output", default=None, metavar="PATH",
                        help="write the full solution as JSON "
                             "(reloadable via repro.serialize)")
    search.add_argument("--design-output", default=None,
                        help="write just the design (loadable via "
                             "--design) as JSON")
    _add_obs_args(search)

    def add_design_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("workload")
        p.add_argument("--design", default=None,
                       help="load a serialized design JSON instead of "
                            "building one from the knobs below")
        p.add_argument("--panel", type=float, default=8.0,
                       help="solar panel area, cm^2")
        p.add_argument("--cap", type=float, default=470.0,
                       help="capacitance, uF")
        p.add_argument("--arch",
                       choices=("msp430", "tpu", "eyeriss"),
                       default="msp430")
        p.add_argument("--pes", type=int, default=64)
        p.add_argument("--cache", type=int, default=512,
                       help="per-PE cache, bytes")

    describe = sub.add_parser("describe",
                              help="render the HW/SW describer output")
    add_design_args(describe)
    describe.add_argument("--loop-nests", action="store_true")

    simulate = sub.add_parser("simulate",
                              help="step-simulate an explicit design")
    add_design_args(simulate)
    simulate.add_argument("--environment", default="brighter",
                          help="environment label (a preset such as "
                               "brighter/darker/indoor, a registered "
                               "trace, or scenario:<name>)")
    simulate.add_argument("--trace", type=int, default=10,
                          help="trace events to print")
    simulate.add_argument("--exact", action="store_true",
                          help="disable the cycle-skipping fast path "
                               "(exact per-step simulation, full trace)")
    _add_obs_args(simulate)

    campaign = sub.add_parser(
        "campaign",
        help="durable, resumable multi-scenario DSE campaigns")
    csub = campaign.add_subparsers(dest="campaign_command", required=True)

    crun = csub.add_parser(
        "run", help="execute the pending runs of a campaign spec")
    crun.add_argument("spec", help="campaign spec JSON (see docs/CAMPAIGNS.md)")
    crun.add_argument("--store", default="campaign.sqlite",
                      help="SQLite result store; reuse it to resume")
    crun.add_argument("--max-runs", type=int, default=None,
                      help="stop after this many runs (resume later)")
    crun.add_argument("--max-attempts", type=int, default=None,
                      help="override the spec's retry cap; a run that "
                           "fails this many times becomes 'exhausted' "
                           "and is never retried")
    _add_obs_args(crun)

    def add_fleet_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec",
                       help="campaign spec JSON (see docs/CAMPAIGNS.md)")
        p.add_argument("--store", default="campaign.sqlite",
                       help="shared SQLite result store; every process "
                            "pointing at the same file joins the same fleet")
        p.add_argument("--lease-ttl", type=float,
                       default=FleetConfig.lease_ttl_s, metavar="SECONDS",
                       help="run-lease time-to-live; a dead worker's runs "
                            "re-queue within one TTL")
        p.add_argument("--heartbeat-every", type=float, default=None,
                       metavar="SECONDS",
                       help="lease-extension period (default: TTL/4)")
        p.add_argument("--poll", type=float, default=FleetConfig.poll_s,
                       metavar="SECONDS",
                       help="idle/watch polling period")
        p.add_argument("--max-attempts", type=int, default=None,
                       help="override the spec's retry cap")

    cfleet = csub.add_parser(
        "fleet",
        help="run a campaign across N fault-tolerant local workers")
    add_fleet_args(cfleet)
    cfleet.add_argument("--workers", dest="fleet_workers", type=int,
                        default=2,
                        help="local worker processes to spawn")
    cfleet.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="hard stop; the campaign stays resumable")

    cworker = csub.add_parser(
        "worker",
        help="join a campaign as one fleet worker (any machine that "
             "shares the store file)")
    add_fleet_args(cworker)
    cworker.add_argument("--worker-id", default=None,
                         help="fleet-unique worker name (default: host:pid)")

    cstatus = csub.add_parser(
        "status", help="completion counts of the stored campaigns")
    cstatus.add_argument("--store", default="campaign.sqlite")
    cstatus.add_argument("--campaign", default=None,
                         help="restrict to one campaign name")
    cstatus.add_argument("--runs", action="store_true",
                         help="also list every run with its status")

    creport = csub.add_parser(
        "report",
        help="winners + Pareto front, rebuilt purely from the store")
    creport.add_argument("--store", default="campaign.sqlite")
    creport.add_argument("--campaign", default=None,
                         help="campaign name (needed only for shared stores)")
    creport.add_argument("--hypervolume", action="store_true",
                         help="add per-scenario (panel, latency) dominated "
                              "hypervolume against a shared campaign-wide "
                              "reference")
    creport.add_argument("--json", default=None, metavar="PATH",
                         help="also write the report as JSON")

    obs = sub.add_parser(
        "obs", help="observability reports (see docs/OBSERVABILITY.md)")
    osub = obs.add_subparsers(dest="obs_command", required=True)
    oreport = osub.add_parser(
        "report",
        help="render a snapshot file or a campaign store's obs blobs")
    oreport.add_argument("snapshot", nargs="?", default=None,
                         help="snapshot JSON written by --obs-output")
    oreport.add_argument("--campaign", default=None, metavar="STORE",
                         help="reconstruct from this campaign store's "
                              "per-run blobs instead")
    oreport.add_argument("--run", default=None, metavar="HASH",
                         help="restrict --campaign mode to one run "
                              "(hash prefix)")
    oreport.add_argument("--top", type=int, default=10,
                         help="hottest phases to list")
    oreport.add_argument("--csv", default=None, metavar="PATH",
                         help="also write the aggregated CSV")

    serve = sub.add_parser(
        "serve",
        help="always-on evaluation service (see docs/SERVING.md)")
    ssub = serve.add_subparsers(dest="serve_command", required=True)

    def add_serve_endpoint(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=7733)

    srun = ssub.add_parser(
        "run", help="start the TCP evaluation service (JSON lines)")
    add_serve_endpoint(srun)
    srun.add_argument("--max-batch-size", type=int,
                      default=ServeConfig.max_batch_size,
                      help="largest micro-batch one flush may hold")
    srun.add_argument("--max-queue", type=int,
                      default=ServeConfig.max_queue,
                      help="admission limit; beyond it requests are "
                           "shed with an overload error")
    srun.add_argument("--deadline", type=float, default=None,
                      metavar="SECONDS",
                      help="default per-request deadline")

    sbench = ssub.add_parser(
        "bench",
        help="fire concurrent client traffic at a running service")
    add_design_args(sbench)
    add_serve_endpoint(sbench)
    sbench.add_argument("--requests", type=int, default=64,
                        help="total requests to send")
    sbench.add_argument("--concurrency", type=int, default=16,
                        help="in-flight request cap")
    sbench.add_argument("--designs", type=int, default=8,
                        help="distinct designs in the traffic pool; "
                             "repeats of the same design coalesce "
                             "server-side")
    sbench.add_argument("--environment", default="paper",
                        help="any environment label the server's "
                             "registry resolves: a preset, "
                             "scenario:<name>, or a registered or "
                             "generated trace label")
    sbench.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-request deadline")

    faults = sub.add_parser(
        "faults-sweep",
        help="stress a design across fault-injection intensities")
    add_design_args(faults)
    faults.add_argument("--environment", default="brighter",
                        help="environment label (a preset such as "
                             "brighter/darker/indoor, a registered "
                             "trace, or scenario:<name>)")
    faults.add_argument("--intensities", type=float, nargs="+",
                        default=[0.0, 0.5, 1.0, 2.0],
                        help="fault-rate multipliers applied to the "
                             "stress profile")
    faults.add_argument("--seeds-per-cell", type=int, default=3,
                        help="fault seeds simulated per intensity")
    faults.add_argument("--fault-seed", type=int, default=0,
                        help="base seed of the fault processes")
    faults.add_argument("--max-steps", type=int, default=500_000,
                        help="per-run step budget before the run counts "
                             "as a non-survivor")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "workloads": cmd_workloads,
        "search": cmd_search,
        "describe": cmd_describe,
        "simulate": cmd_simulate,
        "campaign": cmd_campaign,
        "obs": cmd_obs,
        "serve": cmd_serve,
        "faults-sweep": cmd_faults_sweep,
    }
    try:
        return handlers[args.command](args)
    except ChrysalisError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
