"""Tests for the command-line interface."""

import os
import pathlib
import select
import signal
import socket
import subprocess
import sys

import pytest

from repro.cli import main
from repro.environments import ScenarioGenerator

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestWorkloads:
    def test_lists_all_eight(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("simple_conv", "cifar10", "har", "kws",
                     "alexnet", "vgg16", "resnet18", "bert"):
            assert name in out


class TestSearch:
    def test_search_prints_solution(self, capsys):
        code = main(["search", "har", "--population", "6",
                     "--generations", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "solar panel" in out
        assert "capacitor" in out

    def test_lat_objective_requires_cap(self, capsys):
        code = main(["search", "har", "--objective", "lat",
                     "--population", "4", "--generations", "2"])
        assert code == 2
        assert "sp-cap" in capsys.readouterr().err

    def test_lat_objective_with_cap(self, capsys):
        code = main(["search", "har", "--objective", "lat",
                     "--sp-cap", "6", "--population", "6",
                     "--generations", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "solar panel" in out

    def test_unknown_workload_errors(self, capsys):
        code = main(["search", "lenet-9000"])
        assert code == 2
        assert "available" in capsys.readouterr().err


class TestDescribe:
    def test_describe_sections(self, capsys):
        code = main(["describe", "har", "--panel", "8", "--cap", "470"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Energy subsystem describer" in out
        assert "Mapping describer" in out

    def test_describe_accelerator(self, capsys):
        code = main(["describe", "cifar10", "--arch", "tpu",
                     "--pes", "32", "--cache", "256"])
        assert code == 0
        assert "tpu" in capsys.readouterr().out

    def test_loop_nests_flag(self, capsys):
        code = main(["describe", "har", "--loop-nests"])
        assert code == 0
        assert "MAC(...)" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_prints_metrics_and_trace(self, capsys):
        code = main(["simulate", "har", "--panel", "8", "--cap", "470"])
        assert code == 0
        out = capsys.readouterr().out
        assert "e2e latency" in out
        assert "power cycles" in out
        assert "tile_" in out  # trace events

    def test_simulate_darker_environment(self, capsys):
        code = main(["simulate", "kws", "--environment", "darker"])
        assert code == 0
        assert "sustained period" in capsys.readouterr().out

    def test_infeasible_design_reports_error(self, capsys):
        code = main(["simulate", "cifar10", "--panel", "1",
                     "--cap", "1", "--environment", "indoor"])
        assert code in (1, 2)


class TestFaultsSweep:
    def test_one_row_per_intensity(self, capsys):
        code = main(["faults-sweep", "har", "--environment", "brighter",
                     "--cap", "470", "--intensities", "0", "1",
                     "--seeds-per-cell", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines)
                      if line.split()[:2] == ["intensity", "survival"])
        rows = lines[header + 2:]
        assert [float(row.split()[0]) for row in rows] == [0.0, 1.0]


def _closed_port():
    """A local port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestServe:
    def test_bench_prints_one_summary_per_environment(self, server_address,
                                                      capsys):
        # The server shares this process's registry, so a generated
        # trace label resolves there as it does here.
        (label,) = ScenarioGenerator(name="cli-serve-bench", seed=1,
                                     count=1, families=("cloudy",)).expand()
        for environment in (label, "paper"):
            code = main(["serve", "bench", "har",
                         "--port", str(server_address[1]),
                         "--requests", "16", "--environment", environment])
            assert code == 0
            (line,) = capsys.readouterr().out.splitlines()
            assert line.startswith("16 request(s) over ")

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--concurrency", "0"],
                     "--concurrency must be at least 1", id="concurrency-0"),
        pytest.param(["--concurrency", "-1"],
                     "--concurrency must be at least 1", id="concurrency-1"),
        pytest.param(["--requests", "0"], "--requests must be at least 1",
                     id="requests-0"),
        pytest.param([], "cannot connect", id="no-server"),
    ])
    def test_bench_bad_input_prints_an_error(self, capsys, flags, message):
        code = main(["serve", "bench", "har", "--port", str(_closed_port()),
                     *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_run_serves_bench_traffic_until_interrupted(self):
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "run", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        try:
            assert select.select([server.stdout], [], [], 30.0)[0], \
                "serve run printed no banner within 30 s"
            banner = server.stdout.readline()
            port = banner.split("listening on ")[1].split()[0].split(":")[1]
            assert main(["serve", "bench", "har", "--port", port,
                         "--requests", "8"]) == 0
            server.send_signal(signal.SIGINT)
            out, err = server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        assert server.returncode == 0, err
        assert "served 8 request(s)" in out


class TestSerializationFlow:
    def test_search_writes_and_simulate_reloads(self, tmp_path, capsys):
        design_path = tmp_path / "design.json"
        solution_path = tmp_path / "solution.json"
        code = main(["search", "har", "--population", "6",
                     "--generations", "3",
                     "--output", str(solution_path),
                     "--design-output", str(design_path)])
        assert code == 0
        assert design_path.exists() and solution_path.exists()
        capsys.readouterr()

        code = main(["simulate", "har", "--design", str(design_path)])
        assert code == 0
        assert "e2e latency" in capsys.readouterr().out

    def test_design_for_wrong_workload_rejected(self, tmp_path, capsys):
        design_path = tmp_path / "design.json"
        main(["search", "har", "--population", "6", "--generations", "3",
              "--design-output", str(design_path)])
        capsys.readouterr()
        code = main(["simulate", "cifar10", "--design", str(design_path)])
        assert code == 2
        assert "mappings" in capsys.readouterr().err


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
