"""API-surface snapshot tests for the curated top-level package.

``repro.__all__`` is the blessed surface: this file pins it exactly, so
widening or shrinking the public API is always a reviewed, deliberate
diff of the snapshot below.  Names outside it are not attributes of
``repro`` at all, and ``pyproject.toml`` and ``repro.__version__``
state the same version.
"""

import importlib
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

import repro

#: The checked-in snapshot of the blessed surface.  If this test fails,
#: either revert the accidental API change or update the snapshot in
#: the same PR that justifies it (and docs/API.md with it).
PUBLIC_API = [
    "AuTDesign",
    "AuTSolution",
    "CampaignSpec",
    "Chrysalis",
    "ChrysalisEvaluator",
    "DesignSpace",
    "EnergyDesign",
    "EnvironmentSpec",
    "EvalRequest",
    "EvaluationReport",
    "FIDELITIES",
    "FaultConfig",
    "InferenceDesign",
    "LightEnvironment",
    "Objective",
    "ObjectiveKind",
    "ResultStore",
    "Scenario",
    "ScenarioGenerator",
    "TraceEnvironment",
    "__version__",
    "environment_by_name",
    "evaluate",
    "evaluate_batch",
    "evaluate_many",
    "obs",
    "register_environment",
    "run_campaign",
    "run_faults_sweep",
    "serve",
    "zoo",
]

SRC = pathlib.Path(repro.__file__).resolve().parent.parent


class TestSurface:
    def test_all_matches_snapshot(self):
        assert sorted(repro.__all__) == PUBLIC_API

    def test_every_blessed_name_resolves_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in PUBLIC_API:
                assert getattr(repro, name) is not None

    def test_star_import_is_exactly_the_surface(self):
        namespace = {}
        exec("from repro import *", namespace)
        exported = {k for k in namespace if not k.startswith("__")}
        assert exported == set(PUBLIC_API) - {"__version__"}

    @pytest.mark.parametrize("module", ["multiprocessing", "numpy"])
    def test_import_does_not_load(self, module):
        # GA generations are evaluated in-process (no multiprocessing,
        # ~16 ms and ~1.4 MB per process), and nothing in the package
        # needs numpy: it is a dev-only dependency.  Every module is
        # imported except repro.__main__, which runs the CLI.
        script = (
            "import importlib, pkgutil, sys, repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if info.name != 'repro.__main__':\n"
            "        importlib.import_module(info.name)\n"
            f"print({module!r} in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert out.stdout.strip() == "False"

    def test_version_matches_pyproject(self):
        # A regex, not tomllib: Python 3.10 has no tomllib.
        text = (SRC.parent / "pyproject.toml").read_text()
        match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
        assert match is not None
        assert match.group(1) == repro.__version__


class TestShims:
    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="does_not_exist"):
            repro.does_not_exist


#: ``(module, dotted name)`` of every name 4.0 removed (docs/API.md).
REMOVED_IN_4 = [
    ("repro.sim", "EvaluationMode"),
    ("repro.sim.evaluator", "EvaluationMode"),
    ("repro.campaign", "run_fleet"),
    ("repro.campaign.fleet", "run_fleet"),
    ("repro.campaign.fleet", "default_worker_id"),
    ("repro.campaign.store", "StoredRun.lease_expired"),
    ("repro.core.result", "AuTSolution.with_resilience"),
    ("repro.dataflow.cost_model", "LayerCost.memory_energy"),
    ("repro.dataflow.cost_model", "LayerCost.fits_vm"),
    ("repro.hardware.checkpoint", "CheckpointModel.commit_retry_time"),
    ("repro.obs.spans", "LiveSpan.tag"),
    ("repro.sim.analytical", "AnalyticalModel.net_charge_power"),
    ("repro.sim.intermittent", "InferenceController.exception_rate"),
    ("repro.sim.intermittent", "InferenceController.checkpoint_retry_time"),
    ("repro.workloads.network", "Network.weight_bytes"),
    ("repro.environments", "_build_scenario"),
    ("repro.campaign", "resolve_environments"),
    ("repro.campaign.spec", "resolve_environments"),
    ("repro.campaign.spec", "RunKey.resolve_environments"),
    ("repro.explore.pareto", "hypervolume_3d"),
    ("repro.explore.pareto", "hypervolume"),
]


def _still_present(removed):
    """The ``module.dotted`` names of ``removed`` that still resolve."""
    present = []
    for module, dotted in removed:
        owner = importlib.import_module(module)
        *parents, name = dotted.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        if hasattr(owner, name):
            present.append(f"{module}.{dotted}")
    return present


class TestRemovedIn4:
    def test_removed_names_are_gone(self):
        assert _still_present(REMOVED_IN_4) == []

    def test_evaluator_mode_keyword_is_gone(self):
        from repro.sim.evaluator import ChrysalisEvaluator

        with pytest.raises(TypeError, match="mode"):
            ChrysalisEvaluator(repro.zoo.har_cnn(), mode="step")

    def test_scenario_spec_kind_is_gone_but_the_label_resolves(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="scenario"):
            repro.EnvironmentSpec.create("uav-set", "scenario",
                                         scenario="uav")
        assert repro.environment_by_name("scenario:uav")


#: ``(module, dotted name)`` of every name 5.0 removed (docs/API.md).
REMOVED_IN_5 = [
    ("repro.serve", "request_key"),
]


class TestRemovedIn5:
    def test_removed_names_are_gone(self):
        present = [f"{module}.{name}" for module, name in REMOVED_IN_5
                   if hasattr(importlib.import_module(module), name)]
        assert present == []

    def test_serve_keys_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.serve.keys")


#: ``(module, dotted name)`` of every name 6.0 removed (docs/API.md).
REMOVED_IN_6 = [
    ("repro.environments", "environment_to_dict"),
    ("repro.dataflow", "divisors"),
    ("repro.dataflow", "even_split"),
    ("repro.dataflow", "tile_candidates"),
    ("repro.dataflow.tiling", "divisors"),
    ("repro.dataflow.tiling", "even_split"),
    ("repro.dataflow.tiling", "tile_candidates"),
    ("repro.dataflow.tiling", "tile_space"),
    ("repro.dataflow.mapping", "LayerMapping.validate_for"),
    ("repro.design", "AuTDesign.replace_mapping"),
    ("repro.energy.capacitor", "Capacitor.equilibrium_voltage"),
    ("repro.energy.capacitor", "Capacitor.draw_energy"),
    ("repro.energy.traces", "TraceEnvironment.segment_index"),
    ("repro.hardware.pe_array", "PEArray.peak_macs_per_second"),
    ("repro.hardware.pe_array", "PEArray.total_cache_bytes"),
    ("repro.sim.analytical", "AnalyticalModel.leak_power"),
    ("repro.sim.intermittent", "InferenceController.remaining_tiles"),
    ("repro.sim.trace", "Trace.of_kind"),
    ("repro.workloads.network", "Network.peak_activation_bytes"),
]


class TestRemovedIn6:
    def test_removed_names_are_gone(self):
        assert _still_present(REMOVED_IN_6) == []
