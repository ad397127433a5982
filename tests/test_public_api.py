"""API-surface snapshot tests for the curated top-level package.

``repro.__all__`` is the blessed surface: this file pins it exactly, so
widening or shrinking the public API is always a reviewed, deliberate
diff of the snapshot below.  The demoted names must keep importing —
via PEP 562 shims that warn exactly once per process and name their
canonical new home.
"""

import os
import pathlib
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

DEPRECATED = sorted(repro._DEPRECATED)


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

    def test_no_overlap_between_blessed_and_deprecated(self):
        assert not set(PUBLIC_API) & set(DEPRECATED)

    def test_dir_lists_shims(self):
        listing = dir(repro)
        for name in DEPRECATED:
            assert name in listing

    @pytest.mark.parametrize("module", ["multiprocessing", "numpy"])
    def test_import_does_not_load(self, module):
        # GA generations are evaluated in-process (no multiprocessing,
        # ~16 ms and ~1.4 MB per process), and pricing and the batched
        # search are plain Python (numpy loads only for the surrogate
        # and guided search).
        script = ("import sys, repro, repro.explore, repro.campaign, "
                  "repro.api, repro.serve, repro.cli, "
                  "repro.explore.batch_eval; "
                  f"print({module!r} in sys.modules)")
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.stdout.strip() == "False"


class TestShims:
    @pytest.mark.parametrize("name", DEPRECATED)
    def test_shim_resolves_to_canonical_object(self, name):
        import importlib

        module_name, attribute = repro._DEPRECATED[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            repro.__dict__.pop(name, None)  # force the __getattr__ path
            value = getattr(repro, name)
        canonical = getattr(importlib.import_module(module_name), attribute)
        assert value is canonical

    def test_shim_warns_exactly_once(self):
        name = "WorkloadMix"
        repro.__dict__.pop(name, None)
        repro._warned.discard(name)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            getattr(repro, name)
            # Cached after the first hit: no second warning, ever.
            repro.__dict__.pop(name, None)
            getattr(repro, name)
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, DeprecationWarning)]
        assert messages == [
            "repro.WorkloadMix is deprecated; import it from "
            "repro.sim.mix instead"]

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="does_not_exist"):
            repro.does_not_exist


class TestCliDeprecations:
    def test_search_json_flag_warns_once(self):
        from repro import cli

        parser = cli.build_parser()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args = parser.parse_args(["search", "har", "--json", "x.json"])
        assert args.output == "x.json"
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, DeprecationWarning)]
        assert messages == ["--json is deprecated; use --output"]

    def test_search_output_flag_is_silent(self):
        from repro import cli

        parser = cli.build_parser()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            args = parser.parse_args(["search", "har", "--output", "x.json"])
        assert args.output == "x.json"
