"""Tests for the resumable campaign runner.

A stub runner reuses one real (tiny) CHRYSALIS search result for every
run, so these tests exercise the full store/resume protocol — register,
mark running, record, skip — without paying for a GA search per run.
"""

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec, ObjectiveSpec
from repro.campaign.store import (
    STATUS_DONE,
    STATUS_EXHAUSTED,
    STATUS_FAILED,
    ResultStore,
)
from repro.core.chrysalis import Chrysalis
from repro.errors import ConfigurationError, SearchError
from repro.explore.ga import GAConfig
from repro.explore.objectives import Objective
from repro.workloads import zoo


@pytest.fixture(scope="module")
def solved():
    """One real solution+stats pair, shared by every stubbed run."""
    tool = Chrysalis(zoo.har_cnn(), setup="existing",
                     objective=Objective.lat_sp(),
                     ga_config=GAConfig(population_size=4, generations=2,
                                        seed=0))
    solution = tool.generate()
    return solution, tool.last_result


class StubRunner(CampaignRunner):
    """Counts executions and optionally fails chosen runs."""

    def __init__(self, *args, solved, fail_hashes=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.solved = solved
        self.fail_hashes = set(fail_hashes)
        self.executed_keys = []

    def _execute_run(self, key):
        self.executed_keys.append(key)
        if key.run_hash in self.fail_hashes:
            raise SearchError("stubbed: no feasible design")
        return self.solved


def make_spec(seeds=(0, 1, 2, 3)):
    return CampaignSpec(name="camp", workloads=("har",),
                        objectives=(ObjectiveSpec(kind="lat*sp"),),
                        environments=("indoor",), seeds=seeds,
                        population=4, generations=2)


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "camp.sqlite") as s:
        yield s


class TestRun:
    def test_full_campaign_completes(self, store, solved):
        runner = StubRunner(make_spec(), store, solved=solved)
        progress = runner.run()
        assert (progress.total, progress.skipped) == (4, 0)
        assert (progress.completed, progress.failed) == (4, 0)
        assert progress.remaining == 0
        assert len(runner.executed_keys) == 4
        assert store.status_counts("camp")[STATUS_DONE] == 4

    def test_stored_solution_round_trips(self, store, solved):
        solution, _ = solved
        spec = make_spec(seeds=(0,))
        StubRunner(spec, store, solved=solved).run()
        run = store.runs(status=STATUS_DONE)[0]
        assert run.load_solution() == solution
        assert run.score == solution.score
        assert run.stats is not None and run.stats["hw_evaluations"] >= 1

    def test_progress_callback_sees_every_outcome(self, store, solved):
        seen = []
        StubRunner(make_spec(), store, solved=solved,
                   on_progress=seen.append).run()
        assert len(seen) == 4
        assert all(o.status == STATUS_DONE for o in seen)


class TestOverrides:
    @pytest.mark.parametrize("override", [
        {"max_runs": -1}, {"max_attempts": 0}, {"max_attempts": -1}])
    def test_rejects_overrides_that_run_nothing_sensible(self, store,
                                                         override):
        # max_runs=-1 used to run all but the last pending run
        # (pending[:-1]); a cap below 1 allowed no attempt.
        with pytest.raises(ConfigurationError, match=next(iter(override))):
            CampaignRunner(make_spec(), store, **override)
        assert store.campaigns() == []


class TestResume:
    def test_interrupt_then_resume_skips_completed(self, store, solved):
        spec = make_spec()
        first = StubRunner(spec, store, solved=solved, max_runs=2)
        progress = first.run()
        assert (progress.completed, progress.remaining) == (2, 2)
        assert store.status_counts("camp")[STATUS_DONE] == 2

        # A fresh runner against the same store (as after a crash or a
        # new process) must execute ONLY the two leftover runs.
        second = StubRunner(spec, store, solved=solved)
        progress = second.run()
        assert progress.skipped == 2
        assert progress.completed == 2
        done_first = {k.run_hash for k in first.executed_keys}
        done_second = {k.run_hash for k in second.executed_keys}
        assert done_first.isdisjoint(done_second)
        assert store.status_counts("camp")[STATUS_DONE] == 4

        # A finished campaign re-runs nothing at all.
        third = StubRunner(spec, store, solved=solved)
        progress = third.run()
        assert progress.skipped == 4
        assert third.executed_keys == []

    def test_stale_running_rows_are_rerun(self, store, solved):
        spec = make_spec(seeds=(0, 1))
        keys = spec.expand()
        store.register("camp", keys)
        store.mark_running(keys[0])  # crash leftover
        runner = StubRunner(spec, store, solved=solved)
        assert [k.run_hash for k in runner.pending_runs()] == \
            [k.run_hash for k in keys]
        runner.run()
        assert store.status_counts("camp")[STATUS_DONE] == 2

    def test_failed_runs_are_retried(self, store, solved):
        spec = make_spec(seeds=(0, 1))
        doomed = spec.expand()[0].run_hash
        StubRunner(spec, store, solved=solved,
                   fail_hashes={doomed}).run()
        assert store.status_counts("camp")[STATUS_FAILED] == 1

        StubRunner(spec, store, solved=solved).run()
        assert store.status_counts("camp")[STATUS_DONE] == 2
        assert store.get(doomed).attempts == 2

    def test_retries_stop_at_max_attempts(self, store, solved):
        """A deterministically broken run must not retry forever: after
        ``max_attempts`` invocations it is exhausted and skipped."""
        spec = make_spec(seeds=(0, 1))
        doomed = spec.expand()[0].run_hash
        for _ in range(2):
            runner = StubRunner(spec, store, solved=solved,
                                fail_hashes={doomed}, max_attempts=2)
            runner.run()
        row = store.get(doomed)
        assert row.status == STATUS_EXHAUSTED
        assert row.attempts == 2

        # Re-invoking the campaign executes nothing: the exhausted row
        # is terminal, the done row stays done.
        final = StubRunner(spec, store, solved=solved,
                           fail_hashes={doomed}, max_attempts=2)
        progress = final.run()
        assert final.executed_keys == []
        assert progress.skipped == 2
        counts = store.status_counts("camp")
        assert counts[STATUS_DONE] == 1
        assert counts[STATUS_EXHAUSTED] == 1

    def test_exhausted_surfaces_in_progress_and_outcome(self, store, solved):
        spec = make_spec(seeds=(0,))
        doomed = spec.expand()[0].run_hash
        runner = StubRunner(spec, store, solved=solved,
                            fail_hashes={doomed}, max_attempts=1)
        progress = runner.run()
        assert progress.exhausted == 1
        assert progress.executed[0].status == STATUS_EXHAUSTED
        assert "exhausted" in progress.render()


class TestFailures:
    def test_failed_run_recorded_and_campaign_completes(self, store, solved):
        spec = make_spec()
        doomed = spec.expand()[1].run_hash
        runner = StubRunner(spec, store, solved=solved,
                            fail_hashes={doomed})
        progress = runner.run()
        # The broken run did not kill the campaign...
        assert (progress.completed, progress.failed) == (3, 1)
        assert len(runner.executed_keys) == 4
        # ...and its error is on record.
        row = store.get(doomed)
        assert row.status == STATUS_FAILED
        assert row.error == "SearchError: stubbed: no feasible design"

    def test_programming_errors_propagate(self, store, solved):
        class BrokenRunner(StubRunner):
            def _execute_run(self, key):
                raise TypeError("a genuine bug")

        with pytest.raises(TypeError):
            BrokenRunner(make_spec(seeds=(0,)), store, solved=solved).run()


class TestDeterminism:
    def test_run_keys_hash_identically_across_expansions(self):
        spec = make_spec()
        assert [k.run_hash for k in spec.expand()] == \
            [k.run_hash for k in make_spec().expand()]

    def test_real_search_is_reproducible(self, tmp_path, solved):
        # The same key executed twice (fresh stores) lands the same
        # score — the property that makes content-hashed resume sound.
        spec = make_spec(seeds=(0,))
        scores = []
        for name in ("a", "b"):
            with ResultStore(tmp_path / f"{name}.sqlite") as store:
                CampaignRunner(spec, store).run()
                scores.append(store.runs(status=STATUS_DONE)[0].score)
        assert scores[0] == scores[1]


class TestObservability:
    @pytest.fixture(autouse=True)
    def obs_off(self):
        from repro.obs import state as obs_state
        obs_state.disable()
        obs_state.reset()
        yield
        obs_state.disable()
        obs_state.reset()

    def test_runs_persist_obs_blobs_when_enabled(self, store, solved):
        from repro.obs import state as obs_state
        obs_state.enable()
        StubRunner(make_spec(seeds=(0, 1)), store, solved=solved).run()
        rows = store.runs(status=STATUS_DONE)
        assert len(rows) == 2
        for row in rows:
            roots = row.obs["spans"]["roots"]
            assert [r["name"] for r in roots] == ["campaign.run"]
            assert roots[0]["tags"]["run"] == row.key.run_hash[:12]

    def test_failed_runs_carry_blobs_too(self, store, solved):
        from repro.obs import state as obs_state
        obs_state.enable()
        spec = make_spec(seeds=(0,))
        doomed = spec.expand()[0].run_hash
        StubRunner(spec, store, solved=solved, fail_hashes=(doomed,)).run()
        row = store.get(doomed)
        assert row.status == STATUS_FAILED
        assert row.obs["spans"]["roots"][0]["name"] == "campaign.run"

    def test_disabled_runs_store_no_blob(self, store, solved):
        StubRunner(make_spec(seeds=(0,)), store, solved=solved).run()
        assert store.runs(status=STATUS_DONE)[0].obs is None


class TestParetoCampaign:
    """A real (tiny) multi-objective campaign, end to end."""

    @pytest.fixture(scope="class")
    def pareto_store(self, tmp_path_factory):
        spec = CampaignSpec(
            name="pareto-camp", workloads=("har",),
            objectives=(ObjectiveSpec(kind="pareto"),),
            environments=("indoor",), seeds=(0,),
            population=4, generations=2)
        path = tmp_path_factory.mktemp("pareto") / "camp.sqlite"
        with ResultStore(path) as s:
            CampaignRunner(spec, s).run()
            yield s

    def test_run_completes_and_persists_front(self, pareto_store):
        rows = pareto_store.runs(status=STATUS_DONE)
        assert len(rows) == 1
        front = rows[0].front
        assert front, "pareto run must persist its front"
        for entry in front:
            assert entry["panel_cm2"] > 0
            assert entry["latency_s"] > 0
            assert "design" in entry

    def test_front_is_nondominated(self, pareto_store):
        front = pareto_store.runs(status=STATUS_DONE)[0].front
        points = [(e["panel_cm2"], e["latency_s"]) for e in front]
        for a in points:
            assert not any(b != a and b[0] <= a[0] and b[1] <= a[1]
                           and b < a for b in points)

    def test_front_designs_deserialize(self, pareto_store):
        from repro.serialize import design_from_dict

        front = pareto_store.runs(status=STATUS_DONE)[0].front
        for entry in front:
            design = design_from_dict(dict(entry["design"]))
            assert design.energy.panel_area_cm2 == \
                pytest.approx(entry["panel_cm2"])

    def test_report_computes_hypervolume(self, pareto_store):
        from repro.campaign.report import CampaignReport

        report = CampaignReport.from_store(pareto_store,
                                           hypervolume=True)
        assert report.hypervolume_reference is not None
        summary = report.scenarios[0]
        assert summary.hypervolume is not None
        assert summary.hypervolume > 0
        # The reference sits 10% beyond the nadir of the stored points.
        front = pareto_store.runs(status=STATUS_DONE)[0].front
        worst_panel = max(e["panel_cm2"] for e in front)
        assert report.hypervolume_reference[0] == \
            pytest.approx(1.1 * worst_panel)
        rendered = report.render_markdown()
        assert "hypervolume" in rendered
        assert "Hypervolume reference" in rendered

    def test_report_without_flag_skips_hypervolume(self, pareto_store):
        from repro.campaign.report import CampaignReport

        report = CampaignReport.from_store(pareto_store)
        assert report.hypervolume_reference is None
        assert report.scenarios[0].hypervolume is None
        assert "hypervolume" not in report.render_markdown()
