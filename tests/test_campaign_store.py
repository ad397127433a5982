"""Tests for the SQLite campaign result store."""

import json
import multiprocessing
import sqlite3
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import ObjectiveSpec, RunKey
from repro.campaign.store import (
    STATUS_DONE,
    STATUS_EXHAUSTED,
    STATUS_FAILED,
    STATUS_PENDING,
    STATUS_RUNNING,
    ResultStore,
)
from repro.errors import ChrysalisError, StoreError


def make_key(workload="har", seed=0, **overrides):
    base = dict(workload=workload, setup="existing", environment="paper",
                objective=ObjectiveSpec(kind="lat*sp"), seed=seed,
                population=4, generations=2)
    base.update(overrides)
    return RunKey(**base)


SOLUTION = {"schema_version": 1, "fake": True}


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "camp.sqlite") as s:
        yield s


class TestSchema:
    def test_init_creates_file_and_reopens(self, tmp_path):
        path = tmp_path / "camp.sqlite"
        ResultStore(path).close()
        assert path.exists()
        with ResultStore(path) as store:  # reopen: schema already there
            assert store.status_counts() == {
                STATUS_PENDING: 0, STATUS_RUNNING: 0,
                STATUS_DONE: 0, STATUS_FAILED: 0, STATUS_EXHAUSTED: 0}

    def test_wal_mode(self, store):
        row = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert row[0] == "wal"

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "camp.sqlite"
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE campaign_meta SET value='99' "
                     "WHERE key='schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="schema version"):
            ResultStore(path)

    def test_old_schema_store_is_refused_unchanged(self, tmp_path):
        """A store from an older release raises StoreError naming both
        versions, and opening it writes nothing."""
        dropped = {
            "1": ("obs_json", "lease_owner", "lease_deadline", "retry_at",
                  "attempts_json", "front_json"),
            "3": ("front_json",),
        }
        for version, columns in dropped.items():
            path = tmp_path / f"v{version}.sqlite"
            with ResultStore(path) as store:
                store.record_success(make_key(), score=1.0, panel_cm2=4.0,
                                     latency_s=1.0, solution=SOLUTION,
                                     campaign="camp")
            conn = sqlite3.connect(path)
            if version == "1":
                conn.execute("DROP INDEX idx_runs_lease")
                conn.execute("DROP TABLE workers")
            for column in columns:
                conn.execute(f"ALTER TABLE runs DROP COLUMN {column}")
            conn.execute("UPDATE campaign_meta SET value=? "
                         "WHERE key='schema_version'", (version,))
            conn.commit()
            conn.close()
            before = path.read_bytes()
            with pytest.raises(StoreError,
                               match=f"version '{version}'.*version 4"):
                ResultStore(path)
            assert path.read_bytes() == before

    def test_non_integer_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "camp.sqlite"
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE campaign_meta SET value='v4' "
                     "WHERE key='schema_version'")
        conn.commit()
        conn.close()
        before = path.read_bytes()
        with pytest.raises(StoreError, match="schema version 'v4'"):
            ResultStore(path)
        assert path.read_bytes() == before

    def test_corrupt_file_raises_chrysalis_error(self, tmp_path):
        path = tmp_path / "camp.sqlite"
        path.write_bytes(b"this is definitely not a sqlite database\x00\xff")
        with pytest.raises(StoreError, match="cannot open"):
            ResultStore(path)
        # and StoreError stays catchable through the library base class
        with pytest.raises(ChrysalisError):
            ResultStore(path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            ResultStore(tmp_path / "no" / "such" / "dir" / "c.sqlite")


def _open_at(path, start):
    """Open and close the store at wall-clock ``start`` (pool target)."""
    while time.time() < start:
        pass
    ResultStore(path).close()
    return True


class TestConcurrentFirstOpen:
    def test_processes_opening_a_fresh_file_all_succeed(self, tmp_path):
        """Several processes opening one new file at the same instant
        all succeed and write one version row.  Switching the file to
        WAL used to fail one of them with ``database is locked``."""
        with multiprocessing.get_context("spawn").Pool(4) as pool:
            for trial in range(10):
                path = str(tmp_path / f"c{trial}.sqlite")
                start = time.time() + 0.2
                opened = pool.starmap_async(_open_at, [(path, start)] * 4)
                assert opened.get(timeout=60) == [True] * 4
                conn = sqlite3.connect(path)
                rows = conn.execute("SELECT * FROM campaign_meta").fetchall()
                conn.close()
                assert rows == [("schema_version", "4")]


class TestRegister:
    def test_register_creates_pending_rows(self, store):
        keys = [make_key(seed=s) for s in (0, 1, 2)]
        assert store.register("camp", keys) == 3
        assert store.status_counts("camp")[STATUS_PENDING] == 3

    def test_register_is_idempotent(self, store):
        keys = [make_key(seed=s) for s in (0, 1)]
        store.register("camp", keys)
        assert store.register("camp", keys) == 0

    def test_register_never_demotes_a_done_row(self, store):
        key = make_key()
        store.register("camp", [key])
        store.record_success(key, score=1.0, panel_cm2=4.0, latency_s=1.0,
                             solution=SOLUTION, campaign="camp")
        store.register("camp", [key])
        assert store.get(key.run_hash).status == STATUS_DONE


class TestRecords:
    def test_success_round_trips_payloads(self, store):
        key = make_key()
        store.register("camp", [key])
        store.mark_running(key)
        store.record_success(
            key, score=2.5, panel_cm2=6.0, latency_s=2.5,
            solution=SOLUTION, stats={"hw_evaluations": 8},
            failures=[{"family": "MappingError"}],
            wall_seconds=1.25, campaign="camp")
        run = store.get(key.run_hash)
        assert run.status == STATUS_DONE
        assert run.score == 2.5
        assert run.solution == SOLUTION
        assert run.stats == {"hw_evaluations": 8}
        assert run.failures == [{"family": "MappingError"}]
        assert run.wall_seconds == 1.25
        assert run.attempts == 1
        assert run.key == key

    def test_success_upsert_is_idempotent(self, store):
        key = make_key()
        for _ in range(2):
            store.record_success(key, score=1.0, panel_cm2=4.0,
                                 latency_s=1.0, solution=SOLUTION,
                                 campaign="camp")
        assert store.status_counts("camp")[STATUS_DONE] == 1

    def test_success_without_register_inserts(self, store):
        key = make_key()
        store.record_success(key, score=1.0, panel_cm2=4.0, latency_s=1.0,
                             solution=SOLUTION, campaign="camp")
        assert store.get(key.run_hash).status == STATUS_DONE

    def test_failure_recorded_with_error(self, store):
        key = make_key()
        store.register("camp", [key])
        store.record_failure(key, error="SearchError: no feasible design",
                             wall_seconds=0.5, campaign="camp")
        run = store.get(key.run_hash)
        assert run.status == STATUS_FAILED
        assert "no feasible design" in run.error
        assert run.solution is None

    def test_mark_running_counts_attempts(self, store):
        key = make_key()
        store.register("camp", [key])
        store.mark_running(key)
        store.mark_running(key)
        run = store.get(key.run_hash)
        assert run.status == STATUS_RUNNING
        assert run.attempts == 2


class TestQueries:
    def _fill(self, store):
        done = make_key(seed=0)
        failed = make_key(seed=1)
        pending = make_key(seed=2)
        store.register("camp", [done, failed, pending])
        store.record_success(done, score=1.0, panel_cm2=2.0, latency_s=1.0,
                             solution=SOLUTION, campaign="camp")
        store.record_failure(failed, error="boom", campaign="camp")
        return done, failed, pending

    def test_runs_filter_by_status(self, store):
        done, failed, pending = self._fill(store)
        assert [r.run_hash for r in store.runs(status=STATUS_DONE)] == \
            [done.run_hash]
        assert [r.run_hash for r in store.runs(status=STATUS_FAILED)] == \
            [failed.run_hash]
        assert len(store.runs(campaign="camp")) == 3
        assert store.runs(campaign="other") == []

    def test_unknown_status_rejected(self, store):
        with pytest.raises(StoreError, match="status"):
            store.runs(status="exploded")

    def test_status_counts(self, store):
        self._fill(store)
        assert store.status_counts("camp") == {
            STATUS_PENDING: 1, STATUS_RUNNING: 0,
            STATUS_DONE: 1, STATUS_FAILED: 1, STATUS_EXHAUSTED: 0}

    def test_campaigns_listing(self, store):
        self._fill(store)
        store.register("other", [make_key(workload="kws")])
        assert store.campaigns() == ["camp", "other"]


class TestParetoSlices:
    def test_slice_is_non_dominated_subset(self, store):
        points = {0: (2.0, 5.0),   # front
                  1: (4.0, 1.0),   # front
                  2: (4.0, 6.0)}   # dominated by seed 0
        for seed, (panel, latency) in points.items():
            key = make_key(seed=seed)
            store.record_success(key, score=latency, panel_cm2=panel,
                                 latency_s=latency, solution=SOLUTION,
                                 campaign="camp")
        assert len(store.pareto_points("camp")) == 3
        front = store.pareto_slice("camp")
        assert [p.values for p in front] == [(2.0, 5.0), (4.0, 1.0)]
        # Payloads lead back to the stored rows.
        assert front[0].payload.solution == SOLUTION

    def test_failed_runs_contribute_nothing(self, store):
        store.record_failure(make_key(), error="boom", campaign="camp")
        assert store.pareto_points("camp") == []


class TestObsBlobs:
    def test_success_blob_round_trips(self, store):
        blob = {"version": 1, "profile": True,
                "metrics": {"counters": {"sim.steps": 42.0}},
                "spans": {"count": 1, "dropped": 0,
                          "roots": [{"name": "campaign.run",
                                     "duration": 0.5}]}}
        store.record_success(make_key(), score=1.0, panel_cm2=4.0,
                             latency_s=1.0, solution=SOLUTION,
                             campaign="camp", obs=blob)
        row = store.runs()[0]
        assert row.obs == blob

    def test_failure_blob_round_trips(self, store):
        blob = {"version": 1, "metrics": {}, "spans": {"roots": []}}
        store.record_failure(make_key(), error="boom", campaign="camp",
                             obs=blob)
        assert store.runs()[0].obs == blob

    def test_blob_defaults_to_none(self, store):
        store.record_success(make_key(), score=1.0, panel_cm2=4.0,
                             latency_s=1.0, solution=SOLUTION,
                             campaign="camp")
        assert store.runs()[0].obs is None


def _truncate(path, run_hash, column, text=None):
    """Cut the last character off one JSON column (or set ``text``)."""
    conn = sqlite3.connect(path)
    if text is None:
        conn.execute(f"UPDATE runs SET {column}=substr({column}, 1, "
                     f"length({column}) - 1) WHERE run_hash=?", (run_hash,))
    else:
        conn.execute(f"UPDATE runs SET {column}=? WHERE run_hash=?",
                     (text, run_hash))
    conn.commit()
    conn.close()


def _spec_text(drop=(), **changes):
    """``spec_json`` text of ``make_key()`` without the ``drop`` fields
    and with ``changes`` applied."""
    spec = {name: value for name, value in make_key().as_dict().items()
            if name not in drop}
    spec.update(changes)
    return json.dumps(spec)


class TestWrongShapedRows:
    """JSON that decodes to the wrong shape is a StoreError naming the
    run and column from every reader of that column, and a transaction
    that meets it leaves the row as it was."""

    @pytest.mark.parametrize("column, text", [
        pytest.param("spec_json", _spec_text(seed="x"),
                     id="seed-not-an-integer"),
        pytest.param("spec_json", _spec_text(drop=("setup",)),
                     id="missing-field"),
        pytest.param("spec_json", _spec_text(objective={"kind": "wat"}),
                     id="unknown-objective-kind"),
        pytest.param("spec_json", _spec_text(candidate_time_budget_s="soon"),
                     id="non-numeric-budget"),
        pytest.param("attempts_json", "{}", id="attempts-object"),
        pytest.param("attempts_json", "5", id="attempts-number"),
        pytest.param("attempts_json", '"x"', id="attempts-string"),
    ])
    def test_every_reader_raises_store_error(self, tmp_path, column, text):
        path = tmp_path / "camp.sqlite"
        key = make_key()
        with ResultStore(path) as store:
            store.register("camp", [key])
            store.claim("camp", "w1", ttl_s=10.0, now=0.0)
        _truncate(path, key.run_hash, column, text=text)
        readers = [lambda store: store.get(key.run_hash),
                   lambda store: store.runs(),
                   lambda store: store.claim("camp", "w2", now=100.0)]
        if column == "attempts_json":
            readers += [
                lambda store: store.reap_stale(now=100.0),
                lambda store: store.record_success(
                    key, score=1.0, panel_cm2=4.0, latency_s=1.0,
                    solution=SOLUTION, campaign="camp"),
                lambda store: store.record_failure(key, "boom",
                                                   campaign="camp"),
            ]
        with ResultStore(path) as store:
            before = [tuple(row) for row in
                      store._conn.execute("SELECT * FROM runs")]
            for read in readers:
                with pytest.raises(StoreError,
                                   match=f"{key.run_hash}.*{column}"):
                    read(store)
            assert [tuple(row) for row in
                    store._conn.execute("SELECT * FROM runs")] == before


class TestCorruptRows:
    """A store file is input from outside the program: a JSON column
    that does not decode is a StoreError naming the run and column."""

    @pytest.mark.parametrize("column", [
        "solution_json", "stats_json", "failures_json", "obs_json",
        "attempts_json", "front_json"])
    def test_runs_rejects_unreadable_column(self, tmp_path, column):
        path = tmp_path / "camp.sqlite"
        key = make_key()
        with ResultStore(path) as store:
            store.record_success(
                key, score=1.0, panel_cm2=4.0, latency_s=1.0,
                solution=SOLUTION, stats={"hw_evaluations": 3},
                failures=[{"family": "MappingError"}], campaign="camp",
                obs={"version": 1}, front=[{"panel_cm2": 4.0}])
        _truncate(path, key.run_hash, column)
        with ResultStore(path) as store:
            with pytest.raises(StoreError,
                               match=f"{key.run_hash}.*{column}"):
                store.runs()

    def test_claim_rejects_unreadable_history_and_rolls_back(self,
                                                             tmp_path):
        path = tmp_path / "camp.sqlite"
        key = make_key()
        with ResultStore(path) as store:
            store.register("camp", [key])
        _truncate(path, key.run_hash, "attempts_json", text='[{"attempt"')
        with ResultStore(path) as store:
            with pytest.raises(StoreError,
                               match=f"{key.run_hash}.*attempts_json"):
                store.claim("camp", "w1")
            row = store._conn.execute(
                "SELECT status, attempts, lease_owner FROM runs").fetchone()
            assert tuple(row) == (STATUS_PENDING, 0, None)

    def test_record_success_rejects_unreadable_history(self, tmp_path):
        path = tmp_path / "camp.sqlite"
        key = make_key()
        with ResultStore(path) as store:
            store.register("camp", [key])
            store.mark_running(key)
        _truncate(path, key.run_hash, "attempts_json", text='[{"attempt"')
        with ResultStore(path) as store:
            with pytest.raises(StoreError,
                               match=f"{key.run_hash}.*attempts_json"):
                store.record_success(key, score=1.0, panel_cm2=4.0,
                                     latency_s=1.0, solution=SOLUTION,
                                     campaign="camp")
            row = store._conn.execute(
                "SELECT status, solution_json FROM runs").fetchone()
            assert tuple(row) == (STATUS_RUNNING, None)


def _read_everything(store):
    """Every read ``campaign status --runs`` and ``campaign report`` make."""
    store.campaigns()
    store.status_counts()
    store.unfinished_count("camp")
    store.workers_status("camp")
    store.pareto_points("camp")
    for run in store.runs("camp"):
        store.get(run.run_hash)


@pytest.fixture(scope="module")
def pristine_store(tmp_path_factory):
    """A closed 40-row store file with 15 done rows and one worker."""
    path = tmp_path_factory.mktemp("pristine") / "camp.sqlite"
    keys = [make_key(seed=seed) for seed in range(40)]
    with ResultStore(path, clock=lambda: 1000.0) as store:
        store.register("camp", keys)
        store.register_worker("w1", "camp", pid=1, host="h")
        for index, key in enumerate(keys[:15]):
            store.record_success(
                key, score=1.0 + index, panel_cm2=4.0 + index,
                latency_s=0.5, solution=SOLUTION,
                stats={"hw_evaluations": index}, failures=[],
                campaign="camp", obs={"version": 1})
    return path


def _damage(data, draw):
    """A truncation, 1-19 bit flips, or a run of up to 4 KiB overwritten."""
    damaged = bytearray(data)
    kind = draw(st.sampled_from(["truncate", "flip", "overwrite"]))
    if kind == "truncate":
        return bytes(damaged[:draw(st.integers(0, len(data) - 1))])
    if kind == "flip":
        flips = draw(st.lists(st.tuples(st.integers(0, len(data) - 1),
                                        st.integers(0, 7)),
                              min_size=1, max_size=19))
        for at, bit in flips:
            damaged[at] ^= 1 << bit
        return bytes(damaged)
    at = draw(st.integers(0, len(data) - 1))
    run = draw(st.binary(min_size=1, max_size=4096))[:len(data) - at]
    damaged[at:at + len(run)] = run
    return bytes(damaged)


class TestCorruptFiles:
    """A damaged store file raises StoreError from open or from any
    reader, never sqlite3's or Python's own exceptions, and a refused
    file keeps its bytes."""

    @pytest.mark.parametrize("damage", [
        pytest.param("UPDATE runs SET solution_json = "
                     "CAST(X'7BFF7D' AS TEXT)", id="text-column-not-utf8"),
        pytest.param("UPDATE runs SET status = CAST(X'FF' AS TEXT)",
                     id="status-not-utf8"),
        pytest.param("ALTER TABLE runs RENAME COLUMN solution_json "
                     "TO solution_jsox", id="column-renamed"),
        pytest.param("UPDATE sqlite_master SET sql = sql || "
                     "CAST(X'FF' AS TEXT) WHERE name='workers'",
                     id="schema-text-not-utf8"),
        pytest.param("DELETE FROM campaign_meta", id="version-row-lost"),
    ])
    def test_damaged_file_raises_store_error(self, tmp_path, damage):
        path = tmp_path / "camp.sqlite"
        with ResultStore(path) as store:
            store.record_success(make_key(), score=1.0, panel_cm2=4.0,
                                 latency_s=1.0, solution=SOLUTION,
                                 campaign="camp")
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA writable_schema=ON")
        conn.execute(damage)
        conn.commit()
        conn.close()
        before = path.read_bytes()
        with pytest.raises(StoreError, match="camp.sqlite"):
            with ResultStore(path) as store:
                _read_everything(store)
        assert path.read_bytes() == before

    @given(data=st.data())
    @settings(max_examples=150, deadline=5000, derandomize=True)
    def test_fuzzed_file_raises_only_store_error(self, pristine_store,
                                                 data):
        damaged = _damage(pristine_store.read_bytes(), data.draw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "camp.sqlite"
            path.write_bytes(damaged)
            try:
                with ResultStore(path) as store:
                    _read_everything(store)
            except StoreError:
                assert path.read_bytes() == damaged
