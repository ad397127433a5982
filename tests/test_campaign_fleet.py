"""Tests for lease-based fleet execution (store layer + worker loop).

Every lease-timing assertion runs against an injected fake clock — no
test here sleeps to make a lease expire, so the "a dead worker's runs
re-queue within one TTL" bound is asserted exactly, not approximately.
"""

import json
import math
import sqlite3
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.fleet import (
    CampaignWorker,
    FleetConfig,
    retry_delay_s,
)
from repro.campaign.runner import CampaignRunner, execute_search
from repro.campaign.spec import CampaignSpec, ObjectiveSpec, RunKey
from repro.campaign.store import (
    STATUS_DONE,
    STATUS_EXHAUSTED,
    STATUS_PENDING,
    STATUS_RUNNING,
    ResultStore,
)
from repro.dataflow.cost_model import clear_layer_cost_cache
from repro.errors import (
    ChrysalisError,
    ConfigurationError,
    SearchError,
    StoreError,
)
from repro.explore.mapper_search import clear_mapper_memo


def make_key(workload="har", seed=0, **overrides):
    base = dict(workload=workload, setup="existing", environment="paper",
                objective=ObjectiveSpec(kind="lat*sp"), seed=seed,
                population=4, generations=2)
    base.update(overrides)
    return RunKey(**base)


def make_spec(runs=2, name="fleet", max_attempts=3):
    return CampaignSpec(
        name=name, workloads=("har",), setups=("existing",),
        environments=("indoor",),
        objectives=(ObjectiveSpec(kind="lat*sp"),),
        seeds=tuple(range(runs)), population=4, generations=2,
        max_attempts=max_attempts)


SOLUTION = {"schema_version": 1, "fake": True}
TTL = 10.0


class FakeClock:
    def __init__(self, now=1_000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def store(clock):
    with ResultStore(":memory:", clock=clock) as s:
        yield s


def fill(store, seeds=(0, 1, 2)):
    keys = [make_key(seed=s) for s in seeds]
    store.register("camp", keys)
    return keys


class TestFleetConfig:
    def test_heartbeat_defaults_to_quarter_ttl(self):
        assert FleetConfig(lease_ttl_s=8.0).heartbeat_interval_s == 2.0
        assert FleetConfig(heartbeat_s=0.5).heartbeat_interval_s == 0.5

    def test_rejects_nonsensical_values(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(lease_ttl_s=0.0)
        with pytest.raises(ConfigurationError):
            FleetConfig(poll_s=-1.0)
        with pytest.raises(ConfigurationError):
            FleetConfig(lease_ttl_s=2.0, heartbeat_s=2.0)

    @pytest.mark.parametrize("field", [
        "lease_ttl_s", "heartbeat_s", "poll_s", "backoff_base_s",
        "backoff_cap_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_seconds_that_are_not_positive_and_finite(self, field,
                                                              value):
        # claim(ttl_s=nan) wrote a NULL lease deadline, so a second
        # worker claimed the live run at once.
        with pytest.raises(ConfigurationError, match=field):
            FleetConfig(**{field: value})

    @pytest.mark.parametrize("max_attempts", [0, -1])
    def test_rejects_a_retry_cap_below_one(self, max_attempts):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            FleetConfig(max_attempts=max_attempts)

    def test_attempts_cap_prefers_override(self):
        spec = make_spec(max_attempts=5)
        assert FleetConfig().attempts_cap(spec) == 5
        assert FleetConfig(max_attempts=2).attempts_cap(spec) == 2


class TestRetryDelay:
    def test_deterministic_per_hash_and_attempt(self):
        config = FleetConfig()
        assert retry_delay_s("abc", 2, config) == \
            retry_delay_s("abc", 2, config)
        assert retry_delay_s("abc", 2, config) != \
            retry_delay_s("abc", 3, config)

    def test_exponential_with_jitter_bounds(self):
        config = FleetConfig(backoff_base_s=1.0, backoff_cap_s=1000.0)
        for attempt in range(1, 8):
            delay = retry_delay_s("deadbeef", attempt, config)
            raw = 2.0 ** (attempt - 1)
            assert 0.75 * raw <= delay <= 1.25 * raw

    def test_cap(self):
        config = FleetConfig(backoff_base_s=1.0, backoff_cap_s=4.0)
        assert retry_delay_s("deadbeef", 50, config) <= 4.0 * 1.25


class TestClaim:
    def test_claim_leases_in_grid_order(self, store, clock):
        keys = fill(store)
        row = store.claim("camp", "w1", ttl_s=TTL)
        assert row.run_hash == keys[0].run_hash
        assert row.status == STATUS_RUNNING
        assert row.lease_owner == "w1"
        assert row.lease_deadline == clock.now + TTL
        assert row.attempts == 1

    def test_two_workers_claim_distinct_runs(self, store):
        fill(store, seeds=(0, 1))
        first = store.claim("camp", "w1", ttl_s=TTL)
        second = store.claim("camp", "w2", ttl_s=TTL)
        assert first.run_hash != second.run_hash
        assert store.claim("camp", "w3", ttl_s=TTL) is None

    def test_expired_lease_is_claimable_and_audited(self, store, clock):
        fill(store, seeds=(0,))
        row = store.claim("camp", "w1", ttl_s=TTL)
        clock.advance(TTL + 0.001)
        taken = store.claim("camp", "w2", ttl_s=TTL)
        assert taken.run_hash == row.run_hash
        assert taken.lease_owner == "w2"
        assert taken.attempts == 2
        lost = [e for e in taken.attempt_history if e["outcome"] == "lost"]
        assert lost and lost[0]["worker"] == "w1"

    def test_live_lease_is_not_claimable(self, store, clock):
        fill(store, seeds=(0,))
        store.claim("camp", "w1", ttl_s=TTL)
        clock.advance(TTL - 0.001)  # one tick short of expiry
        assert store.claim("camp", "w2", ttl_s=TTL) is None

    def test_failed_run_respects_retry_backoff(self, store, clock):
        [key] = fill(store, seeds=(0,))
        store.claim("camp", "w1", ttl_s=TTL)
        store.record_failure(key, error="boom", campaign="camp",
                             worker_id="w1", max_attempts=3,
                             retry_delay_s=5.0)
        assert store.claim("camp", "w1", ttl_s=TTL) is None
        clock.advance(5.0)
        assert store.claim("camp", "w1", ttl_s=TTL).run_hash == key.run_hash

    def test_spent_failed_run_is_not_claimable(self, store):
        [key] = fill(store, seeds=(0,))
        for _ in range(2):
            store.claim("camp", "w1", ttl_s=TTL)
            store.record_failure(key, error="boom", campaign="camp",
                                 worker_id="w1", retry_delay_s=0.0)
        assert store.get(key.run_hash).attempts == 2
        assert store.claim("camp", "w1", ttl_s=TTL, max_attempts=2) is None

    def test_spent_expired_lease_is_not_claimable(self, store, clock):
        # A run that kills every worker that claims it: each lease
        # expires.  Claiming must stop at the cap, as for a failed row,
        # and leave the spent row for reap_stale to exhaust.
        [key] = fill(store, seeds=(0,))
        claimed = 0
        for _ in range(5):
            if store.claim("camp", "w1", ttl_s=TTL,
                           max_attempts=2) is not None:
                claimed += 1
            clock.advance(TTL + 0.001)
        assert claimed == 2
        assert store.get(key.run_hash).attempts == 2
        assert store.reap_stale("camp", max_attempts=2) == [key.run_hash]
        row = store.get(key.run_hash)
        assert row.status == STATUS_EXHAUSTED
        assert [e["outcome"] for e in row.attempt_history] == ["lost"] * 2


class TestHeartbeat:
    def test_extends_deadline_monotonically(self, store, clock):
        [key] = fill(store, seeds=(0,))
        store.claim("camp", "w1", ttl_s=TTL)
        clock.advance(4.0)
        assert store.heartbeat("w1", key.run_hash, ttl_s=TTL)
        assert store.get(key.run_hash).lease_deadline == clock.now + TTL
        # A shorter extension never moves the deadline backwards.
        assert store.heartbeat("w1", key.run_hash, ttl_s=1.0)
        assert store.get(key.run_hash).lease_deadline == clock.now + TTL

    def test_returns_false_after_lease_lost(self, store, clock):
        [key] = fill(store, seeds=(0,))
        store.claim("camp", "w1", ttl_s=TTL)
        clock.advance(TTL + 1.0)
        store.claim("camp", "w2", ttl_s=TTL)
        assert store.heartbeat("w1", key.run_hash, ttl_s=TTL) is False
        # ... and the failed beat did not touch w2's lease.
        assert store.get(key.run_hash).lease_owner == "w2"

    def test_idle_heartbeat_keeps_worker_alive(self, store, clock):
        store.register_worker("w1", "camp", lease_ttl_s=TTL)
        clock.advance(3 * TTL)
        assert not store.workers_status("camp")[0].alive
        store.heartbeat("w1")
        assert store.workers_status("camp")[0].alive


class TestTtlValidation:
    @pytest.mark.parametrize("ttl_s", [math.nan, math.inf, 0.0, -1.0])
    def test_claim_and_heartbeat_refuse_before_writing(self, store, ttl_s):
        # claim(ttl_s=nan) wrote a NULL lease deadline, so a second
        # worker could claim the live run at once.
        [key] = fill(store, seeds=(0,))
        store.register_worker("w1", "camp", lease_ttl_s=TTL)
        pending = store.get(key.run_hash)
        with pytest.raises(ConfigurationError, match="ttl_s"):
            store.claim("camp", "w1", ttl_s=ttl_s)
        assert store.get(key.run_hash) == pending
        store.claim("camp", "w1", ttl_s=TTL)
        held = store.get(key.run_hash)
        workers = store.workers_status("camp")
        with pytest.raises(ConfigurationError, match="ttl_s"):
            store.heartbeat("w1", key.run_hash, ttl_s=ttl_s)
        assert store.get(key.run_hash) == held
        assert store.workers_status("camp") == workers


class TestReap:
    def test_reclaimed_within_exactly_one_ttl(self, store, clock):
        """The recovery bound: a dead worker's lease is reclaimable at
        claim-time + TTL, not a moment later."""
        [key] = fill(store, seeds=(0,))
        store.claim("camp", "w1", ttl_s=TTL)
        clock.advance(TTL - 0.001)
        assert store.reap_stale("camp") == []
        clock.advance(0.001)  # exactly one TTL after the claim
        assert store.reap_stale("camp") == [key.run_hash]
        assert store.get(key.run_hash).status == STATUS_PENDING
        assert store.get(key.run_hash).lease_owner is None

    def test_reaped_run_is_immediately_claimable(self, store, clock):
        [key] = fill(store, seeds=(0,))
        store.claim("camp", "w1", ttl_s=TTL)
        clock.advance(TTL)
        store.reap_stale("camp")
        taken = store.claim("camp", "w2", ttl_s=TTL)
        assert taken.run_hash == key.run_hash
        assert taken.attempts == 2

    def test_reap_exhausts_spent_rows(self, store, clock):
        [key] = fill(store, seeds=(0,))
        for _ in range(2):
            store.claim("camp", "w1", ttl_s=TTL)
            clock.advance(TTL)
            reaped = store.reap_stale("camp", max_attempts=2)
        assert reaped == [key.run_hash]
        run = store.get(key.run_hash)
        assert run.status == STATUS_EXHAUSTED
        assert "lease expired" in run.error

    def test_requeue_keeps_the_error_and_exhaustion_sets_it(self, store,
                                                             clock):
        [key] = fill(store, seeds=(0,))
        store.claim("camp", "w1", ttl_s=TTL)
        store.record_failure(key, "SearchError: first", worker_id="w1",
                             max_attempts=3)
        for expected in [(STATUS_PENDING, "SearchError: first"),
                         (STATUS_EXHAUSTED,
                          "lease expired after 3 attempt(s)")]:
            store.claim("camp", "w1", ttl_s=TTL)
            clock.advance(TTL)
            assert store.reap_stale("camp", max_attempts=3) == [key.run_hash]
            run = store.get(key.run_hash)
            assert (run.status, run.error) == expected
        assert [(entry["attempt"], entry["outcome"])
                for entry in run.attempt_history] == [
            (1, "failed"), (2, "lost"), (3, "lost")]

    def test_reap_is_idempotent(self, store, clock):
        fill(store, seeds=(0,))
        store.claim("camp", "w1", ttl_s=TTL)
        clock.advance(TTL)
        assert len(store.reap_stale("camp")) == 1
        assert store.reap_stale("camp") == []


class TestLeaseGuard:
    def test_stale_writer_is_dropped(self, store, clock):
        """A worker that lost its lease cannot clobber the reclaimant."""
        [key] = fill(store, seeds=(0,))
        store.claim("camp", "w1", ttl_s=TTL)
        clock.advance(TTL + 1.0)
        store.claim("camp", "w2", ttl_s=TTL)  # takeover
        assert store.record_success(
            key, score=1.0, panel_cm2=4.0, latency_s=1.0,
            solution=SOLUTION, campaign="camp", worker_id="w1") is False
        assert store.get(key.run_hash).status == STATUS_RUNNING
        assert store.record_success(
            key, score=1.0, panel_cm2=4.0, latency_s=1.0,
            solution=SOLUTION, campaign="camp", worker_id="w2") is True
        assert store.get(key.run_hash).status == STATUS_DONE

    def test_late_write_after_completion_is_dropped(self, store, clock):
        [key] = fill(store, seeds=(0,))
        store.claim("camp", "w1", ttl_s=TTL)
        clock.advance(TTL + 1.0)
        store.claim("camp", "w2", ttl_s=TTL)
        store.record_success(key, score=1.0, panel_cm2=4.0, latency_s=1.0,
                             solution=SOLUTION, campaign="camp",
                             worker_id="w2")
        assert store.record_failure(key, error="late", campaign="camp",
                                    worker_id="w1") is None
        assert store.get(key.run_hash).status == STATUS_DONE


class TestExhaustAndCounts:
    def test_exhaust_spent_flips_failed_rows(self, store):
        [key] = fill(store, seeds=(0,))
        store.claim("camp", "w1", ttl_s=TTL)
        store.record_failure(key, error="boom", campaign="camp",
                             worker_id="w1")
        assert store.exhaust_spent("camp", max_attempts=1) == [key.run_hash]
        assert store.get(key.run_hash).status == STATUS_EXHAUSTED
        assert store.exhaust_spent("camp", max_attempts=1) == []

    def test_unfinished_ignores_terminal_rows(self, store):
        keys = fill(store, seeds=(0, 1, 2))
        assert store.unfinished_count("camp") == 3
        store.record_success(keys[0], score=1.0, panel_cm2=4.0,
                             latency_s=1.0, solution=SOLUTION,
                             campaign="camp")
        store.claim("camp", "w1", ttl_s=TTL)
        store.record_failure(keys[1], error="boom", campaign="camp",
                             worker_id="w1", max_attempts=1)
        assert store.get(keys[1].run_hash).status == STATUS_EXHAUSTED
        assert store.unfinished_count("camp") == 1

    def test_workers_status_liveness(self, store, clock):
        store.register_worker("w1", "camp", pid=42, lease_ttl_s=TTL)
        store.register_worker("w2", "camp", lease_ttl_s=TTL)
        store.retire_worker("w2")
        clock.advance(2 * TTL + 0.001)
        by_id = {w.worker_id: w for w in store.workers_status("camp")}
        assert by_id["w1"].alive is False  # silent past two TTLs: dead
        assert by_id["w2"].alive is False
        assert by_id["w2"].retired_at is not None


class _FlakyConnection:
    """Proxy that injects 'database is locked' on the first N writes."""

    def __init__(self, conn, failures):
        self._conn = conn
        self.failures = failures
        self.locked_raised = 0

    def execute(self, sql, *args):
        if sql.startswith("BEGIN") and self.failures > 0:
            self.failures -= 1
            self.locked_raised += 1
            raise sqlite3.OperationalError("database is locked")
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestLockRetry:
    def test_bounded_retry_rides_out_contention(self, store, monkeypatch):
        monkeypatch.setattr("repro.campaign.store.time.sleep",
                            lambda _s: None)
        flaky = _FlakyConnection(store._conn, failures=3)
        store._conn = flaky
        assert store.register("camp", [make_key()]) == 1
        assert flaky.locked_raised == 3

    def test_persistent_lock_becomes_store_error(self, store, monkeypatch):
        monkeypatch.setattr("repro.campaign.store.time.sleep",
                            lambda _s: None)
        store._conn = _FlakyConnection(store._conn, failures=10 ** 9)
        with pytest.raises(StoreError, match="locked"):
            store.register("camp", [make_key()])


class TestWorkerLoop:
    """CampaignWorker integration against a real (tiny) search."""

    def _config(self):
        return FleetConfig(lease_ttl_s=TTL, heartbeat_s=0.05, poll_s=0.02,
                           backoff_base_s=0.01, backoff_cap_s=0.02)

    def test_two_workers_one_store_no_double_execution(self, tmp_path):
        spec = make_spec(runs=4, name="contend")
        path = tmp_path / "contend.sqlite"
        lock = threading.Lock()
        executions = []

        def tracked(key):
            start = time.monotonic()
            result = execute_search(key)
            with lock:
                executions.append((key.run_hash, start, time.monotonic()))
            return result

        workers = [CampaignWorker(spec, path, worker_id=f"w{i}",
                                  config=self._config(), execute=tracked)
                   for i in range(2)]
        threads = [threading.Thread(target=w.run) for w in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        with ResultStore(path) as store:
            counts = store.status_counts("contend")
            assert counts[STATUS_DONE] == 4
            assert store.unfinished_count("contend") == 0
        hashes = [run_hash for run_hash, _, _ in executions]
        assert sorted(hashes) == sorted(k.run_hash for k in spec.expand())
        assert len(set(hashes)) == len(hashes)  # nothing ran twice

    def test_failing_run_exhausts_and_worker_terminates(self, tmp_path):
        spec = make_spec(runs=2, name="flaky", max_attempts=2)
        path = tmp_path / "flaky.sqlite"
        doomed = spec.expand()[0].run_hash

        def execute(key):
            if key.run_hash == doomed:
                raise ChrysalisError("no feasible design")
            return execute_search(key)

        summary = CampaignWorker(spec, path, worker_id="w0",
                                 config=self._config(),
                                 execute=execute).run()
        assert summary.done == 1
        assert summary.failed == 2  # max_attempts burned
        with ResultStore(path) as store:
            assert store.get(doomed).status == STATUS_EXHAUSTED
            assert store.status_counts("flaky")[STATUS_DONE] == 1
            history = store.get(doomed).attempt_history
            assert [e["outcome"] for e in history] == ["failed", "exhausted"]


class TestHeartbeatThread:
    def test_worker_killed_by_a_bug_stops_heartbeating(self, tmp_path):
        """A worker whose ``execute`` raises a programming error dies
        with it; its heartbeat thread must stop too, or it keeps
        extending the lease and no other worker can ever take the run."""
        ttl = 0.5
        spec = make_spec(runs=1, name="buggy")
        path = tmp_path / "buggy.sqlite"
        config = FleetConfig(lease_ttl_s=ttl, heartbeat_s=0.05, poll_s=0.02)

        def execute(key):
            time.sleep(0.2)  # a few beats while the run is held
            raise TypeError("a bug, not a ChrysalisError")

        raised = []

        def run_worker():
            try:
                CampaignWorker(spec, path, worker_id="buggy-w0",
                               config=config, execute=execute).run()
            except TypeError as error:
                raised.append(error)

        thread = threading.Thread(target=run_worker)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive() and len(raised) == 1
        assert "lease-heartbeat-buggy-w0" not in [
            t.name for t in threading.enumerate()]
        time.sleep(ttl)  # one TTL after the worker's last beat
        with ResultStore(path) as store:
            taken = store.claim("buggy", "buggy-w1", ttl_s=TTL)
        assert taken is not None and taken.attempts == 2


#: ``stats_json`` entries that are wall-clock measurements.
WALL_CLOCK_STATS = ("eval_seconds", "search_seconds", "evals_per_second")


def stored_row(path, run_hash):
    """What must not depend on who ran a run: every result column, the
    search stats but their wall-clock entries, and the attempt outcomes."""
    connection = sqlite3.connect(path)
    try:
        (status, error, attempts, solution, stats, failures, front,
         history) = connection.execute(
            "SELECT status, error, attempts, solution_json, stats_json, "
            "failures_json, front_json, attempts_json FROM runs "
            "WHERE run_hash=?", (run_hash,)).fetchone()
    finally:
        connection.close()
    if stats is not None:
        stats = {name: value for name, value in json.loads(stats).items()
                 if name not in WALL_CLOCK_STATS}
    return (status, error, attempts, solution, stats, failures, front,
            [entry["outcome"] for entry in json.loads(history)])


class TestOneAttemptPath:
    """The runner and a fleet worker store the same row for one key."""

    @pytest.mark.parametrize("fails", [False, True],
                             ids=["success", "failure"])
    def test_runner_and_worker_store_the_same_row(self, tmp_path, fails):
        spec = make_spec(runs=1, name="same", max_attempts=2)
        [key] = spec.expand()

        def execute(key):
            if fails:
                raise SearchError("stubbed: no feasible design")
            # Cold caches for both, so their hit counts agree.
            clear_layer_cost_cache()
            clear_mapper_memo()
            return execute_search(key)

        class Runner(CampaignRunner):
            def _execute_run(self, key):
                return execute(key)

        with ResultStore(tmp_path / "runner.sqlite") as store:
            for _ in range(2 if fails else 1):  # one attempt per pass
                Runner(spec, store).run()
        CampaignWorker(spec, tmp_path / "worker.sqlite", worker_id="w0",
                       config=FleetConfig(lease_ttl_s=TTL, heartbeat_s=0.05,
                                          poll_s=0.02, backoff_base_s=0.01,
                                          backoff_cap_s=0.02),
                       execute=execute).run()
        row = stored_row(tmp_path / "runner.sqlite", key.run_hash)
        assert row == stored_row(tmp_path / "worker.sqlite", key.run_hash)
        assert row[-1] == (["failed", "exhausted"] if fails else ["done"])


OPS = st.lists(
    st.tuples(st.sampled_from(["claim-a", "claim-b", "beat-a", "beat-b",
                               "advance", "reap"]),
              st.floats(min_value=0.1, max_value=3 * TTL)),
    max_size=30)


class TestLeaseExclusionProperty:
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS)
    def test_no_run_is_ever_held_by_two_live_leases(self, ops):
        """Under any interleaving of claims, heartbeats, reaps, and time,
        a claim only ever takes a run whose previous lease has expired."""
        clock = FakeClock()
        with ResultStore(":memory:", clock=clock) as store:
            store.register("camp", [make_key(seed=s) for s in range(2)])
            leases = {}  # run_hash -> (owner, deadline) model
            for op, value in ops:
                now = clock.now
                if op.startswith("claim"):
                    worker = op[-1]
                    row = store.claim("camp", worker, ttl_s=TTL)
                    if row is not None:
                        prior = leases.get(row.run_hash)
                        assert prior is None or prior[0] == worker \
                            or prior[1] <= now, \
                            f"claim by {worker} stole a live lease {prior}"
                        leases[row.run_hash] = (worker, now + TTL)
                elif op.startswith("beat"):
                    worker = op[-1]
                    for run_hash, (owner, deadline) in list(leases.items()):
                        if owner != worker:
                            continue
                        held = store.heartbeat(worker, run_hash, ttl_s=TTL)
                        # Ownership only changes via claim/reap (both
                        # update the model), so a modeled owner's beat
                        # must succeed — even past the deadline, an
                        # unreclaimed lease revives.
                        assert held, "beat failed for the modeled owner"
                        leases[run_hash] = (worker,
                                            max(deadline, now + TTL))
                elif op == "advance":
                    clock.advance(value)
                else:
                    for run_hash in store.reap_stale("camp"):
                        assert leases[run_hash][1] <= now, \
                            "reap took a live lease"
                        del leases[run_hash]
