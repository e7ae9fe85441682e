"""Chaos suite: drive every fault class through a real 8-job sweep.

Each test asserts the three recovery invariants from docs/robustness.md:
the sweep runs to completion, surviving jobs carry correct values, and
the damage is visible in the ledger/manifest rather than silent.
"""

import warnings

import pytest

from repro import engine
from repro.engine import JobSpec, WorkerCrashError, execute
from repro.faults import FaultPlan, FaultSpec
from repro.obs.events import RecordingSink
from repro.obs.manifest import build_manifest
from repro.obs.stats import aggregate_events

N_JOBS = 8


def _jobs(runner="test.echo", **kwargs):
    return [
        JobSpec(runner=runner, kwargs=dict(kwargs, v=i), index=i, seed=100 + i)
        for i in range(N_JOBS)
    ]


def _expected_values():
    return [{"v": i, "seed": 100 + i} for i in range(N_JOBS)]


class TestCrashFault:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_sweep_survives_injected_crash(self, workers):
        plan = FaultPlan.single("crash", at=(3,))
        sink = RecordingSink()
        result = execute(
            _jobs(), workers=workers, retries=0, faults=plan, events=sink
        )
        assert result.failed_count == 1 and result.ok_count == N_JOBS - 1
        assert result.partial
        failure = result.outcomes[3].failure
        assert failure.error_type == "WorkerCrashError"
        assert not failure.transient
        # Survivors are untouched and correct.
        expected = _expected_values()
        for i, outcome in enumerate(result.outcomes):
            if i != 3:
                assert outcome.value == expected[i]
        # The crash is in the ledger and the manifest, not silent.
        ends = {e["index"]: e for e in sink.of_type("job_end")}
        assert ends[3]["status"] == "failed"
        assert ends[3]["error_type"] == "WorkerCrashError"
        manifest = build_manifest(result, code_version="v")
        assert manifest["partial"] is True
        assert manifest["counts"]["failed"] == 1
        assert (
            manifest["jobs"][3]["failure"]["error_type"] == "WorkerCrashError"
        )

    def test_parallel_crash_reports_exit_code(self):
        from repro.faults.inject import CRASH_EXIT_CODE

        plan = FaultPlan.single("crash", at=(1,))
        result = execute(_jobs(), workers=2, retries=0, faults=plan)
        assert str(CRASH_EXIT_CODE) in result.outcomes[1].failure.error

    def test_serial_crash_is_simulated_not_fatal(self):
        # Serial mode must not os._exit the orchestrating process.
        plan = FaultPlan.single("crash", at=(0,))
        result = execute(_jobs(), workers=1, retries=0, faults=plan)
        assert result.outcomes[0].failure.error_type == "WorkerCrashError"
        assert "serial" in result.outcomes[0].failure.error


class TestCrashRunner:
    """test.crash kills real workers without any fault plan attached."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_pool_does_not_deadlock_on_dead_worker(self, workers):
        jobs = [
            JobSpec(runner="test.crash" if i == 2 else "test.echo",
                    kwargs={} if i == 2 else {"v": i}, index=i)
            for i in range(N_JOBS)
        ]
        result = execute(jobs, workers=workers, retries=0)
        assert result.failed_count == 1
        assert result.outcomes[2].failure.error_type == "WorkerCrashError"
        assert result.ok_count == N_JOBS - 1


class TestHangFault:
    def test_hang_reclaimed_by_job_timeout(self):
        plan = FaultPlan.single("hang", at=(5,), hang_s=30.0)
        sink = RecordingSink()
        result = execute(
            _jobs(), workers=2, retries=0, timeout_s=0.5,
            faults=plan, events=sink,
        )
        assert result.outcomes[5].failure.error_type == "JobTimeoutError"
        assert result.ok_count == N_JOBS - 1
        assert any(
            e["index"] == 5 for e in sink.of_type("job_timeout")
        )

    def test_hang_retried_then_succeeds(self):
        # times=1: only the first attempt hangs; the retry runs clean.
        plan = FaultPlan.single("hang", at=(5,), hang_s=30.0, times=1)
        result = execute(
            _jobs(), workers=2, retries=1, backoff_s=0.01, timeout_s=0.5,
            faults=plan,
        )
        assert result.failed_count == 0
        assert result.outcomes[5].attempts == 2


class TestWatchdog:
    def test_sigalrm_proof_hang_killed_parent_side(self, monkeypatch):
        import repro.engine.pool as pool

        monkeypatch.setattr(pool, "_WATCHDOG_GRACE_S", 1.0)
        jobs = [
            JobSpec(runner="test.hang" if i == 0 else "test.echo",
                    kwargs={"hang_s": 60.0} if i == 0 else {"v": i}, index=i)
            for i in range(4)
        ]
        result = execute(jobs, workers=2, retries=0, timeout_s=0.3)
        failure = result.outcomes[0].failure
        assert failure.error_type == "WorkerCrashError"
        assert "watchdog" in failure.error
        assert result.ok_count == 3


class TestTransientFault:
    def test_retry_budget_absorbs_transients(self):
        plan = FaultPlan.single("transient", times=1)
        sink = RecordingSink()
        result = execute(
            _jobs(), workers=2, retries=1, backoff_s=0.0,
            faults=plan, events=sink,
        )
        assert result.failed_count == 0
        assert all(o.attempts == 2 for o in result.outcomes)
        assert len(sink.of_type("job_retry")) == N_JOBS
        assert result.values() == _expected_values()

    def test_exhausted_retries_fail_structurally(self):
        plan = FaultPlan.single("transient", times=5)
        result = execute(_jobs(), workers=1, retries=1, backoff_s=0.0, faults=plan)
        assert result.failed_count == N_JOBS
        failure = result.outcomes[0].failure
        assert failure.error_type == "InjectedTransientError"
        assert failure.transient
        assert failure.attempts == 2


class TestCacheCorruptFault:
    def test_corrupt_entries_quarantined_and_recomputed(self, tmp_path):
        cache = engine.ResultCache(tmp_path / "cache")
        clean = execute(_jobs(), workers=1, cache=cache)
        assert clean.ok_count == N_JOBS
        plan = FaultPlan.single("cache_corrupt", at=(2, 6))
        sink = RecordingSink()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = execute(
                _jobs(), workers=1, cache=cache, faults=plan, events=sink
            )
        assert result.cached_count == N_JOBS - 2
        assert result.ok_count == 2  # recomputed, not failed
        assert result.failed_count == 0
        assert result.values() == clean.values()
        quarantined = sorted(cache.quarantine_dir.iterdir())
        assert len(quarantined) == 2
        assert len(sink.of_type("cache_quarantine")) == 2
        assert sum("quarantined" in str(w.message) for w in caught) == 2
        # Recompute repaired the cache: a third sweep is all hits.
        repaired = execute(_jobs(), workers=1, cache=cache)
        assert repaired.cached_count == N_JOBS


class TestCachePutFailFault:
    def test_failed_put_keeps_result_and_is_recorded(self, tmp_path):
        cache = engine.ResultCache(tmp_path / "cache")
        plan = FaultPlan.single("cache_put_fail", at=(4,))
        sink = RecordingSink()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = execute(
                _jobs(), workers=1, cache=cache, faults=plan, events=sink
            )
        assert result.ok_count == N_JOBS
        assert result.values() == _expected_values()
        assert len(sink.of_type("cache_put_error")) == 1
        assert any("cache put failed" in str(w.message) for w in caught)
        # Only the injected entry is missing from disk.
        assert len(cache) == N_JOBS - 1


class TestLedgerTearFault:
    def test_torn_ledger_still_reconciles(self, tmp_path):
        from repro.obs.events import EventLog, read_events

        path = tmp_path / "events.jsonl"
        plan = FaultPlan.single("ledger_tear", at=(9,))
        log = EventLog(path, faults=plan)
        result = execute(_jobs(), workers=1, faults=plan, events=log)
        log.close()
        assert result.ok_count == N_JOBS  # the sweep itself is unharmed
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            events = read_events(path)
        assert any("torn" in str(w.message) for w in caught)
        assert [e["seq"] for e in events] == list(range(1, 9))
        stats = aggregate_events(events)  # partial but well-formed
        assert stats["overall"]["sweeps"] == 1


class TestMaxFailures:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_budget_exhaustion_skips_remaining_jobs(self, workers):
        sink = RecordingSink()
        jobs = [JobSpec(runner="test.fail", index=i) for i in range(N_JOBS)]
        result = execute(
            jobs, workers=workers, retries=0, max_failures=1, events=sink
        )
        assert result.partial
        assert result.failed_count >= 2  # budget is "more than N"
        assert result.skipped_count >= 1
        assert result.failed_count + result.skipped_count == N_JOBS
        skipped = sink.of_type("job_skipped")
        assert len(skipped) == result.skipped_count
        assert all("max_failures" in e["reason"] for e in skipped)
        manifest = build_manifest(result, code_version="v")
        assert manifest["partial"] is True
        assert manifest["counts"]["skipped"] == result.skipped_count

    def test_sweepspec_max_failures_is_honored(self):
        spec = engine.SweepSpec(
            runners=["test.fail"], repetitions=N_JOBS, max_failures=0
        )
        result = execute(spec, workers=1, retries=0)
        assert result.failed_count == 1
        assert result.skipped_count == N_JOBS - 1


class TestInjectionDisabledIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_empty_plan_is_bit_identical_to_no_plan(self, workers):
        jobs = [
            JobSpec(runner="test.echo", kwargs={"v": i}, index=i, seed=i)
            for i in range(N_JOBS)
        ]
        bare = execute(jobs, workers=workers)
        planned = execute(jobs, workers=workers, faults=FaultPlan())
        assert bare.values() == planned.values()
        assert [o.status for o in bare.outcomes] == [
            o.status for o in planned.outcomes
        ]

    def test_zero_rate_plan_never_fires(self):
        from repro.faults import FAULT_KINDS

        plan = FaultPlan(
            specs=tuple(FaultSpec(kind=k, rate=0.0) for k in sorted(FAULT_KINDS))
        )
        result = execute(_jobs(), workers=1, faults=plan)
        assert result.ok_count == N_JOBS
        assert result.values() == _expected_values()


class TestBatchDispatchChaos:
    """The fault matrix replayed through the batch-lease executor."""

    def _array_jobs(self, n=6):
        # Large enough to ride the shared-memory rings, so a crash
        # exercises segment cleanup, not just pipe teardown.
        return [
            JobSpec(
                runner="test.array",
                kwargs={"n": 20_000},
                index=i,
                seed=100 + i,
                label=f"arr{i}",
            )
            for i in range(n)
        ]

    def test_crash_under_batch_is_isolated_and_leak_free(self):
        from repro.engine.shm import active_segments

        plan = FaultPlan.single("crash", at=(3,))
        result = execute(
            self._array_jobs(),
            workers=2,
            lease_size=3,
            retries=0,
            faults=plan,
        )
        assert result.failed_count == 1 and result.ok_count == 5
        assert (
            result.outcomes[3].failure.error_type == "WorkerCrashError"
        )
        assert active_segments() == ()

    def test_repeated_crashes_drain_without_leaks(self):
        from repro.engine.shm import active_segments

        plan = FaultPlan.single("crash", at=(0, 2, 4))
        result = execute(
            self._array_jobs(),
            workers=2,
            lease_size=2,
            retries=0,
            faults=plan,
        )
        assert result.failed_count == 3 and result.ok_count == 3
        assert active_segments() == ()

    def test_budget_abort_under_batch_skips_and_cleans_up(self):
        from repro.engine.shm import active_segments

        jobs = [JobSpec(runner="test.fail", index=i) for i in range(8)]
        result = execute(
            jobs,
            workers=2,
            lease_size=2,
            retries=0,
            max_failures=1,
        )
        assert result.partial
        assert result.failed_count + result.skipped_count == 8
        assert active_segments() == ()

    def test_transient_faults_retry_identically_under_batch(self):
        plan = FaultPlan.single("transient", rate=0.5, seed=3)
        jobs = [
            JobSpec(runner="test.echo", kwargs={"v": i}, index=i, seed=i)
            for i in range(N_JOBS)
        ]
        per_job = execute(
            jobs, workers=2, lease_size=1, retries=2, faults=plan
        )
        batched = execute(
            jobs, workers=2, retries=2, faults=plan
        )
        assert per_job.values() == batched.values()
        assert per_job.failed_count == batched.failed_count == 0
