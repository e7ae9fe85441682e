"""Tests for batch-lease dispatch: lease size, isolation, crash requeue."""

import numpy as np
import pytest

from repro.engine import JobSpec, execute
from repro.engine.pool import _auto_lease_size
from repro.engine.shm import DEFAULT_RING_BYTES, active_segments

N_JOBS = 12


def _echo_jobs(n=N_JOBS):
    return [
        JobSpec(runner="test.echo", kwargs={"v": i}, index=i, seed=100 + i)
        for i in range(n)
    ]


class TestFuseJobs:
    """How the executor cuts its own leases."""

    def test_auto_lease_size_targets_four_leases_per_worker(self):
        assert _auto_lease_size(256, 4) == 16
        assert _auto_lease_size(3, 4) == 1
        assert _auto_lease_size(0, 4) == 1


class TestBatchExecution:
    def test_batch_matches_serial(self):
        jobs = _echo_jobs()
        serial = execute(jobs, workers=1)
        batched = execute(jobs, workers=3)
        assert serial.values() == batched.values()

    @pytest.mark.parametrize("lease_size", [1, 4, 64])
    def test_lease_size_does_not_change_results(self, lease_size):
        jobs = _echo_jobs()
        serial = execute(jobs, workers=1)
        batched = execute(
            jobs, workers=2, lease_size=lease_size
        )
        assert serial.values() == batched.values()

    def test_invalid_lease_size_rejected(self):
        with pytest.raises(ValueError, match="lease_size"):
            execute(_echo_jobs(2), workers=2, lease_size=0)

    def test_large_array_results_survive_shm_transport(self):
        jobs = [
            JobSpec(
                runner="test.array",
                kwargs={"n": 20_000},
                index=i,
                seed=7 + i,
                label=f"arr{i}",
            )
            for i in range(4)
        ]
        serial = execute(jobs, workers=1)
        batched = execute(jobs, workers=2)
        for a, b in zip(serial.values(), batched.values()):
            np.testing.assert_array_equal(a["values"], b["values"])
            assert a["checksum"] == b["checksum"]
        assert active_segments() == ()

    def test_results_larger_than_the_ring_ride_the_pipe(self):
        # Each array is 8.8 MB, more than a worker's whole ring, so the
        # worker keeps it inline and it comes back pickled.
        n = 1_100_000
        assert n * 8 > DEFAULT_RING_BYTES
        jobs = [
            JobSpec(runner="test.array", kwargs={"n": n}, index=i, seed=i)
            for i in range(2)
        ]
        serial = execute(jobs, workers=1)
        batched = execute(jobs, workers=2)
        assert batched.ok_count == 2
        for a, b in zip(serial.values(), batched.values()):
            assert a["values"].dtype == b["values"].dtype
            assert a["values"].tobytes() == b["values"].tobytes()
            assert a["checksum"] == b["checksum"]
            assert b["values"].flags.writeable
        assert active_segments() == ()

    def test_large_array_kwargs_ride_the_pipe(self):
        # Kwargs reach lease workers pickled; only results take the
        # shared-memory ring, and the echoed arrays come back through it.
        rng = np.random.default_rng(3)
        jobs = [
            JobSpec(
                runner="test.echo",
                kwargs={"values": rng.standard_normal(200_000)},
                index=i,
                seed=50 + i,
            )
            for i in range(6)
        ]
        serial = execute(jobs, workers=1)
        batched = execute(jobs, workers=2, lease_size=1)
        assert batched.ok_count == 6
        for a, b in zip(serial.values(), batched.values()):
            assert a["seed"] == b["seed"]
            assert a["values"].dtype == b["values"].dtype
            assert a["values"].tobytes() == b["values"].tobytes()
            assert b["values"].flags.writeable
        assert active_segments() == ()


class TestCrashIsolation:
    def test_crash_fails_one_job_not_the_lease(self):
        jobs = _echo_jobs(6)
        jobs[2] = JobSpec(runner="test.crash", index=2, label="boom")
        result = execute(
            jobs, workers=2, lease_size=3, retries=0
        )
        statuses = [o.status for o in result.outcomes]
        assert statuses == ["ok", "ok", "failed", "ok", "ok", "ok"]
        failure = result.outcomes[2].failure
        assert failure.error_type == "WorkerCrashError"
        # Jobs after the crash in the same lease were re-leased and ran.
        assert result.outcomes[3].value == {"v": 3, "seed": 103}
        assert active_segments() == ()

    def test_all_leases_crashing_still_terminates(self):
        jobs = [
            JobSpec(runner="test.crash", index=i, label=f"c{i}")
            for i in range(4)
        ]
        result = execute(
            jobs, workers=2, lease_size=2, retries=0
        )
        assert result.failed_count == 4
        assert all(
            o.failure.error_type == "WorkerCrashError"
            for o in result.outcomes
        )
        assert active_segments() == ()

    def test_hang_reclaimed_by_watchdog_inside_lease(self):
        jobs = _echo_jobs(4)
        jobs[1] = JobSpec(
            runner="test.hang", kwargs={"hang_s": 60.0}, index=1, label="hang"
        )
        result = execute(
            jobs,
            workers=2,
            lease_size=2,
            retries=0,
            timeout_s=0.5,
        )
        statuses = [o.status for o in result.outcomes]
        assert statuses == ["ok", "failed", "ok", "ok"]
        assert active_segments() == ()
