"""Tests for repro.engine.pool: fan-out, retries, timeouts, failures."""

import resource

import pytest

from repro.engine import (
    JobSpec,
    ProgressTracker,
    SweepSpec,
    execute,
    execute_one,
    iter_values,
)


def _echo_jobs(n, base_seed=9):
    return SweepSpec(
        runners=["test.echo"], grid={"x": list(range(n))}, base_seed=base_seed
    ).expand()


class TestExecuteSerial:
    def test_values_in_job_order(self):
        result = execute(_echo_jobs(4))
        assert [v["x"] for v in result.values()] == [0, 1, 2, 3]
        assert result.ok_count == 4 and result.failed_count == 0

    def test_seeds_injected(self):
        values = execute(_echo_jobs(3)).values()
        assert all(v["seed"] is not None for v in values)

    def test_sweepspec_accepted_directly(self):
        sweep = SweepSpec(runners=["test.echo"], grid={"x": [1, 2]})
        assert len(execute(sweep)) == 2

    def test_execute_one(self):
        outcome = execute_one(JobSpec(runner="test.echo", kwargs={"x": 7}))
        assert outcome.status == "ok" and outcome.value["x"] == 7


class TestExecuteParallel:
    def test_parallel_matches_serial(self):
        jobs = _echo_jobs(6)
        serial = execute(jobs, workers=1)
        parallel = execute(jobs, workers=4)
        assert serial.values() == parallel.values()
        assert parallel.workers > 1

    def test_worker_count_capped_by_jobs(self):
        result = execute(_echo_jobs(2), workers=16)
        assert result.workers == 2


class TestFailureHandling:
    def test_failed_job_does_not_abort_sweep(self):
        jobs = [
            JobSpec(runner="test.echo", kwargs={"x": 1}, index=0),
            JobSpec(runner="test.fail", index=1),
            JobSpec(runner="test.echo", kwargs={"x": 2}, index=2),
        ]
        result = execute(jobs, workers=2, retries=0)
        assert result.ok_count == 2 and result.failed_count == 1
        assert [o.status for o in result.outcomes] == ["ok", "failed", "ok"]
        assert list(iter_values(result)) == [
            {"x": 1, "seed": None},
            {"x": 2, "seed": None},
        ]

    def test_failure_record_is_structured(self):
        result = execute([JobSpec(runner="test.fail", label="boom")], retries=3)
        (failure,) = result.failures()
        assert failure.label == "boom"
        assert failure.error_type == "RuntimeError"
        assert "injected permanent failure" in failure.error
        assert failure.attempts == 1  # permanent errors are not retried
        assert not failure.transient
        assert "RuntimeError" in failure.traceback

    def test_raise_if_failed(self):
        result = execute([JobSpec(runner="test.fail")], retries=0)
        with pytest.raises(RuntimeError, match="injected permanent failure"):
            result.raise_if_failed()

    def test_unknown_runner_is_a_job_failure(self):
        result = execute([JobSpec(runner="no-such-runner")], retries=0)
        (failure,) = result.failures()
        assert failure.error_type == "UnknownRunnerError"


class TestRetries:
    def test_flaky_job_recovers_within_budget(self, tmp_path):
        state = tmp_path / "flaky-state"
        outcome = execute_one(
            JobSpec(
                runner="test.flaky",
                kwargs={"state_file": str(state), "fail_times": 2},
            ),
            retries=3,
            backoff_s=0.01,
        )
        assert outcome.status == "ok"
        assert outcome.attempts == 3
        assert outcome.value["attempts_used"] == 3

    def test_flaky_job_exhausts_budget(self, tmp_path):
        state = tmp_path / "flaky-state"
        outcome = execute_one(
            JobSpec(
                runner="test.flaky",
                kwargs={"state_file": str(state), "fail_times": 10},
            ),
            retries=2,
            backoff_s=0.01,
        )
        assert outcome.status == "failed"
        assert outcome.failure.attempts == 3
        assert outcome.failure.transient
        assert outcome.failure.error_type == "TransientJobError"

    def test_flaky_recovers_in_worker_processes(self, tmp_path):
        # Retries happen inside the worker; state crosses processes via
        # the state file.
        state = tmp_path / "flaky-mp"
        jobs = [
            JobSpec(
                runner="test.flaky",
                kwargs={"state_file": str(state), "fail_times": 1},
                index=0,
            ),
            JobSpec(runner="test.echo", kwargs={"x": 5}, index=1),
        ]
        result = execute(jobs, workers=2, retries=2, backoff_s=0.01)
        assert result.ok_count == 2


class TestTimeouts:
    def test_timeout_fails_job(self):
        outcome = execute_one(
            JobSpec(runner="test.sleep", kwargs={"duration_s": 5.0}),
            timeout_s=0.2,
            retries=0,
        )
        assert outcome.status == "failed"
        assert outcome.failure.error_type == "JobTimeoutError"
        assert outcome.failure.transient
        assert outcome.duration_s < 4.0

    def test_timeout_is_retried_as_transient(self):
        outcome = execute_one(
            JobSpec(runner="test.sleep", kwargs={"duration_s": 5.0}),
            timeout_s=0.1,
            retries=1,
            backoff_s=0.01,
        )
        assert outcome.status == "failed"
        assert outcome.failure.attempts == 2

    def test_timeout_in_worker_process(self):
        jobs = [
            JobSpec(runner="test.sleep", kwargs={"duration_s": 5.0}, index=0),
            JobSpec(runner="test.echo", kwargs={"x": 1}, index=1),
        ]
        result = execute(jobs, workers=2, timeout_s=0.3, retries=0)
        assert [o.status for o in result.outcomes] == ["failed", "ok"]

    def test_fast_job_unaffected_by_timeout(self):
        outcome = execute_one(
            JobSpec(runner="test.sleep", kwargs={"duration_s": 0.01}),
            timeout_s=5.0,
        )
        assert outcome.status == "ok"


class TestEvents:
    """The run ledger: per-attempt telemetry survives to the sink."""

    def test_retry_events_fire_for_flaky_runner(self, tmp_path):
        from repro.obs.events import RecordingSink

        sink = RecordingSink()
        outcome = execute_one(
            JobSpec(
                runner="test.flaky",
                kwargs={"state_file": str(tmp_path / "s"), "fail_times": 2},
            ),
            retries=3,
            backoff_s=0.01,
            events=sink,
        )
        assert outcome.status == "ok"
        retries = sink.of_type("job_retry")
        assert [r["attempt"] for r in retries] == [1, 2]
        assert all(r["error_type"] == "TransientJobError" for r in retries)
        assert all(r["runner"] == "test.flaky" for r in retries)
        (end,) = sink.of_type("job_end")
        assert end["status"] == "ok" and end["attempts"] == 3

    def test_timeout_events_fire_for_slow_runner(self):
        from repro.obs.events import RecordingSink

        sink = RecordingSink()
        outcome = execute_one(
            JobSpec(runner="test.sleep", kwargs={"duration_s": 5.0}),
            timeout_s=0.1,
            retries=1,
            backoff_s=0.01,
            events=sink,
        )
        assert outcome.status == "failed"
        timeouts = sink.of_type("job_timeout")
        assert [t["attempt"] for t in timeouts] == [1, 2]
        assert all(t["timeout_s"] == 0.1 for t in timeouts)
        # Only the first timeout is retried (retries=1).
        assert len(sink.of_type("job_retry")) == 1
        (end,) = sink.of_type("job_end")
        assert end["status"] == "failed"
        assert end["error_type"] == "JobTimeoutError"

    def test_worker_side_events_cross_process_boundary(self, tmp_path):
        from repro.obs.events import RecordingSink

        sink = RecordingSink()
        jobs = [
            JobSpec(
                runner="test.flaky",
                kwargs={"state_file": str(tmp_path / "mp"), "fail_times": 1},
                index=0,
            ),
            JobSpec(runner="test.echo", kwargs={"x": 1}, index=1),
        ]
        result = execute(jobs, workers=2, retries=2, backoff_s=0.01, events=sink)
        assert result.ok_count == 2
        assert len(sink.of_type("job_start")) == 2
        assert len(sink.of_type("job_end")) == 2
        (retry,) = sink.of_type("job_retry")
        assert retry["runner"] == "test.flaky" and retry["index"] == 0

    def test_event_order_start_retry_end(self, tmp_path):
        from repro.obs.events import RecordingSink

        sink = RecordingSink()
        execute_one(
            JobSpec(
                runner="test.flaky",
                kwargs={"state_file": str(tmp_path / "o"), "fail_times": 1},
            ),
            retries=1,
            backoff_s=0.01,
            events=sink,
        )
        kinds = [e["event"] for e in sink.events]
        assert [k for k in kinds if not k.startswith("span_")] == [
            "sweep_start",
            "job_start",
            "job_retry",
            "job_end",
            "run_summary",
            "sweep_end",
        ]
        # Tracing rides the sink by default: the sweep root span plus
        # the job's replayed spans (job + one span per attempt).
        assert kinds.count("span_start") == kinds.count("span_end") == 4
        assert kinds[-3:] == ["span_end", "run_summary", "sweep_end"]

    def test_no_sink_attaches_nothing(self):
        result = execute(_echo_jobs(2))
        assert result.stats["counters"]["jobs_ok"] == 2  # metrics still on

    def test_stats_count_retries_and_timeouts_without_sink(self, tmp_path):
        outcome_result = execute(
            [
                JobSpec(
                    runner="test.flaky",
                    kwargs={
                        "state_file": str(tmp_path / "c"),
                        "fail_times": 1,
                    },
                )
            ],
            retries=1,
            backoff_s=0.01,
        )
        assert outcome_result.stats["counters"]["retries"] == 1


class TestProgress:
    def test_tracker_counts_everything(self, tmp_path):
        tracker = ProgressTracker()
        jobs = [
            JobSpec(runner="test.echo", kwargs={"x": 1}, index=0),
            JobSpec(runner="test.fail", index=1),
        ]
        execute(jobs, retries=0, progress=tracker)
        snap = tracker.snapshot()
        assert snap.total == 2 and snap.ok == 1 and snap.failed == 1
        assert snap.done == 2
        assert snap.elapsed_s >= 0.0

    def test_tracker_stream_output(self, capsys):
        import sys

        tracker = ProgressTracker(stream=sys.stderr)
        execute([JobSpec(runner="test.echo", label="j1")], progress=tracker)
        err = capsys.readouterr().err
        assert "[1/1] j1: ok" in err
        assert "1 ok" in err

    def test_summary_mentions_throughput(self):
        result = execute(_echo_jobs(2))
        assert "jobs/s" in result.summary()
        assert "2 ok" in result.summary()


def _spin_runner(duration_s=5.0, seed=None):
    """Busy-loop in Python bytecode for ``duration_s`` unless timed out."""
    import time

    deadline = time.monotonic() + float(duration_s)
    x = 0
    while time.monotonic() < deadline:
        x += 1
    return {"spins": x, "seed": seed}


def _sigterm_proof_hang(hang_s=60.0, seed=None):
    """Hang with SIGALRM and SIGTERM ignored: only SIGKILL ends it."""
    import signal
    import time

    signal.signal(signal.SIGALRM, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    deadline = time.monotonic() + float(hang_s)
    while time.monotonic() < deadline:
        time.sleep(0.05)


class TestOffMainThreadTimeout:
    """Regression: ``timeout_s`` used to silently no-op off the main
    thread (SIGALRM cannot be armed there), so a serve worker thread
    running serial ``execute()`` had no per-job budget at all. A timed
    sweep called off the main thread now runs in one lease worker,
    where SIGALRM on the worker's main thread raises JobTimeoutError
    and the parent watchdog kills a worker that outlives the budget."""

    @staticmethod
    def _execute_in_thread(**kwargs):
        import threading

        box = {}

        def run():
            box["result"] = execute(
                [JobSpec(
                    runner="tests.engine.test_pool:_spin_runner",
                    kwargs={"duration_s": 5.0},
                )],
                workers=1,
                retries=0,
                **kwargs,
            )

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        return box["result"]

    def test_fallback_timer_enforces_timeout(self):
        result = self._execute_in_thread(timeout_s=0.2)
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.failure.error_type == "JobTimeoutError"
        assert "timeout" in outcome.failure.error
        assert outcome.duration_s < 4.0  # aborted, not run to completion

    def test_timeout_event_reaches_the_ledger(self):
        class Sink:
            def __init__(self):
                self.events = []

            def emit(self, event, **fields):
                self.events.append(event)

        sink = Sink()
        self._execute_in_thread(timeout_s=0.2, events=sink)
        assert "job_timeout" in sink.events

    def test_sleep_in_c_code_times_out_off_main_thread(self):
        """A C-level sleep ignores exceptions raised into its thread;
        the timed sweep must run where SIGALRM can interrupt it."""
        import threading
        import time

        box = {}

        def run():
            started = time.monotonic()
            box["result"] = execute(
                [JobSpec(runner="test.sleep", kwargs={"duration_s": 5.0})],
                timeout_s=0.2,
                retries=0,
            )
            box["wall_s"] = time.monotonic() - started

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        outcome = box["result"].outcomes[0]
        assert outcome.status == "failed"
        assert outcome.failure.error_type == "JobTimeoutError"
        assert box["wall_s"] < 1.0

    def test_watchdog_reclaims_hang_under_asyncio_style_handlers(self):
        """An asyncio loop (``repro serve``) leaves the main thread with
        no-op SIGTERM/SIGINT handlers and a signal wakeup fd. The forked
        lease worker must shed both: the watchdog's terminate() has to
        end a job hung past its budget, and the worker's SIGTERM must
        not land in the parent loop's self-pipe."""
        import multiprocessing
        import signal
        import socket
        import threading
        import time

        from repro.engine.pool import _WATCHDOG_GRACE_S

        rsock, wsock = socket.socketpair()
        rsock.setblocking(False)
        wsock.setblocking(False)
        handlers = {
            sig: signal.signal(sig, lambda signum, frame: None)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        wakeup_fd = signal.set_wakeup_fd(wsock.fileno())
        box = {}

        def run():
            started = time.monotonic()
            box["result"] = execute(
                [JobSpec(runner="test.hang", kwargs={"hang_s": 60.0})],
                timeout_s=0.2,
                retries=0,
            )
            box["wall_s"] = time.monotonic() - started

        thread = threading.Thread(target=run, daemon=True)
        try:
            thread.start()
            thread.join(timeout=0.2 + _WATCHDOG_GRACE_S + 10.0)
            stuck = thread.is_alive()
            left_alive = multiprocessing.active_children()
        finally:
            signal.set_wakeup_fd(wakeup_fd)
            for sig, handler in handlers.items():
                signal.signal(sig, handler)
            for child in multiprocessing.active_children():
                child.kill()
                child.join()
            thread.join(timeout=10.0)
            try:
                woken = rsock.recv(64)
            except BlockingIOError:
                woken = b""
            rsock.close()
            wsock.close()
        assert not stuck
        assert left_alive == []
        assert bytes([signal.SIGTERM]) not in woken
        outcome = box["result"].outcomes[0]
        assert outcome.status == "failed"
        assert outcome.failure.error_type == "WorkerCrashError"
        assert "watchdog" in outcome.failure.error
        assert box["wall_s"] < 0.2 + _WATCHDOG_GRACE_S + 3.0

    def test_watchdog_kills_a_worker_that_ignores_sigterm(self):
        """A runner may trap SIGTERM itself; the worker is then killed."""
        import multiprocessing
        import threading
        import time

        from repro.engine.pool import _WATCHDOG_GRACE_S

        box = {}

        def run():
            started = time.monotonic()
            box["result"] = execute(
                [JobSpec(runner="tests.engine.test_pool:_sigterm_proof_hang")],
                timeout_s=0.2,
                retries=0,
            )
            box["wall_s"] = time.monotonic() - started

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=0.2 + _WATCHDOG_GRACE_S + 10.0)
        left_alive = multiprocessing.active_children()
        for child in left_alive:
            child.kill()
            child.join()
        thread.join(timeout=10.0)
        assert left_alive == []
        outcome = box["result"].outcomes[0]
        assert outcome.status == "failed"
        assert outcome.failure.error_type == "WorkerCrashError"
        assert "watchdog" in outcome.failure.error
        assert box["wall_s"] < 0.2 + _WATCHDOG_GRACE_S + 3.0

    def test_main_thread_still_uses_sigalrm(self):
        """The SIGALRM path is untouched: interrupts C-level sleep."""
        outcome = execute_one(
            JobSpec(runner="test.sleep", kwargs={"duration_s": 5.0}),
            timeout_s=0.2,
            retries=0,
        )
        assert outcome.status == "failed"
        assert outcome.duration_s < 1.0


#: The churn probe's temporaries: four (2048, 240) float64 matrices,
#: the size of a fleet shard's per-tile temporaries (3.75 MiB each).
_CHURN_SHAPE = (2048, 240)
_CHURN_TEMPS = 4
_CHURN_PAGES = (
    _CHURN_TEMPS * _CHURN_SHAPE[0] * _CHURN_SHAPE[1] * 8
    // resource.getpagesize()
)


def _malloc_churn_runner(iterations=20, seed=None):
    """Allocate, fill and free the probe's temporaries ``iterations``
    times; return this process's minor page faults over the loop."""
    import numpy as np

    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(int(iterations)):
        temps = [np.ones(_CHURN_SHAPE) for _ in range(_CHURN_TEMPS)]
        del temps
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _has_mallopt():
    import ctypes

    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    return True


class TestLeaseWorkerAllocator:
    """A fresh lease worker reuses freed multi-MiB blocks from its
    first job on. glibc's dynamic thresholds would otherwise hand each
    freed temporary back to the kernel until a large mapped block is
    freed, and every iteration would fault its pages in again."""

    @pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
    def test_fresh_worker_does_not_refault_freed_temporaries(self):
        jobs = [
            JobSpec(
                runner="tests.engine.test_pool:_malloc_churn_runner",
                kwargs={"iterations": 20},
                index=i,
            )
            for i in range(2)
        ]
        result = execute(jobs, workers=2, retries=0)
        assert result.workers == 2 and result.ok_count == 2
        # The first iteration faults its pages in; later ones reuse them.
        # Re-faulting every iteration would take ~20x one iteration.
        for faults in result.values():
            assert faults < 3 * _CHURN_PAGES, (faults, _CHURN_PAGES)
