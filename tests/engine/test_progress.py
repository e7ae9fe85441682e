"""Regression tests for ProgressTracker clock and summary edge cases."""

from types import SimpleNamespace

from repro.engine import ProgressTracker
from repro.engine import progress as progress_module


def _ok_outcome(label="j"):
    return SimpleNamespace(
        status="ok",
        duration_s=0.1,
        failure=None,
        spec=SimpleNamespace(display=label),
    )


class TestElapsedClock:
    def test_elapsed_frozen_after_finish_even_at_monotonic_zero(
        self, monkeypatch
    ):
        # Regression: `self._finished_at or time.monotonic()` treated a
        # legitimate finish timestamp of 0.0 as "not finished", so the
        # clock kept running after finish(). `is None` must be used.
        ticks = iter([0.0, 0.0, 50.0, 60.0])
        monkeypatch.setattr(
            progress_module.time, "monotonic", lambda: next(ticks)
        )
        tracker = ProgressTracker()
        tracker.start(1)  # started at t=0.0
        tracker.finish()  # finished at t=0.0
        assert tracker.elapsed_s() == 0.0  # buggy code returned 50.0
        assert tracker.elapsed_s() == 0.0  # ... and then 60.0

    def test_elapsed_zero_before_start(self):
        assert ProgressTracker().elapsed_s() == 0.0

    def test_elapsed_runs_while_unfinished(self, monkeypatch):
        ticks = iter([10.0, 14.5])
        monkeypatch.setattr(
            progress_module.time, "monotonic", lambda: next(ticks)
        )
        tracker = ProgressTracker()
        tracker.start(1)
        assert tracker.elapsed_s() == 4.5


class TestSummaryWithoutStart:
    def test_finish_before_start_reports_seen_jobs(self):
        # Regression: updates without start() left total=0, so the
        # summary read "2/0 jobs" — done and total disagreeing about
        # the same jobs. The snapshot now reports what was seen.
        tracker = ProgressTracker()
        tracker.update(_ok_outcome())
        tracker.update(_ok_outcome())
        tracker.finish()
        summary = tracker.summary()
        assert summary.startswith("2/2 jobs")
        assert "2 ok" in summary

    def test_started_tracker_keeps_declared_total(self):
        tracker = ProgressTracker()
        tracker.start(5)
        tracker.update(_ok_outcome())
        assert tracker.summary().startswith("1/5 jobs")

    def test_progress_line_uses_consistent_total(self, capsys):
        import sys

        tracker = ProgressTracker(stream=sys.stderr)
        tracker.update(_ok_outcome("solo"))
        err = capsys.readouterr().err
        assert "[1/1] solo: ok" in err


class TestReuse:
    def test_restarted_tracker_counts_only_the_new_sweep(self):
        tracker = ProgressTracker()
        tracker.start(2)
        tracker.update(_ok_outcome())
        tracker.update(_ok_outcome())
        tracker.finish()
        tracker.start(1)
        tracker.update(_ok_outcome())
        assert tracker.summary().startswith("1/1 jobs: 1 ok")


class TestSweepEvents:
    def test_start_finish_emit_sweep_events(self):
        from repro.engine import JobSpec, execute
        from repro.obs.events import RecordingSink

        sink = RecordingSink()
        jobs = [JobSpec(runner="test.echo", index=0)] + [
            JobSpec(runner="test.fail", index=i) for i in (1, 2)
        ]
        execute(
            jobs,
            workers=2,
            retries=0,
            events=sink,
            progress=ProgressTracker(),
        )
        (start,) = sink.of_type("sweep_start")
        assert start["jobs"] == 3 and start["workers"] == 2
        (end,) = sink.of_type("sweep_end")
        assert end["ok"] == 1 and end["jobs"] == 3
        assert end["elapsed_s"] >= 0.0
