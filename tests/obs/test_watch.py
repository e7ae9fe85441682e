"""Tests for repro.obs.watch: the live ledger tail and status panel.

Satellite 4 from ISSUE 10 lives here: concurrent/follow-mode ledger
reads. The tailer must never surface a half-written line while a
writer is racing it, and a torn final line must warn exactly once
without killing the tail.
"""

import io
import json
import threading
import time

import pytest

from repro.engine import JobSpec, execute
from repro.obs.events import EventLog
from repro.obs.watch import (
    WatchView,
    _LineAssembler,
    follow_events,
    watch,
)


class TestLineAssembler:
    def test_holds_partial_lines_until_complete(self):
        assembler = _LineAssembler("t")
        assert list(assembler.push('{"event":"job_')) == []
        assert list(assembler.push('end","seq":1}\n')) == [
            {"event": "job_end", "seq": 1}
        ]

    def test_byte_at_a_time_never_yields_fragments(self):
        payload = '{"event":"sweep_start","jobs":3}\n{"event":"sweep_end"}\n'
        assembler = _LineAssembler("t")
        events = []
        for ch in payload:
            events.extend(assembler.push(ch))
        assert [e["event"] for e in events] == ["sweep_start", "sweep_end"]

    def test_malformed_completed_line_warns_once_and_continues(self):
        assembler = _LineAssembler("t")
        with pytest.warns(RuntimeWarning, match="malformed"):
            events = list(
                assembler.push('not json\nalso bad\n{"event":"gauge"}\n')
            )
        assert events == [{"event": "gauge"}]

    def test_finish_warns_once_on_torn_trailing_fragment(self):
        assembler = _LineAssembler("t")
        list(assembler.push('{"event":"job_end"}\n{"event":"jo'))
        with pytest.warns(RuntimeWarning, match="torn trailing"):
            assembler.finish()
        assembler.finish()  # second call: fragment consumed, no warning

    def test_clean_finish_does_not_warn(self):
        assembler = _LineAssembler("t")
        list(assembler.push('{"event":"job_end"}\n'))
        assembler.finish()


class TestFollowEvents:
    def test_tail_racing_a_writer_sees_only_whole_events(self, tmp_path):
        """A writer appending in tiny unaligned chunks never tears."""
        path = tmp_path / "live.jsonl"
        payload = "".join(
            json.dumps({"event": "job_end", "seq": i, "runner": "fig2"})
            + "\n"
            for i in range(40)
        )

        def _write() -> None:
            with path.open("a") as handle:
                for start in range(0, len(payload), 7):
                    handle.write(payload[start:start + 7])
                    handle.flush()
                    time.sleep(0.001)

        writer = threading.Thread(target=_write)
        writer.start()
        seen = []
        # Stop only after one full read pass past the writer's death,
        # so the final flushed lines are always drained.
        dead_polls = [0]

        def _done() -> bool:
            if not writer.is_alive():
                dead_polls[0] += 1
            return dead_polls[0] >= 2

        for event in follow_events(path, poll_s=0.005, stop=_done):
            if event is not None:
                seen.append(event)
        writer.join()
        assert [e["seq"] for e in seen] == list(range(40))

    def test_waits_for_a_file_that_does_not_exist_yet(self, tmp_path):
        path = tmp_path / "later.jsonl"

        def _create() -> None:
            time.sleep(0.05)
            path.write_text('{"event":"sweep_start","jobs":1}\n')

        creator = threading.Thread(target=_create)
        creator.start()
        events = []
        stop = lambda: bool(events)  # noqa: E731
        for event in follow_events(path, poll_s=0.005, stop=stop):
            if event is not None:
                events.append(event)
        creator.join()
        assert events == [{"event": "sweep_start", "jobs": 1}]

    def test_torn_final_line_warns_once_and_keeps_earlier_events(
        self, tmp_path
    ):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"event":"job_end","seq":1}\n{"event":"jo')
        seen = []
        with pytest.warns(RuntimeWarning, match="torn trailing"):
            for event in follow_events(path, stop=lambda: True):
                if event is not None:
                    seen.append(event)
        assert seen == [{"event": "job_end", "seq": 1}]

    def test_yields_none_heartbeats_while_idle(self, tmp_path):
        path = tmp_path / "quiet.jsonl"
        path.write_text("")
        polls = []
        stream = follow_events(
            path, poll_s=0.001, stop=lambda: len(polls) >= 3
        )
        for event in stream:
            polls.append(event)
        assert polls and all(event is None for event in polls)


class TestWatchView:
    def _feed_all(self, view, events):
        for event in events:
            view.feed(event)

    def test_progress_counters_and_finish(self):
        view = WatchView(source="x.jsonl")
        self._feed_all(view, [
            {"event": "sweep_start", "jobs": 3, "workers": 2, "t": 0.0},
            {"event": "job_start", "index": 0, "label": "a", "t": 0.1},
            {"event": "job_end", "index": 0, "label": "a", "runner": "fig2",
             "status": "ok", "duration_s": 0.1, "t": 0.2},
            {"event": "cache_hit", "index": 1, "runner": "fig2", "t": 0.2},
        ])
        assert view.done == 2 and view.total == 3
        assert not view.finished
        assert view.eta_s() is not None
        view.feed({"event": "job_end", "index": 2, "runner": "fig2",
                   "status": "failed", "duration_s": 0.3, "t": 0.5})
        view.feed({"event": "sweep_end", "jobs": 3, "t": 0.6})
        assert view.finished  # matched sweep_start/sweep_end
        assert view.failed == 1

    def test_run_summary_is_authoritative_even_mid_sweep(self):
        view = WatchView()
        view.feed({"event": "sweep_start", "jobs": 9})
        assert not view.finished
        view.feed({"event": "run_summary", "jobs": 9, "elapsed_s": 1.0,
                   "workers": 2, "dispatch": "batch"})
        assert view.finished
        assert "run summary: 9 jobs" in view.render()

    def test_render_shows_bar_runners_and_faults(self):
        view = WatchView(source="demo")
        self._feed_all(view, [
            {"event": "sweep_start", "jobs": 2, "workers": 1, "t": 0.0},
            {"event": "job_retry", "index": 0, "runner": "fig2", "t": 0.1},
            {"event": "job_end", "index": 0, "runner": "fig2",
             "status": "ok", "duration_s": 0.25, "t": 0.4},
            {"event": "gauge", "name": "g", "status": "pass", "t": 0.4},
        ])
        panel = view.render()
        assert "repro watch — demo" in panel
        assert "1/2 jobs" in panel
        assert "1 retries" in panel
        assert "fig2" in panel and "p50 0.250s" in panel
        assert "gauges: 1 pass" in panel

    def test_render_fleet_quantiles_from_reducer_snapshot(self):
        view = WatchView()
        view.feed({
            "event": "reducer_snapshot", "shards_done": 2,
            "shards_total": 4, "ues": 600,
            "groups": {"rsrp_all": {"count": 1200, "p5": -110.0,
                                    "p50": -95.5, "p95": -80.2}},
        })
        panel = view.render()
        assert "fleet quantiles (2/4 shards, 600 UEs):" in panel
        assert "rsrp_all: p5 -110.00  p50 -95.50  p95 -80.20" in panel
        assert "(n=1200)" in panel


class TestWatchDriver:
    def test_once_mode_renders_a_finished_ledger(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = EventLog(path)
        execute(
            [JobSpec(runner="test.echo", kwargs={"x": 1}, index=0)],
            events=log,
        )
        log.close()
        out = io.StringIO()
        assert watch(str(path), out=out, once=True) == 0
        panel = out.getvalue()
        assert "1/1 jobs" in panel and "1 ok" in panel
        assert "done" in panel
        assert "run summary: 1 jobs" in panel

    def test_duration_bound_returns_on_a_silent_ledger(self, tmp_path):
        path = tmp_path / "silent.jsonl"
        path.write_text('{"event":"sweep_start","jobs":5}\n')
        out = io.StringIO()
        started = time.monotonic()
        assert watch(
            str(path), out=out, interval_s=0.01, duration_s=0.05
        ) == 0
        assert time.monotonic() - started < 5.0
        assert "0/5 jobs" in out.getvalue()


class TestLiveSweepEndToEnd:
    """ISSUE 10 acceptance: watch a real in-flight fleet sweep."""

    def test_tail_sees_live_progress_and_fleet_snapshots(self, tmp_path):
        from repro.fleet import FleetSnapshotTracker, fleet_jobs
        from repro.fleet.spec import FleetSpec

        path = tmp_path / "fleet.jsonl"
        spec = FleetSpec(ues=40, duration_s=5.0, dt_s=0.5)
        jobs = fleet_jobs(spec, shards=4)

        def _sweep() -> None:
            log = EventLog(path)
            tracker = FleetSnapshotTracker(
                shards_total=len(jobs), stream=None, events=log
            )
            try:
                execute(jobs, events=log, progress=tracker)
            finally:
                log.close()

        sweeper = threading.Thread(target=_sweep)
        view = WatchView(source=str(path))
        mid_flight_panels = []
        sweeper.start()
        try:
            deadline = time.monotonic() + 120.0
            # Drain one full read pass after the sweep thread closes
            # the ledger, so the tail ends cleanly (no torn fragment).
            dead_polls = [0]

            def _done() -> bool:
                if not sweeper.is_alive():
                    dead_polls[0] += 1
                return dead_polls[0] >= 2 or time.monotonic() > deadline

            for event in follow_events(path, poll_s=0.01, stop=_done):
                if event is not None:
                    view.feed(event)
                    if 0 < view.done < len(jobs):
                        mid_flight_panels.append(view.render())
        finally:
            sweeper.join()
        # The run landed and every shard was watched as it settled.
        assert view.run_summary is not None
        assert view.done == len(jobs) == 4
        # Converging fleet quantiles were rendered from the
        # reducer_snapshot events the tracker emitted mid-sweep.
        assert view.snapshot is not None
        assert view.snapshot["shards_done"] == 4
        groups = view.snapshot["groups"]
        assert "rsrp_all" in groups and groups["rsrp_all"]["count"] > 0
        final_panel = view.render()
        assert "fleet quantiles (4/4 shards, 40 UEs):" in final_panel
        # Live progress: at least one redraw happened strictly
        # mid-flight, with a partially filled bar.
        assert mid_flight_panels
        assert any("/4 jobs" in panel for panel in mid_flight_panels)


class TestServeFollowEndToEnd:
    """Watch a live serve ledger over GET /v1/events?follow=1."""

    def test_follow_stream_covers_a_job_and_the_shutdown(self, tmp_path):
        from repro.obs.history import RunArchive
        from repro.obs.watch import follow_url
        from repro.serve.client import ServeClient
        from repro.serve.config import ServeConfig
        from repro.serve.http import run_in_thread

        config = ServeConfig(
            data_dir=tmp_path / "serve", port=0, max_concurrency=1
        )
        handle = run_in_thread(config)
        view = WatchView(source="serve")
        events = []

        def _tail() -> None:
            for event in follow_url(
                f"{handle.url}/v1/events?follow=1", poll_s=0.05
            ):
                if event is not None:
                    events.append(event)
                    view.feed(event)

        tailer = threading.Thread(target=_tail)
        tailer.start()
        try:
            client = ServeClient(handle.url)
            record = client.submit(["test.echo"], seed=5)
            final = client.wait(record["id"], timeout=60)
            assert final["state"] == "done"
        finally:
            handle.stop()
            tailer.join(timeout=30)
        assert not tailer.is_alive()
        kinds = {e["event"] for e in events}
        # The stream carried the sweep itself and the server lifecycle,
        # through to the terminal serve_stop that ends the follow.
        assert {"serve_start", "job_end", "sweep_end", "serve_stop"} <= kinds
        assert view.finished
        assert view.ok >= 1
        assert "serve:" in view.render()
        # Drain archived the run in the serve-local archive.
        archive = RunArchive(config.archive_dir)
        (entry,) = archive.index()
        assert archive.load(entry["run_id"])["kind"] == "serve"
