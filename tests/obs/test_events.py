"""Tests for repro.obs.events: sinks, the JSONL ledger, read-back."""

import json

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    EventLog,
    EventSink,
    RecordingSink,
    iter_events,
    read_events,
)


class TestEventSink:
    def test_base_sink_discards(self):
        sink = EventSink()
        sink.emit("job_end", index=0)  # must not raise
        sink.close()

    def test_recording_sink_keeps_order_and_fields(self):
        sink = RecordingSink()
        sink.emit("job_start", index=1, runner="fig2")
        sink.emit("job_end", index=1, status="ok")
        assert [e["event"] for e in sink.events] == ["job_start", "job_end"]
        assert sink.of_type("job_end") == [
            {"event": "job_end", "index": 1, "status": "ok"}
        ]

    def test_event_types_cover_the_documented_set(self):
        assert EVENT_TYPES == {
            "sweep_start",
            "sweep_end",
            "job_start",
            "job_retry",
            "job_timeout",
            "job_end",
            "job_skipped",
            "cache_hit",
            "cache_put",
            "cache_quarantine",
            "cache_put_error",
            "cache_evict",
            "span_start",
            "span_end",
            "gauge",
            "run_summary",
            "reducer_snapshot",
        }


class TestEventLog:
    def test_writes_one_json_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("sweep_start", jobs=2)
            log.emit("sweep_end", jobs=2, ok=2)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "sweep_start" and first["jobs"] == 2

    def test_seq_and_monotonic_timestamps(self, tmp_path):
        log = EventLog(tmp_path / "e.jsonl")
        for i in range(5):
            log.emit("job_end", index=i)
        events = log.events()
        log.close()
        assert [e["seq"] for e in events] == [1, 2, 3, 4, 5]
        stamps = [e["t"] for e in events]
        assert stamps == sorted(stamps)

    def test_append_mode_across_logs(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        with EventLog(path) as log:
            log.emit("sweep_start", jobs=1)
        with EventLog(path) as log:
            log.emit("sweep_start", jobs=9)
        events = read_events(path)
        assert [e["jobs"] for e in events] == [1, 9]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "e.jsonl"
        with EventLog(path) as log:
            log.emit("sweep_start", jobs=0)
        assert path.exists()

    def test_close_is_idempotent(self, tmp_path):
        log = EventLog(tmp_path / "e.jsonl")
        log.emit("sweep_start", jobs=0)
        log.close()
        log.close()

    def test_injected_clock(self, tmp_path):
        ticks = iter([1.5, 2.5])
        log = EventLog(tmp_path / "e.jsonl", clock=lambda: next(ticks))
        log.emit("job_start", index=0)
        log.emit("job_end", index=0)
        assert [e["t"] for e in log.events()] == [1.5, 2.5]
        log.close()


class TestReadEvents:
    def test_trailing_partial_line_is_dropped_with_warning(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"event":"job_end","seq":1}\n{"event":"job_e')
        with pytest.warns(RuntimeWarning, match="torn final event"):
            events = read_events(path)
        assert len(events) == 1 and events[0]["seq"] == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('not json\n{"event":"job_end"}\n')
        with pytest.raises(ValueError, match="line 1"):
            read_events(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('{"event":"sweep_start"}\n\n{"event":"sweep_end"}\n')
        assert len(read_events(path)) == 2


class TestIterEvents:
    """The streaming reader: same semantics as read_events, lazily."""

    def test_is_a_lazy_generator(self, tmp_path):
        path = tmp_path / "big.jsonl"
        path.write_text(
            "".join(f'{{"event":"job_end","seq":{i}}}\n' for i in range(100))
        )
        stream = iter_events(path)
        assert next(stream)["seq"] == 0
        assert next(stream)["seq"] == 1
        stream.close()  # early close must not warn or raise

    def test_torn_final_line_warns_after_yielding_prefix(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"event":"job_end","seq":1}\n{"event":"job_e')
        stream = iter_events(path)
        assert next(stream)["seq"] == 1
        with pytest.warns(RuntimeWarning, match="torn final event"):
            assert list(stream) == []

    def test_mid_file_corruption_raises_at_the_bad_line(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            '{"event":"job_end","seq":1}\nnot json\n{"event":"job_end"}\n'
        )
        stream = iter_events(path)
        assert next(stream)["seq"] == 1
        with pytest.raises(ValueError, match="line 2"):
            next(stream)

    def test_read_events_matches_iter_events(self, tmp_path):
        path = tmp_path / "both.jsonl"
        path.write_text('{"event":"sweep_start"}\n{"event":"sweep_end"}\n')
        assert read_events(path) == list(iter_events(path))
