"""Tests for the one ledger fold and the four views built on it.

``repro stats`` (:func:`aggregate_events`), ``repro watch``
(:class:`WatchView`), the archive record (:func:`record_from_ledger`)
and ``repro report`` (:func:`write_report`) all count through
:class:`LedgerFold`, so they must agree on every prefix of any ledger:
retries, timeouts, crashes, cache hits, skips, leases cut off mid-sweep
that later sweeps re-open, appended sweeps, and a torn final line.
"""

import contextlib
import io
import json
import tempfile
import time
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine import JobSpec, execute
from repro.obs.events import EventLog
from repro.obs.history import record_from_ledger
from repro.obs.report import write_report
from repro.obs.stats import LedgerFold, aggregate_events
from repro.obs.watch import WatchView, follow_events, watch

#: The counts every view reports.
SHARED = (
    "jobs", "ok", "cached", "failed", "skipped", "interrupted", "retries",
    "timeouts",
)
RUNNERS = ("fig2", "table2", "fleet.shard")


def _watch_counts(view):
    return {
        "jobs": view.done,
        "ok": view.ok,
        "cached": view.cached,
        "failed": view.failed,
        "skipped": view.skipped,
        "interrupted": len(view.running),
        "retries": view.retries,
        "timeouts": view.timeouts,
    }


def _shared(overall):
    return {key: overall[key] for key in SHARED}


def _tally(events):
    """The shared counts, tallied straight from what was written."""
    kinds = [e["event"] for e in events]
    ends = [e for e in events if e["event"] == "job_end"]
    counts = {
        "ok": sum(e["status"] == "ok" for e in ends),
        "cached": kinds.count("cache_hit"),
        "skipped": kinds.count("job_skipped"),
        "interrupted": kinds.count("job_start") - len(ends),
        "retries": kinds.count("job_retry"),
        "timeouts": kinds.count("job_timeout"),
    }
    counts["failed"] = len(ends) - counts["ok"] + counts["interrupted"]
    counts["jobs"] = (
        counts["ok"] + counts["failed"] + counts["cached"]
        + counts["skipped"]
    )
    return counts


_JOB = st.tuples(
    st.sampled_from(["ok", "ok", "failed", "crash", "cached", "skipped"]),
    st.integers(0, 2),  # retries before the final attempt
    st.booleans(),  # the retried attempts timed out
    st.integers(0, 2),  # spans replayed at settle
)


@st.composite
def ledgers(draw):
    """Engine-shaped ledgers: appended sweeps over the same job keys,
    two jobs in flight at a time, some sweeps cut off mid-run."""
    events = []
    clock = [1000.0]

    def emit(out, kind, **fields):
        clock[0] += 0.01
        out.append(dict(event=kind, t=round(clock[0], 6), **fields))

    for _ in range(draw(st.integers(1, 4))):
        jobs = draw(st.lists(_JOB, min_size=1, max_size=5))
        sweep = []
        emit(sweep, "sweep_start", jobs=len(jobs), workers=2)
        keyed = [
            (dict(index=i, runner=RUNNERS[i % 3], label=RUNNERS[i % 3]), job)
            for i, job in enumerate(jobs)
        ]
        for key, (outcome, _, _, _) in keyed:
            if outcome == "cached":
                emit(sweep, "cache_hit", key="k", **key)
        in_flight = []

        def settle(entry):
            key, (outcome, retries, timed_out, spans) = entry
            for attempt in range(1, retries + 1):
                if timed_out:
                    emit(sweep, "job_timeout", attempt=attempt, **key)
                emit(sweep, "job_retry", attempt=attempt, **key)
            for n in range(spans):
                emit(sweep, "span_end", name="job", span_id=f"s{n}",
                     parent_id=None, t_rel=0.001 * n, duration_s=0.01,
                     **key)
            end = dict(key, status="ok" if outcome == "ok" else "failed",
                       duration_s=0.001 * (retries + 1))
            if outcome == "crash":
                end["error_type"] = "WorkerCrashError"
            emit(sweep, "job_end", **end)

        for entry in keyed:
            if entry[1][0] in ("cached", "skipped"):
                continue
            emit(sweep, "job_start", **entry[0])
            in_flight.append(entry)
            if len(in_flight) == 2:
                settle(in_flight.pop(draw(st.integers(0, 1))))
        for entry in in_flight:
            settle(entry)
        for key, (outcome, _, _, _) in keyed:
            if outcome == "skipped":
                emit(sweep, "job_skipped", reason="max_failures", **key)
        emit(sweep, "run_summary", jobs=len(jobs), elapsed_s=0.5,
             workers=2, dispatch="batch", backend=None)
        emit(sweep, "sweep_end", jobs=len(jobs), elapsed_s=0.5)
        if draw(st.booleans()):
            emit(sweep, "gauge", name=draw(st.sampled_from("gh")),
                 status=draw(st.sampled_from(["pass", "warn", "fail"])))
        if draw(st.booleans()):
            # The lease (or the whole parent) died: the rest is lost,
            # and the next sweep re-opens the same job keys.
            sweep = sweep[: draw(st.integers(1, len(sweep)))]
        events.extend(sweep)
    return events, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(ledgers())
def test_watch_counts_equal_stats_on_every_prefix(case):
    events, _ = case
    view = WatchView()
    for k, event in enumerate(events, start=1):
        view.feed(event)
        overall = aggregate_events(events[:k])["overall"]
        assert _watch_counts(view) == _shared(overall)
    assert _watch_counts(view) == _tally(events)


@settings(max_examples=40, deadline=None)
@given(ledgers())
def test_four_views_agree_on_a_torn_ledger_file(case):
    events, torn = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        text = "".join(json.dumps(e) + "\n" for e in events)
        if torn:
            # The writer died mid-append: half a job_end, never counted.
            text += json.dumps(dict(events[-1], event="job_end"))[:20]
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["stats", str(path), "--json"]) == 0
            record = record_from_ledger(path, label="prop")
            model = write_report(path, Path(tmp) / "report.html")
            view = WatchView()
            for event in follow_events(path, stop=lambda: True):
                if event is not None:
                    view.feed(event)
    views = {
        "stats": _shared(json.loads(out.getvalue())["overall"]),
        "history": _shared(record["overall"]),
        "report": _shared(model["aggregate"]["overall"]),
        "watch": _watch_counts(view),
    }
    expected = _tally(events)
    assert all(counts == expected for counts in views.values()), views
    # One report row per job run: every settled run and every open one.
    ends = sum(e["event"] == "job_end" for e in events)
    assert len(model["jobs"]) == ends + expected["interrupted"]


class TestLedgerFold:
    def test_feed_returns_the_run_it_opens_and_closes(self):
        fold = LedgerFold()
        start = {"event": "job_start", "label": "a", "index": 0,
                 "runner": "r", "t": 1.5}
        run = fold.feed(start)
        assert run == {"label": "a", "runner": "r", "index": 0,
                       "t_start": 1.5}
        assert fold.running() == [run]
        assert fold.feed({"event": "job_end", "label": "a", "index": 0,
                          "runner": "r", "status": "ok"}) is run
        assert fold.running() == []
        assert fold.feed({"event": "gauge", "name": "g"}) is None

    def test_an_end_closes_the_newest_open_run_of_its_key(self):
        fold = LedgerFold()
        stale = fold.feed({"event": "job_start", "label": "a", "index": 0,
                           "t": 1.0})
        fresh = fold.feed({"event": "job_start", "label": "a", "index": 0,
                           "t": 9.0})
        closed = fold.feed({"event": "job_end", "label": "a", "index": 0,
                            "status": "ok"})
        assert closed is fresh
        assert fold.running() == [stale]
        assert fold.counts["interrupted"] == 1

    def test_snapshot_leaves_the_fold_untouched(self):
        fold = LedgerFold()
        fold.feed({"event": "job_start", "label": "a", "index": 0,
                   "runner": "r"})
        fold.feed({"event": "job_end", "label": "b", "index": 1,
                   "runner": "r", "status": "ok", "duration_s": 0.5})
        first = fold.snapshot()
        assert first == fold.snapshot()
        assert first["runners"]["r"]["interrupted"] == 1
        assert fold.runners["r"]["interrupted"] == 0
        assert fold.runners["r"]["durations"] == [0.5]

    def test_run_summary_keeps_earlier_non_null_fields(self):
        fold = LedgerFold()
        fold.feed({"event": "run_summary", "jobs": 1, "backend": "numpy32",
                   "code_version": "v1"})
        fold.feed({"event": "run_summary", "jobs": 2, "backend": None,
                   "code_version": "v2"})
        assert fold.run_summary["jobs"] == 2
        assert fold.run_summary["code_version"] == "v2"
        assert fold.run_summary["backend"] == "numpy32"


class TestWatchFinishedOnAppendedLedgers:
    def _two_sweeps(self):
        return [
            {"event": "sweep_start", "jobs": 1, "t": 0.0},
            {"event": "job_start", "index": 0, "label": "a", "t": 0.1},
            {"event": "job_end", "index": 0, "label": "a", "runner": "r",
             "status": "ok", "duration_s": 0.1, "t": 0.2},
            {"event": "run_summary", "jobs": 1, "elapsed_s": 0.2, "t": 0.3},
            {"event": "sweep_end", "jobs": 1, "elapsed_s": 0.2, "t": 0.3},
            {"event": "sweep_start", "jobs": 5, "t": 1.0},
            {"event": "job_start", "index": 0, "label": "b", "t": 1.1},
        ]

    def test_a_later_sweep_keeps_the_view_open(self):
        view = WatchView()
        events = self._two_sweeps()
        for event in events[:5]:
            view.feed(event)
        assert view.finished
        for event in events[5:]:
            view.feed(event)
        assert not view.finished
        assert "in flight" in view.render()
        view.feed({"event": "job_end", "index": 0, "label": "b",
                   "runner": "r", "status": "ok", "duration_s": 0.1})
        view.feed({"event": "run_summary", "jobs": 5, "elapsed_s": 1.0})
        assert view.finished
        view.feed({"event": "sweep_end", "jobs": 5, "elapsed_s": 1.0})
        assert view.finished

    def test_watch_does_not_exit_while_the_appended_sweep_runs(
        self, tmp_path
    ):
        path = tmp_path / "two.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in self._two_sweeps())
        )
        out = io.StringIO()
        started = time.monotonic()
        watch(str(path), out=out, interval_s=0.01, duration_s=0.3,
              linger_s=0.0)
        assert time.monotonic() - started >= 0.3
        assert "ETA" in out.getvalue()


class TestWatchFinishedAfterATornWriter:
    """A sweep torn off with a job in flight, then a new EventLog
    appending a complete sweep: ``seq`` restarting marks the new
    writer, and the torn sweep can never close."""

    def _ledger(self, path):
        torn = EventLog(path)
        torn.emit("sweep_start", jobs=2, workers=1)
        torn.emit("job_start", index=0, runner="r", label="a")
        torn.emit("job_end", index=0, runner="r", label="a", status="ok",
                  duration_s=0.1)
        torn.emit("job_start", index=1, runner="r", label="b")
        torn.close()
        log = EventLog(path)
        log.emit("sweep_start", jobs=1, workers=1)
        log.emit("job_start", index=0, runner="r", label="c")
        log.emit("job_end", index=0, runner="r", label="c", status="ok",
                 duration_s=0.1)
        log.emit("run_summary", jobs=1, elapsed_s=0.2, workers=1)
        log.emit("sweep_end", jobs=1, elapsed_s=0.2)
        log.close()
        return [json.loads(line) for line in path.read_text().splitlines()]

    def test_the_new_writers_close_finishes_the_view(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        events = self._ledger(path)
        view = WatchView()
        for event in events:
            view.feed(event)
        assert view.finished
        assert "(1 interrupted)" in view.render()
        # Only `finished` changes: the torn job still counts as open.
        assert len(view.running) == 1
        assert _watch_counts(view) == _shared(
            aggregate_events(events)["overall"]
        )
        out = io.StringIO()
        started = time.monotonic()
        watch(str(path), out=out, interval_s=0.01, duration_s=5.0,
              linger_s=0.0)
        assert time.monotonic() - started < 2.5
        assert "interrupted" in out.getvalue()

    def test_cut_before_the_new_writer_closes_is_not_finished(
        self, tmp_path
    ):
        events = self._ledger(tmp_path / "torn.jsonl")
        second = [i for i, e in enumerate(events) if e["seq"] == 1][1]
        close = [e["event"] for e in events].index("run_summary")
        for cut in range(second, close):
            view = WatchView()
            for event in events[:cut]:
                view.feed(event)
            assert not view.finished, events[cut - 1]


class TestReportPerJobRun:
    def test_appended_sweep_gets_a_row_and_a_flame_per_run(self, tmp_path):
        ledger = tmp_path / "L.jsonl"
        log = EventLog(ledger)
        specs = [
            JobSpec(runner="test.echo", kwargs={"value": i}, index=i,
                    label=f"echo-{i}")
            for i in range(3)
        ]
        try:
            for _ in range(2):
                execute(specs, workers=1, events=log)
        finally:
            log.close()
        events = [json.loads(line) for line in ledger.read_text().splitlines()]
        model = write_report(ledger, tmp_path / "r.html")
        assert len(model["jobs"]) == 6
        assert all(job["status"] == "ok" for job in model["jobs"])
        (flamed,) = [job for job in model["jobs"] if "span_key" in job]
        spans = model["spans_by_job"][flamed["span_key"]]
        # Exactly one run's spans: one sweep's trace, one job's index,
        # each span once, as many as that run replayed.
        assert {s["trace_id"] for s in spans} == {spans[0]["trace_id"]}
        assert {s["index"] for s in spans} == {flamed["index"]}
        per_run = [
            e for e in events
            if e["event"] == "span_end"
            and e.get("index") == flamed["index"]
            and e["trace_id"] == spans[0]["trace_id"]
        ]
        assert len(spans) == len(per_run)
        # ... and the run drawn is the runner's slowest.
        assert flamed["duration_s"] == max(
            job["duration_s"] for job in model["jobs"]
        )
