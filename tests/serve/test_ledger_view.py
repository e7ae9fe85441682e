"""A job's event stream is a view of the one server ledger.

Serve writes every engine event once, to ``server-events.jsonl``,
stamped with the job's id. ``GET /v1/jobs/<id>/events`` (with and
without ``follow=1``) reads that job's lines back out of it: stamp
dropped, ``seq`` renumbered from 1, partial lines held back.
"""

import asyncio
import json
import sys
import threading

from repro.obs.events import EventLog
from repro.obs.stats import aggregate_events
from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.http import ServeHTTP, run_in_thread
from repro.serve.jobs import JobRecord, JobRequest
from repro.serve.server import JOB_STAMP, JobEventsView, JobStampSink

COUNT_KEYS = ("jobs", "ok", "cached", "failed", "skipped")


def _ledger(config):
    return [
        json.loads(line)
        for line in config.ledger_path.read_text().splitlines()
    ]


def _expected_view(ledger, job_id):
    """The job's stamped lines, unstamped and renumbered from 1."""
    events = []
    for event in ledger:
        if event.get(JOB_STAMP) == job_id:
            event = {k: v for k, v in event.items() if k != JOB_STAMP}
            event["seq"] = len(events) + 1
            events.append(event)
    return events


def _ordered(events):
    return [list(event.items()) for event in events]


def test_overlapping_jobs_each_see_only_their_own_events(tmp_path):
    config = ServeConfig(
        data_dir=tmp_path / "serve", port=0, max_concurrency=4
    )
    handle = run_in_thread(config)
    # Switch threads often, so a follower that checks "settled?" and
    # then reads races the worker that writes the job's last lines.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        client = ServeClient(handle.url)
        job_ids, followed, threads = [], {}, []
        for seed in range(4):
            record = client.submit(["test.echo", "test.sleep"], seed=seed)
            job_id = record["id"]
            job_ids.append(job_id)

            def follow(job_id=job_id):
                followed[job_id] = list(client.stream_events(job_id))

            thread = threading.Thread(target=follow)
            thread.start()
            threads.append(thread)
        records = {j: client.wait(j, timeout=60) for j in job_ids}
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        fetched = {j: client.events(j) for j in job_ids}
    finally:
        sys.setswitchinterval(switch_interval)
        handle.stop()

    ledger = _ledger(config)
    kinds = [(e["event"], e.get("job_id")) for e in ledger]
    first_end = min(kinds.index(("serve_job_end", j)) for j in job_ids)
    assert all(
        kinds.index(("serve_job_start", j)) < first_end for j in job_ids
    ), "the four jobs did not overlap"
    for job_id in job_ids:
        expected = _expected_view(ledger, job_id)
        assert expected, f"no stamped lines for {job_id}"
        for view in (fetched[job_id], followed[job_id]):
            assert _ordered(view) == _ordered(expected)
            assert [e["seq"] for e in view] == list(range(1, len(view) + 1))
            assert not any(JOB_STAMP in e for e in view)
            assert not any(e["event"].startswith("serve_") for e in view)
            overall = aggregate_events(view)["overall"]
            assert overall["sweeps"] == 1
            assert {k: overall[k] for k in COUNT_KEYS} == records[job_id][
                "counts"
            ]


def test_each_event_is_written_once(tmp_path, monkeypatch):
    emitted = []
    emit = EventLog.emit

    def counting_emit(self, event, **fields):
        emitted.append(self.path)
        emit(self, event, **fields)

    monkeypatch.setattr(EventLog, "emit", counting_emit)
    config = ServeConfig(
        data_dir=tmp_path / "serve", port=0, max_concurrency=2
    )
    handle = run_in_thread(config)
    client = ServeClient(handle.url)
    job_ids = [
        client.submit(["test.echo", "test.sleep"], seed=seed)["id"]
        for seed in range(3)
    ]
    handle.stop()

    assert not (config.root / "jobs").exists()
    assert not list(config.root.rglob("manifest.json"))
    assert set(emitted) == {config.ledger_path}
    ledger = _ledger(config)
    assert len(ledger) == len(emitted)
    engine = [e for e in ledger if not e["event"].startswith("serve_")]
    assert engine and {e.get(JOB_STAMP) for e in engine} == set(job_ids)
    for job_id in job_ids:
        record = handle.core.jobs.get(job_id)
        manifest = handle.core.artifacts.get_json(record.manifest_digest)
        assert manifest["events_path"] == str(config.ledger_path)


def test_view_holds_back_an_unterminated_line(tmp_path):
    path = tmp_path / "server-events.jsonl"
    ledger = EventLog(path)
    ledger.emit("serve_job_start", job_id="j1")
    record = JobRecord(
        job_id="j1",
        request=JobRequest(artifacts=("test.echo",)),
        state="running",
    )
    view = JobEventsView(path, record)
    assert view.read() == b""  # not started: nothing to show yet
    record.ledger_start = ledger.offset
    mine, other = JobStampSink(ledger, "j1"), JobStampSink(ledger, "j2")
    mine.emit("sweep_start", jobs=1)
    other.emit("sweep_start", jobs=1)
    mine.emit("job_start", index=0)
    ledger.close()
    with path.open("a") as handle:  # a writer caught mid-line
        handle.write('{"event":"job_end","seq":9,"t":1.0,"serve_job":"j1",')

    data = view.read()
    assert data.endswith(b"\n")
    events = [json.loads(line) for line in data.decode().splitlines()]
    assert [(e["event"], e["seq"]) for e in events] == [
        ("sweep_start", 1),
        ("job_start", 2),
    ]
    assert view.read() == b""  # the partial line is still held back

    with path.open("a") as handle:
        handle.write('"index":0}\n')
    record.ledger_end = path.stat().st_size
    record.state = "done"
    assert json.loads(view.read()) == {
        "event": "job_end", "seq": 3, "t": 1.0, "index": 0,
    }
    assert view.read() == b""


def test_follow_sends_lines_landed_while_the_writer_finished():
    """The writer lands its last line and settles during a poll's read."""
    sent = []

    class Writer:
        def write(self, data):
            sent.append(data)

        async def drain(self):
            pass

    settled = []
    last = [b'{"event":"sweep_end","seq":9}\n']

    def read():
        if not settled:
            settled.append(True)  # too late for this read to see
            return b""
        return last.pop() if last else b""

    asyncio.run(
        ServeHTTP(core=None)._tail_chunked(
            Writer(), read, True, lambda: bool(settled)
        )
    )
    body = b"".join(sent)
    assert b'"sweep_end"' in body
    assert body.endswith(b"0\r\n\r\n")
