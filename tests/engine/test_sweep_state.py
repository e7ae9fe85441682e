"""A sweep's state travels with the sweep.

``execute()`` assigns nothing on the cache, sink or tracker it is
handed. Each ``cache_*`` event goes to the sink of the sweep whose
cache call caused it, and each sweep's ``sweep_start``/``sweep_end``
go to that sweep's own ledger, however many sweeps share one cache or
one tracker.
"""

import threading

from repro.engine import JobSpec, ProgressTracker, ResultCache, execute
from repro.obs.events import EventLog, RecordingSink

N_JOBS = 20


def test_sweeps_sharing_a_cache_each_log_their_own_puts(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    logs = [EventLog(tmp_path / f"sweep-{i}.jsonl") for i in range(2)]
    # A sleep leads each sweep, so the two are in flight together.
    sweeps = [
        [JobSpec(runner="test.sleep", kwargs={"duration_s": 0.1}, seed=i)]
        + [
            JobSpec(runner="test.echo", kwargs={"sweep": i}, seed=j)
            for j in range(1, N_JOBS)
        ]
        for i in range(2)
    ]
    errors = []

    def run(i):
        try:
            execute(sweeps[i], cache=cache, events=logs[i])
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert not errors
    for i, log in enumerate(logs):
        events = log.events()
        log.close()
        puts = [e["key"] for e in events if e["event"] == "cache_put"]
        assert len(puts) == N_JOBS
        assert set(puts) == {cache.key_for(spec) for spec in sweeps[i]}


def test_one_tracker_across_two_sweeps_brackets_each_ledger():
    tracker = ProgressTracker()
    sinks = [RecordingSink(), RecordingSink()]
    for i, sink in enumerate(sinks):
        execute(
            [JobSpec(runner="test.echo", kwargs={"sweep": i})],
            events=sink,
            progress=tracker,
        )
    for sink in sinks:
        assert len(sink.of_type("sweep_start")) == 1
        assert len(sink.of_type("sweep_end")) == 1
