"""Serve's shared cache writes each job's cache events to that job.

Every job reads and writes one ``BoundedResultCache``. Each cache call
a job makes takes the job's sink, so a put, and every eviction the put
causes, lands in the server ledger stamped with that job's id.
"""

import json

from repro.obs.stats import aggregate_events
from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.http import run_in_thread
from repro.serve.server import JOB_STAMP


def test_overlapping_jobs_each_get_their_own_cache_traffic(tmp_path):
    # A 1 KiB budget holds ~4 echo entries, so most puts evict.
    config = ServeConfig(
        data_dir=tmp_path / "serve",
        port=0,
        max_concurrency=2,
        cache_max_bytes=1024,
    )
    handle = run_in_thread(config)
    try:
        client = ServeClient(handle.url)
        artifacts = ["test.sleep"] + ["test.echo"] * 6
        job_ids = [
            client.submit(artifacts, seed=seed)["id"] for seed in (1, 2)
        ]
        records = {j: client.wait(j, timeout=60) for j in job_ids}
        views = {j: client.events(j) for j in job_ids}
        stats = client.stats()
    finally:
        handle.stop()

    ledger = [
        json.loads(line)
        for line in config.ledger_path.read_text().splitlines()
    ]
    kinds = [(e["event"], e.get("job_id")) for e in ledger]
    first_end = min(kinds.index(("serve_job_end", j)) for j in job_ids)
    assert all(
        kinds.index(("serve_job_start", j)) < first_end for j in job_ids
    ), "the two jobs did not overlap"
    cache_lines = [e for e in ledger if e["event"].startswith("cache_")]
    assert cache_lines
    assert all(e.get(JOB_STAMP) in job_ids for e in cache_lines)
    evictions = 0
    for job_id in job_ids:
        assert records[job_id]["state"] == "done"
        overall = aggregate_events(views[job_id])["overall"]
        assert overall["cache_puts"] == overall["ok"] == len(artifacts)
        evictions += sum(
            1 for e in views[job_id] if e["event"] == "cache_evict"
        )
    assert evictions > 0
    assert evictions == stats["cache"]["evictions"]
