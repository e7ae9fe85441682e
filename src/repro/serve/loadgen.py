"""Closed-loop load generator for the serve API (bench + smoke).

``run_load`` fires ``submissions`` sweep submissions at a running
server from ``concurrency`` client threads, waits for every admitted
job to settle, and returns an accounting dict: throughput, p50/p95
submit-to-result latency, admission/rejection counts, and an
invariant check that **no job was lost or duplicated** — every
submitted id appears exactly once in the server's job list, settled.

429 (queue full) responses are retried with backoff rather than
dropped, so the generator measures the server's sustained throughput
under backpressure, not its rejection rate.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import percentile
from repro.serve.client import ServeAPIError, ServeClient


def run_load(
    base_url: str,
    submissions: int,
    concurrency: int = 8,
    artifacts: Optional[List[str]] = None,
    seed_base: int = 0,
    distinct_seeds: Optional[int] = None,
    tenants: int = 1,
    wait_timeout: float = 300.0,
) -> Dict[str, Any]:
    """Submit ``submissions`` sweeps and wait for all of them to settle.

    ``distinct_seeds`` caps how many different seeds are used (None =
    every submission unique); a small value makes most submissions
    dedupe into cache hits, which is how the benchmark exercises the
    cache under a byte budget.
    """
    artifact_list = artifacts if artifacts is not None else ["test.echo"]
    lock = threading.Lock()
    job_ids: List[str] = []
    latencies: List[float] = []
    rejected_retries = 0
    errors: List[str] = []
    next_index = [0]

    def _seed_for(index: int) -> int:
        if distinct_seeds is not None and distinct_seeds > 0:
            return seed_base + (index % distinct_seeds)
        return seed_base + index

    def _worker() -> None:
        nonlocal rejected_retries
        client = ServeClient(base_url)
        while True:
            with lock:
                index = next_index[0]
                if index >= submissions:
                    return
                next_index[0] += 1
            tenant = f"tenant-{index % max(1, tenants)}"
            submitted = time.monotonic()
            backoff = 0.01
            while True:
                try:
                    record = client.submit(
                        artifact_list,
                        seed=_seed_for(index),
                        tenant=tenant,
                    )
                    break
                except ServeAPIError as exc:
                    if exc.status == 429:
                        with lock:
                            rejected_retries += 1
                        time.sleep(backoff)
                        backoff = min(backoff * 2, 0.5)
                        continue
                    with lock:
                        errors.append(str(exc))
                    return
            try:
                final = client.wait(record["id"], timeout=wait_timeout)
            except (ServeAPIError, TimeoutError) as exc:
                with lock:
                    errors.append(str(exc))
                return
            latency = time.monotonic() - submitted
            with lock:
                job_ids.append(record["id"])
                latencies.append(latency)
            if final["state"] != "done":
                with lock:
                    errors.append(
                        f"{record['id']} settled {final['state']}: "
                        f"{final.get('error')}"
                    )

    started = time.monotonic()
    threads = [
        threading.Thread(target=_worker, name=f"loadgen-{i}")
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started

    # Invariant: every submitted job id is unique and every one of
    # them is settled on the server — nothing lost, nothing duplicated.
    client = ServeClient(base_url)
    server_jobs = {job["id"]: job for job in client.jobs()}
    lost = [jid for jid in job_ids if jid not in server_jobs]
    unsettled = [
        jid
        for jid in job_ids
        if jid in server_jobs
        and server_jobs[jid]["state"] not in ("done", "failed", "cancelled")
    ]
    duplicated = len(job_ids) - len(set(job_ids))

    return {
        "submissions": submissions,
        "completed": len(job_ids),
        "elapsed_s": round(elapsed, 6),
        "throughput_jobs_per_s": round(
            len(job_ids) / elapsed if elapsed > 0 else 0.0, 3
        ),
        "latency_p50_s": round(percentile(latencies, 50.0), 6),
        "latency_p95_s": round(percentile(latencies, 95.0), 6),
        "latency_max_s": round(max(latencies), 6) if latencies else 0.0,
        "rejected_retries": rejected_retries,
        "lost_jobs": len(lost),
        "duplicated_jobs": duplicated,
        "unsettled_jobs": len(unsettled),
        "errors": errors[:10],
        "error_count": len(errors),
    }
