"""``serve_open``: a ``repro serve --port 0`` server fed by one load process.

The server runs at its default concurrency with ``--cache-max-bytes``
well below the distinct results the traffic produces, so the bounded
cache keeps evicting. Submissions carry 1-3 artifacts from four tenants
over a bounded seed pool. A closed-loop phase keeps a fixed window of
jobs outstanding and measures capacity; an open-loop phase then sends
at half that capacity on a fixed schedule. A run does this against
several servers in turn, each started fresh and drained with SIGTERM,
and reports the capacity over all their closed loops. Settles are
learned from the server-wide follow stream (``/v1/events?follow=1``) and
timed with the job records' ``finished_t`` on the shared monotonic
clock, never by polling. The load process uses two connections: one
sender, one follower.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import queue
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import common
import layers

NAME = "serve_open"
WHY = (
    "the only workload with arrivals: queueing, budget eviction, "
    "journaling, per-job ledgers and artifacts under open-loop load"
)

#: Artifacts drawn, with replacement, for each of a submission's 1-3
#: slots. At scale 0.05 both run in about a millisecond, so the serve
#: path itself (admission, journal, ledgers, cache, artifacts) is the cost.
ARTIFACTS = ("fig2", "table2")
SCALE = 0.05
TENANTS = 4
SEED_POOL = 32
#: About 64 of the ~190 distinct results the seed pool yields fit.
CACHE_MAX_BYTES = 64 * 1024
#: Outstanding jobs in the closed loop: enough that the server never
#: waits for the loader to learn of a settle and send the next job.
WINDOW = 32
#: Submissions per second of ``--seconds`` in each phase, split evenly
#: over the passes. Fixed counts, not fixed durations, so every run does
#: the same work.
CLOSED_JOBS_PER_S = 60
OPEN_REQUESTS_PER_S = 10
#: Open-loop requests needed for a p95 with ten samples beyond it.
OPEN_MIN_REQUESTS = 200
#: Server lifetimes per run (and per half of a traced run). Capacity is
#: taken over all their closed loops; set-up time is the median of their
#: starts.
PASSES = 3
STOP_GRACE_S = 60.0
#: Reported in place of a percentile that lands on a refused, failed or
#: unsettled request (infinite latency has no JSON number).
INFINITE_MS = 1e12


def call(port: int, method: str, path: str, body: Optional[bytes] = None,
         timeout_s: float = 60.0):
    """One HTTP request on a fresh connection: ``(status, body bytes)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Traffic:
    """The seeded submission stream."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def next(self) -> Dict[str, Any]:
        chosen = [
            self.rng.choice(ARTIFACTS) for _ in range(self.rng.randint(1, 3))
        ]
        return {
            "artifacts": chosen,
            "seed": self.rng.randrange(SEED_POOL),
            "scale": SCALE,
            "tenant": f"tenant-{self.rng.randrange(TENANTS)}",
        }


class Server:
    """One ``repro serve`` process started through ``serve_launch.py``."""

    def __init__(self, workdir: Path, trace_dir: Optional[str] = None) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.data_dir = workdir / "data"
        self.out_path = workdir / "launch.json"
        cmd = [
            sys.executable,
            str(common.BENCH_DIR / "serve_launch.py"),
            str(self.out_path),
            trace_dir or "-",
            "--",
            "serve",
            "--port",
            "0",
            "--data-dir",
            str(self.data_dir),
            "--cache-max-bytes",
            str(CACHE_MAX_BYTES),
        ]
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            cmd,
            env=common.child_env(),
            cwd=str(workdir),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._stderr = threading.Thread(target=self._drain, daemon=True)
        self._stderr.start()
        try:
            self.port = self._await_port(timeout_s=60.0)
            self.ready = self._await_health(timeout_s=60.0)
        except BaseException:
            self.stop()
            raise

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self._lines.put(line)

    def _await_port(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=0.1)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise RuntimeError("server did not report its port")

    def _await_health(self, timeout_s: float) -> float:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                if call(self.port, "GET", "/healthz", timeout_s=5)[0] == 200:
                    return time.monotonic()
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    @property
    def setup_s(self) -> float:
        return self.ready - self.launched

    def stop(self) -> Dict[str, Any]:
        """SIGTERM, drain, hard kill after the grace; the launcher's report."""
        code = common.stop_process(self.proc, STOP_GRACE_S)
        self._stderr.join(timeout=10)
        report: Dict[str, Any] = {"exit": code}
        if self.out_path.exists():
            report.update(json.loads(self.out_path.read_text()))
        return report


class Follower(threading.Thread):
    """Reads the server-wide follow stream and counts job settles."""

    def __init__(self, port: int) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.cond = threading.Condition()
        self.ends: Dict[str, int] = {}
        self.settled = 0
        self.error: Optional[BaseException] = None
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
        self.conn.request("GET", "/v1/events?follow=1")
        self.response = self.conn.getresponse()

    def run(self) -> None:
        buffer = b""
        try:
            while True:
                chunk = self.response.read1(1 << 16)
                if not chunk:
                    return
                buffer += chunk
                *lines, buffer = buffer.split(b"\n")
                for line in lines:
                    if b'"serve_job_end"' not in line:
                        continue
                    job_id = json.loads(line)["job_id"]
                    with self.cond:
                        self.ends[job_id] = self.ends.get(job_id, 0) + 1
                        self.settled += 1
                        self.cond.notify_all()
        except (OSError, ValueError, http.client.HTTPException) as exc:
            self.error = exc
        finally:
            self.conn.close()

    def wait_settled(self, count: int, timeout_s: float) -> bool:
        deadline = time.monotonic() + timeout_s
        with self.cond:
            while self.settled < count:
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self.cond.wait(left)
        return True


class Load:
    """One pass: closed loop, then open loop, against a running server."""

    def __init__(self, port: int, seed: int) -> None:
        self.port = port
        self.traffic = Traffic(seed)
        self.follower = Follower(port)
        self.follower.start()
        self.admitted: List[str] = []
        self.closed: List[str] = []
        self.open: List[Dict[str, Any]] = []
        self.sent = 0
        self.rejected = 0
        self.failed_sends = 0
        self.submit_ms: List[float] = []

    def submit(self) -> Optional[str]:
        body = json.dumps(self.traffic.next()).encode()
        self.sent += 1
        start = time.monotonic()
        try:
            status, data = call(self.port, "POST", "/v1/jobs", body, timeout_s=30)
        except (OSError, http.client.HTTPException):
            self.failed_sends += 1
            return None
        self.submit_ms.append((time.monotonic() - start) * 1000.0)
        if status in (429, 503):
            self.rejected += 1
            return None
        if status != 202:
            self.failed_sends += 1
            return None
        job_id = json.loads(data)["id"]
        self.admitted.append(job_id)
        return job_id

    def closed_loop(self, count: int) -> float:
        start = time.monotonic()
        while len(self.closed) < count:
            while (
                len(self.closed) < count
                and len(self.admitted) - self.follower.settled < WINDOW
            ):
                job_id = self.submit()
                if job_id is None:
                    return start
                self.closed.append(job_id)
            self.follower.wait_settled(
                len(self.admitted) - WINDOW + 1, timeout_s=30
            )
        self.follower.wait_settled(len(self.admitted), timeout_s=60)
        return start

    def open_loop(self, rate: float, count: int) -> None:
        origin = time.monotonic() + 0.05
        for i in range(count):
            due = origin + i / rate
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            job_id = self.submit()
            self.open.append({"id": job_id, "due": due, "late": sent - due})
        self.follower.wait_settled(len(self.admitted), timeout_s=60)

    def repeated_results(self, records) -> Dict[str, set]:
        """Digests of the values each repeated ``spec_key`` returned."""
        by_key: Dict[str, List[str]] = {}
        for job_id in self.admitted:
            key = records.get(job_id, {}).get("spec_key")
            if key is not None:
                by_key.setdefault(key, []).append(job_id)
        digests: Dict[str, set] = {}
        for key, job_ids in by_key.items():
            if len(job_ids) < 2:
                continue
            for job_id in job_ids:
                _, data = call(self.port, "GET", f"/v1/jobs/{job_id}/result")
                text = json.dumps(json.loads(data).get("values"), sort_keys=True)
                digests.setdefault(key, set()).add(
                    hashlib.sha256(text.encode()).hexdigest()
                )
        return digests

    def records(self) -> Dict[str, Dict[str, Any]]:
        _, data = call(self.port, "GET", "/v1/jobs")
        return {job["id"]: job for job in json.loads(data)["jobs"]}


def one_pass(
    ctx, tag: str, trace_dir: Optional[str], seconds: float, problems: List[str]
) -> Dict[str, Any]:
    """Start a server, drive both phases, drain it, check the outputs."""
    server = Server(ctx.path(f"serve-{tag}"), trace_dir)
    try:
        load = Load(server.port, ctx.seed)
        closed_start = load.closed_loop(round(CLOSED_JOBS_PER_S * seconds))
        records = load.records()
        settles, span = settle_span(
            [records[j]["finished_t"] for j in load.closed if j in records]
        )
        load.open_loop(
            0.5 * settles / span,
            max(
                math.ceil(OPEN_MIN_REQUESTS / PASSES),
                round(OPEN_REQUESTS_PER_S * seconds),
            ),
        )
        records = load.records()
        window = (closed_start, time.monotonic())
        value_digests = load.repeated_results(records)
    finally:
        report = server.stop()
    load.follower.join(timeout=30)
    if load.follower.is_alive():
        problems.append("follow stream did not end after the drain")
    if report.get("exit") != 0 or report.get("code") != 0:
        problems.append(f"server exited {report.get('exit')} on SIGTERM")
    check_outputs(load, records, value_digests, server, problems)

    latency = []
    for sent in load.open:
        record = records.get(sent["id"]) if sent["id"] else None
        if record is None or record.get("state") != "done":
            latency.append(float("inf"))
        else:
            latency.append((record["finished_t"] - sent["due"]) * 1000.0)
    done = [
        records[j] for j in load.admitted if records.get(j, {}).get("state") == "done"
    ]
    counts = [r.get("counts", {}) for r in done]
    return {
        "setup_s": server.setup_s,
        "report": report,
        "settles": settles,
        "span_s": span,
        "window": window,
        "attempted": load.sent,
        "failed": load.rejected + load.failed_sends + len(load.admitted) - len(done),
        "rejected": load.rejected,
        "latency_ms": latency,
        "submit_ms": load.submit_ms,
        "queue_ms": [(r["started_t"] - r["submitted_t"]) * 1000.0 for r in done],
        "run_ms": [(r["finished_t"] - r["started_t"]) * 1000.0 for r in done],
        "late_ms": [s["late"] * 1000.0 for s in load.open],
        "engine_jobs": sum(c.get("jobs", 0) for c in counts),
        "engine_ok": sum(c.get("ok", 0) for c in counts),
        "engine_failed": sum(c.get("failed", 0) for c in counts),
    }


def passes(ctx, tag: str, trace_dir: Optional[str], seconds: float, problems):
    """``PASSES`` server lifetimes sharing ``seconds`` of submissions."""
    return [
        one_pass(ctx, f"{tag}{i}", trace_dir, seconds / PASSES, problems)
        for i in range(PASSES)
    ]


def pooled(runs: List[Dict[str, Any]], key: str) -> List[float]:
    return [value for run in runs for value in run[key]]


def settle_span(settle_times: List[float]) -> Tuple[int, float]:
    """Settles after the first one, and the seconds they took.

    Timed from the first settle, once the window is full, so the
    server's start-up and the loop's ramp do not count.
    """
    times = sorted(settle_times)
    if len(times) < 2 or times[-1] <= times[0]:
        raise RuntimeError("the closed loop settled too few jobs to time")
    return len(times) - 1, times[-1] - times[0]


def capacity(runs: List[Dict[str, Any]]) -> float:
    """Closed-loop jobs/s over every pass: total settles over total time."""
    return sum(r["settles"] for r in runs) / sum(r["span_s"] for r in runs)


def finite(value: Optional[float]) -> Optional[float]:
    if value is None:
        return None
    return INFINITE_MS if math.isinf(value) else value


def check_outputs(
    load: Load, records, value_digests, server: Server, problems: List[str]
) -> None:
    if load.follower.error is not None:
        problems.append(f"follow stream failed: {load.follower.error!r}")
    for job_id in load.admitted:
        ends = load.follower.ends.get(job_id, 0)
        state = records.get(job_id, {}).get("state")
        if ends != 1 or state != "done":
            problems.append(f"job {job_id} settled {ends} time(s) as {state}")
    unknown = set(load.follower.ends) - set(load.admitted)
    if unknown:
        problems.append(f"{len(unknown)} settled job(s) were never submitted")
    for key, digest_set in value_digests.items():
        if len(digest_set) != 1:
            problems.append(f"spec_key {key} returned {len(digest_set)} results")
    cache_dir = server.data_dir / "cache"
    used = sum(p.stat().st_size for p in cache_dir.rglob("*") if p.is_file())
    if used > CACHE_MAX_BYTES:
        problems.append(
            f"cache holds {used} bytes after drain, budget {CACHE_MAX_BYTES}"
        )


def run(ctx) -> Dict[str, Any]:
    problems: List[str] = []
    if not ctx.trace:
        runs = passes(ctx, "main", None, ctx.seconds, problems)
        metrics = {
            "setup_s": common.median([r["setup_s"] for r in runs]),
            "throughput_per_s": capacity(runs),
            "peak_rss_mib": max(r["report"].get("peak_rss_mib", 0.0) for r in runs),
        }
        return ctx.result(
            problems,
            sum(r["attempted"] for r in runs),
            sum(r["failed"] for r in runs),
            metrics,
        )

    plain = passes(ctx, "plain", None, ctx.seconds / 2, problems)
    trace_dir = ctx.trace_dir("serve")
    traced = passes(ctx, "traced", trace_dir, ctx.seconds / 2, problems)
    tables = layers.load(trace_dir)
    metrics = ctx.layer_metrics(
        tables,
        windows=[r["window"] for r in traced],
        main_pids=[r["report"].get("pid") for r in traced],
        workers=1,
    )
    gets = sum(t["calls"].get("engine.cache.get", 0) for t in tables)
    hits = sum(t["counters"].get("engine.cache.get.hits", 0) for t in tables)
    runner_calls = sum(t["calls"].get("engine.runner", 0) for t in tables)
    settled = sum(r["engine_ok"] + r["engine_failed"] for r in traced)
    latency = pooled(plain, "latency_ms")
    metrics.update(
        {
            "latency_p50_ms": finite(common.tail_percentile(latency, 50)),
            "latency_p95_ms": finite(common.tail_percentile(latency, 95)),
            "serve.submit_ms.p50": common.tail_percentile(pooled(plain, "submit_ms"), 50),
            "serve.queue_wait_ms.p50": common.tail_percentile(pooled(plain, "queue_ms"), 50),
            "serve.queue_wait_ms.p95": common.tail_percentile(pooled(plain, "queue_ms"), 95),
            "serve.run_ms.p50": common.tail_percentile(pooled(plain, "run_ms"), 50),
            "serve.run_ms.p95": common.tail_percentile(pooled(plain, "run_ms"), 95),
            "serve.rejected": sum(r["rejected"] for r in plain),
            "loadgen.late_ms.max": max(pooled(plain, "late_ms")),
            "serve.cache.hit_ratio": hits / gets if gets else 0.0,
            "engine.jobs": sum(r["engine_jobs"] for r in traced),
            "engine.retries": max(0, runner_calls - settled),
            "engine.failed": sum(r["engine_failed"] for r in traced),
            "worker_peak_rss_mib": max(
                r["report"].get("children_peak_rss_mib", 0.0) for r in plain
            ),
            "trace.overhead_frac": common.overhead_frac(
                capacity(plain), capacity(traced)
            ),
        }
    )
    return ctx.result(
        problems,
        sum(r["attempted"] for r in plain + traced),
        sum(r["failed"] for r in plain + traced),
        metrics,
    )
