"""Fault-tolerant job execution: in the calling thread, or leased out.

:func:`execute` takes a list of :class:`JobSpec` (or a
:class:`SweepSpec`) and runs every job to an outcome:

* ``workers <= 1`` runs in the calling thread through *the same*
  per-job code path the workers use, so serial execution is the
  reference behaviour, not a separate implementation.
* ``workers > 1`` runs the one parallel executor: persistent warm
  worker processes each receive leases of consecutive jobs and stream
  one record back per job, amortising process spawn/teardown across
  the lease and shipping large result ndarrays through a per-worker
  shared-memory ring (:mod:`repro.engine.shm`) instead of the pickle
  pipe; ``lease_size=1`` is per-job dispatch. Jobs cross the boundary
  pickled, as plain dict payloads (runner *name* + kwargs + seed), and
  each worker resolves the body via :mod:`repro.engine.registry`. A worker
  that dies mid-job (segfault, OOM kill, injected crash) settles *that
  job* as a structured :class:`JobFailure` with ``error_type ==
  "WorkerCrashError"``, the lease's unstarted remainder is re-leased
  to a replacement worker, and the sweep keeps draining.
* Per-job wall-clock timeouts use ``SIGALRM``, which only a main
  thread can arm. Lease workers run jobs on their main thread, and a
  timed sweep called off the main thread (a ``repro.serve`` worker
  thread) runs in one lease worker instead of the calling thread. The
  parent-side watchdog reclaims workers whose timeout was defeated
  (e.g. a hang inside C code) by killing them after the job's whole
  attempt budget plus a grace period.
* Transient failures (:data:`TRANSIENT_ERRORS`) are retried with
  exponential backoff up to ``retries`` extra attempts; permanent
  errors fail fast. Either way a failed job yields a structured
  :class:`JobFailure` record and the rest of the sweep keeps running.
  ``max_failures`` bounds that tolerance: once more than that many
  jobs have failed, remaining jobs settle as ``"skipped"`` and the
  result is marked partial.
* With a :class:`~repro.engine.cache.ResultCache` attached, results are
  normalised via ``to_jsonable`` and persisted, and matching jobs are
  served from disk on later sweeps (``status == "cached"``); the cache
  decodes fresh puts and hits alike (``decode_value``). A failed
  put (disk full, permissions) is recorded and warned about, never
  fatal — the in-memory result still settles normally.
* A :class:`~repro.faults.FaultPlan` (``faults=``) injects
  deterministic failures at every layer above; see
  ``docs/robustness.md``. With no plan attached the injection sites
  cost one ``is None`` check each.

Determinism: per-job seeds are fixed at spec time and outcomes are
re-ordered by job index, so ``workers=N`` is bit-identical to
``workers=1`` for the same spec.

``KeyboardInterrupt`` (and other ``BaseException``) is *not* recorded
as a job failure: it aborts the sweep, terminating any live workers on
the way out, so Ctrl-C during a chaos run behaves like Ctrl-C.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import signal
import threading
import time
import traceback
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.engine import registry
from repro.engine import shm as shm_mod
from repro.engine.cache import ResultCache, default_code_version
from repro.engine.errors import TRANSIENT_ERRORS, JobTimeoutError
from repro.engine.progress import ProgressTracker
from repro.engine.spec import JobSpec, SweepSpec
from repro.experiments.export import to_jsonable
from repro.obs.events import EventSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, activate as trace_activate, span as trace_span

#: Extra wall-clock granted on top of a job's whole attempt budget
#: before the parent watchdog declares the worker hung and kills it.
_WATCHDOG_GRACE_S = 5.0

#: How long a terminated lease worker may take to exit before SIGKILL.
_TERMINATE_GRACE_S = 1.0

#: glibc ``mallopt`` parameter numbers (``<malloc.h>``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: Lease workers serve blocks below this from the heap, not from a
#: fresh ``mmap``: the ceiling glibc's own dynamic threshold reaches on
#: 64-bit (``DEFAULT_MMAP_THRESHOLD_MAX``).
_MMAP_THRESHOLD_BYTES = 32 << 20

#: Free heap a lease worker keeps before glibc trims it back to the
#: kernel; at least twice the mmap threshold, as glibc pairs them.
_TRIM_THRESHOLD_BYTES = 64 << 20


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one job that exhausted its attempts."""

    runner: str
    label: str
    error: str
    error_type: str
    attempts: int
    transient: bool
    traceback: str = ""


@dataclass
class JobOutcome:
    """Terminal state of one job: ``ok``, ``cached``, ``failed``, or
    ``skipped`` (never started because the sweep hit ``max_failures``)."""

    spec: JobSpec
    status: str
    value: Any = None
    failure: Optional[JobFailure] = None
    attempts: int = 0
    duration_s: float = 0.0


@dataclass
class SweepResult:
    """All outcomes of one :func:`execute` call, in job-index order.

    ``stats`` is the metrics registry's aggregated block (per-runner
    job timers plus retry/timeout/cache counters); ``code_version`` is
    the tag the cache keyed on, recorded so a run manifest can pin it.
    ``partial`` is True when any job failed or was skipped — the
    surviving values are valid, but ``values()`` has holes.
    """

    outcomes: List[JobOutcome]
    elapsed_s: float = 0.0
    workers: int = 1
    stats: Dict[str, Any] = field(default_factory=dict)
    code_version: Optional[str] = None

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def values(self) -> List[Any]:
        """Per-job result values (``None`` where the job failed/skipped)."""
        return [o.value for o in self.outcomes]

    def failures(self) -> List[JobFailure]:
        return [o.failure for o in self.outcomes if o.failure is not None]

    @property
    def counts(self) -> Dict[str, int]:
        """``jobs`` and the ``ok``/``cached``/``failed``/``skipped``
        outcome counts, from one pass: the one tally the ledger's
        ``run_summary``/``sweep_end``, the run manifest, serve's job
        records and the CLI's OpenMetrics export all report."""
        counts = dict(
            jobs=len(self.outcomes), ok=0, cached=0, failed=0, skipped=0
        )
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        return counts

    @property
    def ok_count(self) -> int:
        return self.counts["ok"]

    @property
    def cached_count(self) -> int:
        return self.counts["cached"]

    @property
    def failed_count(self) -> int:
        return self.counts["failed"]

    @property
    def skipped_count(self) -> int:
        return self.counts["skipped"]

    @property
    def partial(self) -> bool:
        """True when the sweep completed with holes (failed/skipped)."""
        counts = self.counts
        return bool(counts["failed"] or counts["skipped"])

    @property
    def cache_hit_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.cached_count / len(self.outcomes)

    @property
    def jobs_per_sec(self) -> float:
        if self.elapsed_s <= 0.0:
            return 0.0
        return len(self.outcomes) / self.elapsed_s

    def raise_if_failed(self) -> None:
        failures = self.failures()
        if failures:
            lines = [f"{f.label}: {f.error_type}: {f.error}" for f in failures]
            raise RuntimeError(
                f"{len(failures)} job(s) failed:\n  " + "\n  ".join(lines)
            )

    def summary(self) -> str:
        counts = self.counts
        tail = f", {counts['skipped']} skipped" if counts["skipped"] else ""
        return (
            f"{counts['jobs']} jobs: {counts['ok']} ok, "
            f"{counts['cached']} cached, {counts['failed']} failed{tail} "
            f"in {self.elapsed_s:.2f}s ({self.jobs_per_sec:.2f} jobs/s)"
        )


# ---------------------------------------------------------------------------
# Worker-side execution (also the serial code path).
# ---------------------------------------------------------------------------

@contextmanager
def _job_timeout(seconds: Optional[float], label: str):
    """Raise :class:`JobTimeoutError` after ``seconds`` of wall-clock.

    Armed with ``SIGALRM``, so only on a main thread. Off it,
    :func:`execute` runs timed jobs in a lease worker instead; the one
    exception is a daemonic lease worker, which cannot fork, and there
    the enclosing job's budget and the parent watchdog bound the job.
    """
    if (
        seconds is None
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise JobTimeoutError(f"{label} exceeded {seconds:.3g}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _payload_from(
    spec: JobSpec,
    timeout_s: Optional[float],
    retries: int,
    backoff_s: float,
    faults_payload: Optional[Dict[str, Any]] = None,
    trace_ctx: Optional[Dict[str, Any]] = None,
    profile_dir: Optional[str] = None,
) -> Dict[str, Any]:
    payload = {
        "index": spec.index,
        "runner": spec.runner,
        "kwargs": dict(spec.kwargs),
        "seed": spec.seed,
        "scale": spec.scale,
        "label": spec.display,
        "timeout_s": timeout_s,
        "retries": int(retries),
        "backoff_s": float(backoff_s),
    }
    if faults_payload is not None:
        payload["faults"] = faults_payload
    if trace_ctx is not None:
        payload["trace"] = dict(trace_ctx, **spec.span_attrs())
    if profile_dir is not None:
        payload["profile_dir"] = str(profile_dir)
    return payload


def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job to completion inside the current process.

    Module-level so worker processes can resolve a reference to it;
    importing this module in the worker also (re)loads the registry,
    which is how job names resolve across processes.

    Tracing: when the payload carries span context (``"trace"``), the
    job runs under a fresh collecting :class:`Tracer` — a ``job`` span
    wraps the attempts, runner/kernel spans nest inside it, and the
    finished spans ride home on the record for the parent to replay.
    The tracer is (re)activated here *unconditionally*, replacing
    whatever this thread had before: a parent tracer inherited across
    ``fork`` holds the parent's sink and must never be written from a
    worker.

    ``BaseException`` (KeyboardInterrupt, SystemExit) deliberately
    propagates: in serial mode it aborts the sweep; in a worker it
    kills the process, which the parent settles as a worker crash.
    """
    trace_ctx = payload.get("trace")
    if trace_ctx is None:
        with trace_activate(None):
            return _run_attempts(payload)
    tracer = Tracer.for_payload(trace_ctx, index=payload["index"])
    attrs = {
        k: v for k, v in trace_ctx.items() if k not in ("trace_id", "parent_id")
    }
    with trace_activate(tracer):
        with tracer.span("job", **attrs):
            record = _run_attempts(payload)
    record["spans"] = tracer.export()
    if tracer.dropped:
        record["spans_dropped"] = tracer.dropped
    return record


def _profile_path(profile_dir: str, index: int, runner: str) -> str:
    import os

    os.makedirs(profile_dir, exist_ok=True)
    safe = runner.replace("/", "_")
    return os.path.join(profile_dir, f"job-{index:04d}-{safe}.pstats")


def _run_attempts(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The retry/timeout attempt loop for one job (tracer already set)."""
    label = payload["label"]
    retries = max(0, payload["retries"])
    started = time.monotonic()
    attempts = 0
    last_error: Optional[BaseException] = None
    last_traceback = ""
    fault_plan = None
    if payload.get("faults"):
        # Lazy import: fault-free sweeps never load the injector, and
        # the laziness breaks the faults -> engine -> pool import cycle.
        from repro.faults.plan import FaultPlan

        fault_plan = FaultPlan.from_payload(payload["faults"])
    # Attempt-level telemetry recorded worker-side and replayed into
    # the parent's event sink when the record settles: sinks (open file
    # handles) never cross the process boundary.
    sub_events: List[Dict[str, Any]] = []
    profile_dir = payload.get("profile_dir")
    profiler = None
    while attempts <= retries:
        attempts += 1
        try:
            with _job_timeout(payload["timeout_s"], label), trace_span(
                "attempt", n=attempts
            ):
                if fault_plan is not None:
                    from repro.faults.inject import apply_worker_faults

                    apply_worker_faults(
                        fault_plan,
                        index=payload["index"],
                        runner=payload["runner"],
                        attempt=attempts,
                        in_worker=bool(payload.get("in_worker")),
                    )
                if profile_dir:
                    # Profile the runner call only, never the backoff
                    # sleeps — the pstats should answer "where does the
                    # job's compute go", not "how long did we wait".
                    import cProfile

                    profiler = cProfile.Profile()
                    profiler.enable()
                try:
                    value = registry.call(
                        payload["runner"],
                        payload["kwargs"],
                        seed=payload["seed"],
                        scale=payload["scale"],
                    )
                finally:
                    if profiler is not None:
                        profiler.disable()
            record = {
                "index": payload["index"],
                "status": "ok",
                "value": value,
                "attempts": attempts,
                "duration_s": time.monotonic() - started,
                "events": sub_events,
            }
            if profiler is not None:
                path = _profile_path(
                    profile_dir, payload["index"], payload["runner"]
                )
                profiler.dump_stats(path)
                record["profile_path"] = path
            return record
        except TRANSIENT_ERRORS as exc:
            last_error = exc
            last_traceback = traceback.format_exc()
            if isinstance(exc, JobTimeoutError):
                sub_events.append(
                    {
                        "event": "job_timeout",
                        "attempt": attempts,
                        "timeout_s": payload["timeout_s"],
                        "error": str(exc),
                    }
                )
            if attempts <= retries:
                backoff = payload["backoff_s"] * (2 ** (attempts - 1))
                sub_events.append(
                    {
                        "event": "job_retry",
                        "attempt": attempts,
                        "error_type": exc.__class__.__name__,
                        "error": str(exc) or exc.__class__.__name__,
                        "backoff_s": backoff,
                    }
                )
                time.sleep(backoff)
                continue
            break
        except Exception as exc:
            # Exception, *not* BaseException: KeyboardInterrupt during
            # a sweep must propagate (and abort), not be recorded as a
            # job failure. The original traceback string is preserved
            # on the failure record for post-mortems.
            last_error = exc
            last_traceback = traceback.format_exc()
            break
    assert last_error is not None
    return {
        "index": payload["index"],
        "status": "failed",
        "attempts": attempts,
        "duration_s": time.monotonic() - started,
        "error": str(last_error) or last_error.__class__.__name__,
        "error_type": last_error.__class__.__name__,
        "transient": isinstance(last_error, TRANSIENT_ERRORS),
        "traceback": last_traceback,
        "events": sub_events,
    }


def _outcome_from_record(spec: JobSpec, record: Dict[str, Any]) -> JobOutcome:
    if record["status"] == "ok":
        return JobOutcome(
            spec=spec,
            status="ok",
            value=record["value"],
            attempts=record["attempts"],
            duration_s=record["duration_s"],
        )
    failure = JobFailure(
        runner=spec.runner,
        label=spec.display,
        error=record["error"],
        error_type=record["error_type"],
        attempts=record["attempts"],
        transient=record["transient"],
        traceback=record.get("traceback", ""),
    )
    return JobOutcome(
        spec=spec,
        status="failed",
        failure=failure,
        attempts=record["attempts"],
        duration_s=record["duration_s"],
    )


def _lease_workers(
    workers: int, n_jobs: int, timeout_s: Optional[float]
) -> int:
    """How many lease workers run ``n_jobs``; 0 runs them in-thread.

    ``SIGALRM`` fires only on a main thread, so a timed sweep called
    from any other thread takes one lease worker even at
    ``workers=1``. A daemonic worker (we are already inside a pool)
    cannot fork children, so it runs everything in-thread.
    """
    if n_jobs == 0 or multiprocessing.current_process().daemon:
        return 0
    workers = min(int(workers), n_jobs)
    if workers > 1:
        return workers
    timed = timeout_s is not None and timeout_s > 0
    if timed and threading.current_thread() is not threading.main_thread():
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parent-side orchestration.
# ---------------------------------------------------------------------------

def _crash_detail(exitcode: Optional[int]) -> str:
    if exitcode is None:
        return "worker vanished without an exit code"
    if exitcode < 0:
        return f"worker killed by signal {-exitcode}"
    return f"worker died with exit code {exitcode}"


def _crash_record(
    payload: Dict[str, Any],
    exitcode: Optional[int],
    elapsed_s: float,
    reason: Optional[str] = None,
) -> Dict[str, Any]:
    """A failure record for a worker that died without reporting."""
    return {
        "index": payload["index"],
        "status": "failed",
        "attempts": 1,
        "duration_s": elapsed_s,
        "error": reason or _crash_detail(exitcode),
        "error_type": "WorkerCrashError",
        "transient": False,
        "traceback": "",
        "events": [],
    }


# ---------------------------------------------------------------------------
# Batch-lease execution: persistent warm workers, streamed records.
# ---------------------------------------------------------------------------

def _settle_allocator() -> None:
    """Pin glibc's malloc thresholds for this process.

    glibc starts at a 128 KiB mmap threshold and raises it (and the
    trim threshold, to twice it) only when a large mapped block is
    freed. Until then a fresh process hands every multi-MiB numpy
    temporary back to the kernel when it is freed, and page-faults
    the next one in again. Pinning both thresholds keeps freed blocks
    of up to :data:`_MMAP_THRESHOLD_BYTES` for reuse from the first
    job on. The mmap threshold is set first, and the trim threshold
    only if that succeeded: setting the trim threshold alone switches
    the dynamic mmap threshold off at 128 KiB. Where libc has no
    ``mallopt``, or refuses a value, nothing more is changed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _lease_worker_main(conn, ring_name: str) -> None:
    """Persistent worker loop: recv a lease, stream one record per job.

    Each iteration receives a list of job payloads (one lease), runs
    them in order through the *same* :func:`_execute_payload` the
    in-thread path uses, and sends each record back as it completes
    — so the parent can settle job ``i`` while job ``i+1`` computes.
    ``None`` is the shutdown sentinel; a closed pipe means the parent
    is gone and the worker just exits.

    Large result ndarrays ride ``ring_name``'s shared-memory ring
    instead of the pipe; kwargs arrive pickled. A crash anywhere in
    here closes the pipe without a record for the in-flight job — the
    parent's crash signal.

    Fork copies the parent's signal state. Under an asyncio loop
    (``repro serve``) that is a no-op SIGTERM handler, which would let
    the worker shrug off the watchdog, and a wakeup fd into the
    parent loop's self-pipe. So SIGTERM is reset to its default,
    SIGINT is ignored (Ctrl-C is the parent's to handle) and the
    wakeup fd is dropped. Then the allocator's thresholds are settled
    (:func:`_settle_allocator`), so the worker's first job reuses
    freed memory as its later jobs do.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.set_wakeup_fd(-1)
    _settle_allocator()
    ring = shm_mod.ShmRing.attach(ring_name)
    try:
        while True:
            try:
                lease = conn.recv()
            except (EOFError, OSError):
                return
            if lease is None:
                return
            for payload in lease:
                record = _execute_payload(payload)
                if record.get("status") == "ok":
                    encoded, shipped = shm_mod.encode_arrays(
                        record["value"], ring
                    )
                    if shipped:
                        record["value"] = encoded
                        record["shm_arrays"] = shipped
                try:
                    conn.send(record)
                except (EOFError, OSError):
                    return
    finally:
        ring.close()
        try:
            conn.close()
        except OSError:
            pass


class _LeaseWorker:
    """Parent-side handle on one persistent lease worker.

    Owns the worker process, its duplex pipe, and its shared-memory
    result ring of :data:`repro.engine.shm.DEFAULT_RING_BYTES`
    (parent-owned: created here, unlinked in :meth:`destroy`, never by
    the child). ``lease`` holds the (spec, payload) pairs in flight, so
    a crash's unstarted remainder can be re-leased to a replacement
    worker.
    """

    def __init__(self, ctx) -> None:
        self.ring = shm_mod.ShmRing.create(shm_mod.DEFAULT_RING_BYTES)
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_lease_worker_main,
            args=(child_conn, self.ring.name),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.lease: Optional[List[Tuple[JobSpec, Dict[str, Any]]]] = None
        self.next_i = 0
        self.started = 0.0

    @property
    def busy(self) -> bool:
        return self.lease is not None

    def current(self) -> Tuple[JobSpec, Dict[str, Any]]:
        assert self.lease is not None
        return self.lease[self.next_i]

    def remainder(self) -> List[Tuple[JobSpec, Dict[str, Any]]]:
        """Jobs after the in-flight one (never started; re-leasable)."""
        assert self.lease is not None
        return list(self.lease[self.next_i + 1 :])

    def dispatch(self, lease: List[Tuple[JobSpec, Dict[str, Any]]]) -> None:
        """Ship one lease; raises ``OSError`` if the worker is gone."""
        self.conn.send([payload for _, payload in lease])
        self.lease = list(lease)
        self.next_i = 0
        self.started = time.monotonic()

    def advance(self) -> Optional[JobSpec]:
        """One record settled; returns the next job's spec (or None)."""
        assert self.lease is not None
        self.next_i += 1
        self.started = time.monotonic()
        if self.next_i >= len(self.lease):
            self.lease = None
            self.next_i = 0
            return None
        return self.lease[self.next_i][0]

    def shutdown(self) -> None:
        """Best-effort graceful stop: send the sentinel."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass

    def destroy(self) -> None:
        """Reap the process and free every owned resource; idempotent.

        A worker that outlives SIGTERM (a runner may trap it) is
        killed, so the join below always returns.
        """
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=_TERMINATE_GRACE_S)
            if self.proc.is_alive():
                self.proc.kill()
        self.proc.join()
        try:
            self.conn.close()
        except OSError:
            pass
        self.ring.unlink()


def _auto_lease_size(n_jobs: int, n_workers: int) -> int:
    """Default lease size: ~4 leases per worker.

    Large enough to amortise dispatch over many jobs, small enough
    that a straggling lease can't idle the other workers for long —
    the classic chunking trade-off, same shape as
    ``multiprocessing.Pool``'s default chunksize.
    """
    return max(1, math.ceil(n_jobs / (max(1, n_workers) * 4)))


def _run_batch_leases(
    pending: Sequence[JobSpec],
    payloads: Sequence[Dict[str, Any]],
    n_workers: int,
    *,
    lease_size: int,
    watchdog_s: Optional[float],
    launch: Callable[[JobSpec], None],
    settle: Callable[[JobSpec, Dict[str, Any]], None],
    should_stop: Callable[[], bool],
) -> List[JobSpec]:
    """Fan ``payloads`` out as leases over persistent warm workers.

    Each worker is spawned once and fed leases of ``lease_size``
    consecutive jobs, streaming one record back per job. Every per-job
    guarantee holds at any lease size:

    * a worker that dies mid-lease fails *only* its in-flight job
      (``WorkerCrashError``); records already in the pipe settle
      normally and the unstarted remainder is re-leased — at the front
      of the queue, so job order stays near-index — to a replacement
      worker;
    * the watchdog budget applies per *job*, not per lease (the clock
      re-arms as each record settles);
    * ``job_start`` is emitted when a job actually reaches a worker
      (lease dispatch for the first member, previous settle for the
      rest), keeping the ledger's start/end pairing exact;
    * ``should_stop`` drains undispatched leases to "skipped";
      already-dispatched leases run to completion.

    Returns the specs never dispatched because ``should_stop`` tripped.
    """
    from multiprocessing import connection as mp_connection

    ctx = multiprocessing.get_context()
    pairs = list(zip(pending, payloads))
    leases: deque = deque(
        pairs[start : start + lease_size]
        for start in range(0, len(pairs), lease_size)
    )
    workers: List[_LeaseWorker] = []
    skipped: List[JobSpec] = []

    def _spawn() -> None:
        workers.append(_LeaseWorker(ctx))

    def _fail_worker(worker: _LeaseWorker, reason: Optional[str]) -> None:
        """Settle the in-flight job as a crash, re-lease the rest."""
        spec, payload = worker.current()
        remainder = worker.remainder()
        workers.remove(worker)
        elapsed = time.monotonic() - worker.started
        worker.destroy()  # joins first, so exitcode is final
        settle(
            spec,
            _crash_record(payload, worker.proc.exitcode, elapsed, reason=reason),
        )
        if remainder:
            leases.appendleft(remainder)
        if leases and not should_stop():
            _spawn()

    try:
        for _ in range(max(1, min(n_workers, len(leases)))):
            _spawn()
        while leases or any(w.busy for w in workers):
            if leases and should_stop():
                for lease in leases:
                    skipped.extend(spec for spec, _ in lease)
                leases.clear()
            for worker in list(workers):
                if worker.busy or not leases:
                    continue
                lease = leases.popleft()
                try:
                    worker.dispatch(lease)
                except OSError:
                    # Worker died while idle: nothing was running, so
                    # nothing fails — re-lease and replace.
                    leases.appendleft(lease)
                    workers.remove(worker)
                    worker.destroy()
                    _spawn()
                    continue
                launch(lease[0][0])
            busy = [w for w in workers if w.busy]
            if not busy:
                if leases:
                    continue
                break
            wait_timeout = None
            if watchdog_s is not None:
                now = time.monotonic()
                wait_timeout = max(
                    0.0,
                    min(w.started + watchdog_s - now for w in busy),
                )
            conn_map = {w.conn: w for w in busy}
            for conn in mp_connection.wait(list(conn_map), timeout=wait_timeout):
                worker = conn_map[conn]
                try:
                    record = conn.recv()
                except (EOFError, OSError):
                    record = None
                if record is None:
                    _fail_worker(worker, reason=None)
                    continue
                spec, _ = worker.current()
                if record.get("shm_arrays"):
                    record["value"] = shm_mod.decode_arrays(
                        record["value"], worker.ring
                    )
                settle(spec, record)
                next_spec = worker.advance()
                if next_spec is not None:
                    launch(next_spec)
            if watchdog_s is not None:
                now = time.monotonic()
                for worker in [
                    w
                    for w in workers
                    if w.busy and now - w.started >= watchdog_s
                ]:
                    worker.proc.terminate()
                    _fail_worker(
                        worker,
                        reason=(
                            f"worker unresponsive after {watchdog_s:.3g}s "
                            "(timeout budget + grace); killed by watchdog"
                        ),
                    )
    finally:
        # Clean end: every worker is idle, the sentinel lets it exit
        # on its own. Abort: busy workers are terminated. Either way
        # destroy() joins and unlinks the ring — no process and no
        # shm segment survives this function.
        for worker in workers:
            if worker.busy:
                if worker.proc.is_alive():
                    worker.proc.terminate()
            else:
                worker.shutdown()
        for worker in workers:
            worker.proc.join(timeout=5.0)
            worker.destroy()
    return skipped


def _run_summary_fields(
    result: SweepResult, counts: Dict[str, int]
) -> Dict[str, Any]:
    """The ``run_summary`` event payload for one finished sweep;
    ``counts`` is ``result.counts``."""
    counters = result.stats.get("counters", {})
    runners = {
        name[len("job."):]: {
            key: timer[key]
            for key in ("count", "p50_s", "p95_s", "max_s")
            if key in timer
        }
        for name, timer in result.stats.get("timers", {}).items()
        if name.startswith("job.")
    }
    return {
        **counts,
        "retries": int(counters.get("retries", 0)),
        "timeouts": int(counters.get("timeouts", 0)),
        "cache_hit_rate": (
            counts["cached"] / counts["jobs"] if counts["jobs"] else 0.0
        ),
        "elapsed_s": round(result.elapsed_s, 6),
        "workers": result.workers,
        "code_version": result.code_version,
        "runners": runners,
    }


def _watchdog_budget_s(
    timeout_s: Optional[float], retries: int, backoff_s: float
) -> Optional[float]:
    """Worst-case honest runtime of one job, plus grace — or None.

    Only armed when a per-job timeout is configured: without one there
    is no budget to enforce and slow jobs are presumed legitimate.
    """
    if timeout_s is None or timeout_s <= 0:
        return None
    retries = max(0, int(retries))
    backoff_total = backoff_s * (2 ** retries - 1)
    return timeout_s * (retries + 1) + backoff_total + _WATCHDOG_GRACE_S


def execute(
    jobs: Union[SweepSpec, Sequence[JobSpec]],
    *,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    backoff_s: float = 0.1,
    cache: Optional[ResultCache] = None,
    code_version: Optional[str] = None,
    progress: Optional[ProgressTracker] = None,
    events: Optional[EventSink] = None,
    metrics: Optional[MetricsRegistry] = None,
    faults: Optional[Any] = None,
    max_failures: Optional[int] = None,
    trace: Optional[bool] = None,
    profile_dir: Optional[Any] = None,
    lease_size: Optional[int] = None,
) -> SweepResult:
    """Run every job to an outcome; never raises for job failures.

    With ``cache`` attached, values (fresh and cached alike) are
    normalised through ``to_jsonable`` and decoded back through the
    cache's one decoder (``from_jsonable`` plus its sidecars, see
    :meth:`ResultCache.decode_value`), so both paths return identical
    data *and types*
    (non-finite floats stay floats); without it, runners' raw
    in-memory results pass through. Corrupt cache entries are
    quarantined and recomputed; failed puts are warned about and
    recorded (``cache_put_error``), never fatal.

    With an ``events`` sink attached, the sweep appends its run ledger
    there: ``sweep_start``/``run_summary``/``sweep_end``,
    ``job_start``/``job_retry``/``job_timeout``/``job_end``/
    ``job_skipped`` (from this module), and ``cache_hit``/``cache_put``
    /``cache_quarantine``/``cache_put_error``/``cache_evict`` (from the
    cache calls this sweep makes, which take ``events``). ``execute``
    assigns nothing on the ``cache``, ``events`` or ``progress`` it is
    handed, so sweeps that share them stay apart; ``progress`` only
    narrates to its stream. In parallel mode ``job_start`` marks worker
    launch, and worker-side attempt telemetry is replayed when each
    record settles. ``metrics`` (created per call when not supplied)
    aggregates per-runner job timers and retry/timeout/cache counters
    into ``result.stats``.

    ``faults`` takes a :class:`repro.faults.FaultPlan`; its
    worker-side faults ride along in the job payloads and its cache
    faults go to this sweep's ``cache.get``/``cache.put`` calls. A torn
    ledger (``ledger_tear``) is the sink's own plan:
    ``EventLog(path, faults=plan)``. ``max_failures`` stops
    launching new jobs once more than that many have failed; the
    leftovers settle as ``"skipped"`` and ``result.partial`` is True.
    A ``SweepSpec``'s own ``max_failures`` applies when the argument
    is not given.

    ``trace`` turns hierarchical span tracing on/off; the default
    (``None``) enables it exactly when an event sink is attached. A
    ``sweep`` root span brackets the run, each job carries span
    context into its (possibly remote) execution, and worker-side
    spans are replayed into the ledger at settle time with their
    worker-local offsets preserved (``t_rel`` relative to job start).
    Per-span timers aggregate into ``result.stats`` as
    ``span.<name>``. ``profile_dir`` additionally dumps one cProfile
    ``.pstats`` file per successful job into that directory (profiling
    wraps only the runner call) and records ``profile_path`` on the
    ``job_end`` event.

    ``workers > 1`` leases runs of ``lease_size`` consecutive jobs to
    persistent warm workers (:func:`_run_batch_leases`; process spawn
    cost is amortised over the lease). ``lease_size=1`` is per-job
    dispatch; ``None`` picks ~4 leases per worker. Each worker returns
    large result ndarrays zero-copy through its own 8 MiB shared-memory
    ring; an array the ring cannot hold rides the pipe instead. Leases
    and rings are pure transport: outcomes are bit-identical at every
    lease size, and to ``workers=1``. A ``timeout_s`` sweep called off
    the main thread runs in one lease worker (see
    :func:`_lease_workers`).
    """
    if lease_size is not None and int(lease_size) < 1:
        raise ValueError("lease_size must be >= 1")
    if isinstance(jobs, SweepSpec):
        specs = jobs.expand()
        if max_failures is None:
            max_failures = jobs.max_failures
    else:
        specs = [
            spec if spec.index == i else spec.replace(index=i)
            for i, spec in enumerate(jobs)
        ]
    started = time.monotonic()
    registry_ = metrics if metrics is not None else MetricsRegistry()
    trace_on = (events is not None) if trace is None else bool(trace)
    tracer = Tracer(sink=events) if trace_on else None
    if progress is not None:
        progress.start(len(specs))
    if events is not None:
        events.emit("sweep_start", jobs=len(specs), workers=int(workers))
    root_span = (
        tracer.start("sweep", {"jobs": len(specs), "workers": int(workers)})
        if tracer is not None
        else None
    )
    version = code_version or (default_code_version() if cache else None)
    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    keys: Dict[int, str] = {}
    pending: List[JobSpec] = []
    for spec in specs:
        if cache is not None:
            key = cache.key_for(spec, version)
            keys[spec.index] = key
            hit, value = cache.get(spec, key, events=events, faults=faults)
            if hit:
                outcome = JobOutcome(spec=spec, status="cached", value=value)
                outcomes[spec.index] = outcome
                registry_.counter("jobs_cached").inc()
                if progress is not None:
                    progress.update(outcome)
                continue
        pending.append(spec)

    def _emit_job_start(spec: JobSpec) -> None:
        if events is not None:
            events.emit(
                "job_start",
                index=spec.index,
                runner=spec.runner,
                label=spec.display,
                seed=spec.seed,
            )

    def _settle(spec: JobSpec, record: Dict[str, Any]) -> None:
        outcome = _outcome_from_record(spec, record)
        if cache is not None and outcome.status == "ok":
            # encode_value is to_jsonable plus sidecar diversion:
            # large arrays land as content-addressed .npy files and
            # the record stores a descriptor. The arrays memo keeps
            # the decode below off the disk it just wrote.
            key = keys[spec.index]
            normalised, arrays = cache.encode_value(
                outcome.value, events=events
            )
            try:
                cache.put(spec, key, normalised, events=events, faults=faults)
            except OSError as exc:
                # Disk full / permissions / injected put failure:
                # losing the cache entry must not lose the result.
                registry_.counter("cache_put_errors").inc()
                warnings.warn(
                    f"cache put failed for {spec.display}: {exc}; "
                    "result kept in memory only",
                    RuntimeWarning,
                    stacklevel=2,
                )
                if events is not None:
                    events.emit(
                        "cache_put_error",
                        index=spec.index,
                        runner=spec.runner,
                        label=spec.display,
                        error=str(exc),
                    )
            else:
                registry_.counter("cache_puts").inc()
            outcome.value = cache.decode_value(normalised, arrays)
        for sub in record.get("events", ()):
            kind = sub["event"]
            counter_name = {
                "job_retry": "retries",
                "job_timeout": "timeouts",
            }.get(kind, kind)
            registry_.counter(counter_name).inc()
            if events is not None:
                fields = {k: v for k, v in sub.items() if k != "event"}
                events.emit(
                    kind,
                    index=spec.index,
                    runner=spec.runner,
                    label=spec.display,
                    **fields,
                )
        # Replay the job's worker-side spans into the ledger. They
        # arrive sorted by worker-local start offset (t_rel, seconds
        # since the job began on the worker's monotonic clock) and
        # are emitted as adjacent start/end pairs — a reader anchors
        # them at the job's parent-side job_start timestamp, so the
        # flame timeline reflects real in-job timing, not when the
        # record happened to cross the pipe.
        job_spans = record.get("spans", ())
        if job_spans:
            registry_.counter("spans").inc(len(job_spans))
        for span_rec in job_spans:
            registry_.timer(f"span.{span_rec['name']}").observe(
                span_rec["duration_s"]
            )
            if events is not None:
                base = {
                    "index": spec.index,
                    "runner": spec.runner,
                    "label": spec.display,
                }
                start_fields = dict(span_rec)
                start_fields.pop("duration_s", None)
                events.emit("span_start", **base, **start_fields)
                events.emit("span_end", **base, **span_rec)
        if record.get("spans_dropped"):
            registry_.counter("spans_dropped").inc(
                record["spans_dropped"]
            )
        registry_.counter(f"jobs_{outcome.status}").inc()
        if outcome.failure is not None and (
            outcome.failure.error_type == "WorkerCrashError"
        ):
            registry_.counter("worker_crashes").inc()
        registry_.timer(f"job.{spec.runner}").observe(outcome.duration_s)
        if events is not None:
            end_fields: Dict[str, Any] = {
                "index": spec.index,
                "runner": spec.runner,
                "label": spec.display,
                "status": outcome.status,
                "attempts": outcome.attempts,
                "duration_s": round(outcome.duration_s, 6),
            }
            if outcome.failure is not None:
                end_fields["error_type"] = outcome.failure.error_type
                end_fields["error"] = outcome.failure.error
            if record.get("profile_path"):
                end_fields["profile_path"] = record["profile_path"]
            events.emit("job_end", **end_fields)
        outcomes[spec.index] = outcome
        if progress is not None:
            progress.update(outcome)

    def _should_stop() -> bool:
        return (
            max_failures is not None
            and registry_.counter("jobs_failed").value > max_failures
        )

    faults_payload = faults.worker_payload() if faults is not None else None
    trace_ctx = (
        tracer.context(parent_id=root_span.span_id)
        if tracer is not None and root_span is not None
        else None
    )
    profile_dir_s = str(profile_dir) if profile_dir is not None else None
    payloads = [
        _payload_from(
            spec,
            timeout_s,
            retries,
            backoff_s,
            faults_payload,
            trace_ctx=trace_ctx,
            profile_dir=profile_dir_s,
        )
        for spec in pending
    ]
    n_lease = _lease_workers(workers, len(pending), timeout_s)
    skipped: List[JobSpec] = []
    if not n_lease:
        for spec, payload in zip(pending, payloads):
            if _should_stop():
                skipped.append(spec)
                continue
            _emit_job_start(spec)
            _settle(spec, _execute_payload(payload))
    else:
        for payload in payloads:
            payload["in_worker"] = True
        skipped = _run_batch_leases(
            pending,
            payloads,
            n_lease,
            lease_size=(
                int(lease_size)
                if lease_size is not None
                else _auto_lease_size(len(pending), n_lease)
            ),
            watchdog_s=_watchdog_budget_s(timeout_s, retries, backoff_s),
            launch=_emit_job_start,
            settle=_settle,
            should_stop=_should_stop,
        )
    n_workers = max(1, n_lease)

    for spec in skipped:
        outcome = JobOutcome(spec=spec, status="skipped")
        registry_.counter("jobs_skipped").inc()
        if events is not None:
            events.emit(
                "job_skipped",
                index=spec.index,
                runner=spec.runner,
                label=spec.display,
                reason=f"sweep exceeded max_failures={max_failures}",
            )
        outcomes[spec.index] = outcome
        if progress is not None:
            progress.update(outcome)

    elapsed = time.monotonic() - started
    registry_.timer("sweep").observe(elapsed)
    if tracer is not None and root_span is not None:
        tracer.finish(root_span)
    final = [outcome for outcome in outcomes if outcome is not None]
    assert len(final) == len(specs)
    result = SweepResult(
        outcomes=final,
        elapsed_s=elapsed,
        workers=n_workers,
        stats=registry_.as_dict(),
        code_version=version,
    )
    if events is not None:
        counts = result.counts
        # The cross-run telemetry hook: one self-contained summary
        # event per execute() call, so an archive record (or a live
        # `repro watch`) can be built from the ledger alone without
        # re-deriving engine configuration. Emitted before
        # sweep_end so that event stays the ledger's terminal
        # progress marker.
        events.emit("run_summary", **_run_summary_fields(result, counts))
        events.emit("sweep_end", **counts, elapsed_s=round(elapsed, 6))
    if progress is not None:
        progress.finish()
    return result


def execute_one(
    spec: JobSpec,
    *,
    cache: Optional[ResultCache] = None,
    **kwargs: Any,
) -> JobOutcome:
    """Convenience wrapper: run a single job and return its outcome."""
    result = execute([spec], cache=cache, **kwargs)
    return result.outcomes[0]


def iter_values(result: SweepResult) -> Iterable[Any]:
    """Successful values in job order (failures/skips excluded)."""
    for outcome in result.outcomes:
        if outcome.status in ("ok", "cached"):
            yield outcome.value
