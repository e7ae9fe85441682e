"""The serve core: admission → execution → settlement, transport-free.

:class:`ServeServer` is the synchronous heart of ``repro serve``; the
HTTP layer (:mod:`repro.serve.http`) is a thin asyncio shell over it,
and tests drive it directly. One instance owns:

* a shared :class:`~repro.serve.store.BoundedResultCache` — every
  tenant's sweeps read and write one content-keyed cache under one
  byte budget;
* a :class:`~repro.serve.store.ArtifactStore` for result payloads and
  manifests (content-addressed, deduplicated);
* a :class:`~repro.serve.jobs.JobStore` + submission journal;
* a :class:`~repro.serve.scheduler.FairScheduler` worker pool;
* one ledger, ``server-events.jsonl``: every engine event from every
  job, stamped with the job's id (:data:`JOB_STAMP`), plus ``serve_*``
  lifecycle events — ``repro stats`` reconciles it. A job's own ledger
  is a view of it (:class:`JobEventsView`), so each event is written
  and flushed once.

Execution calls ``execute()`` from worker threads. Untimed sweeps run
serially in the thread; a sweep with a timeout runs in one lease
worker, whose main thread arms the engine's ``SIGALRM`` budget under
the parent watchdog. The cache is shared, but every cache call a job
makes takes that job's sink (``execute(events=sink)``), so each job's
view gets its own cache traffic, evictions its puts caused included.

Drain is a promise kept: :meth:`drain` stops admissions, every
already-admitted job settles (the crash-recovery machinery inside
``execute`` still applies per job), ledgers and the journal are
flushed, and a restarted server replays the journal — completed
submissions come straight back as 100% cache hits.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.engine.cache import default_code_version
from repro.engine.pool import execute
from repro.obs.events import EventLog, EventSink
from repro.obs.manifest import build_manifest
from repro.serve.config import ServeConfig
from repro.serve.jobs import BadRequest, JobRecord, JobRequest, JobStore
from repro.serve.scheduler import Draining, FairScheduler, QueueFull
from repro.serve.store import ArtifactStore, BoundedResultCache

#: Server-lifecycle event types appended to the engine's JSONL wire
#: format (engine event types are in ``repro.obs.events.EVENT_TYPES``).
SERVE_EVENT_TYPES = frozenset(
    {
        "serve_start",
        "serve_stop",
        "serve_submit",
        "serve_reject",
        "serve_job_start",
        "serve_job_end",
        "serve_drain_begin",
        "serve_drain_end",
        "serve_replay",
    }
)


#: The key that stamps each of a job's engine events with the job's id
#: in the server ledger. The ``serve_*`` lifecycle events name their job
#: as ``job_id``; a key of its own keeps them out of the job's view.
JOB_STAMP = "serve_job"


class JobStampSink(EventSink):
    """Write a job's engine events to the server ledger, stamped."""

    def __init__(self, ledger: EventSink, job_id: str) -> None:
        self.ledger = ledger
        self.job_id = job_id

    def emit(self, event: str, **fields: Any) -> None:
        self.ledger.emit(event, **{JOB_STAMP: self.job_id}, **fields)


class JobEventsView:
    """One job's run ledger, read out of the server ledger.

    Reading starts at ``record.ledger_start`` (the ledger's offset once
    the job's ``serve_job_start`` was flushed) and, once the job is
    settled, stops at ``record.ledger_end``. It keeps the lines stamped
    with the job's id, drops the stamp and renumbers ``seq`` from 1: the
    ledger a ``repro sweep --events`` run of the same sweep writes, up
    to timings. Each :meth:`read` returns the complete lines that landed
    since the last one; a line still without its newline is held back
    until it has one.
    """

    def __init__(
        self, ledger_path: Union[str, Path], record: JobRecord
    ) -> None:
        self.path = Path(ledger_path)
        self.record = record
        self.pos: Optional[int] = None
        self.seq = 0
        self._mark = f'"{JOB_STAMP}":{json.dumps(record.job_id)}'.encode()

    def read(self) -> bytes:
        record = self.record
        if self.pos is None:
            if record.ledger_start is None:
                return b""  # not started yet
            self.pos = record.ledger_start
        # The worker sets ledger_end before the terminal state, so a
        # caller that saw the job settled before this read stops at it.
        end = record.ledger_end
        try:
            with self.path.open("rb") as handle:
                handle.seek(self.pos)
                data = handle.read(
                    -1 if end is None else max(0, end - self.pos)
                )
        except OSError:
            return b""
        whole = data[: data.rfind(b"\n") + 1]
        self.pos += len(whole)
        lines = []
        for line in whole.split(b"\n"):
            if self._mark not in line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # a torn line a dead writer left mid-file
            if event.pop(JOB_STAMP, None) != record.job_id:
                continue
            self.seq += 1
            event["seq"] = self.seq
            lines.append(
                json.dumps(event, separators=(",", ":"), allow_nan=False)
                + "\n"
            )
        return "".join(lines).encode()


class ServeServer:
    """Transport-agnostic job server over :func:`repro.engine.execute`."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        config.ensure_layout()
        self.ledger = EventLog(config.ledger_path)
        self.cache = BoundedResultCache(
            config.cache_dir, max_bytes=config.cache_max_bytes
        )
        self.artifacts = ArtifactStore(config.artifacts_dir)
        self.jobs = JobStore(journal_path=config.journal_path)
        self.scheduler = FairScheduler(
            self._run_job,
            max_concurrency=config.max_concurrency,
            queue_limit=config.queue_limit,
        )
        # One source scan at startup; every job keys the cache on it.
        self.code_version = default_code_version()
        self._gauge_board: Dict[str, Dict[str, Any]] = {}
        self._board_lock = threading.Lock()
        self._spec_keys_seen: Dict[str, str] = {}  # spec_key -> job_id
        self._started_at = time.monotonic()
        self._state_lock = threading.Lock()
        self._drained = False
        self._close_started = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> int:
        """Start worker threads; replay the journal; return replayed count."""
        self.scheduler.start()
        self.ledger.emit(
            "serve_start",
            code_version=self.code_version,
            max_concurrency=self.config.max_concurrency,
            cache_max_bytes=self.config.cache_max_bytes,
        )
        replayed = 0
        if self.config.replay_journal:
            replayed = self._replay_journal()
        return replayed

    def _replay_journal(self) -> int:
        """Re-admit every journaled submission (restart warm-up).

        Settled submissions replay straight into engine-cache hits;
        submissions the previous process admitted but never finished
        actually run — no admitted job is ever lost to a restart.
        """
        entries = JobStore.read_journal(self.config.journal_path)
        replayed = 0
        for entry in entries:
            try:
                request = JobRequest.from_payload(
                    entry.get("request"),
                    default_tenant=self.config.default_tenant,
                )
            except BadRequest:
                continue
            try:
                record = self._admit(request, journal=False)
            except (QueueFull, Draining):
                break
            record.deduplicated = False
            replayed += 1
        if replayed:
            self.ledger.emit("serve_replay", submissions=replayed)
        return replayed

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admissions and settle the backlog; idempotent."""
        with self._state_lock:
            already = self._drained
            self._drained = True
        if not already:
            self.ledger.emit(
                "serve_drain_begin", **self.scheduler.stats()
            )
        settled = self.scheduler.stop(
            timeout=timeout if timeout is not None
            else self.config.drain_grace_s
        )
        if not already:
            self.ledger.emit(
                "serve_drain_end",
                settled=settled,
                jobs=self.jobs.counts_by_state(),
            )
        return settled

    def close(self) -> None:
        with self._state_lock:
            if self._close_started:
                return
            self._close_started = True
        self.drain()
        self.ledger.emit("serve_stop", uptime_s=round(self.uptime_s, 3))
        self.jobs.close()
        self.ledger.close()
        # Only now is the ledger final: flip `closed` (the follow
        # stream's termination signal) and archive the whole run.
        with self._state_lock:
            self._closed = True
        self._archive_run()

    def _archive_run(self) -> None:
        """Append this server run's record to the data-dir archive.

        One streaming pass over the (now-closed) server ledger folds
        every job's engine events into a single ``kind="serve"``
        record, so drained server runs land in the same cross-run
        timeline as CLI sweeps (``repro history --archive
        <data_dir>/archive``). Best-effort: a broken archive never
        blocks shutdown.
        """
        import warnings

        from repro.obs.history import RunArchive, record_from_ledger

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                record = record_from_ledger(
                    self.config.ledger_path,
                    label=f"serve {self.config.root}",
                    kind="serve",
                    extra={"jobs_by_state": self.jobs.counts_by_state()},
                )
            RunArchive(self.config.archive_dir).append(record)
        except (OSError, ValueError) as exc:
            warnings.warn(
                f"could not archive serve run: {exc}", RuntimeWarning
            )

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_at

    @property
    def draining(self) -> bool:
        with self._state_lock:
            return self._drained

    @property
    def closed(self) -> bool:
        """True once the server ledger is final (nothing more appends)."""
        with self._state_lock:
            return self._closed

    # -- admission -------------------------------------------------------
    def submit(self, payload: Any) -> JobRecord:
        """Validate, journal, and enqueue one submission.

        Raises :class:`~repro.serve.jobs.BadRequest`,
        :class:`~repro.serve.scheduler.QueueFull`, or
        :class:`~repro.serve.scheduler.Draining` — the HTTP layer maps
        them to 400/429/503.
        """
        request = JobRequest.from_payload(
            payload, default_tenant=self.config.default_tenant
        )
        return self._admit(request, journal=True)

    def _admit(self, request: JobRequest, journal: bool) -> JobRecord:
        record = JobRecord(
            job_id=self.jobs.new_job_id(request),
            request=request,
            submitted_t=time.monotonic(),
        )
        spec_key = request.spec_key()
        record.deduplicated = spec_key in self._spec_keys_seen
        self._spec_keys_seen.setdefault(spec_key, record.job_id)
        # Journal before queueing: a server killed right after this
        # line still replays the submission on restart — admitted work
        # is never lost, at worst re-run (and then cache-hit).
        self.jobs.add(record, journal=journal)
        try:
            self.scheduler.submit(record)
        except (QueueFull, Draining) as exc:
            record.state = "cancelled"
            record.error = exc.__class__.__name__
            record.finished_t = time.monotonic()
            self.ledger.emit(
                "serve_reject",
                job_id=record.job_id,
                tenant=request.tenant,
                spec_key=spec_key,
                reason=exc.__class__.__name__,
            )
            raise
        self.ledger.emit(
            "serve_submit",
            job_id=record.job_id,
            tenant=request.tenant,
            spec_key=spec_key,
            artifacts=list(request.artifacts),
            deduplicated=record.deduplicated,
        )
        return record

    # -- execution (worker threads) --------------------------------------
    def _run_job(self, record: JobRecord) -> None:
        record.state = "running"
        record.started_t = time.monotonic()
        request = record.request
        self.ledger.emit(
            "serve_job_start",
            job_id=record.job_id,
            tenant=record.tenant,
            artifacts=list(request.artifacts),
        )
        record.ledger_start = self.ledger.offset
        sink = JobStampSink(self.ledger, record.job_id)
        state = "failed"
        try:
            result = execute(
                request.to_specs(),
                # A submission asking for parallelism wins; otherwise
                # the server-wide default applies.
                workers=(
                    request.workers
                    if request.workers > 1
                    else self.config.job_workers
                ),
                timeout_s=(
                    request.timeout_s
                    if request.timeout_s is not None
                    else self.config.timeout_s
                ),
                retries=(
                    request.retries
                    if request.retries is not None
                    else self.config.retries
                ),
                cache=self.cache,
                code_version=self.code_version,
                events=sink,
                lease_size=self.config.lease_size,
            )
            state = self._settle(record, result, sink)
        except Exception as exc:  # defensive: execute() shouldn't raise
            record.error = f"{exc.__class__.__name__}: {exc}"
        finally:
            record.finished_t = time.monotonic()
            # The job's view ends here. Publish the offset before the
            # state that tells a follower the job is over.
            record.ledger_end = self.ledger.offset
            record.state = state
            self.ledger.emit(
                "serve_job_end",
                job_id=record.job_id,
                tenant=record.tenant,
                state=record.state,
                latency_s=round(
                    record.finished_t - record.submitted_t, 6
                ),
            )

    def _settle(self, record, result, sink) -> str:
        """Store the job's outputs; return its terminal state."""
        from repro.experiments.export import sweep_payload
        from repro.obs.calib import evaluate_gauges, values_from_result

        # Gauges over this job's results, into the ledger and onto the
        # server-wide scoreboard; a skipped gauge measured nothing.
        evaluated = evaluate_gauges(values_from_result(result))
        scored = [
            g.event_fields() for g in evaluated if g.status != "skipped"
        ]
        for fields in scored:
            sink.emit("gauge", **fields)
        record.gauges = scored
        with self._board_lock:
            for fields in scored:
                self._gauge_board[fields["name"]] = dict(
                    fields, job_id=record.job_id
                )

        manifest = build_manifest(
            result,
            base_seed=record.request.seed,
            scale=record.request.scale,
            argv=["serve", record.job_id] + list(record.request.artifacts),
            cache_dir=self.config.cache_dir,
            events_path=self.config.ledger_path,
        )
        record.manifest_digest = self.artifacts.put_json(manifest)
        record.result_digest = self.artifacts.put_json(
            {
                "job_id": record.job_id,
                "spec_key": record.request.spec_key(),
                "summary": result.summary(),
                "values": sweep_payload(result.outcomes),
                "statuses": {
                    o.spec.display: o.status for o in result.outcomes
                },
            }
        )
        record.counts = result.counts
        if not (record.counts["failed"] or record.counts["skipped"]):
            return "done"
        failures = result.failures()
        if failures:
            record.error = (
                f"{failures[0].label}: {failures[0].error_type}: "
                f"{failures[0].error}"
            )
        return "failed"

    # -- introspection ---------------------------------------------------
    def job_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        record = self.jobs.get(job_id)
        if record is None or record.result_digest is None:
            return None
        return self.artifacts.get_json(record.result_digest)

    def gauge_board(self) -> List[Dict[str, Any]]:
        with self._board_lock:
            return [
                self._gauge_board[name]
                for name in sorted(self._gauge_board)
            ]

    def stats(self) -> Dict[str, Any]:
        return {
            "uptime_s": round(self.uptime_s, 3),
            "draining": self.draining,
            "code_version": self.code_version,
            "scheduler": self.scheduler.stats(),
            "cache": self.cache.stats(),
            "artifacts": {
                "blobs": len(self.artifacts),
                "size_bytes": self.artifacts.size_bytes(),
            },
            "jobs": self.jobs.counts_by_state(),
        }

    def metrics_text(self) -> str:
        """OpenMetrics exposition: serve counters + gauge scoreboard."""
        from repro.obs.openmetrics import render_openmetrics

        stats = self.stats()
        lines = []
        lines.append("# TYPE repro_serve_jobs gauge")
        lines.append(
            "# HELP repro_serve_jobs Jobs by lifecycle state."
        )
        for state, count in sorted(stats["jobs"].items()):
            lines.append(
                f'repro_serve_jobs{{state="{state}"}} {count}'
            )
        sched = stats["scheduler"]
        lines.append("# TYPE repro_serve_admitted counter")
        lines.append(f"repro_serve_admitted_total {sched['admitted']}")
        lines.append("# TYPE repro_serve_rejected counter")
        lines.append(f"repro_serve_rejected_total {sched['rejected']}")
        cache = stats["cache"]
        lines.append("# TYPE repro_serve_cache_bytes gauge")
        lines.append(f"repro_serve_cache_bytes {cache['approx_bytes']}")
        lines.append("# TYPE repro_serve_cache_evictions counter")
        lines.append(
            f"repro_serve_cache_evictions_total {cache['evictions']}"
        )
        board = self.gauge_board()
        body = render_openmetrics(board) if board else "# EOF\n"
        return "\n".join(lines) + "\n" + body
