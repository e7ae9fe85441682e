"""Job model: submissions, lifecycle records, and the journal.

A submission is a small JSON object::

    {"artifacts": ["fig2", "fig9"], "seed": 7, "scale": 0.25,
     "tenant": "alice", "workers": 1}

:class:`JobRequest` validates it and expands it to the *same*
:class:`~repro.engine.spec.JobSpec` list the ``sweep`` CLI would build
(via :func:`repro.engine.spec.artifact_jobs`), which is what makes
results bit-identical across transports. ``spec_key()`` is a stable
content hash of the submission — two identical submissions share it,
so the server can report deduplication and a restarted server replays
journaled submissions straight into cache hits.

:class:`JobStore` is the in-memory registry of every
:class:`JobRecord` plus an append-only JSONL *journal* of submissions:
the ledger a restarted server replays. Lost jobs are impossible to
miss — every submission is journaled before it is admitted, and every
record settles in exactly one terminal state.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.engine import registry
from repro.engine.spec import JobSpec, artifact_jobs

PathLike = Union[str, Path]

#: Terminal job states (a record never leaves one of these).
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Every state a job record can be in.
JOB_STATES = frozenset({"queued", "running"}) | TERMINAL_STATES


class BadRequest(ValueError):
    """A submission payload the server must reject with 400."""


@dataclass(frozen=True)
class JobRequest:
    """One validated sweep submission."""

    artifacts: tuple
    seed: Optional[int] = None
    scale: float = 1.0
    workers: int = 1
    timeout_s: Optional[float] = None
    retries: Optional[int] = None
    tenant: str = "anonymous"

    @classmethod
    def from_payload(
        cls, payload: Any, default_tenant: str = "anonymous"
    ) -> "JobRequest":
        if not isinstance(payload, dict):
            raise BadRequest("submission body must be a JSON object")
        artifacts = payload.get("artifacts")
        if (
            not isinstance(artifacts, list)
            or not artifacts
            or not all(isinstance(a, str) and a for a in artifacts)
        ):
            raise BadRequest(
                "'artifacts' must be a non-empty list of runner names"
            )
        known = set(registry.available())
        unknown = [a for a in artifacts if a not in known and ":" not in a]
        if unknown:
            raise BadRequest(f"unknown artifact id(s): {', '.join(unknown)}")
        seed = payload.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise BadRequest("'seed' must be an integer")
        scale = payload.get("scale", 1.0)
        if not isinstance(scale, (int, float)) or scale <= 0:
            raise BadRequest("'scale' must be a positive number")
        workers = payload.get("workers", 1)
        if not isinstance(workers, int) or workers < 1:
            raise BadRequest("'workers' must be an integer >= 1")
        timeout_s = payload.get("timeout_s")
        if timeout_s is not None and (
            not isinstance(timeout_s, (int, float)) or timeout_s <= 0
        ):
            raise BadRequest("'timeout_s' must be a positive number")
        retries = payload.get("retries")
        if retries is not None and (
            not isinstance(retries, int) or retries < 0
        ):
            raise BadRequest("'retries' must be an integer >= 0")
        tenant = payload.get("tenant", default_tenant)
        if not isinstance(tenant, str) or not tenant:
            raise BadRequest("'tenant' must be a non-empty string")
        unknown_keys = set(payload) - {
            "artifacts", "seed", "scale", "workers", "timeout_s",
            "retries", "tenant",
        }
        if unknown_keys:
            raise BadRequest(
                f"unknown field(s): {', '.join(sorted(unknown_keys))}"
            )
        return cls(
            artifacts=tuple(artifacts),
            seed=seed,
            scale=float(scale),
            workers=workers,
            timeout_s=float(timeout_s) if timeout_s is not None else None,
            retries=retries,
            tenant=tenant,
        )

    def to_specs(self) -> List[JobSpec]:
        """The canonical spec list — identical to the ``sweep`` CLI's."""
        return artifact_jobs(
            list(self.artifacts), base_seed=self.seed, scale=self.scale
        )

    def as_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "artifacts": list(self.artifacts),
            "seed": self.seed,
            "scale": self.scale,
            "workers": self.workers,
            "tenant": self.tenant,
        }
        if self.timeout_s is not None:
            payload["timeout_s"] = self.timeout_s
        if self.retries is not None:
            payload["retries"] = self.retries
        return payload

    def spec_key(self) -> str:
        """Stable content hash of what will actually run.

        Execution knobs that cannot change results (workers, timeout,
        retries, tenant) are excluded, so the key identifies the
        *work*, mirroring the engine cache's key philosophy.
        """
        body: Dict[str, Any] = {
            "artifacts": list(self.artifacts),
            "seed": self.seed,
            "scale": self.scale,
        }
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class JobRecord:
    """Lifecycle record of one admitted submission."""

    job_id: str
    request: JobRequest
    state: str = "queued"
    submitted_t: float = 0.0
    started_t: Optional[float] = None
    finished_t: Optional[float] = None
    counts: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    result_digest: Optional[str] = None
    manifest_digest: Optional[str] = None
    #: Server-ledger offsets that bound the job's events: after its
    #: ``serve_job_start`` line, and at settle (set before the state
    #: turns terminal). See ``repro.serve.server.JobEventsView``.
    ledger_start: Optional[int] = None
    ledger_end: Optional[int] = None
    gauges: List[Dict[str, Any]] = field(default_factory=list)
    deduplicated: bool = False

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_public_dict(self) -> Dict[str, Any]:
        """What the HTTP API returns for this job."""
        record: Dict[str, Any] = {
            "id": self.job_id,
            "state": self.state,
            "tenant": self.tenant,
            "spec_key": self.request.spec_key(),
            "request": self.request.as_payload(),
            "submitted_t": round(self.submitted_t, 6),
            "deduplicated": self.deduplicated,
        }
        if self.started_t is not None:
            record["started_t"] = round(self.started_t, 6)
        if self.finished_t is not None:
            record["finished_t"] = round(self.finished_t, 6)
            record["latency_s"] = round(
                self.finished_t - self.submitted_t, 6
            )
        if self.counts:
            record["counts"] = dict(self.counts)
        if self.error is not None:
            record["error"] = self.error
        if self.result_digest is not None:
            record["result_digest"] = self.result_digest
        if self.manifest_digest is not None:
            record["manifest_digest"] = self.manifest_digest
        if self.gauges:
            record["gauges"] = self.gauges
        return record


class JobStore:
    """Thread-safe registry of job records + the submission journal.

    The journal is append-only JSONL, one line per admitted
    submission (``{"job_id", "spec_key", "request"}``). It is written
    *before* the job is queued, so even a server killed immediately
    after admission can replay the submission on restart.
    """

    def __init__(self, journal_path: Optional[PathLike] = None) -> None:
        self._lock = threading.Lock()
        self._records: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        self._counter = itertools.count(1)
        self.journal_path = (
            Path(journal_path) if journal_path is not None else None
        )
        self._journal_handle = None

    def new_job_id(self, request: JobRequest) -> str:
        seq = next(self._counter)
        return f"j{seq:06d}-{request.spec_key()[:8]}"

    def add(self, record: JobRecord, journal: bool = True) -> None:
        with self._lock:
            self._records[record.job_id] = record
            self._order.append(record.job_id)
            if journal and self.journal_path is not None:
                if self._journal_handle is None:
                    self.journal_path.parent.mkdir(
                        parents=True, exist_ok=True
                    )
                    self._journal_handle = self.journal_path.open("a")
                line = json.dumps(
                    {
                        "job_id": record.job_id,
                        "spec_key": record.request.spec_key(),
                        "request": record.request.as_payload(),
                    },
                    separators=(",", ":"),
                )
                self._journal_handle.write(line + "\n")
                self._journal_handle.flush()

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def list(
        self, tenant: Optional[str] = None, state: Optional[str] = None
    ) -> List[JobRecord]:
        with self._lock:
            records = [self._records[job_id] for job_id in self._order]
        if tenant is not None:
            records = [r for r in records if r.tenant == tenant]
        if state is not None:
            records = [r for r in records if r.state == state]
        return records

    def counts_by_state(self) -> Dict[str, int]:
        counts = {state: 0 for state in sorted(JOB_STATES)}
        for record in self.list():
            counts[record.state] = counts.get(record.state, 0) + 1
        return counts

    def unsettled(self) -> List[JobRecord]:
        return [r for r in self.list() if not r.terminal]

    def close(self) -> None:
        with self._lock:
            if self._journal_handle is not None:
                self._journal_handle.close()
                self._journal_handle = None

    @staticmethod
    def read_journal(path: PathLike) -> List[Dict[str, Any]]:
        """Parse a submission journal; a torn final line is dropped."""
        entries: List[Dict[str, Any]] = []
        try:
            lines = Path(path).read_text().splitlines()
        except OSError:
            return entries
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                if lineno == len(lines) - 1:
                    break
                raise ValueError(
                    f"{path}: malformed journal entry on line {lineno + 1}"
                ) from None
        return entries
