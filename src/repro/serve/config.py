"""Serve configuration: one dataclass, one data directory layout.

Everything the job server persists lives under one ``data_dir``::

    data_dir/
      cache/            shared engine ResultCache (size-bounded LRU)
      artifacts/        content-addressed store for results and manifests
      server-events.jsonl   the one ledger: every job's engine events,
                        stamped with the job's id, plus serve_* events
      jobs.jsonl        submission journal (restart replay)
      archive/          cross-run RunArchive; one record per drain

The layout is deliberately plain files: a drained server's state is
inspectable with ``repro stats``/``repro cache ls`` and a restarted
server replays the journal against the same cache to 100% hits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

PathLike = Union[str, Path]

#: Default byte budget for the shared result cache (64 MiB).
DEFAULT_CACHE_MAX_BYTES = 64 * 1024 * 1024


@dataclass
class ServeConfig:
    """Tunables for one :class:`repro.serve.server.ServeServer`.

    ``max_concurrency`` bounds how many sweeps run at once (one worker
    thread each); ``queue_limit`` bounds admitted-but-not-started jobs
    per tenant (excess submissions are rejected with 429, the
    backpressure signal); ``job_workers`` is forwarded to ``execute()``
    per sweep (1 = serial in the worker thread, >1 fans out lease
    workers; a sweep with a timeout runs in one lease worker even at
    1, since only a main thread can arm its ``SIGALRM``).
    ``lease_size`` sizes those leases (see ``docs/performance.md``).
    """

    data_dir: PathLike = ".repro-serve"
    host: str = "127.0.0.1"
    port: int = 8321
    max_concurrency: int = 4
    queue_limit: int = 256
    cache_max_bytes: int = DEFAULT_CACHE_MAX_BYTES
    job_workers: int = 1
    timeout_s: Optional[float] = None
    retries: int = 1
    default_tenant: str = "anonymous"
    replay_journal: bool = True
    drain_grace_s: float = 30.0
    lease_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.cache_max_bytes < 0:
            raise ValueError("cache_max_bytes must be >= 0")
        if self.lease_size is not None and self.lease_size < 1:
            raise ValueError("lease_size must be >= 1")

    # -- layout ----------------------------------------------------------
    @property
    def root(self) -> Path:
        return Path(self.data_dir)

    @property
    def cache_dir(self) -> Path:
        return self.root / "cache"

    @property
    def artifacts_dir(self) -> Path:
        return self.root / "artifacts"

    @property
    def ledger_path(self) -> Path:
        return self.root / "server-events.jsonl"

    @property
    def journal_path(self) -> Path:
        return self.root / "jobs.jsonl"

    @property
    def archive_dir(self) -> Path:
        return self.root / "archive"

    def ensure_layout(self) -> None:
        for path in (self.root, self.cache_dir, self.artifacts_dir):
            path.mkdir(parents=True, exist_ok=True)
