"""Progress hooks: jobs done/failed/cached, wall-time, jobs/sec.

The pool calls :meth:`ProgressTracker.start` once and
:meth:`ProgressTracker.update` as each outcome lands (completion
order, not submission order). With a ``stream`` attached the tracker
prints one line per job plus a closing summary — that is what
``python -m repro sweep`` surfaces on stderr. The tracker writes no
events: the run ledger's ``sweep_start``/``sweep_end`` brackets come
from :func:`repro.engine.pool.execute`, so one tracker can narrate any
number of sweeps without touching their ledgers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import IO, Optional


@dataclass
class ProgressSnapshot:
    """Point-in-time counters for a running sweep."""

    total: int = 0
    ok: int = 0
    failed: int = 0
    cached: int = 0
    skipped: int = 0
    elapsed_s: float = 0.0

    @property
    def done(self) -> int:
        return self.ok + self.failed + self.cached + self.skipped

    @property
    def jobs_per_sec(self) -> float:
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.done / self.elapsed_s


class ProgressTracker:
    """Counts outcomes and (optionally) narrates them to a stream."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream
        self.total = 0
        self.ok = 0
        self.failed = 0
        self.cached = 0
        self.skipped = 0
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None

    # -- pool interface --------------------------------------------------
    def start(self, total: int) -> None:
        """Begin a sweep of ``total`` jobs; counts restart from zero."""
        self.total = total
        self.ok = self.failed = self.cached = self.skipped = 0
        self._started_at = time.monotonic()
        self._finished_at = None

    def update(self, outcome) -> None:
        """Record one :class:`repro.engine.pool.JobOutcome`."""
        if outcome.status == "ok":
            self.ok += 1
        elif outcome.status == "cached":
            self.cached += 1
        elif outcome.status == "skipped":
            self.skipped += 1
        else:
            self.failed += 1
        if self.stream is not None:
            snap = self.snapshot()
            detail = f"{outcome.duration_s:.2f}s"
            if outcome.status == "cached":
                detail = "cache hit"
            elif outcome.status == "skipped":
                detail = "failure budget exhausted"
            elif outcome.status == "failed" and outcome.failure is not None:
                detail = outcome.failure.error
            print(
                f"[{snap.done}/{snap.total}] {outcome.spec.display}: "
                f"{outcome.status} ({detail})",
                file=self.stream,
                flush=True,
            )

    def finish(self) -> None:
        self._finished_at = time.monotonic()
        if self.stream is not None:
            print(self.summary(), file=self.stream, flush=True)

    # -- reporting -------------------------------------------------------
    def elapsed_s(self) -> float:
        if self._started_at is None:
            return 0.0
        # `is None`, not truthiness: time.monotonic() may legitimately
        # be 0.0 at finish time, and `or` would keep the clock running.
        end = (
            time.monotonic() if self._finished_at is None else self._finished_at
        )
        return end - self._started_at

    def snapshot(self) -> ProgressSnapshot:
        # A tracker driven without start() (finish-before-start, or
        # update()s alone) has total=0; report what was actually seen
        # rather than a nonsensical "3/0 jobs".
        done = self.ok + self.failed + self.cached + self.skipped
        return ProgressSnapshot(
            total=max(self.total, done),
            ok=self.ok,
            failed=self.failed,
            cached=self.cached,
            skipped=self.skipped,
            elapsed_s=self.elapsed_s(),
        )

    def summary(self) -> str:
        snap = self.snapshot()
        parts = [f"{snap.done}/{snap.total} jobs", f"{snap.ok} ok"]
        parts.append(f"{snap.cached} cached")
        parts.append(f"{snap.failed} failed")
        if snap.skipped:
            parts.append(f"{snap.skipped} skipped")
        return (
            f"{parts[0]}: {', '.join(parts[1:])} in {snap.elapsed_s:.2f}s "
            f"({snap.jobs_per_sec:.2f} jobs/s)"
        )
