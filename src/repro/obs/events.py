"""Structured event stream: the engine's append-only run ledger.

The scenario engine narrates a sweep as a flat sequence of typed
events (:data:`EVENT_TYPES`): one ``sweep_start``/``sweep_end`` pair
per :func:`repro.engine.pool.execute` call, ``job_start``/``job_end``
per executed job (with ``job_retry``/``job_timeout`` in between when
attempts fail, and ``job_skipped`` for jobs shed past
``max_failures``), and ``cache_hit``/``cache_put``/
``cache_quarantine``/``cache_put_error``/``cache_evict`` from the
result cache, which writes them to the sink of the sweep whose call
caused them. The ``repro.serve`` job server appends its own
``serve_*`` lifecycle events to the same JSONL wire format (see
``repro.serve.server.SERVE_EVENT_TYPES``). With tracing on
(:mod:`repro.obs.trace`), ``span_start``/``span_end`` pairs record the
hierarchical timing inside the sweep and each job, and calibration
gauges (:mod:`repro.obs.calib`) land as ``gauge`` events. Each event
carries a monotonic timestamp and a per-log sequence number, so
ordering survives even sub-millisecond bursts.

Sinks implement one method, :meth:`EventSink.emit`; the engine guards
every emission site with ``if events is not None`` so a disabled
ledger costs nothing. :class:`EventLog` appends JSON Lines to disk
(one flushed line per event — a crashed sweep keeps everything emitted
so far); :class:`RecordingSink` keeps events in memory for tests and
ad-hoc inspection. Everything here is stdlib-only.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

PathLike = Union[str, Path]

#: Every event type the engine emits (see docs/observability.md for
#: the per-type field schema).
EVENT_TYPES = frozenset(
    {
        "sweep_start",
        "sweep_end",
        "job_start",
        "job_retry",
        "job_timeout",
        "job_end",
        "job_skipped",
        "cache_hit",
        "cache_put",
        "cache_quarantine",
        "cache_put_error",
        "cache_evict",
        "span_start",
        "span_end",
        "gauge",
        "run_summary",
        "reducer_snapshot",
    }
)


class EventSink:
    """Receiver interface for engine events; the base class discards."""

    def emit(self, event: str, **fields: Any) -> None:
        """Record one event. ``fields`` must be JSON-serialisable."""

    def close(self) -> None:
        """Release any resources; emitting after close is an error."""


class RecordingSink(EventSink):
    """Keeps emitted events as dicts in memory (tests, notebooks)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: str, **fields: Any) -> None:
        record: Dict[str, Any] = {"event": event}
        record.update(fields)
        self.events.append(record)

    def of_type(self, event: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["event"] == event]


class EventLog(EventSink):
    """Appends one JSON line per event to ``path``.

    Lines look like ``{"event": "job_end", "seq": 7, "t": 12.04, ...}``
    where ``t`` is :func:`time.monotonic` (comparable *within* one
    process; use ``seq`` to order across restarts) and ``seq`` is a
    per-log counter. The file is opened lazily in append mode, so
    several sweeps can share one ledger, and every line is flushed as
    it is written.

    Durability: the per-line ``flush()`` hands each event to the
    kernel, so a crashed *process* keeps everything emitted so far —
    at worst the final line is torn, which :func:`read_events`
    tolerates. Surviving a crashed *machine* (power loss) additionally
    needs ``fsync=True``, which fsyncs after every line; that is one
    disk round-trip per event, easily 10-100x slower on spinning
    rust, so it is off by default — sweeps are cheap to re-run from
    the cache, ledgers are telemetry, not transactions.

    ``faults`` takes a :class:`repro.faults.FaultPlan` for the log's
    whole life; a ``ledger_tear`` fault writes half of one line and
    then drops every later event, simulating a writer killed
    mid-append.

    :attr:`offset` is the byte offset just past the last line this log
    wrote (0 until the first emit opens the file), so a reader can slice
    the file between two offsets without meeting a partial line of this
    writer.
    """

    def __init__(
        self,
        path: PathLike,
        clock=time.monotonic,
        fsync: bool = False,
        faults: Optional[Any] = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self.faults = faults
        self._clock = clock
        self._seq = 0
        self._lock = threading.Lock()
        self._handle = None
        self._dead = False

    def emit(self, event: str, **fields: Any) -> None:
        with self._lock:
            if self._dead:
                return
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a")
            self._seq += 1
            record: Dict[str, Any] = {
                "event": event,
                "seq": self._seq,
                "t": round(float(self._clock()), 6),
            }
            record.update(fields)
            line = (
                json.dumps(record, separators=(",", ":"), allow_nan=False)
                + "\n"
            )
            if self.faults is not None and self.faults.decide(
                "ledger_tear", index=self._seq
            ):
                # Simulate the writer dying mid-append: half a line
                # reaches the disk, nothing after it ever does.
                self._handle.write(line[: max(1, len(line) // 2)])
                self._handle.flush()
                self._dead = True
                return
            self._handle.write(line)
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())

    @property
    def offset(self) -> int:
        with self._lock:
            if self._handle is None:
                return 0
            # Every line is flushed as it is written, so the descriptor
            # sits just past this log's last line.
            return os.lseek(self._handle.fileno(), 0, os.SEEK_CUR)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def events(self) -> List[Dict[str, Any]]:
        """Read the ledger back (flushes pending writes first)."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
        return read_events(self.path)


def iter_events(path: PathLike) -> "Iterator[Dict[str, Any]]":
    """Stream a JSONL event file one event at a time.

    Same contract as :func:`read_events` — a torn *final* line (writer
    killed mid-append) is dropped with a single ``RuntimeWarning``, a
    malformed line anywhere else raises ``ValueError`` — but events
    are yielded as they are parsed instead of materialised into a
    list, so a multi-gigabyte fleet ledger never lives in the parent's
    RSS. Because a generator cannot know a line is final until it sees
    EOF, an unparseable line is *held back* one step: if another line
    follows, the held line was mid-file and the ledger is corrupt; if
    EOF follows, it was the torn tail and is dropped with the warning.
    """
    path = Path(path)
    with path.open("r") as handle:
        bad_lineno: Optional[int] = None
        for lineno, raw in enumerate(handle, start=1):
            if bad_lineno is not None:
                raise ValueError(
                    f"{path}: malformed event on line {bad_lineno}"
                ) from None
            line = raw.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                bad_lineno = lineno
                continue
            yield event
        if bad_lineno is not None:
            warnings.warn(
                f"{path}: dropping torn final event on line "
                f"{bad_lineno} (writer likely died mid-append)",
                RuntimeWarning,
                stacklevel=2,
            )


def read_events(path: PathLike) -> List[Dict[str, Any]]:
    """Parse a JSONL event file; a trailing partial line is skipped.

    A torn final line happens when a sweep is killed mid-write; every
    complete line before it is still valid, so it is dropped — with a
    ``RuntimeWarning`` naming the line, so silent data loss is never
    *silent* — rather than poisoning the whole ledger. A malformed
    line anywhere *else* is a corrupt file and raises ``ValueError``.
    Materialises the whole ledger; prefer :func:`iter_events` when a
    single pass is enough.
    """
    return list(iter_events(path))
