"""``repro watch``: a live terminal view over a growing run ledger.

Tails an events JSONL *while it is being written* — a local file, or
``repro serve``'s server-wide follow stream
(``GET /v1/events?follow=1``) — and folds the events into one
continuously redrawn status panel:

* in-flight progress (done/total with a bar), elapsed, ETA, jobs/s;
* per-runner throughput and p50 over the settled jobs so far;
* fault/retry counters (retries, timeouts, worker crashes, cache
  quarantines) as they happen;
* converging **fleet quantiles** mid-sweep, from the
  ``reducer_snapshot`` events the fleet tracker emits as shard
  partials settle (:class:`repro.fleet.FleetSnapshotTracker`);
* the gauge scoreboard and the engine's ``run_summary`` once the
  sweep lands.

Its counts come from the shared :class:`repro.obs.stats.LedgerFold`,
so on every prefix of a ledger they equal ``repro stats``' (a job
started but not ended counts as failed; the panel shows it as in
flight while the run is live). The tailer reads bounded chunks and
cuts lines scanning from an offset: linear time, and one chunk plus
one unfinished line in memory however large the ledger grows. It
never yields a half-written event: bytes are held back until a
newline, so a reader racing the writer sees only complete lines. A
line that *completes* but does not parse (a torn write that a later
writer appended after) is skipped with a single ``RuntimeWarning`` —
the tail keeps going — and a trailing unterminated fragment left at
shutdown warns the same way (the writer died mid-append).

Keybindings (interactive TTY only): ``q`` quits, ``r`` forces a
redraw. See docs/observability.md.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterator,
    Mapping,
    Optional,
    Union,
)

from repro.obs.metrics import percentile
from repro.obs.stats import LedgerFold, tally_gauges

PathLike = Union[str, Path]

_BAR_WIDTH = 24

#: Characters :func:`follow_events` reads from the ledger at a time.
READ_CHUNK = 1 << 20


class _LineAssembler:
    """Byte buffering: complete lines out, partial writes held back."""

    def __init__(self, source: str) -> None:
        self.source = source
        self._buffer = ""
        self._start = 0  # offset of the first unconsumed character
        self._warned = False

    def push(self, chunk: str) -> Iterator[Dict[str, Any]]:
        """Feed raw text; yields every event completed by it.

        Lines are cut by scanning from an offset, and only the
        unfinished tail is carried to the next push, so the cost is
        linear in the text fed, whatever the chunking.
        """
        if not chunk:
            return
        self._buffer = self._buffer[self._start:] + chunk
        self._start = 0
        while True:
            end = self._buffer.find("\n", self._start)
            if end < 0:
                return
            line = self._buffer[self._start:end].strip()
            self._start = end + 1
            if not line:
                continue
            try:
                yield json.loads(line)
            except ValueError:
                self._warn(
                    f"{self.source}: skipping malformed event line "
                    "(torn write?); tail continues"
                )

    def finish(self) -> None:
        """Call at end-of-follow: a leftover fragment is a torn tail."""
        if self._buffer[self._start:].strip():
            self._warn(
                f"{self.source}: dropping torn trailing event fragment "
                "(writer likely died mid-append)"
            )
        self._buffer, self._start = "", 0

    def _warn(self, message: str) -> None:
        if self._warned:
            return
        self._warned = True
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def follow_events(
    path: PathLike,
    *,
    poll_s: float = 0.2,
    stop: Optional[Callable[[], bool]] = None,
    from_start: bool = True,
) -> Iterator[Optional[Dict[str, Any]]]:
    """Tail a ledger file, yielding events as lines complete.

    Yields ``None`` once per idle poll so the driver can redraw clocks
    and check its own exit conditions without a second thread. The
    file may not exist yet (a sweep about to start); the tailer waits
    for it. ``stop()`` is checked every poll; when it returns True the
    generator drains whatever is already on disk and returns.
    ``from_start=False`` starts at the current end of file (attach to
    a long-running serve ledger without replaying history). The file
    is read :data:`READ_CHUNK` characters at a time, each poll
    draining to the end of what is on disk.
    """
    path = Path(path)
    assembler = _LineAssembler(str(path))
    handle: Optional[IO[str]] = None
    try:
        while True:
            if handle is None:
                if path.exists():
                    handle = path.open("r")
                    if not from_start:
                        handle.seek(0, 2)
            got_data = False
            while handle is not None:
                chunk = handle.read(READ_CHUNK)
                if chunk:
                    got_data = True
                    yield from assembler.push(chunk)
                if len(chunk) < READ_CHUNK:
                    break  # a short read is the current end of file
            if stop is not None and stop():
                return
            if not got_data:
                yield None
                time.sleep(poll_s)
    finally:
        assembler.finish()
        if handle is not None:
            handle.close()


def follow_url(
    url: str,
    *,
    poll_s: float = 0.2,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Optional[Dict[str, Any]]]:
    """Tail a serve follow stream (``GET /v1/events?follow=1``).

    Same yield contract as :func:`follow_events` (events, with ``None``
    heartbeats on idle). A pump thread does blocking chunked reads and
    hands bytes over a queue — short *socket* timeouts are not usable
    as a heartbeat because a timeout raised mid-chunk-header
    permanently desyncs ``http.client``'s chunked decoder. The server
    ends the stream at drain/stop, which ends the generator; ``stop()``
    ends it from this side (the response is closed under the pump,
    which unblocks it).
    """
    import http.client
    import queue as queue_mod
    import threading
    import urllib.request

    assembler = _LineAssembler(url)
    response = urllib.request.urlopen(url, timeout=10.0)
    chunks: "queue_mod.Queue[bytes]" = queue_mod.Queue()

    def _pump() -> None:
        try:
            while True:
                data = response.read1(65536)
                chunks.put(data)
                if not data:
                    return  # server closed the stream (drain/stop)
        except (OSError, ValueError, http.client.HTTPException):
            # Closed under us (stop path — the socket shutdown can
            # surface as IncompleteRead mid-chunk) or the server died;
            # either way the stream is over.
            chunks.put(b"")

    pump = threading.Thread(target=_pump, daemon=True)
    pump.start()
    try:
        while True:
            if stop is not None and stop():
                return
            try:
                chunk = chunks.get(timeout=max(poll_s, 0.01))
            except queue_mod.Empty:
                yield None
                continue
            if not chunk:
                return
            for event in assembler.push(chunk.decode("utf-8", "replace")):
                yield event
    finally:
        assembler.finish()
        # ``response.close()`` needs the BufferedReader lock the pump
        # holds while blocked in ``read1`` — so shut the raw socket
        # down first (lock-free), which makes that read return at once
        # instead of after the full socket timeout.
        import socket as socket_mod

        sock = getattr(getattr(response, "fp", None), "raw", None)
        sock = getattr(sock, "_sock", None)
        if sock is not None:
            try:
                sock.shutdown(socket_mod.SHUT_RDWR)
            except OSError:
                pass
        try:
            response.close()
        except OSError:
            pass
        pump.join(timeout=5.0)


# ---------------------------------------------------------------------------
# The live view model.
# ---------------------------------------------------------------------------

class WatchView:
    """Folds a live event stream into a renderable status panel.

    Pure state machine: :meth:`feed` one event at a time (in ledger
    order), :meth:`render` whenever a redraw is due. Works identically
    on a finished ledger (replay) and a growing one (tail). The counts
    are the shared :class:`~repro.obs.stats.LedgerFold`'s; the view
    adds only what the panel alone shows (planned jobs, clock, fleet
    snapshot, serve lifecycle).
    """

    def __init__(self, source: str = "") -> None:
        self.source = source
        self.fold = LedgerFold()
        self.total = 0
        self.first_t: Optional[float] = None
        self.last_t: Optional[float] = None
        self.workers: Optional[int] = None
        self.snapshot: Optional[Dict[str, Any]] = None
        self.serve_counts: Dict[str, int] = {}
        self._closes = {"run_summary": 0, "sweep_end": 0}
        self._abandoned = 0
        self._seq: Optional[int] = None

    ok = property(lambda self: self.fold.counts["ok"])
    cached = property(lambda self: self.fold.counts["cached"])
    failed = property(lambda self: self.fold.counts["failed"])
    skipped = property(lambda self: self.fold.counts["skipped"])
    retries = property(lambda self: self.fold.counts["retries"])
    timeouts = property(lambda self: self.fold.counts["timeouts"])
    run_summary = property(lambda self: self.fold.run_summary)
    #: One entry per open ``job_start`` (in flight, or torn off).
    running = property(lambda self: self.fold.running())

    # -- ingestion -------------------------------------------------------
    def feed(self, event: Mapping[str, Any]) -> None:
        seq = event.get("seq")
        if isinstance(seq, int):
            if self._seq is not None and seq <= self._seq:
                # A new EventLog appends (seq restarted): the sweeps the
                # old writer left open will never close.
                self._abandoned = self.fold.counts["sweeps"] - max(
                    self._closes.values()
                )
            self._seq = seq
        self.fold.feed(event)
        kind = str(event.get("event", "?"))
        t = event.get("t")
        if isinstance(t, (int, float)):
            if self.first_t is None:
                self.first_t = float(t)
            self.last_t = float(t)
        if kind in self._closes:
            self._closes[kind] += 1
        elif kind == "sweep_start":
            self.total += int(event.get("jobs", 0))
            if event.get("workers"):
                self.workers = int(event["workers"])
        elif kind == "reducer_snapshot":
            self.snapshot = dict(event)
        elif kind.startswith("serve_"):
            self.serve_counts[kind] = self.serve_counts.get(kind, 0) + 1

    # -- derived ---------------------------------------------------------
    @property
    def done(self) -> int:
        return self.ok + self.cached + self.failed + self.skipped

    @property
    def finished(self) -> bool:
        """True once the stream says the run is over.

        That is ``serve_stop``, or every started sweep having ended or
        been summarised — so a ledger that several sweeps append to is
        not over while a later sweep still runs. A sweep closes with a
        ``run_summary`` and then a ``sweep_end`` (older ledgers: the
        ``sweep_end`` alone), so the larger count is the closed sweeps.
        Sweeps still open when a new writer appeared were torn off and
        count as closed too.
        """
        if self.serve_counts.get("serve_stop"):
            return True
        closed = max(self._closes.values())
        return 0 < closed >= self.fold.counts["sweeps"] - self._abandoned

    @property
    def elapsed_s(self) -> float:
        if self.first_t is None or self.last_t is None:
            return 0.0
        return max(0.0, self.last_t - self.first_t)

    def eta_s(self) -> Optional[float]:
        remaining = self.total - self.done
        if remaining <= 0 or self.done == 0 or self.elapsed_s <= 0:
            return None
        return remaining * self.elapsed_s / self.done

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        lines = [f"repro watch — {self.source or 'ledger'}"]
        total = max(self.total, self.done)
        frac = (self.done / total) if total else 0.0
        filled = int(round(frac * _BAR_WIDTH))
        bar = "#" * filled + "." * (_BAR_WIDTH - filled)
        rate = (
            f"{self.done / self.elapsed_s:.2f} jobs/s"
            if self.elapsed_s > 0 and self.done
            else "— jobs/s"
        )
        eta = self.eta_s()
        eta_s = (
            "done"
            if self.finished
            else (f"ETA {eta:.0f}s" if eta is not None else "ETA —")
        )
        running = self.running
        open_part = ""
        if running:
            state = "interrupted" if self.finished else "in flight"
            open_part = f" ({len(running)} {state})"
        lines.append(
            f"[{bar}] {self.done}/{total} jobs  "
            f"({self.ok} ok, {self.cached} cached, {self.failed} failed"
            + open_part
            + (f", {self.skipped} skipped" if self.skipped else "")
            + f")  elapsed {self.elapsed_s:.1f}s  {eta_s}  {rate}"
        )
        fault_bits = [
            f"{self.retries} retries",
            f"{self.timeouts} timeouts",
            f"{self.fold.crashes} crashes",
        ]
        quarantines = self.fold.counts["cache_quarantines"]
        if quarantines:
            fault_bits.append(f"{quarantines} quarantines")
        line = "faults: " + ", ".join(fault_bits)
        if self.workers:
            line += f"  workers: {self.workers}"
        if self.fold.gauges:
            tally = tally_gauges(self.fold.gauges.values())
            line += "  gauges: " + "/".join(
                f"{count} {status}"
                for status, count in sorted(tally.items())
                if count
            )
        lines.append(line)
        if running:
            labels = list(dict.fromkeys(run["label"] for run in running))
            shown = ", ".join(labels[:4])
            more = f" (+{len(labels) - 4} more)" if len(labels) > 4 else ""
            lines.append(f"in flight: {shown}{more}")
        runners = self.fold.runners
        if runners:
            lines.append("runner throughput:")
            width = max(len(name) for name in runners)
            for name in sorted(runners):
                bucket = runners[name]
                durations = bucket["durations"]
                p50 = ""
                if durations:
                    p50 = f"  p50 {percentile(durations, 50.0):.3f}s"
                busy_s = sum(durations)
                per_s = (
                    f"{len(durations) / busy_s:.2f}/s" if busy_s > 0 else "—"
                )
                cached = (
                    f"  {bucket['cached']} cached" if bucket["cached"] else ""
                )
                retried = (
                    f"  {bucket['retries']} retries"
                    if bucket["retries"]
                    else ""
                )
                lines.append(
                    f"  {name.ljust(width)}  {len(durations)} done  "
                    f"{per_s}{p50}{cached}{retried}"
                )
        if self.snapshot is not None:
            snap = self.snapshot
            lines.append(
                "fleet quantiles ({done}/{total} shards, {ues} UEs):".format(
                    done=snap.get("shards_done", "?"),
                    total=snap.get("shards_total", "?"),
                    ues=snap.get("ues", "?"),
                )
            )
            for name, stats in (snap.get("groups") or {}).items():
                bits = "  ".join(
                    f"{level} {stats[level]:.2f}"
                    for level in ("p5", "p50", "p95")
                    if isinstance(stats.get(level), (int, float))
                )
                count = stats.get("count")
                count_s = f"  (n={count})" if count else ""
                lines.append(f"  {name}: {bits}{count_s}")
        if self.serve_counts:
            bits = ", ".join(
                f"{count} {kind[len('serve_'):]}"
                for kind, count in sorted(self.serve_counts.items())
            )
            lines.append(f"serve: {bits}")
        if self.run_summary is not None:
            summary = self.run_summary
            lines.append(
                "run summary: {jobs} jobs in {elapsed:.2f}s "
                "(workers {workers})".format(
                    jobs=summary.get("jobs", "?"),
                    elapsed=float(summary.get("elapsed_s", 0.0) or 0.0),
                    workers=summary.get("workers", "?"),
                )
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The interactive driver behind ``repro watch``.
# ---------------------------------------------------------------------------

class _KeyPoller:
    """Non-blocking single-key reads from a TTY stdin; no-op otherwise."""

    def __init__(self) -> None:
        self._active = False
        self._fd: Optional[int] = None
        self._saved: Any = None

    def __enter__(self) -> "_KeyPoller":
        try:
            import termios
            import tty

            if sys.stdin.isatty():
                self._fd = sys.stdin.fileno()
                self._saved = termios.tcgetattr(self._fd)
                tty.setcbreak(self._fd)
                self._active = True
        except (ImportError, OSError, ValueError):
            self._active = False
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._active and self._fd is not None:
            import termios

            termios.tcsetattr(self._fd, termios.TCSADRAIN, self._saved)
        self._active = False

    def poll(self) -> Optional[str]:
        if not self._active:
            return None
        import select

        ready, _, _ = select.select([sys.stdin], [], [], 0)
        if ready:
            return sys.stdin.read(1)
        return None


def watch(
    source: str,
    *,
    out: Optional[IO[str]] = None,
    interval_s: float = 0.5,
    duration_s: Optional[float] = None,
    once: bool = False,
    linger_s: float = 1.0,
) -> int:
    """Drive the live view until the run finishes (or ``q``).

    ``source`` is a ledger path or an ``http(s)://`` follow URL. With
    a TTY the panel redraws in place; otherwise one snapshot is
    printed when the run finishes (plus the final state on exit), so
    piping into a file stays readable. ``once`` renders the current
    state and returns immediately; ``duration_s`` bounds the whole
    watch (for CI). After the terminal event the tail lingers
    ``linger_s`` to catch trailing gauge events, then stops.
    """
    stream = out if out is not None else sys.stdout
    view = WatchView(source=source)
    started = time.monotonic()
    finished_at: Optional[float] = None
    stop_requested = False

    def _stop() -> bool:
        if stop_requested:
            return True
        if once:
            return True
        if duration_s is not None and time.monotonic() - started > duration_s:
            return True
        if finished_at is not None:
            return time.monotonic() - finished_at > linger_s
        return False

    if source.startswith(("http://", "https://")):
        events = follow_url(source, poll_s=interval_s / 2, stop=_stop)
    else:
        events = follow_events(source, poll_s=interval_s / 2, stop=_stop)

    is_tty = hasattr(stream, "isatty") and stream.isatty()
    last_draw = 0.0
    drawn_lines = 0

    def _draw(force: bool = False) -> None:
        nonlocal last_draw, drawn_lines
        now = time.monotonic()
        if not force and now - last_draw < interval_s:
            return
        last_draw = now
        panel = view.render()
        if is_tty:
            if drawn_lines:
                stream.write(f"\x1b[{drawn_lines}F\x1b[J")
            stream.write(panel + "\n")
            drawn_lines = panel.count("\n") + 1
        stream.flush() if hasattr(stream, "flush") else None

    with _KeyPoller() as keys:
        for event in events:
            key = keys.poll()
            if key == "q":
                stop_requested = True
            elif key == "r":
                _draw(force=True)
            if event is not None:
                view.feed(event)
                if not view.finished:
                    finished_at = None  # a later sweep started
                elif finished_at is None:
                    finished_at = time.monotonic()
            if is_tty:
                _draw()
    # Final (or only, when not a TTY) snapshot.
    if is_tty:
        _draw(force=True)
    else:
        panel = view.render()
        stream.write(panel + "\n")
        if hasattr(stream, "flush"):
            stream.flush()
    return 0


__all__ = [
    "WatchView",
    "follow_events",
    "follow_url",
    "watch",
]
