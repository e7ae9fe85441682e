"""The one ledger fold, and ``repro stats`` over it.

Every reader of a run ledger — ``repro stats`` (:func:`aggregate_events`),
``repro watch`` (:class:`repro.obs.watch.WatchView`), the archive record
(:func:`repro.obs.history.record_from_ledger`) and ``repro report``
(:func:`repro.obs.report.build_report`) — streams it once through one
:class:`LedgerFold` and takes its counts from it, so the four agree on
every prefix of a ledger, including one several sweeps appended to and
one torn mid-sweep. ``python -m repro stats EVENTS.jsonl`` renders
:meth:`LedgerFold.snapshot`: per-runner job counts, p50/p95/max latency
over ``job_end`` durations, retry and timeout counts, cache hit rate
(hits over hits + executed jobs) and a roll-up of ``sweep_end`` events.

The counting contract: a ``job_start`` opens one *job run*, keyed
``(label, index)``; a ``job_end`` closes the newest open run of its
key. A run still open counts as *interrupted*, once per start, and as
a failed job of the runner its start named: on a finished ledger it
was torn off mid-run (a killed sweep, a crashed parent, an interrupted
lease), on a growing one it is in flight. Stdlib-only, so the commands
that fold ledgers start fast.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.events import iter_events
from repro.obs.metrics import percentile

#: Version of the aggregate dict :func:`aggregate_events` returns (and
#: ``repro stats --json`` prints). Bump on any shape change so archived
#: aggregates stay interpretable; consumers (``repro compare``) warn on
#: versions newer than they know rather than guessing.
STATS_SCHEMA = 1

#: The ``overall`` counters, in the order the aggregate lists them.
_COUNTS = (
    "sweeps", "jobs", "ok", "failed", "cached", "skipped", "interrupted",
    "retries", "timeouts", "cache_puts", "cache_quarantines",
    "cache_put_errors",
)
_RUNNER_COUNTS = (
    "jobs", "ok", "failed", "cached", "skipped", "interrupted", "retries",
    "timeouts",
)
#: Events that bump one counter: overall, and the runner's too when it
#: is a runner counter. A skip or a cache hit is a job of its own.
_TALLIES = {
    "job_skipped": "skipped",
    "cache_hit": "cached",
    "job_retry": "retries",
    "job_timeout": "timeouts",
    "cache_put": "cache_puts",
    "cache_quarantine": "cache_quarantines",
    "cache_put_error": "cache_put_errors",
}


def _runner_of(event: Mapping[str, Any]) -> str:
    return str(event.get("runner", "?"))


def _job_key(event: Mapping[str, Any]) -> Tuple[Any, Any]:
    return (event.get("label"), event.get("index"))


def _new_run(event: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "label": str(event.get("label", "?")),
        "runner": _runner_of(event),
        "index": event.get("index"),
        "t_start": float(event.get("t") or 0.0),
    }


def _new_bucket() -> Dict[str, Any]:
    return dict(dict.fromkeys(_RUNNER_COUNTS, 0), durations=[])


class LedgerFold:
    """One streaming pass over a ledger: :meth:`feed` events in order.

    ``counts`` holds the ``overall`` counters so far, with open runs
    already counted as interrupted failures; ``runners`` the per-runner
    buckets of settled events, each keeping every ``job_end`` duration
    in ledger order; ``gauges`` the newest ``gauge`` event per name;
    ``run_summary`` the newest ``run_summary`` fields (a null field
    keeps an earlier summary's value). :meth:`snapshot` renders it all
    as the versioned aggregate, at any point of the stream.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = dict.fromkeys(_COUNTS, 0)
        self.elapsed_s = 0.0
        self.crashes = 0
        self.runners: Dict[str, Dict[str, Any]] = {}
        self.gauges: Dict[str, Dict[str, Any]] = {}
        self.run_summary: Optional[Dict[str, Any]] = None
        self._open: Dict[Tuple[Any, Any], List[Dict[str, Any]]] = {}
        self._spans: Dict[str, List[float]] = {}

    def _bucket(self, runner: str) -> Dict[str, Any]:
        if runner not in self.runners:
            self.runners[runner] = _new_bucket()
        return self.runners[runner]

    def _interrupt(self, delta: int) -> None:
        for name in ("jobs", "failed", "interrupted"):
            self.counts[name] += delta

    def feed(self, event: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        """Fold one event.

        Returns the job run a ``job_start`` opened or a ``job_end``
        closed (a ``job_end`` with no open run closes a fresh one): a
        dict of ``label``, ``runner``, ``index`` and ``t_start`` that
        the caller may annotate. None for every other event.
        """
        kind = event.get("event")
        if kind == "job_start":
            run = _new_run(event)
            self._open.setdefault(_job_key(event), []).append(run)
            self._interrupt(1)
            return run
        if kind == "job_end":
            key = _job_key(event)
            stack = self._open.get(key)
            if stack:
                run = stack.pop()
                if not stack:
                    del self._open[key]
                self._interrupt(-1)
            else:
                run = _new_run(event)
            status = "ok" if event.get("status") == "ok" else "failed"
            if event.get("error_type") == "WorkerCrashError":
                self.crashes += 1
            bucket = self._bucket(_runner_of(event))
            for counter in (bucket, self.counts):
                counter["jobs"] += 1
                counter[status] += 1
            bucket["durations"].append(float(event.get("duration_s", 0.0)))
            return run
        if kind in _TALLIES:
            name = _TALLIES[kind]
            self.counts[name] += 1
            if name in _RUNNER_COUNTS:
                self._bucket(_runner_of(event))[name] += 1
            if name in ("skipped", "cached"):
                self.counts["jobs"] += 1
        elif kind == "sweep_start":
            self.counts["sweeps"] += 1
        elif kind == "sweep_end":
            self.elapsed_s += float(event.get("elapsed_s", 0.0))
        elif kind == "span_end":
            self._spans.setdefault(str(event.get("name", "?")), []).append(
                float(event.get("duration_s", 0.0))
            )
        elif kind == "gauge":
            self.gauges[str(event.get("name", "?"))] = dict(event)
        elif kind == "run_summary":
            if self.run_summary is None:
                self.run_summary = {}
            self.run_summary.update(
                (key, value) for key, value in event.items()
                if value is not None
            )
        return None

    def running(self) -> List[Dict[str, Any]]:
        """Every open job run, one per unmatched ``job_start``."""
        return [run for stack in self._open.values() for run in stack]

    def open_run(self, event: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        """The most recent open run of ``event``'s job key, if any."""
        stack = self._open.get(_job_key(event))
        return stack[-1] if stack else None

    def snapshot(self) -> Dict[str, Any]:
        """The aggregate so far: overall and per-runner counts, latency
        percentiles, a per-span-name roll-up (``"spans"``, from
        ``span_end`` events) and the calibration scoreboard
        (``"gauges"``, the newest status per gauge name)."""
        per_runner = {
            name: dict(bucket) for name, bucket in self.runners.items()
        }
        for run in self.running():
            stats = per_runner.setdefault(run["runner"], _new_bucket())
            for name in ("jobs", "failed", "interrupted"):
                stats[name] += 1
        runners: Dict[str, Dict[str, Any]] = {}
        for runner in sorted(per_runner):
            stats = per_runner[runner]
            durations: List[float] = stats.pop("durations")
            timed = bool(durations)
            total = stats["jobs"] + stats["cached"]
            # Percentiles over no samples (all cached, skipped or
            # interrupted) are None, not 0.0: never a fake instant run.
            runners[runner] = dict(
                stats,
                total=total,
                p50_s=round(percentile(durations, 50.0), 6) if timed else None,
                p95_s=round(percentile(durations, 95.0), 6) if timed else None,
                max_s=round(max(durations), 6) if timed else None,
                cache_hit_rate=(stats["cached"] / total) if total else 0.0,
            )
        overall: Dict[str, Any] = dict(
            self.counts, elapsed_s=round(self.elapsed_s, 6)
        )
        overall["cache_hit_rate"] = (
            overall["cached"] / overall["jobs"] if overall["jobs"] else 0.0
        )
        spans: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._spans):
            durations = self._spans[name]
            spans[name] = {
                "count": len(durations),
                "total_s": round(sum(durations), 6),
                "mean_s": round(sum(durations) / len(durations), 6),
                "p95_s": round(percentile(durations, 95.0), 6),
                "max_s": round(max(durations), 6),
            }
        return {
            "schema": STATS_SCHEMA,
            "overall": overall,
            "runners": runners,
            "spans": spans,
            "gauges": tally_gauges(self.gauges.values()),
        }


def tally_gauges(gauges: Iterable[Mapping[str, Any]]) -> Dict[str, int]:
    """Gauge events (or results) counted by status; the four standard
    statuses are always present."""
    tally = {"pass": 0, "warn": 0, "fail": 0, "skipped": 0}
    for fields in gauges:
        status = str(fields.get("status", "?"))
        tally[status] = tally.get(status, 0) + 1
    return tally


def aggregate_events(events: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Fold a flat event sequence into :meth:`LedgerFold.snapshot`."""
    fold = LedgerFold()
    for event in events:
        fold.feed(event)
    return fold.snapshot()


def aggregate_events_file(path) -> Dict[str, Any]:
    """Aggregate a ledger file, streaming it (never fully resident)."""
    return aggregate_events(iter_events(path))


def _fmt_row(cells: List[str], widths: List[int]) -> str:
    return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    """A blank line, then a header, a rule and the rows, each column
    padded to its widest cell."""
    widths = [
        max(len(row[col]) for row in [headers] + rows)
        for col in range(len(headers))
    ]
    rule = ["-" * w for w in widths]
    return [""] + [_fmt_row(row, widths) for row in [headers, rule] + rows]


def _fmt_seconds(value) -> str:
    """``n/a`` for missing (None) samples, ``X.XXXs`` otherwise."""
    return "n/a" if value is None else f"{value:.3f}s"


def render_stats(aggregate: Dict[str, Any]) -> str:
    """A terminal-friendly report over :func:`aggregate_events` output."""
    overall = aggregate["overall"]
    # Failure-mode fields only appear when non-zero, so healthy-run
    # output (which CI greps for) is unchanged by their existence.
    skipped_part = (
        ", {skipped} skipped".format(**overall) if overall["skipped"] else ""
    )
    interrupted_part = (
        " ({interrupted} interrupted)".format(**overall)
        if overall.get("interrupted")
        else ""
    )
    lines = [
        "{sweeps} sweep(s), {jobs} jobs: {ok} ok, {cached} cached, "
        "{failed} failed{interrupted_part}{skipped_part} "
        "in {elapsed_s:.2f}s".format(
            skipped_part=skipped_part,
            interrupted_part=interrupted_part,
            **overall,
        ),
        "retries: {retries}  timeouts: {timeouts}  "
        "cache hit rate: {rate:.0f}%".format(
            retries=overall["retries"],
            timeouts=overall["timeouts"],
            rate=100.0 * overall["cache_hit_rate"],
        ),
    ]
    if overall["cache_quarantines"] or overall["cache_put_errors"]:
        lines.append(
            "cache quarantines: {cache_quarantines}  "
            "cache put errors: {cache_put_errors}".format(**overall)
        )
    runners = aggregate["runners"]
    if runners:
        lines += _table(
            ["runner", "jobs", "ok", "failed", "cached", "retries",
             "timeouts", "p50", "p95", "hit%"],
            [
                [runner] + [
                    str(stats[key])
                    for key in ("total", "ok", "failed", "cached",
                                "retries", "timeouts")
                ] + [
                    _fmt_seconds(stats["p50_s"]),
                    _fmt_seconds(stats["p95_s"]),
                    f"{100.0 * stats['cache_hit_rate']:.0f}",
                ]
                for runner, stats in runners.items()
            ],
        )
    spans = aggregate.get("spans") or {}
    if spans:
        lines += _table(
            ["span", "count", "total", "mean", "p95", "max"],
            [
                [
                    name,
                    str(stats["count"]),
                    f"{stats['total_s']:.3f}s",
                    f"{stats['mean_s'] * 1000:.2f}ms",
                    f"{stats['p95_s'] * 1000:.2f}ms",
                    f"{stats['max_s'] * 1000:.2f}ms",
                ]
                for name, stats in spans.items()
            ],
        )
    gauges = aggregate.get("gauges") or {}
    if any(gauges.values()):
        lines.append("")
        lines.append(
            "calibration gauges: {p} pass, {w} warn, {f} fail, "
            "{s} skipped".format(
                p=gauges.get("pass", 0),
                w=gauges.get("warn", 0),
                f=gauges.get("fail", 0),
                s=gauges.get("skipped", 0),
            )
        )
    return "\n".join(lines)
