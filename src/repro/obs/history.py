"""Cross-run telemetry: the append-only :class:`RunArchive`.

Every other ``repro.obs`` module sees *one* run at a time — a ledger,
a manifest, a report. The archive is the longitudinal layer on top: an
append-only on-disk store that every ``repro sweep --archive``,
``repro serve`` drain, and benchmark run appends one **run record** to,
so gauge drift, latency regressions, and BENCH_*.json trends become
data instead of something a human diffs by hand.

Layout (one directory, safe to commit or ship as a CI artifact)::

    <archive>/
      index.jsonl           # one summary line per run, append-only
      runs/<run_id>.json    # the full record (atomic tmp+rename)

The index is the cheap scan path (``repro history`` renders trends
from it alone when it can); the per-run files carry everything a
statistical diff needs — notably **per-runner duration samples**
(capped, deterministically decimated) so ``repro compare`` can
bootstrap confidence intervals months later, long after the original
ledger is gone.

Record builders:

* :func:`record_from_result` — from an in-memory
  :class:`repro.engine.pool.SweepResult` (duck-typed; this module
  never imports the engine, mirroring :mod:`repro.obs.manifest`).
* :func:`record_from_ledger` — one streaming pass over an events
  JSONL through the shared ledger fold
  (:class:`repro.obs.stats.LedgerFold`), so its counts are
  ``repro stats``' counts (used by ``repro serve`` at drain time and
  by ``repro sweep`` when only a ledger is at hand).
* :func:`record_from_bench` — wraps a ``BENCH_*.json`` payload so
  benchmark runs land in the same timeline.

Trend analysis (:func:`trend_series`, :func:`flag_change_points`,
:func:`sparkline`) and the ``repro history`` HTML section live here
too; thresholds and schema are documented in docs/observability.md.
"""

from __future__ import annotations

import html
import json
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Union

from repro.obs.events import iter_events
from repro.obs.metrics import percentile
from repro.obs.stats import STATS_SCHEMA, LedgerFold

PathLike = Union[str, Path]

#: Version stamped on every archived run record (top-level ``schema``).
#: Bump on any shape change; readers tolerate-and-warn on newer ones.
ARCHIVE_SCHEMA = 1

#: Per-runner duration samples kept in a record. Enough for stable
#: bootstrap CIs, small enough that a 1M-job fleet sweep archives in
#: kilobytes.
MAX_SAMPLES = 512

#: Index-line fields mirrored out of the full record (the scan path).
_INDEX_KEYS = (
    "run_id", "created", "kind", "label", "schema", "code_version",
)

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


class SampleReservoir:
    """Bounded, deterministic duration-sample keeper.

    Appends are O(1); when the buffer reaches ``2 * cap`` every other
    element is dropped and the stride doubles, so the survivors are an
    evenly spaced subsample of the full stream — the same input stream
    always keeps the same samples (no RNG), which keeps archived
    records reproducible.
    """

    def __init__(self, cap: int = MAX_SAMPLES) -> None:
        self.cap = max(1, int(cap))
        self.count = 0
        self._stride = 1
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        if self.count % self._stride == 0:
            self._samples.append(float(value))
            if len(self._samples) >= 2 * self.cap:
                self._samples = self._samples[::2]
                self._stride *= 2
        self.count += 1

    def samples(self) -> List[float]:
        return list(self._samples)


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


def _make_run_id(created: datetime, kind: str) -> str:
    stamp = created.strftime("%Y%m%dT%H%M%S.%f")
    return f"{stamp}-{kind}-{os.getpid()}"


def _round6(value: float) -> float:
    return round(float(value), 6)


def _gauge_entries(gauges: Optional[Sequence[Any]]) -> List[Dict[str, Any]]:
    """Normalise gauge results (objects or dicts) into record entries."""
    entries: List[Dict[str, Any]] = []
    for gauge in gauges or ():
        if hasattr(gauge, "event_fields"):
            fields = dict(gauge.event_fields())
        else:
            fields = {k: v for k, v in dict(gauge).items() if k != "event"}
        entries.append(
            {
                key: fields[key]
                for key in ("name", "status", "measured", "target", "unit")
                if key in fields
            }
        )
    return entries


def _gauge_tally(entries: Sequence[Mapping[str, Any]]) -> Dict[str, int]:
    tally: Dict[str, int] = {}
    for entry in entries:
        status = str(entry.get("status", "?"))
        tally[status] = tally.get(status, 0) + 1
    return tally


# ---------------------------------------------------------------------------
# Record builders.
# ---------------------------------------------------------------------------

def record_from_result(
    result: Any,
    *,
    label: str,
    kind: str = "sweep",
    gauges: Optional[Sequence[Any]] = None,
    backend: Optional[str] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Build an archive record from a sweep result (duck-typed).

    ``result`` is anything shaped like
    :class:`repro.engine.pool.SweepResult`: ``counts`` (``jobs`` and the
    ``ok``/``cached``/``failed``/``skipped`` tally), ``outcomes`` (each
    with ``spec.runner``, ``status``, ``duration_s``), ``elapsed_s``,
    ``workers``, ``stats``, ``code_version``. The overall counts are
    ``counts``, the tally the sweep's ledger reports; per-runner duration
    samples come from the executed outcomes (cached hits have no
    latency to archive).
    """
    reservoirs: Dict[str, SampleReservoir] = {}
    per_runner: Dict[str, Dict[str, int]] = {}
    for outcome in result.outcomes:
        runner = outcome.spec.runner
        bucket = per_runner.setdefault(
            runner,
            {"jobs": 0, "ok": 0, "cached": 0, "failed": 0, "skipped": 0},
        )
        bucket["jobs"] += 1
        bucket[outcome.status] += 1
        if outcome.status in ("ok", "failed"):
            reservoirs.setdefault(runner, SampleReservoir()).add(
                outcome.duration_s
            )
    counts = result.counts
    stats = getattr(result, "stats", None) or {}
    counters = stats.get("counters", {})
    runners: Dict[str, Dict[str, Any]] = {}
    for runner in sorted(per_runner):
        bucket = per_runner[runner]
        samples = (
            reservoirs[runner].samples() if runner in reservoirs else []
        )
        runners[runner] = _runner_entry(bucket, samples)
    record = {
        "schema": ARCHIVE_SCHEMA,
        "kind": kind,
        "label": label,
        "code_version": getattr(result, "code_version", None),
        "workers": int(getattr(result, "workers", 1)),
        "backend": backend,
        "overall": {
            "jobs": counts["jobs"],
            "ok": counts["ok"],
            "cached": counts["cached"],
            "failed": counts["failed"],
            "skipped": counts["skipped"],
            "retries": int(counters.get("retries", 0)),
            "timeouts": int(counters.get("timeouts", 0)),
            "elapsed_s": _round6(getattr(result, "elapsed_s", 0.0)),
            "cache_hit_rate": (
                counts["cached"] / counts["jobs"] if counts["jobs"] else 0.0
            ),
        },
        "runners": runners,
        "gauges": _gauge_entries(gauges),
    }
    if extra:
        record["extra"] = dict(extra)
    return record


def _runner_entry(
    bucket: Mapping[str, int], samples: Sequence[float]
) -> Dict[str, Any]:
    samples = [float(s) for s in samples]
    entry: Dict[str, Any] = dict(bucket)
    entry["p50_s"] = (
        _round6(percentile(samples, 50.0)) if samples else None
    )
    entry["p95_s"] = (
        _round6(percentile(samples, 95.0)) if samples else None
    )
    entry["max_s"] = _round6(max(samples)) if samples else None
    total = bucket.get("jobs", 0)
    entry["cache_hit_rate"] = (
        bucket.get("cached", 0) / total if total else 0.0
    )
    entry["samples"] = [_round6(s) for s in samples]
    return entry


def record_from_ledger(
    path: PathLike,
    *,
    label: str,
    kind: str = "sweep",
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Build an archive record from an events ledger in one pass.

    Streams the ledger (:func:`repro.obs.events.iter_events`) through
    the shared :class:`~repro.obs.stats.LedgerFold`, so the record's
    counts are ``repro stats``' counts. Per-runner duration samples,
    the latest ``gauge`` fields per name and the engine's
    ``run_summary`` metadata come from the same fold; the ledger
    itself is never resident.
    """
    fold = LedgerFold()
    for event in iter_events(path):
        fold.feed(event)
    meta = fold.run_summary or {}
    aggregate = fold.snapshot()
    runners: Dict[str, Dict[str, Any]] = {}
    for runner, stats in aggregate["runners"].items():
        reservoir = SampleReservoir()
        for duration in fold.runners.get(runner, {}).get("durations", ()):
            reservoir.add(duration)
        bucket = {"jobs": stats["total"]}
        for key in ("ok", "cached", "failed", "skipped"):
            bucket[key] = stats[key]
        runners[runner] = _runner_entry(bucket, reservoir.samples())
    gauges = _gauge_entries(
        [fold.gauges[name] for name in sorted(fold.gauges)]
    )
    record = {
        "schema": ARCHIVE_SCHEMA,
        "kind": kind,
        "label": label,
        "code_version": meta.get("code_version"),
        "workers": int(meta.get("workers", 0)) or None,
        "backend": meta.get("backend"),
        "stats_schema": aggregate.get("schema", STATS_SCHEMA),
        "overall": {
            key: aggregate["overall"][key]
            for key in (
                "jobs", "ok", "cached", "failed", "skipped", "interrupted",
                "retries", "timeouts", "elapsed_s", "cache_hit_rate",
            )
        },
        "runners": runners,
        "gauges": gauges,
    }
    if extra:
        record["extra"] = dict(extra)
    return record


def record_from_bench(
    name: str, payload: Mapping[str, Any]
) -> Dict[str, Any]:
    """Wrap one ``BENCH_*.json`` payload as an archive record.

    The numeric ``results`` block (every baseline-gated benchmark emits
    one) is lifted to the top so trends over benchmark metrics come
    straight off the index-adjacent record without digging through the
    full payload; the payload itself is kept verbatim under ``bench``.
    """
    results = payload.get("results")
    record: Dict[str, Any] = {
        "schema": ARCHIVE_SCHEMA,
        "kind": "bench",
        "label": str(name),
        "overall": {},
        "runners": {},
        "gauges": [],
        "bench": dict(payload),
    }
    if isinstance(results, Mapping):
        record["results"] = {
            key: value
            for key, value in results.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
    return record


# ---------------------------------------------------------------------------
# The archive itself.
# ---------------------------------------------------------------------------

class RunArchive:
    """Append-only JSONL-indexed store of run records (see module doc).

    Appends are crash-tolerant the same way the event ledger is: the
    full record lands first (atomic ``tmp`` + ``rename``), then one
    index line is appended and flushed — a torn final index line is
    tolerated by the reader and the orphaned record file is harmless.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.index_path = self.root / "index.jsonl"
        self.runs_dir = self.root / "runs"

    # -- writing ---------------------------------------------------------
    def append(self, record: Mapping[str, Any]) -> str:
        """Persist one record; returns its (possibly assigned) run id."""
        record = dict(record)
        record.setdefault("schema", ARCHIVE_SCHEMA)
        created = record.get("created")
        if not created:
            now = _utc_now()
            record["created"] = now.isoformat()
        else:
            now = _utc_now()
        run_id = record.get("run_id") or _make_run_id(
            now, str(record.get("kind", "run"))
        )
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        while (self.runs_dir / f"{run_id}.json").exists():
            run_id += "x"
        record["run_id"] = run_id
        run_path = self.runs_dir / f"{run_id}.json"
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.runs_dir), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle, indent=1, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_name, run_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        index_entry = {
            key: record.get(key) for key in _INDEX_KEYS if key in record
        }
        overall = record.get("overall") or {}
        for key in ("jobs", "ok", "failed", "cached", "elapsed_s"):
            if key in overall:
                index_entry[key] = overall[key]
        gauges = record.get("gauges") or []
        if gauges:
            index_entry["gauges"] = _gauge_tally(gauges)
        with self.index_path.open("a") as handle:
            handle.write(
                json.dumps(index_entry, separators=(",", ":")) + "\n"
            )
            handle.flush()
        return run_id

    # -- reading ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.index())

    def index(self) -> List[Dict[str, Any]]:
        """Index entries, oldest first (append order)."""
        if not self.index_path.exists():
            return []
        return [dict(entry) for entry in iter_events(self.index_path)]

    def load(self, run_id: str) -> Dict[str, Any]:
        path = self.runs_dir / f"{run_id}.json"
        if not path.exists():
            raise KeyError(f"no run {run_id!r} in archive {self.root}")
        return json.loads(path.read_text())

    def resolve(self, ref: str) -> Dict[str, Any]:
        """Load a record by id, unique prefix, or ``last[~N]``.

        ``last`` is the newest run, ``last~1`` the one before it, and
        so on (mirroring git's revision syntax). A path to a record
        JSON file also resolves, so un-archived records can be
        compared directly.
        """
        as_path = Path(ref)
        if as_path.suffix == ".json" and as_path.exists():
            return json.loads(as_path.read_text())
        entries = self.index()
        if ref == "last" or ref.startswith("last~"):
            back = 0
            if ref.startswith("last~"):
                try:
                    back = int(ref[len("last~"):])
                except ValueError:
                    raise KeyError(f"bad run reference {ref!r}") from None
            if back < 0 or back >= len(entries):
                raise KeyError(
                    f"{ref!r} is out of range: archive has "
                    f"{len(entries)} run(s)"
                )
            return self.load(str(entries[-(back + 1)]["run_id"]))
        ids = [str(entry["run_id"]) for entry in entries]
        if ref in ids:
            return self.load(ref)
        matches = [run_id for run_id in ids if run_id.startswith(ref)]
        if len(matches) == 1:
            return self.load(matches[0])
        if len(matches) > 1:
            raise KeyError(
                f"run reference {ref!r} is ambiguous: "
                f"{', '.join(matches[:4])}..."
            )
        raise KeyError(f"no run matching {ref!r} in archive {self.root}")

    def records(self) -> Iterator[Dict[str, Any]]:
        """Full records, oldest first (streams one at a time)."""
        for entry in self.index():
            yield self.load(str(entry["run_id"]))


# ---------------------------------------------------------------------------
# Trends, change points, sparklines.
# ---------------------------------------------------------------------------

def trend_series(
    entries: Sequence[Mapping[str, Any]], key: str
) -> List[Optional[float]]:
    """Extract one numeric series (None where a run lacks the key)."""
    series: List[Optional[float]] = []
    for entry in entries:
        value = entry.get(key)
        series.append(
            float(value)
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
            else None
        )
    return series


def flag_change_points(
    values: Sequence[Optional[float]],
    ratio: float = 1.5,
    window: int = 5,
) -> List[int]:
    """Indices where a series jumps vs its trailing median.

    A point is a change point when it differs from the median of the
    up-to-``window`` preceding non-null points by more than ``ratio``×
    in either direction (both must be positive for a ratio to mean
    anything; zero/None points are skipped). Deliberately simple and
    deterministic — a trend flag for the HTML/terminal history view,
    not a test statistic.
    """
    flagged: List[int] = []
    seen: List[float] = []
    for i, value in enumerate(values):
        if value is None:
            continue
        if seen:
            tail = seen[-window:]
            baseline = percentile(tail, 50.0)
            if baseline > 0 and value > 0:
                if value > ratio * baseline or value < baseline / ratio:
                    flagged.append(i)
        seen.append(value)
    return flagged


def sparkline(values: Sequence[Optional[float]]) -> str:
    """A unicode block sparkline (``·`` where a value is missing)."""
    present = [v for v in values if v is not None]
    if not present:
        return "·" * len(values)
    lo, hi = min(present), max(present)
    span = hi - lo
    chars: List[str] = []
    for value in values:
        if value is None:
            chars.append("·")
        elif span <= 0:
            chars.append(_SPARK_BLOCKS[3])
        else:
            idx = int((value - lo) / span * (len(_SPARK_BLOCKS) - 1))
            chars.append(_SPARK_BLOCKS[idx])
    return "".join(chars)


def build_history(
    archive: RunArchive, limit: int = 50
) -> Dict[str, Any]:
    """Fold the archive into the history model (trends + flags).

    Uses the index scan for overall trends and loads full records only
    for the covered window (per-runner p50 and bench metrics live in
    the records, not the index).
    """
    entries = archive.index()[-limit:]
    records = [archive.load(str(entry["run_id"])) for entry in entries]
    sweeps = [r for r in records if r.get("kind") != "bench"]
    benches = [r for r in records if r.get("kind") == "bench"]

    trends: List[Dict[str, Any]] = []

    def _add_trend(name: str, values: List[Optional[float]], unit: str) -> None:
        if not any(v is not None for v in values):
            return
        trends.append(
            {
                "name": name,
                "unit": unit,
                "values": values,
                "change_points": flag_change_points(values),
                "spark": sparkline(values),
            }
        )

    if sweeps:
        overalls = [r.get("overall", {}) for r in sweeps]
        _add_trend("elapsed_s", trend_series(overalls, "elapsed_s"), "s")
        _add_trend(
            "cache_hit_rate", trend_series(overalls, "cache_hit_rate"), ""
        )
        _add_trend("failed", trend_series(overalls, "failed"), "jobs")
        runner_names = sorted(
            {name for r in sweeps for name in (r.get("runners") or {})}
        )
        for runner in runner_names:
            values = [
                (r.get("runners") or {}).get(runner, {}).get("p50_s")
                for r in sweeps
            ]
            _add_trend(
                f"{runner} p50",
                [v if isinstance(v, (int, float)) else None for v in values],
                "s",
            )
    bench_labels = sorted({str(r.get("label")) for r in benches})
    for label in bench_labels:
        rows = [r for r in benches if str(r.get("label")) == label]
        metric_names = sorted(
            {key for r in rows for key in (r.get("results") or {})}
        )
        for metric in metric_names:
            values = [
                (r.get("results") or {}).get(metric) for r in rows
            ]
            _add_trend(
                f"{label}:{metric}",
                [v if isinstance(v, (int, float)) else None for v in values],
                "",
            )
    gauge_fails = []
    for record in sweeps:
        tally = _gauge_tally(record.get("gauges") or [])
        gauge_fails.append(float(tally.get("fail", 0)))
    if sweeps:
        _add_trend("gauge failures", gauge_fails, "gauges")
    return {
        "entries": entries,
        "n_runs": len(entries),
        "n_sweeps": len(sweeps),
        "n_benches": len(benches),
        "trends": trends,
    }


def render_history_text(model: Mapping[str, Any]) -> str:
    """Terminal rendering: one sparkline row per trend, flags called out."""
    lines = [
        "{n_runs} run(s) in archive window: {n_sweeps} sweep(s), "
        "{n_benches} benchmark(s)".format(**model)
    ]
    trends = model["trends"]
    if not trends:
        lines.append("no numeric trends yet (need at least one run)")
        return "\n".join(lines)
    width = max(len(t["name"]) for t in trends)
    for trend in trends:
        values = [v for v in trend["values"] if v is not None]
        last = values[-1] if values else None
        last_s = "n/a" if last is None else f"{last:g}"
        flag = ""
        if trend["change_points"]:
            flag = (
                "  ⚑ change at run "
                + ",".join(str(i) for i in trend["change_points"])
            )
        lines.append(
            f"{trend['name'].ljust(width)}  {trend['spark']}  "
            f"last={last_s}{trend['unit']}{flag}"
        )
    return "\n".join(lines)


def render_history_html(
    model: Mapping[str, Any], title: str = "repro history"
) -> str:
    """A self-contained HTML page: run table + trend charts.

    Reuses the ``repro report`` stylesheet so the two artifacts read
    as one family; every chart is inline SVG from
    :mod:`repro.viz.svg`.
    """
    from repro.obs.report import _CSS
    from repro.viz.svg import Chart, Series

    sections: List[str] = [f"<h1>{html.escape(title)}</h1>"]
    sections.append(
        '<div class="counters">'
        f"<span><b>{model['n_runs']}</b> runs</span>"
        f"<span><b>{model['n_sweeps']}</b> sweeps</span>"
        f"<span><b>{model['n_benches']}</b> benchmarks</span>"
        "</div>"
    )
    entries = model["entries"]
    if entries:
        rows = [
            "<tr><th>#</th><th>run</th><th>kind</th><th>label</th>"
            "<th>jobs</th><th>failed</th><th>elapsed</th>"
            "<th>gauges</th></tr>"
        ]
        for i, entry in enumerate(entries):
            gauges = entry.get("gauges") or {}
            gauge_s = (
                ", ".join(
                    f"{count} {status}"
                    for status, count in sorted(gauges.items())
                )
                or "—"
            )
            elapsed = entry.get("elapsed_s")
            rows.append(
                "<tr>"
                f"<td class='num'>{i}</td>"
                f"<td>{html.escape(str(entry.get('run_id', '?')))}</td>"
                f"<td>{html.escape(str(entry.get('kind', '?')))}</td>"
                f"<td>{html.escape(str(entry.get('label', '')))}</td>"
                f"<td class='num'>{entry.get('jobs', '—')}</td>"
                f"<td class='num'>{entry.get('failed', '—')}</td>"
                f"<td class='num'>"
                f"{'—' if elapsed is None else f'{elapsed:.2f}s'}</td>"
                f"<td>{html.escape(gauge_s)}</td>"
                "</tr>"
            )
        sections.append("<h2>Runs (oldest first)</h2>")
        sections.append("<table>" + "".join(rows) + "</table>")
    for trend in model["trends"]:
        points = [
            (i, v) for i, v in enumerate(trend["values"]) if v is not None
        ]
        if len(points) < 2:
            continue
        chart = Chart(
            title=trend["name"],
            x_label="run (archive order)",
            y_label=trend["unit"] or "value",
            width=640,
            height=240,
        )
        chart.add(
            Series(
                label=trend["name"],
                x=[float(i) for i, _ in points],
                y=[float(v) for _, v in points],
            )
        )
        flagged = trend["change_points"]
        if flagged:
            chart.add(
                Series(
                    label="change point",
                    x=[float(i) for i in flagged],
                    y=[
                        float(trend["values"][i])
                        for i in flagged
                        if trend["values"][i] is not None
                    ],
                    kind="scatter",
                    color="#d62728",
                )
            )
        sections.append(chart.to_svg())
        if flagged:
            sections.append(
                f'<p class="note">change point(s) at run '
                f"{', '.join(str(i) for i in flagged)} "
                f"(&gt;1.5× vs trailing median)</p>"
            )
    if not model["trends"]:
        sections.append(
            '<p class="note">No numeric trends yet — archive at least '
            "one sweep or benchmark run.</p>"
        )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head>\n<body>\n"
        + "\n".join(sections)
        + "\n</body></html>\n"
    )


__all__ = [
    "ARCHIVE_SCHEMA",
    "MAX_SAMPLES",
    "RunArchive",
    "SampleReservoir",
    "build_history",
    "flag_change_points",
    "record_from_bench",
    "record_from_ledger",
    "record_from_result",
    "render_history_html",
    "render_history_text",
    "sparkline",
    "trend_series",
]
