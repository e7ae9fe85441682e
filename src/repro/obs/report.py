"""``repro report``: one self-contained HTML artifact per campaign.

Reads a run ledger (the EventLog JSONL a sweep wrote), optionally a
run manifest and a gauge-override file, and renders a single HTML page
with everything you want to see after a campaign:

* headline counters (jobs/ok/cached/failed/skipped, retries, timeouts,
  cache health, elapsed);
* the calibration-gauge scoreboard (pass/warn/fail per paper-pinned
  gauge, re-scored against overridden targets when ``--gauges`` is
  given — the recorded *measured* values are judged against the new
  targets without re-running anything);
* a sweep timeline (one bar per job, anchored at its ``job_start``
  ledger timestamp);
* per-runner span timelines for the slowest job of each runner, drawn
  from the replayed worker-side spans (``t_rel`` offsets, so the
  flames show where time went *inside* the job);
* per-runner latency percentiles and a span-name roll-up table.

One pass over the ledger through the shared
:class:`repro.obs.stats.LedgerFold` gives every count, so the report
agrees with ``repro stats``. Each job run is its own row, also when
appended sweeps re-run a ``(label, index)``; spans are held only while
their run is in flight, and kept only for each runner's slowest run.

All charts are inline SVG from :mod:`repro.viz.svg`; the page embeds
no external resources, so it can be archived as a CI artifact and
opened anywhere.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.obs.calib import load_overrides, rescore
from repro.obs.events import iter_events
from repro.obs.stats import LedgerFold, tally_gauges
from repro.viz.svg import BarChart, TimelineChart, TimelineSpan

PathLike = Union[str, Path]

__all__ = ["build_report", "render_html", "write_report"]

_STATUS_COLOR = {
    "pass": "#2ca02c",
    "warn": "#ff7f0e",
    "fail": "#d62728",
    "skipped": "#7f7f7f",
}

#: At most this many jobs appear in the sweep timeline, and this many
#: runners get a span flame — the slowest win, and the cut is noted.
MAX_TIMELINE_JOBS = 40
MAX_FLAME_RUNNERS = 8


def build_report(
    events: Iterable[Mapping[str, Any]],
    manifest: Optional[Mapping[str, Any]] = None,
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Dict[str, Any]:
    """Fold a ledger into the report's data model (plain dicts).

    One pass over ``events`` (any iterable). ``jobs`` holds one row per
    job run; ``spans_by_job`` the spans of each runner's slowest
    settled run, under the ``span_key`` its row carries. ``overrides``
    re-scores recorded gauge events against new targets/thresholds
    (see :func:`repro.obs.calib.rescore`).
    """
    fold = LedgerFold()
    epoch: Optional[float] = None
    jobs: List[Dict[str, Any]] = []
    slowest: Dict[str, Any] = {}  # runner -> (run, its spans)
    for event in events:
        kind = event.get("event")
        if kind == "span_end" and "index" in event:
            run = fold.open_run(event)
            if run is not None:
                run.setdefault("spans", []).append(dict(event))
        run = fold.feed(event)
        if kind == "sweep_start" and epoch is None:
            epoch = float(event.get("t", 0.0))
        elif kind == "job_end":
            run["duration_s"] = float(event.get("duration_s", 0.0))
            run["status"] = str(event.get("status", "?"))
            if event.get("profile_path"):
                run["profile_path"] = event["profile_path"]
            jobs.append(run)
            spans = run.pop("spans", None)
            runner = run["runner"]
            if spans and (
                runner not in slowest
                or run["duration_s"] > slowest[runner][0]["duration_s"]
            ):
                slowest[runner] = (run, spans)
    for run in fold.running():  # torn off, or still in flight
        run.pop("spans", None)
        jobs.append(dict(run, duration_s=0.0, status="running"))

    spans_by_job: Dict[str, List[Dict[str, Any]]] = {}
    for runner in sorted(slowest):
        run, spans = slowest[runner]
        key = str((run["label"], run["index"]))
        if key in spans_by_job:
            key = str((runner, run["label"], run["index"]))
        run["span_key"] = key
        spans_by_job[key] = spans

    aggregate = fold.snapshot()
    gauges = fold.gauges
    if overrides:
        gauges = {
            name: rescore(fields, overrides)
            for name, fields in gauges.items()
        }
        aggregate["gauges"] = tally_gauges(gauges.values())

    if epoch is None:
        epoch = min((j["t_start"] for j in jobs), default=0.0)
    jobs.sort(key=lambda j: j["t_start"])
    for job in jobs:
        job["offset_s"] = round(job["t_start"] - epoch, 6)

    return {
        "aggregate": aggregate,
        "jobs": jobs,
        "spans_by_job": spans_by_job,
        "gauges": [gauges[name] for name in sorted(gauges)],
        "manifest": dict(manifest) if manifest is not None else None,
    }


# ---------------------------------------------------------------------------
# Chart builders.
# ---------------------------------------------------------------------------

def _sweep_timeline_svg(model: Mapping[str, Any]) -> Optional[str]:
    jobs = model["jobs"]
    if not jobs:
        return None
    shown = sorted(jobs, key=lambda j: j["duration_s"], reverse=True)
    shown = sorted(shown[:MAX_TIMELINE_JOBS], key=lambda j: j["offset_s"])
    chart = TimelineChart(title="Sweep timeline", x_label="seconds into sweep")
    for job in shown:
        status = job.get("status", "?")
        color = {"ok": "#1f77b4", "cached": "#2ca02c"}.get(
            status, "#d62728"
        )
        chart.add(
            TimelineSpan(
                row=job["label"],
                start_s=job["offset_s"],
                duration_s=max(job["duration_s"], 1e-4),
                color=color,
                detail=(
                    f"{job['label']}: {status}, "
                    f"{job['duration_s'] * 1000:.1f} ms"
                ),
            )
        )
    return chart.to_svg()


def _flame_svgs(model: Mapping[str, Any]) -> List[str]:
    """One span timeline per runner, for its slowest traced job run."""
    flamed = sorted(
        (job for job in model["jobs"] if "span_key" in job),
        key=lambda job: job["runner"],
    )
    svgs: List[str] = []
    for job in flamed[:MAX_FLAME_RUNNERS]:
        spans = model["spans_by_job"][job["span_key"]]
        chart = TimelineChart(
            title=f"Spans: {job['label']}",
            x_label="seconds into job (worker clock)",
        )
        depth_of: Dict[str, int] = {}
        for span in sorted(spans, key=lambda s: float(s.get("t_rel", 0.0))):
            parent = span.get("parent_id")
            depth = depth_of.get(parent, -1) + 1 if parent else 0
            depth_of[str(span.get("span_id"))] = depth
            chart.add(
                TimelineSpan(
                    row=str(span.get("name", "?")),
                    start_s=float(span.get("t_rel", 0.0)),
                    duration_s=max(float(span.get("duration_s", 0.0)), 1e-6),
                    depth=depth,
                    detail=(
                        f"{span.get('name')}: "
                        f"{float(span.get('duration_s', 0.0)) * 1000:.2f} ms"
                    ),
                )
            )
        svgs.append(chart.to_svg())
    return svgs


def _latency_svg(model: Mapping[str, Any]) -> Optional[str]:
    runners = model["aggregate"]["runners"]
    # Runners without duration samples (all cached, or only interrupted
    # jobs) carry null percentiles — they have no latency to chart.
    names = [
        name
        for name, s in runners.items()
        if s["jobs"] and s["p50_s"] is not None
    ]
    if not names:
        return None
    chart = BarChart(
        title="Per-runner job latency",
        x_label="runner",
        y_label="seconds",
        categories=names,
    )
    chart.add_group("p50", [runners[n]["p50_s"] for n in names])
    chart.add_group("p95", [runners[n]["p95_s"] for n in names])
    chart.add_group("max", [runners[n]["max_s"] for n in names])
    return chart.to_svg()


# ---------------------------------------------------------------------------
# HTML rendering.
# ---------------------------------------------------------------------------

_CSS = """
body { font-family: Helvetica, Arial, sans-serif; margin: 2em auto;
       max-width: 900px; color: #222; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.8em 0; font-size: 0.9em; }
th, td { border: 1px solid #ccc; padding: 4px 10px; text-align: left; }
th { background: #f4f4f4; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.status { font-weight: bold; color: white; border-radius: 3px;
          padding: 1px 7px; font-size: 0.85em; }
.counters span { display: inline-block; margin-right: 1.4em; }
.counters b { font-size: 1.25em; }
.note { color: #666; font-size: 0.85em; }
svg { max-width: 100%; height: auto; }
"""


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return html.escape(str(value))


def _status_badge(status: str) -> str:
    color = _STATUS_COLOR.get(status, "#333")
    return (
        f'<span class="status" style="background:{color}">'
        f"{html.escape(status)}</span>"
    )


def _gauge_table(model: Mapping[str, Any]) -> str:
    gauges = model["gauges"]
    if not gauges:
        return (
            '<p class="note">No calibration gauges recorded in this '
            "ledger (run the sweep with an event log and gauge "
            "evaluation enabled).</p>"
        )
    rows = [
        "<tr><th>gauge</th><th>paper ref</th><th>description</th>"
        "<th>measured</th><th>target</th><th>err</th><th>status</th></tr>"
    ]
    for g in gauges:
        measured = g.get("measured")
        err = g.get("err")
        unit = f" {g['unit']}" if g.get("unit") else ""
        detail = (
            f'<div class="note">{html.escape(str(g["detail"]))}</div>'
            if g.get("detail")
            else ""
        )
        rows.append(
            "<tr>"
            f"<td>{html.escape(str(g.get('name', '?')))}</td>"
            f"<td>{html.escape(str(g.get('paper_ref', '')))}</td>"
            f"<td>{html.escape(str(g.get('description', '')))}{detail}</td>"
            f"<td class='num'>"
            f"{_fmt(measured) + unit if measured is not None else '—'}</td>"
            f"<td class='num'>{_fmt(g.get('target', ''))}{unit}</td>"
            f"<td class='num'>{_fmt(err) if err is not None else '—'}</td>"
            f"<td>{_status_badge(str(g.get('status', '?')))}</td>"
            "</tr>"
        )
    return "<table>" + "".join(rows) + "</table>"


def _span_table(model: Mapping[str, Any]) -> str:
    spans = model["aggregate"].get("spans") or {}
    if not spans:
        return '<p class="note">No spans recorded (tracing off?).</p>'
    rows = [
        "<tr><th>span</th><th>count</th><th>total</th><th>mean</th>"
        "<th>p95</th><th>max</th></tr>"
    ]
    for name, s in spans.items():
        rows.append(
            "<tr>"
            f"<td>{html.escape(name)}</td>"
            f"<td class='num'>{s['count']}</td>"
            f"<td class='num'>{s['total_s']:.3f}s</td>"
            f"<td class='num'>{s['mean_s'] * 1000:.2f}ms</td>"
            f"<td class='num'>{s['p95_s'] * 1000:.2f}ms</td>"
            f"<td class='num'>{s['max_s'] * 1000:.2f}ms</td>"
            "</tr>"
        )
    return "<table>" + "".join(rows) + "</table>"


def _counters_html(model: Mapping[str, Any]) -> str:
    overall = model["aggregate"]["overall"]
    parts = []
    for key in (
        "sweeps", "jobs", "ok", "cached", "failed", "skipped",
        "retries", "timeouts", "cache_quarantines", "cache_put_errors",
    ):
        parts.append(f"<span><b>{overall[key]}</b> {key}</span>")
    parts.append(f"<span><b>{overall['elapsed_s']:.2f}s</b> elapsed</span>")
    parts.append(
        f"<span><b>{100.0 * overall['cache_hit_rate']:.0f}%</b> "
        "cache hits</span>"
    )
    return '<div class="counters">' + "".join(parts) + "</div>"


def _manifest_html(model: Mapping[str, Any]) -> str:
    manifest = model["manifest"]
    if not manifest:
        return ""
    keep = {
        k: manifest[k]
        for k in (
            "created_at", "argv", "code_version", "base_seed", "scale",
            "workers", "partial",
        )
        if k in manifest
    }
    blob = html.escape(json.dumps(keep, indent=2, default=str))
    return f"<h2>Provenance</h2><pre>{blob}</pre>"


def render_html(model: Mapping[str, Any], title: str = "repro report") -> str:
    """The full self-contained HTML page for one report model."""
    gauges = model["aggregate"].get("gauges") or {}
    badge = ""
    if any(gauges.values()):
        worst = (
            "fail" if gauges.get("fail") else
            "warn" if gauges.get("warn") else "pass"
        )
        badge = " " + _status_badge(worst)
    sections: List[str] = [
        f"<h1>{html.escape(title)}{badge}</h1>",
        _counters_html(model),
        "<h2>Calibration gauges</h2>",
        _gauge_table(model),
    ]
    timeline = _sweep_timeline_svg(model)
    if timeline:
        sections.append("<h2>Sweep timeline</h2>")
        if len(model["jobs"]) > MAX_TIMELINE_JOBS:
            sections.append(
                f'<p class="note">showing the {MAX_TIMELINE_JOBS} slowest '
                f"of {len(model['jobs'])} jobs</p>"
            )
        sections.append(timeline)
    flames = _flame_svgs(model)
    if flames:
        sections.append("<h2>Span timelines (slowest job per runner)</h2>")
        sections.extend(flames)
    latency = _latency_svg(model)
    if latency:
        sections.append("<h2>Per-runner latency</h2>")
        sections.append(latency)
    sections.append("<h2>Span roll-up</h2>")
    sections.append(_span_table(model))
    sections.append(_manifest_html(model))
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head>\n<body>\n"
        + "\n".join(sections)
        + "\n</body></html>\n"
    )


def write_report(
    ledger_path: PathLike,
    out_path: PathLike,
    manifest_path: Optional[PathLike] = None,
    gauges_path: Optional[PathLike] = None,
) -> Dict[str, Any]:
    """Build and write the HTML report; returns the data model.

    Streams the ledger (:func:`repro.obs.events.iter_events`), never
    holding it whole. The caller decides exit semantics from the model
    (``repro report`` exits 1 when any gauge fails).
    """
    manifest = None
    if manifest_path is not None:
        manifest = json.loads(Path(manifest_path).read_text())
    overrides = None
    if gauges_path is not None:
        overrides = load_overrides(gauges_path)
    model = build_report(
        iter_events(ledger_path), manifest=manifest, overrides=overrides
    )
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        render_html(model, title=f"repro report — {Path(ledger_path).name}")
    )
    return model
