"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro list                      # what can be regenerated
    python -m repro run fig9                  # print Fig. 9's rows
    python -m repro run table6 --json out.json
    python -m repro run fig17 --scale 0.5     # cheaper/faster variant
    python -m repro run fig3 --seed 42        # reseed the simulation
    python -m repro sweep fig2 fig3 fig9 --workers 4
    python -m repro sweep fig17 --cache-dir .repro-cache   # incremental
    python -m repro sweep fig2 fig9 --events run.jsonl --manifest run.json
    python -m repro stats run.jsonl           # p50/p95, retries, hit rate
    python -m repro stats run.jsonl --json    # machine-readable aggregates
    python -m repro report run.jsonl --out report.html   # the HTML artifact
    python -m repro serve --port 8321 --data-dir .repro-serve  # job server
    python -m repro cache ls .repro-cache     # inspect an on-disk cache
    python -m repro cache gc .repro-cache --max-bytes 1000000  # LRU evict
    python -m repro sweep fig2 fig9 --archive .repro-archive  # cross-run store
    python -m repro compare last~1 last       # regression gate (exit 1)
    python -m repro history --html trends.html  # sparklines + change flags
    python -m repro watch run.jsonl           # live view of an in-flight sweep
    python -m repro watch http://127.0.0.1:8321/v1/events?follow=1

Each artifact id maps to one :mod:`repro.experiments` runner
registered with the scenario engine (:mod:`repro.engine`); ``--scale``
multiplies the workload knobs (trace counts, repetitions), ``--seed``
reseeds every runner deterministically, and ``sweep`` fans a set of
artifacts over a worker pool with an optional on-disk result cache.
``--events`` appends the sweep's run ledger (JSONL, rendered by the
``stats`` subcommand), and ``--manifest`` records the provenance of
every produced value; a manifest is also written next to each
``--json`` export and into the cache directory (docs/observability.md).

With a ledger attached, sweeps also trace hierarchical spans into it
(disable with ``--no-trace``; docs/tracing.md), score the paper-pinned
calibration gauges over the results (``gauge`` events; override
targets with ``--gauges FILE``, export OpenMetrics with ``--metrics``;
docs/calibration.md), and can dump per-job cProfile stats
(``--profile-dir``). ``report`` renders a ledger into a self-contained
HTML page — sweep timeline, span flames, latency percentiles, and the
gauge scoreboard — and exits 1 when any gauge fails.

``serve`` runs the engine as a long-lived job server (stdlib HTTP/JSONL
API, shared size-bounded result cache, per-tenant fairness, graceful
drain on SIGTERM; docs/serve.md), and ``cache`` inspects or
garbage-collects any result cache directory (LRU by mtime).

``--archive`` (or ``$REPRO_ARCHIVE``) appends each sweep's run record
to an append-only cross-run archive; ``compare`` statistically diffs
two archived runs (bootstrap latency CIs, gauge drift, cache deltas)
and exits 1 past thresholds, ``history`` renders trend sparklines with
change-point flags (terminal or ``--html``), and ``watch`` tails a
growing ledger — or a serve follow stream — as a live status panel
(docs/observability.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import experiments as ex
from repro.engine import (
    JobSpec,
    ProgressTracker,
    ResultCache,
    artifact_jobs,
    execute,
    registry,
)
from repro.experiments.export import (
    export_json,
    sweep_payload,
    to_jsonable,
    write_json,
)


def _artifact_ids() -> List[str]:
    return registry.available(kind="artifact")


def _render(result) -> str:
    """Best-effort plain-text rendering of a runner result."""
    import json

    if isinstance(result, dict) and "rows" in result and result["rows"]:
        rows = result["rows"]
        if isinstance(rows[0], dict):
            headers = list(rows[0].keys())
            table_rows = [[row.get(h) for h in headers] for row in rows]
        else:
            headers = [f"col{i}" for i in range(len(rows[0]))]
            table_rows = rows
        safe_rows = [
            ["" if cell is None else cell for cell in row] for row in table_rows
        ]
        return ex.format_table(headers, safe_rows)
    return json.dumps(to_jsonable(result), indent=1)[:8000]


def _check_artifacts(names: List[str]) -> List[str]:
    """Names the registry cannot dispatch (empty list means all known)."""
    known = set(registry.available())
    return [name for name in names if name not in known and ":" not in name]


def _add_common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload multiplier (0.25 = quick look, 1.0 = bench scale)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed; per-artifact seeds are derived deterministically "
        "(default: each runner's built-in seed)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="on-disk result cache; repeated invocations become incremental",
    )
    parser.add_argument("--json", metavar="PATH", help="write the result as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of 'A Variegated Look at 5G in the Wild'",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list regenerable artifacts")

    run = sub.add_parser("run", help="regenerate one artifact")
    run.add_argument("artifact", metavar="ARTIFACT")
    _add_common_run_args(run)
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (forwarded to the scenario engine)",
    )

    sweep = sub.add_parser(
        "sweep", help="regenerate several artifacts through the job engine"
    )
    sweep.add_argument("artifacts", metavar="ARTIFACT", nargs="+")
    _add_common_run_args(sweep)
    sweep.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = serial)"
    )
    sweep.add_argument(
        "--lease-size",
        type=int,
        default=None,
        metavar="N",
        help="jobs per lease (1 = per-job dispatch; default: ~4 "
        "leases per worker)",
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts per job on transient failure",
    )
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    sweep.add_argument(
        "--events",
        metavar="PATH.jsonl",
        default=None,
        help="append the sweep's event ledger (JSONL) here",
    )
    sweep.add_argument(
        "--manifest",
        metavar="PATH.json",
        default=None,
        help="write the run manifest (provenance record) here",
    )
    sweep.add_argument(
        "--keep-going",
        action="store_true",
        help="exit 0 even when jobs fail, as long as the sweep itself "
        "ran to completion (failures still land in the manifest/ledger)",
    )
    sweep.add_argument(
        "--max-failures",
        type=int,
        default=None,
        metavar="N",
        help="stop launching jobs once more than N have failed; the "
        "rest are recorded as skipped and the manifest is marked partial",
    )
    sweep.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="FAULT[:k=v,...]",
        help="inject a deterministic fault (repeatable); e.g. "
        "'crash:at=1', 'transient:rate=0.5', 'cache_corrupt'. "
        "Seeded from --seed. See docs/robustness.md",
    )
    sweep.add_argument(
        "--no-trace",
        action="store_true",
        help="disable hierarchical span tracing (on by default when "
        "--events is given; see docs/tracing.md)",
    )
    sweep.add_argument(
        "--profile-dir",
        metavar="DIR",
        default=None,
        help="dump one cProfile .pstats file per successful job here",
    )
    sweep.add_argument(
        "--gauges",
        metavar="FILE.json",
        default=None,
        help="calibration-gauge target overrides "
        '({"gauge": {"target": ...}}); see docs/calibration.md',
    )
    sweep.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the gauge scoreboard + job counts as an "
        "OpenMetrics textfile here",
    )
    sweep.add_argument(
        "--ues",
        type=int,
        default=None,
        metavar="N",
        help="fleet population size; turns 'sweep fleet' into a "
        "sharded fleet sweep (docs/fleet.md)",
    )
    sweep.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="fleet shard count (default: one shard per ~4096 UEs); "
        "any value yields bit-identical results",
    )
    sweep.add_argument(
        "--city",
        type=float,
        default=None,
        metavar="METERS",
        help="fleet city extent per side (default 4000)",
    )
    sweep.add_argument(
        "--archive",
        metavar="DIR",
        default=None,
        help="append this run's record to a cross-run archive "
        "(default: $REPRO_ARCHIVE; see 'repro compare'/'repro history')",
    )

    stats = sub.add_parser(
        "stats", help="summarise an event ledger written with --events"
    )
    stats.add_argument("events", metavar="EVENTS.jsonl")
    stats.add_argument(
        "--json",
        action="store_true",
        help="print the aggregates as JSON instead of the table",
    )

    report = sub.add_parser(
        "report",
        help="render an event ledger into a self-contained HTML report",
    )
    report.add_argument("events", metavar="EVENTS.jsonl")
    report.add_argument(
        "--out",
        metavar="PATH.html",
        default="report.html",
        help="output HTML path (default: report.html)",
    )
    report.add_argument(
        "--manifest",
        metavar="PATH.json",
        default=None,
        help="run manifest to embed as provenance",
    )
    report.add_argument(
        "--gauges",
        metavar="FILE.json",
        default=None,
        help="re-score recorded gauges against overridden targets",
    )
    report.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="also write the (re-scored) gauges as an OpenMetrics "
        "textfile",
    )

    compare = sub.add_parser(
        "compare",
        help="statistical diff of two archived runs; exits 1 on regression",
    )
    compare.add_argument(
        "run_a",
        metavar="RUN_A",
        help="baseline: run id, unique prefix, last[~N], or a record "
        "JSON path",
    )
    compare.add_argument(
        "run_b", metavar="RUN_B", help="candidate (same reference forms)"
    )
    compare.add_argument(
        "--archive",
        metavar="DIR",
        default=None,
        help="run archive to resolve references in "
        "(default: $REPRO_ARCHIVE or .repro-archive)",
    )
    compare.add_argument(
        "--p50-ratio",
        type=float,
        default=2.0,
        metavar="X",
        help="per-runner p50 latency ratio (B/A) beyond this is a "
        "regression (default 2.0)",
    )
    compare.add_argument(
        "--cache-hit-drop",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="absolute cache hit-rate drop that counts as a regression "
        "(default 0.25)",
    )
    compare.add_argument(
        "--allow-gauge-fail",
        action="store_true",
        help="do not treat a gauge flipping to fail as a regression",
    )
    compare.add_argument(
        "--allow-new-failures",
        action="store_true",
        help="do not treat failures/timeouts appearing from a clean "
        "baseline as a regression",
    )
    compare.add_argument(
        "--json",
        action="store_true",
        help="print the full comparison as JSON instead of the summary",
    )

    history = sub.add_parser(
        "history",
        help="trend sparklines and change-point flags over the run archive",
    )
    history.add_argument(
        "--archive",
        metavar="DIR",
        default=None,
        help="run archive to read (default: $REPRO_ARCHIVE or "
        ".repro-archive)",
    )
    history.add_argument(
        "--limit",
        type=int,
        default=50,
        metavar="N",
        help="most recent runs to cover (default 50)",
    )
    history.add_argument(
        "--html",
        metavar="PATH.html",
        default=None,
        help="write a self-contained HTML trend page instead of the "
        "terminal sparklines",
    )

    watch_cmd = sub.add_parser(
        "watch",
        help="live terminal view of a growing ledger or a serve "
        "follow stream",
    )
    watch_cmd.add_argument(
        "source",
        metavar="LEDGER|URL",
        help="events JSONL path (may not exist yet) or an http(s):// "
        "follow URL such as serve's /v1/events?follow=1",
    )
    watch_cmd.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="redraw cadence (default 0.5)",
    )
    watch_cmd.add_argument(
        "--once",
        action="store_true",
        help="render the current state once and exit",
    )
    watch_cmd.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop watching after this long even if the run is still "
        "going (for CI)",
    )

    render = sub.add_parser("render", help="render a figure as SVG")
    from repro.viz.figures import FIGURES

    render.add_argument("figure", choices=sorted(FIGURES) + ["all"])
    render.add_argument("outdir", help="directory for the SVG files")
    render.add_argument("--scale", type=float, default=0.5)

    serve = sub.add_parser(
        "serve",
        help="run the engine as a long-lived sweep job server "
        "(HTTP/JSONL API; docs/serve.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321, help="0 picks a free port"
    )
    serve.add_argument(
        "--data-dir",
        metavar="DIR",
        default=".repro-serve",
        help="cache, artifacts, ledgers, and journal all live here",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="sweeps in flight at once (worker threads)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="queued jobs per tenant before 429",
    )
    serve.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="byte budget for the shared result cache (default 64 MiB)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job wall-clock timeout",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=1,
        help="default extra attempts per job on transient failure",
    )
    serve.add_argument(
        "--no-replay",
        action="store_true",
        help="skip replaying the submission journal on startup",
    )
    serve.add_argument(
        "--job-workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per sweep (1 = serial in the worker "
        "thread, or one lease worker under a timeout; >1 fans out via "
        "leases)",
    )
    serve.add_argument(
        "--lease-size",
        type=int,
        default=None,
        metavar="N",
        help="jobs per lease (1 = per-job dispatch; default: ~4 "
        "leases per worker)",
    )

    cache_cmd = sub.add_parser(
        "cache", help="inspect or garbage-collect a result cache directory"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_action", required=True)
    cache_ls = cache_sub.add_parser(
        "ls", help="list entries (least recently used first) + totals"
    )
    cache_ls.add_argument("cache_dir", metavar="DIR")
    cache_gc = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a byte budget"
    )
    cache_gc.add_argument("cache_dir", metavar="DIR")
    cache_gc.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        metavar="N",
        help="target on-disk size; entries are evicted LRU until under it",
    )
    return parser


def _fail_unknown(names: List[str]) -> int:
    print(
        f"error: unknown artifact id(s): {', '.join(names)} "
        "(run 'python -m repro list' to see what can be regenerated)",
        file=sys.stderr,
    )
    return 2


def _print_result(result, json_path: Optional[str]) -> None:
    try:
        if json_path:
            path = export_json(result, json_path)
            print(f"wrote {path}")
        else:
            print(_render(result))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_run(args) -> int:
    unknown = _check_artifacts([args.artifact])
    if unknown:
        return _fail_unknown(unknown)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    spec = JobSpec(
        runner=args.artifact, seed=args.seed, scale=args.scale, label=args.artifact
    )
    result = execute([spec], workers=args.workers, cache=cache)
    outcome = result.outcomes[0]
    if outcome.status == "failed":
        failure = outcome.failure
        print(
            f"error: {failure.label} failed after {failure.attempts} attempt(s): "
            f"{failure.error_type}: {failure.error}",
            file=sys.stderr,
        )
        return 1
    _print_result(outcome.value, args.json)
    return 0


def _fleet_spec_from_args(args):
    """Build the FleetSpec for a ``sweep fleet --ues N`` invocation.

    Returns the spec, or ``None`` after printing why (the caller exits
    2). ``--seed`` becomes the fleet key, so the whole population —
    not just per-job RNG — is reseeded deterministically.
    """
    from repro.fleet import DEFAULT_KEY, FleetSpec

    if args.artifacts != ["fleet"]:
        print(
            "error: --ues/--shards/--city configure a fleet sweep; "
            "use them with exactly 'sweep fleet'",
            file=sys.stderr,
        )
        return None
    try:
        return FleetSpec(
            ues=args.ues,
            key=args.seed if args.seed is not None else DEFAULT_KEY,
            city_extent_m=args.city if args.city is not None else 4000.0,
        )
    except ValueError as exc:
        print(f"error: bad fleet parameters: {exc}", file=sys.stderr)
        return None


def _fleet_summary(fleet_spec, result):
    """Merge a fleet sweep's shard partials into the final summary.

    Returns ``None`` (with a message) when shards failed — a fleet
    summary over a partial population would be silently wrong.
    """
    from repro.fleet import finalize_summary, merge_partials

    partials = [
        outcome.value
        for outcome in result.outcomes
        if outcome.status in ("ok", "cached")
    ]
    if len(partials) != len(result):
        print(
            "fleet summary skipped: "
            f"{len(result) - len(partials)} shard(s) failed",
            file=sys.stderr,
        )
        return None
    return finalize_summary(fleet_spec, merge_partials(partials))


def _render_fleet_summary(summary) -> str:
    meta = summary["fleet"]
    lines = [
        f"fleet: {meta['ues']} UEs x {meta['ticks']} ticks "
        f"(dt {meta['dt_s']} s, device {meta['device']}, "
        f"{meta['shards']} shard(s), key {meta['key']})"
    ]
    rows = []
    for name, entry in summary["groups"].items():
        q = entry["quantiles"]
        rows.append([
            name,
            entry["count"],
            _fmt_stat(entry["mean"]),
            _fmt_stat(q.get("50")),
            _fmt_stat(q.get("95")),
            _fmt_stat(entry["max"]),
        ])
    lines.append(
        ex.format_table(
            ["group", "samples", "mean", "p50", "p95", "max"], rows
        )
    )
    return "\n".join(lines)


def _fmt_stat(value) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def _cmd_sweep(args) -> int:
    unknown = _check_artifacts(args.artifacts)
    if unknown:
        return _fail_unknown(unknown)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    fleet_spec = None
    if args.ues is not None:
        fleet_spec = _fleet_spec_from_args(args)
        if fleet_spec is None:
            return 2
        from repro.fleet import fleet_jobs

        specs = fleet_jobs(fleet_spec, shards=args.shards)
    else:
        specs = artifact_jobs(
            args.artifacts, base_seed=args.seed, scale=args.scale
        )
    faults = None
    if args.inject:
        from repro.faults import plan_from_args

        try:
            faults = plan_from_args(args.inject, seed=args.seed)
        except ValueError as exc:
            print(f"error: bad --inject spec: {exc}", file=sys.stderr)
            return 2
    events_sink = None
    if args.events:
        from repro.obs.events import EventLog

        # The ledger owns its ledger_tear plan; execute() takes the
        # cache and worker faults.
        events_sink = EventLog(args.events, faults=faults)
    if fleet_spec is not None:
        # Emits reducer_snapshot events into the ledger as shard
        # partials settle, so `repro watch` shows converging fleet
        # quantiles mid-sweep.
        from repro.fleet import FleetSnapshotTracker

        tracker: ProgressTracker = FleetSnapshotTracker(
            shards_total=len(specs),
            stream=None if args.quiet else sys.stderr,
            events=events_sink,
        )
    else:
        tracker = ProgressTracker(stream=None if args.quiet else sys.stderr)
    gauge_results = None
    try:
        result = execute(
            specs,
            workers=args.workers,
            timeout_s=args.timeout,
            retries=args.retries,
            cache=cache,
            progress=tracker,
            events=events_sink,
            faults=faults,
            max_failures=args.max_failures,
            trace=False if args.no_trace else None,
            profile_dir=args.profile_dir,
            lease_size=args.lease_size,
        )
        fleet_summary = None
        if fleet_spec is not None:
            fleet_summary = _fleet_summary(fleet_spec, result)
        gauge_results = _sweep_gauges(
            args, result, events_sink, fleet_summary=fleet_summary
        )
        if gauge_results is None:
            return 2
    finally:
        if events_sink is not None:
            events_sink.close()
    print(result.summary())
    if fleet_summary is not None:
        print(_render_fleet_summary(fleet_summary))
    _print_gauges(gauge_results)
    if cache is not None:
        print(
            f"cache hits: {result.cached_count}/{len(result)} "
            f"({100.0 * result.cache_hit_rate:.0f}%)"
        )
    for failure in result.failures():
        print(
            f"FAILED {failure.label}: {failure.error_type}: {failure.error} "
            f"(after {failure.attempts} attempt(s))"
        )
    if result.skipped_count:
        print(
            f"SKIPPED {result.skipped_count} job(s): failure budget "
            f"(--max-failures {args.max_failures}) exhausted"
        )
    if args.events:
        print(f"wrote {args.events}")
    if args.json:
        if fleet_summary is not None:
            path = export_json(fleet_summary, args.json)
        else:
            path = write_json(sweep_payload(result.outcomes), args.json)
        print(f"wrote {path}")
    for manifest_path in _sweep_manifest_paths(args):
        path = _write_sweep_manifest(result, args, manifest_path)
        print(f"wrote {path}")
    _archive_sweep(args, result, gauge_results, fleet_spec)
    if args.keep_going:
        return 0
    return 1 if result.failed_count or result.skipped_count else 0


def _archive_dir(arg: Optional[str]) -> str:
    """The archive directory for compare/history: flag, env, default."""
    import os

    return arg or os.environ.get("REPRO_ARCHIVE") or ".repro-archive"


def _archive_sweep(args, result, gauge_results, fleet_spec) -> None:
    """Append this sweep's record to the cross-run archive, if asked.

    Archiving is opt-in (``--archive`` or ``$REPRO_ARCHIVE``) and never
    fails the sweep: a broken archive disk prints a warning, not a
    traceback — the results themselves already landed.
    """
    import os

    archive_dir = args.archive or os.environ.get("REPRO_ARCHIVE")
    if not archive_dir:
        return
    from repro.obs.history import RunArchive, record_from_result

    label = " ".join(args.artifacts)
    if fleet_spec is not None:
        label = f"fleet --ues {fleet_spec.ues}"
    try:
        record = record_from_result(result, label=label, gauges=gauge_results)
        run_id = RunArchive(archive_dir).append(record)
    except OSError as exc:
        print(
            f"warning: could not archive run in {archive_dir}: {exc}",
            file=sys.stderr,
        )
        return
    print(f"archived {run_id} in {archive_dir}")


def _load_gauge_overrides(path):
    """Parsed ``--gauges`` overrides, or ``None`` after printing why."""
    from repro.obs.calib import load_overrides

    try:
        return load_overrides(path)
    except (OSError, ValueError) as exc:
        print(f"error: bad --gauges file {path}: {exc}", file=sys.stderr)
        return None


def _sweep_gauges(args, result, events_sink, fleet_summary=None):
    """Score the calibration gauges over a sweep's outcomes.

    Emits one ``gauge`` event per scored (not skipped) result into the
    (still-open) ledger, honours ``--gauges`` target overrides and the
    ``--metrics`` OpenMetrics export, and returns the evaluated list,
    skipped gauges included — empty when gauges are not in play,
    ``None`` on a bad ``--gauges`` file (the caller exits 2). For a
    fleet sweep the per-shard partials are not gaugeable on their own,
    so the merged ``fleet_summary`` is scored under the ``fleet``
    runner instead.
    """
    wants_gauges = bool(args.events or args.gauges or args.metrics)
    if not wants_gauges:
        return []
    from repro.obs.calib import (
        PAPER_GAUGES,
        apply_overrides,
        evaluate_gauges,
        values_from_result,
    )

    gauges = PAPER_GAUGES
    if args.gauges:
        overrides = _load_gauge_overrides(args.gauges)
        if overrides is None:
            return None
        try:
            gauges = apply_overrides(gauges, overrides)
        except ValueError as exc:
            print(f"error: bad --gauges file {args.gauges}: {exc}",
                  file=sys.stderr)
            return None
    if fleet_summary is not None:
        values = {"fleet": fleet_summary}
    else:
        values = values_from_result(result)
    evaluated = evaluate_gauges(values, gauges)
    if events_sink is not None:
        for gauge in evaluated:
            if gauge.status != "skipped":
                events_sink.emit("gauge", **gauge.event_fields())
    if args.metrics:
        from repro.obs.openmetrics import render_openmetrics

        counts = {
            status: count
            for status, count in result.counts.items()
            if status != "jobs" and count
        }
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(render_openmetrics(evaluated, counts))
        print(f"wrote {args.metrics}")
    return evaluated


def _print_gauges(gauge_results) -> None:
    """One scoreboard line + one line per non-pass gauge."""
    scored = [g for g in gauge_results or [] if g.status != "skipped"]
    if not scored:
        return
    tally = {"pass": 0, "warn": 0, "fail": 0}
    for gauge in scored:
        tally[gauge.status] = tally.get(gauge.status, 0) + 1
    print(
        "calibration gauges: {pass_} pass, {warn} warn, {fail} fail "
        "({n} scored)".format(
            pass_=tally["pass"], warn=tally["warn"], fail=tally["fail"],
            n=len(scored),
        )
    )
    for gauge in scored:
        if gauge.status == "pass":
            continue
        detail = f" ({gauge.detail})" if gauge.detail else ""
        print(
            f"  {gauge.status.upper()} {gauge.name} [{gauge.paper_ref}]: "
            f"measured {gauge.measured:.4g} vs target {gauge.target:.4g} "
            f"{gauge.unit}{detail}"
        )


def _sweep_manifest_paths(args) -> List[str]:
    """Everywhere this sweep's manifest belongs: the explicit
    ``--manifest`` path, a sibling of the ``--json`` export, and the
    cache directory — so any artifact or cache entry traces back to the
    run that produced it."""
    from pathlib import Path

    from repro.obs.manifest import manifest_path_for

    paths = []
    if args.manifest:
        paths.append(Path(args.manifest))
    if args.json:
        paths.append(manifest_path_for(args.json))
    if args.cache_dir:
        paths.append(Path(args.cache_dir) / "last-sweep.manifest.json")
    # De-duplicate while keeping order (--manifest may equal a default).
    unique = []
    for path in paths:
        if path not in unique:
            unique.append(path)
    return unique


def _write_sweep_manifest(result, args, path):
    from repro.obs.manifest import build_manifest, write_manifest

    manifest = build_manifest(
        result,
        base_seed=args.seed,
        scale=args.scale,
        argv=["sweep"] + list(args.artifacts),
        cache_dir=args.cache_dir,
        events_path=args.events,
    )
    return write_manifest(manifest, path)


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.config import DEFAULT_CACHE_MAX_BYTES, ServeConfig
    from repro.serve.http import ServeHTTP
    from repro.serve.server import ServeServer

    try:
        config = ServeConfig(
            data_dir=args.data_dir,
            host=args.host,
            port=args.port,
            max_concurrency=args.concurrency,
            queue_limit=args.queue_limit,
            cache_max_bytes=(
                args.cache_max_bytes
                if args.cache_max_bytes is not None
                else DEFAULT_CACHE_MAX_BYTES
            ),
            timeout_s=args.timeout,
            retries=args.retries,
            replay_journal=not args.no_replay,
            job_workers=args.job_workers,
            lease_size=args.lease_size,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    core = ServeServer(config)
    http = ServeHTTP(core)

    async def _main() -> None:
        import signal as _signal

        await http.start()
        replayed = core.start()
        print(
            f"repro serve listening on http://{config.host}:{http.port} "
            f"(data: {config.root})",
            file=sys.stderr,
        )
        if replayed:
            print(
                f"replayed {replayed} journaled submission(s)",
                file=sys.stderr,
            )
        loop = asyncio.get_running_loop()
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(signum, http.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
        await http.serve_until_shutdown()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        core.close()
    counts = core.jobs.counts_by_state()
    settled = sum(counts.get(state, 0) for state in ("done", "failed",
                                                     "cancelled"))
    print(
        f"drained: {settled} job(s) settled "
        f"({counts.get('done', 0)} done, {counts.get('failed', 0)} failed, "
        f"{counts.get('cancelled', 0)} cancelled); "
        f"ledger at {config.ledger_path}",
        file=sys.stderr,
    )
    return 0


def _cmd_cache(args) -> int:
    import time

    cache = ResultCache(args.cache_dir)
    if args.cache_action == "gc":
        summary = cache.gc(args.max_bytes)
        print(
            f"evicted {summary['evicted']} entry(ies), "
            f"freed {summary['freed_bytes']} bytes; "
            f"{summary['kept']} kept, {summary['size_bytes']} bytes on disk"
        )
        return 0
    now_ns = time.time_ns()
    for path, size, mtime_ns in cache.entry_stats():
        age_s = max(0.0, (now_ns - mtime_ns) / 1e9)
        print(f"{size:>10}  {age_s:>9.1f}s  {path.name}")
    account = cache.scan()
    quarantined = (
        len(list(cache.quarantine_dir.iterdir()))
        if cache.quarantine_dir.is_dir()
        else 0
    )
    tail = f", {quarantined} quarantined" if quarantined else ""
    print(
        f"{len(account.entries)} entry(ies), {account.total} bytes "
        f"with {len(account.sidecars)} sidecar(s){tail}"
    )
    return 0


def _cmd_stats(args) -> int:
    import warnings

    from repro.obs.stats import aggregate_events_file, render_stats

    try:
        # A torn final line (writer killed mid-append) is degraded data,
        # not a corrupt ledger: surface the reader's warning on stderr
        # and still render everything before the tear. Malformed lines
        # anywhere else stay a hard error (exit 2).
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            aggregate = aggregate_events_file(args.events)
    except OSError as exc:
        print(f"error: cannot read {args.events}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if args.json:
        import json

        print(json.dumps(aggregate, indent=2, sort_keys=True))
    else:
        print(render_stats(aggregate))
    return 0


def _cmd_report(args) -> int:
    from repro.obs.report import write_report

    if args.gauges and _load_gauge_overrides(args.gauges) is None:
        return 2  # clear error already printed; don't blame the ledger
    try:
        model = write_report(
            args.events,
            args.out,
            manifest_path=args.manifest,
            gauges_path=args.gauges,
        )
    except OSError as exc:
        print(f"error: cannot read {args.events}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    gauges = model.get("gauges", [])
    scored = [g for g in gauges if g.get("status") != "skipped"]
    if scored:
        counts = {"pass": 0, "warn": 0, "fail": 0}
        for gauge in scored:
            status = gauge.get("status", "fail")
            counts[status] = counts.get(status, 0) + 1
        print(
            "calibration gauges: {pass_} pass, {warn} warn, {fail} fail "
            "({n} scored)".format(
                pass_=counts["pass"], warn=counts["warn"],
                fail=counts["fail"], n=len(scored),
            )
        )
    if args.metrics:
        from repro.obs.openmetrics import render_openmetrics

        overall = model.get("aggregate", {}).get("overall", {})
        counts_out = {
            status: overall.get(status, 0)
            for status in ("ok", "cached", "failed", "skipped")
            if overall.get(status)
        }
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(render_openmetrics(gauges, counts_out))
        print(f"wrote {args.metrics}")
    failed = any(g.get("status") == "fail" for g in gauges)
    return 1 if failed else 0


def _cmd_compare(args) -> int:
    import json
    import warnings

    from repro.obs.compare import (
        CompareThresholds,
        compare_records,
        render_comparison,
    )
    from repro.obs.history import RunArchive

    archive = RunArchive(_archive_dir(args.archive))
    try:
        # Newer-schema records compare best-effort with a warning
        # (satellite: versioned aggregates); surface it on stderr so
        # the comparison output itself stays machine-greppable.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record_a = archive.resolve(args.run_a)
            record_b = archive.resolve(args.run_b)
            comparison = compare_records(
                record_a,
                record_b,
                CompareThresholds(
                    p50_ratio=args.p50_ratio,
                    cache_hit_drop=args.cache_hit_drop,
                    gauge_fail=not args.allow_gauge_fail,
                    new_failures=not args.allow_new_failures,
                ),
            )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if args.json:
        print(json.dumps(comparison, indent=2, sort_keys=True))
    else:
        print(render_comparison(comparison))
    return 0 if comparison["ok"] else 1


def _cmd_history(args) -> int:
    from repro.obs.history import (
        RunArchive,
        build_history,
        render_history_html,
        render_history_text,
    )

    archive = RunArchive(_archive_dir(args.archive))
    if not archive.index_path.exists():
        print(
            f"error: no run archive at {archive.root} "
            "(sweep with --archive or set $REPRO_ARCHIVE first)",
            file=sys.stderr,
        )
        return 2
    try:
        model = build_history(archive, limit=args.limit)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read archive {archive.root}: {exc}",
              file=sys.stderr)
        return 2
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_history_html(model))
        print(f"wrote {args.html}")
    else:
        print(render_history_text(model))
    return 0


def _cmd_watch(args) -> int:
    import warnings

    from repro.obs.watch import watch

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = watch(
                args.source,
                interval_s=args.interval,
                duration_s=args.duration,
                once=args.once,
            )
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return 130
    except OSError as exc:
        print(f"error: cannot follow {args.source}: {exc}", file=sys.stderr)
        return 2
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return code


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        ids = _artifact_ids()
        width = max(len(k) for k in ids)
        for key in ids:
            print(f"{key.ljust(width)}  {registry.describe(key)}")
        return 0
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "history":
        return _cmd_history(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if getattr(args, "scale", 1.0) <= 0:
        print("--scale must be positive", file=sys.stderr)
        return 2
    if args.command == "render":
        from repro.viz.figures import render_figure

        paths = render_figure(args.figure, args.outdir, args.scale)
        for path in paths:
            print(f"wrote {path}")
        return 0
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_sweep(args)


if __name__ == "__main__":
    raise SystemExit(main())
