"""``ledger_fold``: the four readers of one large run ledger.

Before timing, :func:`build` captures real seeded sweep ledgers and
appends them over and over to one file, as re-running sweeps into one
``--events`` file does: a sweep under a ``FaultPlan`` with transient
faults, a timing-out job and a failing one (run cold, then again over
its cache); the same kind of sweep cut off so that jobs start but never
end; and a small fleet sweep with its ``reducer_snapshot`` events. A
torn half line ends the file. The counts of what was written are kept.

Each reader then folds the ledger in its own fresh process, as users
run them: ``repro stats`` (``aggregate_events_file`` + ``render_stats``),
``repro report`` (``write_report``), ``repro watch --once``
(``WatchView`` over ``follow_events``) and serve's drain-time archive
record (``record_from_ledger``). ``stats``, ``history`` and ``report``
must reproduce the written counts; every shared count on which
``WatchView`` disagrees is reported as ``obs.fold.mismatches``.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import re
import time
import warnings
from typing import Any, Dict, List, Tuple

import common
import layers

NAME = "ledger_fold"
WHY = (
    "the only workload that reads ledgers: one ~4 MB multi-sweep ledger "
    "with faults, interrupted jobs, spans, gauges and snapshots, folded "
    "four ways"
)

#: Events in the ledger (~4 MB). ``repro watch --once`` reads the file
#: as one chunk and re-splits the remaining buffer for every line, so its
#: cost grows with the square of the ledger size; at ~4 MB it takes a
#: few seconds, at 25 MB it does not finish within a run's time limit.
TARGET_EVENTS = 19_000
#: Counts every reader shares, as ``repro stats`` defines them: an
#: interrupted job (started, never ended) also counts as failed.
SHARED_COUNTS = ("ok", "cached", "failed", "retries", "timeouts", "interrupted")
_T_FIELD = re.compile(r'"t":(-?[0-9.]+)')


def tally(lines: List[str]) -> Dict[str, int]:
    """The shared counts of a ledger fragment, from what was written."""
    counts = dict.fromkeys(SHARED_COUNTS, 0)
    open_jobs: Dict[Tuple, int] = {}
    for line in lines:
        event = json.loads(line)
        kind = event["event"]
        key = (event.get("runner"), event.get("label"), event.get("index"))
        if kind == "job_start":
            open_jobs[key] = open_jobs.get(key, 0) + 1
        elif kind == "job_end":
            open_jobs[key] -= 1
            counts["ok" if event.get("status") == "ok" else "failed"] += 1
        elif kind == "cache_hit":
            counts["cached"] += 1
        elif kind == "job_retry":
            counts["retries"] += 1
        elif kind == "job_timeout":
            counts["timeouts"] += 1
    counts["interrupted"] = sum(n for n in open_jobs.values() if n > 0)
    counts["failed"] += counts["interrupted"]
    return counts


def _capture(path: str) -> List[str]:
    with open(path) as handle:
        return [line.rstrip("\n") for line in handle if line.strip()]


def build(args: Dict[str, Any]) -> Dict[str, Any]:
    """Child step: capture the sweeps and write the ledger."""
    common.require_program()
    from repro.engine.cache import ResultCache
    from repro.engine.pool import execute
    from repro.engine.spec import JobSpec, artifact_jobs
    from repro.faults.plan import FaultPlan, FaultSpec
    from repro.fleet.spec import FleetSpec
    from repro.fleet.sweep import FleetSnapshotTracker, fleet_jobs
    from repro.obs.calib import evaluate_gauges, values_from_result
    from repro.obs.events import EventLog

    seed, workers, scratch = int(args["seed"]), int(args["workers"]), args["scratch"]
    rng = random.Random(seed)

    def seeded_jobs(counts: Dict[str, int], extra=()) -> List:
        names = [n for n, c in counts.items() for _ in range(c)]
        rng.shuffle(names)
        specs = artifact_jobs(names, base_seed=rng.randrange(1 << 30), scale=0.05)
        for runner, kwargs in extra:
            specs.insert(
                rng.randrange(len(specs) + 1),
                JobSpec(runner=runner, kwargs=kwargs, label=runner),
            )
        return [s.replace(index=i) for i, s in enumerate(specs)]

    # 1. Faults: transient first attempts, a job that times out on every
    #    attempt, and one that always fails; run cold, then over the cache.
    faulted = os.path.join(scratch, "faulted.jsonl")
    specs = seeded_jobs(
        {"fig2": 40, "table2": 20},
        extra=[("test.sleep", {"duration_s": 1.0}), ("test.fail", {})],
    )
    plan = FaultPlan(specs=(FaultSpec("transient", rate=0.2),), seed=seed)
    cache = ResultCache(os.path.join(scratch, "cache"))
    log = EventLog(faulted)
    for _ in range(2):
        result = execute(
            specs, workers=workers, cache=cache, events=log, faults=plan,
            timeout_s=0.25, retries=1, backoff_s=0.0,
        )
        for gauge in evaluate_gauges(values_from_result(result)):
            log.emit("gauge", **gauge.event_fields())
    log.close()

    # 2. Interrupted: a sweep's ledger cut while jobs are in flight.
    whole = os.path.join(scratch, "whole.jsonl")
    log = EventLog(whole)
    execute(
        seeded_jobs({"fig2": 16, "table2": 8, "fig8": 4}),
        workers=workers, events=log,
    )
    log.close()
    lines = _capture(whole)
    ends = [i for i, line in enumerate(lines) if '"event":"job_end"' in line]
    cut = lines[: ends[len(ends) // 2]]

    # 3. A small fleet sweep: reducer_snapshot events as shards settle.
    fleet = os.path.join(scratch, "fleet.jsonl")
    log = EventLog(fleet)
    spec = FleetSpec(ues=2048, key=seed)
    execute(
        fleet_jobs(spec, shards=4), workers=workers, events=log,
        progress=FleetSnapshotTracker(4, events=log),
    )
    log.close()

    captures = [_capture(faulted), cut, _capture(fleet)]
    tallies = [tally(capture) for capture in captures]
    parts = [[_T_FIELD.split(line, maxsplit=1) for line in c] for c in captures]
    t0 = min(float(p[1]) for part in parts for p in part)
    span = max(float(p[1]) for part in parts for p in part) - t0 + 1.0

    # Whole rounds of the captures, then a prefix of the next round (a
    # sweep killed mid-run), so every seed writes the same event count.
    known = dict.fromkeys(SHARED_COUNTS, 0)
    rounds = events = 0
    with open(args["ledger"], "w") as out:
        while events < TARGET_EVENTS:
            shift = rounds * span - t0 + 1000.0
            for capture, part, whole in zip(captures, parts, tallies):
                take = min(len(part), TARGET_EVENTS - events)
                text = "".join(
                    f'{head}"t":{float(t) + shift:.6f}{tail}\n'
                    for head, t, tail in part[:take]
                )
                out.write(text)
                events += take
                counts = whole if take == len(part) else tally(capture[:take])
                for key, value in counts.items():
                    known[key] += value
            rounds += 1
        torn = captures[0][len(captures[0]) // 2]
        out.write(torn[: len(torn) // 2])
    return {"events": events, "known": known}


def fold_stats(module, args) -> Dict[str, Any]:
    aggregate = module.aggregate_events_file(args["ledger"])
    module.render_stats(aggregate)
    return aggregate["overall"]


def fold_report(module, args) -> Dict[str, Any]:
    return module.write_report(args["ledger"], args["html"])["aggregate"]["overall"]


def fold_watch(module, args) -> Dict[str, Any]:
    panel = module.WatchView(source=args["ledger"])
    for event in module.follow_events(args["ledger"], stop=lambda: True):
        if event is not None:
            panel.feed(event)
    panel.render()
    return {
        "ok": panel.ok,
        "cached": panel.cached,
        "failed": panel.failed,
        "retries": panel.retries,
        "timeouts": panel.timeouts,
        "interrupted": len(panel.running),
    }


def fold_history(module, args) -> Dict[str, Any]:
    return module.record_from_ledger(args["ledger"], label="bench", kind="serve")[
        "overall"
    ]


#: view -> (module, fold). Each fold does what its command does.
VIEWS = {
    "stats": ("repro.obs.stats", fold_stats),
    "report": ("repro.obs.report", fold_report),
    "watch": ("repro.obs.watch", fold_watch),
    "history": ("repro.obs.history", fold_history),
}


def fold(args: Dict[str, Any]) -> Dict[str, Any]:
    """Child step: one reader over the ledger, as its command runs it."""
    common.require_program()
    tracer = layers.install(args["trace_dir"]) if args.get("trace_dir") else None
    module_name, fold_view = VIEWS[args["view"]]
    # Functions are looked up on the module per call, so spans apply.
    module = importlib.import_module(module_name)
    ready = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        counts = fold_view(module, args)
    done = time.monotonic()
    out = {
        "pid": os.getpid(),
        "ready": ready,
        "done": done,
        "counts": {key: int(counts.get(key, 0)) for key in SHARED_COUNTS},
        "skipped_lines": sum(1 for w in caught if "torn" in str(w.message)),
        "peak_rss_mib": common.peak_rss_mib(),
    }
    if tracer is not None:
        tracer.dump()
    return out


def run(ctx) -> Dict[str, Any]:
    problems: List[str] = []
    ledger = str(ctx.tmp / "ledger.jsonl")
    built = ctx.child(
        f"{NAME}:build",
        {
            "seed": ctx.seed,
            "workers": ctx.workers,
            "scratch": str(ctx.path("captures")),
            "ledger": ledger,
        },
        timeout_s=120,
    )
    known = built["known"]
    if not known["interrupted"] or not known["retries"] or not known["timeouts"]:
        problems.append(f"ledger lacks a fault kind: {known}")

    def rep(trace_dir=None) -> Dict[str, Any]:
        views = {}
        for view in VIEWS:
            launched, out = ctx.child(
                f"{NAME}:fold",
                {
                    "view": view,
                    "ledger": ledger,
                    "html": str(ctx.tmp / "report.html"),
                    "trace_dir": trace_dir,
                },
                timeout_s=120,
                with_launch=True,
            )
            out["setup_s"] = out["ready"] - launched
            out["fold_s"] = out["done"] - out["ready"]
            views[view] = out
        mismatches = 0
        for view, out in views.items():
            for key in SHARED_COUNTS:
                if out["counts"][key] == known[key]:
                    continue
                if view == "watch":
                    mismatches += 1
                else:
                    problems.append(
                        f"{view} counts {key}={out['counts'][key]}, "
                        f"ledger holds {known[key]}"
                    )
        fold_s = sum(v["fold_s"] for v in views.values())
        return {
            "views": views,
            "mismatches": mismatches,
            "throughput": len(views) * built["events"] / fold_s,
        }

    def reps(budget_s: float, trace_dir=None) -> List[Dict[str, Any]]:
        out = []
        start = time.monotonic()
        while not out or time.monotonic() - start < budget_s:
            out.append(rep(trace_dir))
        return out

    if not ctx.trace:
        done = reps(ctx.seconds)
        views = [v for r in done for v in r["views"].values()]
        metrics = {
            "setup_s": common.median([v["setup_s"] for v in views]),
            "throughput_per_s": common.median([r["throughput"] for r in done]),
            "peak_rss_mib": common.median(
                [max(v["peak_rss_mib"] for v in r["views"].values()) for r in done]
            ),
        }
        attempted = len(views)
        return ctx.result(problems, attempted, 0, metrics)

    plain = reps(ctx.seconds / 2)
    trace_dir = ctx.trace_dir("fold")
    traced = reps(0, trace_dir)
    views = [v for r in traced for v in r["views"].values()]
    metrics = ctx.layer_metrics(
        layers.load(trace_dir),
        windows=[(v["ready"], v["done"]) for v in views],
        main_pids=[v["pid"] for v in views],
        workers=ctx.workers,
    )
    for view in VIEWS:
        metrics[f"obs.{view}.peak_rss_mib"] = common.median(
            [r["views"][view]["peak_rss_mib"] for r in plain]
        )
    metrics.update(
        {
            "obs.events.skipped_lines": max(v["skipped_lines"] for v in views),
            "obs.fold.mismatches": traced[-1]["mismatches"],
            "trace.overhead_frac": common.overhead_frac(
                common.median([r["throughput"] for r in plain]),
                common.median([r["throughput"] for r in traced]),
            ),
        }
    )
    attempted = len(views) + sum(len(r["views"]) for r in plain)
    return ctx.result(problems, attempted, 0, metrics)
