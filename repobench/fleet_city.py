"""``fleet_city``: what ``repro sweep fleet --ues 16384 --workers nproc`` does.

Each round runs ``execute(fleet_jobs(FleetSpec(ues=16384)), workers=nproc)``
and folds the partials with ``merge_partials`` + ``finalize_summary``,
on the default 4 km city and mixes, 240 ticks and 4 default-size
shards. The run is split into segments, each a fresh interpreter that
sets up (imports, lazy tables, one warm-up sweep that starts the
workers) and then repeats rounds until its share of the run is spent.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, List

import common
import layers

NAME = "fleet_city"
WHY = (
    "compute-bound batch path: geometry, radio kernels and reducers do "
    "the work; dispatch is only 4 shard jobs a round"
)

UES = 16384
WARM_UES = 64
SEGMENTS = 3


def fleet_key(seed: int) -> int:
    return 1_000_003 * int(seed) + 17


def summary_digest(summary: Dict[str, Any]) -> str:
    """Digest of a fleet summary, minus the shard count."""
    body = dict(summary, fleet=dict(summary["fleet"]))
    body["fleet"].pop("shards", None)
    text = json.dumps(body, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def segment(args: Dict[str, Any]) -> Dict[str, Any]:
    """Child step: set up, then time rounds for ``budget_s``."""
    common.require_program()
    from repro.engine import pool
    from repro.fleet import sweep
    from repro.fleet.scenario import FleetScenario
    from repro.fleet.spec import FleetSpec

    workers = int(args["workers"])
    spec = FleetSpec(ues=UES, key=int(args["key"]))
    FleetScenario(spec)
    warm = FleetSpec(ues=WARM_UES, key=int(args["key"]))
    pool.execute(sweep.fleet_jobs(warm, shards=workers), workers=workers)
    ready = time.monotonic()
    # Installed after set-up, so only the timed rounds are traced; the
    # module attributes below are looked up per call, wrapped or not.
    tracer = layers.install(args["trace_dir"]) if args.get("trace_dir") else None

    rounds: List[Dict[str, Any]] = []
    while not rounds or time.monotonic() - ready < float(args["budget_s"]):
        start = time.monotonic()
        result = pool.execute(sweep.fleet_jobs(spec), workers=workers)
        summary = None
        if result.failed_count == 0:
            summary = sweep.finalize_summary(
                spec, sweep.merge_partials([o.value for o in result.outcomes])
            )
        end = time.monotonic()
        rounds.append(
            {
                "start": start,
                "end": end,
                "jobs": len(result.outcomes),
                "failed": result.failed_count,
                "retries": sum(max(0, o.attempts - 1) for o in result.outcomes),
                "digest": summary_digest(summary) if summary else None,
            }
        )
    out = {
        "pid": os.getpid(),
        "ready": ready,
        "rounds": rounds,
        "peak_rss_mib": common.peak_rss_mib(),
        "worker_peak_rss_mib": common.children_peak_rss_mib(),
    }
    if tracer is not None:
        tracer.dump()
    return out


def reference(args: Dict[str, Any]) -> Dict[str, Any]:
    """Child step: the serial in-process sweep and its calibration gauges."""
    common.require_program()
    from repro.fleet.spec import FleetSpec
    from repro.fleet.sweep import run_fleet
    from repro.obs.calib import evaluate_gauges

    summary = run_fleet(FleetSpec(ues=UES, key=int(args["key"])))
    gauges = [
        g for g in evaluate_gauges({"fleet": summary}) if g.status != "skipped"
    ]
    return {
        "digest": summary_digest(summary),
        "gauges": {g.name: g.status for g in gauges},
    }


def run(ctx) -> Dict[str, Any]:
    key = fleet_key(ctx.seed)
    ref = ctx.child(f"{NAME}:reference", {"key": key}, timeout_s=120)
    problems = [
        f"gauge {name} is {status}"
        for name, status in sorted(ref["gauges"].items())
        if status != "pass"
    ]
    if not ref["gauges"]:
        problems.append("no fleet gauge was scored")

    def segments(count: int, budget_s: float, trace_dir=None):
        return ctx.segments(
            f"{NAME}:segment",
            {"key": key, "workers": ctx.workers},
            count,
            budget_s,
            trace_dir,
        )

    def summarize(segs) -> Dict[str, Any]:
        rounds = [r for s in segs for r in s["rounds"]]
        for r in rounds:
            if r["failed"]:
                problems.append(f"{r['failed']} shard job(s) failed")
            elif r["digest"] != ref["digest"]:
                problems.append("round summary differs from the serial run")
        ok = [r for r in rounds if not r["failed"]]
        return {
            "rounds": rounds,
            "throughput": common.median(
                [UES / (r["end"] - r["start"]) for r in ok]
            ) if ok else None,
            "attempted": sum(r["jobs"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
        }

    if not ctx.trace:
        segs = segments(SEGMENTS, ctx.seconds / SEGMENTS)
        agg = summarize(segs)
        metrics = {
            "setup_s": common.median([s["setup_s"] for s in segs]),
            "throughput_per_s": agg["throughput"],
            "peak_rss_mib": max(s["peak_rss_mib"] for s in segs),
        }
        return ctx.result(problems, agg["attempted"], agg["failed"], metrics)

    plain = segments(1, ctx.seconds / 2)
    trace_dir = ctx.trace_dir("fleet")
    traced = segments(1, ctx.seconds / 2, trace_dir)
    agg_plain, agg_traced = summarize(plain), summarize(traced)
    windows = [(r["start"], r["end"]) for r in agg_traced["rounds"]]
    metrics = ctx.layer_metrics(
        layers.load(trace_dir),
        windows=windows,
        main_pids=[traced[0]["pid"]],
        workers=ctx.workers,
    )
    metrics.update(
        {
            "engine.jobs": agg_traced["attempted"],
            "engine.retries": sum(r["retries"] for r in agg_traced["rounds"]),
            "engine.failed": agg_traced["failed"],
            "worker_peak_rss_mib": plain[0]["worker_peak_rss_mib"],
            "trace.overhead_frac": common.overhead_frac(
                agg_plain["throughput"], agg_traced["throughput"]
            ),
        }
    )
    return ctx.result(
        problems,
        agg_plain["attempted"] + agg_traced["attempted"],
        agg_plain["failed"] + agg_traced["failed"],
        metrics,
    )
