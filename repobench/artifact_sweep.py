"""``artifact_sweep``: ``repro sweep … --workers nproc --cache-dir C --events L``.

Run in-process through ``execute``: a seeded list of cheap artifact
jobs at scale 0.05 (the CLI's ``artifact_jobs``) goes into a fresh
``ResultCache`` with an ``EventLog``, then the same sweep runs again as
all cache hits. The run is split into segments, each a fresh
interpreter that sets up (imports, the code-version scan, one warm-up
sweep that starts the workers) and then repeats the cold sweep and its
rerun until its share of the run is spent.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from typing import Any, Dict, List

import common
import layers

NAME = "artifact_sweep"
WHY = (
    "dispatch-bound engine path: job dispatch, cache puts and the event "
    "ledger carry the cost, not the physics; its rerun is cache reads only"
)

SCALE = 0.05
#: Jobs per artifact in one sweep (~1 ms each for fig2/table2, 60-130 ms
#: for the middle six, ~0.25 s and a 2.5 MB array result for fig13).
MIX = {
    "fig2": 100,
    "table2": 34,
    "fig8": 7,
    "fig10": 7,
    "table6": 7,
    "fig19": 7,
    "energy_abr": 7,
    "live": 7,
    "fig13": 4,
}
SEGMENTS = 3
HIT_RERUNS = 1


def sweep_specs(seed: int, segment: int, rep: int) -> List[Any]:
    """One sweep's jobs, as ``repro sweep`` builds them.

    Every sweep of a run gets its own seeded order and job seeds. Each
    artifact's jobs are spread evenly over the sweep, one per equal
    slot at a seeded offset within it, so every stretch of the sweep
    (and so every lease the pool cuts from it) carries about the same
    mix. A plain shuffle can stack the heavy jobs into one lease and
    leave a worker idle at the end, so throughput would depend on the
    seed more than on the program.
    """
    from repro.engine.spec import artifact_jobs

    sweep_seed = seed * 10_000 + segment * 100 + rep
    rng = random.Random(sweep_seed)
    placed = [
        ((slot + rng.random()) / count, name)
        for name, count in MIX.items()
        for slot in range(count)
    ]
    names = [name for _, name in sorted(placed)]
    return artifact_jobs(names, base_seed=sweep_seed, scale=SCALE)


def value_digest(value: Any) -> str:
    from repro.experiments.export import to_jsonable

    text = json.dumps(to_jsonable(value), sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def segment(args: Dict[str, Any]) -> Dict[str, Any]:
    """Child step: set up, then time cold sweeps and all-hit reruns."""
    common.require_program()
    from repro.engine import pool
    from repro.engine.cache import ResultCache, default_code_version
    from repro.engine.spec import JobSpec
    from repro.obs.events import EventLog

    workers = int(args["workers"])
    version = default_code_version()
    pool.execute(
        [JobSpec(runner="table2", index=i) for i in range(workers)],
        workers=workers,
    )
    ready = time.monotonic()
    tracer = layers.install(args["trace_dir"]) if args.get("trace_dir") else None

    root = args["scratch"]
    reps: List[Dict[str, Any]] = []
    problems: List[str] = []
    while not reps or time.monotonic() - ready < float(args["budget_s"]):
        specs = sweep_specs(int(args["seed"]), int(args["index"]), len(reps))
        rep_dir = os.path.join(root, f"rep-{len(reps)}")
        cache = ResultCache(os.path.join(rep_dir, "cache"))
        log = EventLog(os.path.join(rep_dir, "events.jsonl"))
        start = time.monotonic()
        cold = pool.execute(
            specs, workers=workers, cache=cache, events=log, code_version=version
        )
        end = time.monotonic()
        windows = [(start, end)]
        hit_walls = []
        hit_results = []
        for _ in range(HIT_RERUNS):
            hit_start = time.monotonic()
            hits = pool.execute(
                specs, workers=workers, cache=cache, events=log, code_version=version
            )
            hit_end = time.monotonic()
            windows.append((hit_start, hit_end))
            hit_walls.append(hit_end - hit_start)
            hit_results.append(hits)
        log.close()
        shutil.rmtree(rep_dir, ignore_errors=True)
        # With a cache attached both passes return JSON-normalised
        # values (plain lists, dicts and numbers), so == is exact.
        cold_values = [o.value for o in cold.outcomes]
        for hits in hit_results:
            if hits.cached_count != len(specs):
                problems.append(
                    f"rerun hit the cache {hits.cached_count}/{len(specs)} times"
                )
            elif [o.value for o in hits.outcomes] != cold_values:
                problems.append("rerun values differ from the cold sweep")
        reps.append(
            {
                "cold_s": end - start,
                "hit_s": hit_walls,
                "windows": windows,
                "jobs": len(cold.outcomes) + sum(len(h.outcomes) for h in hit_results),
                "failed": cold.failed_count
                + sum(h.failed_count for h in hit_results),
                "retries": sum(max(0, o.attempts - 1) for o in cold.outcomes),
                "cold_ok": cold.ok_count,
            }
        )
    first = {}
    for spec, outcome in zip(specs, cold.outcomes):
        if spec.runner not in first and outcome.status == "ok":
            first[spec.runner] = (spec.seed, value_digest(outcome.value))
    out = {
        "pid": os.getpid(),
        "ready": ready,
        "jobs_per_sweep": sum(MIX.values()),
        "reps": reps,
        "problems": problems,
        "firsts": {name: list(pair) for name, pair in first.items()},
        "peak_rss_mib": common.peak_rss_mib(),
        "worker_peak_rss_mib": common.children_peak_rss_mib(),
    }
    if tracer is not None:
        tracer.dump()
    return out


def reference(args: Dict[str, Any]) -> Dict[str, Any]:
    """Child step: one job per artifact, serial and in-process."""
    common.require_program()
    from repro.engine.pool import execute
    from repro.engine.spec import JobSpec

    specs = [
        JobSpec(runner=name, seed=seed, scale=SCALE, index=i)
        for i, (name, (seed, _digest)) in enumerate(sorted(args["firsts"].items()))
    ]
    result = execute(specs, workers=1)
    return {
        o.spec.runner: value_digest(o.value) if o.status == "ok" else None
        for o in result.outcomes
    }


def run(ctx) -> Dict[str, Any]:
    problems: List[str] = []

    def segments(count: int, budget_s: float, trace_dir=None):
        segs = ctx.segments(
            f"{NAME}:segment",
            {"seed": ctx.seed, "workers": ctx.workers},
            count,
            budget_s,
            trace_dir,
        )
        for seg in segs:
            problems.extend(seg["problems"])
        return segs

    def summarize(segs) -> Dict[str, Any]:
        reps = [r for s in segs for r in s["reps"]]
        jobs = segs[0]["jobs_per_sweep"]
        for rep in reps:
            if rep["cold_ok"] != jobs:
                problems.append(f"{jobs - rep['cold_ok']} job(s) did not settle ok")
        # Rates over all of a run's sweeps: total jobs over total time.
        return {
            "reps": reps,
            "throughput": jobs * len(reps) / sum(r["cold_s"] for r in reps),
            "cached": jobs
            * sum(len(r["hit_s"]) for r in reps)
            / sum(sum(r["hit_s"]) for r in reps),
            "attempted": sum(r["jobs"] for r in reps),
            "failed": sum(r["failed"] for r in reps),
        }

    def check_reference(segs) -> None:
        firsts = segs[0]["firsts"]
        serial = ctx.child(f"{NAME}:reference", {"firsts": firsts}, timeout_s=120)
        for name, (_seed, digest) in sorted(firsts.items()):
            if serial.get(name) is None or serial[name] != digest:
                problems.append(f"{name} differs from a serial in-process run")

    if not ctx.trace:
        segs = segments(SEGMENTS, ctx.seconds / SEGMENTS)
        check_reference(segs)
        agg = summarize(segs)
        metrics = {
            "setup_s": common.median([s["setup_s"] for s in segs]),
            "throughput_per_s": agg["throughput"],
            "peak_rss_mib": max(s["peak_rss_mib"] for s in segs),
        }
        return ctx.result(problems, agg["attempted"], agg["failed"], metrics)

    plain = segments(1, ctx.seconds / 2)
    trace_dir = ctx.trace_dir("sweep")
    traced = segments(1, ctx.seconds / 2, trace_dir)
    check_reference(traced)
    agg_plain, agg_traced = summarize(plain), summarize(traced)
    windows = [w for r in agg_traced["reps"] for w in r["windows"]]
    metrics = ctx.layer_metrics(
        layers.load(trace_dir),
        windows=windows,
        main_pids=[traced[0]["pid"]],
        workers=ctx.workers,
    )
    metrics.update(
        {
            "engine.jobs": agg_traced["attempted"],
            "engine.retries": sum(r["retries"] for r in agg_traced["reps"]),
            "engine.failed": agg_traced["failed"],
            "cached_throughput_per_s": agg_plain["cached"],
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
