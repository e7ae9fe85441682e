"""Benchmark entry point.

Usage (from the root of a checkout)::

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of :data:`WORKLOADS` against the ``repro`` sources
under ``src/``, checks its outputs, and prints one JSON object as the
last line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``; see :mod:`catalog`). Scratch files live in a fresh
directory under ``.repobench-tmp/`` that is removed at exit. Exits 2
without a result when the checkout has no ``repro`` sources.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import artifact_sweep
import catalog
import common
import fleet_city
import layers
import ledger_fold
import serve_open

WORKLOADS = {
    module.NAME: module
    for module in (fleet_city, artifact_sweep, serve_open, ledger_fold)
}


class Context:
    """What a workload's ``run`` needs: its arguments, a scratch
    directory, child processes, and the metric bookkeeping."""

    def __init__(self, seed: int, seconds: float, trace: bool, tmp: Path):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.tmp = tmp
        self.workers = common.nproc()

    def path(self, name: str) -> Path:
        path = self.tmp / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def trace_dir(self, name: str) -> str:
        return str(self.path(f"trace-{name}"))

    def child(
        self,
        target: str,
        args: Dict[str, Any],
        timeout_s: float,
        with_launch: bool = False,
    ):
        launched, out = common.run_child(
            target, args, self.path("children"), timeout_s
        )
        return (launched, out) if with_launch else out

    def segments(
        self,
        target: str,
        args: Dict[str, Any],
        count: int,
        budget_s: float,
        trace_dir: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Run ``count`` fresh-interpreter segments of ``budget_s`` each.

        Each segment reports the monotonic time it became ready; its
        set-up time is measured from just before its launch.
        """
        out = []
        for index in range(count):
            launched, seg = self.child(
                target,
                dict(
                    args,
                    index=index,
                    budget_s=budget_s,
                    trace_dir=trace_dir,
                    scratch=str(self.path(f"segment-{trace_dir is not None}-{index}")),
                ),
                timeout_s=budget_s + 120,
                with_launch=True,
            )
            seg["setup_s"] = seg["ready"] - launched
            out.append(seg)
        return out

    def layer_metrics(
        self,
        tables: Sequence[Dict[str, Any]],
        windows: Sequence[Tuple[float, float]],
        main_pids: Sequence[int],
        workers: int,
    ) -> Dict[str, float]:
        """Per-layer metrics computed from every process's span tables."""

        def total(key: str, name: str) -> float:
            return float(sum(t[key].get(name, 0.0) for t in tables))

        out: Dict[str, float] = {
            f"{layer}.busy_s": total("self_s", layer)
            for layer in catalog.SELF_TIME_LAYERS
        }
        gets = total("calls", "engine.cache.get")
        execute_wall = total("total_s", "engine.execute")
        runner_busy = total("total_s", "engine.runner")
        out.update(
            {
                "radio.towers.samples": total("counters", "radio.towers.samples"),
                "fleet.shard.self_s": total("self_s", "fleet.shard"),
                "fleet.partial.bytes": total("counters", "fleet.shard.bytes"),
                "engine.execute.wall_s": execute_wall,
                "engine.runner.busy_s": runner_busy,
                "engine.dispatch.idle_s": max(
                    0.0, workers * execute_wall - runner_busy
                ),
                "engine.spawn_s": spawn_s(tables),
                "engine.cache.put.bytes": total("counters", "engine.cache.put.bytes"),
                "engine.cache.hit_ratio": (
                    total("counters", "engine.cache.get.hits") / gets
                    if gets
                    else 0.0
                ),
                "engine.shm.bytes": total("counters", "engine.shm.bytes"),
                "obs.events.emit.count": total("calls", "obs.events.emit"),
                "serve.cache.evictions": total(
                    "counters", "serve.cache.evict.evicted"
                ),
            }
        )
        for name in catalog.RUNNERS:
            out[f"runner.{name}.busy_s"] = total("runner_s", name)
        main = [t for t in tables if t["pid"] in set(main_pids)]
        covered = layers.union_s(
            [tuple(span) for t in main for span in t["top"]], windows
        )
        out["unattributed_s"] = max(
            0.0, sum(hi - lo for lo, hi in windows) - covered
        )
        return out

    def result(
        self,
        problems: List[str],
        attempted: int,
        failed: int,
        metrics: Dict[str, Optional[float]],
    ) -> Dict[str, Any]:
        expected = catalog.names(self.trace)
        units = catalog.units(self.trace)
        out: Dict[str, Any] = {}
        for name in expected:
            value = metrics.get(name, 0.0)
            if value is None:
                problems.append(f"{name} could not be measured")
                value = 0.0
            out[name] = {"value": float(value), "unit": units[name]}
        unknown = sorted(set(metrics) - set(expected))
        if unknown:
            raise KeyError(f"metrics outside the catalogue: {unknown}")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "correct": not problems,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": out,
        }


def spawn_s(tables: Sequence[Dict[str, Any]]) -> float:
    """Median time from ``execute`` entry to its first runner call."""
    starts = sorted(s for t in tables for s in t["runner_starts"])
    gaps = []
    for t in tables:
        for lo, hi in t["intervals"].get("engine.execute", []):
            first = next((s for s in starts if lo <= s <= hi), None)
            if first is not None:
                gaps.append(first - lo)
    return common.median(gaps) if gaps else 0.0


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    try:
        common.require_program()
    except common.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scratch_root = common.ROOT / ".repobench-tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        ctx = Context(args.seed, args.seconds, bool(args.trace), tmp)
        result = WORKLOADS[args.workload].run(ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
