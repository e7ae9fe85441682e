"""Paths, child processes, percentiles and memory readings for the benchmark."""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Samples a reported percentile needs beyond it.
MIN_TAIL = 10


class ProgramMissing(RuntimeError):
    """The checkout holds no ``repro`` sources to benchmark."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def peak_rss_mib() -> float:
    """Peak RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mib() -> float:
    """Peak RSS of the largest child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def stop_process(proc: subprocess.Popen, grace_s: float) -> Optional[int]:
    """SIGTERM, wait ``grace_s``, then SIGKILL; always reaps the process."""
    if proc.poll() is None:
        try:
            proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            return proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
    return proc.wait()


def run_child(
    target: str, args: Dict[str, Any], workdir: Path, timeout_s: float
) -> Tuple[float, Dict[str, Any]]:
    """Run ``module:function(args)`` in a fresh interpreter.

    Returns the monotonic time just before launch and the dict the
    function returned. The child gets ``timeout_s`` and is killed after.
    """
    tag = f"{target.replace(':', '-')}-{time.monotonic_ns()}"
    args_path = workdir / f"{tag}.args.json"
    out_path = workdir / f"{tag}.out.json"
    args_path.write_text(json.dumps(dict(args, out=str(out_path))))
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), target, str(args_path)]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=str(workdir))
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        stop_process(proc, 5.0)
        raise RuntimeError(f"{target} exceeded {timeout_s:.0f}s") from None
    finally:
        if proc.poll() is None:
            stop_process(proc, 5.0)
    if code != 0:
        raise RuntimeError(f"{target} exited {code}")
    return launched, json.loads(out_path.read_text())


def tail_percentile(
    values: Sequence[float], q: float, min_tail: int = MIN_TAIL
) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than
    ``min_tail`` samples lie beyond it."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_tail:
        return None
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def overhead_frac(plain_rate: Optional[float], traced_rate: Optional[float]):
    """Tracing overhead: how much longer the same work takes traced."""
    if not plain_rate or not traced_rate:
        return None
    return plain_rate / traced_rate - 1.0
