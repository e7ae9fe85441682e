"""Timing spans around the public functions of each layer of ``repro``.

The traced run calls :func:`install` before it drives a workload. Every
target in :data:`TARGETS` is replaced by a wrapper that opens a span
named after its layer: on its class for methods, and for functions in
the defining module and in every loaded module that imported the name.
The program itself carries no benchmark code.

Spans nest per thread. A span's *self* time is its duration minus the
durations of the spans opened directly inside it; a call into the same
layer as the innermost open span joins that span instead of opening a
new one, so recursion (``to_jsonable`` calls itself per element) is
timed once. A layer's *total* time adds only its outermost spans, so
``A -> B -> A`` is not counted twice.

Processes forked after :func:`install` (the engine's lease workers)
inherit the wrappers. Each starts with empty tables and writes them to
``<trace_dir>/spans-<pid>.json`` when it exits; the installing process
writes its own with :meth:`Tracer.dump`. :func:`load` reads them back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import threading
import time
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Layers whose outermost span intervals are kept, not only summed.
INTERVAL_LAYERS = ("engine.execute",)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _samples(args, kwargs, result) -> Dict[str, float]:
    # TowerGrid.serving_distances(self, x_series, y_series, ...)
    x = _arg(args, kwargs, 1, "x_series")
    return {"samples": float(getattr(x, "size", 0) or len(x))}


def _json_bytes(args, kwargs, result) -> Dict[str, float]:
    body = json.dumps(result, separators=(",", ":"), allow_nan=False)
    return {"bytes": float(len(body))}


def _cache_hit(args, kwargs, result) -> Dict[str, float]:
    return {"hits": float(bool(result[0]))}


def _file_bytes(args, kwargs, result) -> Dict[str, float]:
    try:
        return {"bytes": float(os.stat(result).st_size)}
    except OSError:
        return {}


def _shm_bytes(args, kwargs, result) -> Dict[str, float]:
    encoded, shipped = result
    if not shipped:
        return {}
    total = 0

    def walk(node: Any) -> None:
        nonlocal total
        if isinstance(node, dict):
            desc = node.get("__shm.ndarray__")
            if isinstance(desc, dict) and len(node) == 1:
                total += int(desc.get("nbytes", 0))
                return
            for item in node.values():
                walk(item)
        elif isinstance(node, (list, tuple)):
            for item in node:
                walk(item)

    walk(encoded)
    return {"bytes": float(total)}


def _evicted(args, kwargs, result) -> Dict[str, float]:
    return {"evicted": float(result.get("evicted", 0))}


#: (layer, "module:attribute.path", observer). An observer turns one
#: call's arguments and result into counter increments for its layer.
TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("fleet.scenario", "repro.fleet.scenario:FleetScenario.assignments", None),
    ("fleet.scenario", "repro.fleet.scenario:FleetScenario.positions", None),
    ("fleet.geometry", "repro.fleet.scenario:FleetScenario.serving_distances", None),
    ("radio.towers", "repro.radio.towers:TowerGrid.serving_distances", _samples),
    ("fleet.rsrp", "repro.fleet.kernels:rsrp_matrix", None),
    ("fleet.downlink", "repro.fleet.kernels:downlink_matrix", None),
    ("fleet.power", "repro.fleet.kernels:power_matrix", None),
    ("fleet.prefix", "repro.fleet.shard:member_leaves_before", None),
    ("fleet.shard", "repro.fleet.shard:run_shard_job", _json_bytes),
    ("obs.reducers", "repro.obs.reducers:StreamMoments.add", None),
    ("obs.reducers", "repro.obs.reducers:QuantileSketch.add", None),
    ("obs.reducers", "repro.obs.reducers:FixedHistogram.add", None),
    ("fleet.merge", "repro.fleet.sweep:merge_partials", None),
    ("fleet.merge", "repro.fleet.sweep:finalize_summary", None),
    ("engine.execute", "repro.engine.pool:execute", None),
    ("engine.runner", "repro.engine.registry:call", None),
    ("engine.cache.put", "repro.engine.cache:ResultCache.put", _file_bytes),
    ("engine.cache.get", "repro.engine.cache:ResultCache.get", _cache_hit),
    ("engine.shm", "repro.engine.shm:encode_arrays", _shm_bytes),
    ("export.encode", "repro.experiments.export:to_jsonable", None),
    ("export.decode", "repro.experiments.export:from_jsonable", None),
    ("obs.events.emit", "repro.obs.events:EventLog.emit", None),
    ("serve.cache.put", "repro.serve.store:BoundedResultCache.put", None),
    ("serve.cache.evict", "repro.serve.store:BoundedResultCache.enforce_budget", _evicted),
    ("serve.artifacts.put", "repro.serve.store:ArtifactStore.put_json", None),
    ("serve.journal", "repro.serve.jobs:JobStore.add", None),
    ("obs.calib", "repro.obs.calib:evaluate_gauges", None),
    ("obs.manifest", "repro.obs.manifest:build_manifest", None),
    ("obs.manifest", "repro.obs.manifest:write_manifest", None),
    ("obs.parse", "repro.obs.events:iter_events", None),
    ("obs.parse", "repro.obs.events:read_events", None),
    ("obs.parse", "repro.obs.watch:follow_events", None),
    ("obs.stats", "repro.obs.stats:aggregate_events", None),
    ("obs.stats", "repro.obs.stats:render_stats", None),
    ("obs.history", "repro.obs.history:record_from_ledger", None),
    ("obs.report", "repro.obs.report:write_report", None),
    ("obs.report", "repro.obs.report:build_report", None),
    ("obs.report", "repro.obs.report:render_html", None),
    ("obs.watch", "repro.obs.watch:WatchView.feed", None),
    ("obs.watch", "repro.obs.watch:WatchView.render", None),
)

#: The layer whose spans are split per runner name (first argument).
RUNNER_LAYER = "engine.runner"


class _ThreadTables:
    """One thread's open spans and its share of the process tables."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.depth: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.top: List[Tuple[float, float]] = []
        self.intervals: Dict[str, List[Tuple[float, float]]] = {}
        self.runner_s: Dict[str, float] = {}
        self.runner_starts: List[float] = []


class Tracer:
    """Per-process span tables; see the module docstring."""

    def __init__(self, trace_dir: Optional[str] = None, clock=time.monotonic):
        self.trace_dir = trace_dir
        self.clock = clock
        self._fresh()

    def _fresh(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadTables] = []
        self.pid = os.getpid()

    def _tables(self) -> _ThreadTables:
        tables = getattr(self._local, "tables", None)
        if tables is None:
            tables = self._local.tables = _ThreadTables()
            with self._lock:
                self._threads.append(tables)
        return tables

    # -- spans -----------------------------------------------------------
    def enter(self, layer: str) -> Optional[list]:
        """Open a span; ``None`` when it joins the innermost open span."""
        tables = self._tables()
        stack = tables.stack
        if stack and stack[-1][0] == layer:
            return None
        frame = [layer, self.clock(), 0.0]
        stack.append(frame)
        tables.depth[layer] = tables.depth.get(layer, 0) + 1
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame`` (the innermost open span); returns its duration."""
        end = self.clock()
        tables = self._tables()
        stack = tables.stack
        stack.pop()
        layer, start, child = frame
        duration = end - start
        tables.self_s[layer] = tables.self_s.get(layer, 0.0) + duration - child
        tables.calls[layer] = tables.calls.get(layer, 0) + 1
        depth = tables.depth[layer] - 1
        tables.depth[layer] = depth
        if depth == 0:
            tables.total_s[layer] = tables.total_s.get(layer, 0.0) + duration
            if layer in INTERVAL_LAYERS:
                tables.intervals.setdefault(layer, []).append((start, end))
        if stack:
            stack[-1][2] += duration
        else:
            tables.top.append((start, end))
        return duration

    def count(self, layer: str, increments: Dict[str, float]) -> None:
        counters = self._tables().counters
        for key, value in increments.items():
            name = f"{layer}.{key}"
            counters[name] = counters.get(name, 0.0) + value

    def runner_span(self, name: str, start: float, duration: float) -> None:
        tables = self._tables()
        tables.runner_s[name] = tables.runner_s.get(name, 0.0) + duration
        tables.runner_starts.append(start)

    # -- export ----------------------------------------------------------
    def tables(self) -> Dict[str, Any]:
        """This process's tables, summed over its threads."""
        out: Dict[str, Any] = {
            "pid": self.pid,
            "self_s": {},
            "total_s": {},
            "calls": {},
            "counters": {},
            "runner_s": {},
            "top": [],
            "intervals": {},
            "runner_starts": [],
        }
        with self._lock:
            threads = list(self._threads)
        for tables in threads:
            for key in ("self_s", "total_s", "calls", "counters", "runner_s"):
                merged = out[key]
                for name, value in getattr(tables, key).items():
                    merged[name] = merged.get(name, 0) + value
            out["top"].extend(tables.top)
            out["runner_starts"].extend(tables.runner_starts)
            for layer, spans in tables.intervals.items():
                out["intervals"].setdefault(layer, []).extend(spans)
        return out

    def dump(self, path: Optional[str] = None) -> Optional[str]:
        if path is None:
            if self.trace_dir is None:
                return None
            path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.json")
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.tables(), handle)
        os.replace(tmp, path)
        return path

    def _after_fork(self) -> None:
        # The child owns none of the parent's spans: start empty, and
        # write the tables when the process exits through
        # multiprocessing's normal shutdown.
        self._fresh()
        mp_util.Finalize(None, self.dump, exitpriority=100)


def _resolve(target: str) -> Tuple[Any, str, Any]:
    module_name, path = target.split(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def _wrap(tracer: Tracer, layer: str, fn: Callable, observe) -> Callable:
    if inspect.isgeneratorfunction(fn):
        def generator_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        tracer.exit(frame)
                try:
                    yield item
                except GeneratorExit:
                    inner.close()
                    raise

        generator_wrapper.__wrapped__ = fn
        return generator_wrapper

    split = layer == RUNNER_LAYER

    def wrapper(*args, **kwargs):
        frame = tracer.enter(layer)
        if frame is None:
            return fn(*args, **kwargs)
        start = frame[1]
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.exit(frame)
            if split:
                tracer.runner_span(
                    str(_arg(args, kwargs, 0, "name")), start, duration
                )
        if observe is not None:
            tracer.count(layer, observe(args, kwargs, result))
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


_INSTALLED: List[Tracer] = []


def install(trace_dir: Optional[str] = None) -> Tracer:
    """Wrap every target once per process and return the tracer."""
    if _INSTALLED:
        return _INSTALLED[0]
    tracer = Tracer(trace_dir)
    replaced: Dict[int, Callable] = {}
    for layer, target, observe in TARGETS:
        owner, name, original = _resolve(target)
        wrapped = _wrap(tracer, layer, original, observe)
        setattr(owner, name, wrapped)
        replaced[id(original)] = (original, wrapped)
    # Modules that imported a function by name hold the original.
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not str(getattr(module, "__name__", "")).startswith(
            "repro"
        ):
            continue
        for key, value in list(namespace.items()):
            pair = replaced.get(id(value))
            if pair is not None and pair[0] is value:
                namespace[key] = pair[1]
    mp_util.register_after_fork(tracer, Tracer._after_fork)
    _INSTALLED.append(tracer)
    return tracer


def load(trace_dir: str) -> List[Dict[str, Any]]:
    """Every process's tables written under ``trace_dir``."""
    out = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as handle:
                out.append(json.load(handle))
    return out


def union_s(
    intervals: Iterable[Tuple[float, float]],
    windows: Iterable[Tuple[float, float]],
) -> float:
    """Length of the union of ``intervals`` clipped to ``windows``."""
    total = 0.0
    spans = sorted(intervals)
    for lo, hi in windows:
        end = lo
        for start, stop in spans:
            if stop <= end or start >= hi:
                continue
            start = max(start, end)
            stop = min(stop, hi)
            if stop > start:
                total += stop - start
                end = stop
    return total


__all__ = ["TARGETS", "Tracer", "install", "load", "union_s"]
