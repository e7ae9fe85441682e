"""The benchmark's metric catalogue, as ``BENCHMARK.json`` declares it.

Every workload prints every metric of its mode: the end-to-end ones
with ``--trace 0`` and the per-layer ones with ``--trace 1``. A layer
that a workload does not exercise reads 0 there. ``busy_s`` is a
layer's self time (its spans minus the spans opened inside them),
summed over every process of the run; ``wall_s`` and the ``runner.*``
times are totals, children included.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]

#: Layers whose self time is reported as ``<layer>.busy_s``.
SELF_TIME_LAYERS = (
    "fleet.scenario",
    "fleet.geometry",
    "radio.towers",
    "fleet.rsrp",
    "fleet.downlink",
    "fleet.power",
    "fleet.prefix",
    "obs.reducers",
    "fleet.merge",
    "engine.cache.put",
    "engine.cache.get",
    "export.encode",
    "export.decode",
    "obs.events.emit",
    "serve.cache.put",
    "serve.cache.evict",
    "serve.artifacts.put",
    "serve.journal",
    "obs.calib",
    "obs.manifest",
    "obs.parse",
    "obs.stats",
    "obs.history",
    "obs.report",
    "obs.watch",
)

#: The artifact_sweep mix, one ``runner.<name>.busy_s`` each.
RUNNERS = (
    "fig2",
    "table2",
    "fig8",
    "fig10",
    "table6",
    "fig19",
    "energy_abr",
    "live",
    "fig13",
)

FOLD_VIEWS = ("stats", "report", "watch", "history")

#: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"{layer}.busy_s", "s", "lower") for layer in SELF_TIME_LAYERS]
    + [
        ("radio.towers.samples", "count", "higher"),
        ("fleet.shard.self_s", "s", "lower"),
        ("fleet.partial.bytes", "bytes", "lower"),
        ("engine.execute.wall_s", "s", "lower"),
        ("engine.runner.busy_s", "s", "lower"),
        ("engine.dispatch.idle_s", "s", "lower"),
        ("engine.spawn_s", "s", "lower"),
        ("engine.jobs", "count", "higher"),
        ("engine.retries", "count", "lower"),
        ("engine.failed", "count", "lower"),
        ("engine.cache.put.bytes", "bytes", "lower"),
        ("engine.cache.hit_ratio", "ratio", "higher"),
        ("engine.shm.bytes", "bytes", "lower"),
        ("obs.events.emit.count", "count", "lower"),
    ]
    + [(f"runner.{name}.busy_s", "s", "lower") for name in RUNNERS]
    + [
        ("serve.submit_ms.p50", "ms", "lower"),
        ("serve.queue_wait_ms.p50", "ms", "lower"),
        ("serve.queue_wait_ms.p95", "ms", "lower"),
        ("serve.run_ms.p50", "ms", "lower"),
        ("serve.run_ms.p95", "ms", "lower"),
        ("serve.rejected", "count", "lower"),
        ("loadgen.late_ms.max", "ms", "lower"),
        ("serve.cache.evictions", "count", "lower"),
        ("serve.cache.hit_ratio", "ratio", "higher"),
    ]
    + [(f"obs.{view}.peak_rss_mib", "MiB", "lower") for view in FOLD_VIEWS]
    + [
        ("obs.events.skipped_lines", "count", "lower"),
        ("obs.fold.mismatches", "count", "lower"),
        # Figures of one or two workloads each. Every run prints every
        # metric of its mode, so these cannot be end-to-end metrics; the
        # traced run measures them in its untraced pass.
        ("latency_p50_ms", "ms", "lower"),
        ("latency_p95_ms", "ms", "lower"),
        ("cached_throughput_per_s", "1/s", "higher"),
        ("worker_peak_rss_mib", "MiB", "lower"),
        ("unattributed_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def names(trace: bool) -> List[str]:
    return [m[0] for m in (PER_LAYER if trace else END_TO_END)]


def units(trace: bool) -> Dict[str, str]:
    return {m[0]: m[1] for m in (PER_LAYER if trace else END_TO_END)}
