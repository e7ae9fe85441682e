"""Fleet sweep assembly: shard jobs, partial merging, final summary.

The fleet pipeline has three moves:

1. :func:`fleet_jobs` shards the population into batched ``JobSpec``s
   for the engine (runner ``fleet.shard``, deterministic JSON kwargs —
   so a re-run with a cache directory is 100% cache hits).
2. Workers run :func:`repro.fleet.shard.run_shard_job` and return
   fixed-size reducer partials.
3. :func:`merge_partials` folds adjacent partials associatively in the
   parent — :class:`~repro.obs.reducers.PairwiseSum` merges reproduce
   the serial accumulator bit for bit — and
   :func:`finalize_summary` renders the merged reducers into the JSON
   summary the CLI / gauges / report consume.

:func:`artifact_fleet` is the registered ``fleet`` artifact: the same
pipeline run serially in-process, so ``repro run fleet`` (and the
serve API) work like any other artifact, and a sharded-parallel
``repro sweep fleet --ues N`` is bit-identical to it by construction.
"""

from __future__ import annotations

import math
from typing import IO, Any, Dict, List, Mapping, Optional, Sequence

from repro.engine.progress import ProgressTracker
from repro.engine.spec import JobSpec
from repro.fleet.shard import GROUPS, run_shard_job
from repro.fleet.spec import DEFAULT_KEY, FleetSpec
from repro.obs.reducers import FixedHistogram, QuantileSketch, StreamMoments

#: Default UEs per shard when the caller does not pin a shard count.
DEFAULT_SHARD_UES = 4096

#: Percentile levels reported per metric group (matches the paper's
#: Fig. 13 pinned decile levels, see ``repro.obs.calib``).
SUMMARY_LEVELS = (5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0)


def shard_bounds(ues: int, shards: int) -> List[tuple]:
    """Even, contiguous ``[start, stop)`` shard bounds over the fleet."""
    if ues < 1:
        raise ValueError("ues must be >= 1")
    shards = max(1, min(int(shards), ues))
    edges = [round(i * ues / shards) for i in range(shards + 1)]
    return [
        (edges[i], edges[i + 1])
        for i in range(shards)
        if edges[i + 1] > edges[i]
    ]


def fleet_jobs(spec: FleetSpec, shards: Optional[int] = None) -> List[JobSpec]:
    """Batched shard ``JobSpec``s for one fleet sweep.

    Kwargs are plain JSON (the spec dict plus the shard bounds) and the
    per-job seed is ``None`` — the fleet key lives *inside* the spec —
    so the engine's cache key is a pure function of the sweep
    parameters and repeated sweeps hit the cache shard for shard.
    """
    if shards is None:
        shards = math.ceil(spec.ues / DEFAULT_SHARD_UES)
    spec_dict = spec.to_dict()
    return [
        JobSpec(
            runner="fleet.shard",
            kwargs={"spec": spec_dict, "start": start, "stop": stop},
            index=i,
            label=f"fleet.shard[{start}:{stop}]",
        )
        for i, (start, stop) in enumerate(shard_bounds(spec.ues, shards))
    ]


def merge_partials(partials: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Fold shard partials into one merged reducer set.

    Partials may arrive in any order (workers finish when they finish);
    they are sorted by ``start`` and must tile ``[0, ues)`` contiguously
    — a gap or overlap means the sweep lost or duplicated a shard and
    raises rather than silently mis-summarizing.
    """
    if not partials:
        raise ValueError("no shard partials to merge")
    ordered = sorted(partials, key=lambda p: int(p["start"]))
    expected = 0
    for partial in ordered:
        if int(partial["start"]) != expected:
            raise ValueError(
                f"shard partials are not contiguous: expected start "
                f"{expected}, got {partial['start']}"
            )
        expected = int(partial["stop"])

    first = ordered[0]
    groups: Dict[str, Dict[str, Any]] = {}
    for name in GROUPS:
        bundle = first["groups"][name]
        groups[name] = {
            "moments": StreamMoments.from_state(bundle["moments"]),
            "sketch": QuantileSketch.from_state(bundle["sketch"]),
        }
        if "hist" in bundle:
            groups[name]["hist"] = FixedHistogram.from_state(bundle["hist"])
    counts = {
        axis: dict(tally) for axis, tally in first["counts"].items()
    }
    for partial in ordered[1:]:
        for name, group in groups.items():
            bundle = partial["groups"][name]
            group["moments"].merge(StreamMoments.from_state(bundle["moments"]))
            group["sketch"].merge(QuantileSketch.from_state(bundle["sketch"]))
            if "hist" in group:
                group["hist"].merge(FixedHistogram.from_state(bundle["hist"]))
        for axis, tally in partial["counts"].items():
            for key, value in tally.items():
                counts[axis][key] = counts[axis].get(key, 0) + int(value)
    return {
        "ues": expected,
        "shards": len(ordered),
        "ticks": int(first["ticks"]),
        "groups": groups,
        "counts": counts,
    }


def finalize_summary(
    spec: FleetSpec, merged: Mapping[str, Any]
) -> Dict[str, Any]:
    """Render merged reducers into the fleet summary (plain JSON)."""
    if int(merged["ues"]) != spec.ues:
        raise ValueError(
            f"merged partials cover {merged['ues']} UEs, spec says {spec.ues}"
        )
    groups_out: Dict[str, Any] = {}
    for name, group in merged["groups"].items():
        stats = group["moments"].summary()
        sketch = group["sketch"]
        quantiles = {
            f"{level:g}": sketch.quantile(level) for level in SUMMARY_LEVELS
        }
        entry: Dict[str, Any] = {**stats, "quantiles": quantiles}
        if "hist" in group:
            entry["hist"] = group["hist"].to_state()
        groups_out[name] = entry
    return {
        "fleet": {
            "ues": spec.ues,
            "ticks": spec.ticks,
            "dt_s": spec.dt_s,
            "duration_s": spec.duration_s,
            "key": spec.key,
            "device": spec.device,
            "city_extent_m": spec.city_extent_m,
            "shards": int(merged["shards"]),
        },
        "counts": merged["counts"],
        "groups": groups_out,
    }


#: Metric groups included in mid-sweep ``reducer_snapshot`` events.
#: A subset of :data:`repro.fleet.shard.GROUPS` keeps each event a few
#: hundred bytes even on million-UE sweeps.
SNAPSHOT_GROUPS = ("rsrp_all", "dl_all", "power_mw")

#: Percentiles carried per group in a snapshot event.
SNAPSHOT_LEVELS = (("p5", 5.0), ("p50", 50.0), ("p95", 95.0))


class FleetSnapshotTracker(ProgressTracker):
    """Progress tracker that narrates converging fleet quantiles.

    As each shard partial settles (completion order — workers finish
    when they finish), its quantile sketches are merged into a running
    partial-fleet view and a ``reducer_snapshot`` event is emitted
    into ``events``, the tracker's own sink (pass the sweep's ledger;
    ``execute`` writes the sweep's brackets there itself, and the
    tracker writes nothing else). Sketch merges are commutative
    bucket-count additions, so the out-of-order incremental merge is
    exact: every snapshot shows the true quantiles of exactly the UEs
    covered so far, and ``repro watch`` renders them tightening toward
    the final summary mid-sweep.

    Only the sketches are merged here — :class:`StreamMoments` rides
    on :class:`~repro.obs.reducers.PairwiseSum`, whose bit-identical
    merge is deliberately order-sensitive, and the final summary still
    goes through :func:`merge_partials` on the index-ordered outcomes.
    """

    def __init__(
        self,
        shards_total: int,
        stream: Optional[IO[str]] = None,
        events: Optional[Any] = None,
    ) -> None:
        super().__init__(stream=stream)
        self.shards_total = int(shards_total)
        self.events = events
        self.shards_done = 0
        self.ues_covered = 0
        self._sketches: Dict[str, QuantileSketch] = {}

    def update(self, outcome: Any) -> None:
        super().update(outcome)
        value = getattr(outcome, "value", None)
        if outcome.status not in ("ok", "cached"):
            return
        if not isinstance(value, Mapping) or "groups" not in value:
            return
        self.shards_done += 1
        self.ues_covered += int(value.get("stop", 0)) - int(
            value.get("start", 0)
        )
        for name in SNAPSHOT_GROUPS:
            bundle = value["groups"].get(name)
            if not bundle or "sketch" not in bundle:
                continue
            sketch = QuantileSketch.from_state(bundle["sketch"])
            if name in self._sketches:
                self._sketches[name].merge(sketch)
            else:
                self._sketches[name] = sketch
        if self.events is not None:
            self.events.emit("reducer_snapshot", **self.snapshot_fields())

    def snapshot_fields(self) -> Dict[str, Any]:
        """The ``reducer_snapshot`` payload for the current coverage."""
        groups: Dict[str, Dict[str, Any]] = {}
        for name, sketch in self._sketches.items():
            entry: Dict[str, Any] = {"count": sketch.count}
            for label, level in SNAPSHOT_LEVELS:
                quantile = sketch.quantile(level)
                if quantile is not None:
                    entry[label] = round(float(quantile), 4)
            groups[name] = entry
        return {
            "shards_done": self.shards_done,
            "shards_total": self.shards_total,
            "ues": self.ues_covered,
            "groups": groups,
        }


def run_fleet(spec: FleetSpec, shards: Optional[int] = None) -> Dict[str, Any]:
    """Serial in-process fleet sweep: shard, reduce, merge, summarize."""
    partials = [
        run_shard_job(spec.to_dict(), start, stop)
        for start, stop in shard_bounds(
            spec.ues,
            shards
            if shards is not None
            else math.ceil(spec.ues / DEFAULT_SHARD_UES),
        )
    ]
    return finalize_summary(spec, merge_partials(partials))


def artifact_fleet(
    scale: float = 1.0,
    seed: Optional[int] = None,
    ues: Optional[int] = None,
    duration_s: float = 120.0,
    city_extent_m: float = 4000.0,
    device: str = "S20U",
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """The ``fleet`` artifact: a city-scale fleet sweep summary.

    ``scale`` multiplies the default population (2 000 UEs at scale 1);
    an explicit ``ues`` wins. ``seed`` overrides the fleet key.
    """
    from repro.engine.registry import _scaled

    spec = FleetSpec(
        ues=int(ues) if ues is not None else _scaled(2000, scale, minimum=50),
        key=int(seed) if seed is not None else DEFAULT_KEY,
        duration_s=duration_s,
        city_extent_m=city_extent_m,
        device=device,
    )
    return run_fleet(spec, shards=shards)


__all__ = [
    "DEFAULT_SHARD_UES",
    "FleetSnapshotTracker",
    "SNAPSHOT_GROUPS",
    "SNAPSHOT_LEVELS",
    "SUMMARY_LEVELS",
    "artifact_fleet",
    "finalize_summary",
    "fleet_jobs",
    "merge_partials",
    "run_fleet",
    "shard_bounds",
]
