"""One fleet shard: UEs ``[start, stop)`` folded into reducer partials.

``run_shard_job`` is the registered ``fleet.shard`` runner: it
simulates its UE range tile by tile (a tile is at most
:data:`TILE_UES` UEs, so peak memory is a few tens of MiB regardless
of shard size) and folds every sample straight into the streaming
reducers of :mod:`repro.obs.reducers`. The returned partial is plain
JSON — reducer states plus population counts — a few tens of KiB no
matter how many UEs the shard covered; per-UE series never leave the
worker.

Split invariance: the mean/variance reducers are
:class:`~repro.obs.reducers.PairwiseSum`-based, so each group's
accumulator is anchored at the group's *global* leaf origin — the
number of member samples contributed by UEs before ``start``, which is
itself a pure counter-based function of the spec (``member_leaves_
before``). Adjacent partials then merge into exactly the accumulator a
serial run would have built, bit for bit. Sketch/histogram/count
merges are integer additions and order-invariant outright.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

import numpy as np

from repro.fleet.kernels import downlink_matrix, power_matrix, rsrp_matrix
from repro.fleet.scenario import APP_SPEEDTEST, MOB_WALK, FleetScenario
from repro.fleet.spec import APP_KINDS, MOBILITY_KINDS, FleetSpec
from repro.obs.reducers import FixedHistogram, QuantileSketch, StreamMoments
from repro.obs.trace import span as trace_span
from repro.radio.signal import RSRP_MAX_DBM, RSRP_MIN_DBM

#: UEs simulated per tile. A shard allocates six (TILE_UES, ticks)
#: float64 tile buffers once (x, y, speed, rsrp, dl, power: ~23 MiB at
#: 240 ticks) and every tile writes into views of them; the tile's
#: temporaries add a few more tile-sized matrices at peak.
TILE_UES = 2048

#: Chunk size for the counter-based membership prefix scan.
_PREFIX_CHUNK = 1 << 18

PARTIAL_SCHEMA = 1

#: The fleet's reduced metric groups, each with the tile matrix it
#: reads (``rsrp``, ``dl`` or ``power``); group_member_masks picks its
#: UEs.
GROUPS: Dict[str, str] = {
    "rsrp_all": "rsrp",
    "dl_all": "dl",
    "power_mw": "power",
    "walk_mmwave_rsrp": "rsrp",
    "speedtest_mmwave_dl": "dl",
}

#: Fixed-bin histogram every group reading a matrix keeps, if any:
#: RSRP in dBm bins 0.5 dB wide.
HISTOGRAMS: Dict[str, Tuple[float, float, int]] = {
    "rsrp": (RSRP_MIN_DBM, RSRP_MAX_DBM, 160),
}


def group_member_masks(
    scenario: FleetScenario, attrs: Mapping[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Per-group membership over a batch of UEs (pure in attributes)."""
    mmwave = scenario.is_mmwave_network(attrs["network"])
    everyone = np.ones(attrs["network"].shape, dtype=bool)
    return {
        "rsrp_all": everyone,
        "dl_all": everyone,
        "power_mw": everyone,
        "walk_mmwave_rsrp": (attrs["mobility"] == MOB_WALK) & mmwave,
        "speedtest_mmwave_dl": (attrs["app"] == APP_SPEEDTEST) & mmwave,
    }


def member_leaves_before(
    scenario: FleetScenario, start: int
) -> Dict[str, int]:
    """Global leaf origin per group: member samples from UEs < start.

    Membership is a pure function of the UE index (counter-based
    attribute draws), so any shard can compute its own origins without
    seeing other shards' data. Chunked so the prefix scan for a late
    shard of a million-UE fleet stays memory-bounded.
    """
    ticks = scenario.spec.ticks
    counts = {name: 0 for name in GROUPS}
    for lo in range(0, start, _PREFIX_CHUNK):
        ue = np.arange(lo, min(lo + _PREFIX_CHUNK, start), dtype=np.int64)
        masks = group_member_masks(scenario, scenario.assignments(ue))
        for name, mask in masks.items():
            counts[name] += int(mask.sum()) * ticks
    return counts


def _new_accumulators(origins: Mapping[str, int]) -> Dict[str, Dict[str, Any]]:
    accs: Dict[str, Dict[str, Any]] = {}
    for name, source in GROUPS.items():
        accs[name] = {
            "moments": StreamMoments(origin=origins[name]),
            "sketch": QuantileSketch(),
        }
        if source in HISTOGRAMS:
            accs[name]["hist"] = FixedHistogram(*HISTOGRAMS[source])
    return accs


def run_shard_job(spec: Mapping[str, Any], start: int, stop: int) -> Dict[str, Any]:
    """Simulate UEs ``[start, stop)`` and return their reducer partial.

    ``spec`` is a :meth:`FleetSpec.to_dict` mapping (plain JSON so the
    job's cache key is deterministic). The returned partial carries one
    reducer-state bundle per metric group plus per-network /
    per-mobility / per-app UE counts.
    """
    fleet = FleetSpec.from_dict(spec)
    if not 0 <= start < stop <= fleet.ues:
        raise ValueError(
            f"shard [{start}, {stop}) out of range for {fleet.ues} UEs"
        )
    scenario = FleetScenario(fleet)
    ticks = fleet.ticks
    with trace_span("fleet.shard", start=int(start), stop=int(stop)):
        accs = _new_accumulators(member_leaves_before(scenario, start))
        tallies = {
            "network": {key: 0 for key in scenario.network_keys},
            "mobility": {name: 0 for name in MOBILITY_KINDS},
            "app": {name: 0 for name in APP_KINDS},
        }
        # x, y, speed, rsrp, dl, power: one set of tile buffers per
        # shard; a shorter last tile uses a prefix of each.
        buffers = np.empty((6, min(TILE_UES, stop - start), ticks))
        for lo in range(start, stop, TILE_UES):
            ue = np.arange(lo, min(lo + TILE_UES, stop), dtype=np.int64)
            _run_tile(scenario, ue, buffers[:, : ue.shape[0]], accs, tallies)
    return {
        "schema": PARTIAL_SCHEMA,
        "start": int(start),
        "stop": int(stop),
        "ticks": ticks,
        "counts": tallies,
        "groups": {
            name: {
                key: reducer.to_state() for key, reducer in group.items()
            }
            for name, group in accs.items()
        },
    }


def _run_tile(
    scenario: FleetScenario,
    ue: np.ndarray,
    buffers: np.ndarray,
    accs: Dict[str, Dict[str, Any]],
    tallies: Dict[str, Dict[str, int]],
) -> None:
    """Simulate one tile of UEs and fold it into the accumulators.

    ``buffers`` holds the tile's six ``(UEs, ticks)`` matrices (x, y,
    speed, rsrp, dl, power). The rsrp/downlink/power matrices are
    assembled network group by network group, then each is mapped to
    sketch keys (and RSRP to histogram bins) once, and every group
    reading it counts its member rows of those codes. Moments take the
    rows in ascending (UE, tick) order — the global leaf order every
    ``PairwiseSum`` origin is anchored to.
    """
    spec = scenario.spec
    attrs = scenario.assignments(ue)
    x, y, speed, rsrp, dl, power = buffers
    scenario.positions(ue, attrs["mobility"], out=(x, y, speed))

    for net_idx, network in enumerate(scenario.networks):
        rows = attrs["network"] == net_idx
        if not rows.any():
            continue
        distances = scenario.serving_distances(
            ue[rows], attrs["mobility"][rows], x[rows], y[rows], network.band
        )
        group_rsrp = rsrp_matrix(
            spec, ue[rows], network, distances, speed[rows]
        )
        group_dl = downlink_matrix(
            spec,
            ue[rows],
            network,
            scenario.device.modem,
            group_rsrp,
            attrs["app"][rows],
        )
        rsrp[rows] = group_rsrp
        dl[rows] = group_dl
        power[rows] = power_matrix(scenario, network, group_dl, group_rsrp)

    masks = group_member_masks(scenario, attrs)
    for source, matrix in (("rsrp", rsrp), ("dl", dl), ("power", power)):
        names = [name for name, read in GROUPS.items() if read == source]
        first = accs[names[0]]
        keys = first["sketch"].keys(matrix)
        bins = first["hist"].bins(matrix) if "hist" in first else None
        for name in names:
            group, mask = accs[name], masks[name]
            values, row_keys, row_bins = matrix, keys, bins
            if not mask.all():
                if not mask.any():
                    continue
                values, row_keys = matrix[mask], keys.rows(mask)
                row_bins = None if bins is None else bins[mask]
            group["moments"].add(values)
            group["sketch"].add_keys(row_keys)
            if row_bins is not None:
                group["hist"].add_bins(row_bins)

    for net_idx, key in enumerate(scenario.network_keys):
        tallies["network"][key] += int((attrs["network"] == net_idx).sum())
    for kind_idx, name in enumerate(MOBILITY_KINDS):
        tallies["mobility"][name] += int((attrs["mobility"] == kind_idx).sum())
    for kind_idx, name in enumerate(APP_KINDS):
        tallies["app"][name] += int((attrs["app"] == kind_idx).sum())


__all__ = [
    "GROUPS",
    "HISTOGRAMS",
    "PARTIAL_SCHEMA",
    "TILE_UES",
    "group_member_masks",
    "member_leaves_before",
    "run_shard_job",
]
