"""UE-major 2D-batched radio / app / power kernels for fleet shards.

Each function takes a *group* of UEs that share one carrier network and
produces a ``(UEs, ticks)`` matrix in a handful of array operations —
no Python loop over UEs. All randomness is counter-based
(:mod:`repro.kernels.ctrrng`) in the UE's absolute index — so a group's
rows compute the same bits no matter how the population is sharded or
which other UEs happen to share the batch.

RSRP is :func:`repro.radio.signal.rsrp_from_draws`, the same pipeline
``RsrpProcess.simulate`` runs; this module only supplies its draws from
the ``STREAM_BLOCK``, ``STREAM_SEVERITY`` and ``STREAM_FADING`` streams.
That pipeline's stages run along the tick axis, each row bit-identical
to its 1-D form.
"""

from __future__ import annotations

import numpy as np

from repro.fleet.scenario import (
    APP_SPEEDTEST,
    APP_VIDEO,
    APP_WEB,
    STREAM_BLOCK,
    STREAM_FADING,
    STREAM_SEVERITY,
    STREAM_WEB,
    VIDEO_DL_MBPS,
    WEB_DUTY_CYCLE,
    FleetScenario,
)
from repro.fleet.spec import FleetSpec
from repro.kernels.ctrrng import normals, uniforms
from repro.radio.carriers import CarrierNetwork
from repro.radio.link import LinkBudget, Modem
from repro.radio.signal import rsrp_from_draws


def rsrp_matrix(
    spec: FleetSpec,
    ue: np.ndarray,
    network: CarrierNetwork,
    distances_m: np.ndarray,
    speeds_mps: np.ndarray,
) -> np.ndarray:
    """RSRP (dBm) for a same-network UE group: shape ``(len(ue), ticks)``.

    ``distances_m`` and ``speeds_mps`` are aligned ``(UEs, ticks)``
    matrices. Every UE starts unblocked with zero fading. Severity
    draws are made for every tick; the pipeline reads those at
    blockage onsets.
    """
    rows = np.asarray(ue, dtype=np.int64)[:, None]
    cols = np.arange(distances_m.shape[1], dtype=np.int64)[None, :]
    rsrp, _ = rsrp_from_draws(
        network.band,
        distances_m,
        speeds_mps,
        spec.dt_s,
        block_uniforms=lambda: uniforms(spec.key, STREAM_BLOCK, rows, cols),
        severities=lambda onsets: uniforms(
            spec.key, STREAM_SEVERITY, rows, cols
        ),
        fading_normals=lambda: normals(spec.key, STREAM_FADING, rows, cols),
    )
    return rsrp


def downlink_matrix(
    spec: FleetSpec,
    ue: np.ndarray,
    network: CarrierNetwork,
    modem: Modem,
    rsrp_dbm: np.ndarray,
    app: np.ndarray,
) -> np.ndarray:
    """Per-tick downlink throughput (Mbps) under each UE's app workload.

    * ``speedtest`` saturates the link: the full achievable capacity.
    * ``video`` streams at min(capacity, 24 Mbps) — a 4K-grade ABR
      ceiling, throttled by the radio when capacity dips below it.
    * ``web`` is bursty: full capacity during fetches, idle otherwise,
      with a 20% duty cycle drawn per tick.
    """
    ue = np.asarray(ue, dtype=np.int64)
    capacity = LinkBudget(network, modem).capacity_series_mbps(rsrp_dbm)
    dl = np.empty_like(capacity)
    speedtest = app == APP_SPEEDTEST
    if speedtest.any():
        dl[speedtest] = capacity[speedtest]
    video = app == APP_VIDEO
    if video.any():
        dl[video] = np.minimum(capacity[video], VIDEO_DL_MBPS)
    web = app == APP_WEB
    if web.any():
        cols = np.arange(rsrp_dbm.shape[1], dtype=np.int64)[None, :]
        active = (
            uniforms(spec.key, STREAM_WEB, ue[web][:, None], cols)
            < WEB_DUTY_CYCLE
        )
        dl[web] = capacity[web] * active
    return dl


def power_matrix(
    scenario: FleetScenario,
    network: CarrierNetwork,
    dl_mbps: np.ndarray,
    rsrp_dbm: np.ndarray,
) -> np.ndarray:
    """Radio power (mW) from the device's per-network curve.

    Fleet workloads are downlink-dominated; uplink is modeled as idle
    (the curve's DL intercept covers the connected radio baseline).
    """
    curve = scenario.device.curve(network.key)
    return curve.power_mw_series(dl_mbps, 0.0, rsrp_dbm)


__all__ = ["rsrp_matrix", "downlink_matrix", "power_matrix"]
