"""Page-load-time and energy model for 4G vs mmWave 5G (section 6).

The PLT model captures the mechanics that drive Fig. 19/20:

* connection setup (DNS + TCP + TLS) costs ~2.5 RTTs;
* the object dependency graph forces a chain of request rounds
  (roughly logarithmic in object count under HTTP/2 multiplexing,
  deeper when many objects are dynamically generated — their URLs are
  only discovered after scripts execute);
* body transfer runs at the radio's browsing-effective rate, with TCP
  ramp-up shortchanging short flows (most pages never reach mmWave's
  multi-Gbps capacity, which is why the 5G PLT advantage grows with
  page size);
* client-side compute (parse/layout/script) depends on object count
  and dynamic share, identical across radios.

Energy prices the resulting HAR throughput timeline with the device
power curves: 5G finishes sooner but holds a radio whose *idle
intercept alone* exceeds 4G's fully-loaded draw — the section 6
trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.power.device import DeviceProfile, get_device
from repro.web.catalog import Website
from repro.web.har import HarRecord

# Browsing-effective radio profiles: (bandwidth Mbps, RTT ms). The
# mmWave bandwidth is capped by short-flow dynamics well below the
# iPerf-style peak; 4G is the paper's LTE baseline.
_RADIO_PROFILES = {
    "5G": {"bandwidth_mbps": 1100.0, "rtt_ms": 20.0, "power_key": "verizon-nsa-mmwave"},
    "4G": {"bandwidth_mbps": 25.0, "rtt_ms": 50.0, "power_key": "verizon-lte"},
}

_SETUP_RTTS = 2.5
_MSS_BYTES = 1460.0
_INITIAL_WINDOW_SEGMENTS = 10.0
# Client compute per object, ms (parse/decode/layout).
_COMPUTE_PER_OBJECT_MS = 6.0
# Extra compute multiplier for dynamic objects (script execution).
_DYNAMIC_COMPUTE_FACTOR = 3.5
# Server generation time per dependency round (identical across radios).
_SERVER_THINK_MS = 100.0


def _transfer_ms(size_bytes: float, bandwidth_mbps: float, rtt_ms: float) -> float:
    """Slow-start-aware transfer time for one flow of ``size_bytes``."""
    if size_bytes <= 0:
        return 0.0
    # Rounds of window doubling until the flow is done or reaches the
    # bandwidth-delay ceiling.
    window = _INITIAL_WINDOW_SEGMENTS * _MSS_BYTES
    bdp_bytes = bandwidth_mbps * 1e6 / 8.0 * rtt_ms / 1000.0
    remaining = size_bytes
    elapsed = 0.0
    while remaining > 0:
        sendable = min(window, bdp_bytes)
        sent = min(remaining, sendable)
        if window >= bdp_bytes:
            # Pipe is full: stream the rest at line rate.
            elapsed += remaining * 8.0 / (bandwidth_mbps * 1e6) * 1000.0
            break
        elapsed += rtt_ms
        remaining -= sent
        window *= 2.0
    return elapsed


@dataclass
class PageLoadResult:
    """One page load's QoE outcome."""

    website: Website
    radio: str
    plt_s: float
    energy_j: float
    har: HarRecord


@dataclass
class Browser:
    """Loads catalog pages over a chosen radio and prices the energy.

    Attributes:
        device: UE whose power curves price the load (PX5 in the paper;
            any profile with curves for both networks works).
        jitter: multiplicative PLT noise std-dev (run-to-run variation;
            the paper loads each page >= 8 times per radio).
        seed: RNG seed.
    """

    device: Optional[DeviceProfile] = None
    jitter: float = 0.06
    seed: Optional[int] = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.device is None:
            self.device = get_device("S10")
        self._rng = np.random.default_rng(self.seed)

    def load(self, website: Website, radio: str) -> PageLoadResult:
        """Load one page over ``radio`` ("4G" or "5G")."""
        try:
            profile = _RADIO_PROFILES[radio]
        except KeyError:
            raise ValueError(f"unknown radio {radio!r}; use '4G' or '5G'") from None
        bandwidth = profile["bandwidth_mbps"]
        rtt = profile["rtt_ms"]

        setup_ms = _SETUP_RTTS * rtt

        # Dependency rounds: HTML first, then log2-ish waves of
        # discovery; dynamic objects add script-gated rounds.
        static_rounds = max(1, int(np.ceil(np.log2(website.n_objects + 1))))
        dynamic_rounds = int(np.ceil(website.dynamic_ratio * 4.0))
        rounds = static_rounds + dynamic_rounds

        avg_object = website.avg_object_bytes
        objects_per_round = max(1, website.n_objects // rounds)
        t_ms = setup_ms
        remaining = website.n_objects
        dynamic_left = website.n_dynamic
        fetched = []  # per round: (start, per-object ms, objects, dynamic)
        for round_index in range(rounds):
            in_round = min(objects_per_round, remaining)
            if round_index == rounds - 1:
                in_round = remaining
            if in_round <= 0:
                break
            # Parallel fetch within the round shares the bandwidth.
            round_bytes = in_round * avg_object
            transfer = _transfer_ms(round_bytes, bandwidth, rtt)
            n_dynamic_in_round = min(dynamic_left, in_round)
            compute = in_round * _COMPUTE_PER_OBJECT_MS + (
                n_dynamic_in_round
                * _COMPUTE_PER_OBJECT_MS
                * (_DYNAMIC_COMPUTE_FACTOR - 1.0)
            )
            round_duration = rtt + _SERVER_THINK_MS + transfer + compute
            fetched.append(
                (t_ms, round_duration / in_round, in_round, n_dynamic_in_round)
            )
            dynamic_left -= n_dynamic_in_round
            remaining -= in_round
            t_ms += round_duration

        # A round's k-th object starts k quarter object-times after the
        # round, and its first n_dynamic_in_round objects are dynamic.
        starts, per_object, sizes, n_dynamic = (np.array(c) for c in zip(*fetched))
        k = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        per_object = np.repeat(per_object, sizes)
        har = HarRecord.from_columns(
            website.name,
            radio,
            sizes.tolist(),
            start_ms=np.repeat(starts, sizes) + k * per_object * 0.25,
            duration_ms=per_object,
            size_bytes=np.full(k.size, int(avg_object)),
            dynamic=k < np.repeat(n_dynamic, sizes),
        )
        noise = float(min(max(self._rng.normal(1.0, self.jitter), 0.7), 1.4))
        plt_s = har.on_load_ms / 1000.0 * noise
        energy = self._energy_j(har, profile["power_key"], plt_s)
        return PageLoadResult(
            website=website, radio=radio, plt_s=plt_s, energy_j=energy, har=har
        )

    def _energy_j(self, har: HarRecord, power_key: str, plt_s: float) -> float:
        """Price the HAR throughput timeline with the radio power curve."""
        curve = self.device.curve(power_key)
        timeline = har.throughput_timeline_mbps(dt_s=0.5)
        if not timeline:
            return 0.0
        # mW * s, summed left to right as a running total.
        power_mw = curve.power_mw_series(np.minimum(timeline, 2000.0), 0.0)
        energy_mj = float(np.cumsum(power_mw * 0.5)[-1])
        # Scale to the jittered PLT so energy and PLT stay consistent.
        nominal_s = len(timeline) * 0.5
        return energy_mj / 1000.0 * (plt_s / max(nominal_s, 1e-9))

    def load_both(self, website: Website) -> "tuple[PageLoadResult, PageLoadResult]":
        """(4G result, 5G result) for one page."""
        return self.load(website, "4G"), self.load(website, "5G")
