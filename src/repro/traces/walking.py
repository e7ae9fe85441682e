"""Walking-trace generation: the section 4.4 in-the-wild campaign.

Per unique (carrier, mode, band) setting the paper collects 10 walking
traces on a fixed ~1.6 km loop: 10 Hz network logs (throughput, RSRP)
synchronised with power. The loop passes three mmWave towers while
low-band coverage is omnipresent. These traces feed Fig. 13/14 and
train the section 4.5 power models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.mobility.routes import Route, walking_loop
from repro.mobility.trajectory import Trajectory
from repro.power.device import DeviceProfile
from repro.radio.carriers import CarrierNetwork
from repro.radio.link import LinkBudget
from repro.radio.signal import RsrpProcess
from repro.radio.towers import TowerGrid
from repro.traces.schema import WalkingTrace

LOG_RATE_HZ = 10.0  # the paper's network logging rate


@dataclass
class WalkingTraceGenerator:
    """Generates synchronised 10 Hz walking traces for one setting.

    The workload is a saturating downlink transfer (the paper's data
    collection keeps the pipe full), so throughput tracks the link
    capacity at the instantaneous RSRP; power follows the device's
    ground-truth curve plus measurement residue.

    Attributes:
        network: carrier network under test.
        device: UE model.
        city: label only ("Minneapolis" / "Ann Arbor").
        route: walking route (defaults to the paper's loop).
        n_towers: towers along the loop (3 mmWave towers in the paper).
        seed: RNG seed.
    """

    network: CarrierNetwork
    device: DeviceProfile
    city: str = "Minneapolis"
    route: Optional[Route] = None
    n_towers: int = 3
    # Fraction of transfer bursts that run uplink (the paper sweeps
    # both directions in its controlled runs; UL slopes are several
    # times steeper, Table 8).
    uplink_fraction: float = 0.0
    seed: Optional[int] = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_towers < 1:
            raise ValueError("n_towers must be >= 1")
        if not 0.0 <= self.uplink_fraction <= 1.0:
            raise ValueError("uplink_fraction must be in [0, 1]")
        self.route = self.route or walking_loop()
        self._rng = np.random.default_rng(self.seed)

    def generate(self, name: str) -> WalkingTrace:
        """One walking trace at 10 Hz.

        The hot paths run as batch kernels: serving distances, the RSRP
        series (:meth:`RsrpProcess.simulate`), both directions' capacity
        series, and the power curve are each one array pass. Only the
        inherently sequential burst state machine remains a Python loop;
        it draws from the generator's RNG in the same per-step order as
        the pre-PR implementation, so the burst/pause structure is
        unchanged for a given seed.
        """
        trajectory = Trajectory.from_route(self.route, dt_s=1.0 / LOG_RATE_HZ)
        grid = TowerGrid.along_route(
            self.network.band,
            self.route.waypoints,
            count=self.n_towers,
            jitter_m=40.0,
            seed=int(self._rng.integers(0, 2**31)),
        )
        signal = RsrpProcess(
            self.network.band,
            dt_s=1.0 / LOG_RATE_HZ,
            seed=int(self._rng.integers(0, 2**31)),
        )
        link = LinkBudget(self.network, self.device.modem)
        curve = self.device.curve(self.network.key)

        n = len(trajectory)
        max_coverage = self.network.band.coverage_km * 1000.0
        distances = grid.serving_distances(
            trajectory.x_m, trajectory.y_m, self.network.band, max_coverage
        )
        rsrps = signal.simulate(distances, trajectory.speed_mps)
        cap_dl = link.capacity_series_mbps(rsrps, downlink=True).tolist()
        cap_ul = link.capacity_series_mbps(rsrps, downlink=False).tolist()

        dls = [0.0] * n
        uls = [0.0] * n
        noises = [0.0] * n
        # The workload alternates saturating and controlled-rate bursts
        # with idle pauses, mirroring the paper's mixed methodology
        # (in-the-wild walks plus controlled target-throughput runs).
        # This covers the full (throughput, RSRP) operating grid the
        # power model is later asked about — including 0 Mbps at good
        # signal and mid rates at strong signal.
        # normal(loc, scale) is loc + scale * standard_normal() and
        # uniform(a, b) is a + (b - a) * random() in NumPy's own C code.
        random = self._rng.random
        standard_normal = self._rng.standard_normal
        transfer_active = True
        uplink_burst = False
        target_mbps = float("inf")  # saturating burst
        for i in range(n):
            if transfer_active:
                if random() < 1.0 / 300.0:  # ~30 s mean bursts
                    transfer_active = False
                capacity = cap_ul[i] if uplink_burst else cap_dl[i]
                share = 0.8 + 0.08 * standard_normal()
                share = 0.3 if share < 0.3 else 1.0 if share > 1.0 else share
                rate = capacity * share
                if rate > target_mbps:
                    rate = target_mbps
                if uplink_burst:
                    uls[i] = rate
                else:
                    dls[i] = rate
            else:
                if random() < 1.0 / 50.0:  # ~5 s mean pauses
                    transfer_active = True
                    uplink_burst = random() < self.uplink_fraction
                    # Half the bursts saturate; half run at a controlled
                    # target spanning the network's rate range.
                    if random() < 0.5:
                        target_mbps = float("inf")
                    else:
                        peak = (
                            self.network.peak_ul_mbps
                            if uplink_burst
                            else self.network.peak_dl_mbps
                        )
                        target_mbps = 5.0 + (peak - 5.0) * random()
            noises[i] = 1.0 + 0.03 * standard_normal()  # residual noise
        dls, uls, noises = np.array(dls), np.array(uls), np.array(noises)
        powers = np.maximum(
            curve.power_mw_series(dls, uls, rsrps) * noises, 0.0
        )
        return WalkingTrace(
            name=name,
            network_key=self.network.key,
            device_name=self.device.name,
            city=self.city,
            times_s=trajectory.times_s.copy(),
            dl_mbps=dls,
            ul_mbps=uls,
            rsrp_dbm=rsrps,
            power_mw=powers,
            band_class=self.network.band.band_class.value,
        )

    def generate_many(self, count: int = 10, prefix: str = "walk") -> List[WalkingTrace]:
        """The paper's 10 traces per setting."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return [self.generate(f"{prefix}-{i:02d}") for i in range(count)]
