"""Per-UE scenario attributes and geometry, pure in ``(key, ue index)``.

Every attribute a fleet UE has — carrier network, mobility pattern,
app workload, home position, walking phase, heading, per-UE tower
placement jitter — comes from the counter-based generator in
:mod:`repro.kernels.ctrrng` indexed by the UE's *absolute* population
index. A shard covering UEs ``[start, stop)`` therefore regenerates
exactly the attributes it needs, independent of shard boundaries,
worker count, or execution order.

Geometry follows the paper's two settings:

* **Walkers** re-create the Fig. 13 measurement: each walks the
  ~1.6 km loop (:func:`repro.mobility.routes.walking_loop`) at 1.4 m/s
  with a random phase offset, served by three towers placed evenly
  along the loop by :func:`repro.radio.towers.route_arc_points` (the
  rule ``TowerGrid.along_route`` uses for the single-UE artifact) with
  per-UE Gaussian placement jitter (40 m).
* **Drivers and stationary UEs** live on a square city of
  ``city_extent_m`` per side with per-band uniform tower grids
  (mmWave towers every 300 m, low/mid-band and LTE every 2 km);
  drivers move at 10 m/s on a straight heading, wrapping at the city
  edge (torus), stationary UEs sit at their home position.

Serving distance is nearest-in-coverage with the band's coverage
radius as the out-of-coverage fallback — the same contract as
:meth:`repro.radio.towers.TowerGrid.serving_distances`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.fleet.spec import APP_KINDS, MOBILITY_KINDS, FleetSpec
from repro.kernels.ctrrng import normals, uniforms
from repro.mobility.routes import walking_loop
from repro.power.device import DeviceProfile, get_device
from repro.radio.bands import Band
from repro.radio.carriers import NETWORKS, CarrierNetwork
from repro.radio.towers import TowerGrid, route_arc_points

# ctrrng stream ids (uniform streams stay below 2**32; see ctrrng).
STREAM_NETWORK = 1
STREAM_MOBILITY = 2
STREAM_APP = 3
STREAM_HOME_X = 4
STREAM_HOME_Y = 5
STREAM_PHASE = 6
STREAM_HEADING = 7
STREAM_BLOCK = 8
STREAM_SEVERITY = 9
STREAM_WEB = 10
# Normal streams (namespaced separately inside ctrrng.normals).
STREAM_TOWER_JITTER = 11
STREAM_FADING = 12

# Canonical kind indices (positions in MOBILITY_KINDS / APP_KINDS).
MOB_WALK, MOB_DRIVE, MOB_STATIONARY = 0, 1, 2
APP_SPEEDTEST, APP_VIDEO, APP_WEB = 0, 1, 2

DRIVE_SPEED_MPS = 10.0
#: Walking-loop tower layout, mirroring the Fig. 13 artifact.
WALK_TOWER_COUNT = 3
WALK_TOWER_JITTER_M = 40.0
#: City tower grids: dense mmWave small cells, sparse macro cells.
MMWAVE_TOWER_SPACING_M = 300.0
MACRO_TOWER_SPACING_M = 2000.0
#: Simple app workload shapes (see kernels.py).
VIDEO_DL_MBPS = 24.0
WEB_DUTY_CYCLE = 0.2


def _pick(mix, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF assignment: mix position index for each uniform."""
    cumulative = np.cumsum([weight for _, weight in mix])
    return np.minimum(
        np.searchsorted(cumulative, u, side="right"), len(mix) - 1
    ).astype(np.int64)


class FleetScenario:
    """Precomputed, shard-independent tables for one :class:`FleetSpec`.

    Construction validates the spec against the device catalogue (the
    device must have a power curve for every network in the mix) and
    hoists everything reused across tiles: the walking route, the
    walk-tower base positions, and per-band city tower grids.
    """

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec
        self.network_keys = [key for key, _ in spec.network_mix]
        self.networks = [NETWORKS[key] for key in self.network_keys]
        self.device: DeviceProfile = get_device(spec.device)
        missing = [
            key for key in self.network_keys if key not in self.device.curves
        ]
        if missing:
            raise ValueError(
                f"device {spec.device!r} has no power curve for "
                f"network(s) {missing}"
            )
        self.route = walking_loop()
        self.loop_duration_s = self.route.duration_s
        self.walk_tower_base = route_arc_points(
            self.route.waypoints, WALK_TOWER_COUNT
        )
        # Position in the mix -> canonical kind index, so kernels can
        # test `mob == MOB_WALK` regardless of mix ordering.
        self._mob_kind = np.array(
            [MOBILITY_KINDS.index(name) for name, _ in spec.mobility_mix],
            dtype=np.int64,
        )
        self._app_kind = np.array(
            [APP_KINDS.index(name) for name, _ in spec.app_mix],
            dtype=np.int64,
        )
        self._city_grids: Dict[Band, TowerGrid] = {}

    # -- per-UE attributes -------------------------------------------------

    def assignments(self, ue: np.ndarray) -> Dict[str, np.ndarray]:
        """``{"network", "mobility", "app"}`` index arrays for the UEs.

        ``network`` indexes :attr:`networks` (mix order); ``mobility``
        and ``app`` are canonical kind indices (``MOB_*`` / ``APP_*``).
        """
        ue = np.asarray(ue, dtype=np.int64)
        spec = self.spec
        network = _pick(
            spec.network_mix, uniforms(spec.key, STREAM_NETWORK, ue, 0)
        )
        mobility = self._mob_kind[
            _pick(spec.mobility_mix, uniforms(spec.key, STREAM_MOBILITY, ue, 0))
        ]
        app = self._app_kind[
            _pick(spec.app_mix, uniforms(spec.key, STREAM_APP, ue, 0))
        ]
        return {"network": network, "mobility": mobility, "app": app}

    def is_mmwave_network(self, network_idx: np.ndarray) -> np.ndarray:
        flags = np.array([net.is_mmwave for net in self.networks])
        return flags[network_idx]

    # -- trajectories ------------------------------------------------------

    def positions(
        self,
        ue: np.ndarray,
        mobility: np.ndarray,
        out: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(x, y, speed)`` matrices of shape ``(len(ue), ticks)``.

        Walkers move in loop coordinates (their serving towers are
        placed in the same frame, so an absolute home offset would
        cancel out of every distance); drivers and stationary UEs live
        in city coordinates ``[0, city_extent_m)^2``. ``out`` takes
        three such matrices to fill in place of fresh ones.
        """
        spec = self.spec
        ue = np.asarray(ue, dtype=np.int64)
        t_grid = np.arange(spec.ticks, dtype=float) * spec.dt_s
        if out is None:
            out = tuple(np.empty((ue.shape[0], spec.ticks)) for _ in range(3))
        x, y, speed = out

        walk = mobility == MOB_WALK
        if walk.any():
            phase = (
                uniforms(spec.key, STREAM_PHASE, ue[walk], 0)
                * self.loop_duration_s
            )
            times = np.add(t_grid[None, :], phase[:, None])
            # Walker times are never negative, so fmod equals remainder
            # here (and is faster); the drivers below keep `%`.
            np.fmod(times, self.loop_duration_s, out=times)
            x[walk], y[walk], speed[walk] = self.route.positions_at(times)

        home = ~walk
        if home.any():
            rows = ue[home]
            hx = uniforms(spec.key, STREAM_HOME_X, rows, 0) * spec.city_extent_m
            hy = uniforms(spec.key, STREAM_HOME_Y, rows, 0) * spec.city_extent_m
            x[home] = hx[:, None]
            y[home] = hy[:, None]
            speed[home] = 0.0
            drive = mobility[home] == MOB_DRIVE
            if drive.any():
                heading = (
                    uniforms(spec.key, STREAM_HEADING, rows[drive], 0)
                    * 2.0 * np.pi
                )
                step = DRIVE_SPEED_MPS * t_grid[None, :]
                drive_full = mobility == MOB_DRIVE
                x[drive_full] = (
                    hx[drive][:, None] + np.cos(heading)[:, None] * step
                ) % spec.city_extent_m
                y[drive_full] = (
                    hy[drive][:, None] + np.sin(heading)[:, None] * step
                ) % spec.city_extent_m
                speed[drive_full] = DRIVE_SPEED_MPS
        return x, y, speed

    # -- serving distances -------------------------------------------------

    def city_grid(self, band: Band) -> TowerGrid:
        grid = self._city_grids.get(band)
        if grid is None:
            spacing = (
                MMWAVE_TOWER_SPACING_M
                if band.is_mmwave
                else MACRO_TOWER_SPACING_M
            )
            grid = TowerGrid.uniform_grid(
                band,
                extent_m=self.spec.city_extent_m,
                spacing_m=min(spacing, self.spec.city_extent_m),
                prefix="city",
            )
            self._city_grids[band] = grid
        return grid

    def _walker_distances(
        self, ue: np.ndarray, x: np.ndarray, y: np.ndarray, band: Band
    ) -> np.ndarray:
        """Nearest-in-coverage distance to the UE's three loop towers.

        A running minimum over the towers, then the coverage radius
        as the cap: a UE whose nearest tower is out of coverage falls
        back to exactly ``coverage_m``.
        """
        spec = self.spec
        jitter = normals(
            spec.key,
            STREAM_TOWER_JITTER,
            np.asarray(ue, dtype=np.int64)[:, None],
            np.arange(2 * WALK_TOWER_COUNT)[None, :],
        ).reshape(-1, WALK_TOWER_COUNT, 2) * WALK_TOWER_JITTER_M
        towers = self.walk_tower_base[None, :, :] + jitter  # (U, 3, 2)
        dx = x - towers[:, 0, 0][:, None]
        dy = y - towers[:, 0, 1][:, None]
        best = np.hypot(dx, dy)
        for k in range(1, WALK_TOWER_COUNT):
            np.subtract(x, towers[:, k, 0][:, None], out=dx)
            np.subtract(y, towers[:, k, 1][:, None], out=dy)
            np.minimum(best, np.hypot(dx, dy, out=dx), out=best)
        return np.minimum(best, band.coverage_km * 1000.0, out=best)

    def serving_distances(
        self,
        ue: np.ndarray,
        mobility: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        band: Band,
    ) -> np.ndarray:
        """Serving-tower distance matrix for rows sharing one band."""
        out = np.empty(x.shape, dtype=float)
        walk = mobility == MOB_WALK
        if walk.any():
            out[walk] = self._walker_distances(ue[walk], x[walk], y[walk], band)
        other = ~walk
        if other.any():
            coverage_m = band.coverage_km * 1000.0
            out[other] = self.city_grid(band).serving_distances(
                x[other], y[other], band, default_m=coverage_m
            )
        return out


__all__ = [
    "FleetScenario",
    "APP_SPEEDTEST",
    "APP_VIDEO",
    "APP_WEB",
    "MOB_WALK",
    "MOB_DRIVE",
    "MOB_STATIONARY",
    "DRIVE_SPEED_MPS",
    "VIDEO_DL_MBPS",
    "WEB_DUTY_CYCLE",
    "STREAM_NETWORK",
    "STREAM_MOBILITY",
    "STREAM_APP",
    "STREAM_HOME_X",
    "STREAM_HOME_Y",
    "STREAM_PHASE",
    "STREAM_HEADING",
    "STREAM_BLOCK",
    "STREAM_SEVERITY",
    "STREAM_WEB",
    "STREAM_TOWER_JITTER",
    "STREAM_FADING",
]
