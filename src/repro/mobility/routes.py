"""Route definitions: the paper's walking loop and driving route.

Routes are planar polylines (meters) with a per-segment target speed.
Two factories mirror the measurement campaigns:

* :func:`walking_loop` — the fixed ~1.6 km, 20-minute loop used for
  power/RSRP walking traces (section 4.1), passing three mmWave towers.
* :func:`driving_route` — the 10 km handoff route through busy downtown
  blocks and a freeway stretch with speeds from 0 to 100 kph
  (section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.mobility.geo import path_length_m

KPH_TO_MPS = 1000.0 / 3600.0


@dataclass
class Route:
    """A polyline route with per-segment speeds.

    Attributes:
        name: route label.
        waypoints: planar (x, y) coordinates in meters.
        segment_speeds_mps: target speed on each segment
            (``len(waypoints) - 1`` entries).
    """

    name: str
    waypoints: List[Tuple[float, float]]
    segment_speeds_mps: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("a route needs at least two waypoints")
        n_segments = len(self.waypoints) - 1
        if not self.segment_speeds_mps:
            self.segment_speeds_mps = [1.4] * n_segments  # walking pace
        if len(self.segment_speeds_mps) != n_segments:
            raise ValueError(
                f"expected {n_segments} segment speeds, "
                f"got {len(self.segment_speeds_mps)}"
            )
        if any(s <= 0 for s in self.segment_speeds_mps):
            raise ValueError("segment speeds must be positive")

    @property
    def length_m(self) -> float:
        return path_length_m(self.waypoints)

    @property
    def duration_s(self) -> float:
        """Time to traverse the route at the segment speeds."""
        points = np.asarray(self.waypoints, dtype=float)
        lengths = np.hypot(*(np.diff(points, axis=0).T))
        return float(np.sum(lengths / np.asarray(self.segment_speeds_mps)))

    def _traversal_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(starts, ends, speeds, durations) over *positive-length*
        segments only.

        Duplicate consecutive waypoints produce zero-length segments
        whose duration is 0; keeping them in the lookup tables made
        ``position_at`` divide 0/0 (NaN positions) whenever ``t_s``
        landed exactly on the degenerate segment's boundary. They
        contribute nothing to the traversal, so both the scalar and
        the vectorized lookup skip them — from the same filtered
        arrays, keeping the two paths bit-identical.
        """
        points = np.asarray(self.waypoints, dtype=float)
        lengths = np.hypot(*(np.diff(points, axis=0).T))
        speeds = np.asarray(self.segment_speeds_mps, dtype=float)
        keep = lengths > 0.0
        starts = points[:-1][keep]
        ends = points[1:][keep]
        speeds = speeds[keep]
        durations = lengths[keep] / speeds
        return starts, ends, speeds, durations

    def position_at(self, t_s: float) -> Tuple[float, float, float]:
        """(x, y, speed) at time ``t_s``; clamps at the route end."""
        if t_s < 0:
            raise ValueError("t_s must be non-negative")
        starts, ends, speeds, durations = self._traversal_arrays()
        end_point = np.asarray(self.waypoints, dtype=float)[-1]
        elapsed = 0.0
        for i, duration in enumerate(durations):
            if t_s <= elapsed + duration:
                frac = (t_s - elapsed) / duration
                position = starts[i] + frac * (ends[i] - starts[i])
                return float(position[0]), float(position[1]), float(speeds[i])
            elapsed += duration
        return float(end_point[0]), float(end_point[1]), 0.0

    def positions_at(
        self, times_s
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`position_at` over a whole time grid.

        Returns aligned ``(x, y, speed)`` arrays, bit-identical to the
        scalar lookup at each grid point (same segment selection over
        the same zero-length-segment-free tables, including the clamp
        to the route end with speed 0). Each output is gathered from
        1-D per-segment tables, so the only temporaries are a few
        arrays shaped like ``times_s``.
        """
        times_s = np.asarray(times_s, dtype=float)
        if times_s.size and times_s.min() < 0:
            raise ValueError("t_s must be non-negative")
        starts, ends, speeds, durations = self._traversal_arrays()
        end_point = np.asarray(self.waypoints, dtype=float)[-1]
        if durations.shape[0] == 0:
            # Fully degenerate route (every waypoint identical): the
            # UE sits at the end point for all time.
            xs = np.full(times_s.shape, float(end_point[0]))
            ys = np.full(times_s.shape, float(end_point[1]))
            return xs, ys, np.zeros(times_s.shape)
        shape = times_s.shape
        times_s = times_s.reshape(-1)
        boundaries = np.cumsum(durations)
        elapsed = np.concatenate([[0.0], boundaries[:-1]])
        deltas = ends - starts
        # First segment whose end boundary is >= t (matching the scalar
        # path's `t <= elapsed + duration` test); == n_segments means
        # past the route end.
        seg = np.searchsorted(boundaries, times_s, side="left")
        past_end = seg >= durations.shape[0]
        np.minimum(seg, durations.shape[0] - 1, out=seg)
        frac = elapsed.take(seg)
        np.subtract(times_s, frac, out=frac)
        scratch = durations.take(seg)
        frac /= scratch
        xs = deltas[:, 0].take(seg)
        xs *= frac
        xs += starts[:, 0].take(seg, out=scratch, mode="clip")
        ys = deltas[:, 1].take(seg)
        ys *= frac
        ys += starts[:, 1].take(seg, out=scratch, mode="clip")
        out_speeds = speeds.take(seg)
        if past_end.any():
            xs[past_end] = end_point[0]
            ys[past_end] = end_point[1]
            out_speeds[past_end] = 0.0
        return xs.reshape(shape), ys.reshape(shape), out_speeds.reshape(shape)


def walking_loop(side_m: float = 400.0) -> Route:
    """The paper's fixed walking loop: a ~1.6 km rectangle at 1.4 m/s
    (roughly the 20-minute loop of section 4.1)."""
    waypoints = [
        (0.0, 0.0),
        (side_m, 0.0),
        (side_m, side_m),
        (0.0, side_m),
        (0.0, 0.0),
    ]
    return Route(name="walking-loop", waypoints=waypoints)


def driving_route(length_km: float = 10.0) -> Route:
    """The 10 km driving route of section 3.3.

    First ~40% winds through downtown at 0-40 kph (stop-and-go modeled
    as slow segments), the rest is freeway at up to 100 kph.
    """
    if length_km <= 0:
        raise ValueError("length_km must be positive")
    total_m = length_km * 1000.0
    downtown_m = 0.4 * total_m
    # Downtown: zig-zag blocks of 250 m.
    waypoints: List[Tuple[float, float]] = [(0.0, 0.0)]
    speeds: List[float] = []
    block = 250.0
    x, y = 0.0, 0.0
    covered = 0.0
    downtown_speeds_kph = [15.0, 30.0, 10.0, 40.0, 25.0, 5.0, 35.0, 20.0]
    i = 0
    while covered < downtown_m:
        if i % 2 == 0:
            x += block
        else:
            y += block
        waypoints.append((x, y))
        speeds.append(downtown_speeds_kph[i % len(downtown_speeds_kph)] * KPH_TO_MPS)
        covered += block
        i += 1
    # Freeway: long straight segments at 80-100 kph.
    freeway_m = total_m - covered
    n_freeway = 4
    segment = freeway_m / n_freeway
    freeway_speeds_kph = [80.0, 100.0, 95.0, 90.0]
    for j in range(n_freeway):
        x += segment
        waypoints.append((x, y))
        speeds.append(freeway_speeds_kph[j] * KPH_TO_MPS)
    return Route(name="driving-route", waypoints=waypoints, segment_speeds_mps=speeds)
