"""Tower layouts, coverage, and serving-cell selection.

The paper's walking loop contained three mmWave towers, each with three
directional panels, while low-band coverage was omnipresent (section
4.1). :class:`TowerGrid` models a deployment as a set of towers on a
plane with per-band coverage radii, and answers "which tower serves the
UE here, and at what distance" — the primitive behind handoff counting
(Fig. 9) and walking-trace RSRP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.radio.bands import Band


def route_arc_points(waypoints, count: int) -> np.ndarray:
    """``(count, 2)`` points evenly spaced along a polyline by arc
    length: point ``i`` sits at arc fraction ``(i + 0.5) / count``.

    The walking-loop tower placement, shared by
    :meth:`TowerGrid.along_route` and the fleet's walkers.
    """
    points = np.asarray(waypoints, dtype=float)
    seglens = np.hypot(*(np.diff(points, axis=0).T))
    cumulative = np.concatenate([[0.0], np.cumsum(seglens)])
    targets = cumulative[-1] * (np.arange(count) + 0.5) / count
    seg = np.minimum(
        np.searchsorted(cumulative, targets, side="right") - 1,
        len(seglens) - 1,
    )
    frac = (targets - cumulative[seg]) / np.maximum(seglens[seg], 1e-9)
    return points[seg] + frac[:, None] * (points[seg + 1] - points[seg])


@dataclass(frozen=True)
class Tower:
    """A cell tower at planar coordinates (meters), serving one band."""

    tower_id: str
    x_m: float
    y_m: float
    band: Band

    def distance_to(self, x_m: float, y_m: float) -> float:
        """Euclidean distance in meters to a UE position."""
        return float(np.hypot(self.x_m - x_m, self.y_m - y_m))

    @property
    def coverage_m(self) -> float:
        return self.band.coverage_km * 1000.0


#: Safety margin, relative to the layout's coordinate scale, by which
#: every index cell is widened before its candidates are chosen. Cell
#: lookup and ``hypot`` round at ~1e-16 of that scale; the margin is
#: seven orders larger, so rounding can never drop a tower that ties.
_CELL_MARGIN_REL = 1e-9


@dataclass(frozen=True)
class _BandIndex:
    """One band's towers as arrays, plus its serving-cell table.

    The towers' reach (their bounding box widened by the coverage
    radius) is cut into ``nx x ny`` square cells of ``side`` meters from
    ``(x0, y0)``. Column ``r`` of ``cand_x``/``cand_y`` lists the
    towers that can be the nearest in-coverage tower for some point of
    cell ``r``; a shorter list repeats its first tower, which leaves
    the minimum unchanged, and a cell no tower can serve lists tower 0,
    which is out of reach there. Samples outside the reach are clamped
    onto the edge cells: every tower is out of reach for them, so any
    candidate list yields the default. ``cand_x`` is None when pruning
    keeps every tower: the band is then scored against all towers.
    """

    tx: np.ndarray
    ty: np.ndarray
    coverage_m: float
    x0: float = 0.0
    y0: float = 0.0
    side: float = 1.0
    nx: int = 0
    ny: int = 0
    cand_x: Optional[np.ndarray] = None
    cand_y: Optional[np.ndarray] = None

    @property
    def width(self) -> int:
        """Towers scored per sample."""
        return len(self.tx) if self.cand_x is None else len(self.cand_x)

    def candidates(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(width, n)`` (or broadcastable) candidate coordinates."""
        if self.cand_x is None:
            return self.tx, self.ty
        # fmax/fmin (unlike clip) also map NaN onto a cell, so the
        # cast never sees a non-finite value.
        ix = np.fmin(np.fmax((x - self.x0) / self.side, 0.0), self.nx - 1)
        iy = np.fmin(np.fmax((y - self.y0) / self.side, 0.0), self.ny - 1)
        rows = iy.astype(np.intp) * self.nx + ix.astype(np.intp)
        return (
            np.take(self.cand_x, rows, axis=1),
            np.take(self.cand_y, rows, axis=1),
        )

    @classmethod
    def build(cls, towers: Sequence[Tower], chunk_elems: int) -> "_BandIndex":
        """Index one band's ``towers``.

        Each cell keeps only the towers that can be the nearest
        in-coverage tower somewhere in it. ``chunk_elems`` bounds the
        (cells x towers) scratch block.
        """
        tx = np.array([[t.x_m] for t in towers])
        ty = np.array([[t.y_m] for t in towers])
        coverage = towers[0].coverage_m
        direct = cls(tx=tx, ty=ty, coverage_m=coverage)
        n = len(towers)
        scale = max(np.abs(tx).max(), np.abs(ty).max()) + coverage
        if n == 1 or not np.isfinite(scale):
            return direct
        span_x = float(tx.max() - tx.min())
        span_y = float(ty.max() - ty.min())
        # The spacing s of a square lattice of n towers spanning the
        # bounding box, (span_x + s)(span_y + s) = n s^2: exact for
        # lattices and for rows of towers.
        b = span_x + span_y
        spacing = (b + np.sqrt(b * b + 4.0 * (n - 1) * span_x * span_y)) / (
            2.0 * (n - 1)
        )
        margin = _CELL_MARGIN_REL * scale
        reach = coverage + margin
        x0 = float(tx.min()) - reach
        y0 = float(ty.min()) - reach
        extent_x = span_x + 2.0 * reach
        extent_y = span_y + 2.0 * reach
        # Half the spacing keeps candidate lists short; the floor caps
        # the table at ~16 cells a tower when towers cluster far closer
        # together than their reach.
        side = max(0.5 * spacing, np.sqrt(extent_x * extent_y / (16.0 * n)))
        if not np.isfinite(side):
            return direct
        nx = int(np.ceil(extent_x / side))
        ny = int(np.ceil(extent_y / side))

        # Squared per-axis gaps from each widened cell to each tower,
        # nearest and farthest point; a cell's squared distances are
        # their sums, so one axis pass serves every row of cells.
        def gaps(origin, cells, coords):
            lo = origin + side * np.arange(cells)[:, None] - margin
            hi = lo + side + 2.0 * margin
            near = np.maximum(np.maximum(lo - coords, coords - hi), 0.0)
            far = np.maximum(np.abs(coords - lo), np.abs(coords - hi))
            return near * near, far * far  # (cells, n)

        near_x, far_x = gaps(x0, nx, tx[:, 0])
        near_y, far_y = gaps(y0, ny, ty[:, 0])
        block = max(1, chunk_elems // (nx * n))
        counts, kept = [], []
        for start in range(0, ny, block):
            stop = min(ny, start + block)
            # Every point of a cell lies within sqrt(bound) of some
            # tower, so a tower farther than that from the cell's
            # nearest point can never be the nearest tower there.
            bound = (far_x[None, :, :] + far_y[start:stop, None, :]).min(
                axis=2, keepdims=True
            )
            keep = (
                near_x[None, :, :] + near_y[start:stop, None, :]
                <= np.minimum(bound, coverage * coverage)
            ).reshape(-1, n)
            counts.append(keep.sum(axis=1))
            kept.append(np.nonzero(keep)[1])  # row-major: by cell
        counts = np.concatenate(counts)
        tower = np.concatenate(kept)
        width = max(1, int(counts.max()))
        if width == n:
            return direct
        first = np.cumsum(counts) - counts
        slot = np.minimum(np.arange(width), np.maximum(counts, 1)[:, None] - 1)
        pick = np.minimum(first[:, None] + slot, max(0, len(tower) - 1))
        table = np.where(counts[:, None] > 0, tower[pick], 0).T
        return cls(
            tx=tx,
            ty=ty,
            coverage_m=coverage,
            x0=x0,
            y0=y0,
            side=side,
            nx=nx,
            ny=ny,
            cand_x=np.ascontiguousarray(tx[table, 0]),
            cand_y=np.ascontiguousarray(ty[table, 0]),
        )


@dataclass
class TowerGrid:
    """A set of towers with nearest-in-coverage serving-cell selection."""

    towers: List[Tower] = field(default_factory=list)
    # Duplicate-id membership lives in a set so building a city-scale
    # grid is O(n), not the O(n^2) a per-add list scan made it.
    _ids: set = field(init=False, repr=False, default_factory=set)
    # Per-band serving-cell index, built on a band's first
    # serving_distances query; add() drops it.
    _index: Dict[Band, _BandIndex] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        for tower in self.towers:
            if tower.tower_id in self._ids:
                raise ValueError(f"duplicate tower id {tower.tower_id!r}")
            self._ids.add(tower.tower_id)

    def add(self, tower: Tower) -> None:
        if tower.tower_id in self._ids:
            raise ValueError(f"duplicate tower id {tower.tower_id!r}")
        self._ids.add(tower.tower_id)
        self.towers.append(tower)
        self._index.clear()

    def towers_for_band(self, band: Band) -> List[Tower]:
        return [tower for tower in self.towers if tower.band == band]

    def serving_tower(
        self, x_m: float, y_m: float, band: Band
    ) -> Optional[Tuple[Tower, float]]:
        """Closest in-coverage tower of ``band``; None if out of coverage.

        Returns ``(tower, distance_m)``.
        """
        best: Optional[Tuple[Tower, float]] = None
        for tower in self.towers_for_band(band):
            distance = tower.distance_to(x_m, y_m)
            if distance > tower.coverage_m:
                continue
            if best is None or distance < best[1]:
                best = (tower, distance)
        return best

    # Budget for the dense (towers scored x chunk) scratch block
    # evaluated per chunk of samples: 512 KiB of float64, small enough
    # to stay in cache (a 1<<20 block ran the indexed path ~1.4x
    # slower). Chunking bounds peak memory on city-scale grids x
    # million-sample trajectories without changing a single output bit
    # (each sample's min is computed from exactly the same per-tower
    # distances either way).
    _CHUNK_ELEMS = 1 << 16

    def serving_distances(
        self, x_series, y_series, band: Band, default_m: float
    ) -> np.ndarray:
        """Vectorized serving-tower *distance* along a whole trajectory.

        For each position, the distance to the closest in-coverage
        tower of ``band``, or ``default_m`` when no tower covers it —
        the same values :meth:`serving_tower` yields point by point
        (ties return the same distance either way). Accepts sample
        arrays of any shape (the output matches it); evaluation is
        chunked so peak scratch memory stays bounded by
        ``_CHUNK_ELEMS`` floats rather than ``n_towers * n_samples``.

        Each sample is scored only against its index cell's candidate
        towers. Those always include the winning tower, whose distance
        is the same ``hypot`` expression as in an all-tower scan, so
        the result is bit-identical to one.
        """
        x_series = np.asarray(x_series, dtype=float)
        y_series = np.asarray(y_series, dtype=float)
        index = self._index.get(band)
        if index is None:
            towers = self.towers_for_band(band)
            if not towers:
                return np.full(x_series.shape, float(default_m))
            index = _BandIndex.build(towers, self._CHUNK_ELEMS)
            self._index[band] = index
        shape = x_series.shape
        x_flat = x_series.reshape(-1)
        y_flat = y_series.reshape(-1)
        chunk = max(1, self._CHUNK_ELEMS // index.width)
        best = np.empty(x_flat.shape[0], dtype=float)
        for start in range(0, x_flat.shape[0], chunk):
            stop = start + chunk
            xs = x_flat[start:stop]
            ys = y_flat[start:stop]
            cx, cy = index.candidates(xs, ys)
            best[start:stop] = np.hypot(cx - xs, cy - ys).min(axis=0)
        # Coverage is one radius per band, so masking the minimum
        # equals masking every distance before taking it.
        best = np.where(best > index.coverage_m, np.inf, best)
        return np.where(
            np.isinf(best), float(default_m), best
        ).reshape(shape)

    @staticmethod
    def uniform_grid(
        band: Band,
        extent_m: float,
        spacing_m: float,
        prefix: str = "tower",
    ) -> "TowerGrid":
        """Square grid of towers covering ``[0, extent_m]^2``."""
        if extent_m <= 0 or spacing_m <= 0:
            raise ValueError("extent_m and spacing_m must be positive")
        grid = TowerGrid()
        index = 0
        positions = np.arange(spacing_m / 2.0, extent_m, spacing_m)
        for x in positions:
            for y in positions:
                grid.add(
                    Tower(
                        tower_id=f"{prefix}-{band.name}-{index}",
                        x_m=float(x),
                        y_m=float(y),
                        band=band,
                    )
                )
                index += 1
        return grid

    @staticmethod
    def along_route(
        band: Band,
        waypoints: Sequence[Tuple[float, float]],
        count: int,
        jitter_m: float = 0.0,
        seed: Optional[int] = None,
        prefix: str = "tower",
    ) -> "TowerGrid":
        """Place ``count`` towers evenly along a polyline route.

        Mirrors the paper's walking loop with its three mmWave towers.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if len(waypoints) < 2:
            raise ValueError("need at least two waypoints")
        positions = route_arc_points(waypoints, count)
        if jitter_m > 0:
            rng = np.random.default_rng(seed)
            positions = positions + rng.normal(0.0, jitter_m, size=(count, 2))
        grid = TowerGrid()
        for index, (x_m, y_m) in enumerate(positions):
            grid.add(
                Tower(
                    tower_id=f"{prefix}-{band.name}-{index}",
                    x_m=float(x_m),
                    y_m=float(y_m),
                    band=band,
                )
            )
        return grid
