"""Tests for repro.radio.towers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.bands import LTE_1900, NR_N5, NR_N71, NR_N261
from repro.radio.towers import Tower, TowerGrid


class TestTower:
    def test_distance(self):
        tower = Tower("t0", 0.0, 0.0, NR_N261)
        assert tower.distance_to(3.0, 4.0) == pytest.approx(5.0)

    def test_coverage_from_band(self):
        tower = Tower("t0", 0.0, 0.0, NR_N261)
        assert tower.coverage_m == pytest.approx(350.0)


class TestTowerGrid:
    def test_serving_tower_is_nearest(self):
        grid = TowerGrid()
        grid.add(Tower("a", 0.0, 0.0, NR_N261))
        grid.add(Tower("b", 200.0, 0.0, NR_N261))
        serving = grid.serving_tower(150.0, 0.0, NR_N261)
        assert serving is not None
        assert serving[0].tower_id == "b"
        assert serving[1] == pytest.approx(50.0)

    def test_out_of_coverage_returns_none(self):
        grid = TowerGrid()
        grid.add(Tower("a", 0.0, 0.0, NR_N261))
        assert grid.serving_tower(5000.0, 0.0, NR_N261) is None

    def test_band_filtering(self):
        grid = TowerGrid()
        grid.add(Tower("mm", 0.0, 0.0, NR_N261))
        grid.add(Tower("lb", 10.0, 0.0, NR_N71))
        serving = grid.serving_tower(0.0, 0.0, NR_N71)
        assert serving[0].tower_id == "lb"

    def test_duplicate_id_rejected(self):
        grid = TowerGrid()
        grid.add(Tower("a", 0.0, 0.0, NR_N261))
        with pytest.raises(ValueError):
            grid.add(Tower("a", 1.0, 1.0, NR_N261))

    def test_uniform_grid_count(self):
        grid = TowerGrid.uniform_grid(LTE_1900, extent_m=2000.0, spacing_m=1000.0)
        assert len(grid.towers) == 4

    def test_uniform_grid_covers_center(self):
        grid = TowerGrid.uniform_grid(NR_N71, extent_m=4000.0, spacing_m=2000.0)
        assert grid.serving_tower(2000.0, 2000.0, NR_N71) is not None

    def test_along_route_count_and_spread(self):
        waypoints = [(0.0, 0.0), (10000.0, 0.0)]
        grid = TowerGrid.along_route(NR_N71, waypoints, count=5, seed=1)
        xs = sorted(t.x_m for t in grid.towers)
        assert len(xs) == 5
        # Roughly even spread along the line.
        assert xs[0] < 2000.0 and xs[-1] > 8000.0

    def test_along_route_invalid_inputs(self):
        with pytest.raises(ValueError):
            TowerGrid.along_route(NR_N71, [(0, 0)], count=2)
        with pytest.raises(ValueError):
            TowerGrid.along_route(NR_N71, [(0, 0), (1, 1)], count=0)


class TestCityScaleGrid:
    """Scale-exposed fixes: id-set membership + chunked distances."""

    def test_constructor_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            TowerGrid(
                towers=[
                    Tower("a", 0.0, 0.0, NR_N261),
                    Tower("a", 1.0, 1.0, NR_N261),
                ]
            )

    def test_add_after_constructed_towers_sees_them(self):
        grid = TowerGrid(towers=[Tower("a", 0.0, 0.0, NR_N261)])
        with pytest.raises(ValueError):
            grid.add(Tower("a", 5.0, 5.0, NR_N261))
        grid.add(Tower("b", 5.0, 5.0, NR_N261))
        assert len(grid.towers) == 2

    def test_large_grid_builds(self):
        import time

        start = time.perf_counter()
        grid = TowerGrid.uniform_grid(
            NR_N261, extent_m=12000.0, spacing_m=300.0
        )
        elapsed = time.perf_counter() - start
        assert len(grid.towers) == 1600
        # The old per-add list scan was quadratic; the set build of a
        # city-scale grid must stay well under a second.
        assert elapsed < 1.0

    def test_chunked_serving_distances_bit_identical(self, monkeypatch):
        # (band, extent, spacing, takes the index): the default fleet
        # city's n261 grid takes the index and its 4-tower macro grid
        # scores every tower directly. _CHUNK_ELEMS must bound the
        # scratch block on both paths.
        cases = [
            (NR_N71, 8000.0, 1000.0, True),
            (NR_N261, 4000.0, 300.0, True),
            (NR_N71, 4000.0, 2000.0, False),
        ]
        rng = np.random.default_rng(7)
        runs = []
        for band, extent_m, spacing_m, indexed in cases:
            grid = TowerGrid.uniform_grid(band, extent_m, spacing_m)
            x = rng.uniform(-500.0, extent_m + 500.0, 5000)
            y = rng.uniform(-500.0, extent_m + 500.0, 5000)
            one_chunk = grid.serving_distances(x, y, band, default_m=123.0)
            # Which evaluation path the grid takes (private: the index).
            assert (grid._index[band].cand_x is not None) is indexed
            runs.append((grid, band, x, y, one_chunk))

        blocks = []
        hypot = np.hypot

        def spy(a, b):
            out = hypot(a, b)
            blocks.append(out.size)
            return out

        monkeypatch.setattr(TowerGrid, "_CHUNK_ELEMS", 257)
        monkeypatch.setattr(np, "hypot", spy)
        for grid, band, x, y, one_chunk in runs:
            blocks.clear()
            many_chunks = grid.serving_distances(x, y, band, default_m=123.0)
            assert np.array_equal(one_chunk, many_chunks)
            assert len(blocks) > 10
            assert max(blocks) <= 257

    def test_serving_distances_preserves_input_shape(self):
        grid = TowerGrid.uniform_grid(NR_N71, extent_m=4000.0, spacing_m=2000.0)
        x = np.linspace(0.0, 4000.0, 24).reshape(2, 3, 4)
        y = np.linspace(4000.0, 0.0, 24).reshape(2, 3, 4)
        out = grid.serving_distances(x, y, NR_N71, default_m=50.0)
        assert out.shape == (2, 3, 4)
        flat = grid.serving_distances(x.ravel(), y.ravel(), NR_N71, 50.0)
        assert np.array_equal(out.ravel(), flat)

    def test_serving_distances_matches_pointwise(self):
        grid = TowerGrid.uniform_grid(NR_N71, extent_m=4000.0, spacing_m=2000.0)
        rng = np.random.default_rng(11)
        x = rng.uniform(-6000.0, 6000.0, 200)
        y = rng.uniform(-6000.0, 6000.0, 200)
        batch = grid.serving_distances(x, y, NR_N71, default_m=777.0)
        for i in range(x.size):
            serving = grid.serving_tower(float(x[i]), float(y[i]), NR_N71)
            expected = 777.0 if serving is None else serving[1]
            assert batch[i] == expected


def _pointwise(grid, x, y, band, default_m):
    """``serving_distances`` computed point by point via serving_tower."""
    out = []
    for xi, yi in zip(x, y):
        serving = grid.serving_tower(float(xi), float(yi), band)
        out.append(default_m if serving is None else serving[1])
    return np.array(out)


_COORD = st.floats(-5000.0, 5000.0, allow_nan=False)
_OFFSET = st.sampled_from([0.0, 0.1, -7.0e3, 3.3e5, -2.5e6])


@st.composite
def _layouts(draw):
    """``(grid, band, x, y)``: a tower layout plus adversarial samples."""
    kind = draw(
        st.sampled_from(["scattered", "route", "lattice", "bands", "single"])
    )
    band = draw(st.sampled_from([NR_N261, NR_N71, LTE_1900]))
    ox, oy = draw(_OFFSET), draw(_OFFSET)
    grid = TowerGrid()
    if kind in ("scattered", "bands"):
        for i in range(draw(st.integers(2, 40))):
            grid.add(Tower(f"s{i}", ox + draw(_COORD), oy + draw(_COORD), band))
    elif kind == "route":
        waypoints = draw(
            st.lists(st.tuples(_COORD, _COORD), min_size=2, max_size=5)
        )
        grid = TowerGrid.along_route(
            band,
            [(ox + wx, oy + wy) for wx, wy in waypoints],
            count=draw(st.integers(2, 30)),
            jitter_m=draw(st.sampled_from([0.0, 40.0, 400.0])),
            seed=draw(st.integers(0, 2**16)),
        )
    elif kind == "lattice":
        spacing = draw(st.sampled_from([100.0, 250.0, 300.0, 437.5, 2000.0]))
        cells = draw(st.integers(2, 9))
        lattice = TowerGrid.uniform_grid(band, cells * spacing, spacing)
        for tower in lattice.towers:
            grid.add(Tower(tower.tower_id, ox + tower.x_m, oy + tower.y_m, band))
    else:
        grid.add(Tower("only", ox + draw(_COORD), oy + draw(_COORD), band))
    if kind == "bands":
        # Another band's towers must not leak into this band's answers.
        other = NR_N5 if band is not NR_N5 else NR_N261
        for i in range(draw(st.integers(1, 20))):
            grid.add(Tower(f"o{i}", ox + draw(_COORD), oy + draw(_COORD), other))

    towers = grid.towers_for_band(band)
    tx = np.array([t.x_m for t in towers])
    ty = np.array([t.y_m for t in towers])
    cov = band.coverage_km * 1000.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 60
    pick = rng.integers(0, len(towers), n)
    xs = [
        rng.uniform(tx.min() - cov, tx.max() + cov, n),
        # exactly at the coverage radius, on both axes
        tx[pick] + cov,
        tx[pick] - cov,
        tx[pick],
        # far outside the towers' bounding box
        tx.mean() + rng.choice([-1.0, 1.0], n) * rng.uniform(2, 1e4, n) * cov,
    ]
    ys = [
        rng.uniform(ty.min() - cov, ty.max() + cov, n),
        ty[pick],
        ty[pick],
        ty[pick] + cov,
        ty.mean() + rng.uniform(-2e4, 2e4, n) * cov,
    ]
    # Exact Voronoi ties: midpoints of tower pairs and centres of
    # tower triples (lattice edges and vertices among them).
    other = rng.integers(0, len(towers), n)
    xs.append((tx[pick] + tx[other]) / 2.0)
    ys.append((ty[pick] + ty[other]) / 2.0)
    if kind == "lattice":
        xs.append(tx[pick] + spacing / 2.0)
        ys.append(ty[pick] + spacing / 2.0)
    # Non-finite positions: NaN propagates, infinity is out of reach.
    nan, inf = float("nan"), float("inf")
    xs.append(np.array([nan, inf, -inf, nan, inf, tx[0], tx[0]]))
    ys.append(np.array([ty[0], ty[0], ty[0], inf, -inf, nan, inf]))
    return grid, band, np.concatenate(xs), np.concatenate(ys)


class TestServingIndex:
    """``serving_distances`` answers through a per-band serving-cell
    index; it must stay bit-identical to ``serving_tower``."""

    @settings(max_examples=120, deadline=None)
    @given(_layouts())
    def test_matches_serving_tower_bit_for_bit(self, layout):
        grid, band, x, y = layout
        batch = grid.serving_distances(x, y, band, default_m=-1.0)
        expected = _pointwise(grid, x, y, band, -1.0)
        assert np.array_equal(batch, expected, equal_nan=True)

    def test_clustered_towers_keep_the_table_small(self):
        # 200 towers 4 m apart with 350 m coverage: cells of half their
        # spacing would cut the reach into ~2.6e5 cells.
        grid = TowerGrid.along_route(NR_N261, [(0.0, 0.0), (800.0, 0.0)], 200)
        rng = np.random.default_rng(2)
        x = rng.uniform(-400.0, 1200.0, 300)
        y = rng.uniform(-400.0, 400.0, 300)
        batch = grid.serving_distances(x, y, NR_N261, default_m=-1.0)
        assert np.array_equal(batch, _pointwise(grid, x, y, NR_N261, -1.0))
        index = grid._index[NR_N261]
        assert index.cand_x is not None
        assert index.nx * index.ny <= 16 * 200 + index.nx + index.ny + 1

    def test_add_after_query_is_seen(self):
        grid = TowerGrid.uniform_grid(NR_N261, 4000.0, 300.0)
        x = np.array([1000.0, 2000.0, 3000.0])
        y = np.array([1000.0, 2000.0, 3000.0])
        before = grid.serving_distances(x, y, NR_N261, default_m=350.0)
        assert before[1] > 0.0
        grid.add(Tower("nearer", 2000.0, 2000.0, NR_N261))
        after = grid.serving_distances(x, y, NR_N261, default_m=350.0)
        assert after[1] == 0.0
        assert np.array_equal(after, _pointwise(grid, x, y, NR_N261, 350.0))

    def test_same_shape_grids_each_answer_for_themselves(self):
        # Grids of one band and tower count but different positions,
        # each dropped before the next is built, so the new grid reuses
        # the old one's memory and id(): a cache keyed by object
        # identity would hand it a dead grid's index.
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 4000.0, 500)
        y = rng.uniform(0.0, 4000.0, 500)
        lattice = TowerGrid.uniform_grid(NR_N261, 4000.0, 300.0).towers
        layouts = [
            [Tower(t.tower_id, t.x_m + shift, t.y_m, NR_N261) for t in lattice]
            for shift in (0.0, 150.0, 75.0, 150.0, 0.0)
        ]
        grid = None
        for towers in layouts:
            grid = None  # the last reference: freed right here
            grid = TowerGrid(towers=towers)
            batch = grid.serving_distances(x, y, NR_N261, default_m=350.0)
            assert np.array_equal(
                batch, _pointwise(grid, x, y, NR_N261, 350.0)
            )
