"""Tests for repro.mobility.routes."""

import pytest

from repro.mobility.routes import Route, driving_route, walking_loop


class TestWalkingLoop:
    def test_length_matches_paper(self):
        # ~1.6 km loop (section 4.1).
        assert walking_loop().length_m == pytest.approx(1600.0)

    def test_duration_about_20_minutes(self):
        # 1.6 km at 1.4 m/s ~ 19 minutes.
        assert walking_loop().duration_s == pytest.approx(1143.0, rel=0.05)

    def test_closed_loop(self):
        loop = walking_loop()
        assert loop.waypoints[0] == loop.waypoints[-1]


class TestDrivingRoute:
    def test_length_10km(self):
        assert driving_route().length_m == pytest.approx(10000.0, rel=0.01)

    def test_speed_range_matches_paper(self):
        # 0 to 100 kph (section 3.3); our slowest segment is 5 kph.
        route = driving_route()
        speeds_kph = [s * 3.6 for s in route.segment_speeds_mps]
        assert min(speeds_kph) < 10.0
        assert max(speeds_kph) == pytest.approx(100.0)

    def test_freeway_faster_than_downtown(self):
        route = driving_route()
        downtown = route.segment_speeds_mps[: len(route.segment_speeds_mps) // 2]
        freeway = route.segment_speeds_mps[-4:]
        assert min(freeway) > max(downtown)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            driving_route(length_km=0.0)


class TestRoute:
    def test_position_at_start(self):
        route = Route("r", [(0.0, 0.0), (100.0, 0.0)], [10.0])
        x, y, speed = route.position_at(0.0)
        assert (x, y) == (0.0, 0.0)
        assert speed == 10.0

    def test_position_interpolates(self):
        route = Route("r", [(0.0, 0.0), (100.0, 0.0)], [10.0])
        x, _, _ = route.position_at(5.0)
        assert x == pytest.approx(50.0)

    def test_position_clamps_at_end(self):
        route = Route("r", [(0.0, 0.0), (100.0, 0.0)], [10.0])
        x, _, speed = route.position_at(1000.0)
        assert x == 100.0
        assert speed == 0.0

    def test_default_walking_speed(self):
        route = Route("r", [(0.0, 0.0), (14.0, 0.0)])
        assert route.duration_s == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Route("r", [(0.0, 0.0)])
        with pytest.raises(ValueError):
            Route("r", [(0, 0), (1, 1)], [1.0, 2.0])
        with pytest.raises(ValueError):
            Route("r", [(0, 0), (1, 1)], [-1.0])
        with pytest.raises(ValueError):
            Route("r", [(0, 0), (1, 1)], [1.0]).position_at(-1.0)


class TestZeroLengthSegments:
    """Duplicate consecutive waypoints must not poison the traversal.

    Zero-length segments have zero duration; before they were filtered
    out of the lookup tables, a time landing exactly on the degenerate
    boundary divided 0/0 and returned NaN positions.
    """

    def _route(self):
        return Route(
            "r",
            [(0.0, 0.0), (100.0, 0.0), (100.0, 0.0), (100.0, 100.0)],
            [10.0, 5.0, 10.0],
        )

    def test_boundary_time_is_finite(self):
        import numpy as np

        route = self._route()
        # t=10 s is exactly the boundary into the zero-length segment.
        for t in (0.0, 5.0, 10.0, 15.0, 25.0):
            x, y, speed = route.position_at(t)
            assert np.isfinite([x, y, speed]).all(), f"NaN at t={t}"
        assert route.position_at(10.0)[:2] == (100.0, 0.0)

    def test_scalar_vectorized_parity(self):
        import numpy as np

        route = self._route()
        times = np.concatenate(
            [np.linspace(0.0, route.duration_s + 5.0, 301), [10.0]]
        )
        xs, ys, speeds = route.positions_at(times)
        for i, t in enumerate(times):
            x, y, speed = route.position_at(float(t))
            assert (x, y, speed) == (xs[i], ys[i], speeds[i])

    def test_walking_loop_scalar_vectorized_parity(self):
        """The fleet's walker lookup: random phases wrapped on the loop,
        the wrap itself, and every segment boundary one ulp either side."""
        import numpy as np

        route = walking_loop()
        loop = route.duration_s
        rng = np.random.default_rng(13)
        grid = np.arange(40, dtype=float) * 0.5
        phases = rng.uniform(0.0, loop, size=(6, 1))
        wrapped = (grid[None, :] + phases) % loop
        _, _, _, durations = route._traversal_arrays()
        edges = np.concatenate([[0.0], np.cumsum(durations), [loop]])
        near = np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        )
        times = np.concatenate(
            [wrapped.ravel(), near[near >= 0.0], [loop + 3.0]]
        )
        for grid_times in (times, wrapped):
            xs, ys, speeds = route.positions_at(grid_times)
            assert xs.shape == ys.shape == speeds.shape == grid_times.shape
            for i, t in enumerate(grid_times.ravel()):
                x, y, speed = route.position_at(float(t))
                assert (x, y, speed) == (
                    xs.ravel()[i], ys.ravel()[i], speeds.ravel()[i]
                ), f"t={t!r}"

    def test_positions_at_2d_time_grid(self):
        import numpy as np

        route = self._route()
        times = np.linspace(0.0, 25.0, 12).reshape(3, 4)
        xs, ys, speeds = route.positions_at(times)
        assert xs.shape == ys.shape == speeds.shape == (3, 4)
        flat_x, flat_y, flat_s = route.positions_at(times.ravel())
        assert np.array_equal(xs.ravel(), flat_x)
        assert np.array_equal(ys.ravel(), flat_y)
        assert np.array_equal(speeds.ravel(), flat_s)

    def test_fully_degenerate_route(self):
        import numpy as np

        route = Route("r", [(5.0, 7.0), (5.0, 7.0)], [1.0])
        assert route.position_at(3.0) == (5.0, 7.0, 0.0)
        xs, ys, speeds = route.positions_at(np.array([0.0, 1.0, 9.0]))
        assert np.array_equal(xs, [5.0, 5.0, 5.0])
        assert np.array_equal(ys, [7.0, 7.0, 7.0])
        assert np.array_equal(speeds, [0.0, 0.0, 0.0])
