"""Unit tests for the repro.kernels scan primitives."""

import numpy as np
import pytest

from repro.kernels.sampling import sample_series
from repro.kernels.scan import ar1_scan, leaky_ramp_scan, markov_binary_scan


def _ar1_loop(coeff, x, init=0.0):
    out = np.empty(len(x))
    prev = init
    for i, value in enumerate(x):
        prev = coeff * prev + value
        out[i] = prev
    return out


class TestAr1Scan:
    def test_matches_loop_short(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, 50)
        np.testing.assert_allclose(
            ar1_scan(0.85, x, init=0.3), _ar1_loop(0.85, x, 0.3), rtol=0, atol=1e-12
        )

    def test_matches_loop_long_blocked(self):
        # Long enough to exercise multiple carry blocks.
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 2.0, 20_000)
        np.testing.assert_allclose(
            ar1_scan(0.97, x), _ar1_loop(0.97, x), rtol=0, atol=1e-9
        )

    def test_tiny_coefficient_forces_small_blocks(self):
        # |coeff| near 0 makes coeff**-i explode; the blocked scan must
        # still be finite and correct.
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 1.0, 3000)
        result = ar1_scan(0.01, x)
        assert np.all(np.isfinite(result))
        np.testing.assert_allclose(result, _ar1_loop(0.01, x), rtol=0, atol=1e-12)

    def test_zero_coefficient_is_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(ar1_scan(0.0, x, init=9.0), x)

    def test_empty_input(self):
        assert ar1_scan(0.5, np.array([])).shape == (0,)

    def test_unit_coefficient_is_cumsum(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            ar1_scan(1.0, x, init=10.0), 10.0 + np.cumsum(x)
        )

    def test_rejects_unstable_coefficient(self):
        with pytest.raises(ValueError):
            ar1_scan(1.5, np.zeros(3))
        with pytest.raises(ValueError):
            ar1_scan(-1.2, np.zeros(3))


class TestLeakyRampScan:
    def test_matches_loop(self):
        rng = np.random.default_rng(3)
        target = (rng.random(500) < 0.2).astype(float)
        alpha = 0.054
        expected = np.empty(500)
        depth = 0.1
        for i, t in enumerate(target):
            depth += (t - depth) * alpha
            expected[i] = depth
        np.testing.assert_allclose(
            leaky_ramp_scan(alpha, target, init=0.1), expected, rtol=0, atol=1e-12
        )

    def test_converges_to_target(self):
        result = leaky_ramp_scan(0.1, np.ones(400), init=0.0)
        assert result[-1] == pytest.approx(1.0, abs=1e-9)
        # Monotone up to the scan's association tolerance.
        assert np.all(np.diff(result) >= -1e-12)


class TestMarkovBinaryScan:
    def _loop(self, a, b, init):
        out = np.empty(len(a), dtype=bool)
        state = init
        for i in range(len(a)):
            state = a[i] if state else b[i]
            out[i] = state
        return out

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("init", [False, True])
    def test_matches_loop(self, seed, init):
        rng = np.random.default_rng(seed)
        a = rng.random(1000) < 0.8
        b = rng.random(1000) < 0.1
        np.testing.assert_array_equal(
            markov_binary_scan(a, b, init=init), self._loop(a, b, init)
        )

    def test_all_determined(self):
        a = np.array([True, True, False])
        np.testing.assert_array_equal(
            markov_binary_scan(a, a, init=False), a
        )

    def test_empty(self):
        empty = np.zeros(0, dtype=bool)
        assert markov_binary_scan(empty, empty, init=True).shape == (0,)


class TestSampleSeries:
    def test_scalar_broadcast(self):
        np.testing.assert_array_equal(
            sample_series(7.5, np.arange(4.0)), np.full(4, 7.5)
        )

    def test_array_aware_callable(self):
        times = np.arange(5.0)
        np.testing.assert_array_equal(
            sample_series(lambda t: 2.0 * t, times), 2.0 * times
        )

    def test_scalar_only_callable_falls_back(self):
        def scalar_only(t):
            if not isinstance(t, float):
                raise TypeError("scalar only")
            return t + 1.0

        times = np.arange(3.0)
        np.testing.assert_array_equal(
            sample_series(scalar_only, times), times + 1.0
        )

    def test_constant_valued_callable(self):
        np.testing.assert_array_equal(
            sample_series(lambda t: 3.0, np.arange(4.0)), np.full(4, 3.0)
        )


class TestFloat64:
    def test_float32_input_computes_in_float64(self):
        x = np.random.default_rng(0).standard_normal(256).astype(np.float32)
        wide = x.astype(np.float64)
        out = ar1_scan(0.9, x, 0.0)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, ar1_scan(0.9, wide, 0.0))
        series = sample_series(lambda t: 2.0 * t, x)
        assert series.dtype == np.float64
        np.testing.assert_array_equal(series, 2.0 * wide)


class TestBatchedScans:
    """2D (leading batch axes) scans: per-row bit-identical to 1-D."""

    def _x(self, rows=7, ticks=300, seed=3):
        return np.random.default_rng(seed).normal(0.0, 1.0, (rows, ticks))

    def test_ar1_rows_match_1d(self):
        x = self._x()
        out = ar1_scan(0.7165, x, init=0.25)
        for r in range(x.shape[0]):
            assert np.array_equal(out[r], ar1_scan(0.7165, x[r], init=0.25))

    def test_ar1_per_row_init(self):
        x = self._x(rows=4)
        inits = np.array([0.0, 1.0, -2.0, 0.5])
        out = ar1_scan(0.9, x, init=inits)
        for r in range(4):
            assert np.array_equal(out[r], ar1_scan(0.9, x[r], init=inits[r]))

    def test_leaky_ramp_rows_match_1d(self):
        target = (self._x(rows=5, seed=8) > 0.0).astype(float)
        out = leaky_ramp_scan(0.24, target, init=0.0)
        for r in range(5):
            assert np.array_equal(
                out[r], leaky_ramp_scan(0.24, target[r], init=0.0)
            )

    def test_markov_rows_match_1d(self):
        rng = np.random.default_rng(17)
        a = rng.random((6, 250)) < 0.97
        b = rng.random((6, 250)) < 0.02
        out = markov_binary_scan(a, b, init=False)
        for r in range(6):
            assert np.array_equal(
                out[r], markov_binary_scan(a[r], b[r], init=False)
            )

    def test_three_leading_axes(self):
        x = np.random.default_rng(5).normal(size=(2, 3, 64))
        out = ar1_scan(0.5, x)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], ar1_scan(0.5, x[i, j]))
