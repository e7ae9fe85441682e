"""Property tests for the streaming reducers (repro.obs.reducers).

The fleet contract these pin down (docs/fleet.md):

* split invariance — folding a leaf sequence through any contiguous
  shard split and merging reproduces the serial accumulator bit for
  bit (``PairwiseSum`` / ``StreamMoments``), and is exactly
  order-independent for the integer-count reducers;
* accuracy — sketch quantiles stay within the documented relative
  error of ``numpy.percentile(method="lower")`` ground truth;
* JSON state round-trips preserve every bit.
"""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.reducers import (
    FixedHistogram,
    PairwiseSum,
    QuantileSketch,
    StreamMoments,
)


def _random_splits(rng, n, pieces):
    cuts = sorted(rng.sample(range(1, n), min(pieces - 1, n - 1)))
    bounds = [0] + cuts + [n]
    return list(zip(bounds[:-1], bounds[1:]))


def _serial(values, origin=0):
    acc = PairwiseSum(origin)
    acc.add(values)
    return acc


class TestPairwiseSum:
    def test_split_points_do_not_change_a_single_bit(self):
        rng = random.Random(4)
        values = np.random.default_rng(4).normal(0.0, 37.0, 4097)
        serial = _serial(values)
        for pieces in (2, 3, 7, 16, 64):
            acc = PairwiseSum(0)
            for start, stop in _random_splits(rng, values.shape[0], pieces):
                shard = PairwiseSum(start)
                shard.add(values[start:stop])
                acc.merge(shard)
            assert acc.total() == serial.total()
            assert acc.to_state() == serial.to_state()

    def test_incremental_adds_match_one_shot(self):
        values = np.random.default_rng(9).normal(size=1000)
        acc = PairwiseSum(0)
        i = 0
        rng = random.Random(9)
        while i < 1000:
            step = rng.randint(1, 97)
            acc.add(values[i : i + step])
            i += step
        assert acc.to_state() == _serial(values).to_state()

    def test_nonzero_origin_splits(self):
        # A group whose first member appears mid-population anchors at
        # a non-zero global leaf origin; splits must still agree.
        values = np.random.default_rng(2).normal(size=777)
        serial = _serial(values, origin=12345)
        left = PairwiseSum(12345)
        left.add(values[:130])
        right = PairwiseSum(12345 + 130)
        right.add(values[130:])
        left.merge(right)
        assert left.to_state() == serial.to_state()

    def test_non_adjacent_merge_rejected(self):
        left = _serial(np.ones(10))
        gap = PairwiseSum(11)
        gap.add(np.ones(5))
        with pytest.raises(ValueError):
            left.merge(gap)

    def test_total_accuracy_vs_fsum(self):
        values = np.random.default_rng(1).normal(0.0, 1e6, 100001)
        total = _serial(values).total()
        exact = math.fsum(values.tolist())
        assert abs(total - exact) <= 1e-9 * abs(exact) + 1e-6

    def test_json_round_trip_preserves_bits(self):
        acc = _serial(np.random.default_rng(6).normal(size=333), origin=7)
        state = json.loads(json.dumps(acc.to_state()))
        back = PairwiseSum.from_state(state)
        assert back.total() == acc.total()
        assert back.to_state() == acc.to_state()

    def test_empty(self):
        assert PairwiseSum(0).total() == 0.0
        assert PairwiseSum(0).count == 0


class TestStreamMoments:
    def test_summary_matches_numpy(self):
        values = np.random.default_rng(3).normal(-85.0, 6.0, 20000)
        acc = StreamMoments(0)
        acc.add(values)
        s = acc.summary()
        assert s["count"] == values.shape[0]
        assert s["mean"] == pytest.approx(float(values.mean()), rel=1e-12)
        assert s["var"] == pytest.approx(float(values.var()), rel=1e-9)
        assert s["min"] == float(values.min())
        assert s["max"] == float(values.max())

    def test_split_merge_bit_identical(self):
        values = np.random.default_rng(8).normal(size=5000)
        serial = StreamMoments(0)
        serial.add(values)
        merged = StreamMoments(0)
        for start, stop in ((0, 1), (1, 1024), (1024, 2000), (2000, 5000)):
            shard = StreamMoments(start)
            shard.add(values[start:stop])
            merged.merge(shard)
        assert merged.summary() == serial.summary()

    def test_empty_summary_is_none(self):
        assert StreamMoments(0).summary() == {
            "count": 0, "mean": None, "var": None, "min": None, "max": None,
        }

    def test_json_round_trip(self):
        acc = StreamMoments(5)
        acc.add(np.random.default_rng(7).normal(size=100))
        back = StreamMoments.from_state(json.loads(json.dumps(acc.to_state())))
        assert back.summary() == acc.summary()


class TestFixedHistogram:
    def test_counts_match_numpy_histogram(self):
        values = np.random.default_rng(5).normal(-85.0, 10.0, 30000)
        hist = FixedHistogram(-140.0, -60.0, 160)
        hist.add(values)
        inside = values[(values >= -140.0) & (values < -60.0)]
        expected, _ = np.histogram(inside, bins=160, range=(-140.0, -60.0))
        # np.histogram closes the last bin on the right; our overflow
        # rule puts values == hi in the tail, and none of the samples
        # here sit exactly on an interior edge.
        assert np.array_equal(hist.counts, expected)
        assert hist.underflow == int((values < -140.0).sum())
        assert hist.overflow == int((values >= -60.0).sum())
        assert hist.count == values.shape[0]

    def test_merge_is_addition_in_any_order(self):
        rng = np.random.default_rng(10)
        chunks = [rng.normal(-85.0, 10.0, 500) for _ in range(6)]
        ordered = FixedHistogram(-140.0, -60.0, 160)
        for chunk in chunks:
            ordered.add(chunk)
        shuffled = FixedHistogram(-140.0, -60.0, 160)
        for i in [3, 0, 5, 1, 4, 2]:
            part = FixedHistogram(-140.0, -60.0, 160)
            part.add(chunks[i])
            shuffled.merge(part)
        assert shuffled.to_state() == ordered.to_state()

    def test_mismatched_bins_rejected(self):
        with pytest.raises(ValueError):
            FixedHistogram(0.0, 1.0, 10).merge(FixedHistogram(0.0, 1.0, 20))

    def test_json_round_trip(self):
        hist = FixedHistogram(0.0, 10.0, 5)
        hist.add([0.5, 2.5, 9.9, -1.0, 11.0])
        back = FixedHistogram.from_state(json.loads(json.dumps(hist.to_state())))
        assert back.to_state() == hist.to_state()


class TestQuantileSketch:
    LEVELS = (0.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0)

    def _assert_within_bound(self, sample, sketch):
        for level in self.LEVELS:
            exact = float(np.percentile(sample, level, method="lower"))
            estimate = sketch.quantile(level)
            if abs(exact) < sketch.min_value:
                assert abs(estimate - exact) <= sketch.min_value
            else:
                assert abs(estimate - exact) <= sketch.alpha * abs(exact), (
                    f"p{level}: estimate {estimate} vs exact {exact}"
                )

    @pytest.mark.parametrize(
        "sample",
        [
            np.random.default_rng(1).normal(-85.0, 8.0, 20000),
            np.random.default_rng(2).lognormal(3.0, 2.0, 20000),
            -np.random.default_rng(3).lognormal(0.0, 3.0, 20000),
            np.concatenate([
                np.random.default_rng(4).normal(-1000.0, 10.0, 5000),
                np.random.default_rng(5).normal(1e-6, 1e-5, 5000),
                np.zeros(100),
            ]),
            np.full(1000, 3100.0),
        ],
        ids=["normal", "lognormal", "neg-lognormal", "mixed-sign", "constant"],
    )
    def test_error_bound_vs_numpy_lower(self, sample):
        sketch = QuantileSketch()
        sketch.add(sample)
        self._assert_within_bound(sample, sketch)

    def test_merge_order_invariant(self):
        rng = np.random.default_rng(12)
        chunks = [rng.normal(0.0, 100.0, 700) for _ in range(5)]
        ordered = QuantileSketch()
        for chunk in chunks:
            ordered.add(chunk)
        shuffled = QuantileSketch()
        for i in [4, 1, 3, 0, 2]:
            part = QuantileSketch()
            part.add(chunks[i])
            shuffled.merge(part)
        assert shuffled.to_state() == ordered.to_state()
        self._assert_within_bound(np.concatenate(chunks), shuffled)

    def test_empty_returns_none(self):
        assert QuantileSketch().quantile(50.0) is None

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QuantileSketch().add([1.0, np.nan])

    def test_json_round_trip(self):
        sketch = QuantileSketch()
        sketch.add(np.random.default_rng(13).normal(size=500))
        back = QuantileSketch.from_state(
            json.loads(json.dumps(sketch.to_state()))
        )
        assert back.to_state() == sketch.to_state()
        assert back.quantile(50.0) == sketch.quantile(50.0)


def _reference_sketch(values, alpha=0.01, min_value=1e-9):
    """Bucket counts the sketch kept before keys and bins were split out:
    per-sign ``np.unique`` over ``ceil(log_gamma |x| - 1e-12)``."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    log_gamma = math.log((1.0 + alpha) / (1.0 - alpha))
    magnitudes = np.abs(values)
    tiny = magnitudes < min_value
    stores = {}
    for sign, mask in (
        ("pos", (values > 0) & ~tiny),
        ("neg", (values < 0) & ~tiny),
    ):
        keys = np.ceil(
            np.log(magnitudes[mask]) / log_gamma - 1e-12
        ).astype(np.int64)
        uniq, counts = np.unique(keys, return_counts=True)
        stores[sign] = dict(zip(map(str, uniq.tolist()), counts.tolist()))
    return {
        "alpha": alpha,
        "min_value": min_value,
        "pos": stores["pos"],
        "neg": stores["neg"],
        "zero": int(tiny.sum()),
    }


def _reference_histogram(values, lo, hi, nbins):
    """Counts from two tail masks and a truncated index over the rest."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    under = values < lo
    over = values >= hi
    inside = values[~(under | over)]
    idx = np.minimum(
        ((inside - lo) / ((hi - lo) / nbins)).astype(np.int64), nbins - 1
    )
    return {
        "lo": float(lo),
        "hi": float(hi),
        "nbins": nbins,
        "counts": np.bincount(idx, minlength=nbins).tolist(),
        "underflow": int(under.sum()),
        "overflow": int(over.sum()),
    }


@st.composite
def _keyed_cases(draw):
    """A (UEs x ticks) matrix, a row mask and the histogram bins to use.

    Elements mix zeros of both signs, magnitudes around ``min_value``,
    values exactly on ``lo``, ``hi`` and interior bin edges (and one ulp
    either side), and arbitrary finite floats of both signs.
    """
    lo = draw(st.sampled_from([-140.0, 0.0, -1.0, 3.25]))
    span = draw(st.sampled_from([80.0, 1.0, 0.3, 1000.0]))
    nbins = draw(st.integers(1, 40))
    hi = lo + span
    edges = [lo + k * (hi - lo) / nbins for k in range(nbins + 1)]
    specials = [0.0, -0.0, 1e-9, -1e-9, 5e-10, -5e-10, 1e-12, 5e-324, hi]
    for edge in edges:
        specials += [
            edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)
        ]
    element = st.one_of(
        st.sampled_from(specials),
        st.floats(-1e4, 1e4),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    rows = draw(st.integers(1, 9))
    ticks = draw(st.integers(1, 7))
    matrix = np.array(
        draw(st.lists(element, min_size=rows * ticks, max_size=rows * ticks)),
        dtype=np.float64,
    ).reshape(rows, ticks)
    mask = draw(
        st.one_of(
            st.just([True] * rows),
            st.just([False] * rows),
            st.lists(st.booleans(), min_size=rows, max_size=rows),
        )
    )
    return matrix, np.array(mask, dtype=bool), (lo, hi, nbins)


class TestKeyedPath:
    """Map a matrix once, count selected rows: same state as ``add``."""

    @settings(max_examples=150, deadline=None)
    @given(_keyed_cases())
    def test_keyed_rows_equal_add_of_selected_rows(self, case):
        matrix, mask, bins = case
        selected = matrix[mask]

        keys = QuantileSketch().keys(matrix)
        keyed_sketch = QuantileSketch()
        keyed_sketch.add_keys(keys.rows(mask))
        sketch = QuantileSketch()
        sketch.add(selected)
        state = sketch.to_state()
        assert json.dumps(keyed_sketch.to_state()) == json.dumps(state)
        reference = _reference_sketch(selected)
        assert state == reference
        assert list(state["pos"]) == sorted(reference["pos"], key=int)
        assert list(state["neg"]) == sorted(reference["neg"], key=int)

        codes = FixedHistogram(*bins).bins(matrix)
        keyed_hist = FixedHistogram(*bins)
        keyed_hist.add_bins(codes[mask])
        hist = FixedHistogram(*bins)
        hist.add(selected)
        assert keyed_hist.to_state() == hist.to_state()
        assert hist.to_state() == _reference_histogram(selected, *bins)

        # An all-true mask feeds the matrix as is: same leaves, same order.
        moments = StreamMoments(origin=3)
        expected = StreamMoments(origin=3)
        with np.errstate(over="ignore"):  # squares of huge floats
            moments.add(matrix if mask.all() else selected)
            expected.add(selected)
        assert moments.to_state() == expected.to_state()

    def test_keys_reject_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                QuantileSketch().keys(np.array([[1.0, bad], [2.0, 3.0]]))

    def test_bins_reject_nan_and_keep_infinities_in_tails(self):
        hist = FixedHistogram(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            hist.bins([0.5, np.nan])
        hist.add([-np.inf, np.inf, 0.5])
        assert (hist.underflow, hist.overflow, hist.counts.tolist()) == (
            1, 1, [0, 0, 1, 0]
        )

    def test_codes_from_another_mapping_are_rejected(self):
        keys = QuantileSketch(alpha=0.02).keys([1.0, 2.0])
        with pytest.raises(ValueError):
            QuantileSketch().add_keys(keys)
        with pytest.raises(ValueError):
            FixedHistogram(0.0, 1.0, 2).add_bins(
                FixedHistogram(0.0, 1.0, 8).bins([0.99])
            )
