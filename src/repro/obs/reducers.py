"""Streaming, mergeable, memory-bounded reducers for fleet sweeps.

A million-UE sweep must never materialise a per-UE (let alone per-tick)
series in the parent process. Instead each shard folds its samples into
a handful of fixed-size accumulators, ships their JSON state over the
engine's normal result transport, and the parent merges the partials.
Four reducers cover the fleet's summary surface:

* :class:`PairwiseSum` — float sums (means) that are **bit-identical**
  for any contiguous sharding of the leaf sequence. Floating-point
  addition is not associative, so a naive per-shard ``sum`` changes
  with the shard split; ``PairwiseSum`` instead fixes one canonical
  binary tree over the *global* leaf index range and every shard
  computes exactly the tree nodes its leaf range covers. Merging
  adjacent shards recombines nodes in the same canonical order, so
  serial and any sharded-parallel execution produce the same bits.
* :class:`StreamMoments` — count / mean / variance / min / max built
  on two ``PairwiseSum`` trees (x and x²); same bit-exactness.
* :class:`FixedHistogram` — fixed-bin integer counts with underflow /
  overflow tails; merging is integer addition, hence exact and
  order-invariant.
* :class:`QuantileSketch` — a DDSketch-style log-bucket quantile
  sketch with **relative** error ≤ ``alpha`` (default 1%); integer
  bucket counts make merging exact and fully order-invariant.

The two counting reducers split ``add`` into a mapping pass and a
counting pass: :meth:`QuantileSketch.keys` / :meth:`FixedHistogram.bins`
map a batch to integer bucket codes once, and ``add_keys`` /
``add_bins`` count codes with one ``bincount``. A caller that reduces
several row subsets of one matrix (the fleet's per-group feeds) maps
the matrix once and counts selected rows of the codes.

Every reducer round-trips through ``to_state()`` / ``from_state()``
as plain JSON types (string dict keys, lists, numbers), so shard
partials survive the engine's result cache unchanged. Error bounds
and the memory model are documented in docs/fleet.md.
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

__all__ = [
    "PairwiseSum",
    "StreamMoments",
    "FixedHistogram",
    "QuantileSketch",
    "SketchKeys",
]


class PairwiseSum:
    """Split-invariant float summation over an ordered leaf sequence.

    The canonical tree: leaf ``j`` of the global sequence sits in
    aligned blocks ``[j - j % 2**k, j - j % 2**k + 2**k)``; a block's
    value is the perfect pairwise tree over its leaves (left half +
    right half, recursively). The accumulator holds the canonical
    maximal-aligned-block decomposition of its leaf range — ascending
    block sizes then descending, at most ~128 nodes, O(log n) memory
    regardless of n.

    A shard covering global leaves ``[start, stop)`` builds the same
    decomposition *relative to the global index* (``origin=start``),
    which is what makes :meth:`merge` of adjacent shards reproduce the
    serial accumulator bit for bit: the nodes pushed during a merge
    are exactly the nodes a straight left-to-right run would have
    pushed, combined in the same order.
    """

    __slots__ = ("origin", "count", "_nodes")

    def __init__(self, origin: int = 0) -> None:
        if origin < 0:
            raise ValueError("origin must be non-negative")
        self.origin = int(origin)
        self.count = 0
        # (start, level, value): the aligned block of 2**level leaves
        # beginning at global leaf index `start`. Nodes are spatially
        # ordered and contiguous from `origin`.
        self._nodes: List[Tuple[int, int, float]] = []

    # -- building ----------------------------------------------------------

    def _push(self, start: int, level: int, value: float) -> None:
        nodes = self._nodes
        # Merge with the left neighbour only when the pair forms the
        # canonical *aligned* double block — two adjacent equal-level
        # blocks whose union is not aligned (possible when the shard
        # origin sits mid-block) must stay separate, or the float
        # association diverges from the canonical tree.
        while (
            nodes
            and nodes[-1][1] == level
            and nodes[-1][0] % (2 << level) == 0
        ):
            start, _, left_value = nodes.pop()
            value = left_value + value
            level += 1
        nodes.append((start, level, value))

    @staticmethod
    def _tree_sum(block: np.ndarray) -> float:
        """Perfect pairwise tree over a power-of-two-length block."""
        while block.shape[0] > 1:
            block = block[0::2] + block[1::2]
        return float(block[0])

    def add(self, values) -> None:
        """Fold the next leaves (in order) into the accumulator."""
        values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        m = values.shape[0]
        pos = self.origin + self.count
        i = 0
        while i < m:
            remaining = m - i
            # Largest aligned power-of-two block starting at pos that
            # fits in what's left (segment-tree range decomposition).
            align = (pos & -pos) if pos else 1 << 62
            size = min(align, 1 << (remaining.bit_length() - 1))
            self._push(
                pos,
                size.bit_length() - 1,
                self._tree_sum(values[i : i + size]),
            )
            pos += size
            i += size
        self.count += m

    # -- combining ---------------------------------------------------------

    def merge(self, other: "PairwiseSum") -> None:
        """Absorb the adjacent-on-the-right accumulator ``other``."""
        if other.origin != self.origin + self.count:
            raise ValueError(
                f"cannot merge: right accumulator starts at leaf "
                f"{other.origin}, left ends at {self.origin + self.count}"
            )
        for start, level, value in other._nodes:
            self._push(start, level, value)
        self.count += other.count

    def total(self) -> float:
        """The canonical-tree sum of everything folded in so far.

        Nodes are combined right to left (smallest block first), which
        is the order the canonical tree itself implies — so the total
        is a pure function of (origin, leaves), not of sharding.
        """
        if not self._nodes:
            return 0.0
        nodes = self._nodes
        acc = nodes[-1][2]
        for _, _, value in reversed(nodes[:-1]):
            acc = value + acc
        return float(acc)

    # -- serialization -----------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        return {
            "origin": self.origin,
            "count": self.count,
            "nodes": [
                [start, level, value] for start, level, value in self._nodes
            ],
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "PairwiseSum":
        out = cls(origin=int(state["origin"]))
        out.count = int(state["count"])
        out._nodes = [
            (int(start), int(level), float(value))
            for start, level, value in state["nodes"]
        ]
        return out


class StreamMoments:
    """Count / mean / variance / min / max over a global leaf sequence.

    Mean and variance come from two :class:`PairwiseSum` trees (x and
    x²), inheriting their bit-exact split invariance; min and max are
    exact under any ordering.
    """

    __slots__ = ("_sum", "_sumsq", "_min", "_max")

    def __init__(self, origin: int = 0) -> None:
        self._sum = PairwiseSum(origin)
        self._sumsq = PairwiseSum(origin)
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        return self._sum.count

    def add(self, values) -> None:
        values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        if values.shape[0] == 0:
            return
        self._sum.add(values)
        self._sumsq.add(values * values)
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))

    def merge(self, other: "StreamMoments") -> None:
        self._sum.merge(other._sum)
        self._sumsq.merge(other._sumsq)
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def summary(self) -> Dict[str, Any]:
        n = self.count
        if n == 0:
            return {"count": 0, "mean": None, "var": None,
                    "min": None, "max": None}
        mean = self._sum.total() / n
        var = max(self._sumsq.total() / n - mean * mean, 0.0)
        return {
            "count": n,
            "mean": mean,
            "var": var,
            "min": self._min,
            "max": self._max,
        }

    def to_state(self) -> Dict[str, Any]:
        return {
            "sum": self._sum.to_state(),
            "sumsq": self._sumsq.to_state(),
            "min": None if math.isinf(self._min) else self._min,
            "max": None if math.isinf(self._max) else self._max,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "StreamMoments":
        out = cls.__new__(cls)
        out._sum = PairwiseSum.from_state(state["sum"])
        out._sumsq = PairwiseSum.from_state(state["sumsq"])
        out._min = math.inf if state["min"] is None else float(state["min"])
        out._max = -math.inf if state["max"] is None else float(state["max"])
        return out


class FixedHistogram:
    """Fixed-bin histogram with int64 counts and explicit tails.

    ``nbins`` equal-width bins over ``[lo, hi)``; samples below ``lo``
    land in ``underflow``, at or above ``hi`` in ``overflow``. Integer
    counts merge by addition, so any shard split or merge order yields
    the same histogram exactly.
    """

    __slots__ = ("lo", "hi", "nbins", "counts", "underflow", "overflow")

    def __init__(self, lo: float, hi: float, nbins: int) -> None:
        if not hi > lo:
            raise ValueError("hi must be greater than lo")
        if nbins < 1:
            raise ValueError("nbins must be >= 1")
        self.lo = float(lo)
        self.hi = float(hi)
        self.nbins = int(nbins)
        self.counts = np.zeros(self.nbins, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0

    @property
    def count(self) -> int:
        return int(self.counts.sum()) + self.underflow + self.overflow

    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.nbins + 1)

    def bins(self, values) -> np.ndarray:
        """Bin code per value, shaped like ``values`` (int64).

        ``0 .. nbins - 1`` are the bins over ``[lo, hi)``; ``nbins``
        is the underflow tail (``< lo``) and ``nbins + 1`` the overflow
        tail (``>= hi``). The tails are decided by those comparisons,
        not by the float index, which can round across ``hi``. NaN
        raises: it belongs to no bin and no tail.
        """
        values = np.asarray(values, dtype=np.float64)
        index = np.subtract(values, self.lo)
        with np.errstate(over="ignore"):  # far-out values: a tail anyway
            index /= (self.hi - self.lo) / self.nbins
        if index.size and math.isnan(index.max()):
            raise ValueError("FixedHistogram cannot absorb NaN")
        np.clip(index, 0.0, self.nbins - 1, out=index)
        codes = np.empty(values.shape, dtype=np.int64)
        np.copyto(codes, index, casting="unsafe")
        np.copyto(codes, self.nbins, where=values < self.lo)
        np.copyto(codes, self.nbins + 1, where=values >= self.hi)
        return codes

    def add_bins(self, codes: np.ndarray) -> None:
        """Count codes from :meth:`bins` of a histogram with these bins."""
        counts = np.bincount(
            np.asarray(codes).reshape(-1), minlength=self.nbins + 2
        )
        if counts.shape[0] != self.nbins + 2:
            raise ValueError("bin codes come from a histogram with more bins")
        self.counts += counts[: self.nbins]
        self.underflow += int(counts[self.nbins])
        self.overflow += int(counts[self.nbins + 1])

    def add(self, values) -> None:
        self.add_bins(self.bins(values))

    def merge(self, other: "FixedHistogram") -> None:
        if (other.lo, other.hi, other.nbins) != (self.lo, self.hi, self.nbins):
            raise ValueError("cannot merge histograms with different bins")
        self.counts += other.counts
        self.underflow += other.underflow
        self.overflow += other.overflow

    def to_state(self) -> Dict[str, Any]:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "nbins": self.nbins,
            "counts": self.counts.tolist(),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "FixedHistogram":
        out = cls(state["lo"], state["hi"], int(state["nbins"]))
        out.counts = np.asarray(state["counts"], dtype=np.int64)
        out.underflow = int(state["underflow"])
        out.overflow = int(state["overflow"])
        return out


class QuantileSketch:
    """Mergeable log-bucket quantile sketch (DDSketch-style).

    Positive magnitudes map to bucket ``ceil(log_gamma |x|)`` with
    ``gamma = (1 + alpha) / (1 - alpha)``; the bucket midpoint
    ``2 * gamma**k / (gamma + 1)`` is within relative error ``alpha``
    of every value in the bucket. Negative values use a mirrored
    bucket map, and magnitudes below ``min_value`` collapse into an
    exact-zero bucket (their absolute error is below ``min_value``).

    Bucket counts are integers, so :meth:`merge` (count addition) is
    commutative and associative — quantiles are independent of shard
    split and merge order. Buckets are never collapsed: for samples
    spanning magnitudes ``[min_value, M]`` the sketch holds at most
    ``2 * log_gamma(M / min_value) + 1`` buckets (about 2900 per sign
    at ``alpha = 0.01`` across 12 decades — a few tens of KiB, still
    O(log dynamic-range), never O(n)).

    :meth:`quantile` follows ``numpy.percentile(method="lower")``
    ranks: the returned estimate is within relative error ``alpha``
    of the exact lower-rank sample (or within ``min_value`` absolute
    when that sample's magnitude is below ``min_value``).
    """

    __slots__ = ("alpha", "min_value", "_gamma", "_log_gamma",
                 "pos", "neg", "zero")

    def __init__(self, alpha: float = 0.01, min_value: float = 1e-9) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if min_value <= 0.0:
            raise ValueError("min_value must be positive")
        self.alpha = float(alpha)
        self.min_value = float(min_value)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)
        self.pos: Dict[int, int] = {}
        self.neg: Dict[int, int] = {}
        self.zero = 0

    @property
    def count(self) -> int:
        return (
            sum(self.pos.values()) + sum(self.neg.values()) + self.zero
        )

    def keys(self, values) -> "SketchKeys":
        """Map ``values`` to bucket codes once (see :class:`SketchKeys`).

        A value of magnitude ``m >= min_value`` lands in bucket
        ``ceil(log(m) / log(gamma) - 1e-12)``; smaller magnitudes land
        in the zero bucket. Non-finite values raise.
        """
        values = np.asarray(values, dtype=np.float64)
        mapping = (self.alpha, self.min_value)
        if values.size == 0:
            return SketchKeys(np.zeros(values.shape, np.int64), 0, mapping)
        if not (math.isfinite(values.min()) and math.isfinite(values.max())):
            raise ValueError("QuantileSketch cannot absorb non-finite values")
        logs = np.abs(values)
        tiny = logs < self.min_value
        # Clamping changes only zero-bucket values, whose keys are dropped.
        np.maximum(logs, self.min_value, out=logs)
        np.log(logs, out=logs)
        logs /= self._log_gamma
        logs -= 1e-12
        codes = np.empty(values.shape, dtype=np.int64)
        np.ceil(logs, out=codes, casting="unsafe")
        lowest = int(codes.min())
        codes *= 2
        codes += 1 - 2 * lowest
        codes += values < 0
        np.copyto(codes, 0, where=tiny)
        return SketchKeys(codes, lowest, mapping)

    def add_keys(self, keys: "SketchKeys") -> None:
        """Count codes from :meth:`keys` of a sketch with this mapping."""
        if keys.mapping != (self.alpha, self.min_value):
            raise ValueError("keys were mapped for another alpha/min_value")
        counts = np.bincount(keys.codes.reshape(-1))
        if counts.shape[0] == 0:
            return
        self.zero += int(counts[0])
        for store, column in (
            (self.pos, counts[1::2]),
            (self.neg, counts[2::2]),
        ):
            hit = np.flatnonzero(column)
            for key, cnt in zip(
                (hit + keys.lowest).tolist(), column[hit].tolist()
            ):
                store[key] = store.get(key, 0) + cnt

    def add(self, values) -> None:
        self.add_keys(self.keys(values))

    def merge(self, other: "QuantileSketch") -> None:
        if (other.alpha, other.min_value) != (self.alpha, self.min_value):
            raise ValueError("cannot merge sketches with different alpha")
        for key, cnt in other.pos.items():
            self.pos[key] = self.pos.get(key, 0) + cnt
        for key, cnt in other.neg.items():
            self.neg[key] = self.neg.get(key, 0) + cnt
        self.zero += other.zero

    def _bucket_value(self, key: int, sign: int) -> float:
        mid = 2.0 * self._gamma**key / (self._gamma + 1.0)
        return sign * mid

    def quantile(self, q: float) -> Optional[float]:
        """Estimate of the ``q``-th percentile (``0 <= q <= 100``).

        Uses the lower-rank convention of
        ``numpy.percentile(method="lower")``; returns None when empty.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        n = self.count
        if n == 0:
            return None
        target = int(math.floor(q / 100.0 * (n - 1))) + 1  # 1-based rank
        cumulative = 0
        # Ascending value order: most-negative first (descending key),
        # then the zero bucket, then positives (ascending key).
        for key in sorted(self.neg, reverse=True):
            cumulative += self.neg[key]
            if cumulative >= target:
                return self._bucket_value(key, -1)
        cumulative += self.zero
        if cumulative >= target:
            return 0.0
        for key in sorted(self.pos):
            cumulative += self.pos[key]
            if cumulative >= target:
                return self._bucket_value(key, +1)
        raise AssertionError("rank beyond total count")  # pragma: no cover

    def quantiles(self, qs: Sequence[float]) -> List[Optional[float]]:
        return [self.quantile(q) for q in qs]

    def to_state(self) -> Dict[str, Any]:
        """Plain-JSON state; buckets in ascending key order, so its bytes
        do not depend on the order or batching values arrived in."""
        return {
            "alpha": self.alpha,
            "min_value": self.min_value,
            "pos": {str(k): self.pos[k] for k in sorted(self.pos)},
            "neg": {str(k): self.neg[k] for k in sorted(self.neg)},
            "zero": self.zero,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "QuantileSketch":
        out = cls(alpha=float(state["alpha"]),
                  min_value=float(state["min_value"]))
        out.pos = {int(k): int(v) for k, v in state["pos"].items()}
        out.neg = {int(k): int(v) for k, v in state["neg"].items()}
        out.zero = int(state["zero"])
        return out


class SketchKeys(NamedTuple):
    """A batch of values mapped to :class:`QuantileSketch` buckets.

    ``codes`` has the batch's shape: ``0`` for the zero bucket,
    ``1 + 2 * (key - lowest)`` for a positive value in bucket ``key``
    and one more for a negative one, so one ``bincount`` counts every
    bucket of both signs. ``mapping`` is the ``(alpha, min_value)``
    the codes were mapped with.
    """

    codes: np.ndarray
    lowest: int
    mapping: Tuple[float, float]

    def rows(self, mask) -> "SketchKeys":
        """The codes of the rows (first axis) that ``mask`` selects."""
        return SketchKeys(self.codes[mask], self.lowest, self.mapping)
