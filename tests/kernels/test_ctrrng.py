"""Unit tests for the counter-based RNG (repro.kernels.ctrrng).

The fleet contract: every draw is a pure function of
``(key, stream, row, col)``, so any shard regenerates exactly its own
numbers and serial vs sharded sweeps are bit-identical by construction.
"""

import numpy as np

from repro.kernels.ctrrng import hash_u64, normals, uniforms

KEY = 20210823


class TestPurity:
    def test_same_coordinates_same_values(self):
        rows = np.arange(100)[:, None]
        cols = np.arange(40)[None, :]
        a = uniforms(KEY, 3, rows, cols)
        b = uniforms(KEY, 3, rows, cols)
        assert np.array_equal(a, b)

    def test_shard_slices_match_full_matrix(self):
        # The whole point: row r's draws do not depend on which shard
        # computes them.
        cols = np.arange(64)[None, :]
        full = uniforms(KEY, 7, np.arange(50)[:, None], cols)
        lo = uniforms(KEY, 7, np.arange(0, 23)[:, None], cols)
        hi = uniforms(KEY, 7, np.arange(23, 50)[:, None], cols)
        assert np.array_equal(full, np.concatenate([lo, hi], axis=0))

    def test_scalar_and_broadcast_agree(self):
        grid = uniforms(KEY, 1, np.arange(5)[:, None], np.arange(4)[None, :])
        for r in range(5):
            for c in range(4):
                assert grid[r, c] == float(uniforms(KEY, 1, r, c))


class TestSeparation:
    def test_streams_decorrelate(self):
        rows = np.arange(200)
        assert not np.array_equal(
            uniforms(KEY, 1, rows, 0), uniforms(KEY, 2, rows, 0)
        )

    def test_keys_decorrelate(self):
        rows = np.arange(200)
        assert not np.array_equal(
            uniforms(KEY, 1, rows, 0), uniforms(KEY + 1, 1, rows, 0)
        )

    def test_rows_and_cols_are_not_symmetric(self):
        # (row, col) and (col, row) must address different words.
        assert hash_u64(KEY, 1, 3, 4) != hash_u64(KEY, 1, 4, 3)


class TestDistributions:
    def test_uniforms_in_unit_interval(self):
        u = uniforms(KEY, 5, np.arange(2000)[:, None], np.arange(50)[None, :])
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1.0 / 12.0) < 0.01

    def test_normals_moments(self):
        z = normals(KEY, 5, np.arange(2000)[:, None], np.arange(50)[None, :])
        assert np.isfinite(z).all()
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_normals_do_not_alias_uniform_streams(self):
        # Normal draws live in sub-streams >= 2**32; a logical uniform
        # stream id can never collide with them.
        rows = np.arange(500)
        for stream in (0, 1, 2, 1000):
            assert not np.array_equal(
                normals(KEY, stream, rows, 0), uniforms(KEY, stream, rows, 0)
            )


# The generator as first written: whole-array temporaries, no in-place
# steps. The production code must keep producing exactly these bits.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _reference_mix(z):
    z = (z + _GOLDEN).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _reference_hash_u64(key, stream, row, col):
    row = np.asarray(row, dtype=np.uint64)
    col = np.asarray(col, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = _reference_mix(np.uint64(key) + _GOLDEN * np.uint64(stream))
        h = _reference_mix(h ^ _reference_mix(row))
        return _reference_mix(h ^ _reference_mix(col) ^ (col * _GOLDEN))


def _reference_uniforms(key, stream, row, col):
    bits = _reference_hash_u64(key, stream, row, col)
    return (bits >> np.uint64(11)).astype(np.float64) * float(
        np.ldexp(1.0, -53)
    )


def _reference_normals(key, stream, row, col):
    u1 = _reference_uniforms(key, (1 << 32) + 2 * stream, row, col)
    u2 = _reference_uniforms(key, (1 << 32) + 2 * stream + 1, row, col)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


EDGES = [0, 1, 2**63, 2**64 - 1]


class TestReferenceBits:
    """In-place hashing returns the reference's bits, types and shapes."""

    CASES = [
        ("scalar", 5, 9),
        ("edge rows x edge cols",
         np.array(EDGES, dtype=np.uint64)[:, None],
         np.array(EDGES, dtype=np.uint64)[None, :]),
        ("rows x scalar col",
         np.array(EDGES + [7, 2**40], dtype=np.uint64), 0),
        ("scalar row x cols", 2**64 - 1, np.arange(240)),
        ("matrix", np.arange(300)[:, None], np.arange(240)[None, :]),
        ("int64 rows", np.arange(5, dtype=np.int64)[:, None],
         np.arange(3)[None, :]),
    ]

    @staticmethod
    def _same(actual, expected):
        assert type(actual) is type(expected)
        assert np.shape(actual) == np.shape(expected)
        assert np.asarray(actual).dtype == np.asarray(expected).dtype
        assert np.array_equal(
            np.asarray(actual).view(np.uint64),
            np.asarray(expected).view(np.uint64),
        )

    def test_hash_uniforms_normals_match_reference(self):
        for key in (0, KEY, 2**64 - 1):
            for stream in (0, 3, 2**32 - 1):
                for _, row, col in self.CASES:
                    for produce, reference in (
                        (hash_u64, _reference_hash_u64),
                        (uniforms, _reference_uniforms),
                        (normals, _reference_normals),
                    ):
                        self._same(
                            produce(key, stream, row, col),
                            reference(key, stream, row, col),
                        )

    def test_scalar_coordinates_give_scalars(self):
        assert isinstance(hash_u64(KEY, 1, 2**63, 2**64 - 1), np.uint64)
        assert isinstance(uniforms(KEY, 1, 0, 0), np.float64)

    def test_caller_arrays_are_not_modified(self):
        rows = np.array(EDGES, dtype=np.uint64)[:, None]
        cols = np.arange(8, dtype=np.uint64)[None, :]
        before = (rows.copy(), cols.copy())
        uniforms(KEY, 2, rows, cols)
        normals(KEY, 2, rows, cols)
        assert np.array_equal(rows, before[0])
        assert np.array_equal(cols, before[1])
