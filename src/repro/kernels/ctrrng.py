"""Counter-based (stateless) random numbers for fleet-scale batching.

``numpy.random.Generator`` is *stateful*: the value a UE sees depends
on how many draws happened before it, i.e. on shard boundaries and
worker count. Fleet sweeps need the opposite contract — every random
quantity a UE consumes must be a pure function of

    (key, stream, row, col)

where ``key`` is the fleet seed, ``stream`` names the quantity (fading
innovations, blockage uniforms, ...), ``row`` is the UE's *absolute*
index in the population, and ``col`` is the tick/draw index. Then any
contiguous shard ``[start, stop)`` regenerates exactly the numbers it
needs, and serial vs sharded-parallel sweeps are bit-identical by
construction (docs/fleet.md).

The generator is a SplitMix64-style finalizer over the mixed counter:
each 64-bit output passes the avalanche mixer three times with the
coordinates folded in one at a time. It is not cryptographic; it is
statistically solid for simulation use (equidistributed uniforms,
no visible lattice structure across rows/cols) and — unlike spawning
one ``SeedSequence`` per UE — costs a handful of vectorized uint64
ops per sample.
"""

from __future__ import annotations

from typing import Union

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: 2**-53; top 53 bits of the mixed counter become a [0, 1) double.
_INV_2_53 = float(np.ldexp(1.0, -53))

ArrayLike = Union[int, np.ndarray]


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise and in place on uint64 ``z``.

    Returns ``z``. A numpy scalar cannot change in place, so for one the
    result is a new scalar; arrays reuse one shift buffer throughout.
    """
    shifted = np.empty_like(z)
    z += _GOLDEN
    np.right_shift(z, np.uint64(30), out=shifted)
    z ^= shifted
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def hash_u64(key: int, stream: int, row: ArrayLike, col: ArrayLike) -> np.ndarray:
    """The raw 64-bit word at coordinates ``(key, stream, row, col)``.

    ``row`` and ``col`` broadcast against each other, so
    ``hash_u64(k, s, rows[:, None], cols[None, :])`` yields a full
    (UE x tick) matrix in one pass. Each coordinate is folded through
    its own mixer round, so adjacent rows/cols decorrelate fully.
    """
    # Copies: _mix works in place and must not touch the caller's arrays.
    row = np.array(row, dtype=np.uint64)
    col = np.array(col, dtype=np.uint64)
    # uint64 arithmetic wraps by design; silence numpy's scalar
    # overflow warnings so callers can run under -W error.
    with np.errstate(over="ignore"):
        h = _mix(np.uint64(key) + _GOLDEN * np.uint64(stream))
        h = _mix(h ^ _mix(row))
        # The column-only term, at the columns' shape; only the last
        # xor broadcasts to the full (rows x cols) matrix.
        col_term = col * _GOLDEN
        col_term ^= _mix(col)
        return _mix(h ^ col_term)


def uniforms(key: int, stream: int, row: ArrayLike, col: ArrayLike) -> np.ndarray:
    """float64 uniforms in ``[0, 1)``, pure in ``(key, stream, row, col)``."""
    bits = hash_u64(key, stream, row, col)
    bits >>= np.uint64(11)
    return np.multiply(bits, _INV_2_53)


#: Normal draws consume the uniform sub-streams ``_NORMAL_BASE +
#: 2*stream`` and ``_NORMAL_BASE + 2*stream + 1``. Callers that keep
#: their own uniform stream ids below 2**32 can therefore never
#: collide with any normal stream.
_NORMAL_BASE = 1 << 32


def normals(key: int, stream: int, row: ArrayLike, col: ArrayLike) -> np.ndarray:
    """Standard normals via Box-Muller over two decorrelated uniforms.

    The pair comes from dedicated sub-streams offset by
    ``_NORMAL_BASE``, so logical uniform ids (< 2**32) and normal ids
    live in disjoint spaces and cannot alias.
    """
    u1 = uniforms(key, _NORMAL_BASE + 2 * stream, row, col)
    u2 = uniforms(key, _NORMAL_BASE + 2 * stream + 1, row, col)
    # 1 - u1 lies in (0, 1]: log never sees 0, and log(1) = 0 maps the
    # u1 = 0 corner to a legitimate z = 0 sample.
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    return radius * np.cos(2.0 * np.pi * u2)
