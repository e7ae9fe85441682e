"""Vectorized first-order recurrences (linear and boolean scans).

The simulation's sequential state updates are all first-order:

* AR(1) fading / leaky integrators: ``y[i] = c*y[i-1] + x[i]``
* two-state Markov chains (mmWave blockage): ``s[i] = f(s[i-1], u[i])``

Both admit an O(n) array formulation with only O(n / block) Python
iterations, which is what makes ``RsrpProcess.simulate`` and
``BlockageModel.simulate`` array-at-a-time. Implemented in pure NumPy
(no scipy) so results are identical in every environment the test
matrix runs in.

Determinism: for fixed inputs the outputs are bit-for-bit reproducible
across runs and platforms. ``ar1_scan`` evaluates the recurrence in a
blocked closed form whose floating-point association differs from the
naive sequential loop, so it matches a scalar reference to ~1e-12
relative rather than bit-for-bit; ``markov_binary_scan`` is pure
boolean algebra and matches the sequential chain exactly.
"""

from __future__ import annotations

from typing import Any

import numpy as np

# Blocks keep |coeff|**-i within float64 range; 4096 steps of the
# fastest-decaying constants used anywhere in the library stay well
# clear of overflow (|c| >= 0.85 => |c|**-4096 < 1e290).
_BLOCK = 4096


def _block_size(coeff: float) -> int:
    """Largest block for which ``coeff**-i`` stays finite in float64."""
    mag = abs(coeff)
    if mag >= 1.0 or mag == 0.0:
        return _BLOCK
    # |c|**-B < 10**280  =>  B < 280*ln(10)/(-ln|c|).
    safe = int(280.0 * np.log(10.0) / -np.log(mag))
    return max(1, min(_BLOCK, safe))


def _init_rows(init: Any, shape: tuple) -> np.ndarray:
    """Broadcast a scalar-or-per-row ``init`` to the batch shape."""
    arr = np.asarray(init, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(shape, arr, dtype=np.float64)
    return np.ascontiguousarray(np.broadcast_to(arr, shape), dtype=np.float64)


def ar1_scan(coeff: float, x: np.ndarray, init: Any = 0.0) -> np.ndarray:
    """Evaluate ``y[i] = coeff * y[i-1] + x[i]`` with ``y[-1] = init``.

    Uses the closed form ``y[i] = c**(i+1)*init + sum_j c**(i-j)*x[j]``
    evaluated blockwise as ``c**i * cumsum(x / c**i)`` so only
    ``n / block`` Python iterations remain. Absolute error versus the
    sequential loop is bounded by ``~n * eps * max|x|`` (observed
    <1e-12 at every size the library uses).

    ``x`` may have leading batch axes (e.g. a UE axis): the scan runs
    along the last axis, each row bit-identical to the 1-D call on
    that row. ``init`` may be a scalar or any shape broadcastable to
    ``x.shape[:-1]``. The scan allocates and accumulates in float64,
    whatever the dtype of ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("x must have at least one dimension")
    if abs(coeff) > 1.0:
        raise ValueError("|coeff| must be <= 1 for a stable scan")
    n = x.shape[-1]
    out = np.empty(x.shape, dtype=np.float64)
    if n == 0:
        return out
    if coeff == 0.0:
        np.copyto(out, x)
        return out
    carry = _init_rows(init, x.shape[:-1])
    block = _block_size(coeff)
    for start in range(0, n, block):
        chunk = x[..., start : start + block]
        m = chunk.shape[-1]
        powers = coeff ** np.arange(m, dtype=np.float64)
        # y_local[i] = sum_{j<=i} c**(i-j) * chunk[j]
        local = powers * np.cumsum(chunk / powers, axis=-1)
        out[..., start : start + m] = (
            local + (coeff * powers) * carry[..., None]
        )
        carry = out[..., start + m - 1].copy()
    return out


def leaky_ramp_scan(alpha: float, target: np.ndarray, init: Any = 0.0) -> np.ndarray:
    """Evaluate ``y[i] = y[i-1] + (target[i] - y[i-1]) * alpha``.

    The exponential ramp used for blockage depth: rewritten as the AR(1)
    recurrence ``y[i] = (1 - alpha) * y[i-1] + alpha * target[i]`` and
    dispatched to :func:`ar1_scan` (same tolerance contract, same
    leading-batch-axis support).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    target = np.asarray(target, dtype=float)
    return ar1_scan(1.0 - alpha, alpha * target, init=init)


def markov_binary_scan(
    next_if_true: np.ndarray,
    next_if_false: np.ndarray,
    init: Any = False,
) -> np.ndarray:
    """Vectorized two-state Markov chain scan.

    Given per-step candidate next states — ``next_if_true[i]`` is the
    state after step ``i`` when the current state is True,
    ``next_if_false[i]`` when it is False — returns the boolean state
    series ``s`` with ``s[i] = next_if_true[i] if s[i-1] else
    next_if_false[i]`` and ``s[-1] = init``.

    Each step falls into one of four classes: *determined* (both
    candidates agree, the chain forgets its past), *copy* (state
    persists), or *flip* (state inverts). The state at ``i`` is then
    the most recent determined value XOR the parity of flips since it,
    all computable with ``maximum.accumulate``/``cumsum`` — no Python
    loop, and bit-exact versus the sequential chain.

    Leading batch axes (e.g. a UE axis) are supported: chains run
    independently along the last axis, each row identical to the 1-D
    call. ``init`` may be a scalar or broadcastable to the batch
    shape.
    """
    a = np.asarray(next_if_true, dtype=bool)
    b = np.asarray(next_if_false, dtype=bool)
    if a.shape != b.shape or a.ndim == 0:
        raise ValueError(
            "candidate arrays must be equal-shape with a scan axis"
        )
    n = a.shape[-1]
    if n == 0:
        return np.empty(a.shape, dtype=bool)
    init_arr = np.asarray(init, dtype=bool)
    if init_arr.ndim:
        init_arr = np.broadcast_to(init_arr, a.shape[:-1])[..., None]
    determined = a == b
    flips = ~a & b  # True state -> False, False state -> True: inversion

    # Index of the latest determined step at or before i (-1 if none).
    idx = np.arange(n)
    last_det = np.maximum.accumulate(np.where(determined, idx, -1), axis=-1)
    anchor = np.maximum(last_det, 0)

    # Base value at the anchor: the determined value there, or `init`
    # carried in from before the window.
    base = np.where(
        last_det >= 0, np.take_along_axis(a, anchor, axis=-1), init_arr
    )

    # Parity of flip steps after the anchor, up to and including i.
    flip_count = np.cumsum(flips, axis=-1)
    anchored = np.where(
        last_det >= 0, np.take_along_axis(flip_count, anchor, axis=-1), 0
    )
    parity = (flip_count - anchored) % 2 == 1
    return base ^ parity
