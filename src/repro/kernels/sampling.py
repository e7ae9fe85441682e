"""Vectorized evaluation of scalar-or-callable time series inputs.

Several kernels accept a ``Union[float, Callable[[float], float]]``
("capacity-like") argument. :func:`sample_series` evaluates it over a
whole time grid at once: array-aware callables are invoked once,
scalar-only callables fall back to a per-element loop, and plain
numbers broadcast. The returned values are identical to calling the
scalar path at each grid point — ufunc arithmetic on float64 arrays
matches Python-float arithmetic bit-for-bit for ``+ - * / min max``.
Values are always returned as float64.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

SeriesLike = Union[float, Callable[[float], float]]


def sample_series(fn: SeriesLike, times_s: np.ndarray) -> np.ndarray:
    """Evaluate ``fn`` over ``times_s``, vectorized when possible."""
    times_s = np.asarray(times_s, dtype=np.float64)
    if not callable(fn):
        return np.full(times_s.shape, float(fn), dtype=np.float64)
    try:
        values = fn(times_s)
    except (TypeError, ValueError):
        # Only the signatures of "scalar-only callable handed an
        # array": TypeError from operations undefined on ndarrays,
        # ValueError from ambiguous array truthiness (`if t > 5`).
        # Anything else — a KeyError in a trace lookup, a ZeroDivision
        # in the model — is a real bug in `fn` and must surface, not
        # get silently retried element-wise (where it would either
        # fail confusingly or, worse, succeed with different data).
        values = None
    if values is not None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape == times_s.shape:
            return values
        if values.ndim == 0:  # constant-valued callable
            return np.full(times_s.shape, float(values), dtype=np.float64)
    return np.array([float(fn(float(t))) for t in times_s], dtype=np.float64)
