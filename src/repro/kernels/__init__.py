"""Vectorized simulation kernels shared across the library.

Every figure/table runner funnels through the same three hot loops —
RSRP series generation, RSRP->capacity mapping, and transport fluid
stepping. This package holds the array-at-a-time primitives those
kernels are built from, plus the pre-PR scalar implementations
(:mod:`repro.kernels.reference`) kept as the equivalence/benchmark
baseline. The determinism contract for every kernel is documented in
``docs/performance.md``.
"""

from repro.kernels.backend import (
    DEFAULT_BACKEND,
    Backend,
    UnknownBackendError,
    active_backend,
    available_backends,
    get_backend,
    register_backend,
    use_backend,
)
from repro.kernels.scan import ar1_scan, leaky_ramp_scan, markov_binary_scan
from repro.kernels.sampling import sample_series

__all__ = [
    "DEFAULT_BACKEND",
    "Backend",
    "UnknownBackendError",
    "active_backend",
    "ar1_scan",
    "available_backends",
    "get_backend",
    "leaky_ramp_scan",
    "markov_binary_scan",
    "register_backend",
    "sample_series",
    "use_backend",
]
