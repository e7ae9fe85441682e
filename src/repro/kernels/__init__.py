"""Vectorized simulation kernels shared across the library.

Every figure/table runner funnels through the same three hot loops —
RSRP series generation, RSRP->capacity mapping, and transport fluid
stepping. This package holds the array-at-a-time primitives those
kernels are built from, plus the original scalar implementations
(:mod:`repro.kernels.reference`) kept as the equivalence/benchmark
baseline. Every kernel computes in float64, the dtype every golden pin
and cache entry was produced with; the determinism contract for each
kernel is documented in ``docs/performance.md``.
"""

from repro.kernels.scan import ar1_scan, leaky_ramp_scan, markov_binary_scan
from repro.kernels.sampling import sample_series

__all__ = [
    "ar1_scan",
    "leaky_ramp_scan",
    "markov_binary_scan",
    "sample_series",
]
