"""Pluggable compute backends for the simulation kernels.

A *backend* fixes the numeric substrate the kernels run on: the dtype
every array-at-a-time kernel allocates and accumulates in. Two ship
here:

* ``numpy64`` — float64 NumPy, the default. This is the reference
  backend: it is what every golden pin, cache entry, and bit-identical
  contract in the repository was produced with, so it is *exact* by
  definition.
* ``numpy32`` — float32 NumPy. Halves memory traffic for the big
  series kernels; results are tolerance-matched (~1e-4 relative)
  against ``numpy64``, never bit-identical, so cache keys incorporate
  the backend id (see :meth:`repro.engine.cache.ResultCache.key_for`).

Selection is scoped, not global mutable state: the engine activates a
backend around each job via :func:`use_backend` (thread-local, so the
serve pool's worker threads can run different backends concurrently),
and ``REPRO_BACKEND`` sets the process-wide default for everything
that does not choose explicitly. The serial==parallel==batched
bit-identical contract holds *within* any one backend: the backend
rides on the :class:`~repro.engine.spec.JobSpec` and is re-activated
identically wherever the job lands.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List

import numpy as np

#: The reference backend — what every existing cache entry and golden
#: pin was produced with. Cache keys omit it for back-compatibility.
DEFAULT_BACKEND = "numpy64"

#: Environment variable naming the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class UnknownBackendError(ValueError):
    """A backend name nothing registered under."""


@dataclass(frozen=True)
class Backend:
    """One registered compute backend.

    ``exact`` records the contract the equivalence tests enforce:
    exact backends are bit-identical to ``numpy64``, the rest are
    tolerance-matched.
    """

    name: str
    dtype: Any
    exact: bool
    description: str = ""


_REGISTRY: Dict[str, Backend] = {}
_local = threading.local()


def register_backend(backend: Backend, overwrite: bool = False) -> None:
    if not overwrite and backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend


def available_backends() -> List[str]:
    """Every registered backend name, sorted."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> Backend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {name!r}; choose from "
            f"{', '.join(available_backends())}"
        ) from None


def default_backend_name() -> str:
    """The process default: ``REPRO_BACKEND`` or ``numpy64``."""
    return os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND


def active_backend() -> Backend:
    """The backend in effect on *this thread* right now.

    An unknown name in ``REPRO_BACKEND`` raises on first kernel use —
    loudly, rather than silently computing on the wrong substrate.
    """
    stack = getattr(_local, "stack", None)
    if stack:
        return stack[-1]
    return get_backend(default_backend_name())


def active_dtype() -> Any:
    """The active backend's dtype (what kernels allocate in)."""
    return active_backend().dtype


@contextmanager
def use_backend(name: str) -> Iterator[Backend]:
    """Activate a backend for the current thread's dynamic extent."""
    backend = get_backend(name)
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()


# ---------------------------------------------------------------------------
# Built-in backends.
# ---------------------------------------------------------------------------

register_backend(
    Backend(
        name="numpy64",
        dtype=np.float64,
        exact=True,
        description="float64 NumPy (reference; bit-identical contract)",
    )
)
register_backend(
    Backend(
        name="numpy32",
        dtype=np.float32,
        exact=False,
        description="float32 NumPy (half the memory traffic; ~1e-4 rel "
        "tolerance vs numpy64)",
    )
)
