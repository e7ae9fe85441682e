"""Zero-copy ndarray transport over shared-memory ring buffers.

The batch-lease executor (:mod:`repro.engine.pool`) streams one result
record per job back through a pipe. Pickling a multi-megabyte ndarray
through that pipe costs two copies and a serialisation pass; this
module ships the *bytes* of large result arrays through one
``multiprocessing.shared_memory`` segment per worker instead, leaving
only a tiny descriptor in the pickled record. Only results take the
ring: job kwargs ride the pipe pickled.

Design:

* :class:`ShmRing` — a single-producer/single-consumer byte ring. The
  first 16 bytes of the segment hold two little-endian ``uint64``
  cursors (``write_pos``, ``read_pos``), both *monotonic* byte counts;
  ``pos % capacity`` locates data, and ``write_pos - read_pos`` is the
  occupancy. Payloads are contiguous: a write that would straddle the
  wrap point pads to the ring start first. One writer (the worker) and
  one reader (the parent) never write the same cursor, so plain
  aligned stores are race-free on every platform CPython runs on.
* :func:`encode_arrays` / :func:`decode_arrays` — recursive descriptor
  substitution over job results. Numeric ndarrays at or above
  ``min_bytes`` are written into the ring and replaced with a
  ``{"__shm.ndarray__": {...}}`` marker; everything else passes
  through untouched (and still rides the pipe pickled). A full ring is
  *never* an error: the array simply stays inline — shared memory here
  is an optimisation with a correctness-preserving fallback.

Ownership is explicit and crash-proof: the **parent** creates every
segment, is the only process that ever unlinks it, and does so in a
``finally`` — a worker crash (or an aborted sweep) cannot leak
segments, which the chaos tests assert via :func:`active_segments`.
Workers only attach and ``close()``.
"""

from __future__ import annotations

import struct
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Optional, Set, Tuple

import numpy as np

#: Marker key for an array shipped out-of-band through the ring.
SHM_MARKER = "__shm.ndarray__"

#: Default per-worker ring capacity (payload bytes, header excluded).
DEFAULT_RING_BYTES = 8 * 1024 * 1024

#: Arrays smaller than this ride the pipe: below ~64 KiB the pickle
#: copy is cheaper than the descriptor indirection.
DEFAULT_MIN_BYTES = 64 * 1024

#: How long a writer waits for the reader to drain a full ring before
#: falling back to inline transport. The parent consumes each record's
#: arrays as soon as it lands, so waits are short in practice.
DEFAULT_WRITE_TIMEOUT_S = 10.0

_HEADER = 16
_CURSOR = struct.Struct("<Q")

#: Names of live segments created by this process (the owner side).
_LIVE_SEGMENTS: Set[str] = set()


def active_segments() -> Tuple[str, ...]:
    """Names of segments this process created and has not unlinked.

    The leak oracle for tests: after any ``execute()`` — clean,
    crashing, or aborted — this must be empty again.
    """
    return tuple(sorted(_LIVE_SEGMENTS))


class ShmRing:
    """SPSC byte ring over one shared-memory segment.

    Create in the parent (``owner=True``), attach by name in the
    worker. ``capacity`` is payload bytes; the segment is 16 bytes
    larger for the cursor header.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self._shm = shm
        self.owner = owner
        self.capacity = shm.size - _HEADER
        self._closed = False

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_BYTES) -> "ShmRing":
        capacity = max(1, int(capacity))
        shm = shared_memory.SharedMemory(create=True, size=capacity + _HEADER)
        shm.buf[:_HEADER] = b"\x00" * _HEADER
        _LIVE_SEGMENTS.add(shm.name)
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track= parameter
            shm = shared_memory.SharedMemory(name=name)
            # Pre-3.13 registers with the resource tracker on *attach*
            # too, and a spawn-context child's own tracker would unlink
            # the parent-owned segment at child exit. Deregister — but
            # only when this child has its own tracker: under fork the
            # tracker process (and its name cache, a set) is shared, so
            # the attach-side registration was a no-op and deregistering
            # would strip the parent's own entry out from under its
            # eventual unlink.
            import multiprocessing as _mp

            if _mp.get_start_method(allow_none=True) != "fork":
                try:
                    resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:
                    pass
        return cls(shm, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass

    def unlink(self) -> None:
        """Free the segment (owner only); idempotent."""
        name = self._shm.name
        self.close()
        if not self.owner:
            return
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):
            pass
        _LIVE_SEGMENTS.discard(name)

    # -- cursors ---------------------------------------------------------
    def _get(self, offset: int) -> int:
        return _CURSOR.unpack_from(self._shm.buf, offset)[0]

    def _set(self, offset: int, value: int) -> None:
        _CURSOR.pack_into(self._shm.buf, offset, value)

    @property
    def write_pos(self) -> int:
        return self._get(0)

    @property
    def read_pos(self) -> int:
        return self._get(8)

    def pending_bytes(self) -> int:
        """Bytes written but not yet consumed."""
        return self.write_pos - self.read_pos

    # -- data path -------------------------------------------------------
    def write(
        self, data: memoryview, timeout_s: float = DEFAULT_WRITE_TIMEOUT_S
    ) -> Optional[int]:
        """Copy ``data`` into the ring; returns its absolute position.

        Returns ``None`` (caller falls back to inline transport) when
        the payload exceeds the capacity outright or the reader does
        not free enough space within ``timeout_s``.
        """
        n = data.nbytes
        cap = self.capacity
        if n > cap:
            return None
        deadline = time.monotonic() + max(0.0, timeout_s)
        while True:
            w = self.write_pos
            r = self.read_pos
            off = w % cap
            # Payloads are contiguous: pad to the ring start rather
            # than straddle the wrap point.
            pad = cap - off if off + n > cap else 0
            if n + pad <= cap - (w - r):
                pos = w + pad
                start = pos % cap
                self._shm.buf[_HEADER + start : _HEADER + start + n] = data
                self._set(0, pos + n)
                return pos
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.0005)

    def read(self, pos: int, nbytes: int) -> bytearray:
        """Copy ``nbytes`` at absolute position ``pos`` out of the ring.

        Returns a ``bytearray`` so arrays built over it are writable
        (decoded results must behave like freshly computed ones).
        """
        start = pos % self.capacity
        out = bytearray(nbytes)
        out[:] = self._shm.buf[_HEADER + start : _HEADER + start + nbytes]
        return out

    def consume(self, pos: int, nbytes: int) -> None:
        """Release everything up to and including ``[pos, pos+nbytes)``."""
        end = pos + nbytes
        if end > self.read_pos:
            self._set(8, end)


def _shippable(value: Any, min_bytes: int) -> bool:
    return (
        isinstance(value, np.ndarray)
        and value.dtype.kind in "biuf"
        and value.nbytes >= min_bytes
    )


def encode_arrays(
    value: Any,
    ring: ShmRing,
    min_bytes: int = DEFAULT_MIN_BYTES,
    timeout_s: float = DEFAULT_WRITE_TIMEOUT_S,
) -> Tuple[Any, int]:
    """Replace large numeric ndarrays in ``value`` with ring descriptors.

    Returns ``(encoded, shipped_count)``. Traversal order is
    deterministic (dict insertion order, list order), which is what
    lets the decoder consume ring bytes strictly in write order.
    """
    shipped = 0

    def _walk(node: Any) -> Any:
        nonlocal shipped
        if _shippable(node, min_bytes):
            arr = np.ascontiguousarray(node)
            pos = ring.write(memoryview(arr).cast("B"), timeout_s=timeout_s)
            if pos is None:
                return node  # ring full/too small: stay inline
            shipped += 1
            return {
                SHM_MARKER: {
                    "pos": pos,
                    "nbytes": arr.nbytes,
                    "dtype": arr.dtype.str,
                    "shape": list(arr.shape),
                }
            }
        if isinstance(node, dict):
            if len(node) == 1 and SHM_MARKER in node:
                return node  # never double-encode a marker
            return {k: _walk(v) for k, v in node.items()}
        if isinstance(node, list):
            return [_walk(v) for v in node]
        if isinstance(node, tuple):
            return tuple(_walk(v) for v in node)
        return node

    return _walk(value), shipped


def decode_arrays(value: Any, ring: ShmRing) -> Any:
    """Rebuild ndarrays from ring descriptors (inverse of encode).

    Must be called on whole records in the order they were produced:
    each descriptor's bytes are consumed (released back to the writer)
    as it is decoded.
    """
    if isinstance(value, dict):
        if len(value) == 1 and SHM_MARKER in value:
            desc = value[SHM_MARKER]
            data = ring.read(desc["pos"], desc["nbytes"])
            ring.consume(desc["pos"], desc["nbytes"])
            return np.frombuffer(data, dtype=np.dtype(desc["dtype"])).reshape(
                desc["shape"]
            )
        return {k: decode_arrays(v, ring) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_arrays(v, ring) for v in value]
    if isinstance(value, tuple):
        return tuple(decode_arrays(v, ring) for v in value)
    return value
