"""Multi-tenant storage fronts for the job server.

Two stores, both plain directories:

* :class:`BoundedResultCache` — the engine's
  :class:`~repro.engine.cache.ResultCache` with its byte budget, entries
  plus ``.npy`` sidecars, enforced *continuously* from a live
  :class:`~repro.engine.cache.CacheAccount` that is never rebuilt from
  the directory. All tenants share one cache — identical sweeps
  submitted by different tenants hit the same entries, which is the
  point of content-keyed results.
* :class:`ArtifactStore` — content-addressed blobs for outputs too
  large or too numerous for job records: result payloads, manifests,
  rendered reports. Keyed by SHA-256, sharded two-hex-deep, written
  atomically, deduplicated by construction (same bytes, same path).
  Job records keep their digests, so blobs are never evicted.

Both are safe for concurrent writers: each write is staged under a
unique temp name and ``os.replace``d into place.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional, Tuple
from typing import Union

import numpy as np

from repro.engine.cache import (
    ResultCache,
    _descriptors,
    _npy_bytes,
    _write_atomic,
    array_digest,
)
from repro.engine.spec import JobSpec
from repro.obs.events import EventSink

PathLike = Union[str, Path]


class BoundedResultCache(ResultCache):
    """A :class:`ResultCache` that never exceeds ``max_bytes`` on disk.

    The account of entries and sidecars is built by one scan at start-up
    and then kept live under one lock. The budget holds *throughout* a
    put: each entry or sidecar write reserves its exact size and evicts
    least-recently-used entries (with the sidecars only they held) until
    committed plus reserved bytes fit, then lands the file and commits
    it under the lock. A sidecar stays pinned from the ``encode_value``
    that stores it until the put that references it commits or fails.
    ``get`` moves a hit to the recent end and drops what it quarantines.
    The exceptions are a value bigger than the whole budget, committed
    and then evicted, and puts in flight that together outgrow it.

    Each ``cache_evict`` event goes to the sink of the call whose write
    caused it, passed down through ``_store_array``, ``_write_entry``,
    :meth:`enforce_budget` and :meth:`gc`.
    """

    def __init__(self, root: PathLike, max_bytes: int) -> None:
        super().__init__(root)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._account = self.scan()
        self._reserved = 0
        self.evictions = 0
        self.evicted_bytes = 0

    @property
    def approx_bytes(self) -> int:
        """The live account's total: entries plus sidecars."""
        with self._lock:
            return self._account.total

    def _land(
        self,
        path: Path,
        data: bytes,
        commit: Callable,
        events: Optional[EventSink],
    ) -> None:
        """Reserve ``data``'s bytes and evict to fit, telling ``events``;
        write it, then under the lock rename it into place and
        ``commit`` its size."""
        size = len(data)
        with self._lock:
            self._reserved += size
            over = self._account.total + self._reserved > self.max_bytes

        def replace(tmp_name: str, target: Path) -> None:
            with self._lock:
                os.replace(tmp_name, target)
                self._reserved -= size
                commit(size)

        try:
            if over:
                self.enforce_budget(events=events)
            _write_atomic(path, data, replace)
        except BaseException:
            with self._lock:
                self._reserved -= size
            raise

    def _store_array(
        self, arr: "np.ndarray", events: Optional[EventSink] = None
    ) -> str:
        arr = np.ascontiguousarray(arr)
        digest = array_digest(arr)
        with self._lock:
            self._account.refs[digest] += 1  # the pin
            if digest in self._account.sidecars:
                return digest
        try:
            self.arrays_dir.mkdir(parents=True, exist_ok=True)
            self._land(
                self.arrays_dir / f"{digest}.npy",
                _npy_bytes(arr),
                lambda size: self._account.add_sidecar(digest, size),
                events,
            )
        except BaseException:
            self._release_sidecars([digest])
            raise
        return digest

    def _release_sidecars(self, digests: Iterable[str]) -> None:
        with self._lock:
            orphans = self._account.release(digests)
            self._unlink_sidecars(self._account, orphans)

    def _write_entry(
        self,
        path: Path,
        data: bytes,
        value: Any,
        events: Optional[EventSink] = None,
    ) -> None:
        digests = [desc["digest"] for desc in _descriptors(value)]

        def commit(size: int) -> None:
            orphans = self._account.add_entry(path.name, size, digests)
            self._unlink_sidecars(self._account, orphans)

        self._land(path, data, commit, events)

    def put(
        self,
        spec: JobSpec,
        key: str,
        value: Any,
        *,
        events: Optional[EventSink] = None,
        faults: Optional[Any] = None,
    ) -> Path:
        try:
            path = super().put(spec, key, value, events=events, faults=faults)
        finally:
            # The entry now holds the sidecars encode_value pinned for
            # it, or the put failed and nothing does.
            self._release_sidecars(d["digest"] for d in _descriptors(value))
        if self.approx_bytes > self.max_bytes:
            # Only a value bigger than the budget, or puts in flight that
            # together outgrew it, get here: evict now.
            self.enforce_budget(events=events)
        return path

    def get(
        self,
        spec: JobSpec,
        key: str,
        *,
        events: Optional[EventSink] = None,
        faults: Optional[Any] = None,
    ) -> Tuple[bool, Any]:
        hit, value = super().get(spec, key, events=events, faults=faults)
        name = self.path_for(spec, key).name
        with self._lock:
            if hit and name in self._account.entries:
                self._account.entries.move_to_end(name)
        return hit, value

    def _quarantine(
        self,
        path: Path,
        spec: JobSpec,
        reason: str,
        sidecars: Iterable[str] = (),
        events: Optional[EventSink] = None,
    ) -> None:
        with self._lock:
            super()._quarantine(path, spec, reason, sidecars, events)
            for digest in sidecars:
                self._account.drop_sidecar(digest)
            orphans = self._account.drop_entry(path.name)
            self._unlink_sidecars(self._account, orphans)

    def gc(
        self, max_bytes: int, *, events: Optional[EventSink] = None
    ) -> Dict[str, Any]:
        """Evict from the live account; no directory scan."""
        with self._lock:
            return self._evict(self._account, max(0, int(max_bytes)), events)

    def enforce_budget(
        self, *, events: Optional[EventSink] = None
    ) -> Dict[str, Any]:
        """Evict LRU entries until committed + reserved bytes fit."""
        with self._lock:
            reserved = self._reserved
        summary = self.gc(max(0, self.max_bytes - reserved), events=events)
        with self._lock:
            self.evictions += summary["evicted"]
            self.evicted_bytes += summary["freed_bytes"]
        return summary

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "max_bytes": self.max_bytes,
                "approx_bytes": self._account.total,
                "entries": len(self._account.entries),
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
            }


#: An artifact's handle: the SHA-256 hex digest of its bytes.
_ARTIFACT_DIGEST = re.compile(r"[0-9a-f]{64}")


class ArtifactStore:
    """Content-addressed blob store: ``root/<aa>/<digest><suffix>``.

    ``put_bytes`` returns the SHA-256 hex digest — the only handle a
    caller ever needs. Storing the same bytes twice is free (the
    second write sees the path already exists and skips the copy), so
    a thousand identical small-sweep results occupy one blob.

    Blobs are never deleted, so the store counts them once: one scan at
    start-up, then each put that lands a new blob adds it under one
    lock, and ``len`` / ``size_bytes`` read the counts without touching
    the directory.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        sizes = [
            path.stat().st_size
            for path in self.root.glob("*/*")
            if not path.name.startswith(".tmp-")
        ]
        self._blobs = len(sizes)
        self._bytes = sum(sizes)

    def _path_for(self, digest: str, suffix: str = "") -> Path:
        return self.root / digest[:2] / f"{digest}{suffix}"

    def put_bytes(self, data: bytes, suffix: str = "") -> str:
        digest = hashlib.sha256(data).hexdigest()
        path = self._path_for(digest, suffix)
        if not path.exists():
            # Content-addressed: an existing path IS the same bytes.
            path.parent.mkdir(parents=True, exist_ok=True)

            def replace(tmp_name: str, target: Path) -> None:
                # Racing writers of one digest land identical bytes; the
                # first rename under the lock is the one that counts.
                with self._lock:
                    new = not target.exists()
                    os.replace(tmp_name, target)
                    if new:
                        self._blobs += 1
                        self._bytes += len(data)

            _write_atomic(path, data, replace)
        return digest

    def put_json(self, payload: Any, suffix: str = ".json") -> str:
        data = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode()
        return self.put_bytes(data, suffix)

    def find(self, digest: str) -> Optional[Path]:
        """The blob's path (any suffix), or None when absent.

        ``digest`` may come straight from a URL: anything but a full
        lowercase hex digest is not found, never a glob pattern.
        """
        if not _ARTIFACT_DIGEST.fullmatch(digest):
            return None
        shard = self.root / digest[:2]
        if not shard.is_dir():
            return None
        for path in sorted(shard.glob(f"{digest}*")):
            return path
        return None

    def get_bytes(self, digest: str) -> Optional[bytes]:
        path = self.find(digest)
        if path is None:
            return None
        try:
            return path.read_bytes()
        except OSError:
            return None

    def get_json(self, digest: str) -> Optional[Any]:
        data = self.get_bytes(digest)
        if data is None:
            return None
        return json.loads(data.decode())

    def __contains__(self, digest: str) -> bool:
        return self.find(digest) is not None

    def size_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return self._blobs
