"""Multi-tenant storage fronts for the job server.

Two stores, both plain directories:

* :class:`BoundedResultCache` — the engine's
  :class:`~repro.engine.cache.ResultCache` with its byte budget
  enforced *continuously*: every ``put`` updates an incremental size
  account and triggers an LRU sweep (``ResultCache.gc``) the moment
  the directory exceeds ``max_bytes``. All tenants share one cache —
  identical sweeps submitted by different tenants hit the same
  entries, which is the point of content-keyed results.
* :class:`ArtifactStore` — content-addressed blobs for outputs too
  large or too numerous for job records: result payloads, manifests,
  rendered reports. Keyed by SHA-256, sharded two-hex-deep, written
  atomically, deduplicated by construction (same bytes, same path).

Both are safe for concurrent writers: the cache inherits the engine's
unique-temp-name + ``os.replace`` protocol, the artifact store uses
the same, and size accounting is lock-guarded.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.engine.cache import ResultCache
from repro.engine.spec import JobSpec

PathLike = Union[str, Path]


#: Serialization overhead a cache record adds on top of its value
#: bytes (runner/kwargs/seed/scale envelope). Deliberately generous —
#: an over-estimate only evicts slightly early, an under-estimate
#: would let a commit overshoot the budget.
_RECORD_OVERHEAD_BYTES = 1024


class BoundedResultCache(ResultCache):
    """A :class:`ResultCache` that never exceeds ``max_bytes`` on disk.

    The budget holds *throughout* a put, not just after it: each
    writer reserves a conservative size estimate up front, evicts LRU
    entries until committed-bytes + all in-flight reservations fit,
    and only then commits. The committed account starts from a
    directory scan and is maintained incrementally, so steady-state
    puts cost one ``stat``, not a directory walk. Eviction order is
    LRU by mtime; ``get`` touches entries on hit, so recently *used*
    entries survive. Quarantined entries never count. The single
    exception to the invariant is a value bigger than the whole
    budget, which is committed and then immediately evicted.
    """

    def __init__(
        self,
        root: PathLike,
        max_bytes: int,
        events: Optional[Any] = None,
    ) -> None:
        super().__init__(root, events=events)
        self.max_bytes = int(max_bytes)
        self._size_lock = threading.Lock()
        # Entries whose put has started its commit but not yet added
        # its bytes (path -> puts in flight), budget scans in flight,
        # and a count of how many of either have started: enforce_budget
        # trusts a scan's directory total only when none overlapped it.
        self._committing: Dict[Path, int] = {}
        self._scanning = 0
        self._starts = 0
        self._disk_bytes = self.size_bytes()
        self._reserved_bytes = 0
        self.evictions = 0
        self.evicted_bytes = 0

    @property
    def approx_bytes(self) -> int:
        """The incrementally maintained committed-size account."""
        with self._size_lock:
            return self._disk_bytes

    @staticmethod
    def _estimate_bytes(value: Any) -> int:
        try:
            body = len(
                json.dumps(value, separators=(",", ":"), default=str)
            )
        except (TypeError, ValueError):
            body = 4096
        return body + _RECORD_OVERHEAD_BYTES

    def put(self, spec: JobSpec, key: str, value: Any) -> Path:
        estimate = self._estimate_bytes(value)
        with self._size_lock:
            self._reserved_bytes += estimate
            over = (
                self._disk_bytes + self._reserved_bytes > self.max_bytes
            )
        try:
            if over:
                # Make room *before* committing so the directory never
                # exceeds the budget mid-put, even with concurrent
                # writers (each one's reservation is accounted).
                self.enforce_budget()
            target = self.path_for(spec, key)
            with self._size_lock:
                self._committing[target] = self._committing.get(target, 0) + 1
                self._starts += 1
            added = 0
            try:
                path = super().put(spec, key, value)
                try:
                    added = path.stat().st_size
                except OSError:
                    added = estimate
            finally:
                with self._size_lock:
                    self._committing[target] -= 1
                    if not self._committing[target]:
                        del self._committing[target]
                    self._disk_bytes += added
        finally:
            with self._size_lock:
                self._reserved_bytes -= estimate
                over = self._disk_bytes > self.max_bytes
        if over:
            # Only reachable when the entry alone dwarfs the budget
            # (or the estimate was somehow beaten): evict immediately.
            self.enforce_budget()
        return path

    def entry_stats(self) -> List[Tuple[Path, int, int]]:
        """Committed entries, minus those whose put has not yet added
        their bytes to the account: ``gc`` cannot evict (and subtract)
        an entry before its put has counted it. Their reservations
        still hold the room they take."""
        with self._size_lock:
            pending = set(self._committing)
        return [
            item for item in super().entry_stats() if item[0] not in pending
        ]

    def enforce_budget(self) -> Dict[str, Any]:
        """Evict LRU entries until committed + reserved bytes fit.

        The committed account drops by the bytes ``gc`` freed. When no
        put committed and no other scan ran while ``gc`` scanned, the
        account is instead reconciled to the scan's exact directory
        total. A put that commits during the scan may or may not be in
        that total, so a raced scan must not overwrite the account; the
        lock is never held across the scan, so puts do not wait on it.
        """
        with self._size_lock:
            reserved = self._reserved_bytes
            quiet = not self._committing and not self._scanning
            self._scanning += 1
            self._starts += 1
            starts = self._starts
        try:
            summary = self.gc(max(0, self.max_bytes - reserved))
        except BaseException:
            with self._size_lock:
                self._scanning -= 1
            raise
        with self._size_lock:
            self._scanning -= 1
            if quiet and self._starts == starts:
                self._disk_bytes = summary["size_bytes"]
            else:
                self._disk_bytes -= summary["freed_bytes"]
            self.evictions += summary["evicted"]
            self.evicted_bytes += summary["freed_bytes"]
        return summary

    def stats(self) -> Dict[str, Any]:
        return {
            "max_bytes": self.max_bytes,
            "approx_bytes": self.approx_bytes,
            "entries": len(self),
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
        }


class ArtifactStore:
    """Content-addressed blob store: ``root/<aa>/<digest><suffix>``.

    ``put_bytes`` returns the SHA-256 hex digest — the only handle a
    caller ever needs. Storing the same bytes twice is free (the
    second write sees the path already exists and skips the copy), so
    a thousand identical small-sweep results occupy one blob.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _path_for(self, digest: str, suffix: str = "") -> Path:
        return self.root / digest[:2] / f"{digest}{suffix}"

    def put_bytes(self, data: bytes, suffix: str = "") -> str:
        digest = hashlib.sha256(data).hexdigest()
        path = self._path_for(digest, suffix)
        if path.exists():
            # Content-addressed: an existing path IS the same bytes.
            # Touch it so LRU gc sees the reuse.
            try:
                os.utime(path)
            except OSError:
                pass
            return digest
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent),
            prefix=f".tmp-{os.getpid()}-{threading.get_ident()}-",
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return digest

    def put_json(self, payload: Any, suffix: str = ".json") -> str:
        data = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode()
        return self.put_bytes(data, suffix)

    def find(self, digest: str) -> Optional[Path]:
        """The blob's path (any suffix), or None when absent."""
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

    # -- maintenance -----------------------------------------------------
    def _blob_stats(self) -> List[Tuple[Path, int, int]]:
        stats: List[Tuple[Path, int, int]] = []
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.iterdir()):
                if path.name.startswith(".tmp-"):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                stats.append((path, stat.st_size, stat.st_mtime_ns))
        stats.sort(key=lambda item: item[2])
        return stats

    def iter_digests(self) -> Iterator[str]:
        for path, _, _ in self._blob_stats():
            yield path.name.split(".", 1)[0]

    def size_bytes(self) -> int:
        return sum(size for _, size, _ in self._blob_stats())

    def __len__(self) -> int:
        return len(self._blob_stats())

    def gc(self, max_bytes: int) -> Dict[str, Any]:
        """Evict least-recently-used blobs until ≤ ``max_bytes``."""
        with self._lock:
            stats = self._blob_stats()
            total = sum(size for _, size, _ in stats)
            evicted = 0
            freed = 0
            for path, size, _ in stats:
                if total - freed <= max(0, int(max_bytes)):
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                evicted += 1
                freed += size
            return {
                "evicted": evicted,
                "freed_bytes": freed,
                "kept": len(stats) - evicted,
                "size_bytes": total - freed,
            }
