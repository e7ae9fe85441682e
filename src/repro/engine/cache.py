"""On-disk result store: repeated sweeps become incremental.

Each completed job is persisted as one JSON file keyed by a stable
SHA-256 of ``(runner, kwargs, seed, scale, code-version tag)``. Values
are normalised through :func:`repro.experiments.export.to_jsonable`
before storage (:meth:`ResultCache.encode_value`; arrays of at least
``SIDECAR_MIN_ELEMS`` elements go to content-addressed ``.npy``
sidecars), and come back through
:func:`repro.experiments.export.from_jsonable`, the one decoder
(:meth:`ResultCache.decode_value`). A fresh put and a later hit both
run it, so a hit returns exactly what a fresh execution did, type for
type, across processes and machines.

The default code-version tag hashes every ``.py`` file under the
``repro`` package: editing any source invalidates prior entries, which
keeps stale results from leaking into regenerated artifacts.

The store is bounded on demand, not on write: :meth:`ResultCache.gc`
builds a :class:`CacheAccount` in one scan — entries in LRU order with
the ``.npy`` sidecars each references, each shared sidecar counted
once — and evicts least-recently-used entries (by mtime — :meth:`get`
touches an entry on every hit, so recency tracks *use*, not creation),
each with the sidecars only it held, until entries plus sidecars fit a
byte budget. The quarantine directory never counts against the budget
and is never evicted — corrupt entries are kept for post-mortems until
explicitly cleared. ``python -m repro cache`` exposes both (``ls``,
``gc --max-bytes``), and :class:`repro.serve.store.BoundedResultCache`
keeps the account live to enforce the budget continuously.

Concurrent writers are safe: each entry and sidecar is staged under a
PID/thread-unique temp name beside its target and ``os.replace``d over
the target, so two processes (or two threads of the serve pool) racing
to persist the same key both land whole files — last writer wins,
readers never observe a torn entry.

A cache holds no sweep state. ``get``, ``put``, ``encode_value`` and
``gc`` take the calling sweep's event sink (``events``), and ``get``
and ``put`` its fault plan (``faults``), so sweeps that share one cache
each find their own ``cache_*`` events in their own ledger.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import tempfile
import threading
import warnings
from collections import Counter, OrderedDict
from pathlib import Path
from typing import (
    Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union,
)

import numpy as np

from repro.experiments.export import from_jsonable, to_jsonable
from repro.engine.spec import JobSpec
from repro.obs.events import EventSink

PathLike = Union[str, Path]

#: Marker key for a value stored out-of-line as an ``.npy`` sidecar.
NPY_MARKER = "__npy__"

#: Arrays with at least this many elements go to sidecars rather than
#: inflated JSON lists (a 10k-float list is ~19x the binary size and
#: ~100x the decode cost).
SIDECAR_MIN_ELEMS = 1024

#: A sidecar's name stem: the :func:`array_digest` of its array.
_DIGEST = re.compile(r"[0-9a-f]{32}")


def array_digest(arr: "np.ndarray") -> str:
    """Content address of one ndarray (dtype + shape + bytes)."""
    arr = np.ascontiguousarray(arr)
    digest = hashlib.sha256()
    digest.update(arr.dtype.str.encode())
    digest.update(str(arr.shape).encode())
    digest.update(memoryview(arr).cast("B"))
    return digest.hexdigest()[:32]


def _array_to_lists(arr: "np.ndarray") -> Any:
    """One ndarray → the nested lists an inline entry decodes to:
    ``from_jsonable(to_jsonable(arr))``, with NaN as ``None`` and ±inf
    as floats. This is what makes sidecar-backed entries type-identical
    to inline ones."""
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        out = arr.astype(object)
        out[np.isnan(arr)] = None
        return out.tolist()
    return arr.tolist()


def _npy_bytes(arr: "np.ndarray") -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, arr, allow_pickle=False)
    return buffer.getvalue()


def _descriptor(node: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The sidecar descriptor ``node`` is (``{NPY_MARKER: desc}``), or
    ``None`` for any other dict."""
    desc = node.get(NPY_MARKER) if len(node) == 1 else None
    if isinstance(desc, dict) and _DIGEST.fullmatch(str(desc.get("digest"))):
        return desc
    return None


def _descriptors(node: Any) -> Iterator[Dict[str, Any]]:
    """Every sidecar descriptor in a value."""
    if isinstance(node, dict):
        desc = _descriptor(node)
        if desc is not None:
            yield desc
            return
        node = node.values()
    elif not isinstance(node, list):
        return
    for item in node:
        if isinstance(item, (dict, list)):
            yield from _descriptors(item)


def _write_atomic(path: Path, data: bytes, replace: Any = os.replace) -> None:
    """Land ``data`` at ``path`` whole: write and fsync a staging file
    beside it, then ``replace(staging, path)``. A crash mid-write leaves
    readers the old file, the new file, or nothing, never a torn one.

    mkstemp alone is collision-free, but a PID/thread-unique prefix
    keeps staging files attributable (which process left this behind?)
    and guarantees two racing writers of one target never share a
    staging name even on filesystems with weak O_EXCL semantics.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent),
        prefix=f".tmp-{os.getpid()}-{threading.get_ident()}-",
        suffix=path.suffix,
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


class CacheAccount:
    """What a cache directory holds, as one byte ``total``.

    ``entries`` maps each committed record's file name to its bytes and
    the sidecar digests it references, least recently used first.
    ``sidecars`` maps each ``.npy`` file on disk to its bytes, so a
    shared sidecar counts once. ``refs`` counts a digest's holders: the
    entries that reference it and the puts in flight that pinned it.
    Each method that drops holds returns the sidecars left without one,
    for the caller to unlink.
    """

    def __init__(self) -> None:
        self.entries: OrderedDict[str, Tuple[int, FrozenSet[str]]]
        self.entries = OrderedDict()
        self.sidecars: Dict[str, int] = {}
        self.refs: Counter = Counter()
        self.total = 0

    def add_sidecar(self, digest: str, size: int) -> None:
        if digest not in self.sidecars:
            self.sidecars[digest] = size
            self.total += size

    def drop_sidecar(self, digest: str) -> int:
        size = self.sidecars.pop(digest, 0)
        self.total -= size
        return size

    def add_entry(
        self, name: str, size: int, digests: Iterable[str]
    ) -> List[str]:
        """Count ``name`` as the most recently used entry, replacing its
        previous version (whose sidecars the new one may share)."""
        digests = frozenset(digests)
        self.refs.update(digests)
        orphans = self.drop_entry(name)
        self.entries[name] = (size, digests)
        self.total += size
        return orphans

    def drop_entry(self, name: str) -> List[str]:
        size, digests = self.entries.pop(name, (0, frozenset()))
        self.total -= size
        return self.release(digests)

    def release(self, digests: Iterable[str]) -> List[str]:
        """Drop one hold per digest (the caller holds each it names)."""
        orphans: List[str] = []
        for digest in digests:
            self.refs[digest] -= 1
            if self.refs[digest] <= 0:
                del self.refs[digest]
                if digest in self.sidecars and digest not in orphans:
                    orphans.append(digest)
        return orphans


# Memo for default_code_version, keyed per source root on a cheap
# (path, mtime_ns, size) scan rather than process lifetime: a
# long-lived session that edits sources gets a fresh tag on the next
# sweep instead of silently writing cache entries under the stale one.
_CODE_VERSION_MEMO: Dict[str, Tuple[Tuple, str]] = {}


def _source_signature(root: Path) -> Tuple:
    """Stat-level fingerprint of every ``.py`` file under ``root``."""
    signature = []
    for path in sorted(root.rglob("*.py")):
        try:
            stat = path.stat()
        except OSError:
            continue
        signature.append(
            (path.relative_to(root).as_posix(), stat.st_mtime_ns, stat.st_size)
        )
    return tuple(signature)


def default_code_version(root: Optional[PathLike] = None) -> str:
    """A short digest over the ``repro`` package sources (or ``root``).

    Re-hashing ~200 files on every call would be wasteful, so the
    digest is memoised — but on a (path, mtime, size) scan of the
    tree, not for the process lifetime. Editing, adding, or removing
    any module invalidates the memo and yields a new tag.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).parent
    root = Path(root)
    signature = _source_signature(root)
    memo = _CODE_VERSION_MEMO.get(str(root))
    if memo is not None and memo[0] == signature:
        return memo[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        try:
            digest.update(path.read_bytes())
        except OSError:
            continue
    version = digest.hexdigest()[:16]
    _CODE_VERSION_MEMO[str(root)] = (signature, version)
    return version


def clear_code_version_memo() -> None:
    """Drop every memoised code-version tag (tests, forced refresh)."""
    _CODE_VERSION_MEMO.clear()


class ResultCache:
    """A directory of ``<runner>-<key>.json`` result files.

    The cache holds no sweep state. A call that can emit an event takes
    the calling sweep's :class:`repro.obs.events.EventSink` as
    ``events``: every hit and store emits a ``cache_hit``/``cache_put``
    event into that sweep's ledger, and nowhere else.

    Corrupt entries — unparsable JSON, or JSON without the expected
    record shape — are *quarantined*: moved into
    ``<root>/quarantine/`` (preserved for post-mortems, with a ``.N``
    suffix on name collisions), warned about, recorded as a
    ``cache_quarantine`` event, and treated as a miss so the job is
    simply recomputed. A merely unreadable entry (permissions, I/O
    error) is left in place and counts as a miss.

    :meth:`get` and :meth:`put` also take the sweep's
    :class:`repro.faults.FaultPlan` as ``faults``: ``cache_corrupt``
    damages an entry on disk just before it is read and
    ``cache_put_fail`` makes :meth:`put` raise ``ENOSPC``.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def key_for(self, spec: JobSpec, code_version: Optional[str] = None) -> str:
        """Stable content key for one job under one code version."""
        payload = {
            "runner": spec.runner,
            "kwargs": to_jsonable(dict(spec.kwargs)),
            "seed": spec.seed,
            "scale": spec.scale,
            "code_version": code_version or default_code_version(),
        }
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:24]

    def path_for(self, spec: JobSpec, key: str) -> Path:
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", spec.runner)
        return self.root / f"{safe}-{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are preserved (not auto-created)."""
        return self.root / "quarantine"

    @property
    def arrays_dir(self) -> Path:
        """Content-addressed ``.npy`` sidecars (not auto-created)."""
        return self.root / "arrays"

    # -- array sidecars --------------------------------------------------
    def _store_array(
        self, arr: "np.ndarray", events: Optional[EventSink] = None
    ) -> str:
        """Persist one ndarray as ``arrays/<digest>.npy``; returns digest.

        Content-addressed, so identical arrays across entries share one
        file and a re-put of the same key is a no-op. Written atomically
        like entries: concurrent writers of the same digest both land
        whole files with identical bytes. ``events`` receives any
        eviction the write causes (a plain cache causes none).
        """
        arr = np.ascontiguousarray(arr)
        digest = array_digest(arr)
        path = self.arrays_dir / f"{digest}.npy"
        if not path.exists():
            self.arrays_dir.mkdir(parents=True, exist_ok=True)
            _write_atomic(path, _npy_bytes(arr))
        return digest

    def _release_sidecars(self, digests: Iterable[str]) -> None:
        """The sidecars :meth:`encode_value` stored, once no put of its
        value will reference them: the put is over or encoding failed.
        A plain cache keeps no account, so an orphan waits for
        :meth:`gc`."""

    def _load_array(self, desc: Dict[str, Any]) -> "np.ndarray":
        """Load one sidecar and verify it matches its descriptor.

        Raises ``OSError`` (missing/unreadable) or ``ValueError``
        (corrupt ``.npy``, or content drift vs the descriptor) — the
        caller quarantines the referencing entry and misses.
        """
        path = self.arrays_dir / f"{desc['digest']}.npy"
        arr = np.load(path, allow_pickle=False)
        if arr.dtype.str != desc.get("dtype") or list(arr.shape) != list(
            desc.get("shape", [])
        ):
            raise ValueError(
                f"sidecar {desc['digest']}.npy does not match its descriptor"
            )
        return arr

    def encode_value(
        self, value: Any, *, events: Optional[EventSink] = None
    ) -> Tuple[Any, Dict[str, "np.ndarray"]]:
        """Normalise a job result, diverting large arrays to sidecars.

        Returns ``(normalised, arrays)``: the strict-JSON record value
        (large ndarrays replaced by ``{NPY_MARKER: {...}}`` descriptors)
        plus a digest→array memo so :meth:`decode_value` on the fresh
        path never re-reads what was just written. Arrays below
        ``SIDECAR_MIN_ELEMS`` or of non-numeric dtype decline the hook
        and take the normal inline path; ``to_jsonable`` enforces the
        export cap before offering an array, so cached and uncached
        sweeps fail (or not) identically. A sidecar write error also
        declines to inline: storage trouble degrades performance,
        never correctness. ``events`` is the calling sweep's sink.
        """
        arrays: Dict[str, np.ndarray] = {}
        stored: List[str] = []

        def hook(arr: "np.ndarray") -> Optional[Dict[str, Any]]:
            if arr.size < SIDECAR_MIN_ELEMS or arr.dtype.kind not in "biuf":
                return None
            try:
                digest = self._store_array(arr, events)
            except OSError:
                return None
            stored.append(digest)
            contiguous = np.ascontiguousarray(arr)
            arrays[digest] = contiguous
            return {
                NPY_MARKER: {
                    "digest": digest,
                    "dtype": contiguous.dtype.str,
                    "shape": list(contiguous.shape),
                }
            }

        try:
            return to_jsonable(value, array_hook=hook), arrays
        except BaseException:
            self._release_sidecars(stored)
            raise

    def decode_value(
        self,
        value: Any,
        arrays: Optional[Dict[str, "np.ndarray"]] = None,
    ) -> Any:
        """A stored value as the engine hands it back, in one walk:
        :func:`from_jsonable`, whose hook turns each sidecar descriptor
        into the lists an inline entry decodes to. ``arrays`` is the
        fresh-put memo; descriptors not in it are read from disk
        (``OSError``/``ValueError`` if gone or corrupt).
        """

        def hook(node: Dict[str, Any]) -> Any:
            desc = _descriptor(node)
            if desc is None:
                return None
            arr = arrays.get(desc["digest"]) if arrays else None
            if arr is None:
                arr = self._load_array(desc)
            return _array_to_lists(arr)

        return from_jsonable(value, array_hook=hook)

    def _quarantine(
        self,
        path: Path,
        spec: JobSpec,
        reason: str,
        sidecars: Iterable[str] = (),
        events: Optional[EventSink] = None,
    ) -> None:
        """Move a corrupt entry aside (for post-mortems), unlink the bad
        ``sidecars`` it referenced, warn, and tell ``events``."""
        for digest in sidecars:
            with contextlib.suppress(OSError):
                (self.arrays_dir / f"{digest}.npy").unlink()
        target_dir = self.quarantine_dir
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / path.name
            n = 0
            while target.exists():
                n += 1
                target = target_dir / f"{path.name}.{n}"
            os.replace(str(path), str(target))
        except OSError:
            # Quarantine is best-effort: an unmovable corrupt entry
            # still counts as a miss and gets overwritten by the put.
            target = path
        warnings.warn(
            f"quarantined corrupt cache entry {path.name} ({reason}); "
            "the job will be recomputed",
            RuntimeWarning,
            stacklevel=3,
        )
        if events is not None:
            events.emit(
                "cache_quarantine",
                index=spec.index,
                runner=spec.runner,
                label=spec.display,
                entry=path.name,
                quarantined_to=str(target),
                reason=reason,
            )

    def get(
        self,
        spec: JobSpec,
        key: str,
        *,
        events: Optional[EventSink] = None,
        faults: Optional[Any] = None,
    ) -> Tuple[bool, Any]:
        """(hit, value), the value decoded as :meth:`decode_value` decodes
        a fresh put. Corrupt entries are quarantined and miss."""
        path = self.path_for(spec, key)
        if faults is not None and path.exists():
            fault = faults.decide(
                "cache_corrupt", index=spec.index, runner=spec.runner
            )
            if fault is not None:
                from repro.faults.corrupt import truncate_tail

                truncate_tail(path)
        try:
            with path.open() as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return False, None
        except OSError:
            # Unreadable but maybe intact (permissions, I/O error):
            # leave it alone, recompute this time.
            return False, None
        except ValueError as exc:
            self._quarantine(
                path, spec, f"invalid JSON: {exc}", events=events
            )
            return False, None
        if not isinstance(record, dict) or "value" not in record:
            self._quarantine(path, spec, "not a cache record", events=events)
            return False, None
        try:
            value = self.decode_value(record["value"])
        except (OSError, ValueError) as exc:
            # A record whose sidecar is gone or corrupt is itself
            # unusable: quarantine the entry and drop the bad sidecar
            # files too — content-addressed puts skip existing paths,
            # so a poisoned sidecar left in place would survive the
            # recompute and fail every future hit.
            bad = []
            for desc in _descriptors(record["value"]):
                try:
                    self._load_array(desc)
                except (OSError, ValueError):
                    bad.append(desc["digest"])
            self._quarantine(
                path, spec, f"unusable array sidecar: {exc}", bad, events
            )
            return False, None
        try:
            # Touch on hit: gc evicts by mtime, so recency must track
            # *use* — a daily-hit entry outlives a week-old write-once.
            os.utime(path)
        except OSError:
            pass
        if events is not None:
            events.emit(
                "cache_hit",
                index=spec.index,
                runner=spec.runner,
                label=spec.display,
                key=key,
            )
        return True, value

    def put(
        self,
        spec: JobSpec,
        key: str,
        value: Any,
        *,
        events: Optional[EventSink] = None,
        faults: Optional[Any] = None,
    ) -> Path:
        """Atomically persist one normalised job result.

        Written with :func:`_write_atomic`, so a crash mid-write can
        never leave a half-written entry under the real name — readers
        see the old entry, the new entry, or nothing.
        """
        path = self.path_for(spec, key)
        if faults is not None:
            fault = faults.decide(
                "cache_put_fail", index=spec.index, runner=spec.runner
            )
            if fault is not None:
                raise OSError(
                    errno.ENOSPC, "injected cache put failure (disk full)"
                )
        record = {
            "runner": spec.runner,
            "label": spec.display,
            "seed": spec.seed,
            "scale": spec.scale,
            "key": key,
            "value": value,
        }
        data = (json.dumps(record, allow_nan=False) + "\n").encode()
        self._write_entry(path, data, value, events)
        if events is not None:
            events.emit(
                "cache_put",
                index=spec.index,
                runner=spec.runner,
                label=spec.display,
                key=key,
            )
        return path

    def _write_entry(
        self,
        path: Path,
        data: bytes,
        value: Any,
        events: Optional[EventSink] = None,
    ) -> None:
        """Land one serialised record (``value`` is the value it holds;
        ``events`` receives any eviction the write causes)."""
        _write_atomic(path, data)

    # -- maintenance -----------------------------------------------------
    def entries(self) -> Dict[str, Path]:
        """Committed cache records only, keyed by filename stem.

        ``path_for`` always ends a record name with the 24-hex content
        key, which is what distinguishes records from other residents
        of the directory (``last-sweep.manifest.json``, quarantine,
        ``.tmp-*`` staging files) — a manifest must never be counted
        against the byte budget or LRU-evicted as if it were a result.
        """
        return {
            path.stem: path
            for path in sorted(self.root.glob("*-*.json"))
            if re.fullmatch(r"[0-9a-f]{24}", path.stem.rsplit("-", 1)[-1])
        }

    def __len__(self) -> int:
        return len(self.entries())

    def entry_stats(self) -> List[Tuple[Path, int, int]]:
        """``(path, size_bytes, mtime_ns)`` per entry, LRU-first.

        Quarantined entries and in-flight ``.tmp-*`` staging files are
        excluded — only real, committed cache records count against a
        byte budget. Entries that vanish mid-scan (a concurrent gc or
        clear) are simply skipped.
        """
        stats: List[Tuple[Path, int, int]] = []
        for path in self.entries().values():
            try:
                stat = path.stat()
            except OSError:
                continue
            stats.append((path, stat.st_size, stat.st_mtime_ns))
        stats.sort(key=lambda item: item[2])
        return stats

    def scan(self) -> CacheAccount:
        """The account of this directory, built in one pass; entry bodies
        are read only when ``arrays/`` holds sidecars."""
        account = CacheAccount()
        for path in self.arrays_dir.glob("*.npy"):
            if _DIGEST.fullmatch(path.stem):
                with contextlib.suppress(OSError):
                    account.add_sidecar(path.stem, path.stat().st_size)
        for path, size, _ in self.entry_stats():
            digests: List[str] = []
            if account.sidecars:
                try:
                    with path.open() as handle:
                        value = json.load(handle)["value"]
                    digests = [d["digest"] for d in _descriptors(value)]
                except (OSError, ValueError, KeyError, TypeError):
                    pass
            account.add_entry(path.name, size, digests)
        return account

    def size_bytes(self) -> int:
        """Entry plus sidecar bytes (quarantine and staging excluded)."""
        return self.scan().total

    def gc(
        self, max_bytes: int, *, events: Optional[EventSink] = None
    ) -> Dict[str, Any]:
        """Evict least-recently-used entries until ≤ ``max_bytes``.

        Sizes count entries plus sidecars (see :meth:`size_bytes`), and
        sidecars no entry references go first. Run it on an idle
        directory: a sweep in progress writes its sidecars before the
        entry that references them. Returns a summary dict:
        ``evicted``/``freed_bytes``/``arrays_removed`` for what was
        removed, ``kept``/``size_bytes`` for what remains. Each eviction
        emits a ``cache_evict`` event into ``events``.
        """
        return self._evict(self.scan(), max(0, int(max_bytes)), events)

    def _evict(
        self,
        account: CacheAccount,
        max_bytes: int,
        events: Optional[EventSink] = None,
    ) -> Dict[str, Any]:
        """Unlink orphan sidecars, then LRU entries, each with the sidecars
        only it held, until ``account`` fits ``max_bytes``."""
        evicted = 0
        orphans = [d for d in account.sidecars if d not in account.refs]
        arrays, freed = self._unlink_sidecars(account, orphans)
        while account.total > max_bytes and account.entries:
            name, (size, _) = next(iter(account.entries.items()))
            orphans = account.drop_entry(name)
            with contextlib.suppress(OSError):
                (self.root / name).unlink()
            removed, sidecar_bytes = self._unlink_sidecars(account, orphans)
            evicted += 1
            arrays += removed
            freed += size + sidecar_bytes
            if events is not None:
                events.emit(
                    "cache_evict",
                    entry=name,
                    bytes=size + sidecar_bytes,
                    reason=f"lru (max_bytes={max_bytes})",
                )
        return {
            "evicted": evicted,
            "freed_bytes": freed,
            "kept": len(account.entries),
            "size_bytes": account.total,
            "arrays_removed": arrays,
        }

    def _unlink_sidecars(
        self, account: CacheAccount, digests: Iterable[str]
    ) -> Tuple[int, int]:
        """Drop sidecars from ``account`` and disk: (files, bytes) freed."""
        removed = freed = 0
        for digest in digests:
            size = account.drop_sidecar(digest)
            try:
                (self.arrays_dir / f"{digest}.npy").unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        return removed, freed

    def clear(self) -> int:
        """Evict every entry and sidecar (``gc(0)``); returns the number
        of entries removed."""
        return self.gc(0)["evicted"]
