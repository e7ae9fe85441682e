"""Tests for repro.serve.store: bounded cache and artifact store."""

import json
import os
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.engine import JobSpec
from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.http import run_in_thread
from repro.serve.server import ServeServer
from repro.serve.store import ArtifactStore, BoundedResultCache


def _fill(cache, count, payload_bytes=200, code_version="v"):
    """Put ``count`` entries of roughly ``payload_bytes`` each."""
    for i in range(count):
        spec = JobSpec(runner="test.echo", seed=i, label=f"e{i}")
        key = cache.key_for(spec, code_version)
        cache.put(spec, key, {"blob": "x" * payload_bytes, "i": i})
        # Distinct mtimes so LRU order is well-defined on coarse clocks.
        entry = cache.path_for(spec, key)
        os.utime(entry, ns=(i, i))


class TestBoundedResultCache:
    def test_put_enforces_budget(self, tmp_path):
        cache = BoundedResultCache(tmp_path, max_bytes=1200)
        _fill(cache, 10)
        assert cache.size_bytes() <= 1200
        assert cache.approx_bytes == cache.size_bytes()
        assert cache.evictions > 0
        assert len(cache) < 10

    def test_never_exceeds_budget_during_fill(self, tmp_path):
        cache = BoundedResultCache(tmp_path, max_bytes=1500)
        for i in range(30):
            spec = JobSpec(runner="test.echo", seed=i)
            cache.put(spec, cache.key_for(spec, "v"), {"blob": "y" * 300})
            assert cache.size_bytes() <= 1500

    def test_eviction_is_lru(self, tmp_path):
        cache = BoundedResultCache(tmp_path, max_bytes=10**9)
        _fill(cache, 6)
        # Use entry 0 so it becomes most-recent despite oldest insert.
        spec0 = JobSpec(runner="test.echo", seed=0, label="e0")
        key0 = cache.key_for(spec0, "v")
        hit, _ = cache.get(spec0, key0)
        assert hit
        cache.max_bytes = 600  # roughly two entries
        cache.enforce_budget()
        assert cache.path_for(spec0, key0).exists()

    def test_initial_scan_counts_existing_entries(self, tmp_path):
        seed_cache = BoundedResultCache(tmp_path, max_bytes=10**9)
        _fill(seed_cache, 4)
        reopened = BoundedResultCache(tmp_path, max_bytes=10**9)
        assert reopened.approx_bytes == reopened.size_bytes() > 0

    def test_put_committing_after_scan_is_counted(self, tmp_path):
        cache = BoundedResultCache(tmp_path, max_bytes=2048)
        _fill(cache, 4, payload_bytes=300)
        # The next put must evict; one more put commits between gc's
        # directory scan and the account update that follows it, so
        # the scan's total does not include it.
        scan = cache.gc
        late = [JobSpec(runner="test.echo", seed=99, label="late")]

        def scan_then_put(max_bytes, events=None):
            summary = scan(max_bytes, events=events)
            if late:
                spec = late.pop()
                cache.put(spec, cache.key_for(spec, "v"), {"blob": "z" * 40})
            return summary

        cache.gc = scan_then_put
        spec = JobSpec(runner="test.echo", seed=100, label="last")
        cache.put(spec, cache.key_for(spec, "v"), {"blob": "x" * 300})
        assert not late
        assert cache.approx_bytes == cache.size_bytes() <= cache.max_bytes

    def test_concurrent_puts_keep_account_exact(self, tmp_path):
        cache = BoundedResultCache(tmp_path, max_bytes=8192)
        errors = []

        def writer(offset):
            try:
                for i in range(40):
                    spec = JobSpec(runner="test.echo", seed=offset + i)
                    cache.put(spec, cache.key_for(spec, "v"), {"b": "w" * 400})
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(1000 * t,))
                for t in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert cache.approx_bytes == cache.size_bytes() <= cache.max_bytes

    def test_stats_shape(self, tmp_path):
        cache = BoundedResultCache(tmp_path, max_bytes=4096)
        stats = cache.stats()
        assert set(stats) == {
            "max_bytes", "approx_bytes", "entries", "evictions",
            "evicted_bytes",
        }


def _listing(cache):
    """(path, bytes) of each committed entry file and each sidecar."""
    paths = list(cache.entries().values())
    if cache.arrays_dir.is_dir():
        paths += [
            p for p in cache.arrays_dir.iterdir()
            if not p.name.startswith(".tmp-")
        ]
    listing = set()
    for path in paths:
        try:
            listing.add((path, path.stat().st_size))
        except FileNotFoundError:
            pass
    return listing


def _on_disk(cache):
    return sum(size for _, size in _listing(cache))


def _put_array(cache, seed, arr):
    """One array-valued put, the way the engine settles a job."""
    spec = JobSpec(runner="test.array", seed=seed)
    key = cache.key_for(spec, "v")
    normalised, _ = cache.encode_value({"values": arr, "seed": seed})
    cache.put(spec, key, normalised)
    return spec, key


def _strict_get(cache, spec, key):
    """``get`` with every warning (a quarantine, say) raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cache.get(spec, key)


class TestBoundedSidecars:
    """The budget counts the .npy sidecars that array values write."""

    def test_array_puts_into_a_full_budget_hit(self, tmp_path):
        cache = BoundedResultCache(tmp_path, max_bytes=64 * 1024)
        _fill(cache, 150, payload_bytes=400)
        assert cache.evictions > 0  # the budget is full
        for seed in range(1000, 1004):
            arr = np.linspace(0.0, seed, 3000)
            spec, key = _put_array(cache, seed, arr)
            hit, value = _strict_get(cache, spec, key)
            assert hit
            assert value["values"] == arr.tolist()
        assert not cache.quarantine_dir.exists()

    def test_sidecars_count_against_the_budget(self, tmp_path):
        cache = BoundedResultCache(tmp_path, max_bytes=512 * 1024)
        rng = np.random.default_rng(3)
        for seed in range(8):
            _put_array(cache, seed, rng.standard_normal(10_000))
            on_disk = _on_disk(cache)
            assert on_disk <= cache.max_bytes
            assert on_disk == cache.approx_bytes == cache.size_bytes()
        assert cache.evictions > 0

    def test_concurrent_array_puts_stay_within_budget(self, tmp_path):
        cache = BoundedResultCache(tmp_path, max_bytes=256 * 1024)
        rng = np.random.default_rng(5)
        shared = [rng.standard_normal(2000) for _ in range(23)]
        errors = []
        samples = []
        writing = threading.Event()
        writing.set()

        def writer(t):
            try:
                for n in range(60):
                    i = (n + 15 * t) % 60
                    _put_array(cache, i, shared[i % 23])
            except Exception as exc:  # reported below
                errors.append(exc)

        def sampler():
            # A sample counts only when two listings in a row agree, so
            # it never adds up files that did not exist at one time.
            previous = None
            while writing.is_set():
                listing = _listing(cache)
                if listing == previous:
                    samples.append(sum(size for _, size in listing))
                previous = listing

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            watcher = threading.Thread(target=sampler)
            watcher.start()
            threads = [
                threading.Thread(target=writer, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            writing.clear()
            watcher.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [watcher])
        assert not errors
        assert samples and max(samples) <= cache.max_bytes
        assert cache.approx_bytes == cache.size_bytes() <= cache.max_bytes
        survivors = 0
        for i in range(60):
            spec = JobSpec(runner="test.array", seed=i)
            key = cache.key_for(spec, "v")
            if cache.path_for(spec, key).exists():
                hit, value = _strict_get(cache, spec, key)
                assert hit and value["values"] == shared[i % 23].tolist()
                survivors += 1
        assert survivors > 0

    def test_quarantine_leaves_the_account_exact(self, tmp_path):
        cache = BoundedResultCache(tmp_path, max_bytes=10**9)
        rng = np.random.default_rng(7)
        arrays = [rng.standard_normal(2000) for _ in range(2)]
        corrupt_entry = _put_array(cache, 0, arrays[0])
        bad_sidecar = _put_array(cache, 1, arrays[1])
        sharer = _put_array(cache, 2, arrays[1])  # shares that sidecar
        cache.path_for(*corrupt_entry).write_text("{nope")
        record = json.loads(cache.path_for(*bad_sidecar).read_text())
        digest = record["value"]["values"]["__npy__"]["digest"]
        sidecar = cache.arrays_dir / f"{digest}.npy"
        # Same size, so only the quarantines can move the totals.
        sidecar.write_bytes(b"x" * sidecar.stat().st_size)
        for spec, key in (corrupt_entry, bad_sidecar, sharer):
            with pytest.warns(RuntimeWarning, match="quarantined"):
                assert cache.get(spec, key) == (False, None)
            assert cache.approx_bytes == cache.size_bytes()
        assert cache.stats()["entries"] == 0

    def test_no_directory_scan_after_construction(self, tmp_path, monkeypatch):
        _fill(BoundedResultCache(tmp_path, max_bytes=10**9), 4)
        cache = BoundedResultCache(tmp_path, max_bytes=96 * 1024)

        def scan(*args, **kwargs):
            raise AssertionError("the cache directory was scanned")

        monkeypatch.setattr(cache, "entry_stats", scan)
        for name in ("glob", "rglob", "iterdir"):
            monkeypatch.setattr(Path, name, scan)
        monkeypatch.setattr(os, "listdir", scan)
        monkeypatch.setattr(os, "scandir", scan)
        rng = np.random.default_rng(11)
        puts = [
            _put_array(cache, seed, rng.standard_normal(4000))
            for seed in range(6)
        ]
        _fill(cache, 4)
        assert _strict_get(cache, *puts[-1])[0]
        stats = cache.stats()
        monkeypatch.undo()
        assert stats["evictions"] > 0
        assert stats["approx_bytes"] == cache.size_bytes() <= cache.max_bytes


class TestServeCacheBudget:
    def test_array_jobs_stay_within_the_serve_budget(self, tmp_path):
        config = ServeConfig(
            data_dir=tmp_path / "serve", port=0, max_concurrency=1,
            cache_max_bytes=1024 * 1024,
        )
        handle = run_in_thread(config)
        try:
            client = ServeClient(handle.url)
            cache = handle.core.cache
            for seed in range(4):
                record = client.submit(["test.array"], seed=seed)
                assert client.wait(record["id"], timeout=60)["state"] == "done"
                assert _on_disk(cache) <= config.cache_max_bytes
            again = client.submit(["test.array"], seed=3)
            final = client.wait(again["id"], timeout=60)
            assert final["counts"]["cached"] == 1
            assert cache.evictions > 0
        finally:
            handle.stop()
        assert not (config.cache_dir / "quarantine").exists()
        reborn = run_in_thread(
            ServeConfig(
                data_dir=tmp_path / "serve", port=0, replay_journal=False,
                cache_max_bytes=1024 * 1024,
            )
        )
        try:
            cache = reborn.core.cache
            assert cache.approx_bytes == cache.size_bytes() > 0
        finally:
            reborn.stop()


class TestArtifactStore:
    def test_roundtrip_and_dedup(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_bytes(b"hello world")
        assert store.get_bytes(digest) == b"hello world"
        assert store.put_bytes(b"hello world") == digest
        assert len(store) == 1
        assert digest in store

    def test_json_roundtrip_is_canonical(self, tmp_path):
        store = ArtifactStore(tmp_path)
        d1 = store.put_json({"b": 2, "a": 1})
        d2 = store.put_json({"a": 1, "b": 2})
        assert d1 == d2  # key order cannot fork the address
        assert store.get_json(d1) == {"a": 1, "b": 2}

    def test_missing_digest(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get_bytes("ff" * 32) is None
        assert ("ff" * 32) not in store

    def test_sharded_layout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put_bytes(b"data", suffix=".json")
        path = store.find(digest)
        assert path is not None
        assert path.parent.name == digest[:2]
        assert path.name == digest + ".json"

    def test_concurrent_writers_same_content(self, tmp_path):
        store = ArtifactStore(tmp_path)
        results = []

        def _put():
            results.append(store.put_bytes(b"shared payload"))

        threads = [threading.Thread(target=_put) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(results)) == 1
        assert len(store) == 1
        assert not list(tmp_path.rglob(".tmp-*"))


def _forbid_scans(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("a directory was scanned")

    for name in ("glob", "rglob", "iterdir"):
        monkeypatch.setattr(Path, name, scan)
    monkeypatch.setattr(os, "listdir", scan)
    monkeypatch.setattr(os, "scandir", scan)


def _racing_puts(store, payloads, writers=4):
    """Every writer puts every payload, each from its own offset."""
    errors = []

    def writer(t):
        try:
            for n in range(len(payloads)):
                store.put_bytes(payloads[(n + 3 * t) % len(payloads)])
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors


class TestArtifactCounts:
    """Blob counts are kept live: read without listing the store."""

    PAYLOADS = [bytes([i]) * (100 + 7 * i) for i in range(12)]

    def test_counts_match_a_fresh_scan_after_racing_puts(
        self, tmp_path, monkeypatch
    ):
        ArtifactStore(tmp_path).put_bytes(self.PAYLOADS[0])
        store = ArtifactStore(tmp_path)
        _racing_puts(store, self.PAYLOADS)
        _forbid_scans(monkeypatch)
        counts = (len(store), store.size_bytes())
        monkeypatch.undo()
        fresh = ArtifactStore(tmp_path)
        assert counts == (len(fresh), fresh.size_bytes())
        assert counts == (12, sum(len(p) for p in self.PAYLOADS))

    def test_server_stats_list_no_directory(self, tmp_path, monkeypatch):
        config = ServeConfig(data_dir=tmp_path / "serve", port=0)
        ArtifactStore(config.artifacts_dir).put_json({"before": "start"})
        core = ServeServer(config)
        try:
            _racing_puts(core.artifacts, self.PAYLOADS)
            _forbid_scans(monkeypatch)
            stats = core.stats()
            monkeypatch.undo()
        finally:
            core.close()
        fresh = ArtifactStore(config.artifacts_dir)
        assert stats["artifacts"] == {
            "blobs": len(fresh),
            "size_bytes": fresh.size_bytes(),
        }
        assert stats["artifacts"]["blobs"] == 13
