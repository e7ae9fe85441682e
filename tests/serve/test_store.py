"""Tests for repro.serve.store: bounded cache and artifact store."""

import json
import os
import sys
import threading
import time

import pytest

from repro.engine import JobSpec
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

        def scan_then_put(max_bytes):
            summary = scan(max_bytes)
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

    def test_gc_evicts_lru(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digests = []
        for i in range(5):
            digest = store.put_bytes(f"blob-{i}".encode() * 50)
            os.utime(store.find(digest), ns=(i, i))
            digests.append(digest)
        summary = store.gc(max_bytes=store.size_bytes() - 1)
        assert summary["evicted"] >= 1
        assert digests[0] not in store  # oldest went first
        assert digests[-1] in store

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
