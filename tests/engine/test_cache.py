"""Tests for repro.engine.cache: keys, persistence, hit/miss behavior."""

import json
import os
import subprocess
import sys
import pytest

from pathlib import Path

from repro.engine import JobSpec, ResultCache, SweepSpec, execute
from repro.engine.cache import clear_code_version_memo, default_code_version


class TestKeys:
    def test_key_is_stable(self):
        cache = ResultCache.__new__(ResultCache)  # no dir needed for keys
        spec = JobSpec(runner="fig2", kwargs={"a": 1}, seed=3, scale=0.5)
        assert cache.key_for(spec, "v1") == cache.key_for(spec, "v1")

    def test_key_is_pinned(self):
        # Entries written by earlier versions must keep their keys.
        cache = ResultCache.__new__(ResultCache)
        spec = JobSpec(runner="fig2", kwargs={"a": 1}, seed=3, scale=0.5)
        assert cache.key_for(spec, "v1") == "be0861a83df1e654073f2199"

    def test_key_varies_with_inputs(self):
        cache = ResultCache.__new__(ResultCache)
        base = JobSpec(runner="fig2", kwargs={"a": 1}, seed=3, scale=0.5)
        variants = [
            base.replace(runner="fig3"),
            base.replace(kwargs={"a": 2}),
            base.replace(seed=4),
            base.replace(scale=0.25),
        ]
        keys = {cache.key_for(spec, "v1") for spec in [base] + variants}
        assert len(keys) == 5

    def test_key_varies_with_code_version(self):
        cache = ResultCache.__new__(ResultCache)
        spec = JobSpec(runner="fig2")
        assert cache.key_for(spec, "v1") != cache.key_for(spec, "v2")

    def test_index_and_label_do_not_affect_key(self):
        cache = ResultCache.__new__(ResultCache)
        spec = JobSpec(runner="fig2", seed=1)
        assert cache.key_for(spec, "v") == cache.key_for(
            spec.replace(index=7, label="other"), "v"
        )

    def test_default_code_version_is_short_hex(self):
        version = default_code_version()
        assert len(version) == 16
        int(version, 16)


class TestCodeVersionFreshness:
    """Regression: the tag was lru_cached for the process lifetime, so
    editing sources in a long-lived session kept writing cache entries
    under the stale tag. The memo is now keyed on a (path, mtime, size)
    scan of the tree."""

    @staticmethod
    def _fake_package(tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "mod.py").write_text("X = 1\n")
        return root

    @staticmethod
    def _bump_mtime(path):
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))

    def test_editing_a_module_changes_the_tag(self, tmp_path):
        root = self._fake_package(tmp_path)
        before = default_code_version(root)
        (root / "mod.py").write_text("X = 2\n")
        self._bump_mtime(root / "mod.py")
        after = default_code_version(root)
        assert before != after

    def test_adding_and_removing_modules_changes_the_tag(self, tmp_path):
        root = self._fake_package(tmp_path)
        before = default_code_version(root)
        (root / "extra.py").write_text("Y = 1\n")
        grown = default_code_version(root)
        assert grown != before
        (root / "extra.py").unlink()
        assert default_code_version(root) == before

    def test_unchanged_tree_reuses_memo_without_rehashing(
        self, tmp_path, monkeypatch
    ):
        import hashlib

        root = self._fake_package(tmp_path)
        first = default_code_version(root)
        monkeypatch.setattr(
            hashlib,
            "sha256",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("re-hashed an unchanged tree")
            ),
        )
        assert default_code_version(root) == first

    def test_stale_entries_not_served_after_edit(self, tmp_path):
        # End to end: a sweep cached under the old sources must miss
        # once the sources change.
        root = self._fake_package(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        jobs = SweepSpec(runners=["test.echo"], grid={"x": [1]}).expand()
        execute(jobs, cache=cache, code_version=default_code_version(root))
        (root / "mod.py").write_text("X = 3\n")
        self._bump_mtime(root / "mod.py")
        rerun = execute(
            jobs, cache=cache, code_version=default_code_version(root)
        )
        assert rerun.cached_count == 0

    def test_clear_code_version_memo(self, tmp_path):
        root = self._fake_package(tmp_path)
        first = default_code_version(root)
        clear_code_version_memo()
        assert default_code_version(root) == first


class TestStore:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec(runner="fig2", seed=1)
        key = cache.key_for(spec, "v")
        hit, _ = cache.get(spec, key)
        assert not hit
        cache.put(spec, key, {"rows": [1, 2]})
        hit, value = cache.get(spec, key)
        assert hit and value == {"rows": [1, 2]}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec(runner="fig2", seed=1)
        key = cache.key_for(spec, "v")
        cache.path_for(spec, key).write_text("{not json")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            hit, _ = cache.get(spec, key)
        assert not hit
        # The corrupt bytes are preserved for post-mortems, not deleted.
        assert len(list(cache.quarantine_dir.iterdir())) == 1

    def test_entries_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in (1, 2):
            spec = JobSpec(runner="fig2", seed=seed)
            cache.put(spec, cache.key_for(spec, "v"), seed)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_files_are_strict_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec(runner="fig2", seed=1)
        key = cache.key_for(spec, "v")
        path = cache.put(spec, key, {"x": None})
        record = json.loads(path.read_text())
        assert record["runner"] == "fig2" and record["value"] == {"x": None}


class TestEngineIntegration:
    def test_second_sweep_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = SweepSpec(
            runners=["test.echo"], grid={"x": [1, 2, 3]}, base_seed=5
        ).expand()
        first = execute(jobs, cache=cache, code_version="v")
        second = execute(jobs, cache=cache, code_version="v")
        assert first.cached_count == 0 and first.ok_count == 3
        assert second.cached_count == 3 and second.cache_hit_rate == 1.0
        assert first.values() == second.values()

    def test_zero_d_array_kwarg_is_cached(self, tmp_path):
        import numpy as np

        cache = ResultCache(tmp_path)
        jobs = [JobSpec(runner="test.echo", kwargs={"x": np.array(1.5)})]
        first = execute(jobs, cache=cache)
        assert [o.status for o in first] == ["ok"]
        assert first.values()[0]["x"] == 1.5
        second = execute(jobs, cache=cache)
        assert [o.status for o in second] == ["cached"]
        assert second.values() == first.values()

    def test_code_version_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = SweepSpec(runners=["test.echo"], grid={"x": [1]}).expand()
        execute(jobs, cache=cache, code_version="v1")
        rerun = execute(jobs, cache=cache, code_version="v2")
        assert rerun.cached_count == 0

    def test_cached_equals_fresh_normalised(self, tmp_path):
        # Fresh runs through a cache return to_jsonable-normalised data,
        # so hits and misses are indistinguishable to the caller.
        import numpy as np

        from repro.experiments.export import to_jsonable

        cache = ResultCache(tmp_path)
        spec = JobSpec(runner="fig2", seed=2, scale=0.2)
        fresh = execute([spec], cache=cache, code_version="v").values()[0]
        cached = execute([spec], cache=cache, code_version="v").values()[0]
        assert fresh == cached
        assert fresh == to_jsonable(fresh)  # already normalised
        assert not isinstance(fresh["series"], np.ndarray)

    def test_nonfinite_values_keep_their_type_with_cache(self, tmp_path):
        # Regression: with a cache attached, to_jsonable turned inf
        # into the string "Infinity" on the return path, so results
        # changed *type* depending on whether --cache-dir was passed.
        spec = JobSpec(
            runner="test.echo",
            kwargs={"pos": float("inf"), "neg": float("-inf")},
        )
        without_cache = execute([spec]).values()[0]
        cache = ResultCache(tmp_path)
        fresh = execute([spec], cache=cache, code_version="v").values()[0]
        hit = execute([spec], cache=cache, code_version="v").values()[0]
        for value in (fresh, hit):
            assert value["pos"] == without_cache["pos"] == float("inf")
            assert value["neg"] == without_cache["neg"] == float("-inf")
            assert isinstance(value["pos"], float)
        # The on-disk entry still stores strict-JSON sentinels.
        (entry,) = cache.entries().values()
        stored = json.loads(entry.read_text())["value"]
        assert stored["pos"] == "Infinity" and stored["neg"] == "-Infinity"

    def test_nan_normalises_to_none_with_cache(self, tmp_path):
        spec = JobSpec(runner="test.echo", kwargs={"gap": float("nan")})
        cache = ResultCache(tmp_path)
        fresh = execute([spec], cache=cache, code_version="v").values()[0]
        hit = execute([spec], cache=cache, code_version="v").values()[0]
        assert fresh["gap"] is None and hit["gap"] is None

    def test_hits_across_processes(self, tmp_path):
        """A cache written by one OS process is served in another."""
        cache_dir = tmp_path / "xproc-cache"
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.engine import JobSpec, ResultCache, execute\n"
            "cache = ResultCache({cache!r})\n"
            "r = execute([JobSpec(runner='test.echo', kwargs={{'x': 1}}, seed=4)],\n"
            "            cache=cache, code_version='v')\n"
            "print(r.cached_count, r.ok_count)\n"
        ).format(
            src=str(Path(__file__).resolve().parents[2] / "src"),
            cache=str(cache_dir),
        )
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(proc.stdout.strip())
        assert outputs == ["0 1", "1 0"]

    def test_parallel_workers_share_one_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = SweepSpec(
            runners=["test.echo"], grid={"x": [1, 2, 3, 4]}, base_seed=1
        ).expand()
        execute(jobs, workers=2, cache=cache, code_version="v")
        rerun = execute(jobs, workers=2, cache=cache, code_version="v")
        assert rerun.cache_hit_rate == 1.0


class TestMaintenance:
    """entry_stats / size_bytes / gc: the bounded-disk machinery."""

    @staticmethod
    def _fill(cache, count, payload_bytes=100):
        for i in range(count):
            spec = JobSpec(runner="test.echo", seed=i)
            cache.put(spec, cache.key_for(spec, "v"),
                      {"blob": "x" * payload_bytes})
            os.utime(cache.path_for(spec, cache.key_for(spec, "v")),
                     ns=(i, i))

    def test_entry_stats_orders_lru_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 3)
        stats = cache.entry_stats()
        assert len(stats) == 3
        mtimes = [mtime for _, _, mtime in stats]
        assert mtimes == sorted(mtimes)

    def test_size_bytes_matches_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 4)
        expected = sum(
            p.stat().st_size for p in Path(tmp_path).glob("*-*.json")
        )
        assert cache.size_bytes() == expected

    def test_gc_evicts_lru_until_under_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 6)
        keep = cache.size_bytes() // 2
        summary = cache.gc(keep)
        assert cache.size_bytes() <= keep
        assert summary["evicted"] + summary["kept"] == 6
        assert summary["size_bytes"] == cache.size_bytes()
        # The newest entries survived.
        survivors = [mtime for _, _, mtime in cache.entry_stats()]
        assert survivors == sorted(survivors)
        assert max(survivors) == 5

    def test_gc_emits_cache_evict_events(self, tmp_path):
        class Sink:
            def __init__(self):
                self.events = []

            def emit(self, event, **fields):
                self.events.append((event, fields))

        sink = Sink()
        cache = ResultCache(tmp_path)
        self._fill(cache, 3)
        cache.gc(0, events=sink)
        evicts = [f for e, f in sink.events if e == "cache_evict"]
        assert len(evicts) == 3
        assert all("bytes" in f and "entry" in f for f in evicts)

    def test_quarantine_not_counted_or_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 2)
        spec = JobSpec(runner="test.echo", seed=0)
        cache.path_for(spec, cache.key_for(spec, "v")).write_text("{nope")
        with pytest.warns(RuntimeWarning):
            cache.get(spec, cache.key_for(spec, "v"))
        assert len(list(cache.quarantine_dir.iterdir())) == 1
        cache.gc(0)  # evict every committed entry
        assert cache.size_bytes() == 0
        # The quarantined post-mortem evidence is untouched.
        assert len(list(cache.quarantine_dir.iterdir())) == 1

    def test_get_touches_entry_mtime(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 2)
        spec = JobSpec(runner="test.echo", seed=0)
        key = cache.key_for(spec, "v")
        before = cache.path_for(spec, key).stat().st_mtime_ns
        hit, _ = cache.get(spec, key)
        assert hit
        assert cache.path_for(spec, key).stat().st_mtime_ns > before


class TestConcurrentWriters:
    """Racing puts must never tear an entry or leave droppings.

    Regression for the staging-name scheme: per-PID/thread unique
    temp names + ``os.replace`` mean concurrent writers (serve worker
    threads, parallel sweeps) each stage privately and commit
    atomically — last writer wins, every reader sees a whole record.
    """

    def test_threaded_same_key_stress(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        spec = JobSpec(runner="test.echo", seed=1)
        key = cache.key_for(spec, "v")
        errors = []

        def hammer(worker):
            try:
                for i in range(25):
                    cache.put(spec, key, {"worker": worker, "i": i})
                    hit, value = cache.get(spec, key)
                    assert hit
                    assert set(value) == {"worker", "i"}
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Exactly one committed entry, parseable, no staging litter,
        # nothing quarantined.
        assert len(cache) == 1
        record = json.loads(cache.path_for(spec, key).read_text())
        assert record["runner"] == "test.echo"
        assert not list(Path(tmp_path).glob(".tmp-*"))
        assert not cache.quarantine_dir.is_dir() or not list(
            cache.quarantine_dir.iterdir()
        )

    def test_multiprocess_writers_same_cache(self, tmp_path):
        """Two processes fan parallel workers into one cache dir."""
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.engine import JobSpec, ResultCache, SweepSpec, execute\n"
            "cache = ResultCache({cache!r})\n"
            "jobs = SweepSpec(runners=['test.echo'],\n"
            "                 grid={{'x': list(range(8))}}, base_seed=1).expand()\n"
            "r = execute(jobs, workers=4, cache=cache, code_version='v')\n"
            "print(r.failed_count)\n"
        ).format(
            src=str(Path(__file__).resolve().parents[2] / "src"),
            cache=str(tmp_path),
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "0"
        cache = ResultCache(tmp_path)
        assert len(cache) == 8
        for _, entry in cache.entries().items():
            json.loads(entry.read_text())  # every entry is whole JSON
        assert not list(Path(tmp_path).glob(".tmp-*"))
        quarantine = Path(tmp_path) / "quarantine"
        assert not quarantine.is_dir() or not list(quarantine.iterdir())


class TestArraySidecars:
    """Large ndarray results live as content-addressed .npy sidecars."""

    def _array_spec(self, n=20_000, with_nan=False, seed=9):
        return JobSpec(
            runner="test.array",
            kwargs={"n": n, "with_nan": with_nan},
            seed=seed,
        )

    def _sidecars(self, cache):
        if not cache.arrays_dir.is_dir():
            return []
        return sorted(cache.arrays_dir.glob("*.npy"))

    def test_large_array_result_uses_npy_sidecar(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = self._array_spec()
        fresh = execute([spec], cache=cache, code_version="v").values()[0]
        assert len(self._sidecars(cache)) == 1
        (entry,) = cache.entries().values()
        stored = json.loads(entry.read_text())["value"]
        assert "__npy__" in json.dumps(stored)  # descriptor, not lists
        hit = execute([spec], cache=cache, code_version="v").values()[0]
        assert fresh == hit

    def test_sidecar_type_parity_nan_inf(self, tmp_path):
        # The NaN/Infinity sentinel contract must hold whether the
        # array went inline, through a sidecar, or skipped the cache.
        from repro.experiments.export import to_jsonable

        spec = self._array_spec(with_nan=True)
        uncached = execute([spec]).values()[0]  # raw ndarray, no cache
        cache = ResultCache(tmp_path)
        fresh = execute([spec], cache=cache, code_version="v").values()[0]
        hit = execute([spec], cache=cache, code_version="v").values()[0]
        for value in (fresh, hit):
            v = value["values"]
            assert v[0] is None  # NaN
            assert v[1] == float("inf") and isinstance(v[1], float)
            assert v[2] == float("-inf")
            assert isinstance(v[5], float)
        assert json.dumps(fresh) == json.dumps(hit)
        # Export-normalised, all three transports agree byte-for-byte.
        assert json.dumps(to_jsonable(fresh)) == json.dumps(
            to_jsonable(uncached)
        )

    def test_small_arrays_stay_inline(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = self._array_spec(n=100)
        execute([spec], cache=cache, code_version="v")
        assert self._sidecars(cache) == []

    def test_sidecars_are_content_addressed(self, tmp_path):
        import numpy as np

        cache = ResultCache(tmp_path)
        arr = np.arange(5000, dtype=np.float64)
        normalised, arrays = cache.encode_value({"a": arr, "b": arr.copy()})
        assert len(arrays) == 1  # same content, one digest
        assert len(self._sidecars(cache)) == 1
        digest_a = normalised["a"]["__npy__"]["digest"]
        assert normalised["b"]["__npy__"]["digest"] == digest_a
        decoded = cache.decode_value(normalised, arrays)
        assert decoded["a"] == arr.tolist()

    def test_corrupt_sidecar_quarantines_and_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = self._array_spec()
        first = execute([spec], cache=cache, code_version="v")
        (sidecar,) = self._sidecars(cache)
        sidecar.write_bytes(b"not an npy file")
        with pytest.warns(RuntimeWarning, match="sidecar"):
            rerun = execute([spec], cache=cache, code_version="v")
        assert rerun.cached_count == 0 and rerun.ok_count == 1
        assert list(cache.quarantine_dir.iterdir())
        assert rerun.values() == first.values()  # recompute rewrote it
        third = execute([spec], cache=cache, code_version="v")
        assert third.cached_count == 1

    def test_missing_sidecar_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = self._array_spec()
        execute([spec], cache=cache, code_version="v")
        (sidecar,) = self._sidecars(cache)
        sidecar.unlink()
        with pytest.warns(RuntimeWarning, match="sidecar"):
            rerun = execute([spec], cache=cache, code_version="v")
        assert rerun.cached_count == 0 and rerun.ok_count == 1

    def test_wrong_shape_sidecar_is_rejected(self, tmp_path):
        import numpy as np

        cache = ResultCache(tmp_path)
        spec = self._array_spec()
        execute([spec], cache=cache, code_version="v")
        (sidecar,) = self._sidecars(cache)
        np.save(sidecar, np.zeros(3))  # plausible npy, wrong contents
        with pytest.warns(RuntimeWarning, match="sidecar"):
            rerun = execute([spec], cache=cache, code_version="v")
        assert rerun.cached_count == 0

    def test_gc_removes_orphan_sidecars(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = self._array_spec()
        execute([spec], cache=cache, code_version="v")
        (entry,) = cache.entries().values()
        entry.unlink()  # sidecar is now referenced by nothing
        summary = cache.gc(max_bytes=10**9)
        assert summary["arrays_removed"] == 1
        assert self._sidecars(cache) == []

    def test_gc_keeps_referenced_sidecars(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute([self._array_spec()], cache=cache, code_version="v")
        summary = cache.gc(max_bytes=10**9)
        assert summary["arrays_removed"] == 0
        assert len(self._sidecars(cache)) == 1

    def test_clear_removes_sidecars(self, tmp_path):
        cache = ResultCache(tmp_path)
        execute([self._array_spec()], cache=cache, code_version="v")
        assert cache.clear() >= 1
        assert self._sidecars(cache) == []

    def test_oversized_arrays_still_fail_the_export_cap(self, tmp_path):
        # The sidecar hook must not quietly lift the export cap: a
        # >100k-element array fails to_jsonable identically with or
        # without a cache attached.
        import numpy as np

        from repro.experiments.export import to_jsonable

        cache = ResultCache(tmp_path)
        big = np.zeros(200_000)
        with pytest.raises(ValueError, match="export cap"):
            to_jsonable({"v": big})
        with pytest.raises(ValueError, match="export cap"):
            cache.encode_value({"v": big})


class TestDigest:
    """``array_digest``: the content address that names a sidecar."""

    def test_digest_stable_and_distinct(self):
        import numpy as np

        from repro.engine.cache import array_digest

        a = np.arange(100, dtype=np.float64)
        assert array_digest(a) == array_digest(a.copy())
        assert array_digest(a) != array_digest(a.astype(np.float32))
        assert array_digest(a) != array_digest(a.reshape(10, 10))
        assert array_digest(a) != array_digest(a + 1.0)

    def test_digest_of_noncontiguous_view_matches_copy(self):
        import numpy as np

        from repro.engine.cache import array_digest

        base = np.arange(200, dtype=np.float64)
        view = base[::2]
        assert array_digest(view) == array_digest(view.copy())
