"""Tests for repro.kernels.backend: registry, scoping, gating, contract."""

import json
import threading

import numpy as np
import pytest

from repro.engine import JobSpec, ResultCache, execute
from repro.experiments.export import to_jsonable
from repro.kernels.backend import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    UnknownBackendError,
    active_backend,
    active_dtype,
    available_backends,
    default_backend_name,
    get_backend,
    use_backend,
)
from repro.kernels.scan import ar1_scan


class TestRegistry:
    def test_builtins_registered(self):
        assert {"numpy64", "numpy32"} <= set(available_backends())

    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownBackendError, match="choose from"):
            get_backend("fortran77")

    def test_default_is_numpy64_and_exact(self):
        backend = get_backend(DEFAULT_BACKEND)
        assert backend.exact
        assert backend.dtype is np.float64

    def test_numpy32_is_tolerance_matched(self):
        assert not get_backend("numpy32").exact


class TestScoping:
    def test_default_active_backend(self):
        assert active_backend().name == default_backend_name()

    def test_use_backend_nests_and_restores(self):
        base = active_backend().name
        with use_backend("numpy32"):
            assert active_backend().name == "numpy32"
            assert active_dtype() is np.float32
            with use_backend("numpy64"):
                assert active_backend().name == "numpy64"
                assert active_dtype() is np.float64
            assert active_backend().name == "numpy32"
        assert active_backend().name == base == default_backend_name()

    def test_use_backend_is_thread_local(self):
        seen = {}
        ready = threading.Event()

        def _other():
            ready.wait(5)
            seen["other"] = active_backend().name

        thread = threading.Thread(target=_other)
        thread.start()
        with use_backend("numpy32"):
            ready.set()
            thread.join(5)
        assert seen["other"] == default_backend_name()

    def test_env_var_sets_process_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy32")
        assert default_backend_name() == "numpy32"
        assert active_backend().name == "numpy32"

    def test_bad_env_var_raises_on_use(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "no-such-backend")
        with pytest.raises(UnknownBackendError):
            active_backend()


class TestKernelContract:
    def test_numpy64_kernels_are_float64(self):
        x = np.random.default_rng(0).standard_normal(256)
        with use_backend("numpy64"):
            out = ar1_scan(0.9, x, 0.0)
        assert out.dtype == np.float64

    def test_numpy32_kernels_are_float32_and_close(self):
        x = np.random.default_rng(0).standard_normal(256)
        with use_backend("numpy64"):
            exact = ar1_scan(0.9, x, 0.0)
        with use_backend("numpy32"):
            approx = ar1_scan(0.9, x.astype(np.float32), 0.0)
        assert approx.dtype == np.float32
        np.testing.assert_allclose(approx, exact, rtol=1e-3, atol=1e-3)


class TestEngineIntegration:
    def test_sweep_backend_changes_kernel_artifacts(self):
        # fig13 runs through the backend-aware AR(1)/sampling kernels.
        base = JobSpec(runner="fig13", seed=5, scale=0.05)
        ref = execute([base], workers=1, backend="numpy64")
        alt = execute([base], workers=1, backend="numpy32")
        canon = [
            json.dumps(to_jsonable(r.values()), sort_keys=True)
            for r in (ref, alt)
        ]
        assert canon[0] != canon[1]

    def test_backend_rides_into_batch_workers(self):
        jobs = [JobSpec(runner="fig13", seed=5, scale=0.05, index=i)
                for i in range(3)]
        serial = execute(jobs, workers=1, backend="numpy32")
        batched = execute(
            jobs, workers=2, backend="numpy32"
        )
        canon = [
            json.dumps(to_jsonable(r.values()), sort_keys=True)
            for r in (serial, batched)
        ]
        assert canon[0] == canon[1]

    def test_unknown_backend_rejected_before_any_job_runs(self):
        with pytest.raises(UnknownBackendError):
            execute([JobSpec(runner="test.echo")], workers=1,
                    backend="no-such-backend")

    def test_explicit_spec_backend_wins_over_sweep_backend(self):
        spec = JobSpec(runner="fig13", seed=5, scale=0.05,
                       backend="numpy64")
        ref = execute([spec], workers=1)
        overridden = execute([spec], workers=1, backend="numpy32")
        canon = [
            json.dumps(to_jsonable(r.values()), sort_keys=True)
            for r in (ref, overridden)
        ]
        assert canon[0] == canon[1]

    def test_cache_key_includes_non_default_backend(self):
        cache = ResultCache.__new__(ResultCache)
        spec = JobSpec(runner="fig13", seed=5)
        default_key = cache.key_for(spec, "v1")
        assert cache.key_for(spec.replace(backend="numpy32"), "v1") != (
            default_key
        )
        # The default backend is omitted from the key, so every
        # pre-backend cache entry stays valid.
        assert cache.key_for(spec.replace(backend=DEFAULT_BACKEND), "v1") == (
            default_key
        )

    def test_backends_do_not_share_cache_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = JobSpec(runner="fig13", seed=5, scale=0.05)
        execute([spec], workers=1, cache=cache)
        first = execute(
            [spec], workers=1, cache=cache, backend="numpy32"
        )
        assert first.cached_count == 0  # different key: a miss
        second = execute(
            [spec], workers=1, cache=cache, backend="numpy32"
        )
        assert second.cached_count == 1
