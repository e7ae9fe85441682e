"""Tests for repro.obs.manifest: build, persist, and replay."""

import json

import pytest

from repro.engine import JobSpec, ResultCache, SweepSpec, execute
from repro.obs.manifest import (
    build_manifest,
    load_manifest,
    manifest_path_for,
    specs_from_manifest,
    write_manifest,
)


def _sweep(cache=None, code_version="v"):
    jobs = SweepSpec(
        runners=["test.echo"], grid={"x": [1, 2]}, base_seed=11
    ).expand()
    return execute(jobs, cache=cache, code_version=code_version)


class TestBuild:
    def test_records_specs_and_counters(self):
        result = _sweep()
        manifest = build_manifest(result, base_seed=11, code_version="v")
        assert manifest["manifest_version"] == 1
        assert manifest["code_version"] == "v"
        assert manifest["base_seed"] == 11
        assert manifest["counts"] == {
            "jobs": 2,
            "ok": 2,
            "cached": 0,
            "failed": 0,
            "skipped": 0,
        }
        assert manifest["partial"] is False
        jobs = manifest["jobs"]
        assert [j["index"] for j in jobs] == [0, 1]
        assert jobs[0]["runner"] == "test.echo"
        assert jobs[0]["kwargs"] == {"x": 1}
        assert jobs[0]["seed"] is not None
        assert jobs[0]["status"] == "ok"
        assert jobs[0]["attempts"] == 1

    def test_records_failures(self):
        result = execute([JobSpec(runner="test.fail", label="boom")], retries=0)
        manifest = build_manifest(result, code_version="v")
        failure = manifest["jobs"][0]["failure"]
        assert failure["error_type"] == "RuntimeError"
        assert failure["transient"] is False

    def test_embeds_sweep_stats_block(self):
        manifest = build_manifest(_sweep(), code_version="v")
        assert manifest["stats"]["counters"]["jobs_ok"] == 2
        assert "job.test.echo" in manifest["stats"]["timers"]

    def test_code_version_defaults_to_results(self, tmp_path):
        result = _sweep(cache=ResultCache(tmp_path), code_version="tag7")
        manifest = build_manifest(result)
        assert manifest["code_version"] == "tag7"


class TestPersistence:
    def test_write_and_load_roundtrip(self, tmp_path):
        manifest = build_manifest(_sweep(), code_version="v")
        path = write_manifest(manifest, tmp_path / "run.manifest.json")
        assert load_manifest(path) == json.loads(path.read_text())
        assert load_manifest(path)["counts"]["jobs"] == 2

    def test_written_file_is_strict_json(self, tmp_path):
        path = write_manifest(
            build_manifest(_sweep(), code_version="v"), tmp_path / "m.json"
        )
        json.loads(
            path.read_text(),
            parse_constant=lambda c: (_ for _ in ()).throw(ValueError(c)),
        )

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_manifest(path)

    def test_manifest_path_for_json_exports(self):
        assert str(manifest_path_for("out/fig2.json")).endswith(
            "out/fig2.manifest.json"
        )
        assert str(manifest_path_for("ledger.dat")).endswith(
            "ledger.dat.manifest.json"
        )


#: One job as ``repro sweep fig2 --scale 0.05 --seed 7 --manifest M``
#: recorded it when the sweep could also pick a compute backend.
_OLD_JOB = {
    "index": 0, "runner": "fig2", "label": "fig2", "kwargs": {},
    "seed": 1201125462, "scale": 0.05, "status": "ok", "attempts": 1,
    "duration_s": 0.00119,
}


class TestReplay:
    def test_job_on_a_removed_backend_is_refused(self):
        manifest = {"jobs": [dict(_OLD_JOB, backend="numpy32")]}
        with pytest.raises(ValueError, match=r"job 0 \(fig2\).*'numpy32'"):
            specs_from_manifest(manifest)

    def test_float64_job_rebuilds_as_before(self):
        manifest = {"jobs": [dict(_OLD_JOB, backend="numpy64")]}
        assert specs_from_manifest(manifest) == [
            JobSpec(runner="fig2", seed=1201125462, scale=0.05, label="fig2")
        ]

    def test_specs_roundtrip(self):
        result = _sweep()
        manifest = build_manifest(result, code_version="v")
        specs = specs_from_manifest(manifest)
        assert specs == [o.spec for o in result.outcomes]

    def test_replay_hits_the_cache(self, tmp_path):
        # The acceptance property: same runner/kwargs/seed/scale/code
        # version recorded in the manifest -> all cache hits on re-run.
        cache = ResultCache(tmp_path)
        first = _sweep(cache=cache, code_version="v")
        manifest = load_manifest(
            write_manifest(
                build_manifest(first, code_version="v"), tmp_path / "m.json"
            )
        )
        replay = execute(
            specs_from_manifest(manifest),
            cache=cache,
            code_version=manifest["code_version"],
        )
        assert replay.cached_count == len(replay) == 2
        assert replay.values() == first.values()
