"""CLI-level tests for ``python -m repro sweep``."""

import json

from repro.cli import main


class TestSweep:
    def test_sweep_two_artifacts(self, capsys):
        assert main(["sweep", "fig2", "table2", "--scale", "0.2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "2 ok" in out and "0 failed" in out

    def test_sweep_parallel_json_matches_serial(self, tmp_path):
        payloads = []
        for i, workers in enumerate(("1", "2")):
            target = tmp_path / f"sweep-{i}.json"
            code = main(
                ["sweep", "fig2", "table2", "--scale", "0.2", "--seed", "3",
                 "--workers", workers, "--quiet", "--json", str(target)]
            )
            assert code == 0
            payloads.append(json.loads(target.read_text()))
        assert payloads[0] == payloads[1]
        assert set(payloads[0]) == {"fig2", "table2"}

    def test_sweep_cache_reports_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["sweep", "fig2", "--scale", "0.2", "--seed", "1",
                "--cache-dir", cache_dir, "--quiet"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache hits: 0/1" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache hits: 1/1 (100%)" in second

    def test_sweep_with_injected_failure_finishes(self, capsys):
        # The acceptance scenario: one always-failing job must not sink
        # the sweep; the summary reports it and the exit code is 1.
        code = main(
            ["sweep", "fig2", "test.fail", "table2", "--scale", "0.2",
             "--retries", "0", "--quiet"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "2 ok" in out and "1 failed" in out
        assert "FAILED test.fail: RuntimeError" in out

    def test_sweep_progress_lines_on_stderr(self, capsys):
        assert main(["sweep", "table2", "--scale", "0.2"]) == 0
        captured = capsys.readouterr()
        assert "[1/1] table2: ok" in captured.err

    def test_sweep_timeout_flag(self, capsys):
        code = main(
            ["sweep", "test.sleep", "--timeout", "60", "--retries", "0",
             "--quiet"]
        )
        assert code == 0

    def test_repeated_artifact_keeps_every_result(self, tmp_path):
        # Regression: `sweep fig2 fig2 --json` keyed the payload by
        # display name, so the duplicate silently clobbered the first.
        target = tmp_path / "dup.json"
        code = main(
            ["sweep", "fig2", "fig2", "--scale", "0.2", "--seed", "3",
             "--quiet", "--json", str(target)]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert set(payload) == {"fig2#0", "fig2#1"}
        # Distinct derived seeds -> genuinely distinct results survive.
        assert payload["fig2#0"] != payload["fig2#1"]

    def test_unique_artifacts_keep_plain_keys(self, tmp_path):
        target = tmp_path / "plain.json"
        assert main(
            ["sweep", "fig2", "table2", "--scale", "0.2", "--quiet",
             "--json", str(target)]
        ) == 0
        assert set(json.loads(target.read_text())) == {"fig2", "table2"}


class TestSweepLedger:
    def test_events_and_manifest_flags(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        manifest = tmp_path / "run.manifest.json"
        code = main(
            ["sweep", "fig2", "table2", "--scale", "0.2", "--seed", "5",
             "--quiet", "--events", str(events), "--manifest", str(manifest)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {events}" in out and f"wrote {manifest}" in out

        from repro.obs.events import read_events

        kinds = [e["event"] for e in read_events(events)]
        assert kinds[0] == "sweep_start"
        # Calibration gauges are scored after the sweep settles, so
        # their events trail the sweep_end bracket.
        assert kinds[-1] == "gauge"
        assert kinds[kinds.index("sweep_end") + 1 :] == ["gauge"] * kinds.count(
            "gauge"
        )
        assert kinds.count("job_end") == 2

        record = json.loads(manifest.read_text())
        assert record["counts"] == {
            "jobs": 2, "ok": 2, "cached": 0, "failed": 0, "skipped": 0,
        }
        assert record["base_seed"] == 5
        assert [j["runner"] for j in record["jobs"]] == ["fig2", "table2"]

    def test_manifest_written_next_to_json_export(self, tmp_path):
        target = tmp_path / "out.json"
        assert main(
            ["sweep", "table2", "--scale", "0.2", "--quiet",
             "--json", str(target)]
        ) == 0
        sibling = tmp_path / "out.manifest.json"
        assert sibling.exists()
        assert json.loads(sibling.read_text())["counts"]["ok"] == 1

    def test_manifest_written_into_cache_dir(self, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(
            ["sweep", "table2", "--scale", "0.2", "--quiet",
             "--cache-dir", str(cache_dir)]
        ) == 0
        manifest = cache_dir / "last-sweep.manifest.json"
        assert manifest.exists()
        assert json.loads(manifest.read_text())["cache_dir"] == str(cache_dir)

    def test_cached_rerun_ledger_reconciles(self, tmp_path, capsys):
        events = tmp_path / "e.jsonl"
        args = ["sweep", "fig2", "--scale", "0.2", "--seed", "1", "--quiet",
                "--cache-dir", str(tmp_path / "c"), "--events", str(events)]
        assert main(args) == 0
        assert main(args) == 0
        capsys.readouterr()
        assert main(["stats", str(events)]) == 0
        out = capsys.readouterr().out
        assert "2 sweep(s)" in out
        assert "1 ok, 1 cached" in out


class TestFailurePaths:
    def test_sweep_unknown_artifact_exits_2(self, capsys):
        assert main(["sweep", "fig2", "no-such-artifact", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "unknown artifact id(s): no-such-artifact" in err

    def test_run_unknown_artifact_exits_2(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown artifact id(s): nope" in capsys.readouterr().err

    def test_run_failed_job_exits_1_with_structured_error(self, capsys):
        assert main(["run", "test.fail"]) == 1
        err = capsys.readouterr().err
        assert "test.fail failed after" in err
        assert "RuntimeError: injected permanent failure" in err

    def test_sweep_failed_job_with_json_excludes_failure(
        self, tmp_path, capsys
    ):
        target = tmp_path / "partial.json"
        code = main(
            ["sweep", "table2", "test.fail", "--scale", "0.2",
             "--retries", "0", "--quiet", "--json", str(target)]
        )
        assert code == 1
        payload = json.loads(target.read_text())
        assert set(payload) == {"table2"}  # failed job contributes nothing
        out = capsys.readouterr().out
        assert "FAILED test.fail" in out

    def test_quiet_suppresses_tracker_but_not_summary(self, capsys):
        assert main(["sweep", "table2", "--scale", "0.2", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""  # no per-job progress lines
        assert "1 ok" in captured.out  # the closing summary stays

    def test_scale_must_be_positive(self, capsys):
        assert main(["sweep", "table2", "--scale", "0"]) == 2
        assert "--scale must be positive" in capsys.readouterr().err


class TestCacheCommand:
    """``repro cache ls`` / ``repro cache gc --max-bytes``."""

    @staticmethod
    def _warm_cache(tmp_path, artifacts=("test.echo", "test.sleep")):
        cache_dir = tmp_path / "cache"
        rc = main(
            ["sweep", *artifacts, "--seed", "3", "--quiet",
             "--cache-dir", str(cache_dir)]
        )
        assert rc == 0
        return cache_dir

    def test_ls_lists_entries_and_totals(self, tmp_path, capsys):
        cache_dir = self._warm_cache(tmp_path)
        assert main(["cache", "ls", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "test.echo" in out
        assert "test.sleep" in out
        assert "2 entry(ies)" in out

    def test_ls_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "ls", str(tmp_path / "empty")]) == 0
        assert "0 entry(ies), 0 bytes" in capsys.readouterr().out

    def test_gc_to_zero_evicts_everything(self, tmp_path, capsys):
        cache_dir = self._warm_cache(tmp_path)
        assert main(["cache", "gc", str(cache_dir), "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted 2 entry(ies)" in out
        assert main(["cache", "ls", str(cache_dir)]) == 0
        assert "0 entry(ies)" in capsys.readouterr().out

    def test_gc_under_budget_is_a_noop(self, tmp_path, capsys):
        cache_dir = self._warm_cache(tmp_path)
        rc = main(
            ["cache", "gc", str(cache_dir), "--max-bytes", "10000000"]
        )
        assert rc == 0
        assert "evicted 0 entry(ies)" in capsys.readouterr().out

    def test_gc_counts_array_sidecars(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        for seed in ("1", "2", "3"):
            assert main(
                ["sweep", "test.array", "--seed", seed, "--quiet",
                 "--cache-dir", str(cache_dir)]
            ) == 0
        rc = main(["cache", "gc", str(cache_dir), "--max-bytes", "500000"])
        assert rc == 0
        out = capsys.readouterr().out
        files = list(cache_dir.glob("test.array-*.json"))
        files += list((cache_dir / "arrays").iterdir())
        on_disk = sum(path.stat().st_size for path in files)
        assert on_disk <= 500000
        assert f"{on_disk} bytes on disk" in out
        assert main(["cache", "ls", str(cache_dir)]) == 0
        assert f"{on_disk} bytes with 1 sidecar(s)" in capsys.readouterr().out

    def test_gc_then_sweep_recomputes_evicted(self, tmp_path, capsys):
        cache_dir = self._warm_cache(tmp_path)
        main(["cache", "gc", str(cache_dir), "--max-bytes", "0"])
        capsys.readouterr()
        rc = main(
            ["sweep", "test.echo", "test.sleep", "--seed", "3",
             "--quiet", "--cache-dir", str(cache_dir)]
        )
        assert rc == 0
        assert "cache hits: 0/2" in capsys.readouterr().out
