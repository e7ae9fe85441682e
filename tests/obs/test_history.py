"""Tests for repro.obs.history: the RunArchive and trend analysis."""

import json

import pytest

from repro.engine import JobSpec, ResultCache, execute
from repro.obs.events import EventLog
from repro.obs.history import (
    ARCHIVE_SCHEMA,
    RunArchive,
    SampleReservoir,
    build_history,
    flag_change_points,
    record_from_bench,
    record_from_ledger,
    record_from_result,
    render_history_html,
    render_history_text,
    sparkline,
)


def _sweep_record(tmp_path, label="echo", n=3):
    result = execute(
        [
            JobSpec(runner="test.echo", kwargs={"x": i}, index=i)
            for i in range(n)
        ]
    )
    return record_from_result(result, label=label)


class TestSampleReservoir:
    def test_keeps_everything_under_cap(self):
        res = SampleReservoir(cap=16)
        for i in range(10):
            res.add(float(i))
        assert res.samples() == [float(i) for i in range(10)]

    def test_decimates_deterministically_past_cap(self):
        res = SampleReservoir(cap=8)
        for i in range(100):
            res.add(float(i))
        kept = res.samples()
        assert len(kept) < 2 * 8
        assert res.count == 100
        # Survivors are an evenly strided subsample — same stream,
        # same survivors, no RNG anywhere.
        rerun = SampleReservoir(cap=8)
        for i in range(100):
            rerun.add(float(i))
        assert rerun.samples() == kept


class TestRecordBuilders:
    def test_record_from_result_shape(self, tmp_path):
        record = _sweep_record(tmp_path)
        assert record["schema"] == ARCHIVE_SCHEMA
        assert record["kind"] == "sweep"
        assert record["overall"]["jobs"] == 3
        assert record["overall"]["ok"] == 3
        entry = record["runners"]["test.echo"]
        assert entry["jobs"] == 3
        assert entry["p50_s"] is not None
        assert len(entry["samples"]) == 3

    def test_record_overall_is_the_sweeps_counts(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        warm = JobSpec(runner="test.echo", kwargs={"x": 0}, index=0)
        execute([warm], cache=cache)
        result = execute(
            [
                warm,
                JobSpec(runner="test.echo", kwargs={"x": 1}, index=1),
                JobSpec(runner="test.fail", kwargs={}, index=2),
                JobSpec(runner="test.echo", kwargs={"x": 3}, index=3),
            ],
            cache=cache,
            retries=0,
            max_failures=0,
        )
        counts = result.counts
        assert counts == {"jobs": 4, "ok": 1, "cached": 1, "failed": 1, "skipped": 1}
        overall = record_from_result(result, label="mixed")["overall"]
        assert {key: overall[key] for key in counts} == counts
        assert overall["cache_hit_rate"] == counts["cached"] / counts["jobs"]

    def test_record_from_ledger_matches_result_counts(self, tmp_path):
        path = tmp_path / "e.jsonl"
        log = EventLog(path)
        execute(
            [JobSpec(runner="test.echo", kwargs={"x": 1}, index=0)],
            events=log,
            code_version="v1",
        )
        log.close()
        record = record_from_ledger(path, label="ledgered")
        assert record["overall"]["jobs"] == 1
        assert record["overall"]["ok"] == 1
        assert record["runners"]["test.echo"]["p50_s"] is not None
        # The engine's run_summary carries provenance into the record.
        assert record["code_version"] == "v1"
        assert record["workers"] == 1

    def test_record_from_bench_lifts_numeric_results(self):
        record = record_from_bench(
            "BENCH_video",
            {"results": {"sessions_per_s": 10.0, "note": "text"}, "x": 1},
        )
        assert record["kind"] == "bench"
        assert record["results"] == {"sessions_per_s": 10.0}
        assert record["bench"]["x"] == 1


class TestRunArchive:
    def test_append_and_load_round_trip(self, tmp_path):
        archive = RunArchive(tmp_path / "arch")
        record = _sweep_record(tmp_path)
        run_id = archive.append(record)
        assert len(archive) == 1
        loaded = archive.load(run_id)
        assert loaded["run_id"] == run_id
        assert loaded["overall"] == record["overall"]

    def test_index_line_mirrors_summary_fields(self, tmp_path):
        archive = RunArchive(tmp_path / "arch")
        archive.append(_sweep_record(tmp_path, label="idx"))
        (entry,) = archive.index()
        assert entry["label"] == "idx"
        assert entry["jobs"] == 3
        assert entry["schema"] == ARCHIVE_SCHEMA

    def test_resolve_last_and_relative(self, tmp_path):
        archive = RunArchive(tmp_path / "arch")
        first = archive.append(_sweep_record(tmp_path, label="one"))
        second = archive.append(_sweep_record(tmp_path, label="two"))
        assert archive.resolve("last")["run_id"] == second
        assert archive.resolve("last~1")["run_id"] == first
        with pytest.raises(KeyError):
            archive.resolve("last~2")

    def test_resolve_unique_prefix_and_ambiguity(self, tmp_path):
        archive = RunArchive(tmp_path / "arch")
        run_id = archive.append(_sweep_record(tmp_path))
        assert archive.resolve(run_id[:12])["run_id"] == run_id
        archive.append(_sweep_record(tmp_path))
        with pytest.raises(KeyError, match="ambiguous|no run"):
            archive.resolve(run_id[:4])

    def test_resolve_record_json_path_directly(self, tmp_path):
        record = _sweep_record(tmp_path)
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(record))
        archive = RunArchive(tmp_path / "arch")
        assert archive.resolve(str(path))["overall"] == record["overall"]

    def test_append_survives_id_collisions(self, tmp_path):
        archive = RunArchive(tmp_path / "arch")
        record = _sweep_record(tmp_path)
        a = archive.append(dict(record, run_id="fixed", created="2026"))
        b = archive.append(dict(record, run_id="fixed", created="2026"))
        assert a == "fixed" and b == "fixedx"
        assert len(archive) == 2

    def test_torn_final_index_line_is_tolerated(self, tmp_path):
        archive = RunArchive(tmp_path / "arch")
        archive.append(_sweep_record(tmp_path))
        with archive.index_path.open("a") as handle:
            handle.write('{"run_id":"half')
        with pytest.warns(RuntimeWarning, match="torn final"):
            assert len(archive.index()) == 1


class TestTrends:
    def test_flag_change_points_on_a_jump(self):
        values = [1.0, 1.1, 0.9, 1.0, 5.0, 5.1]
        flagged = flag_change_points(values, ratio=1.5)
        assert 4 in flagged
        # 5.1 vs trailing median (which now includes 5.0) — depends on
        # the window, but the initial jump must always be flagged.

    def test_flat_series_has_no_change_points(self):
        assert flag_change_points([2.0] * 10) == []

    def test_sparkline_marks_missing_values(self):
        spark = sparkline([1.0, None, 3.0])
        assert len(spark) == 3 and spark[1] == "·"

    def test_build_history_and_renderings(self, tmp_path):
        archive = RunArchive(tmp_path / "arch")
        archive.append(_sweep_record(tmp_path))
        archive.append(_sweep_record(tmp_path))
        archive.append(
            record_from_bench("BENCH_x", {"results": {"ops": 12.5}})
        )
        model = build_history(archive)
        assert model["n_runs"] == 3
        assert model["n_sweeps"] == 2
        assert model["n_benches"] == 1
        names = [t["name"] for t in model["trends"]]
        assert "elapsed_s" in names
        assert "test.echo p50" in names
        assert "BENCH_x:ops" in names
        text = render_history_text(model)
        assert "3 run(s)" in text
        html = render_history_html(model)
        assert html.startswith("<!DOCTYPE html>")
        assert "elapsed_s" in html
