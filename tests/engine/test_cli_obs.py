"""CLI-level tests for the observability surface: sweep tracing flags,
calibration gauges, OpenMetrics export, and ``stats --json``."""

import json

from repro.cli import main
from repro.obs.events import read_events


class TestSweepTracing:
    def test_events_ledger_carries_spans_by_default(self, tmp_path, capsys):
        ledger = tmp_path / "L.jsonl"
        assert main(["sweep", "fig2", "--scale", "0.2", "--quiet",
                     "--events", str(ledger)]) == 0
        kinds = [e["event"] for e in read_events(ledger)]
        assert "span_start" in kinds and "span_end" in kinds

    def test_no_trace_suppresses_spans(self, tmp_path, capsys):
        ledger = tmp_path / "L.jsonl"
        assert main(["sweep", "fig2", "--scale", "0.2", "--quiet",
                     "--no-trace", "--events", str(ledger)]) == 0
        kinds = {e["event"] for e in read_events(ledger)}
        assert "span_start" not in kinds and "span_end" not in kinds

    def test_profile_dir_dumps_pstats(self, tmp_path, capsys):
        import pstats

        profile_dir = tmp_path / "prof"
        assert main(["sweep", "fig2", "--scale", "0.2", "--quiet",
                     "--profile-dir", str(profile_dir)]) == 0
        (dump,) = sorted(profile_dir.iterdir())
        assert dump.name == "job-0000-fig2.pstats"
        assert pstats.Stats(str(dump)).total_calls > 0


class TestSweepGauges:
    def test_gauge_events_and_scoreboard(self, tmp_path, capsys):
        from repro.obs.calib import PAPER_GAUGES

        ledger = tmp_path / "L.jsonl"
        assert main(["sweep", "fig2", "--quiet",
                     "--events", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "calibration gauges:" in out
        gauge_events = [
            e for e in read_events(ledger) if e["event"] == "gauge"
        ]
        # Only scored gauges reach the ledger: every fig2 gauge, passing.
        fig2 = {g.name for g in PAPER_GAUGES if g.runner == "fig2"}
        assert {e["name"] for e in gauge_events} == fig2
        assert len(gauge_events) == len(fig2)
        assert all(e["status"] == "pass" for e in gauge_events)

    def test_miscalibrated_fixture_prints_fail(self, tmp_path, capsys):
        fixture = tmp_path / "bad.json"
        fixture.write_text(json.dumps(
            {"rtt_floor_mmwave": {"target": 60.0, "warn": 0.05,
                                  "fail": 0.1}}
        ))
        # Gauge failures do not change sweep exit semantics (report
        # owns that) — but the scoreboard must name the failure.
        assert main(["sweep", "fig2", "--quiet",
                     "--gauges", str(fixture)]) == 0
        out = capsys.readouterr().out
        assert "1 fail" in out
        assert "FAIL rtt_floor_mmwave" in out

    def test_bad_gauges_file_exits_2(self, tmp_path, capsys):
        fixture = tmp_path / "bad.json"
        fixture.write_text(json.dumps({"nonexistent_gauge": {"target": 1}}))
        assert main(["sweep", "fig2", "--quiet",
                     "--gauges", str(fixture)]) == 2
        assert "--gauges" in capsys.readouterr().err

    def test_metrics_textfile_parses(self, tmp_path, capsys):
        from repro.obs.openmetrics import parse_openmetrics

        metrics = tmp_path / "om.txt"
        assert main(["sweep", "fig2", "--quiet",
                     "--metrics", str(metrics)]) == 0
        samples = parse_openmetrics(metrics.read_text())
        names = {name for name, _, _ in samples}
        assert "repro_calibration_status" in names
        assert "repro_jobs_total" in names

    def test_no_scoreboard_without_obs_flags(self, capsys):
        assert main(["sweep", "fig2", "--scale", "0.2", "--quiet"]) == 0
        assert "calibration gauges" not in capsys.readouterr().out


class TestStatsJson:
    def test_json_flag_emits_machine_readable_aggregate(
        self, tmp_path, capsys
    ):
        ledger = tmp_path / "L.jsonl"
        assert main(["sweep", "fig2", "--scale", "0.2", "--quiet",
                     "--events", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["stats", str(ledger), "--json"]) == 0
        aggregate = json.loads(capsys.readouterr().out)
        assert aggregate["overall"]["ok"] == 1
        assert "fig2" in aggregate["runners"]
        assert aggregate["spans"]  # span roll-up rides along
        assert set(aggregate["gauges"]) == {"pass", "warn", "fail",
                                            "skipped"}

    def test_table_output_unchanged_without_flag(self, tmp_path, capsys):
        ledger = tmp_path / "L.jsonl"
        assert main(["sweep", "fig2", "--scale", "0.2", "--quiet",
                     "--no-trace", "--events", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["stats", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "1 sweep(s), 1 jobs: 1 ok" in out
        assert "cache hit rate" in out
