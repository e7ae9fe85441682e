"""Tests for repro.obs.stats and the ledger's reconciliation contract."""

import pytest

from repro.engine import JobSpec, ResultCache, SweepSpec, execute
from repro.obs.events import EventLog, RecordingSink
from repro.obs.stats import aggregate_events, aggregate_events_file, render_stats


def _synthetic_events():
    return [
        {"event": "sweep_start", "jobs": 3, "workers": 1},
        {"event": "job_start", "index": 0, "runner": "fig2"},
        {"event": "job_end", "index": 0, "runner": "fig2", "status": "ok",
         "duration_s": 0.2},
        {"event": "job_start", "index": 1, "runner": "fig9"},
        {"event": "job_timeout", "index": 1, "runner": "fig9", "attempt": 1},
        {"event": "job_retry", "index": 1, "runner": "fig9", "attempt": 1},
        {"event": "job_end", "index": 1, "runner": "fig9", "status": "failed",
         "duration_s": 1.0},
        {"event": "cache_hit", "index": 2, "runner": "fig2", "key": "k"},
        {"event": "sweep_end", "jobs": 3, "ok": 1, "cached": 1, "failed": 1,
         "elapsed_s": 1.5},
    ]


class TestAggregate:
    def test_overall_rollup(self):
        overall = aggregate_events(_synthetic_events())["overall"]
        assert overall["sweeps"] == 1
        assert overall["jobs"] == 3
        assert overall["ok"] == 1
        assert overall["failed"] == 1
        assert overall["cached"] == 1
        assert overall["retries"] == 1
        assert overall["timeouts"] == 1
        assert overall["elapsed_s"] == pytest.approx(1.5)
        assert overall["cache_hit_rate"] == pytest.approx(1 / 3)

    def test_per_runner_buckets(self):
        runners = aggregate_events(_synthetic_events())["runners"]
        assert runners["fig2"]["total"] == 2
        assert runners["fig2"]["cache_hit_rate"] == pytest.approx(0.5)
        assert runners["fig9"]["failed"] == 1
        assert runners["fig9"]["retries"] == 1
        assert runners["fig9"]["timeouts"] == 1
        assert runners["fig9"]["p50_s"] == pytest.approx(1.0)
        assert runners["fig9"]["p95_s"] == pytest.approx(1.0)

    def test_empty_ledger(self):
        aggregate = aggregate_events([])
        assert aggregate["overall"]["jobs"] == 0
        assert aggregate["runners"] == {}

    def test_aggregate_carries_schema_version(self):
        from repro.obs.stats import STATS_SCHEMA

        assert aggregate_events(_synthetic_events())["schema"] == STATS_SCHEMA
        assert aggregate_events([])["schema"] == STATS_SCHEMA

    def test_accepts_any_iterable_not_just_lists(self):
        streamed = aggregate_events(iter(_synthetic_events()))
        assert streamed == aggregate_events(_synthetic_events())


class TestRender:
    def test_render_mentions_latency_and_hit_rate(self):
        text = render_stats(aggregate_events(_synthetic_events()))
        assert "retries: 1" in text and "timeouts: 1" in text
        assert "p50" in text and "p95" in text
        assert "fig9" in text and "1.000s" in text

    def test_render_empty(self):
        text = render_stats(aggregate_events([]))
        assert "0 jobs" in text


class TestLedgerReconciliation:
    """Events written by a real sweep must match SweepResult exactly."""

    def test_counts_reconcile_with_sweep_result(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = SweepSpec(
            runners=["test.echo"], grid={"x": [1, 2, 3]}, base_seed=2
        ).expand()
        log = EventLog(tmp_path / "events.jsonl")
        execute(jobs, cache=cache, code_version="v", events=log)
        second = execute(
            jobs + [JobSpec(runner="test.fail", index=3)],
            cache=cache,
            code_version="v",
            retries=0,
            events=log,
        )
        log.close()
        aggregate = aggregate_events_file(tmp_path / "events.jsonl")
        overall = aggregate["overall"]
        assert overall["sweeps"] == 2
        # First sweep: 3 ok; second: 3 cached + 1 failed.
        assert overall["ok"] == 3
        assert overall["cached"] == second.cached_count == 3
        assert overall["failed"] == second.failed_count == 1
        assert overall["cache_puts"] == 3
        assert overall["jobs"] == 7

    def test_sweep_end_counters_match_result(self):
        sink = RecordingSink()
        result = execute(
            [
                JobSpec(runner="test.echo", kwargs={"x": 1}, index=0),
                JobSpec(runner="test.fail", index=1),
            ],
            retries=0,
            events=sink,
        )
        (end,) = sink.of_type("sweep_end")
        assert end["ok"] == result.ok_count == 1
        assert end["failed"] == result.failed_count == 1
        assert end["jobs"] == len(result) == 2
        assert len(sink.of_type("job_end")) == 2
        assert len(sink.of_type("job_start")) == 2

    def test_stats_block_reconciles_with_events(self):
        sink = RecordingSink()
        result = execute(
            SweepSpec(runners=["test.echo"], grid={"x": [1, 2]}).expand(),
            events=sink,
        )
        counters = result.stats["counters"]
        assert counters["jobs_ok"] == len(sink.of_type("job_end")) == 2
        assert result.stats["timers"]["job.test.echo"]["count"] == 2
        assert result.stats["timers"]["sweep"]["count"] == 1


class TestCliStats:
    def test_stats_subcommand_renders(self, tmp_path, capsys):
        from repro.cli import main

        log = EventLog(tmp_path / "e.jsonl")
        execute([JobSpec(runner="test.echo", kwargs={"x": 1})], events=log)
        log.close()
        assert main(["stats", str(tmp_path / "e.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "1 sweep(s), 1 jobs: 1 ok" in out
        assert "test.echo" in out

    def test_stats_missing_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_stats_json_output_is_versioned(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.obs.stats import STATS_SCHEMA

        log = EventLog(tmp_path / "e.jsonl")
        execute([JobSpec(runner="test.echo", kwargs={"x": 1})], events=log)
        log.close()
        assert main(["stats", str(tmp_path / "e.jsonl"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == STATS_SCHEMA


class TestTornLedgerReconciliation:
    """job_start without job_end is an interrupted job, never dropped."""

    def _torn(self):
        return [
            {"event": "sweep_start", "jobs": 3, "workers": 2},
            {"event": "job_start", "index": 0, "runner": "fig2",
             "label": "fig2"},
            {"event": "job_end", "index": 0, "runner": "fig2",
             "label": "fig2", "status": "ok", "duration_s": 0.2},
            {"event": "job_start", "index": 1, "runner": "fig9",
             "label": "fig9"},
            {"event": "job_start", "index": 2, "runner": "fig9",
             "label": "fig9#2"},
            # Lease worker (or the whole parent) died here: no job_end
            # for indices 1 and 2, no sweep_end.
        ]

    def test_open_starts_counted_as_interrupted_failures(self):
        aggregate = aggregate_events(self._torn())
        overall = aggregate["overall"]
        assert overall["interrupted"] == 2
        assert overall["failed"] == 2
        assert overall["jobs"] == 3  # 1 ok + 2 interrupted
        fig9 = aggregate["runners"]["fig9"]
        assert fig9["interrupted"] == 2 and fig9["failed"] == 2

    def test_render_shows_interrupted_only_when_torn(self):
        torn = render_stats(aggregate_events(self._torn()))
        assert "(2 interrupted)" in torn
        healthy = render_stats(aggregate_events(_synthetic_events()))
        assert "interrupted" not in healthy

    def test_healthy_first_line_is_byte_stable(self):
        # CI greps for this exact phrasing; the interrupted counter
        # must not perturb healthy-run output.
        line = render_stats(
            aggregate_events(_synthetic_events())
        ).splitlines()[0]
        assert line == (
            "1 sweep(s), 3 jobs: 1 ok, 1 cached, 1 failed in 1.50s"
        )

    def test_repeated_starts_pair_with_ends(self):
        # A retried job re-enters through the same (runner, label,
        # index) key; matched starts/ends must cancel exactly.
        events = [
            {"event": "job_start", "index": 0, "runner": "r", "label": "a"},
            {"event": "job_end", "index": 0, "runner": "r", "label": "a",
             "status": "ok", "duration_s": 0.1},
            {"event": "job_start", "index": 0, "runner": "r", "label": "a"},
        ]
        overall = aggregate_events(events)["overall"]
        assert overall["interrupted"] == 1
        assert overall["jobs"] == 2

    def test_real_torn_parallel_ledger_reconciles(self):
        # Drop the tail of a real batched sweep's ledger mid-lease and
        # the aggregate must still account for every started job.
        sink = RecordingSink()
        jobs = [
            JobSpec(runner="test.echo", kwargs={"v": i}, index=i)
            for i in range(6)
        ]
        execute(jobs, workers=2, lease_size=3,
                events=sink)
        events = list(sink.events)
        end_indices = [
            i for i, e in enumerate(events) if e["event"] == "job_end"
        ]
        torn = [
            e for i, e in enumerate(events)
            if i not in end_indices[-2:] and e["event"] != "sweep_end"
        ]
        overall = aggregate_events(torn)["overall"]
        assert overall["interrupted"] == 2
        assert overall["ok"] + overall["interrupted"] == 6


class TestAllCachedRunner:
    """A runner with zero duration samples renders n/a, not 0.000s."""

    def _cached_only(self):
        return [
            {"event": "sweep_start", "jobs": 2, "workers": 1},
            {"event": "cache_hit", "index": 0, "runner": "fig13", "key": "a"},
            {"event": "cache_hit", "index": 1, "runner": "fig13", "key": "b"},
            {"event": "sweep_end", "jobs": 2, "ok": 0, "cached": 2,
             "failed": 0, "elapsed_s": 0.01},
        ]

    def test_percentiles_are_none_not_zero(self):
        stats = aggregate_events(self._cached_only())["runners"]["fig13"]
        assert stats["p50_s"] is None
        assert stats["p95_s"] is None
        assert stats["max_s"] is None
        assert stats["cache_hit_rate"] == 1.0

    def test_render_shows_na(self):
        text = render_stats(aggregate_events(self._cached_only()))
        assert "n/a" in text
        assert "0.000s" not in text

    def test_timed_runner_still_renders_seconds(self):
        text = render_stats(aggregate_events(_synthetic_events()))
        assert "0.200s" in text
