"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest repobench/tests -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402
import common  # noqa: E402
import layers  # noqa: E402
import ledger_fold  # noqa: E402
import run  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def traced():
    clock = FakeClock()
    return layers.Tracer(clock=clock), clock


def wrap(tracer, layer, fn):
    return layers._wrap(tracer, layer, fn, None)


class TestSelfTime:
    def test_nested_spans_subtract_children(self, traced):
        tracer, clock = traced

        def inner():
            clock.advance(2.0)

        inner_w = wrap(tracer, "b", inner)

        def outer():
            clock.advance(1.0)
            inner_w()
            clock.advance(3.0)

        wrap(tracer, "a", outer)()
        tables = tracer.tables()
        assert tables["self_s"] == {"a": 4.0, "b": 2.0}
        assert tables["total_s"] == {"a": 6.0, "b": 2.0}
        assert tables["top"] == [(0.0, 6.0)]

    def test_direct_recursion_is_one_span(self, traced):
        tracer, clock = traced
        calls = []

        def walk(depth):
            calls.append(depth)
            clock.advance(1.0)
            if depth:
                walk_w(depth - 1)

        walk_w = wrap(tracer, "r", walk)
        walk_w(3)
        tables = tracer.tables()
        assert calls == [3, 2, 1, 0]
        assert tables["self_s"] == {"r": 4.0}
        assert tables["total_s"] == {"r": 4.0}
        assert tables["calls"] == {"r": 1}

    def test_reentry_through_another_layer_counts_total_once(self, traced):
        tracer, clock = traced

        def a(again):
            clock.advance(1.0)
            if again:
                b_w()

        def b():
            clock.advance(2.0)
            a_w(False)
            clock.advance(1.0)

        a_w, b_w = wrap(tracer, "a", a), wrap(tracer, "b", b)
        a_w(True)
        tables = tracer.tables()
        # a: 1 s before b plus 1 s inside b; b: 3 s of its own.
        assert tables["self_s"] == {"a": 2.0, "b": 3.0}
        assert tables["total_s"] == {"a": 5.0, "b": 4.0}
        assert sum(tables["self_s"].values()) == 5.0

    def test_generator_steps_are_spans_of_the_producer(self, traced):
        tracer, clock = traced

        def produce():
            for item in range(3):
                clock.advance(1.0)
                yield item

        produce_w = wrap(tracer, "parse", produce)

        def consume():
            total = 0
            for item in produce_w():
                clock.advance(0.5)
                total += item
            return total

        assert wrap(tracer, "fold", consume)() == 3
        tables = tracer.tables()
        assert tables["self_s"] == {"parse": 3.0, "fold": 1.5}

    def test_exceptions_close_the_span(self, traced):
        tracer, clock = traced

        def boom():
            clock.advance(1.0)
            raise ValueError("x")

        with pytest.raises(ValueError):
            wrap(tracer, "a", boom)()
        assert tracer.tables()["self_s"] == {"a": 1.0}
        assert tracer._tables().stack == []

    def test_union_clips_to_windows(self):
        spans = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]
        assert layers.union_s(spans, [(0.5, 5.5)]) == pytest.approx(3.0)
        assert layers.union_s(spans, [(3.0, 5.0)]) == 0.0


class TestPercentileRule:
    @pytest.mark.parametrize(
        "q, smallest", [(95, 200), (50, 20), (99, 1000)]
    )
    def test_needs_ten_samples_beyond(self, q, smallest):
        assert common.tail_percentile(list(range(smallest - 1)), q) is None
        value = common.tail_percentile(list(range(smallest)), q)
        assert value is not None
        assert sum(1 for v in range(smallest) if v > value) >= 10

    def test_nearest_rank(self):
        assert common.tail_percentile(list(range(200)), 95) == 189
        assert common.tail_percentile([3.0, 1.0] * 20, 50) == 1.0

    def test_infinite_latency_ranks_last(self):
        values = [1.0] * 189 + [float("inf")] * 11
        assert common.tail_percentile(values, 95) == float("inf")


class TestCatalogue:
    def spec(self):
        return json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_benchmark_json_declares_the_catalogue(self):
        spec = self.spec()
        assert [
            (m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]
        ] == [tuple(m) for m in catalog.END_TO_END]
        assert [
            (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
        ] == [tuple(m) for m in catalog.PER_LAYER]

    def test_workload_reasons_live_with_their_definitions(self):
        assert [(w["name"], w["why"]) for w in self.spec()["workloads"]] == [
            (module.NAME, module.WHY) for module in run.WORKLOADS.values()
        ]

    def test_fold_views_match_the_catalogue(self):
        assert list(ledger_fold.VIEWS) == list(catalog.FOLD_VIEWS)

    def test_setup_has_the_largest_bound(self):
        bounds = {m[0]: m[3] for m in catalog.END_TO_END}
        assert bounds["setup_s"] == max(bounds.values())

    @pytest.mark.parametrize("trace", [False, True])
    def test_results_carry_exactly_the_catalogue(self, trace, tmp_path):
        ctx = run.Context(1, 1.0, trace, tmp_path)
        out = ctx.result([], 1, 0, {catalog.names(trace)[0]: 2.5})
        assert list(out["metrics"]) == catalog.names(trace)
        assert out["metrics"][catalog.names(trace)[0]]["value"] == 2.5
        with pytest.raises(KeyError):
            ctx.result([], 1, 0, {"not.a.metric": 1.0})

    def test_unmeasured_metric_fails_the_run(self, tmp_path):
        ctx = run.Context(1, 1.0, False, tmp_path)
        out = ctx.result([], 1, 0, {"setup_s": None})
        assert out["correct"] is False

    def test_a_workload_prints_the_catalogue(self):
        proc = subprocess.run(
            [
                sys.executable, str(BENCH / "run.py"), "--workload",
                "ledger_fold", "--seed", "3", "--seconds", "1", "--trace", "0",
            ],
            capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert list(result["metrics"]) == catalog.names(False)


class TestLedgerTally:
    def line(self, event, **fields):
        return json.dumps(dict(event=event, **fields))

    def test_counts_follow_repro_stats_definitions(self):
        job = dict(runner="fig2", label="fig2")
        lines = [
            self.line("job_start", index=0, **job),
            self.line("job_retry", index=0, **job),
            self.line("job_timeout", index=0, **job),
            self.line("job_end", index=0, status="ok", **job),
            self.line("job_start", index=1, **job),
            self.line("job_end", index=1, status="failed", **job),
            self.line("job_start", index=2, **job),
            self.line("cache_hit", index=3, **job),
        ]
        assert ledger_fold.tally(lines) == {
            "ok": 1,
            "cached": 1,
            "failed": 2,
            "retries": 1,
            "timeouts": 1,
            "interrupted": 1,
        }
