"""Fleet sweep throughput: simulated UEs per second, end to end.

Times the full city-scale pipeline (docs/fleet.md) — scenario
generation, UE-major 2D-batched kernels, streaming reducers, partial
merge — serially and through the batch-lease engine, and emits
``BENCH_fleet.json`` at the repo root.

It also reports ``serial_minflt_per_ue``: minor page faults of the
serial run (``getrusage`` ``ru_minflt`` delta) per simulated UE, the
cost of computing into freshly mapped memory, and
``parallel_minflt_per_ue``: the same for the parallel run's lease
workers (the ``RUSAGE_CHILDREN`` delta, as ``execute`` reaps its
workers before it returns). The parallel run goes first, so its
workers fork from a parent no fleet run has warmed and the figure is
a fresh worker's. Both are reported, not gated.

Alongside throughput it asserts the pipeline's load-bearing contract:
the sharded-parallel summary is bit-identical to the serial one
(``fleet.shards`` provenance aside), and a shard partial stays small
enough that a million-UE sweep cannot blow up the parent.

Fails if UEs/s drops below **half** the checked-in baseline
(``benchmarks/baselines/BENCH_fleet_baseline.json``). Scale down for
smoke runs with ``BENCH_FLEET_UES`` (CI uses 4000).
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import time

from conftest import emit, emit_json

from repro.engine import execute
from repro.fleet import FleetSpec, finalize_summary, fleet_jobs, merge_partials

N_UES = int(os.environ.get("BENCH_FLEET_UES", "8000"))
WORKERS = 4
SHARDS = 8
BASELINE = (
    pathlib.Path(__file__).resolve().parent
    / "baselines"
    / "BENCH_fleet_baseline.json"
)
# Throughput regresses if it drops below baseline / this factor.
REGRESSION_FACTOR = 2.0


def _spec() -> FleetSpec:
    return FleetSpec(ues=N_UES, duration_s=120.0)


def _canon(summary: dict) -> str:
    comparable = json.loads(json.dumps(summary))
    comparable["fleet"].pop("shards")
    return json.dumps(comparable, sort_keys=True)


def _minflt(who: int = resource.RUSAGE_SELF) -> int:
    return resource.getrusage(who).ru_minflt


def _run_serial(spec: FleetSpec) -> tuple:
    from repro.fleet import run_fleet

    faults = _minflt()
    start = time.perf_counter()
    summary = run_fleet(spec, shards=1)
    return summary, time.perf_counter() - start, _minflt() - faults


def _run_parallel(spec: FleetSpec) -> tuple:
    start = time.perf_counter()
    result = execute(fleet_jobs(spec, shards=SHARDS), workers=WORKERS)
    result.raise_if_failed()
    summary = finalize_summary(
        spec, merge_partials([o.value for o in result.outcomes])
    )
    return summary, time.perf_counter() - start


def _measure() -> dict:
    spec = _spec()
    # Parallel first: a worker forked after the serial run would
    # inherit the malloc thresholds that run's frees raised.
    worker_faults = _minflt(resource.RUSAGE_CHILDREN)
    parallel_summary, parallel_s = _run_parallel(spec)
    parallel_minflt = _minflt(resource.RUSAGE_CHILDREN) - worker_faults
    serial_summary, serial_s, serial_minflt = _run_serial(spec)
    assert _canon(serial_summary) == _canon(parallel_summary), (
        "sharded-parallel fleet summary diverged from serial"
    )
    return {
        "serial_summary": serial_summary,
        "serial_ues_per_s": N_UES / serial_s,
        "parallel_ues_per_s": N_UES / parallel_s,
        "serial_minflt_per_ue": serial_minflt / N_UES,
        "parallel_minflt_per_ue": parallel_minflt / N_UES,
    }


def test_fleet_ues_per_second(benchmark):
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    spec = _spec()
    summary = measured["serial_summary"]

    # Memory-boundedness: one shard partial (what crosses the process
    # boundary and what the parent accumulates per shard) must stay
    # O(log range), never O(UEs x ticks).
    from repro.fleet import run_shard_job

    partial_bytes = len(json.dumps(run_shard_job(spec.to_dict(), 0, 64)))
    assert partial_bytes < 300_000, partial_bytes

    results = {
        "serial_ues_per_s": round(measured["serial_ues_per_s"], 1),
        "parallel_ues_per_s": round(measured["parallel_ues_per_s"], 1),
        "serial_minflt_per_ue": round(measured["serial_minflt_per_ue"], 2),
        "parallel_minflt_per_ue": round(
            measured["parallel_minflt_per_ue"], 2
        ),
        "partial_bytes": partial_bytes,
    }
    payload = {
        "ues": N_UES,
        "ticks": spec.ticks,
        "shards": SHARDS,
        "workers": WORKERS,
        "cpus": os.cpu_count(),
        "serial_identity": True,
        "results": results,
    }
    path = emit_json("BENCH_fleet.json", payload)

    walk = summary["groups"]["walk_mmwave_rsrp"]
    emit(
        f"Fleet throughput ({N_UES} UEs x {spec.ticks} ticks)",
        "\n".join(
            [
                f"serial:   {results['serial_ues_per_s']:>9.1f} UEs/s",
                f"parallel: {results['parallel_ues_per_s']:>9.1f} UEs/s "
                f"({SHARDS} shards, {WORKERS} workers)",
                f"faults:   {results['serial_minflt_per_ue']:>9.2f} "
                f"minor page faults/UE (serial), "
                f"{results['parallel_minflt_per_ue']:.2f} (parallel)",
                f"partial:  {partial_bytes} bytes/shard",
                f"walk mmWave RSRP p50: {walk['quantiles']['50']:.2f} dBm",
                f"written to {path.name}",
            ]
        ),
    )
    benchmark.extra_info.update(results)

    # Perf-regression gate against the checked-in baseline. UEs/s is
    # wall-clock, so the gate is a generous 2x like the serve bench.
    baseline = json.loads(BASELINE.read_text())["results"]
    for key in ("serial_ues_per_s", "parallel_ues_per_s"):
        floor = baseline[key] / REGRESSION_FACTOR
        assert results[key] >= floor, (
            f"{key} {results[key]:.1f} regressed below {floor:.1f} "
            f"(baseline {baseline[key]} / {REGRESSION_FACTOR})"
        )
