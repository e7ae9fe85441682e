"""Kernel perf-regression suite: vectorized vs pre-PR scalar hot paths.

Times each vectorized kernel against the scalar reference preserved in
:mod:`repro.kernels.reference` at realistic sizes (a 10 Hz walking
campaign is ~18k ticks), plus the end-to-end walking-trace generator as
the representative figure runner (Fig. 13/14 input), and the indexed
serving-distance search against the all-tower scan it replaced. Emits
``BENCH_kernels.json`` at the repo root and fails if any kernel's
speedup regresses below half its checked-in baseline
(``benchmarks/baselines/BENCH_kernels_baseline.json``) — speedup ratios
are compared, not wall-clock, so the check is stable across machines.

Scale down for smoke runs with ``BENCH_KERNELS_STEPS`` (CI uses 6000).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from conftest import emit, emit_json

from repro.kernels import reference as ref
from repro.power.device import S20U
from repro.power.software import SoftwareMonitor
from repro.radio.bands import NR_N261
from repro.radio.carriers import get_network
from repro.radio.link import LinkBudget, MODEMS
from repro.radio.signal import RsrpProcess
from repro.radio.towers import TowerGrid
from repro.traces.walking import WalkingTraceGenerator
from repro.transport.flow import TcpFlow, UdpFlow

N_STEPS = int(os.environ.get("BENCH_KERNELS_STEPS", "18000"))
BASELINE = (
    pathlib.Path(__file__).resolve().parent
    / "baselines"
    / "BENCH_kernels_baseline.json"
)
# A kernel regresses if its speedup drops below baseline / this factor.
REGRESSION_FACTOR = 2.0


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _distances(n: int) -> np.ndarray:
    rng = np.random.default_rng(99)
    return np.clip(60.0 + np.cumsum(rng.normal(0.0, 1.0, n)), 10.0, 400.0)


def _all_tower_distances(grid, x, y, band, default_m):
    """The all-tower scan ``TowerGrid.serving_distances`` replaced:
    every sample against every tower of ``band``, in 1<<20-element
    chunks. The oracle for the serving-distance row."""
    towers = grid.towers_for_band(band)
    tx = np.array([[t.x_m] for t in towers])
    ty = np.array([[t.y_m] for t in towers])
    coverage = band.coverage_km * 1000.0
    chunk = max(1, (1 << 20) // len(towers))
    best = np.empty(x.shape[0])
    for start in range(0, x.shape[0], chunk):
        stop = start + chunk
        distances = np.hypot(tx - x[start:stop], ty - y[start:stop])
        distances = np.where(distances > coverage, np.inf, distances)
        best[start:stop] = distances.min(axis=0)
    return np.where(np.isinf(best), default_m, best)


def _measure_kernels() -> dict:
    distances = _distances(N_STEPS)
    results = {}

    # RSRP series generation (the tentpole's >=10x target).
    results["rsrp_series"] = {
        "scalar_s": _best_of(
            lambda: ref.rsrp_series_step_loop(
                RsrpProcess(NR_N261, seed=1), distances, 1.4
            )
        ),
        "vector_s": _best_of(
            lambda: RsrpProcess(NR_N261, seed=1).simulate(distances, 1.4)
        ),
    }

    # Link capacity over an RSRP series.
    link = LinkBudget(get_network("verizon-nsa-mmwave"), MODEMS["X55"])
    rsrp = np.linspace(-130.0, -60.0, N_STEPS)
    results["capacity_series"] = {
        "scalar_s": _best_of(lambda: ref.capacity_series_scalar(link, rsrp)),
        "vector_s": _best_of(lambda: link.capacity_series_mbps(rsrp)),
    }

    # Transport flows (per-RTT TCP; per-step UDP).
    tcp_duration = N_STEPS * 0.028
    results["tcp_run"] = {
        "scalar_s": _best_of(
            lambda: ref.tcp_run_scalar(
                TcpFlow(rtt_ms=28.0, seed=2), 2000.0, duration_s=tcp_duration
            )
        ),
        "vector_s": _best_of(
            lambda: TcpFlow(rtt_ms=28.0, seed=2).run(
                2000.0, duration_s=tcp_duration
            )
        ),
    }
    udp_duration = N_STEPS * 0.1
    results["udp_run"] = {
        "scalar_s": _best_of(
            lambda: ref.udp_run_scalar(UdpFlow(), 2000.0, duration_s=udp_duration)
        ),
        "vector_s": _best_of(
            lambda: UdpFlow().run(2000.0, duration_s=udp_duration)
        ),
    }

    # Software power monitor at the paper's 10 Hz.
    sw_duration = N_STEPS / 10.0
    results["software_measure"] = {
        "scalar_s": _best_of(
            lambda: ref.software_measure_scalar(
                SoftwareMonitor(rate_hz=10.0, seed=3),
                lambda t: 2000.0 + 500.0 * np.sin(t / 3.0),
                sw_duration,
            )
        ),
        "vector_s": _best_of(
            lambda: SoftwareMonitor(rate_hz=10.0, seed=3).measure(
                lambda t: 2000.0 + 500.0 * np.sin(t / 3.0), sw_duration
            )
        ),
    }

    # End-to-end: one full walking trace, the Fig. 13/14 runner's unit
    # of work (the >=5x end-to-end target).
    network = get_network("verizon-nsa-mmwave")
    results["walking_trace"] = {
        "scalar_s": _best_of(
            lambda: ref.walking_generate_scalar(
                WalkingTraceGenerator(network=network, device=S20U, seed=4),
                "bench",
            ),
            repeats=2,
        ),
        "vector_s": _best_of(
            lambda: WalkingTraceGenerator(
                network=network, device=S20U, seed=4
            ).generate("bench"),
            repeats=2,
        ),
    }

    # Serving distance on the default fleet city's mmWave grid (169
    # towers, 350 m coverage) over scattered samples; the index is
    # built once, outside the timed calls.
    grid = TowerGrid.uniform_grid(NR_N261, 4000.0, 300.0)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 4000.0, 4 * N_STEPS)
    y = rng.uniform(0.0, 4000.0, 4 * N_STEPS)
    start = time.perf_counter()
    grid.serving_distances(x[:1], y[:1], NR_N261, 350.0)
    build_s = time.perf_counter() - start
    indexed = grid.serving_distances(x, y, NR_N261, 350.0)
    oracle = _all_tower_distances(grid, x, y, NR_N261, 350.0)
    assert np.array_equal(indexed, oracle), "serving index not bit-identical"
    results["serving_distance"] = {
        "scalar_s": _best_of(
            lambda: _all_tower_distances(grid, x, y, NR_N261, 350.0)
        ),
        "vector_s": _best_of(
            lambda: grid.serving_distances(x, y, NR_N261, 350.0)
        ),
    }

    for entry in results.values():
        entry["speedup"] = round(entry["scalar_s"] / entry["vector_s"], 2)
        entry["scalar_s"] = round(entry["scalar_s"], 5)
        entry["vector_s"] = round(entry["vector_s"], 5)
    return results, build_s


def test_kernel_speedups(benchmark):
    results, build_s = benchmark.pedantic(
        _measure_kernels, rounds=1, iterations=1
    )
    payload = {
        "n_steps": N_STEPS,
        "kernels": results,
        "serving_index_build_s": round(build_s, 5),
    }
    path = emit_json("BENCH_kernels.json", payload)

    lines = [f"{'kernel':<18}{'scalar':>10}{'vector':>10}{'speedup':>9}"]
    for name, entry in results.items():
        lines.append(
            f"{name:<18}{entry['scalar_s']:>9.4f}s{entry['vector_s']:>9.4f}s"
            f"{entry['speedup']:>8.1f}x"
        )
    lines.append(f"serving_distance index build {build_s * 1e3:.1f} ms")
    lines.append(f"written to {path.name}")
    emit(f"Kernel speedups at {N_STEPS} steps", "\n".join(lines))

    for name, entry in results.items():
        benchmark.extra_info[name] = entry["speedup"]

    # The tentpole's acceptance floors.
    assert results["rsrp_series"]["speedup"] >= 10.0, results["rsrp_series"]
    assert results["walking_trace"]["speedup"] >= 5.0, results["walking_trace"]
    # Serving distance on the default city: >= 10x the all-tower scan.
    assert results["serving_distance"]["speedup"] >= 10.0, results[
        "serving_distance"
    ]
    for name, entry in results.items():
        assert entry["speedup"] > 1.0, f"{name} slower than scalar: {entry}"

    # Perf-regression gate against the checked-in baseline.
    baseline = json.loads(BASELINE.read_text())["kernels"]
    for name, entry in results.items():
        floor = baseline[name]["speedup"] / REGRESSION_FACTOR
        assert entry["speedup"] >= floor, (
            f"{name} speedup {entry['speedup']}x regressed below "
            f"{floor:.1f}x (baseline {baseline[name]['speedup']}x / "
            f"{REGRESSION_FACTOR})"
        )
