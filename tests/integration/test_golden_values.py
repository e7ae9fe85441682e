"""Golden-value regression pins.

Every stochastic generator in the library is seeded, so a handful of
exact outputs act as drift detectors: if a refactor changes any of
these values, it has changed simulated *behaviour* (seed plumbing, RNG
consumption order, or model math) and every calibrated figure needs
re-checking. Update the pins only deliberately, alongside a re-run of
the benchmark suite.
"""

import numpy as np
import pytest

from repro.fleet import FleetSpec, run_fleet
from repro.radio.bands import NR_N71, NR_N261
from repro.radio.signal import RsrpProcess, rsrp_at_distance
from repro.rrc.machine import RRCStateMachine
from repro.rrc.parameters import get_parameters
from repro.traces.lumos import LumosConfig, generate_lumos_corpus
from repro.web.catalog import generate_catalog


class TestGoldenValues:
    def test_lumos_corpus_first_samples(self):
        traces_5g, traces_4g = generate_lumos_corpus(
            LumosConfig(n_5g=1, n_4g=1, duration_s=50, seed=77)
        )
        # 5G pins regenerated when RsrpProcess.simulate moved to batched
        # RNG draws (draw order change documented in docs/performance.md);
        # 4G pins were unchanged by that migration (the non-mmWave path
        # consumes the same stream as the old per-step loop).
        assert np.round(traces_5g[0].throughput_mbps[:3], 4).tolist() == [
            165.8865,
            177.9363,
            191.7361,
        ]
        assert np.round(traces_4g[0].throughput_mbps[:3], 4).tolist() == [
            20.5677,
            23.015,
            24.6711,
        ]

    def test_rsrp_process_stream(self):
        process = RsrpProcess(NR_N261, seed=5)
        samples = [round(process.step(100.0, 1.0), 4) for _ in range(3)]
        assert samples == [-84.4887, -83.6845, -83.4261]

    def test_static_rsrp(self):
        assert rsrp_at_distance(NR_N261, 100.0) == pytest.approx(-82.3832, abs=1e-4)

    def test_rrc_idle_delay(self):
        machine = RRCStateMachine(get_parameters("verizon-nsa-mmwave"), seed=9)
        machine.deliver_packet(0.0)
        delay = machine.deliver_packet(machine.last_activity_ms + 20000.0)
        assert delay == pytest.approx(2274.126, abs=1e-3)

    def test_catalog_first_sites(self):
        catalog = generate_catalog(n_sites=3, seed=8)
        assert [(s.n_objects, s.total_bytes) for s in catalog] == [
            (14, 750319),
            (245, 19248548),
            (53, 1363079),
        ]


class TestGoldenRsrpPipeline:
    """Pins on both consumers of the RSRP model: the batched
    ``RsrpProcess.simulate`` and the fleet's counter-based matrices.
    A recalibration of one that is not a recalibration of the other
    moves one of these classes and not the other."""

    def test_mmwave_walk(self):
        process = RsrpProcess(NR_N261, seed=13)
        samples = process.simulate(np.linspace(40.0, 260.0, 400), speed_mps=1.4)
        assert np.round(samples[::50], 4).tolist() == [
            -70.5764, -80.926, -80.2755, -83.7309,
            -101.91, -105.9476, -95.6689, -93.5316,
        ]
        assert round(float(samples.min()), 4) == -118.3512
        assert process.blocked is False

    def test_mmwave_simulate_after_step_mid_blockage(self):
        # Carried-over state: blocked, a partial depth ramp, the event's
        # severity and the fading value all enter the batched call.
        process = RsrpProcess(NR_N261, seed=3)
        steps = 0
        while not process.blocked:
            process.step(120.0, 5.0)
            steps += 1
        for _ in range(3):
            process.step(120.0, 5.0)
        assert steps == 11 and process.blocked
        samples = process.simulate(np.full(40, 120.0), speed_mps=1.4)
        assert np.round(samples[:6], 4).tolist() == [
            -96.0084, -98.2822, -99.1128, -101.396, -100.0495, -103.227,
        ]
        assert np.round(samples[::8], 4).tolist() == [
            -96.0084, -105.1643, -107.8868, -117.3923, -119.9086,
        ]
        assert process.blocked is True

    def test_mmwave_per_tick_speeds(self):
        speeds = 1.0 + np.abs(np.sin(np.arange(600) / 23.0)) * 4.0
        process = RsrpProcess(NR_N261, seed=21)
        samples = process.simulate(np.linspace(300.0, 60.0, 600), speed_mps=speeds)
        assert np.round(samples[::60], 4).tolist() == [
            -96.4272, -106.3101, -92.2897, -85.5994, -83.0064,
            -81.4188, -122.675, -104.3356, -84.7243, -82.3576,
        ]
        assert round(float(samples.min()), 4) == -133.1646
        assert process.blocked is True

    def test_lowband(self):
        process = RsrpProcess(NR_N71, seed=11)
        samples = process.simulate(np.linspace(200.0, 3000.0, 200), speed_mps=1.4)
        assert np.round(samples[::25], 4).tolist() == [
            -71.4137, -85.4562, -90.7604, -91.4294,
            -96.2584, -98.0899, -102.5028, -101.6405,
        ]

    @pytest.mark.parametrize(
        "key, expected",
        [
            (20210823, [-80.854, -82.2774, -139.4036, -60.0, -85.6354, 272.373]),
            (7, [-80.4507, -82.2774, -135.7647, -60.0, -85.6354, 186.5504]),
        ],
    )
    def test_small_fleet_summary(self, key, expected):
        groups = run_fleet(FleetSpec(ues=512, key=key))["groups"]
        rsrp = groups["rsrp_all"]
        assert [
            round(rsrp["mean"], 4),
            round(rsrp["quantiles"]["50"], 4),
            round(rsrp["min"], 4),
            round(rsrp["max"], 4),
            round(groups["walk_mmwave_rsrp"]["quantiles"]["50"], 4),
            round(groups["dl_all"]["mean"], 4),
        ] == expected
