"""Golden-value regression pins.

Every stochastic generator in the library is seeded, so a handful of
exact outputs act as drift detectors: if a refactor changes any of
these values, it has changed simulated *behaviour* (seed plumbing, RNG
consumption order, or model math) and every calibrated figure needs
re-checking. Update the pins only deliberately, alongside a re-run of
the benchmark suite.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.engine import registry
from repro.experiments.export import to_jsonable
from repro.fleet import FleetSpec, run_fleet
from repro.power.device import get_device
from repro.radio.bands import NR_N71, NR_N261
from repro.radio.carriers import get_network
from repro.radio.signal import RsrpProcess, rsrp_at_distance
from repro.rrc.machine import RRCStateMachine
from repro.rrc.parameters import get_parameters
from repro.traces.lumos import LumosConfig, generate_lumos_corpus
from repro.traces.walking import WalkingTraceGenerator
from repro.web.browser import Browser
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


def _repr_digest(value) -> str:
    """sha256 of ``repr(value)``: exact floats, so a 1-ulp drift (or a
    float turned into an ``np.float64``) changes the digest."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestGoldenExactModels:
    """Exact-value pins on the page-load model (Fig. 19-22, Table 6)
    and the walking traces (Fig. 13/14): every float, not a rounding."""

    def test_page_loads(self):
        browser = Browser(seed=9)
        rows = []
        for site in generate_catalog(n_sites=40, seed=3):
            for result in browser.load_both(site):
                har = result.har
                rows.append(
                    (
                        result.plt_s,
                        result.energy_j,
                        har.n_entries,
                        har.on_load_ms,
                        har.throughput_timeline_mbps(0.5),
                        [
                            (e.url, e.start_ms, e.duration_ms, e.size_bytes, e.dynamic)
                            for e in har.entries
                        ],
                    )
                )
        assert sum(row[2] for row in rows) == 7910
        assert _repr_digest(rows) == (
            "454a12e88ec55dda5dacadcd8d451a8a7289cd9579c1236e5c384e7a09f9e352"
        )

    @pytest.mark.parametrize(
        "key, uplink_fraction, seed, expected",
        [
            (
                "verizon-nsa-mmwave", 0.0, 17,
                "9afedf6461d8e4c432e4aad714db3781e33aab254af17bbd9bf3a1179a64e667",
            ),
            (
                "verizon-nsa-lowband", 0.3, 23,
                "b80b3df8cce39af071c65c77e7dd071e7e718012d54c511e9754f1de500e9083",
            ),
        ],
    )
    def test_walking_traces(self, key, uplink_fraction, seed, expected):
        generator = WalkingTraceGenerator(
            network=get_network(key),
            device=get_device("S20U"),
            uplink_fraction=uplink_fraction,
            seed=seed,
        )
        traces = generator.generate_many(2)
        if uplink_fraction:
            assert all(np.any(t.ul_mbps > 0) for t in traces)
        assert _repr_digest(
            [
                (
                    t.times_s.tolist(),
                    t.dl_mbps.tolist(),
                    t.ul_mbps.tolist(),
                    t.rsrp_dbm.tolist(),
                    t.power_mw.tolist(),
                )
                for t in traces
            ]
        ) == expected

    @pytest.mark.parametrize(
        "runner, seed, expected",
        [
            ("table6", 7, "0a2aac44f0b7cc9361fc12d58fbd45667c15c04f93aa31239fd29f26a9237c64"),
            ("table6", 71, "669b759ea1adcb5f6385b6fde2c5145096bef498e30fc6a9125c67a05267d320"),
            ("fig19", 7, "d1d1faeaa631929d715acd6577c7bd5f9d7bb9268b3e4231d66cd7e96a186f7c"),
            ("fig19", 71, "bb4275be503787a7273e0bfd677a169f2536d80bf796a59d436bafabf88e8748"),
        ],
    )
    def test_web_runners(self, runner, seed, expected):
        value = registry.call(runner, seed=seed, scale=0.05)
        text = json.dumps(to_jsonable(value), sort_keys=True, allow_nan=False)
        assert hashlib.sha256(text.encode()).hexdigest() == expected
