"""Tests for repro.traces.walking."""

import numpy as np
import pytest

from repro.power.device import get_device
from repro.radio.carriers import get_network
from repro.traces.walking import LOG_RATE_HZ, WalkingTraceGenerator


class TestWalkingTraces:
    def test_10hz_logging(self, walking_traces_mmwave):
        trace = walking_traces_mmwave[0]
        dt = np.diff(trace.times_s)
        assert np.allclose(dt, 1.0 / LOG_RATE_HZ)

    def test_loop_duration_about_20min(self, walking_traces_mmwave):
        assert walking_traces_mmwave[0].duration_s == pytest.approx(1143.0, rel=0.05)

    def test_power_tracks_throughput(self, walking_traces_mmwave):
        trace = walking_traces_mmwave[0]
        high = trace.dl_mbps > np.percentile(trace.dl_mbps, 80)
        low = trace.dl_mbps < np.percentile(trace.dl_mbps, 20)
        assert trace.power_mw[high].mean() > trace.power_mw[low].mean()

    def test_rsrp_fluctuates_wildly_on_mmwave(self, walking_traces_mmwave):
        # Section 4.4: mmWave signal "fluctuates frequently and wildly".
        trace = walking_traces_mmwave[0]
        assert trace.rsrp_dbm.max() - trace.rsrp_dbm.min() > 25.0

    def test_generate_many_counts(self):
        generator = WalkingTraceGenerator(
            network=get_network("tmobile-sa-lowband"),
            device=get_device("S20U"),
            seed=1,
        )
        traces = generator.generate_many(3)
        assert len(traces) == 3
        assert len({t.name for t in traces}) == 3

    def test_metadata_propagated(self, walking_traces_mmwave):
        trace = walking_traces_mmwave[0]
        assert trace.network_key == "verizon-nsa-mmwave"
        assert trace.device_name == "S20U"
        assert trace.band_class == "mmWave"

    def test_lowband_smoother_than_mmwave(self, walking_traces_mmwave):
        generator = WalkingTraceGenerator(
            network=get_network("tmobile-nsa-lowband"),
            device=get_device("S20U"),
            seed=2,
        )
        lowband = generator.generate("lb")
        mm = walking_traces_mmwave[0]
        assert np.std(lowband.rsrp_dbm) < np.std(mm.rsrp_dbm)

    def test_invalid_count(self):
        generator = WalkingTraceGenerator(
            network=get_network("verizon-lte"), device=get_device("S20U")
        )
        with pytest.raises(ValueError):
            generator.generate_many(0)


class TestBoundDraws:
    """The burst loop draws ``normal`` and ``uniform`` through bound
    ``standard_normal`` and ``random``; that is bit-identical only while
    NumPy defines them as ``loc + scale * z`` and ``a + (b - a) * u``."""

    @pytest.mark.parametrize("seed", [0, 7, 2021])
    def test_match_numpy_normal_and_uniform(self, seed):
        rng, bound = np.random.default_rng(seed), np.random.default_rng(seed)
        for peak in np.linspace(5.0, 3100.0, 2000).tolist():
            assert rng.random() == bound.random()
            assert rng.normal(0.8, 0.08) == 0.8 + 0.08 * bound.standard_normal()
            assert rng.uniform(5.0, peak) == 5.0 + (peak - 5.0) * bound.random()
            assert rng.normal(1.0, 0.03) == 1.0 + 0.03 * bound.standard_normal()
