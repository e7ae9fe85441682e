"""End-to-end tests for repro.fleet: city-scale sweeps, bit for bit.

The load-bearing property: a fleet summary is a pure function of the
:class:`FleetSpec` — shard count, worker count, merge order, and cache
round-trips change nothing (``fleet.shards`` in the summary header is
provenance metadata and is excluded from comparisons).
"""

import json

import numpy as np
import pytest

from repro.engine import ResultCache, execute
from repro.fleet import (
    FleetScenario,
    FleetSpec,
    finalize_summary,
    fleet_jobs,
    merge_partials,
    run_fleet,
    run_shard_job,
    shard_bounds,
)
from repro.fleet.kernels import downlink_matrix, power_matrix, rsrp_matrix
from repro.fleet.scenario import STREAM_BLOCK, STREAM_FADING, STREAM_SEVERITY
from repro.kernels.ctrrng import normals, uniforms
from repro.kernels.scan import ar1_scan, leaky_ramp_scan, markov_binary_scan
from repro.radio.carriers import get_network
from repro.radio.link import LinkBudget
from repro.radio.propagation import BlockageModel, get_path_loss_model
from repro.radio.signal import _BLOCKAGE_FADE_DB, _FADING_SIGMA, _TX_EIRP_DBM


def _small_spec(**overrides):
    kwargs = dict(ues=60, duration_s=30.0)
    kwargs.update(overrides)
    return FleetSpec(**kwargs)


def _canon(summary):
    """Comparable summary: everything except shard-count provenance."""
    out = json.loads(json.dumps(summary))
    out["fleet"].pop("shards")
    return out


class TestFleetSpec:
    def test_dict_round_trip(self):
        spec = _small_spec(key=99, city_extent_m=2500.0)
        assert FleetSpec.from_dict(spec.to_dict()) == spec

    def test_ticks(self):
        assert _small_spec(duration_s=120.0, dt_s=0.5).ticks == 240

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(ues=0)
        with pytest.raises(ValueError):
            _small_spec(dt_s=0.0)
        with pytest.raises(ValueError):
            _small_spec(network_mix={"verizon-nsa-mmwave": 0.5})
        with pytest.raises(ValueError):
            _small_spec(mobility_mix={"teleport": 1.0})
        with pytest.raises(ValueError):
            _small_spec(app_mix={"speedtest": -0.1, "video": 1.1})

    def test_device_without_curves_rejected(self):
        # S10 has no verizon-nsa-lowband / tmobile-sa-lowband curves;
        # the default mix includes both.
        with pytest.raises(ValueError, match="power curve"):
            FleetScenario(_small_spec(device="S10"))


class TestScenario:
    def test_assignments_are_pure_in_ue_index(self):
        scenario = FleetScenario(_small_spec(ues=5000))
        ue = np.arange(5000, dtype=np.int64)
        a = scenario.assignments(ue)
        b = scenario.assignments(ue[2000:3000])
        for field in ("network", "mobility", "app"):
            assert np.array_equal(a[field][2000:3000], b[field])

    def test_mix_shares_roughly_respected(self):
        spec = _small_spec(ues=20000)
        scenario = FleetScenario(spec)
        attrs = scenario.assignments(np.arange(20000, dtype=np.int64))
        walk_share = float((attrs["mobility"] == 0).mean())
        assert walk_share == pytest.approx(0.5, abs=0.02)

    def test_speeds_by_mobility_kind(self):
        spec = _small_spec(
            ues=30,
            mobility_mix={"stationary": 1.0},
        )
        scenario = FleetScenario(spec)
        ue = np.arange(30, dtype=np.int64)
        attrs = scenario.assignments(ue)
        x, y, speed = scenario.positions(ue, attrs["mobility"])
        assert x.shape == (30, spec.ticks)
        assert np.all(speed == 0.0)
        # Stationary UEs do not move.
        assert np.all(x == x[:, :1]) and np.all(y == y[:, :1])


class TestShardInvariance:
    def test_shard_bounds_tile_exactly(self):
        for ues, shards in ((10, 3), (1, 5), (4097, 16), (100, 100)):
            bounds = shard_bounds(ues, shards)
            assert bounds[0][0] == 0 and bounds[-1][1] == ues
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert start == stop

    def test_serial_vs_any_split_bit_identical(self):
        spec = _small_spec(ues=47)
        reference = _canon(run_fleet(spec, shards=1))
        for shards in (2, 5, 47):
            assert _canon(run_fleet(spec, shards=shards)) == reference

    def test_merge_order_does_not_matter(self):
        spec = _small_spec(ues=31)
        parts = [
            run_shard_job(spec.to_dict(), start, stop)
            for start, stop in shard_bounds(31, 4)
        ]
        reference = _canon(finalize_summary(spec, merge_partials(parts)))
        shuffled = [parts[2], parts[0], parts[3], parts[1]]
        assert (
            _canon(finalize_summary(spec, merge_partials(shuffled)))
            == reference
        )

    def test_gap_in_partials_rejected(self):
        spec = _small_spec(ues=20)
        parts = [
            run_shard_job(spec.to_dict(), 0, 5),
            run_shard_job(spec.to_dict(), 10, 20),
        ]
        with pytest.raises(ValueError, match="contiguous"):
            merge_partials(parts)

    def test_partial_coverage_rejected_at_finalize(self):
        spec = _small_spec(ues=20)
        partial = merge_partials([run_shard_job(spec.to_dict(), 0, 10)])
        with pytest.raises(ValueError, match="spec says"):
            finalize_summary(spec, partial)

    def test_out_of_range_shard_rejected(self):
        spec = _small_spec(ues=10)
        with pytest.raises(ValueError):
            run_shard_job(spec.to_dict(), 5, 11)


class TestShardTiles:
    """A shard of many tiles equals the same shard run as one tile.

    Tiles reuse one set of per-shard buffers; the short final tile
    uses a prefix of them, so stale rows from the tile before must
    never reach a reducer.
    """

    @pytest.mark.parametrize("tile", [7, 16])
    def test_partial_is_byte_identical_to_one_tile(self, monkeypatch, tile):
        import repro.fleet.shard as shard

        spec = _small_spec(ues=61).to_dict()
        start, stop = 5, 58  # 53 UEs: the last tile is short at 7 and 16
        assert (stop - start) % tile and stop - start <= shard.TILE_UES
        one_tile = json.dumps(run_shard_job(spec, start, stop))
        monkeypatch.setattr(shard, "TILE_UES", tile)
        assert json.dumps(run_shard_job(spec, start, stop)) == one_tile


class TestEnginePath:
    def test_parallel_engine_matches_serial_and_caches(self, tmp_path):
        spec = _small_spec(ues=40)
        serial = _canon(run_fleet(spec, shards=1))
        cache = ResultCache(tmp_path / "cache")
        jobs = fleet_jobs(spec, shards=3)
        result = execute(jobs, workers=2, cache=cache)
        partials = [o.value for o in result.outcomes]
        assert (
            _canon(finalize_summary(spec, merge_partials(partials))) == serial
        )
        rerun = execute(fleet_jobs(spec, shards=3), workers=2, cache=cache)
        assert rerun.cached_count == 3
        cached = [o.value for o in rerun.outcomes]
        assert (
            _canon(finalize_summary(spec, merge_partials(cached))) == serial
        )

    def test_partial_stays_small(self):
        # The whole point of streaming reducers: a shard's partial is
        # O(log range), not O(UEs x ticks).
        spec = _small_spec(ues=200, duration_s=60.0)
        partial = run_shard_job(spec.to_dict(), 0, 200)
        encoded = json.dumps(partial)
        assert len(encoded) < 200_000


class TestSingleUEParity:
    """A 1-UE fleet is the single-UE kernel composition, bit for bit."""

    def _spec(self):
        return FleetSpec(
            ues=1,
            duration_s=60.0,
            network_mix={"verizon-nsa-mmwave": 1.0},
            mobility_mix={"walk": 1.0},
            app_mix={"speedtest": 1.0},
        )

    def _reference_series(self, spec, scenario, network):
        """Re-derive UE 0's series with 1-D scans and a Python severity
        loop — independent of the 2-D batched code under test."""
        ue = np.array([0], dtype=np.int64)
        attrs = scenario.assignments(ue)
        x, y, speed = scenario.positions(ue, attrs["mobility"])
        distances = scenario.serving_distances(
            ue, attrs["mobility"], x, y, network.band
        )[0]
        speed = speed[0]
        band = network.band
        ticks = spec.ticks
        cols = np.arange(ticks, dtype=np.int64)

        rho = float(np.exp(-spec.dt_s / 1.5))
        sigma_eff = float(
            _FADING_SIGMA[band.band_class] * np.sqrt(1.0 - rho**2)
        )
        fading = ar1_scan(
            rho, normals(spec.key, STREAM_FADING, 0, cols) * sigma_eff, 0.0
        )
        loss = get_path_loss_model(band).path_loss_db_series(distances)
        rsrp = _TX_EIRP_DBM[band.band_class] - loss + fading

        draws = uniforms(spec.key, STREAM_BLOCK, 0, cols)
        p_block, p_recover = BlockageModel().transition_probabilities(
            speed, spec.dt_s
        )
        blocked = markov_binary_scan(
            draws >= p_recover, draws < p_block, init=False
        )
        severity_draws = 0.5 + 0.5 * uniforms(
            spec.key, STREAM_SEVERITY, 0, cols
        )
        severity = np.empty(ticks)
        current, seen = 1.0, False
        for t in range(ticks):
            if blocked[t] and (t == 0 or not blocked[t - 1]):
                current, seen = severity_draws[t], True
            severity[t] = current if seen else 1.0
        ramp_alpha = 1.0 - float(np.exp(-spec.dt_s / 1.8))
        depth = leaky_ramp_scan(ramp_alpha, blocked.astype(float), 0.0)
        rsrp = np.clip(
            rsrp - (_BLOCKAGE_FADE_DB + 18.0) * depth * severity,
            -140.0,
            -60.0,
        )
        dl = LinkBudget(network, scenario.device.modem).capacity_series_mbps(
            rsrp
        )
        power = scenario.device.curve(network.key).power_mw_series(
            dl, 0.0, rsrp
        )
        return rsrp, dl, power

    def test_matrices_match_1d_composition(self):
        spec = self._spec()
        scenario = FleetScenario(spec)
        network = get_network("verizon-nsa-mmwave")
        ref_rsrp, ref_dl, ref_power = self._reference_series(
            spec, scenario, network
        )

        ue = np.array([0], dtype=np.int64)
        attrs = scenario.assignments(ue)
        x, y, speed = scenario.positions(ue, attrs["mobility"])
        distances = scenario.serving_distances(
            ue, attrs["mobility"], x, y, network.band
        )
        rsrp = rsrp_matrix(spec, ue, network, distances, speed)
        dl = downlink_matrix(
            spec, ue, network, scenario.device.modem, rsrp, attrs["app"]
        )
        power = power_matrix(scenario, network, dl, rsrp)
        assert np.array_equal(rsrp[0], ref_rsrp)
        assert np.array_equal(dl[0], ref_dl)
        assert np.array_equal(power[0], ref_power)

    def test_fleet_summary_matches_series_stats(self):
        spec = self._spec()
        scenario = FleetScenario(spec)
        network = get_network("verizon-nsa-mmwave")
        ref_rsrp, ref_dl, _ = self._reference_series(spec, scenario, network)
        summary = run_fleet(spec)
        group = summary["groups"]["rsrp_all"]
        assert group["count"] == spec.ticks
        assert group["min"] == float(ref_rsrp.min())
        assert group["max"] == float(ref_rsrp.max())
        assert group["mean"] == pytest.approx(
            float(ref_rsrp.mean()), rel=1e-12
        )
        assert summary["groups"]["dl_all"]["max"] == float(ref_dl.max())


class TestFleetGauges:
    def test_fleet_gauges_pass_at_default_spec(self):
        from repro.obs.calib import PAPER_GAUGES, evaluate_gauges

        summary = run_fleet(FleetSpec(ues=400))
        results = [
            r
            for r in evaluate_gauges({"fleet": summary})
            if r.runner == "fleet"
        ]
        assert {r.name for r in results} == {
            "fleet_walk_rsrp_median",
            "fleet_walk_rsrp_ks",
            "fleet_mmwave_peak_dl",
        }
        assert all(r.status == "pass" for r in results), [
            (r.name, r.status, r.measured) for r in results
        ]

    @pytest.mark.parametrize("shift_db", [0.0, 3.0])
    def test_histogram_ks_agrees_with_empirical_cdf_at_pins(self, shift_db):
        from repro.obs.calib import histogram_ks_to_quantiles
        from repro.obs.reducers import FixedHistogram

        sample = np.random.default_rng(21).normal(-86.0, 9.0, 50000)
        levels = (5.0, 25.0, 50.0, 75.0, 95.0)
        pins = tuple(
            float(np.percentile(sample, level)) + shift_db
            for level in levels
        )
        hist = FixedHistogram(-140.0, -60.0, 160)
        hist.add(sample)
        from_hist = histogram_ks_to_quantiles(hist.to_state(), levels, pins)
        emp = np.searchsorted(np.sort(sample), pins, side="right") / 50000
        expected = float(np.max(np.abs(emp - np.asarray(levels) / 100.0)))
        # 0.5 dB bins reconstruct the CDF to well under a percent.
        assert abs(from_hist - expected) < 0.01


class TestFleetCli:
    def test_sweep_fleet_renders_summary_and_caches(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        args = [
            "sweep", "fleet", "--ues", "60", "--shards", "2",
            "--cache-dir", str(cache_dir), "--quiet",
            "--json", str(tmp_path / "fleet.json"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fleet: 60 UEs" in out
        assert "walk_mmwave_rsrp" in out
        payload = json.loads((tmp_path / "fleet.json").read_text())
        assert payload["fleet"]["ues"] == 60
        assert set(payload["groups"]) == {
            "rsrp_all", "dl_all", "power_mw",
            "walk_mmwave_rsrp", "speedtest_mmwave_dl",
        }
        assert main(args) == 0
        assert "cache hits: 2/2 (100%)" in capsys.readouterr().out

    def test_ues_requires_fleet_artifact(self, capsys):
        from repro.cli import main

        assert main(["sweep", "fig2", "--ues", "10", "--quiet"]) == 2
        assert "fleet" in capsys.readouterr().err

    def test_bad_fleet_spec_exits_2(self, capsys):
        from repro.cli import main

        assert (
            main(["sweep", "fleet", "--ues", "10", "--city", "-5"]) == 2
        )
