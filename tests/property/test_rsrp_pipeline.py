"""One RSRP pipeline: ``rsrp_from_draws`` and its two draw suppliers.

``RsrpProcess.simulate`` (Fig. 13, Lumos, iperf) and the fleet's
``rsrp_matrix`` differ only in where their draws come from. The fleet's
shard-count invariance rests on the batched call computing each row
exactly as the 1-D call on that row would.
"""

import ast
import pathlib

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.fleet
from repro.fleet import FleetSpec
from repro.fleet.kernels import rsrp_matrix
from repro.fleet.scenario import STREAM_BLOCK, STREAM_FADING, STREAM_SEVERITY
from repro.kernels.ctrrng import normals, uniforms
from repro.radio.bands import LTE_1900, NR_N41, NR_N71, NR_N260, NR_N261
from repro.radio.carriers import get_network
from repro.radio.signal import RsrpProcess, RsrpState, rsrp_from_draws

BANDS = [NR_N261, NR_N260, NR_N71, NR_N41, LTE_1900]


def _call(band, dt_s, distances, speeds, u_block, candidates, z, state):
    return rsrp_from_draws(
        band,
        distances,
        speeds,
        dt_s,
        block_uniforms=lambda: u_block,
        severities=lambda onsets: candidates,
        fading_normals=lambda: z,
        state=state,
    )


@settings(max_examples=60, deadline=None)
@given(
    band=st.sampled_from(BANDS),
    dt_s=st.sampled_from([0.05, 0.1, 0.5, 1.0]),
    ticks=st.integers(1, 300),
    batch=st.integers(1, 6),
    per_tick_speed=st.booleans(),
    blocked=st.booleans(),
    depth=st.floats(0.0, 1.0),
    severity=st.floats(0.5, 1.0),
    fading=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_call_equals_row_calls(
    band, dt_s, ticks, batch, per_tick_speed, blocked, depth, severity,
    fading, seed,
):
    rng = np.random.default_rng(seed)
    shape = (batch, ticks)
    distances = rng.uniform(1.0, 3000.0, shape)
    speed_cols = ticks if per_tick_speed else 1
    # Walking to driving speeds: fast rows block often, so onsets occur.
    speeds = np.ascontiguousarray(
        np.broadcast_to(rng.uniform(0.0, 20.0, (batch, speed_cols)), shape)
    )
    u_block = rng.random(shape)
    candidates = rng.random(shape)
    z = rng.standard_normal(shape)
    state = RsrpState(blocked, depth, severity, fading)

    rsrp, end = _call(
        band, dt_s, distances, speeds, u_block, candidates, z, state
    )
    assert rsrp.shape == shape
    for row in range(batch):
        rsrp_1d, end_1d = _call(
            band, dt_s, distances[row], speeds[row], u_block[row],
            candidates[row], z[row], state,
        )
        np.testing.assert_array_equal(rsrp[row], rsrp_1d)
        for field, value in zip(RsrpState._fields, end):
            assert np.broadcast_to(value, (batch,))[row] == getattr(
                end_1d, field
            ), field


def test_simulate_is_the_pipeline_on_generator_draws():
    # The documented batched order: all blockage uniforms, one uniform
    # per onset, then standard normals for fading.
    distances = np.linspace(30.0, 400.0, 500)
    process = RsrpProcess(NR_N261, seed=13)
    process.step(80.0, 2.0)
    start = process._state
    simulated = process.simulate(distances, speed_mps=3.0)

    replay = RsrpProcess(NR_N261, seed=13)
    replay.step(80.0, 2.0)  # consumes step()'s draws from the same stream
    rng = replay._rng

    def severities(onsets):
        candidates = np.zeros(onsets.shape)
        candidates[onsets] = rng.random(int(onsets.sum()))
        return candidates

    expected, end = rsrp_from_draws(
        NR_N261,
        distances,
        3.0,
        0.1,
        block_uniforms=lambda: rng.random(distances.shape[0]),
        severities=severities,
        fading_normals=lambda: rng.standard_normal(distances.shape[0]),
        state=start,
    )
    np.testing.assert_array_equal(simulated, expected)
    assert tuple(process._state) == tuple(
        (bool(end.blocked),) + tuple(float(v) for v in end[1:])
    )


def test_fleet_rows_are_the_pipeline_on_counter_draws():
    spec = FleetSpec(ues=4, duration_s=60.0)
    network = get_network("verizon-nsa-mmwave")
    ue = np.array([3, 17, 40_000], dtype=np.int64)
    rng = np.random.default_rng(5)
    distances = rng.uniform(20.0, 500.0, (3, spec.ticks))
    speeds = np.repeat([[1.4], [10.0], [0.0]], spec.ticks, axis=1)
    matrix = rsrp_matrix(spec, ue, network, distances, speeds)
    cols = np.arange(spec.ticks, dtype=np.int64)
    for row, index in enumerate(ue):
        expected, _ = rsrp_from_draws(
            network.band,
            distances[row],
            speeds[row],
            spec.dt_s,
            block_uniforms=lambda: uniforms(
                spec.key, STREAM_BLOCK, index, cols
            ),
            severities=lambda onsets: uniforms(
                spec.key, STREAM_SEVERITY, index, cols
            ),
            fading_normals=lambda: normals(
                spec.key, STREAM_FADING, index, cols
            ),
        )
        np.testing.assert_array_equal(matrix[row], expected)


def test_fleet_imports_no_private_signal_name():
    # The model's constants live in repro.radio.signal only; the fleet
    # reaches them through rsrp_from_draws, never by private import.
    package = pathlib.Path(repro.fleet.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == (
                "repro.radio.signal"
            ):
                private = [
                    a.name for a in node.names if a.name.startswith("_")
                ]
                assert not private, f"{path.name} imports {private}"
