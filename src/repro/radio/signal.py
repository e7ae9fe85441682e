"""RSRP computation and time-series generation.

The paper logs NR-SS-RSRP at 10 Hz during walking experiments and finds
it fluctuates "frequently and wildly" on mmWave (section 4.4, Fig. 13).
We model RSRP as (tx power + antenna gain - path loss) with an AR(1)
mean-reverting fast-fading component whose variance depends on the band
class, plus deep fades during blockage.

Two code paths produce samples:

* :meth:`RsrpProcess.step` — the streaming per-tick API, unchanged
  from the original scalar implementation (bit-identical, including
  its RNG draw order: blockage uniform, optional severity uniform,
  fading normal, interleaved per tick).
* :func:`rsrp_from_draws` — the array pipeline over ``(..., ticks)``,
  shared by :meth:`RsrpProcess.simulate` (draws from its ``Generator``
  in batched order: all blockage uniforms, then per-onset severities,
  then fading normals) and the fleet's ``rsrp_matrix`` (counter-based
  draws). That order is not streaming's, so a seeded ``simulate`` is
  *not* sample-identical to the same seed stepped through
  :meth:`step`; it matches the batched-order scalar reference in
  :mod:`repro.kernels.reference` to the scan tolerance documented in
  ``docs/performance.md``.

Every model constant, including the 1.5 s fading correlation and the
1.8 s blockage ramp, is defined here once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional, Tuple

import numpy as np

from repro.kernels.scan import ar1_scan, leaky_ramp_scan
from repro.obs.trace import span as trace_span
from repro.radio.bands import Band, BandClass
from repro.radio.propagation import BlockageModel, PathLossModel, get_path_loss_model

# Effective radiated power + beamforming gain, by band class (dBm).
_TX_EIRP_DBM = {
    BandClass.MMWAVE: 58.0,  # high EIRP thanks to beamforming arrays
    BandClass.MID: 46.0,
    BandClass.LOW: 46.0,
}

# AR(1) fast-fading standard deviation (dB).
_FADING_SIGMA = {
    BandClass.MMWAVE: 4.5,
    BandClass.MID: 2.5,
    BandClass.LOW: 1.5,
}

_BLOCKAGE_FADE_DB = 22.0
# Full blockage fade at depth 1, severity 1: the NLoS penalty plus the
# deep-fade excess.
_FULL_FADE_DB = _BLOCKAGE_FADE_DB + 18.0

# AR(1) fading correlation time and blockage depth-ramp time (s).
_FADING_CORRELATION_S = 1.5
_BLOCKAGE_RAMP_S = 1.8
# Each blockage event's severity is uniform in [_SEVERITY_MIN, 1).
_SEVERITY_MIN = 0.5

# Practical RSRP clamp range observed by UEs.
RSRP_MIN_DBM = -140.0
RSRP_MAX_DBM = -60.0


def rsrp_at_distance(
    band: Band,
    distance_m: float,
    los: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Median RSRP (dBm) at a given distance from the serving tower."""
    model = get_path_loss_model(band)
    loss = model.path_loss_db(distance_m, los=los, rng=rng)
    rsrp = _TX_EIRP_DBM[band.band_class] - loss
    return float(np.clip(rsrp, RSRP_MIN_DBM, RSRP_MAX_DBM))


def _tick_constants(
    band: Band, dt_s: float, correlation_s: float, ramp_s: float
) -> Tuple[float, float, float]:
    """``(rho, sigma_eff, ramp_alpha)`` for one tick of ``dt_s``: the
    AR(1) coefficient, its matched innovation sigma, and the blockage
    depth-ramp step."""
    rho = float(np.exp(-dt_s / correlation_s))
    sigma_eff = float(_FADING_SIGMA[band.band_class] * np.sqrt(1.0 - rho**2))
    return rho, sigma_eff, 1.0 - float(np.exp(-dt_s / ramp_s))


class RsrpState(NamedTuple):
    """Link state between ticks: scalars, or one value per row."""

    blocked: Any = False
    depth: Any = 0.0
    severity: Any = 1.0
    fading: Any = 0.0


def rsrp_from_draws(
    band: Band,
    distances_m: np.ndarray,
    speed_mps,
    dt_s: float,
    block_uniforms: Callable[[], np.ndarray],
    severities: Callable[[np.ndarray], np.ndarray],
    fading_normals: Callable[[], np.ndarray],
    state: RsrpState = RsrpState(),
    correlation_s: float = _FADING_CORRELATION_S,
    ramp_s: float = _BLOCKAGE_RAMP_S,
    blockage: Optional[BlockageModel] = None,
) -> Tuple[np.ndarray, RsrpState]:
    """RSRP (dBm) over ``(..., ticks)`` tower distances, plus end state.

    Draws come from callables, each called at most once, in this order
    and returning the distances' shape: ``block_uniforms()`` and
    ``severities(onsets)`` (mmWave only; per-tick uniform candidates,
    read only where ``onsets`` is set), then ``fading_normals()``
    (standard normals). Both the severity and fading draws are scaled
    here.

    Stages: the blockage chain from ``state.blocked``; one severity per
    blockage event, held from its onset (``state.severity`` before the
    first); the depth ramp; AR(1) fading; then path loss, the scaled
    fade and the clip. All run along the last axis, so each row equals
    the 1-D call on that row, bit for bit.
    """
    rho, sigma_eff, ramp_alpha = _tick_constants(
        band, dt_s, correlation_s, ramp_s
    )
    end, fade = state, None
    if band.is_mmwave:
        blocked = (blockage or BlockageModel()).simulate_from_draws(
            block_uniforms(), speed_mps, dt_s, start_blocked=state.blocked
        )
        prev = np.empty_like(blocked)
        prev[..., 0] = state.blocked
        prev[..., 1:] = blocked[..., :-1]
        onsets = blocked & ~prev
        # Each tick's latest onset (-1 before any) picks its severity.
        latest = np.maximum.accumulate(
            np.where(onsets, np.arange(blocked.shape[-1]), -1), axis=-1
        )
        held = np.take_along_axis(
            severities(onsets), np.maximum(latest, 0), axis=-1
        )
        severity = np.where(
            latest >= 0,
            _SEVERITY_MIN + (1.0 - _SEVERITY_MIN) * held,
            np.asarray(state.severity)[..., None],
        )
        depth = leaky_ramp_scan(
            ramp_alpha, blocked.astype(float), init=state.depth
        )
        fade = _FULL_FADE_DB * depth * severity
        end = RsrpState(blocked[..., -1], depth[..., -1], severity[..., -1])
    fading = ar1_scan(rho, fading_normals() * sigma_eff, init=state.fading)

    loss = get_path_loss_model(band).path_loss_db_series(distances_m, los=True)
    rsrp = _TX_EIRP_DBM[band.band_class] - loss + fading
    if fade is not None:
        rsrp -= fade
    np.clip(rsrp, RSRP_MIN_DBM, RSRP_MAX_DBM, out=rsrp)
    return rsrp, end._replace(fading=fading[..., -1])


@dataclass
class RsrpProcess:
    """Stateful RSRP generator: path loss + AR(1) fading + blockage.

    Call :meth:`step` with the current tower distance and UE speed to
    advance by ``dt_s`` and obtain the next RSRP sample; or use
    :meth:`simulate` to generate a whole fixed-trajectory series with
    batched RNG draws and array scans (no per-tick Python).
    """

    band: Band
    dt_s: float = 0.1  # 10 Hz, the paper's network logging rate
    correlation_s: float = _FADING_CORRELATION_S
    seed: Optional[int] = None
    blockage: Optional[BlockageModel] = None
    # Blockage onset/clearance is gradual (a pedestrian or vehicle takes
    # a couple of seconds to fully occlude the beam), which is exactly
    # why PHY-aware predictors like Lumos5G's can anticipate throughput
    # craters from the RSRP trend before they fully land.
    blockage_ramp_s: float = _BLOCKAGE_RAMP_S
    _rng: np.random.Generator = field(init=False, repr=False)
    _state: RsrpState = field(init=False, default=RsrpState())
    _blockage: BlockageModel = field(init=False, repr=False)
    _pathloss: PathLossModel = field(init=False, repr=False)
    # Per-step constants hoisted out of the tick loop: the AR(1)
    # coefficient, the matched innovation sigma, and the blockage
    # depth-ramp step, all fixed once dt is known.
    _rho: float = field(init=False, repr=False)
    _sigma_eff: float = field(init=False, repr=False)
    _ramp_alpha: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise ValueError("dt_s must be positive")
        self._rng = np.random.default_rng(self.seed)
        self._blockage = self.blockage or BlockageModel()
        self._pathloss = get_path_loss_model(self.band)
        self._rho, self._sigma_eff, self._ramp_alpha = _tick_constants(
            self.band, self.dt_s, self.correlation_s, self.blockage_ramp_s
        )

    @property
    def blocked(self) -> bool:
        """Whether the link is currently in a blockage fade."""
        return self._state.blocked

    def step(self, distance_m: float, speed_mps: float = 0.0) -> float:
        """Advance one tick and return the RSRP sample in dBm."""
        blocked, depth, severity, fading = self._state
        if self.band.is_mmwave:
            was_blocked = blocked
            blocked = self._blockage.step(
                blocked, speed_mps, self.dt_s, self._rng
            )
            if blocked and not was_blocked:
                # Severity is drawn once per blockage event.
                severity = float(self._rng.uniform(_SEVERITY_MIN, 1.0))
            # Depth ramps toward the target over blockage_ramp_s.
            target = 1.0 if blocked else 0.0
            depth += (target - depth) * self._ramp_alpha
        innovation = self._rng.normal(0.0, self._sigma_eff)
        fading = self._rho * fading + innovation
        self._state = RsrpState(blocked, depth, severity, fading)

        # The full NLoS penalty (exponent change approximated as a fixed
        # extra loss) scales continuously with the blockage depth.
        loss = self._pathloss.path_loss_db(distance_m, los=True)
        rsrp = _TX_EIRP_DBM[self.band.band_class] - loss + fading
        rsrp -= _FULL_FADE_DB * depth * severity
        return float(np.clip(rsrp, RSRP_MIN_DBM, RSRP_MAX_DBM))

    def simulate(
        self,
        distances_m,
        speed_mps=0.0,
    ) -> np.ndarray:
        """RSRP series for a whole trajectory of tower distances.

        ``speed_mps`` may be a scalar or a per-tick series. Runs
        :func:`rsrp_from_draws` (no per-tick Python) on this process's
        generator in batched order: all blockage uniforms, one uniform
        per blockage onset, then the fading normals. Continues from,
        and updates, the process state, so ``step``/``simulate`` calls
        can be mixed.

        Draw order differs from repeated :meth:`step` (see the module
        docstring); equivalence to the batched-order scalar reference
        is property-tested to the documented scan tolerance.
        """
        distances_m = np.asarray(distances_m, dtype=float)
        if distances_m.ndim != 1 or distances_m.shape[0] == 0:
            raise ValueError("distances_m must be a non-empty 1-D array")
        n = distances_m.shape[0]
        rng = self._rng

        def severities(onsets: np.ndarray) -> np.ndarray:
            candidates = np.zeros(n)
            candidates[onsets] = rng.random(int(onsets.sum()))
            return candidates

        with trace_span("kernel.rsrp.simulate", n=int(n), band=self.band.name):
            rsrp, end = rsrp_from_draws(
                self.band,
                distances_m,
                np.broadcast_to(np.asarray(speed_mps, dtype=float), (n,)),
                self.dt_s,
                block_uniforms=lambda: rng.random(n),
                severities=severities,
                fading_normals=lambda: rng.standard_normal(n),
                state=self._state,
                correlation_s=self.correlation_s,
                ramp_s=self.blockage_ramp_s,
                blockage=self._blockage,
            )
        self._state = RsrpState(bool(end.blocked), *map(float, end[1:]))
        return rsrp
