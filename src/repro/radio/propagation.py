"""Path loss, line-of-sight probability, and mmWave blockage.

mmWave's short wavelength makes it extremely sensitive to blockage and
distance (paper sections 1, 4.4); low-band propagates far with gentle
loss. We use the standard log-distance path-loss model with
band-class-dependent exponents plus log-normal shadowing, and a simple
two-state (LoS/blocked) Markov blockage process for mmWave that produces
the wild RSRP/throughput swings the paper's walking traces show.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.kernels.scan import markov_binary_scan
from repro.radio.bands import Band, BandClass

def free_space_path_loss_db(distance_m: float, freq_ghz: float) -> float:
    """Friis free-space path loss in dB; distance in meters, freq in GHz.

    ``FSPL = 20 log10(d_m) + 20 log10(f_GHz) + 32.44`` (the constant is
    for d in km and f in MHz, and km->m / MHz->GHz shifts cancel).
    """
    if distance_m <= 0:
        raise ValueError("distance_m must be positive")
    if freq_ghz <= 0:
        raise ValueError("freq_ghz must be positive")
    return float(20.0 * np.log10(distance_m) + 20.0 * np.log10(freq_ghz) + 32.44)


def _fspl_db(distance_m: float, freq_ghz: float) -> float:
    return free_space_path_loss_db(distance_m, freq_ghz)


def los_probability(distance_m: float, band_class: BandClass) -> float:
    """Probability that a link at ``distance_m`` is line-of-sight.

    3GPP UMi-style exponential decay for mmWave (LoS becomes unlikely
    beyond a couple hundred meters in urban canyons); low/mid band links
    are modeled as effectively always usable because diffraction carries
    them around obstacles.
    """
    if distance_m < 0:
        raise ValueError("distance_m must be non-negative")
    if band_class is BandClass.MMWAVE:
        d0 = 18.0
        d1 = 63.0
        if distance_m <= d0:
            return 1.0
        return float(
            d0 / distance_m + np.exp(-distance_m / d1) * (1.0 - d0 / distance_m)
        )
    return 1.0


@dataclass
class PathLossModel:
    """Log-distance path loss with shadowing for one band.

    ``PL(d) = FSPL(d0) + 10*n*log10(d/d0) + X_sigma``

    with the exponent ``n`` and shadowing sigma depending on the band
    class and LoS state.
    """

    band: Band
    reference_m: float = 1.0
    # Reference loss (FSPL at reference distance + fixed excess) and the
    # per-LoS-state exponents, derived once instead of per sample.
    _base_db: float = field(init=False, repr=False)
    _exponent: Dict[bool, float] = field(init=False, repr=False)

    # Effective urban exponents, calibrated so that field-typical RSRP
    # ranges emerge (mmWave ~-75 dBm at 50 m falling to ~-95 near the
    # coverage edge; n71 ~-76 at 300 m to ~-117 at 8 km), matching the
    # RSRP axes of the paper's Fig. 13/14.
    _EXPONENTS = {
        (BandClass.MMWAVE, True): 2.5,
        (BandClass.MMWAVE, False): 3.4,
        (BandClass.MID, True): 3.0,
        (BandClass.MID, False): 3.5,
        (BandClass.LOW, True): 2.8,
        (BandClass.LOW, False): 3.2,
    }
    # Fixed excess losses (clutter, body/hand effects, implementation).
    _EXCESS_DB = {
        BandClass.MMWAVE: 29.0,
        BandClass.MID: 15.0,
        BandClass.LOW: 25.0,
    }
    _SHADOW_SIGMA = {
        BandClass.MMWAVE: 4.0,
        BandClass.MID: 3.0,
        BandClass.LOW: 2.0,
    }

    def __post_init__(self) -> None:
        base = _fspl_db(self.reference_m, self.band.center_ghz)
        base += self._EXCESS_DB[self.band.band_class]
        self._base_db = base
        self._exponent = {
            los: self._EXPONENTS[(self.band.band_class, los)] for los in (True, False)
        }

    def path_loss_db(
        self,
        distance_m: float,
        los: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Path loss in dB at ``distance_m``; add shadowing if ``rng``."""
        if distance_m <= 0:
            raise ValueError("distance_m must be positive")
        distance_m = max(distance_m, self.reference_m)
        loss = self._base_db
        loss += 10.0 * self._exponent[los] * np.log10(distance_m / self.reference_m)
        if not los and self.band.is_mmwave:
            loss += 20.0  # body/foliage/building penetration penalty
        if rng is not None:
            loss += rng.normal(0.0, self._SHADOW_SIGMA[self.band.band_class])
        return float(loss)

    def path_loss_db_series(self, distances_m, los: bool = True) -> np.ndarray:
        """Vectorized :meth:`path_loss_db` (no shadowing) over distances."""
        distances_m = np.asarray(distances_m, dtype=float)
        if np.any(distances_m <= 0):
            raise ValueError("distance_m must be positive")
        clipped = np.maximum(distances_m, self.reference_m)
        loss = self._base_db + 10.0 * self._exponent[los] * np.log10(
            clipped / self.reference_m
        )
        if not los and self.band.is_mmwave:
            loss = loss + 20.0
        return loss


@functools.lru_cache(maxsize=None)
def get_path_loss_model(band: Band, reference_m: float = 1.0) -> PathLossModel:
    """Memoized :class:`PathLossModel` per ``(band, reference)``.

    The model is stateless after construction, so hot paths that used
    to build one per call (``rsrp_at_distance``, every
    ``RsrpProcess``) share a single instance instead.
    """
    return PathLossModel(band, reference_m=reference_m)


@dataclass
class BlockageModel:
    """Two-state Markov blockage process for mmWave links.

    At each step (``dt_s`` seconds) a LoS link becomes blocked with a
    rate that grows with mobility speed, and a blocked link clears with
    a fixed recovery rate. Stationary LoS experiments (the paper's
    controlled runs) use speed 0 and essentially never block.
    """

    block_rate_per_m: float = 0.02  # blockage events per meter walked
    recovery_s: float = 2.5  # mean blockage duration

    def transition_probabilities(
        self, speed_mps, dt_s: float
    ) -> Tuple[np.ndarray, float]:
        """Per-step ``(p_block, p_recover)`` for speed scalar or series."""
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        speed_mps = np.asarray(speed_mps, dtype=float)
        if np.any(speed_mps < 0):
            raise ValueError("speed_mps must be non-negative")
        rate = self.block_rate_per_m * speed_mps
        p_block = 1.0 - np.exp(-rate * dt_s)
        p_recover = 1.0 - float(np.exp(-dt_s / self.recovery_s))
        return p_block, p_recover

    def step(
        self,
        blocked: bool,
        speed_mps: float,
        dt_s: float,
        rng: np.random.Generator,
    ) -> bool:
        """Advance the blockage state by one time step."""
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        if speed_mps < 0:
            raise ValueError("speed_mps must be non-negative")
        if blocked:
            p_recover = 1.0 - np.exp(-dt_s / self.recovery_s)
            return not (rng.random() < p_recover)
        rate = self.block_rate_per_m * speed_mps
        p_block = 1.0 - np.exp(-rate * dt_s)
        return bool(rng.random() < p_block)

    def simulate(
        self,
        duration_s: float,
        speed_mps: float,
        dt_s: float = 1.0,
        rng: Optional[np.random.Generator] = None,
        start_blocked: bool = False,
    ) -> np.ndarray:
        """Boolean blockage series of length ``ceil(duration/dt)``.

        Vectorized: one batched uniform draw plus a Markov scan.
        Bit-identical to stepping :meth:`step` per tick with the same
        generator (the scalar path draws exactly one uniform per tick,
        so the batched draw consumes the same stream).
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        steps = int(np.ceil(duration_s / dt_s))
        return self.simulate_from_draws(
            rng.random(steps), speed_mps, dt_s, start_blocked=start_blocked
        )

    def simulate_from_draws(
        self,
        uniforms: np.ndarray,
        speed_mps,
        dt_s: float,
        start_blocked: bool = False,
    ) -> np.ndarray:
        """Blockage series from pre-drawn per-tick uniforms.

        ``speed_mps`` may be a scalar or a per-tick series (walking
        traces have varying speed). Split out from :meth:`simulate` so
        :func:`repro.radio.signal.rsrp_from_draws` can take its draws
        from any source.
        """
        uniforms = np.asarray(uniforms, dtype=float)
        p_block, p_recover = self.transition_probabilities(speed_mps, dt_s)
        p_block = np.broadcast_to(p_block, uniforms.shape)
        return markov_binary_scan(
            next_if_true=uniforms >= p_recover,
            next_if_false=uniforms < p_block,
            init=start_blocked,
        )
