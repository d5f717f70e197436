"""Monte-Carlo click generation for fluctuating weak coherent pulse sources.

Poisson pulses split by passive linear optics give each detector an
independent Poisson(mu * eta_i) photon number, so the pulses of one
intensity are independent draws from the 16-pattern product law of
:func:`coincidence.pattern_probabilities`, with dark counts folded into each
detector's click probability.  Histograms are drawn from that law with one
multinomial per stretch of constant intensity; per-pulse patterns compare
uniform draws with the click probabilities of each pulse's intensity.

Determinism contract
--------------------
Pulses are processed in chunks of ``CHUNK_SIZE`` and every random draw
depends only on (seed, stream, chunk index) or (seed, stream, cycle index),
never on how work is scheduled.  The same configuration and seed therefore
give the same histogram for every ``workers`` value, and extending a run
leaves the per-pulse prefix of :func:`simulate_patterns` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coincidence import N_PATTERNS, TIMESTAMP_DTYPE, PatternHistogram
from .coincidence import click_probabilities, pattern_probabilities
from .config import DEFAULT_REP_RATE_HZ, FluctuationModel, SourceModel
from .fileio import read_int_csv, write_int_csv
from .optics import EfficiencySet
from .stats import normal_cdf

# Sub-stream tags keeping per-pulse and per-cycle draws independent.
_PULSE_STREAM = 0
_CYCLE_STREAM = 1

_PATTERN_WEIGHTS = np.array([1, 2, 4, 8], dtype=np.uint8)

# Pulses per chunk, the unit of the per-pulse random streams.
CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for pulse generation.

    ``rep_period_ps`` defaults to the period of ``DEFAULT_REP_RATE_HZ``.
    When the source carries intensity fluctuations, a fresh intensity is
    drawn every ``cycle_pulses`` pulses (default: one second worth of pulses).
    """

    n_pulses: int
    seed: int
    efficiency_set: EfficiencySet
    rep_period_ps: int = round(1e12 / DEFAULT_REP_RATE_HZ)
    emit_timestamps: bool = False
    cycle_pulses: int | None = None

    def __post_init__(self) -> None:
        if self.n_pulses <= 0:
            raise ValueError(f"n_pulses must be > 0, got {self.n_pulses}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.rep_period_ps <= 0:
            raise ValueError(f"rep_period_ps must be > 0, got {self.rep_period_ps}")
        if self.cycle_pulses is not None and self.cycle_pulses <= 0:
            raise ValueError(f"cycle_pulses must be > 0, got {self.cycle_pulses}")

    @property
    def cycle_length(self) -> int:
        """Pulses per fluctuation cycle (defaults to one second of pulses)."""
        if self.cycle_pulses is not None:
            return self.cycle_pulses
        return max(1, round(1e12 / self.rep_period_ps))


def _check_truncation(mean: float, sigma: float) -> None:
    if normal_cdf(-mean / sigma) > 0.5:
        raise ValueError(
            f"fluctuation sigma {sigma} puts more than half the intensity "
            f"distribution below zero for mean {mean}; model misuse"
        )


def _draw_intensity(rng: np.random.Generator, mean: float, sigma: float) -> float:
    """Truncated-normal intensity draw (rejection keeps the stream sequential)."""
    while True:
        value = float(rng.normal(mean, sigma))
        if value >= 0.0:
            return value


def _cycle_intensity(source: SourceModel, cfg: SimConfig, cycle_index: int) -> float:
    sigma = source.fluctuation.sigma(source.mu)
    if sigma == 0.0:
        return source.mu
    _check_truncation(source.mu, sigma)
    rng = np.random.default_rng([cfg.seed, _CYCLE_STREAM, cycle_index])
    return _draw_intensity(rng, source.mu, sigma)


def _chunk_cycles(source: SourceModel, cfg: SimConfig, chunk_index: int):
    """Intensity and pulse count of each cycle piece of the run's pulses in one chunk."""
    start = chunk_index * CHUNK_SIZE
    stop = min(start + CHUNK_SIZE, cfg.n_pulses)
    length = cfg.cycle_length
    first, last = start // length, (stop - 1) // length
    edges = np.clip(np.arange(first, last + 2) * length, start, stop)
    intensities = [_cycle_intensity(source, cfg, k) for k in range(first, last + 1)]
    return np.array(intensities), np.diff(edges)


def _chunk_flags(source: SourceModel, cfg: SimConfig, chunk_index: int) -> np.ndarray:
    """Click flags (bool, pulses x detectors) of the run's pulses in one chunk.

    A run's short last chunk draws a prefix of the full chunk's uniforms,
    so extending the run keeps its clicks.
    """
    intensities, lengths = _chunk_cycles(source, cfg, chunk_index)
    clicks = click_probabilities(intensities, cfg.efficiency_set, source.dark_rate)
    rng = np.random.default_rng([cfg.seed, _PULSE_STREAM, chunk_index])
    uniforms = np.split(rng.random((lengths.sum(), len(_PATTERN_WEIGHTS))), np.cumsum(lengths)[:-1])
    return np.concatenate([u < p for u, p in zip(uniforms, clicks.T)])


def _chunk_indices(cfg: SimConfig) -> range:
    return range((cfg.n_pulses + CHUNK_SIZE - 1) // CHUNK_SIZE)


def _chunk_counts(source: SourceModel, cfg: SimConfig, chunk_index: int) -> np.ndarray:
    """Pattern counts of the run's pulses in one chunk, one multinomial per cycle piece."""
    intensities, lengths = _chunk_cycles(source, cfg, chunk_index)
    probs = pattern_probabilities(intensities, cfg.efficiency_set, source.dark_rate)
    rng = np.random.default_rng([cfg.seed, _PULSE_STREAM, chunk_index])
    return rng.multinomial(lengths, probs).sum(axis=0)


def simulate_pulses(source: SourceModel, cfg: SimConfig, workers: int = 1) -> PatternHistogram:
    """Pattern histogram of ``cfg.n_pulses`` simulated trigger periods.

    ``workers`` is accepted for compatibility and has no effect: the
    determinism contract makes the result the same for every value.
    """
    counts = sum(_chunk_counts(source, cfg, c) for c in _chunk_indices(cfg))
    return PatternHistogram(counts=tuple(int(c) for c in counts), total_pulses=cfg.n_pulses)


def simulate_patterns(source: SourceModel, cfg: SimConfig) -> np.ndarray:
    """Per-pulse click patterns (uint8 bitmask array of length n_pulses).

    Materializes every pulse; intended for moderate run sizes and for
    checking the per-pulse prefix stability of the random stream.
    """
    flags = (_chunk_flags(source, cfg, c) for c in _chunk_indices(cfg))
    return np.concatenate([f.astype(np.uint8) @ _PATTERN_WEIGHTS for f in flags])


def simulate_timestamps(source: SourceModel, cfg: SimConfig) -> tuple[np.ndarray, PatternHistogram]:
    """Time-tagger record stream plus the ground-truth pattern histogram.

    Every click becomes one record at pulse_index * rep_period + period / 8,
    so binning the stream at the repetition period reproduces the returned
    histogram exactly.
    """
    if not cfg.emit_timestamps:
        raise ValueError("emit_timestamps is not set on this configuration")
    if cfg.n_pulses * cfg.rep_period_ps >= 2**63:
        raise ValueError(f"{cfg.n_pulses} pulses of {cfg.rep_period_ps} ps overrun int64 time_ps")
    counts = np.zeros(N_PATTERNS, dtype=np.int64)
    channels, times = [], []
    for chunk_index in _chunk_indices(cfg):
        flags = _chunk_flags(source, cfg, chunk_index)
        # Row-major click indices: pulse = hit // 4, detector = hit % 4, sorted by pulse.
        hits = np.flatnonzero(flags)
        pulse_ix, det_ix = hits >> 2, hits & 3
        starts = np.flatnonzero(np.diff(pulse_ix, prepend=-1))
        counts += np.bincount(np.bitwise_or.reduceat(1 << det_ix, starts), minlength=N_PATTERNS)
        counts[0] += len(flags) - len(starts)
        channels.append(det_ix + 1)
        times.append((chunk_index * CHUNK_SIZE + pulse_ix) * cfg.rep_period_ps + cfg.rep_period_ps // 8)
    records = np.rec.fromarrays([np.concatenate(channels), np.concatenate(times)], dtype=TIMESTAMP_DTYPE)
    histogram = PatternHistogram(counts=tuple(int(c) for c in counts), total_pulses=cfg.n_pulses)
    return records, histogram


def simulate_count_series(
    source: SourceModel,
    cycles: int,
    pulses_per_cycle: int,
    cfg: SimConfig,
    detector: int = 1,
) -> np.ndarray:
    """Per-cycle click counts of one detector under intensity fluctuations.

    Each cycle draws a fresh intensity from the truncated normal
    N(mu, sigma(mu)^2) restricted to >= 0 and counts the cycle's clicks on
    the configured detector.  Given the cycle intensity the pulses are
    independent, so the count is drawn from the exact binomial law.
    """
    if cycles < 2:
        raise ValueError(f"need at least 2 cycles, got {cycles}")
    if pulses_per_cycle <= 0:
        raise ValueError(f"pulses_per_cycle must be > 0, got {pulses_per_cycle}")
    if detector not in (1, 2, 3, 4):
        raise ValueError(f"detector must be in 1..4, got {detector}")
    sigma = source.fluctuation.sigma(source.mu)
    if sigma > 0.0:
        _check_truncation(source.mu, sigma)
    rngs = [np.random.default_rng([cfg.seed, _CYCLE_STREAM, k]) for k in range(cycles)]
    mus = [source.mu if sigma == 0.0 else _draw_intensity(rng, source.mu, sigma) for rng in rngs]
    clicks = click_probabilities(mus, cfg.efficiency_set, source.dark_rate)[detector - 1]
    return np.array([rng.binomial(pulses_per_cycle, p) for rng, p in zip(rngs, clicks)], dtype=np.int64)


def write_count_series_csv(path: str | Path, series: np.ndarray) -> None:
    """CSV with columns ``cycle_index,counts``."""
    write_int_csv(path, ("cycle_index", "counts"), np.column_stack((np.arange(len(series)), series)))


def read_count_series_csv(path: str | Path) -> np.ndarray:
    return read_int_csv(path, ("cycle_index", "counts"))[:, 1]
