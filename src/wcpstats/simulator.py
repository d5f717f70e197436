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

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .coincidence import N_PATTERNS, PatternHistogram, TimestampRecord
from .coincidence import click_probabilities, pattern_probabilities
from .fileio import read_int_csv, write_text_atomic
from .optics import EfficiencySet

SOURCE_LABELS = ("S1", "S2", "S3", "S4")

# Sub-stream tags keeping per-pulse and per-cycle draws independent.
_PULSE_STREAM = 0
_CYCLE_STREAM = 1

_PATTERN_WEIGHTS = np.array([1, 2, 4, 8], dtype=np.uint8)

# Pulses per chunk, the unit of the per-pulse random streams.
CHUNK_SIZE = 1 << 16

_MAX_DARK_RATE = 0.01


@dataclass(frozen=True)
class FluctuationModel:
    """Linear intensity-fluctuation model: sigma(mu) = slope * mu + intercept."""

    slope: float = 0.0
    intercept: float = 0.0

    def __post_init__(self) -> None:
        for name in ("slope", "intercept"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    def sigma(self, mu: float) -> float:
        return self.slope * mu + self.intercept


@dataclass(frozen=True)
class SourceModel:
    """One polarization source: label, nominal mean photon number, noise model."""

    label: str
    mu: float
    fluctuation: FluctuationModel = field(default_factory=FluctuationModel)
    dark_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"mu must be > 0, got {self.mu!r}")
        if not (0.0 <= self.dark_rate <= _MAX_DARK_RATE):
            raise ValueError(
                f"dark_rate must be in [0, {_MAX_DARK_RATE}], got {self.dark_rate!r}"
            )


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for pulse generation.

    ``rep_period_ps`` defaults to the 1.25 MHz trigger period.  When the
    source carries intensity fluctuations, a fresh intensity is drawn every
    ``cycle_pulses`` pulses (default: one second worth of pulses).
    """

    n_pulses: int
    seed: int
    efficiency_set: EfficiencySet
    rep_period_ps: int = 800_000
    emit_timestamps: bool = False
    cycle_pulses: int | None = None
    click_delay_ps: int = 100_000

    def __post_init__(self) -> None:
        if self.n_pulses <= 0:
            raise ValueError(f"n_pulses must be > 0, got {self.n_pulses}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.rep_period_ps <= 0:
            raise ValueError(f"rep_period_ps must be > 0, got {self.rep_period_ps}")
        if not 0 <= self.click_delay_ps < self.rep_period_ps:
            raise ValueError("click_delay_ps must lie inside the repetition period")
        if self.cycle_pulses is not None and self.cycle_pulses <= 0:
            raise ValueError(f"cycle_pulses must be > 0, got {self.cycle_pulses}")

    @property
    def cycle_length(self) -> int:
        """Pulses per fluctuation cycle (defaults to one second of pulses)."""
        if self.cycle_pulses is not None:
            return self.cycle_pulses
        return max(1, round(1e12 / self.rep_period_ps))


def _check_truncation(mean: float, sigma: float) -> None:
    if ndtr(-mean / sigma) > 0.5:
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


def _chunk_patterns(source: SourceModel, cfg: SimConfig, chunk_index: int) -> np.ndarray:
    """Click patterns (uint8 bitmasks) of the run's pulses in one chunk.

    A run's short last chunk draws a prefix of the full chunk's uniforms,
    so extending the run keeps its patterns.
    """
    intensities, lengths = _chunk_cycles(source, cfg, chunk_index)
    clicks = click_probabilities(intensities, cfg.efficiency_set, source.dark_rate)
    rng = np.random.default_rng([cfg.seed, _PULSE_STREAM, chunk_index])
    uniforms = np.split(rng.random((lengths.sum(), len(_PATTERN_WEIGHTS))), np.cumsum(lengths)[:-1])
    flags = np.concatenate([u < p for u, p in zip(uniforms, clicks.T)])
    return flags.astype(np.uint8) @ _PATTERN_WEIGHTS


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
    return np.concatenate([_chunk_patterns(source, cfg, c) for c in _chunk_indices(cfg)])


def simulate_timestamps(
    source: SourceModel, cfg: SimConfig
) -> tuple[list[TimestampRecord], PatternHistogram]:
    """Time-tagger record stream plus the ground-truth pattern histogram.

    Every click becomes one record at pulse_index * rep_period + the fixed
    intra-period delay, so binning the stream at the repetition period
    reproduces the returned histogram exactly.
    """
    if not cfg.emit_timestamps:
        raise ValueError("emit_timestamps is not set on this configuration")
    counts = np.zeros(N_PATTERNS, dtype=np.int64)
    records: list[TimestampRecord] = []
    for chunk_index in _chunk_indices(cfg):
        patterns = _chunk_patterns(source, cfg, chunk_index)
        counts += np.bincount(patterns, minlength=N_PATTERNS)
        pulse_ix, det_ix = np.nonzero((patterns[:, None] >> np.arange(4)) & 1)
        times = (chunk_index * CHUNK_SIZE + pulse_ix) * cfg.rep_period_ps + cfg.click_delay_ps
        records.extend(
            TimestampRecord(channel=int(d) + 1, time_ps=int(t)) for d, t in zip(det_ix, times)
        )
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
    rows = ["cycle_index,counts"]
    rows.extend(f"{k},{int(c)}" for k, c in enumerate(series))
    write_text_atomic(path, "\n".join(rows) + "\n")


def read_count_series_csv(path: str | Path) -> np.ndarray:
    counts = read_int_csv(path, ("cycle_index", "counts"), lambda _, count: count)
    return np.array(counts, dtype=np.int64)
