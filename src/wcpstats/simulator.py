"""Monte-Carlo click generation for fluctuating weak coherent pulse sources.

Each pulse draws a Poisson photon number and routes every photon
independently to one of the four detector arms (or to loss) with the
configured overall efficiencies; a threshold detector clicks when at least
one photon lands on it or a dark event fires.  This multinomial routing is
exact for Poisson pulses split by passive linear optics onto
non-interfering paths.

Determinism contract
--------------------
Pulses are processed in fixed-size chunks and every random draw depends
only on (seed, stream, chunk index) or (seed, stream, cycle index), never
on how work is partitioned.  Splitting a run across any number of workers
and merging the partial histograms therefore reproduces the single-worker
output bit for bit, and extending a run leaves the per-pulse prefix
unchanged.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .coincidence import N_PATTERNS, PatternHistogram, TimestampRecord
from .fileio import write_text_atomic
from .optics import EfficiencySet

SOURCE_LABELS = ("S1", "S2", "S3", "S4")

# Sub-stream tags keeping per-pulse and per-cycle draws independent.
_PULSE_STREAM = 0
_CYCLE_STREAM = 1

_PATTERN_WEIGHTS = np.array([1, 2, 4, 8], dtype=np.uint8)

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
    chunk_size: int = 1 << 16

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
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be > 0, got {self.chunk_size}")

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


def _chunk_patterns(source: SourceModel, cfg: SimConfig, chunk_index: int) -> np.ndarray:
    """Click patterns of one full chunk of pulses (uint8 bitmasks)."""
    size = cfg.chunk_size
    start = chunk_index * size
    eta = np.asarray(cfg.efficiency_set.eta, dtype=np.float64)
    rng = np.random.default_rng([cfg.seed, _PULSE_STREAM, chunk_index])

    sigma = source.fluctuation.sigma(source.mu)
    if sigma == 0.0:
        photon_counts = rng.poisson(source.mu, size)
    else:
        cycle_ids = (start + np.arange(size)) // cfg.cycle_length
        unique_cycles, inverse = np.unique(cycle_ids, return_inverse=True)
        intensities = np.array(
            [_cycle_intensity(source, cfg, int(k)) for k in unique_cycles]
        )
        photon_counts = rng.poisson(intensities[inverse])

    flags = np.zeros((size, len(eta)), dtype=bool)
    total_photons = int(photon_counts.sum())
    if total_photons:
        pulse_of_photon = np.repeat(np.arange(size), photon_counts)
        arm_edges = np.cumsum(eta)
        destination = np.searchsorted(arm_edges, rng.random(total_photons), side="right")
        detected = destination < len(eta)
        flags[pulse_of_photon[detected], destination[detected]] = True
    if source.dark_rate > 0.0:
        flags |= rng.random(flags.shape) < source.dark_rate
    return flags.astype(np.uint8) @ _PATTERN_WEIGHTS


def _chunk_indices(cfg: SimConfig) -> range:
    return range((cfg.n_pulses + cfg.chunk_size - 1) // cfg.chunk_size)


def _chunk_counts(source: SourceModel, cfg: SimConfig, chunk_index: int) -> np.ndarray:
    patterns = _chunk_patterns(source, cfg, chunk_index)
    limit = min(cfg.chunk_size, cfg.n_pulses - chunk_index * cfg.chunk_size)
    return np.bincount(patterns[:limit], minlength=N_PATTERNS)


def simulate_pulses(source: SourceModel, cfg: SimConfig, workers: int = 1) -> PatternHistogram:
    """Pattern histogram of ``cfg.n_pulses`` simulated trigger periods.

    ``workers`` only controls scheduling; the determinism contract makes
    the result identical for every worker count.
    """
    chunks = _chunk_indices(cfg)
    if workers <= 1:
        counts = sum(
            (_chunk_counts(source, cfg, c) for c in chunks),
            np.zeros(N_PATTERNS, dtype=np.int64),
        )
    else:
        counts = np.zeros(N_PATTERNS, dtype=np.int64)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(lambda c: _chunk_counts(source, cfg, c), chunks):
                counts += part
    return PatternHistogram(counts=tuple(int(c) for c in counts), total_pulses=cfg.n_pulses)


def simulate_patterns(source: SourceModel, cfg: SimConfig) -> np.ndarray:
    """Per-pulse click patterns (uint8 bitmask array of length n_pulses).

    Materializes every pulse; intended for moderate run sizes and for
    checking the per-pulse prefix stability of the random stream.
    """
    parts = [_chunk_patterns(source, cfg, c) for c in _chunk_indices(cfg)]
    return np.concatenate(parts)[: cfg.n_pulses]


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
        start = chunk_index * cfg.chunk_size
        limit = min(cfg.chunk_size, cfg.n_pulses - start)
        patterns = patterns[:limit]
        counts += np.bincount(patterns, minlength=N_PATTERNS)
        flags = (patterns[:, None] >> np.arange(4)) & 1
        pulse_ix, det_ix = np.nonzero(flags)
        times = (start + pulse_ix) * cfg.rep_period_ps + cfg.click_delay_ps
        records.extend(
            TimestampRecord(channel=int(d) + 1, time_ps=int(t))
            for d, t in zip(det_ix, times)
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
    eta_det = cfg.efficiency_set.eta[detector - 1]
    sigma = source.fluctuation.sigma(source.mu)
    if sigma > 0.0:
        _check_truncation(source.mu, sigma)
    out = np.empty(cycles, dtype=np.int64)
    for k in range(cycles):
        rng = np.random.default_rng([cfg.seed, _CYCLE_STREAM, k])
        mu_k = source.mu if sigma == 0.0 else _draw_intensity(rng, source.mu, sigma)
        p_click = -math.expm1(-mu_k * eta_det)
        p_click = 1.0 - (1.0 - p_click) * (1.0 - source.dark_rate)
        out[k] = rng.binomial(pulses_per_cycle, p_click)
    return out


def write_count_series_csv(path: str | Path, series: np.ndarray) -> None:
    """CSV with columns ``cycle_index,counts``."""
    rows = ["cycle_index,counts"]
    rows.extend(f"{k},{int(c)}" for k, c in enumerate(series))
    write_text_atomic(path, "\n".join(rows) + "\n")


def read_count_series_csv(path: str | Path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header != "cycle_index,counts":
            raise ValueError(f"unexpected count-series CSV header: {header!r}")
        values = [int(line.split(",")[1]) for line in handle if line.strip()]
    return np.array(values, dtype=np.int64)
