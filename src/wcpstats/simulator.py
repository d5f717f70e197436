"""Monte-Carlo click generation for fluctuating weak coherent pulse sources.

Poisson pulses split by passive linear optics give each detector an
independent Poisson(mu * eta_i) photon number, so the pulses of one
intensity are independent draws from the 16-pattern product law of
:func:`coincidence.pattern_probabilities`, with dark counts folded into each
detector's click probability.  A histogram draws one multinomial per stretch
of constant intensity (the run, or each fluctuation cycle); per-pulse
patterns invert the stretch's cumulative pattern law with one uniform each.

Determinism contract
--------------------
Cycle k draws its intensity, then its histogram counts, from (seed, cycle
stream, k); a steady source is cycle 0.  Per-pulse uniforms come in chunks
of ``CHUNK_SIZE`` from (seed, pulse stream, chunk index).  No draw depends
on scheduling, so the same configuration and seed give the same histogram
for every ``workers`` value, and extending a run leaves the per-pulse
prefix of :func:`simulate_patterns` unchanged.
"""

from __future__ import annotations

import numpy as np

from .coincidence import PatternHistogram, click_probabilities, histogram_of_clicks, pattern_probabilities
from .coincidence import timestamps_from_clicks
from .config import DEFAULT_REP_RATE_HZ, FluctuationModel, SourceModel
from .fileio import read_int_csv, write_int_csv
from .optics import EfficiencySet
from .stats import _check_seed, normal_cdf

TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path

# Sub-stream tags keeping per-pulse and per-cycle draws independent.
_PULSE_STREAM = 0
_CYCLE_STREAM = 1

# Pulses per chunk, the unit of the per-pulse random streams.
CHUNK_SIZE = 1 << 16


class SimConfig:
    """Run parameters for pulse generation.

    ``rep_period_ps`` defaults to the period of ``DEFAULT_REP_RATE_HZ``.
    When the source carries intensity fluctuations, a fresh intensity is
    drawn every ``cycle_pulses`` pulses (default, resolved when built: one second of pulses).
    """

    __slots__ = ("n_pulses", "seed", "efficiency_set", "rep_period_ps", "emit_timestamps", "cycle_pulses")

    def __init__(
        self, n_pulses: int, seed: int, efficiency_set: EfficiencySet,
        rep_period_ps: int = round(1e12 / DEFAULT_REP_RATE_HZ),
        emit_timestamps: bool = False, cycle_pulses: int | None = None,
    ) -> None:
        # numpy's samplers take a pulse count as an int64.
        if not 0 < n_pulses < 2**63:
            raise ValueError(f"n_pulses must be in 1..2**63 - 1, got {n_pulses}")
        _check_seed(seed)
        if rep_period_ps <= 0:
            raise ValueError(f"rep_period_ps must be > 0, got {rep_period_ps}")
        if cycle_pulses is None:
            cycle_pulses = max(1, round(1e12 / rep_period_ps))
        elif cycle_pulses <= 0:
            raise ValueError(f"cycle_pulses must be > 0, got {cycle_pulses}")
        self.n_pulses = n_pulses
        self.seed = seed
        self.efficiency_set = efficiency_set
        self.rep_period_ps = rep_period_ps
        self.emit_timestamps = emit_timestamps
        self.cycle_pulses = cycle_pulses


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


def _cycle_draws(source: SourceModel, seed: int, cycles: range):
    """Generator (seed, _CYCLE_STREAM, k) and intensity of each cycle k; a fluctuating intensity is the first draw."""
    sigma = source.fluctuation.sigma(source.mu)
    if sigma > 0.0:
        _check_truncation(source.mu, sigma)
    rngs = [np.random.default_rng([seed, _CYCLE_STREAM, k]) for k in cycles]
    return rngs, [source.mu if sigma == 0.0 else _draw_intensity(rng, source.mu, sigma) for rng in rngs]


def _stretches(source: SourceModel, cfg: SimConfig):
    """Generators, intensities and pulse edges of the run's stretches of constant intensity.

    Stretch j holds pulses edges[j]..edges[j + 1] - 1: fluctuation cycle j, or the whole run (cycle 0) if steady.
    """
    length = cfg.cycle_pulses if source.fluctuation.sigma(source.mu) else cfg.n_pulses
    edges = np.append(np.arange(0, cfg.n_pulses, length), cfg.n_pulses)
    return (*_cycle_draws(source, cfg.seed, range(len(edges) - 1)), edges)


def simulate_pulses(source: SourceModel, cfg: SimConfig, workers: int = 1) -> PatternHistogram:
    """Pattern histogram of ``cfg.n_pulses`` simulated trigger periods.

    ``workers`` is accepted for compatibility and has no effect: the
    determinism contract makes the result the same for every value.
    """
    rngs, mus, edges = _stretches(source, cfg)
    probs = pattern_probabilities(mus, cfg.efficiency_set, source.dark_rate)
    counts = sum(rng.multinomial(n, p) for rng, n, p in zip(rngs, np.diff(edges).tolist(), probs))
    return PatternHistogram(counts=tuple(int(c) for c in counts), total_pulses=cfg.n_pulses)


def _chunk_patterns(cfg: SimConfig, cdf: np.ndarray, edges: np.ndarray, chunk_index: int):
    """Indices and click patterns (uint8) of the pulses in one chunk that click.

    cdf[j] is stretch j's cumulative pattern law, and a pulse whose uniform
    is at or above k of its entries has pattern k, so one below P(no click)
    is silent.  A short last chunk draws a prefix of the full chunk's uniforms.
    """
    start = chunk_index * CHUNK_SIZE
    stop = min(start + CHUNK_SIZE, cfg.n_pulses)
    uniforms = np.random.default_rng([cfg.seed, _PULSE_STREAM, chunk_index]).random(stop - start)
    pulses, patterns = [], []
    for j in range(np.searchsorted(edges, start, side="right") - 1, np.searchsorted(edges, stop)):
        first = max(edges[j], start)
        u = uniforms[first - start : min(edges[j + 1], stop) - start]
        hits = np.flatnonzero(u >= cdf[j, 0])
        pulses.append(first + hits)
        patterns.append(np.searchsorted(cdf[j], u[hits], side="right").astype(np.uint8))
    return np.concatenate(pulses), np.concatenate(patterns)


def _clicking_pulses(source: SourceModel, cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Indices and click patterns of the run's pulses that click, in pulse order."""
    _, mus, edges = _stretches(source, cfg)
    cdf = np.cumsum(pattern_probabilities(mus, cfg.efficiency_set, source.dark_rate), axis=-1)
    cdf[:, -1] = np.inf  # so that rounding cannot produce pattern 16
    chunks = [_chunk_patterns(cfg, cdf, edges, c) for c in range(-(-cfg.n_pulses // CHUNK_SIZE))]
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


def simulate_patterns(source: SourceModel, cfg: SimConfig) -> np.ndarray:
    """Per-pulse click patterns (uint8 bitmask array of length n_pulses).

    Materializes every pulse; intended for moderate run sizes and for
    checking the per-pulse prefix stability of the random stream.
    """
    pulses, patterns = _clicking_pulses(source, cfg)
    out = np.zeros(cfg.n_pulses, dtype=np.uint8)
    out[pulses] = patterns
    return out


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
    pulses, patterns = _clicking_pulses(source, cfg)
    return timestamps_from_clicks(pulses, patterns, cfg.rep_period_ps), histogram_of_clicks(patterns, cfg.n_pulses)


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
    rngs, mus = _cycle_draws(source, cfg.seed, range(cycles))
    clicks = click_probabilities(mus, cfg.efficiency_set, source.dark_rate)[detector - 1]
    return np.array([rng.binomial(pulses_per_cycle, p) for rng, p in zip(rngs, clicks)], dtype=np.int64)


def write_count_series_csv(path: str | Path, series: np.ndarray) -> None:
    """CSV with columns ``cycle_index,counts``."""
    write_int_csv(path, ("cycle_index", "counts"), np.column_stack((np.arange(len(series)), series)))


def read_count_series_csv(path: str | Path) -> np.ndarray:
    return read_int_csv(path, ("cycle_index", "counts"))[:, 1]
