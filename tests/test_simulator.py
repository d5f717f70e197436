"""Tests for the Monte-Carlo pulse simulator and its determinism contract."""

import math

import numpy as np
import pytest
from scipy.special import chdtrc

from wcpstats.coincidence import (
    observed_coincidences,
    pattern_probabilities,
    patterns_from_timestamps,
)
from wcpstats.config import default_efficiency_set
from wcpstats.optics import EfficiencySet
from wcpstats.simulator import (
    CHUNK_SIZE,
    FluctuationModel,
    SimConfig,
    SourceModel,
    read_count_series_csv,
    simulate_count_series,
    simulate_patterns,
    simulate_pulses,
    simulate_timestamps,
    write_count_series_csv,
)

from oracles import timestamps_from_patterns

UNIFORM = EfficiencySet.from_overall((0.1, 0.1, 0.1, 0.1))


def _cfg(n_pulses, seed=1, eff=UNIFORM, **kwargs):
    return SimConfig(n_pulses=n_pulses, seed=seed, efficiency_set=eff, **kwargs)


def test_source_model_validation():
    with pytest.raises(ValueError):
        SourceModel(label="S1", mu=0.0)
    with pytest.raises(ValueError):
        SourceModel(label="S1", mu=0.5, dark_rate=0.5)
    with pytest.raises(ValueError):
        FluctuationModel(slope=-0.1)


def test_near_vacuum_source_stays_silent():
    hist = simulate_pulses(SourceModel(label="S1", mu=1e-9), _cfg(10_000, seed=3))
    assert hist.counts[0] == 10_000


def test_marginal_click_rate_matches_model():
    mu = 0.5
    hist = simulate_pulses(SourceModel(label="S1", mu=mu), _cfg(1_000_000, seed=11))
    summary = observed_coincidences(hist)
    expected = 1.0 - math.exp(-mu * 0.1)
    sigma = math.sqrt(expected * (1 - expected) / 1_000_000)
    for detector in (1, 2, 3, 4):
        observed = summary.subset_probs[frozenset({detector})]
        assert abs(observed - expected) <= 3 * sigma


def test_same_seed_reproduces_exactly():
    source = SourceModel(label="S2", mu=0.7)
    first = simulate_pulses(source, _cfg(100_000, seed=5))
    second = simulate_pulses(source, _cfg(100_000, seed=5))
    assert first == second
    third = simulate_pulses(source, _cfg(100_000, seed=6))
    assert third != first


def test_worker_count_invisible_in_output():
    source = SourceModel(label="S1", mu=0.5)
    results = [
        simulate_pulses(source, _cfg(300_000, seed=9), workers=w) for w in (1, 2, 3, 7)
    ]
    assert all(r == results[0] for r in results[1:])


def test_prefix_stability_when_run_grows():
    source = SourceModel(label="S1", mu=0.5)
    short = simulate_patterns(source, _cfg(1_000, seed=21))
    long = simulate_patterns(source, _cfg(150_000, seed=21))
    assert np.array_equal(long[:1_000], short)


def test_timestamps_round_trip_through_binning():
    source = SourceModel(label="S3", mu=0.8)
    cfg = _cfg(50_000, seed=13, emit_timestamps=True)
    records, hist = simulate_timestamps(source, cfg)
    result = patterns_from_timestamps(records, cfg.rep_period_ps, cfg.n_pulses)
    assert result.histogram == hist
    assert result.discarded == 0
    # One record per click flag.
    set_bits = sum(bin(p).count("1") * c for p, c in enumerate(hist.counts))
    assert len(records) == set_bits
    times = [r.time_ps for r in records]
    assert times == sorted(times)


@pytest.mark.parametrize(
    "source, n_pulses, cycle_pulses",
    [
        # Cycles of 30,000 pulses put three intensity pieces into the first chunk.
        (SourceModel(label="S1", mu=0.5, fluctuation=FluctuationModel(slope=0.2)), 100_000, 30_000),
        (SourceModel(label="S1", mu=0.05, dark_rate=0.01), 50_000, None),
        (SourceModel(label="S1", mu=0.3), CHUNK_SIZE + 1, None),
        (SourceModel(label="S1", mu=1e-9), 10_000, None),
    ],
    ids=["fluctuating", "dark-counts", "chunk-plus-one", "no-clicks"],
)
def test_timestamps_match_per_pulse_oracle(source, n_pulses, cycle_pulses):
    cfg = _cfg(n_pulses, seed=19, emit_timestamps=True, cycle_pulses=cycle_pulses)
    records, hist = simulate_timestamps(source, cfg)
    expected, counts = timestamps_from_patterns(simulate_patterns(source, cfg), cfg.rep_period_ps)
    assert records.dtype == expected.dtype
    assert np.array_equal(records, expected)
    assert hist.counts == tuple(counts)


def test_timestamps_require_flag_and_empty_run_gives_empty_stream():
    source = SourceModel(label="S1", mu=1e-9)
    with pytest.raises(ValueError):
        simulate_timestamps(source, _cfg(100, seed=1))
    records, hist = simulate_timestamps(source, _cfg(10_000, seed=2, emit_timestamps=True))
    assert len(records) == 0
    assert hist.counts[0] == 10_000


def test_dark_counts_click_without_photons():
    source = SourceModel(label="S1", mu=1e-9, dark_rate=0.01)
    hist = simulate_pulses(source, _cfg(200_000, seed=17))
    summary = observed_coincidences(hist)
    sigma = math.sqrt(0.01 * 0.99 / 200_000)
    for detector in (1, 2, 3, 4):
        observed = summary.subset_probs[frozenset({detector})]
        assert abs(observed - 0.01) <= 4 * sigma


@pytest.mark.parametrize(
    "sample, n_pulses",
    [
        (lambda s, c: np.array(simulate_pulses(s, c).counts), 2_000_000),
        (lambda s, c: np.bincount(simulate_patterns(s, c), minlength=16), 500_000),
    ],
    ids=["simulate_pulses", "simulate_patterns"],
)
def test_pattern_histograms_fit_the_pattern_law(sample, n_pulses):
    source = SourceModel(label="S1", mu=0.5, dark_rate=2e-3)
    eff = default_efficiency_set()
    counts = sample(source, _cfg(n_pulses, seed=29, eff=eff))
    expected = n_pulses * pattern_probabilities(source.mu, eff.eta, source.dark_rate)
    assert expected.min() >= 5.0
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    assert chdtrc(15, statistic) > 1e-3


def test_billion_pulse_histogram_is_one_draw_of_the_pattern_law():
    mu, n_pulses = 0.1, 10**9
    eff = default_efficiency_set()
    counts = np.array(simulate_pulses(SourceModel(label="S1", mu=mu), _cfg(n_pulses, seed=47, eff=eff)).counts)
    assert counts.sum() == n_pulses
    for detector, eta in enumerate(eff.eta):
        clicks = counts[[p for p in range(16) if p >> detector & 1]].sum()
        expected = -math.expm1(-mu * eta)
        assert abs(clicks / n_pulses - expected) <= 5 * math.sqrt(expected * (1 - expected) / n_pulses)


def test_steady_source_histogram_is_one_stretch():
    # A steady source draws one multinomial for the whole run, whatever the cycle grid.
    source = SourceModel(label="S1", mu=0.4)
    cycled = simulate_pulses(source, _cfg(50_000, seed=53, cycle_pulses=1_000))
    assert cycled == simulate_pulses(source, _cfg(50_000, seed=53))


def test_histogram_and_per_pulse_paths_share_the_cycle_intensities():
    # Two-sample chi-square homogeneity test: an intensity jitter of sigma = 0.1
    # over 4 cycles would separate the two samples if they drew different intensities.
    source = SourceModel(label="S1", mu=0.5, fluctuation=FluctuationModel(slope=0.2))
    cfg = _cfg(400_000, seed=59, eff=default_efficiency_set(), cycle_pulses=100_000)
    first = np.array(simulate_pulses(source, cfg).counts)
    second = np.bincount(simulate_patterns(source, cfg), minlength=16)
    expected = (first + second) / 2
    cells = expected >= 5
    statistic = float(np.sum(((first - expected) ** 2 + (second - expected) ** 2)[cells] / expected[cells]))
    assert chdtrc(cells.sum() - 1, statistic) > 1e-3


def test_count_series_poisson_limit():
    # Without excess fluctuation the per-cycle counts are binomial.
    source = SourceModel(label="S1", mu=0.5)
    cfg = _cfg(1, seed=23)
    series = simulate_count_series(source, cycles=400, pulses_per_cycle=20_000, cfg=cfg)
    p = 1.0 - math.exp(-0.5 * 0.1)
    expected_var = 20_000 * p * (1 - p)
    ratio = series.var(ddof=1) / expected_var
    assert 0.6 < ratio < 1.5
    assert series.mean() == pytest.approx(20_000 * p, rel=0.02)


def test_count_series_fluctuation_grows_with_mu():
    fluct = FluctuationModel(slope=0.08, intercept=0.0)
    spreads = []
    for mu in (0.2, 0.5, 1.0):
        source = SourceModel(label="S1", mu=mu, fluctuation=fluct)
        series = simulate_count_series(
            source, cycles=120, pulses_per_cycle=50_000, cfg=_cfg(1, seed=31)
        )
        spreads.append(series.std(ddof=1))
    assert spreads[0] < spreads[1] < spreads[2]


def test_count_series_deterministic_and_distinct_detectors():
    source = SourceModel(label="S1", mu=0.5, fluctuation=FluctuationModel(0.05, 0.0))
    cfg = _cfg(1, seed=37, eff=default_efficiency_set())
    a = simulate_count_series(source, 20, 10_000, cfg, detector=1)
    b = simulate_count_series(source, 20, 10_000, cfg, detector=1)
    assert np.array_equal(a, b)
    c = simulate_count_series(source, 20, 10_000, cfg, detector=4)
    assert not np.array_equal(a, c)


def test_count_series_validation():
    source = SourceModel(label="S1", mu=0.5)
    with pytest.raises(ValueError):
        simulate_count_series(source, cycles=1, pulses_per_cycle=10, cfg=_cfg(1))
    with pytest.raises(ValueError):
        simulate_count_series(source, cycles=2, pulses_per_cycle=10, cfg=_cfg(1), detector=5)


def test_fluctuating_pulses_redraw_per_cycle():
    fluct = FluctuationModel(slope=0.5, intercept=0.0)
    source = SourceModel(label="S1", mu=0.5, fluctuation=fluct)
    cfg = _cfg(40_000, seed=41, cycle_pulses=1_000)
    hist = simulate_pulses(source, cfg)
    assert hist.total_pulses == 40_000
    # The same seed with a different cycle grid changes the draw pattern.
    other = simulate_pulses(source, _cfg(40_000, seed=41, cycle_pulses=500))
    assert other != hist


def test_count_series_csv_round_trip(tmp_path):
    source = SourceModel(label="S1", mu=0.5)
    series = simulate_count_series(source, 10, 1_000, _cfg(1, seed=43))
    path = tmp_path / "series.csv"
    write_count_series_csv(path, series)
    assert np.array_equal(read_count_series_csv(path), series)
    assert path.read_text().splitlines()[0] == "cycle_index,counts"


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_pulses=0, seed=1, efficiency_set=UNIFORM)
    with pytest.raises(ValueError):
        SimConfig(n_pulses=10, seed=-1, efficiency_set=UNIFORM)


def test_sim_config_resolves_the_default_cycle_when_built():
    # One second of pulses at the period's rate, and at least one pulse.
    assert _cfg(10).cycle_pulses == 1_250_000
    assert _cfg(10, rep_period_ps=3 * 10**12).cycle_pulses == 1
    assert _cfg(10, cycle_pulses=7).cycle_pulses == 7


def test_sim_config_refuses_pulse_counts_past_int64():
    # numpy's samplers take a pulse count as an int64.
    assert SimConfig(n_pulses=2**63 - 1, seed=1, efficiency_set=UNIFORM).n_pulses == 2**63 - 1
    with pytest.raises(ValueError, match="n_pulses"):
        SimConfig(n_pulses=2**63, seed=1, efficiency_set=UNIFORM)
