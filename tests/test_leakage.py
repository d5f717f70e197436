"""Tests for the information-leakage calculators."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wcpstats
from wcpstats.leakage import (
    FluctuationFit,
    SourceDistribution,
    cross_correlation,
    fit_fluctuation,
    info_leakage,
    leakage_difference,
    leakage_payload,
    pairwise_leakage,
    pairwise_reports,
    source_distribution_at,
)

from oracles import (
    gaussian_overlap_closed_form,
    info_leakage_series,
    lstsq_line_fit,
    multi_photon_series,
    normal_cdf,
    poisson_term,
    truncated_overlap_quad,
)

# Pair correlations and leakages of the four reference sources.
PAIR_TABLE = [
    (0.9904, 0.0027),
    (0.9715, 0.0082),
    (0.9993, 0.0002),
    (0.9949, 0.0014),
    (0.9948, 0.0014),
    (0.9796, 0.0058),
]


def _series_with_spread(mean, spread):
    # Two points (mean - d, mean + d) have sample standard deviation d * sqrt(2).
    d = spread / math.sqrt(2.0)
    return [mean - d, mean + d]


def test_info_leakage_vacuum():
    assert info_leakage(0.0) == 0.0


def test_info_leakage_matches_truncated_series():
    for mu in (0.1, 0.5, 1.0, 2.0, 3.0):
        series = math.fsum(poisson_term(mu, n) / 2**n for n in range(2, 61))
        assert info_leakage(mu) == pytest.approx(series, abs=1e-12)


def test_info_leakage_matches_log_space_series_from_1e_4_to_1e4():
    # The closed form loses about 4 eps / mu to cancellation as mu -> 0, and each
    # log-space term of the series about eps per unit of its exponent (~ mu).
    # Past mu ~ 1490 the value underflows; only there may it read 0.0.
    eps = sys.float_info.epsilon
    for mu in np.geomspace(1e-4, 1e4, 241).tolist():
        expected, got = info_leakage_series(mu), info_leakage(mu)
        assert (got == 0.0) == (expected == 0.0), mu
        assert abs(got - expected) <= 8 * eps * (1 / mu + mu) * expected + 2 * math.ulp(0.0), mu


def test_info_leakage_below_multi_photon_probability():
    for mu in np.linspace(0.05, 3.0, 30):
        assert 0.0 < info_leakage(mu) < multi_photon_series(mu)


def test_leakage_difference_signs():
    assert leakage_difference(0.5, 0.5) == 0.0
    # Leakage grows with mu, so underestimating mu gives a positive gap.
    assert leakage_difference(0.5, 0.4) > 0.0
    assert leakage_difference(0.4, 0.5) < 0.0


def test_fit_exact_linear_relation():
    series = {mu: _series_with_spread(mu, 0.1 * mu) for mu in (0.2, 0.4, 0.6, 0.8)}
    fit = fit_fluctuation(series)
    assert fit.slope == pytest.approx(0.1, abs=1e-9)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)
    for point in fit.points:
        assert point.residual == pytest.approx(0.0, abs=1e-9)


def test_fit_order_independent():
    series = {0.2: [1.0, 1.2, 0.9], 0.6: [2.0, 2.6, 1.7], 0.4: [1.5, 1.8, 1.3]}
    reordered = {0.6: series[0.6], 0.4: series[0.4], 0.2: series[0.2]}
    first = fit_fluctuation(series)
    second = fit_fluctuation(reordered)
    assert first.slope == second.slope
    assert first.intercept == second.intercept


def test_fit_closed_loop_recovery():
    # Simulate count series with a known fluctuation model, convert the counts
    # to intensity units, subtract the counting-noise variance, undo the
    # threshold-saturation compression, and refit.  The slope must come back
    # within the propagated sampling error of the per-point spreads.
    from wcpstats.estimation import intensity_from_counts
    from wcpstats.optics import EfficiencySet
    from wcpstats.simulator import FluctuationModel, SimConfig, SourceModel, simulate_count_series

    slope_true = 0.08
    eta = 0.02
    pulses_per_cycle = 400_000
    cycles = 400
    eff = EfficiencySet.from_overall((eta, eta, eta, eta))
    series = {}
    point_se = {}
    for mu in (0.3, 0.6, 0.9, 1.2):
        source = SourceModel(label="S1", mu=mu, fluctuation=FluctuationModel(slope_true, 0.0))
        cfg = SimConfig(n_pulses=1, seed=97, efficiency_set=eff)
        counts = simulate_count_series(source, cycles=cycles, pulses_per_cycle=pulses_per_cycle, cfg=cfg)
        intensities = intensity_from_counts(counts, pulses_per_cycle, eta)
        p_click = 1.0 - math.exp(-mu * eta)
        shot_var = p_click * (1 - p_click) / (pulses_per_cycle * eta**2)
        excess = math.sqrt(max(np.var(intensities, ddof=1) - shot_var, 0.0))
        sigma_hat = excess / math.exp(-mu * eta)
        series[mu] = _series_with_spread(mu, sigma_hat)
        point_se[mu] = sigma_hat / math.sqrt(2 * (cycles - 1))
    fit = fit_fluctuation(series)
    x = np.array(sorted(series))
    weights = np.diag([1.0 / point_se[m] ** 2 for m in x])
    design = np.column_stack([x, np.ones_like(x)])
    slope_se = math.sqrt(np.linalg.inv(design.T @ weights @ design)[0, 0])
    assert fit.slope == pytest.approx(slope_true, abs=3 * slope_se)


@pytest.mark.parametrize("n_mus", [2, 5])
def test_fit_matches_lstsq_oracle(n_mus):
    rng = np.random.default_rng(40 + n_mus)
    series = {mu: rng.normal(mu, 0.05 * mu + 0.01, 40) for mu in np.linspace(0.1, 1.0, n_mus)}
    fit = fit_fluctuation(series).to_dict()
    expected = lstsq_line_fit(series)
    for key in ("slope", "intercept", "slope_se", "intercept_se"):
        if n_mus == 2 and key.endswith("_se"):
            # Two points leave the line no residual freedom: the oracle's NaN is written as None.
            assert fit[key] is None and math.isnan(expected[key])
        else:
            assert fit[key] == pytest.approx(expected[key], rel=1e-12)
    for point, reference in zip(fit["points"], expected["points"], strict=True):
        assert point["mu"] == reference["mu"]
        assert point["sigma"] == pytest.approx(reference["sigma"], rel=1e-12)
        # Residuals of an exact two-point fit are rounding noise, so compare on the sigma scale.
        assert point["residual"] == pytest.approx(reference["residual"], rel=1e-12, abs=1e-12 * reference["sigma"])


def test_fit_on_plain_lists_loads_no_numpy():
    # The fit needs no arrays, so a caller with plain lists does not pay numpy's import.
    code = (
        "import sys; from wcpstats.leakage import fit_fluctuation;"
        "fit_fluctuation({0.2: [1.0, 1.2, 0.9], 0.4: [1.5, 1.8, 1.3], 0.6: [2.0, 2.6, 1.7]});"
        "sys.exit('numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wcpstats.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_fluctuation({0.5: [1, 2, 3]})
    with pytest.raises(ValueError):
        fit_fluctuation({0.5: [1.0], 0.6: [1, 2]})


def test_distribution_truncated_mass_matches_normal_cdf():
    dist = SourceDistribution(mean=1.0, sigma=0.6)
    assert dist.truncated_mass == pytest.approx(normal_cdf(-1.0 / 0.6), abs=1e-9)


def test_distribution_from_fit():
    fit = FluctuationFit(
        slope=0.1, intercept=0.01, points=(), slope_se=0.0, intercept_se=0.0
    )
    dist = source_distribution_at(fit, 0.5)
    assert dist.mean == 0.5
    assert dist.sigma == pytest.approx(0.06, abs=1e-15)
    bad_fit = FluctuationFit(slope=0.0, intercept=0.0, points=(), slope_se=0.0, intercept_se=0.0)
    with pytest.raises(ValueError):
        source_distribution_at(bad_fit, 0.5)


def test_identical_distributions_fully_correlated():
    dist = SourceDistribution(mean=50.0, sigma=4.0)
    assert cross_correlation(dist, dist) == pytest.approx(1.0, abs=1e-9)


def test_separated_distributions_uncorrelated():
    a = SourceDistribution(mean=100.0, sigma=2.0)
    b = SourceDistribution(mean=200.0, sigma=2.0)
    assert cross_correlation(a, b) < 1e-6


def test_cross_correlation_matches_closed_form():
    a = SourceDistribution(mean=100.0, sigma=10.0)
    b = SourceDistribution(mean=105.0, sigma=12.0)
    expected = gaussian_overlap_closed_form(100.0, 10.0, 105.0, 12.0)
    assert cross_correlation(a, b) == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize(
    "first, second",
    [((1.0, 0.6), (1.2, 0.7)), ((0.2, 0.3), (0.3, 0.25)), ((62.0, 5.0), (62.5, 5.4))],
)
def test_cross_correlation_matches_quadrature_near_truncation(first, second):
    # Means within a few sigma of zero: the truncation at zero shapes R.
    a = SourceDistribution(*first)
    b = SourceDistribution(*second)
    expected = truncated_overlap_quad(*first, *second)
    assert cross_correlation(a, b) == pytest.approx(expected, rel=0.0, abs=1e-12)


def test_cross_correlation_symmetric():
    a = SourceDistribution(mean=80.0, sigma=9.0)
    b = SourceDistribution(mean=95.0, sigma=11.0)
    assert cross_correlation(a, b) == cross_correlation(b, a)


def test_pairwise_leakage_reference_pairs():
    for correlation, expected in PAIR_TABLE:
        assert pairwise_leakage(correlation) == pytest.approx(expected, abs=5e-4)


def test_pairwise_leakage_limits_and_monotonicity():
    assert pairwise_leakage(1.0) == pytest.approx(0.0, abs=1e-12)
    assert pairwise_leakage(0.0) == 1.0
    grid = np.linspace(0.5, 1.0, 101)
    values = [pairwise_leakage(r) for r in grid]
    assert all(b < a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        pairwise_leakage(1.2)
    with pytest.raises(ValueError):
        pairwise_leakage(-0.1)


def test_report_for_identical_pair_leaks_nothing():
    dist = SourceDistribution(mean=60.0, sigma=5.0)
    (report,) = pairwise_reports({"S1": dist, "S2": dist})
    assert report["pair"] == "S1&S2"
    assert report["R"] == pytest.approx(1.0, abs=1e-9)
    assert report["I_prime"] == pytest.approx(0.0, abs=1e-8)


def test_pairwise_reports_cover_all_pairs():
    distributions = {
        "S1": SourceDistribution(mean=60.0, sigma=5.0),
        "S2": SourceDistribution(mean=61.0, sigma=5.5),
        "S3": SourceDistribution(mean=63.0, sigma=6.0),
        "S4": SourceDistribution(mean=60.5, sigma=5.2),
    }
    reports = pairwise_reports(distributions)
    assert [r["pair"] for r in reports] == [
        "S1&S2",
        "S1&S3",
        "S1&S4",
        "S2&S3",
        "S2&S4",
        "S3&S4",
    ]
    for report in reports:
        assert 0.0 <= report["R"] <= 1.0
        assert report["I_prime"] >= 0.0


def test_leakage_report_json():
    distributions = {
        "S1": SourceDistribution(mean=60.0, sigma=5.0),
        "S2": SourceDistribution(mean=62.0, sigma=5.5),
    }
    reports = pairwise_reports(distributions)
    payload = leakage_payload(reports, mu=0.5, mu_single=0.48, mu_rigorous=0.5)
    assert payload["pairs"][0]["pair"] == "S1&S2"
    assert payload["multi_photon"]["I_AE"] == pytest.approx(info_leakage(0.5), abs=1e-15)
    assert payload["estimate_gap"]["delta_I"] == pytest.approx(
        leakage_difference(0.5, 0.48), abs=1e-15
    )
