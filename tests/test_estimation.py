"""Tests for the single-detector and rigorous mean-photon-number estimators."""

import csv
import math

import numpy as np
import pytest

from wcpstats import estimation
from wcpstats.coincidence import CoincidenceSummary, model_summary, observed_coincidences
from wcpstats.config import default_efficiency_set
from wcpstats.estimation import (
    ConvergenceError,
    InsufficientDataError,
    estimate_mu_rigorous,
    estimate_mu_single,
    intensity_from_counts,
    method_difference_sweep,
    point_seed,
    poissonity_test,
    write_sweep_csv,
)
from wcpstats.leakage import leakage_difference
from wcpstats.simulator import SimConfig, SourceModel, simulate_pulses

from oracles import weighted_fit_argmin

EFF = default_efficiency_set()
ETA = EFF.eta


def _vacuum_summary(total=1000):
    counts = [0] * 16
    counts[0] = total
    from wcpstats.coincidence import PatternHistogram

    return observed_coincidences(PatternHistogram(counts=tuple(counts), total_pulses=total))


def test_single_detector_worked_example():
    est = estimate_mu_single(81_250.0, 1.25e6, 0.13)
    assert est.mu_hat == pytest.approx(0.5, abs=1e-12)


def test_single_detector_zero_counts():
    assert estimate_mu_single(0.0, 1.25e6, 0.13).mu_hat == 0.0


def test_single_detector_linearity():
    base = estimate_mu_single(10_000.0, 1.25e6, 0.2).mu_hat
    halved_eta = estimate_mu_single(10_000.0, 1.25e6, 0.1).mu_hat
    assert halved_eta == pytest.approx(2 * base, rel=1e-12)


def test_single_detector_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        estimate_mu_single(100.0, 0.0, 0.13)
    with pytest.raises(ValueError):
        estimate_mu_single(100.0, 1.25e6, 0.0)
    with pytest.raises(ValueError):
        estimate_mu_single(-1.0, 1.25e6, 0.13)
    # Two valid factors whose product underflows to 0.
    for counts in (1.0, 0.0):
        with pytest.raises(ValueError, match="rep_rate \\* eta_overall = 1e-200 \\* 1e-200 underflows"):
            estimate_mu_single(counts, 1e-200, 1e-200)


def test_single_detector_refuses_a_quotient_that_overflows():
    with pytest.raises(ValueError, match="overflows"):
        estimate_mu_single(1e300, 1e-10, 0.5)


def test_single_detector_underestimates_saturated_rate():
    # Noise-free click rates saturate, so the linear rule reads low.
    for mu in (0.1, 0.5, 1.0, 2.0):
        click_prob = 1.0 - math.exp(-mu * ETA[0])
        est = estimate_mu_single(click_prob * 1.25e6, 1.25e6, ETA[0])
        assert est.mu_hat < mu
        assert est.mu_hat == pytest.approx((1 - math.exp(-mu * ETA[0])) / ETA[0], rel=1e-12)


@pytest.mark.parametrize("mu", [0.05, 0.2, 0.5, 1.0, 2.0])
def test_rigorous_round_trip_on_model_input(mu):
    summary = model_summary(mu, ETA, 10**12)
    est = estimate_mu_rigorous(summary, ETA)
    assert est.mu_hat == pytest.approx(mu, abs=1e-9)


def test_rigorous_round_trip_random_eta():
    rng = np.random.default_rng(8675309)
    for _ in range(5):
        raw = rng.uniform(0.02, 1.0, size=4)
        eta = tuple(raw / raw.sum() * 0.6)
        mu = float(rng.uniform(0.02, 2.0))
        summary = model_summary(mu, eta, 10**12)
        assert estimate_mu_rigorous(summary, eta).mu_hat == pytest.approx(mu, abs=1e-9)


def test_rigorous_round_trip_at_smallest_mu():
    summary = model_summary(1e-4, ETA, 10**12)
    assert estimate_mu_rigorous(summary, ETA).mu_hat == pytest.approx(1e-4, rel=1e-6)


ORACLE_CASES = [
    (mu, n, noisy)
    for mu in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 5.0)
    for n in (20_000, 10**6, 10**9, 10**12)
    for noisy in (False, True)
    if not noisy or mu * n >= 100
]


@pytest.mark.parametrize("mu,n,noisy", ORACLE_CASES)
def test_rigorous_lands_on_the_weighted_fit_minimiser(mu, n, noisy):
    # Decoy intensities reach 1e-4; the minimiser must be found to rounding
    # there as well, not only to the absolute tol.
    if noisy:
        cfg = SimConfig(n_pulses=n, seed=17, efficiency_set=EFF)
        summary = observed_coincidences(simulate_pulses(SourceModel(label="S1", mu=mu), cfg))
    else:
        summary = model_summary(mu, ETA, n)
    expected = weighted_fit_argmin(summary.order_probs, n, ETA, mu / 2, 2 * mu)
    assert estimate_mu_rigorous(summary, ETA).mu_hat == pytest.approx(expected, rel=1e-11, abs=0)


@pytest.mark.parametrize("mu", [0.01, 0.5, 2.0])
def test_rigorous_std_error_matches_the_spread_over_seeds(mu):
    estimates, errors = [], []
    for seed in range(200):
        cfg = SimConfig(n_pulses=1_000_000, seed=seed, efficiency_set=EFF)
        est = estimate_mu_rigorous(observed_coincidences(simulate_pulses(SourceModel(label="S1", mu=mu), cfg)), ETA)
        estimates.append(est.mu_hat)
        errors.append(est.std_error)
    assert 0.85 <= np.std(estimates, ddof=1) / np.mean(errors) <= 1.15


def test_rigorous_max_iter_one_raises_with_best_in_scan_bracket(monkeypatch):
    mu = 0.5
    monkeypatch.setattr(estimation, "_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as exc:
        estimate_mu_rigorous(model_summary(mu, ETA, 10**12), ETA)
    # The scan's argmin is a grid neighbour of mu, and its bracket spans one
    # more cell on either side.
    grid = np.geomspace(1e-6, 10.0, 256)
    j = int(np.searchsorted(grid, mu))
    assert grid[j - 2] <= exc.value.best.mu_hat <= grid[j + 1]


@pytest.mark.parametrize("eta", [(0.0,) * 4], ids=["no-detector"])
def test_rigorous_rejects_efficiencies_that_hide_mu(eta):
    with pytest.raises(ValueError, match="depends on mu"):
        estimate_mu_rigorous(model_summary(0.5, ETA, 10**6), eta)


def test_rigorous_refuses_total_pulses_past_its_float_range():
    # Weights reach N^2 and the standard error's score variance N^4; below 2**250 both stay floats.
    below = model_summary(0.5, ETA, 2**250 - 1)
    assert estimate_mu_rigorous(below, ETA).mu_hat == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(ValueError, match="total_pulses"):
        estimate_mu_rigorous(model_summary(0.5, ETA, 2**250), ETA)


@pytest.mark.parametrize("mu", [1e-8, 5e-7, 10.01, 20.0])
def test_rigorous_refuses_a_mu_outside_its_range(mu):
    # The fit would stop at the range's end and call that converged.
    with pytest.raises(ValueError, match=r"\[1e-06, 10\]"):
        estimate_mu_rigorous(model_summary(mu, ETA, 10**12), ETA)


@pytest.mark.parametrize("mu", [1e-6, 2e-6, 1e-4, 5.0, 9.99, 10.0])
def test_rigorous_keeps_a_mu_inside_its_range_up_to_the_ends(mu):
    assert estimate_mu_rigorous(model_summary(mu, ETA, 10**12), ETA).mu_hat == pytest.approx(mu, rel=1e-12)


def test_rigorous_requires_clicks():
    with pytest.raises(InsufficientDataError):
        estimate_mu_rigorous(_vacuum_summary(), ETA)


def test_rigorous_relabeling_invariance():
    mu = 0.7
    perm = (2, 0, 3, 1)
    eta_permuted = tuple(ETA[p] for p in perm)
    est = estimate_mu_rigorous(model_summary(mu, ETA, 10**10), ETA)
    est_permuted = estimate_mu_rigorous(model_summary(mu, eta_permuted, 10**10), eta_permuted)
    assert est_permuted.mu_hat == pytest.approx(est.mu_hat, abs=1e-12)


def test_rigorous_on_simulated_run():
    cfg = SimConfig(n_pulses=1_000_000, seed=1234, efficiency_set=EFF)
    summary = observed_coincidences(simulate_pulses(SourceModel(label="S1", mu=0.5), cfg))
    est = estimate_mu_rigorous(summary, ETA)
    assert est.mu_hat == pytest.approx(0.5, rel=0.02)


def test_poissonity_exact_model_passes_with_zero_statistic():
    summary = model_summary(0.5, ETA, 10**6)
    result = poissonity_test(summary, 0.5, ETA)
    assert result.statistic == pytest.approx(0.0, abs=1e-18)
    assert result.passed
    assert result.orders_used == (1, 2, 3, 4)
    assert result.dof == 3


def test_poissonity_accepts_simulated_poisson_data():
    passes = 0
    for seed in range(100):
        cfg = SimConfig(n_pulses=1_000_000, seed=seed, efficiency_set=EFF)
        summary = observed_coincidences(simulate_pulses(SourceModel(label="S1", mu=0.5), cfg))
        est = estimate_mu_rigorous(summary, ETA)
        if poissonity_test(summary, est.mu_hat, ETA).passed:
            passes += 1
    assert passes >= 95


def test_poissonity_rejects_doubled_pair_rate():
    base = model_summary(0.5, ETA, 10**6)
    subset_probs = dict(base.subset_probs)
    for w in subset_probs:
        if len(w) == 2:
            subset_probs[w] *= 2.0
    orders = list(base.order_probs)
    orders[1] *= 2.0
    doctored = CoincidenceSummary(
        subset_probs=subset_probs, order_probs=tuple(orders), total_pulses=10**6
    )
    est = estimate_mu_rigorous(doctored, ETA)
    assert not poissonity_test(doctored, est.mu_hat, ETA).passed


def test_poissonity_insufficient_orders():
    summary = model_summary(1e-4, ETA, 2000)  # higher orders carry ~0 expected events
    with pytest.raises(InsufficientDataError):
        poissonity_test(summary, 1e-4, ETA)


def test_intensity_from_counts():
    values = intensity_from_counts([100, 200], 10_000, 0.1)
    assert values == pytest.approx([0.1, 0.2])
    with pytest.raises(ValueError):
        intensity_from_counts([1], 0, 0.1)
    assert intensity_from_counts([0, 10_000], 10_000, 0.1) == pytest.approx([0.0, 10.0])
    for counts, named in (([5, -1], "got -1"), ([10_001], "got 10001")):
        with pytest.raises(ValueError, match=named):
            intensity_from_counts(counts, 10_000, 0.1)


def test_point_seed_deterministic():
    assert point_seed(7, 0) == point_seed(7, 0)
    assert point_seed(7, 0) != point_seed(7, 1)


def test_sweep_smoke_and_csv(tmp_path):
    rows = method_difference_sweep(
        [0.3, 0.6, 1.0], EFF, pulses_per_point=200_000, seed=7
    )
    assert [r.mu_true for r in rows] == [0.3, 0.6, 1.0]
    deltas = [abs(r.delta_mu) for r in rows]
    assert deltas[0] < deltas[-1]
    for row in rows:
        assert row.mu_method1 < row.mu_method2  # single method reads low
        assert row.delta_mu == pytest.approx(row.mu_method2 - row.mu_method1, abs=1e-15)
        assert row.delta_I == leakage_difference(row.mu_method2, row.mu_method1)

    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows)
    loaded = list(csv.DictReader(path.read_text().splitlines()))
    assert len(loaded) == 3
    assert list(loaded[0]) == [
        "mu_true",
        "mu_method1",
        "mu_method2",
        "delta_mu",
        "residual",
        "pulses",
        "seed",
        "delta_I",
    ]
    assert float(loaded[1]["mu_method2"]) == pytest.approx(rows[1].mu_method2, abs=1e-15)
    assert float(loaded[1]["delta_I"]) == rows[1].delta_I


def test_method_gap_vanishes_at_small_mu():
    # Noise-free comparison: both estimators converge as mu goes to zero.
    for mu in (1e-3, 1e-2):
        summary = model_summary(mu, ETA, 10**12)
        rigorous = estimate_mu_rigorous(summary, ETA)
        click_prob = summary.subset_probs[frozenset({1})]
        single = estimate_mu_single(click_prob * 1.25e6, 1.25e6, ETA[0])
        assert abs(rigorous.mu_hat - single.mu_hat) <= mu * mu


def test_sweep_rejects_out_of_range_grid():
    with pytest.raises(ValueError):
        method_difference_sweep([0.5, 2.5], EFF, 1000, seed=1)
    with pytest.raises(ValueError):
        method_difference_sweep([], EFF, 1000, seed=1)
