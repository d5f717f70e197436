"""Tests for the photon-number-probability bounds."""

import math

import numpy as np
import pytest

from wcpstats.bounds import (
    evaluate_bounds,
    normalized_coincidences,
    photon_number_bounds,
    shape_factors,
    write_bounds_json,
)
from wcpstats.coincidence import model_summary
from wcpstats.fileio import read_json

from oracles import exhaustive_shape_moments, poisson_term

TABLE_ETA = (0.1522014, 0.1432106, 0.13574145, 0.1342692)


def _uniform_reference_bounds(c_tilde, e):
    """Bound formulas for equal efficiencies, transcribed independently."""
    c1, c2, c3, c4 = c_tilde
    p0_low = 1 - c1 + (1 - e) * c2 - (1 - 3 * e + 2 * e**2) * c3 \
        + 4 * e * (1 - 6 * e + 11 * e**2 - 6 * e**3) * c4
    p0_high = 1 - c1 + (1 - e) * c2 - (1 - 3 * e + 2 * e**2) * c3 \
        + (1 - 6 * e + 11 * e**2 - 6 * e**3) * c4
    p1_low = c1 - (2 - e) * c2 + (3 - 6 * e + 2 * e**2) * c3 \
        - (4 - 18 * e + 22 * e**2 - 6 * e**3) * c4
    p1_high = c1 - (2 - e) * c2 + (3 - 6 * e + 2 * e**2) * c3 \
        - 4 * e * (3 - 12 * e + 11 * e**2) * c4
    p2_low = c2 - 3 * (1 - e) * c3 + 12 * e * (1 - 2 * e) * c4
    p2_high = c2 - 3 * (1 - e) * c3 + (6 - 18 * e + 11 * e**2) * c4
    p3_low = c3 - (4 - 6 * e) * c4
    p3_high = c3 - 4 * e * c4
    tail_low = 24 * e**4 * c4
    tail_high = c4
    return (
        (p0_low, p1_low, p2_low, p3_low, tail_low),
        (p0_high, p1_high, p2_high, p3_high, tail_high),
    )


def _poisson_truths(mu):
    probs = [poisson_term(mu, n) for n in range(4)]
    return probs + [1.0 - math.fsum(probs)]


def test_uniform_shape_factors():
    factors = shape_factors((0.1, 0.1, 0.1, 0.1))
    assert factors.s[0] == pytest.approx(0.1, abs=1e-15)
    assert factors.s[1] == pytest.approx(0.01, abs=1e-15)
    assert factors.s[2] == pytest.approx(0.001, abs=1e-15)
    assert factors.s[3] == pytest.approx(0.0001, abs=1e-15)
    assert all(value == 0.0 for value in factors.xi.values())


def test_shape_factors_match_subset_enumeration():
    eta = (0.1, 0.1, 0.1, 0.2)
    factors = shape_factors(eta)
    expected = exhaustive_shape_moments(eta)
    for got, want in zip(factors.s, expected):
        assert got == pytest.approx(want, abs=1e-15)


def test_xi_two_evaluation_routes_agree():
    rng = np.random.default_rng(5150)
    for _ in range(20):
        raw = rng.uniform(0.02, 1.0, size=4)
        eta = tuple(raw / raw.sum() * 0.5)
        factors = shape_factors(eta)
        eta_bar = factors.s[0]
        # Ratio route: 1 + xi_{i,j} = (1 + xi_{i,1}) / (1 + xi_{j,1}).
        for i in (3, 4):
            for j in range(2, i):
                direct = factors.xi[(i, j)]
                via_first = (1 + factors.xi[(i, 1)]) / (1 + factors.xi[(j, 1)]) - 1
                assert direct == pytest.approx(via_first, abs=1e-12)
        for i in (2, 3, 4):
            assert factors.xi[(i, 1)] == pytest.approx(
                factors.s[i - 1] / eta_bar**i - 1, abs=1e-12
            )


def test_shape_factors_reject_zero_efficiency():
    with pytest.raises(ValueError):
        shape_factors((0.0, 0.1, 0.1, 0.1))


def test_vacuum_bounds_collapse():
    summary = model_summary(0.0, (0.05,) * 4, 1000)
    bounds = photon_number_bounds(summary, (0.05,) * 4)
    assert bounds.lower[0] == 1.0 and bounds.upper[0] == 1.0
    for k in range(1, 5):
        assert bounds.lower[k] == 0.0 and bounds.upper[k] == 0.0


@pytest.mark.parametrize("mu", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("eta_value", [0.01, 0.05])
def test_sandwich_on_noise_free_poisson_input(mu, eta_value):
    eta = (eta_value,) * 4
    summary = model_summary(mu, eta, 10**12)
    bounds = photon_number_bounds(summary, eta)
    truths = _poisson_truths(mu)
    for k in range(5):
        assert bounds.lower[k] <= truths[k] <= bounds.upper[k]


def test_sandwich_with_nonuniform_efficiencies():
    summary = model_summary(0.5, TABLE_ETA, 10**12)
    bounds = photon_number_bounds(summary, TABLE_ETA)
    truths = _poisson_truths(0.5)
    assert bounds.contains(truths)


def test_tail_upper_bound_is_plain_copy():
    eta = (0.05,) * 4
    summary = model_summary(0.5, eta, 10**12)
    bounds = photon_number_bounds(summary, eta)
    c_tilde_4 = normalized_coincidences(summary, shape_factors(eta))[3]
    assert bounds.upper[4] == c_tilde_4
    # For uniform efficiencies the scale is r! * eta_bar**r.
    assert c_tilde_4 == pytest.approx(
        summary.order_probs[3] / (24 * 0.05**4), rel=1e-12
    )


def test_tail_lower_bound_is_exact_coincidence_rate():
    # A four-fold coincidence needs at least four photons, so c_obs,4 is a
    # lower bound on the tail mass for any efficiency vector.
    for eta in ((0.05,) * 4, TABLE_ETA):
        summary = model_summary(0.7, eta, 10**12)
        bounds = photon_number_bounds(summary, eta)
        assert bounds.lower[4] == pytest.approx(summary.order_probs[3], rel=1e-12)


def test_uniform_case_reduction():
    # With every xi forced to zero the general formulas must reproduce the
    # uniform-case expressions exactly.
    eta = (0.05,) * 4
    summary = model_summary(0.5, eta, 10**12)
    factors = shape_factors(eta)
    eta_bar = factors.s[0]
    c_tilde = normalized_coincidences(summary, factors)
    bounds = evaluate_bounds(c_tilde, eta_bar, factors)
    ref_lower, ref_upper = _uniform_reference_bounds(c_tilde, eta_bar)
    assert bounds.lower == ref_lower
    assert bounds.upper == ref_upper


def test_normalized_coincidences_non_negative():
    summary = model_summary(0.5, TABLE_ETA, 1000)
    values = normalized_coincidences(summary, shape_factors(TABLE_ETA))
    assert all(v >= 0 for v in values)


def test_clipping_for_reporting():
    eta = (0.05,) * 4
    factors = shape_factors(eta)
    # Artificial normalized coincidences push some raw bounds outside [0, 1].
    bounds = evaluate_bounds((2.0, 0.0, 0.0, 0.0), 0.05, factors)
    assert bounds.lower[1] > 1.0  # raw value kept verbatim
    clipped_lo, clipped_hi = bounds.clipped()
    assert all(0.0 <= v <= 1.0 for v in clipped_lo + clipped_hi)


def test_bounds_report_json(tmp_path):
    eta = (0.05,) * 4
    summary = model_summary(0.5, eta, 10**12)
    bounds = photon_number_bounds(summary, eta)
    path = tmp_path / "bounds.json"
    write_bounds_json(path, bounds, meta={"eta_bar": 0.05})
    payload = read_json(path)
    assert [entry["n"] for entry in payload["entries"]] == ["0", "1", "2", "3", "ge4"]
    for entry, low, high in zip(payload["entries"], bounds.lower, bounds.upper):
        assert entry["lower"] == low
        assert entry["upper"] == high
        assert 0.0 <= entry["clipped_lower"] <= 1.0
        assert 0.0 <= entry["clipped_upper"] <= 1.0
