"""Tests for the closed-form photon-statistics module."""

import math

import numpy as np
import pytest
from scipy.special import chdtri, ndtr

from wcpstats.stats import chi_square_quantile, coherent_fock_probability, normal_cdf, poisson_pmf

from oracles import poisson_term

# Frozen with a 50-digit Decimal evaluation of exp(-1/2).
E_MINUS_HALF = 0.6065306597126334


def test_vacuum_has_exactly_zero_photons():
    assert coherent_fock_probability(0.0, 0) == 1.0
    assert coherent_fock_probability(0.0, 1) == 0.0
    assert poisson_pmf(0.0, 3) == 0.0


def test_poisson_value_at_mu_half():
    assert poisson_pmf(0.5, 0) == pytest.approx(E_MINUS_HALF, abs=1e-15)


def test_fock_overlap_equals_direct_evaluation():
    assert coherent_fock_probability(0.5, 2) == pytest.approx(poisson_pmf(0.5, 2), abs=1e-12)
    assert poisson_pmf(0.5, 2) == pytest.approx(E_MINUS_HALF * 0.25 / 2, abs=1e-15)


@pytest.mark.parametrize("mu", [0.1, 0.5, 1.0, 5.0])
def test_coherent_poisson_identity(mu):
    for n in range(21):
        assert abs(coherent_fock_probability(mu, n) - poisson_pmf(mu, n)) <= 1e-12


@pytest.mark.parametrize("mu", [0.1, 0.5, 1.0, 5.0, 25.0])
def test_normalization(mu):
    n_max = math.ceil(mu + 15.0 * math.sqrt(mu) + 20.0)
    total = math.fsum(poisson_pmf(mu, n) for n in range(n_max + 1))
    assert abs(total - 1.0) <= 1e-12


def test_log_space_branch_continuous():
    # Values straddling the direct/log-space switchover agree with the
    # direct series term.
    for n in (19, 20, 21, 25, 40):
        assert poisson_pmf(3.0, n) == pytest.approx(poisson_term(3.0, n), rel=1e-12)


def test_large_n_does_not_overflow():
    assert poisson_pmf(1.0, 400) >= 0.0
    assert coherent_fock_probability(1.0, 400) >= 0.0


@pytest.mark.parametrize("func", [poisson_pmf, coherent_fock_probability])
def test_rejects_bad_inputs(func):
    with pytest.raises(ValueError):
        func(-0.1, 2)
    with pytest.raises(ValueError):
        func(0.5, -1)
    with pytest.raises(ValueError):
        func(0.5, 1.5)


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_chi_square_quantile_matches_scipy(dof):
    percentiles = np.concatenate([np.linspace(0.5, 0.999, 50), [0.9999, 0.99999, 0.999999]])
    for percentile in percentiles:
        expected = chdtri(dof, 1.0 - percentile)
        assert chi_square_quantile(float(percentile), dof) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("percentile, dof", [(0.0, 1), (1.0, 1), (0.99, 0), (0.99, 1.5), (0.99, True)])
def test_chi_square_quantile_rejects_bad_inputs(percentile, dof):
    # A cached result for a valid call must not answer for an invalid one that compares equal.
    chi_square_quantile(0.99, 1)
    with pytest.raises(ValueError):
        chi_square_quantile(percentile, dof)


def test_normal_cdf_matches_scipy():
    # Rounding x / sqrt(2) costs ~x^2 ulp of relative precision at x = -30.
    for x in np.linspace(-30.0, 8.0, 3801):
        assert normal_cdf(float(x)) == pytest.approx(ndtr(x), rel=5e-13)
