"""Closed-form photon-number statistics of pulsed coherent light.

A strongly attenuated pulsed laser emits coherent states, so the number of
photons per pulse is Poisson distributed and the mean photon number ``mu``
is the single parameter that fixes the whole distribution.  This module
collects the closed-form pieces: the Fock-basis overlap of a coherent
state, the Poisson pmf itself, and the two special functions the package
needs (the normal CDF and the chi-square quantile), written with the
standard library alone.  It also defines the errors of the estimators, so
that callers can catch them without importing numpy.

All functions are pure; ``chi_square_quantile`` caches its results.
"""

from __future__ import annotations

import functools
import math

# Above this count the pmf is evaluated in log space to avoid overflow.
_DIRECT_EVAL_MAX_N = 20


class InsufficientDataError(RuntimeError):
    """Raised when the observed data cannot support an estimate."""


class ConvergenceError(RuntimeError):
    """Raised when the search fails to converge; carries the best iterate."""

    def __init__(self, message: str, best: "MuEstimate"):
        super().__init__(message)
        self.best = best


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not math.isfinite(mu) or mu < 0.0:
        raise ValueError(f"mean photon number must be finite and >= 0, got {mu!r}")
    return mu


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


def _check_count(n) -> int:
    if isinstance(n, bool):
        raise ValueError(f"photon count must be an integer, got {n!r}")
    if isinstance(n, float):
        if not n.is_integer():
            raise ValueError(f"photon count must be an integer, got {n!r}")
        n = int(n)
    if not isinstance(n, int):
        raise ValueError(f"photon count must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"photon count must be >= 0, got {n}")
    return n


def poisson_pmf(mu: float, n: int) -> float:
    """Probability of exactly ``n`` photons in a pulse of mean ``mu``."""
    mu = _check_mu(mu)
    n = _check_count(n)
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    if n <= _DIRECT_EVAL_MAX_N:
        return math.exp(-mu) * mu**n / math.factorial(n)
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x); erfc keeps relative precision in the lower tail."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _chi_square_sf(x: float, dof: int) -> float:
    """P(X > x) for chi-square X with integer ``dof``: the upper gamma ratio Q(dof/2, x/2).

    Q(1/2, y) = 2 Phi(-sqrt(2y)) and Q(1, y) = exp(-y) start the
    positive-term recursion Q(a+1, y) = Q(a, y) + y^a exp(-y) / Gamma(a+1).
    """
    y = 0.5 * x
    if dof % 2:
        a, sf = 0.5, 2.0 * normal_cdf(-math.sqrt(x))
        term = 2.0 * math.sqrt(y / math.pi) * math.exp(-y)
    else:
        a, sf = 1.0, math.exp(-y)
        term = y * math.exp(-y)
    while a < 0.5 * dof:
        sf += term
        a += 1.0
        term *= y / a
    return sf


@functools.lru_cache(typed=True)
def chi_square_quantile(percentile: float, dof: int) -> float:
    """The x with P(X <= x) = ``percentile`` for chi-square X with integer ``dof``.

    Bisection on the closed-form survival function, carried on until the
    bracket holds no float between its ends.  The cache is keyed on argument
    types too, so that a cached ``dof=1`` does not answer for ``dof=True``.
    """
    if not 0.0 < percentile < 1.0:
        raise ValueError(f"percentile must lie in (0, 1), got {percentile!r}")
    if isinstance(dof, bool) or not isinstance(dof, int) or dof < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {dof!r}")
    p = 1.0 - percentile
    lo, hi = 0.0, float(dof)
    while _chi_square_sf(hi, dof) > p:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _chi_square_sf(mid, dof) > p:
            lo = mid
        else:
            hi = mid


def coherent_fock_probability(mu: float, n: int) -> float:
    """Fock-state occupation probability of a coherent state.

    Returns ``|<n|alpha>|**2`` for a coherent state with ``|alpha|**2 = mu``,
    evaluated through the state's Fock-basis amplitude.  Numerically
    identical to ``poisson_pmf(mu, n)``; keeping both routes makes the
    coherent-state/Poisson identity an executable check rather than an
    assumption.
    """
    mu = _check_mu(mu)
    n = _check_count(n)
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    if n <= _DIRECT_EVAL_MAX_N:
        amplitude = math.exp(-mu / 2.0) * math.sqrt(mu) ** n / math.sqrt(math.factorial(n))
        return amplitude * amplitude
    log_amplitude = -mu / 2.0 + 0.5 * n * math.log(mu) - 0.5 * math.lgamma(n + 1)
    return math.exp(2.0 * log_amplitude)
