"""Information-leakage estimates for a four-source transmitter.

Two leakage channels are quantified.  Multi-photon pulses hand an
eavesdropper the bit value with probability 1/2^n per n-photon pulse that
survives basis sifting, giving the worst-case mutual information
I(A:E) = sum_{n>=2} p_n / 2^n.  Separately, if the four polarization
sources show distinguishable intensity-fluctuation distributions, their
overlap correlation R maps to a side-channel leakage I'(A:E) that vanishes
only for identical distributions.

Count distributions are modeled as Gaussians truncated at zero: the
density is kept un-renormalized on the positive axis; the mass at or below
zero, the probability of no detection, is ``SourceDistribution.truncated_mass``.
Overlap integrals run over the positive axis only and are evaluated in
closed form.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from itertools import combinations

from .stats import _check_mu, normal_cdf

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Mapping, Sequence


# Up to this mu, e^{-mu} is a normal float and loses no precision to underflow.
_NORMAL_EXP_MAX = -math.log(sys.float_info.min)


def info_leakage(mu: float) -> float:
    """Worst-case multi-photon leakage I(A:E) = sum_{n>=2} p_n / 2^n.

    Closed form e^{-mu} (e^x - 1 - x) with x = mu/2; the expm1 form keeps
    precision in the small-mu limit (~ mu^2 / 8) to a relative error of
    about 4 eps / mu.  Beyond ``_NORMAL_EXP_MAX`` it is evaluated as
    e^{-x} (1 - (1 + x) e^{-x}), where no intermediate exceeds 1, so the
    result neither overflows nor underflows before the true value does.
    """
    mu = _check_mu(mu)
    x = mu / 2.0
    if mu <= _NORMAL_EXP_MAX:
        return math.exp(-mu) * (math.expm1(x) - x)
    decay = math.exp(-x)
    return decay * (-math.expm1(-x) - x * decay)


def leakage_difference(mu_rigorous: float, mu_single: float) -> float:
    """Signed leakage error from using the single-detector mu estimate.

    Positive when the single-detector method underestimates mu, because
    the leakage is monotone increasing in mu.
    """
    return info_leakage(mu_rigorous) - info_leakage(mu_single)


FitPoint = namedtuple("FitPoint", "mu sigma residual")
FitPoint.__doc__ = "One fluctuation measurement: mu, sample spread, and fit residual."


class FluctuationFit(namedtuple("FluctuationFit", "slope intercept points slope_se intercept_se")):
    """Least-squares line sigma(mu) = slope * mu + intercept through the data."""

    __slots__ = ()

    def sigma(self, mu: float) -> float:
        return self.slope * mu + self.intercept

    def to_dict(self) -> dict:
        return {**self._asdict(), "points": [p._asdict() for p in self.points]}


def fit_fluctuation(series_per_mu: Mapping[float, Sequence[float]]) -> FluctuationFit:
    """Fit the linear fluctuation model to per-mu intensity series.

    The sample standard deviation of each series is regressed on mu by
    closed-form least squares; the per-point residuals are the deviations
    from the fitted line.  Needs at least two distinct mu values, finite and
    >= 0, each with a series of length >= 2; with exactly two the line leaves no residual
    freedom, and the standard errors are None.
    """
    if len(series_per_mu) < 2:
        raise ValueError("need series for at least two distinct mu values")
    mus = []
    sigmas = []
    for mu in sorted(series_per_mu):
        mus.append(_check_mu(mu))
        series = [float(value) for value in series_per_mu[mu]]
        if len(series) < 2:
            raise ValueError(f"series for mu={mu} has fewer than 2 entries")
        mean = math.fsum(series) / len(series)
        sigmas.append(math.sqrt(math.fsum((v - mean) ** 2 for v in series) / (len(series) - 1)))
    n = len(mus)
    mu_bar, sigma_bar = math.fsum(mus) / n, math.fsum(sigmas) / n
    s_xx = math.fsum((x - mu_bar) ** 2 for x in mus)
    s_xy = math.fsum((x - mu_bar) * (y - sigma_bar) for x, y in zip(mus, sigmas))
    slope = s_xy / s_xx
    intercept = sigma_bar - slope * mu_bar
    residuals = [y - (slope * x + intercept) for x, y in zip(mus, sigmas)]
    slope_se = intercept_se = None
    if n > 2:
        variance = math.fsum(r * r for r in residuals) / (n - 2)
        slope_se = math.sqrt(variance / s_xx)
        intercept_se = math.sqrt(variance * (1.0 / n + mu_bar**2 / s_xx))
    points = tuple(map(FitPoint, mus, sigmas, residuals))
    return FluctuationFit(
        slope=slope, intercept=intercept, points=points, slope_se=slope_se, intercept_se=intercept_se
    )


class SourceDistribution:
    """Zero-truncated Gaussian count distribution of one source.

    The density is the normal pdf N(x; mean, sigma) on the positive axis,
    and ``truncated_mass`` is the probability weight at or below zero;
    together they account for all the probability.
    """

    __slots__ = ("mean", "sigma")

    def __init__(self, mean: float, sigma: float) -> None:
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"sigma must be > 0, got {sigma!r}")
        if not (math.isfinite(mean) and mean >= 0.0):
            raise ValueError(f"mean must be >= 0, got {mean!r}")
        self.mean = mean
        self.sigma = sigma

    @property
    def truncated_mass(self) -> float:
        return normal_cdf(-self.mean / self.sigma)


def source_distribution_at(fit: FluctuationFit, mu: float) -> SourceDistribution:
    """Count distribution the fitted fluctuation model predicts at ``mu``."""
    return SourceDistribution(mean=float(mu), sigma=float(fit.sigma(mu)))


def _sigma_shares(d_i: SourceDistribution, d_j: SourceDistribution) -> tuple[float, float, float]:
    """s_i / s, s_j / s and (m_i - m_j) / s, for s = hypot(s_i, s_j).

    Each goes through the larger sigma, whose ratio to s lies in
    [1/sqrt(2), 1]: no sigma is squared and s itself is never formed, so
    sigmas near either end of the float range neither underflow nor overflow.
    """
    larger = max(d_i.sigma, d_j.sigma)
    ratio = math.hypot(d_i.sigma / larger, d_j.sigma / larger)
    return d_i.sigma / larger / ratio, d_j.sigma / larger / ratio, (d_i.mean - d_j.mean) / larger / ratio


def _mass_above_zero(d_i: SourceDistribution, d_j: SourceDistribution) -> float:
    """Phi(m_c / s_c): the mass above zero of the normal pdf proportional to N(x; m_i, s_i) N(x; m_j, s_j).

    Its mean is m_c = (m_i s_j^2 + m_j s_i^2) / s^2 and its spread
    s_c = s_i s_j / s, with s = hypot(s_i, s_j).
    """
    u, v, _ = _sigma_shares(d_i, d_j)
    mean_c = d_i.mean * v * v + d_j.mean * u * u
    # The larger share is at least 1/sqrt(2), so s_c never underflows to 0.
    sigma_c = min(d_i.sigma, d_j.sigma) * max(u, v)
    return normal_cdf(mean_c / sigma_c)


def cross_correlation(d_i: SourceDistribution, d_j: SourceDistribution) -> float:
    """Normalized overlap R of two count distributions on the positive axis.

    R = integral(f_i f_j) / sqrt(integral(f_i^2) integral(f_j^2)), each
    integral in closed form: the product of two normal pdfs is
    phi(m_i - m_j; s^2), with s^2 = s_i^2 + s_j^2, times a normal pdf whose
    mass above zero is Phi(m_c / s_c).  The phi factors reduce to
    exp(-(m_i - m_j)^2 / 2 s^2) sqrt(2 s_i s_j) / s, which depends on the
    sigmas only through their shares of s.  R = 1 when the distributions
    coincide.
    """
    u, v, z = _sigma_shares(d_i, d_j)
    peaks = math.exp(-0.5 * z * z) * math.sqrt(2.0 * u * v)
    masses = _mass_above_zero(d_i, d_j) / math.sqrt(_mass_above_zero(d_i, d_i) * _mass_above_zero(d_j, d_j))
    return peaks * masses


def pairwise_leakage(correlation: float) -> float:
    """Side-channel leakage I'(A:E) of one source pair with overlap R.

    I' = 1 + 2 * (R/4) * log2(R/4); the factor 2 counts both orderings of
    the pair.  Perfectly identical sources (R = 1) leak nothing, and the
    R -> 0 limit gives the full bit.
    """
    if not (math.isfinite(correlation) and 0.0 <= correlation <= 1.0):
        raise ValueError(f"correlation must be in [0, 1], got {correlation!r}")
    if correlation == 0.0:
        return 1.0
    q = correlation / 4.0
    return 1.0 + 2.0 * q * math.log2(q)


def pairwise_reports(distributions: Mapping[str, SourceDistribution]) -> list[dict]:
    """``{"pair": "A&B", "R": R, "I_prime": I'}`` for every unordered label pair, labels sorted."""
    labels = sorted(distributions)
    if len(labels) < 2:
        raise ValueError("need at least two sources for pairwise reports")
    reports = []
    for label_a, label_b in combinations(labels, 2):
        # Rounding can land a hair above 1 for near-identical inputs.
        correlation = min(cross_correlation(distributions[label_a], distributions[label_b]), 1.0)
        reports.append({"pair": f"{label_a}&{label_b}", "R": correlation, "I_prime": pairwise_leakage(correlation)})
    return reports


def leakage_payload(
    reports: Sequence[dict] = (),
    mu: float | None = None,
    mu_single: float | None = None,
    mu_rigorous: float | None = None,
    pair_r: Sequence[float] | None = None,
) -> dict:
    """Leakage report: the ``pairwise_reports`` entries plus optional blocks, one ``pair_r`` entry per given R.

    The ``estimate_gap`` block needs both ``mu_single`` and ``mu_rigorous``.
    """
    payload: dict = {"pairs": list(reports)}
    if pair_r:
        payload["pair_r"] = [{"R": r, "I_prime": pairwise_leakage(r)} for r in pair_r]
    if mu is not None:
        payload["multi_photon"] = {"mu": mu, "I_AE": info_leakage(mu)}
    if mu_single is not None and mu_rigorous is not None:
        payload["estimate_gap"] = {
            "mu_I": mu_single,
            "mu_II": mu_rigorous,
            "delta_I": leakage_difference(mu_rigorous, mu_single),
        }
    return payload
