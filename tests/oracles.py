"""Independent reference implementations used only to check the library.

Everything here is deliberately brute force: exhaustive enumeration of
photon routings, truncated series, and textbook closed forms.  None of it
shares code with the package under test.
"""

from __future__ import annotations

import math
from itertools import combinations
from math import comb

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

DETECTORS = (1, 2, 3, 4)


def poisson_term(mu: float, n: int) -> float:
    """Direct Poisson term exp(-mu) mu^n / n! with exact integer factorials."""
    return math.exp(-mu) * mu**n / math.factorial(n)


def _tail_from_two(mu: float, x: float) -> float:
    """sum_{n>=2} e^{-mu} x^n / n! for x > 0, with each term taken in log space.

    The terms peak near n = x and are summed with math.fsum relative to
    the largest, so nothing overflows or underflows before the final exp:
    the result is 0.0 only where the true value underflows.
    """
    logs = [n * math.log(x) - math.lgamma(n + 1) - mu for n in range(2, int(x + 40.0 * math.sqrt(x)) + 60)]
    top = max(logs)
    return math.exp(top + math.log(math.fsum(math.exp(t - top) for t in logs)))


def info_leakage_series(mu: float) -> float:
    """sum_{n>=2} p_n / 2^n for mu > 0: the terms e^{-mu} (mu/2)^n / n!."""
    return _tail_from_two(mu, mu / 2.0)


def multi_photon_series(mu: float) -> float:
    """P(n >= 2) of a Poisson pulse of mean mu > 0: the terms e^{-mu} mu^n / n!."""
    return _tail_from_two(mu, mu)


def routing_subset_probabilities(n: int, eta) -> dict[frozenset[int], float]:
    """P(every detector in W clicks | n photons), by exhausting all routings.

    Each photon independently lands on detector 1..4 with probability
    eta_i or is lost; every one of the 5^n assignments is enumerated.
    """
    eta = [float(x) for x in eta]
    outcome_probs = np.array(eta + [1.0 - sum(eta)])
    result: dict[frozenset[int], float] = {}
    if n == 0:
        for r in (1, 2, 3, 4):
            for w in combinations(DETECTORS, r):
                result[frozenset(w)] = 0.0
        return result
    assignments = np.indices((5,) * n).reshape(n, -1)
    weights = np.prod(outcome_probs[assignments], axis=0)
    clicked = np.array([(assignments == d).any(axis=0) for d in range(4)])
    for r in (1, 2, 3, 4):
        for w in combinations(DETECTORS, r):
            mask = np.all(clicked[[d - 1 for d in w]], axis=0)
            result[frozenset(w)] = float(weights[mask].sum())
    return result


def routing_order_average(n: int, r: int, eta) -> float:
    """Order-averaged r-fold coincidence probability from the enumeration."""
    subset_probs = routing_subset_probabilities(n, eta)
    values = [subset_probs[frozenset(w)] for w in combinations(DETECTORS, r)]
    return math.fsum(values) / comb(4, r)


def coincidence_series(mu: float, r: int, eta, conditional, n_max: int = 80) -> float:
    """Photon-number average of per-n coincidences, truncated at n_max.

    ``conditional`` supplies c_{n,r}; the Poisson weights are computed
    directly from the series terms.
    """
    return math.fsum(poisson_term(mu, n) * conditional(n, r, eta) for n in range(n_max + 1))


def routing_pattern_table(eta, n_max: int, n_enumerated: int = 8) -> np.ndarray:
    """P(click set | n photons) for n = 0..n_max; row n holds the 16 click sets.

    Rows up to ``n_enumerated`` exhaust all 5^n photon routings.  Each later
    row routes one more photon from the row before: it lands on detector i
    with probability eta_i, setting bit i-1 of the click set, or is lost.
    """
    eta = [float(x) for x in eta]
    outcome_probs = np.array(eta + [1.0 - sum(eta)])
    outcome_bits = np.array([1, 2, 4, 8, 0])
    table = np.zeros((n_max + 1, 16))
    table[0, 0] = 1.0
    for n in range(1, min(n_enumerated, n_max) + 1):
        assignments = np.indices((5,) * n).reshape(n, -1)
        weights = np.prod(outcome_probs[assignments], axis=0)
        click_sets = np.bitwise_or.reduce(outcome_bits[assignments], axis=0)
        table[n] = np.bincount(click_sets, weights=weights, minlength=16)
    for n in range(n_enumerated + 1, n_max + 1):
        for state in range(16):
            for bits, p in zip(outcome_bits, outcome_probs):
                table[n, state | bits] += table[n - 1, state] * p
    return table


def dark_count_fold(pattern_probs, dark_rate: float) -> np.ndarray:
    """Fold independent dark clicks into a 16-entry click-set law.

    A detector the photons left silent still clicks with probability d, so
    P'(S) = sum over T subset of S of P(T) d^{|S|-|T|} (1-d)^{4-|S|}.
    """
    size = [bin(s).count("1") for s in range(16)]
    out = np.zeros(16)
    for s in range(16):
        silent = (1.0 - dark_rate) ** (4 - size[s])
        for t in range(16):
            if t & s == t:
                out[s] += pattern_probs[t] * dark_rate ** (size[s] - size[t]) * silent
    return out


def routing_order_table(eta, n_max: int = 40) -> np.ndarray:
    """c_{n,r} from :func:`routing_pattern_table`; row n, column r-1."""
    patterns = routing_pattern_table(eta, n_max)
    out = np.zeros((n_max + 1, 4))
    for r in (1, 2, 3, 4):
        for w in combinations(DETECTORS, r):
            mask = sum(1 << (d - 1) for d in w)
            supersets = [s for s in range(16) if s & mask == mask]
            out[:, r - 1] += patterns[:, supersets].sum(axis=1)
        out[:, r - 1] /= comb(4, r)
    return out


def poisson_order_series(mu: float, order_table: np.ndarray) -> list[float]:
    """Poisson average of the per-n coincidences c_{n,r}, for r = 1..4.

    Every term is non-negative, so the sum keeps full relative precision
    at small mu; the table's length sets the truncation.
    """
    weights = [poisson_term(mu, n) for n in range(len(order_table))]
    return [math.fsum(w * c for w, c in zip(weights, order_table[:, r])) for r in range(4)]


def truncated_overlap_quad(m1: float, s1: float, m2: float, s2: float) -> float:
    """Normalized overlap R of two zero-truncated Gaussians by adaptive quadrature."""

    def pdf(x, m, s):
        return math.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))

    upper = max(m1 + 40.0 * s1, m2 + 40.0 * s2)

    def integral(ma, sa, mb, sb):
        value, _ = quad(
            lambda x: pdf(x, ma, sa) * pdf(x, mb, sb), 0.0, upper,
            epsabs=0.0, epsrel=1e-13, limit=500,
        )
        return value

    return integral(m1, s1, m2, s2) / math.sqrt(integral(m1, s1, m1, s1) * integral(m2, s2, m2, s2))


def normal_cdf(x: float) -> float:
    return float(ndtr(x))


def gaussian_overlap_closed_form(m1: float, s1: float, m2: float, s2: float) -> float:
    """Normalized overlap of two untruncated Gaussians."""
    variance_sum = s1 * s1 + s2 * s2
    return math.sqrt(2.0 * s1 * s2 / variance_sum) * math.exp(
        -((m1 - m2) ** 2) / (2.0 * variance_sum)
    )


def lstsq_line_fit(series_per_mu) -> dict:
    """Line fit of each series' sample sigma on mu, by numpy's lstsq and the normal-matrix covariance.

    Returns the fields of ``FluctuationFit.to_dict()``; with two mu values
    the standard errors are NaN.
    """
    x = np.array(sorted(series_per_mu), dtype=np.float64)
    y = np.array([np.std(np.asarray(series_per_mu[mu], dtype=np.float64), ddof=1) for mu in sorted(series_per_mu)])
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - (slope * x + intercept)
    dof = len(x) - 2
    if dof > 0:
        covariance = float(residuals @ residuals) / dof * np.linalg.inv(design.T @ design)
        slope_se, intercept_se = np.sqrt(np.diag(covariance))
    else:
        slope_se = intercept_se = math.nan
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "slope_se": float(slope_se),
        "intercept_se": float(intercept_se),
        "points": [{"mu": m, "sigma": s, "residual": r} for m, s, r in zip(x.tolist(), y.tolist(), residuals.tolist())],
    }


def bin_records(records, rep_period_ps: int, n_pulses: int, offset_ps: int = 0, window_ps=None):
    """Pattern counts and the number of discarded records, one record at a time.

    A record at time t belongs to pulse (t - offset) // period when that
    pulse is one of 0..n_pulses-1 and, with a window, (t - offset) % period
    is below it; any other record is discarded.
    """
    patterns: dict[int, int] = {}
    discarded = 0
    for record in records:
        relative = int(record.time_ps) - offset_ps
        pulse, phase = divmod(relative, rep_period_ps)
        if relative < 0 or pulse >= n_pulses or (window_ps is not None and phase >= window_ps):
            discarded += 1
        else:
            patterns[pulse] = patterns.get(pulse, 0) | 1 << (int(record.channel) - 1)
    counts = [0] * 16
    for pattern in patterns.values():
        counts[pattern] += 1
    counts[0] += n_pulses - len(patterns)
    return counts, discarded


def timestamps_from_patterns(patterns, rep_period_ps: int):
    """Time-tagger records and the 16 pattern counts of per-pulse patterns, one pulse at a time.

    Every set bit of pulse p's pattern, in detector order, becomes one
    record at p * period + period // 8.
    """
    rows = []
    counts = [0] * 16
    for pulse, pattern in enumerate(patterns.tolist()):
        counts[pattern] += 1
        for bit in range(4):
            if pattern >> bit & 1:
                rows.append((bit + 1, pulse * rep_period_ps + rep_period_ps // 8))
    return np.array(rows, dtype=[("channel", "u1"), ("time_ps", "i8")]), counts


def exhaustive_shape_moments(eta) -> list[float]:
    """s_j for j = 1..4 by direct subset enumeration."""
    eta = [float(x) for x in eta]
    out = []
    for j in (1, 2, 3, 4):
        products = [math.prod(eta[d - 1] for d in w) for w in combinations(DETECTORS, j)]
        out.append(math.fsum(products) / comb(4, j))
    return out


def weighted_fit_argmin(order_probs, total_pulses: int, eta, lo: float, hi: float, orders=(1, 2, 3, 4)) -> float:
    """The rigorous estimator's minimiser in [lo, hi], by bisection on its first-order condition.

    The objective is sum_r w_r (c_r - m_r(mu))^2 with the estimator's
    weights w_r = 1 / max(c_r (1 - c_r) / N, 1 / N^2).  Each m_r is the mean
    over all size-r detector subsets of the product of their click
    probabilities 1 - exp(-mu eta_i), and its slope is the same mean of the
    product rule, both by enumeration.  The condition
    sum_r w_r (c_r - m_r) m_r' = 0 must change sign from + at ``lo`` to - at
    ``hi``.
    """
    eta = [float(x) for x in eta]
    n = total_pulses
    weights = {r: 1.0 / max(order_probs[r - 1] * (1.0 - order_probs[r - 1]) / n, 1.0 / (n * n)) for r in orders}

    def first_order(mu: float) -> float:
        q = [-math.expm1(-mu * e) for e in eta]
        dq = [e * math.exp(-mu * e) for e in eta]
        terms = []
        for r in orders:
            subsets = list(combinations(range(4), r))
            m = math.fsum(math.prod(q[i] for i in w) for w in subsets) / len(subsets)
            dm = math.fsum(dq[i] * math.prod(q[j] for j in w if j != i) for w in subsets for i in w) / len(subsets)
            terms.append(weights[r] * (order_probs[r - 1] - m) * dm)
        return math.fsum(terms)

    if not first_order(lo) > 0.0 > first_order(hi):
        raise ValueError(f"the first-order condition does not change sign over [{lo!r}, {hi!r}]")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if first_order(mid) > 0.0:
            lo = mid
        else:
            hi = mid
