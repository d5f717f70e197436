"""Mean-photon-number estimation from single-detector and four-detector data.

Two estimators are provided.  The single-detector estimate divides the
click rate by (repetition rate x efficiency); it is deliberately left
uncorrected for threshold-detector saturation because quantifying that
bias is the whole point of comparing it against the rigorous route.  The
rigorous estimate inverts the four-detector coincidence model by weighted
least squares over all coincidence orders.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .coincidence import ORDERS, CoincidenceSummary, observed_coincidences, poisson_coincidence_model
from .fileio import write_text_atomic
from .optics import N_DETECTORS, SUBSETS_PER_ORDER, EfficiencySet, subset_product_means, validate_efficiencies
from .stats import ConvergenceError, InsufficientDataError, _check_mu, _check_seed, chi_square_quantile

TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path
    from typing import Sequence

# The estimator's range of mu, spanned by a geometric scan of _SCAN_POINTS
# points that brackets the minimiser.
_SCAN_MIN = 1e-6
_SCAN_MAX = 10.0
_SCAN_POINTS = 256
_SCAN_GRID = tuple(_SCAN_MIN * (_SCAN_MAX / _SCAN_MIN) ** (k / (_SCAN_POINTS - 1)) for k in range(_SCAN_POINTS))
# Gauss-Newton stops at the first step of at most _TOL, and gives up after _MAX_ITER steps.
_TOL = 1e-10
_MAX_ITER = 200
# A weight is at most N^2 (its floor is 1/N^2) and a slope at most 1, so the
# standard error's score variance grows as N^4; below this N it stays a float.
_MAX_PULSES = 2**250
# Imaginary step that carries the model's slope: its square vanishes against
# every real product, and its products with the slopes stay normal floats.
_SLOPE_STEP = 1e-100
# The chi-square percentile below which the Poissonity check passes.
_POISSONITY_PERCENTILE = 0.99


MuEstimate = namedtuple("MuEstimate", "mu_hat residual std_error", defaults=(0.0, None))
MuEstimate.__doc__ = "An estimated mean photon number, with the fit's misfit and standard error where it has them."


def estimate_mu_single(
    counts_per_second: float, rep_rate: float, eta_overall: float
) -> MuEstimate:
    """Single-detector linear estimate: mu = N / (rep_rate * eta).

    ``eta_overall`` is the full efficiency of the one detector path
    (branching x coupling x detector).  The rule ignores multi-photon
    saturation of the threshold detector, so it underestimates mu; the
    bias grows with mu.
    """
    if counts_per_second < 0 or not math.isfinite(counts_per_second):
        raise ValueError(f"counts_per_second must be >= 0, got {counts_per_second!r}")
    if not (math.isfinite(rep_rate) and rep_rate > 0):
        raise ValueError(f"rep_rate must be > 0, got {rep_rate!r}")
    if not (math.isfinite(eta_overall) and 0.0 < eta_overall <= 1.0):
        raise ValueError(f"eta_overall must be in (0, 1], got {eta_overall!r}")
    rate = rep_rate * eta_overall
    if rate == 0.0:
        raise ValueError(f"rep_rate * eta_overall = {rep_rate!r} * {eta_overall!r} underflows to 0")
    mu = counts_per_second / rate
    if not math.isfinite(mu):
        raise ValueError(f"mu estimate {counts_per_second!r} / ({rep_rate!r} * {eta_overall!r}) overflows")
    return MuEstimate(mu_hat=mu)


def intensity_from_counts(counts, n_pulses: int, eta_overall: float):
    """Per-cycle intensity estimates from raw click counts (single-detector rule)."""
    import numpy as np

    if n_pulses <= 0:
        raise ValueError(f"n_pulses must be > 0, got {n_pulses}")
    if not 0.0 < eta_overall <= 1.0:
        raise ValueError(f"eta_overall must be in (0, 1], got {eta_overall!r}")
    counts = np.asarray(counts, dtype=np.float64)
    impossible = counts[~((counts >= 0) & (counts <= n_pulses))]
    if impossible.size:
        raise ValueError(f"click counts must lie in 0..{n_pulses}, got {impossible[0]:.17g}")
    return counts / (n_pulses * eta_overall)


def estimate_mu_rigorous(summary: CoincidenceSummary, eta: Sequence[float]) -> MuEstimate:
    """Invert the four-detector coincidence model for mu: scan + Gauss-Newton.

    Minimizes sum_r w_r (c_obs,r - m_r(mu))^2 over the four orders and over
    mu in [1e-6, 10], with inverse-variance weights w_r = 1 / max(var_r, 1/N^2),
    var_r being the binomial variance estimate of the observed probability.
    A 256-point geometric scan brackets the minimum between the neighbours
    of its smallest point.  From that point, Gauss-Newton steps
    delta = sum_r w_r (c_r - m_r) m_r' / sum_r w_r m_r'^2 stay clamped to the
    bracket and are halved until they lower the objective.  The search stops
    at the first step of at most 1e-10; after 200 steps
    :class:`ConvergenceError` carries the last iterate instead.  A minimiser
    that the range cuts off, one at either end of the scan with the slope
    still pointing out of it, raises ValueError rather than being returned
    as the range's end, and so does a summary of 2**250 pulses or more.

    ``residual`` is the RMS misfit over the four orders.  ``std_error`` is
    the sandwich standard error of mu_hat: the per-pulse covariance of the
    order scores, taken from the observed orders, carried through the
    weighted fit's first-order condition.
    """
    eta = validate_efficiencies(eta)
    c_obs = summary.order_probs
    if not any(c_obs):
        raise InsufficientDataError(
            "insufficient data: no clicks in any coincidence order"
        )
    if not any(e > 0.0 for e in eta):
        raise ValueError(f"no coincidence order depends on mu at efficiencies {eta!r}")
    n = summary.total_pulses
    if n >= _MAX_PULSES:
        raise ValueError(f"total_pulses must be below 2**250 (about {float(_MAX_PULSES):.2e}) for the fit's arithmetic")
    weights = tuple(1.0 / max(c * (1.0 - c) / n, 1.0 / (n * n)) for c in c_obs)
    w1, w2, w3, w4 = weights
    c1, c2, c3, c4 = c_obs

    def objective(model):
        m1, m2, m3, m4 = model
        d1, d2, d3, d4 = c1 - m1, c2 - m2, c3 - m3, c4 - m4
        return w1 * d1 * d1 + w2 * d2 * d2 + w3 * d3 * d3 + w4 * d4 * d4

    values = [objective(poisson_coincidence_model(mu, eta)) for mu in _SCAN_GRID]
    best = values.index(min(values))
    lo, hi = _SCAN_GRID[max(best - 1, 0)], _SCAN_GRID[min(best + 1, _SCAN_POINTS - 1)]

    mu, value = _SCAN_GRID[best], values[best]
    model, slope = _model_and_slope(mu, eta)
    converged = False
    for _ in range(_MAX_ITER):
        (m1, m2, m3, m4), (s1, s2, s3, s4) = model, slope
        gain = w1 * (c1 - m1) * s1 + w2 * (c2 - m2) * s2 + w3 * (c3 - m3) * s3 + w4 * (c4 - m4) * s4
        curvature = w1 * s1 * s1 + w2 * s2 * s2 + w3 * s3 * s3 + w4 * s4 * s4
        step = min(max(mu + gain / curvature, lo), hi) - mu
        # A step within tol is taken as it stands: that close to the minimiser
        # the objective changes by less than its rounding.
        converged = abs(step) <= _TOL
        while True:
            trial, trial_slope = _model_and_slope(mu + step, eta)
            trial_value = objective(trial)
            if trial_value < value or abs(step) <= _TOL:
                break
            step *= 0.5
        mu, value, model, slope = mu + step, trial_value, trial, trial_slope
        if converged:
            break

    scores = [w * s for w, s in zip(weights, slope)]
    estimate = MuEstimate(
        mu_hat=mu,
        residual=math.sqrt(math.fsum((c - m) ** 2 for c, m in zip(c_obs, model)) / len(ORDERS)),
        std_error=math.sqrt(_score_variance(scores, c_obs) / n) / math.fsum(g * s for g, s in zip(scores, slope)),
    )
    if not converged:
        raise ConvergenceError(
            f"Gauss-Newton did not reach |d mu| <= {_TOL} within {_MAX_ITER} steps",
            best=estimate,
        )
    if mu == _SCAN_GRID[0] and gain < 0.0 or mu == _SCAN_GRID[-1] and gain > 0.0:
        raise ValueError(f"mu lies outside the estimator's range [{_SCAN_MIN:g}, {_SCAN_MAX:g}]")
    return estimate


def _model_and_slope(mu: float, eta: Sequence[float]) -> tuple[list[float], list[float]]:
    """The model orders m_r(mu), r = 1..4, and their slopes dm_r/dmu.

    Each click marginal q_i = 1 - exp(-mu eta_i) carries _SLOPE_STEP times its
    slope eta_i (1 - q_i) as an imaginary part through the one subset-product
    mean, which is multilinear in the q_i and adds only positive terms.
    """
    marginals = []
    for e in eta:
        q = -math.expm1(-mu * e)
        marginals.append(complex(q, _SLOPE_STEP * e * (1.0 - q)))
    means = subset_product_means(marginals)
    return [m.real for m in means], [m.imag / _SLOPE_STEP for m in means]


def _score_variance(g: Sequence[float], c: Sequence[float]) -> float:
    """Per-pulse variance of sum_r g_r C(k, r)/C(4, r), k the number of detectors that click.

    c_r is the mean of the score C(k, r)/C(4, r).  The law of k follows from
    the binomial moments B_r = C(4, r) c_r = E[C(k, r)], with B_0 = 1, as
    P(k) = sum_{r >= k} (-1)^(r - k) C(r, k) B_r.
    """
    moments = [1.0] + [count * x for count, x in zip(SUBSETS_PER_ORDER, c)]
    mean = math.fsum(gr * cr for gr, cr in zip(g, c))
    terms = []
    for k in range(N_DETECTORS + 1):
        p_k = math.fsum((-1) ** (r - k) * math.comb(r, k) * moments[r] for r in range(k, N_DETECTORS + 1))
        score = math.fsum(gr * math.comb(k, r) / count for r, gr, count in zip(ORDERS, g, SUBSETS_PER_ORDER))
        terms.append(p_k * (score - mean) ** 2)
    return max(math.fsum(terms), 0.0)


PoissonityResult = namedtuple("PoissonityResult", "statistic dof threshold passed orders_used")
PoissonityResult.__doc__ = "Goodness-of-fit of observed coincidences against the Poisson model."


def poissonity_test(
    summary: CoincidenceSummary,
    mu_hat: float,
    eta: Sequence[float],
    min_expected: float = 5.0,
) -> PoissonityResult:
    """Chi-square test of the observed order probabilities against the model.

    Orders with fewer than ``min_expected`` expected events are dropped;
    one degree of freedom is charged for the fitted mu.  Passes when the
    statistic stays below the chi-square distribution's 99th percentile.
    """
    model = poisson_coincidence_model(_check_mu(mu_hat), validate_efficiencies(eta))
    n = summary.total_pulses
    used = []
    terms = []
    for r, observed, expected in zip(ORDERS, summary.order_probs, model):
        if n * expected < min_expected:
            continue
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        terms.append(((observed - expected) / sigma) ** 2)
        used.append(r)
    if len(used) < 2:
        raise InsufficientDataError(
            "insufficient data: fewer than two coincidence orders carry enough counts"
        )
    statistic = math.fsum(terms)
    dof = len(used) - 1
    threshold = chi_square_quantile(_POISSONITY_PERCENTILE, dof)
    return PoissonityResult(
        statistic=statistic,
        dof=dof,
        threshold=threshold,
        passed=statistic < threshold,
        orders_used=tuple(used),
    )


SweepPoint = namedtuple("SweepPoint", "mu_true mu_method1 mu_method2 delta_mu residual pulses seed delta_I")
SweepPoint.__doc__ = "One grid point of the method-comparison sweep (deltas = rigorous - single), in CSV column order."


def point_seed(seed: int, index: int) -> int:
    """Deterministic per-point sub-seed; independent of worker partitioning."""
    import numpy as np

    return int(np.random.SeedSequence([_check_seed(seed), index]).generate_state(1, np.uint64)[0])


def method_difference_sweep(
    mu_grid: Sequence[float],
    efficiency_set: EfficiencySet,
    pulses_per_point: int,
    seed: int,
    detector: int = 1,
) -> list[SweepPoint]:
    """Simulate each grid point and compare the two estimators.

    Method 1 reads the clicks per trigger of one configured detector (the
    repetition rate cancels out of N / (rate * eta)); method 2 inverts the
    full coincidence model.  Points use deterministic sub-seeds, so the
    sweep may be parallelized without changing results.
    """
    from .leakage import leakage_difference
    from .simulator import SimConfig, SourceModel, simulate_pulses

    grid = [float(m) for m in mu_grid]
    if not grid or any(not 0.0 < m <= 2.0 for m in grid):
        raise ValueError("mu grid values must lie in (0, 2]")
    eta = efficiency_set.eta
    rows = []
    for index, mu in enumerate(grid):
        sub_seed = point_seed(seed, index)
        cfg = SimConfig(n_pulses=pulses_per_point, seed=sub_seed, efficiency_set=efficiency_set)
        source = SourceModel(label="sweep", mu=mu)
        summary = observed_coincidences(simulate_pulses(source, cfg))
        single = estimate_mu_single(summary.subset_probs[frozenset({detector})], 1.0, eta[detector - 1])
        rigorous = estimate_mu_rigorous(summary, eta)
        rows.append(
            SweepPoint(
                mu_true=mu,
                mu_method1=single.mu_hat,
                mu_method2=rigorous.mu_hat,
                delta_mu=rigorous.mu_hat - single.mu_hat,
                residual=rigorous.residual,
                pulses=pulses_per_point,
                seed=sub_seed,
                delta_I=leakage_difference(rigorous.mu_hat, single.mu_hat),
            )
        )
    return rows


def write_sweep_csv(path: str | Path, rows: Sequence[SweepPoint]) -> None:
    """Sweep results as CSV, one row per grid point."""
    lines = [",".join(SweepPoint._fields)]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")
