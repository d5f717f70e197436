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
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .coincidence import ORDERS, CoincidenceSummary, observed_coincidences, poisson_coincidence_model
from .fileio import write_text_atomic
from .leakage import leakage_difference
from .optics import EfficiencySet, validate_efficiencies
from .stats import ConvergenceError, InsufficientDataError, chi_square_quantile

# Points of the coarse geometric scan and of each zoom; a zoom narrows
# the bracket by a factor (_ZOOM_POINTS - 1) / 2.
_SCAN_POINTS = 256
_ZOOM_POINTS = 129

METHOD_SINGLE = "single"
METHOD_RIGOROUS = "rigorous"


@dataclass(frozen=True)
class MuEstimate:
    """An estimated mean photon number and how it was obtained."""

    mu_hat: float
    method: str
    residual: float = 0.0
    fit_orders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.mu_hat < 0.0 or not math.isfinite(self.mu_hat):
            raise ValueError(f"mu_hat must be finite and >= 0, got {self.mu_hat!r}")
        if self.residual < 0.0:
            raise ValueError(f"residual must be >= 0, got {self.residual!r}")
        if self.method not in (METHOD_SINGLE, METHOD_RIGOROUS):
            raise ValueError(f"unknown method {self.method!r}")


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
    return MuEstimate(mu_hat=counts_per_second / (rep_rate * eta_overall), method=METHOD_SINGLE)


def intensity_from_counts(counts, n_pulses: int, eta_overall: float):
    """Per-cycle intensity estimates from raw click counts (single-detector rule)."""
    if n_pulses <= 0:
        raise ValueError(f"n_pulses must be > 0, got {n_pulses}")
    if not 0.0 < eta_overall <= 1.0:
        raise ValueError(f"eta_overall must be in (0, 1], got {eta_overall!r}")
    counts = np.asarray(counts, dtype=np.float64)
    impossible = counts[~((counts >= 0) & (counts <= n_pulses))]
    if impossible.size:
        raise ValueError(f"click counts must lie in 0..{n_pulses}, got {impossible[0]:.17g}")
    return counts / (n_pulses * eta_overall)


def estimate_mu_rigorous(
    summary: CoincidenceSummary,
    eta: Sequence[float],
    mu_max: float = 10.0,
    tol: float = 1e-10,
    max_iter: int = 200,
    orders: tuple[int, ...] = ORDERS,
) -> MuEstimate:
    """Invert the four-detector coincidence model for mu.

    Minimizes sum_r w_r (c_obs,r - model_r(mu))^2 over mu in (0, mu_max]
    with inverse-variance weights w_r = 1 / max(var_r, 1/N^2), var_r being
    the binomial variance estimate of the observed probability.  A coarse
    geometric scan brackets the minimum; each zoom then rescans the bracket
    on a linear grid and keeps the two cells around the smallest value,
    until the bracket is narrower than ``tol``.  ``max_iter`` caps the
    number of zooms.
    """
    eta = validate_efficiencies(eta)
    if not orders or any(r not in ORDERS for r in orders):
        raise ValueError(f"orders must be a nonempty subset of {ORDERS}, got {orders!r}")
    c_obs = np.array([summary.order_probability(r) for r in orders])
    if not np.any(c_obs):
        raise InsufficientDataError(
            "insufficient data: no clicks in any coincidence order"
        )
    n = summary.total_pulses
    weights = 1.0 / np.maximum(c_obs * (1.0 - c_obs) / n, 1.0 / (n * n))
    columns = [r - 1 for r in orders]

    def objective(mu):
        """Weighted squared misfit, elementwise over an array of mu."""
        model = np.asarray(poisson_coincidence_model(mu, eta))[..., columns]
        return np.sum(weights * (c_obs - model) ** 2, axis=-1)

    def bracket(grid):
        """The two cells of ``grid`` around its smallest objective value."""
        best = int(np.argmin(objective(grid)))
        return float(grid[max(best - 1, 0)]), float(grid[min(best + 1, grid.size - 1)])

    a, b = bracket(np.geomspace(1e-6, mu_max, _SCAN_POINTS))
    zooms = 0
    while b - a > tol and zooms < max_iter:
        a, b = bracket(np.linspace(a, b, _ZOOM_POINTS))
        zooms += 1

    mu_hat = 0.5 * (a + b)
    model = poisson_coincidence_model(mu_hat, eta)
    residual = math.sqrt(
        math.fsum((c - model[r - 1]) ** 2 for c, r in zip(c_obs, orders)) / len(orders)
    )
    estimate = MuEstimate(
        mu_hat=mu_hat, method=METHOD_RIGOROUS, residual=residual, fit_orders=tuple(orders)
    )
    if b - a > tol:
        raise ConvergenceError(
            f"search did not reach |d mu| < {tol} within {max_iter} zooms",
            best=estimate,
        )
    return estimate


@dataclass(frozen=True)
class PoissonityResult:
    """Goodness-of-fit of observed coincidences against the Poisson model."""

    statistic: float
    dof: int
    threshold: float
    passed: bool
    orders_used: tuple[int, ...]


def poissonity_test(
    summary: CoincidenceSummary,
    mu_hat: float,
    eta: Sequence[float],
    percentile: float = 0.99,
    min_expected: float = 5.0,
) -> PoissonityResult:
    """Chi-square test of the observed order probabilities against the model.

    Orders with fewer than ``min_expected`` expected events are dropped;
    one degree of freedom is charged for the fitted mu.  Passes when the
    statistic stays below the requested chi-square percentile.
    """
    model = poisson_coincidence_model(mu_hat, eta)
    n = summary.total_pulses
    used = []
    terms = []
    for r in ORDERS:
        expected = model[r - 1]
        if n * expected < min_expected:
            continue
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        terms.append(((summary.order_probability(r) - expected) / sigma) ** 2)
        used.append(r)
    if len(used) < 2:
        raise InsufficientDataError(
            "insufficient data: fewer than two coincidence orders carry enough counts"
        )
    statistic = math.fsum(terms)
    dof = len(used) - 1
    threshold = chi_square_quantile(percentile, dof)
    return PoissonityResult(
        statistic=statistic,
        dof=dof,
        threshold=threshold,
        passed=statistic < threshold,
        orders_used=tuple(used),
    )


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of the method-comparison sweep (deltas = rigorous - single)."""

    mu_true: float
    mu_method1: float
    mu_method2: float
    delta_mu: float
    residual: float
    pulses: int
    seed: int
    delta_I: float


def point_seed(seed: int, index: int) -> int:
    """Deterministic per-point sub-seed; independent of worker partitioning."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


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


_SWEEP_COLUMNS = ("mu_true", "mu_method1", "mu_method2", "delta_mu", "residual", "pulses", "seed", "delta_I")


def write_sweep_csv(path: str | Path, rows: Sequence[SweepPoint]) -> None:
    """Sweep results as CSV, one row per grid point."""
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        values = (getattr(row, column) for column in _SWEEP_COLUMNS)
        lines.append(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in values))
    write_text_atomic(path, "\n".join(lines) + "\n")
