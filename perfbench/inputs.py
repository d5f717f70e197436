"""Seeded inputs and ground truth for the benchmark, computed without wcpstats.

Everything here follows from the physics alone.  A Poisson pulse of mean mu
split over four passive arms puts independent Poisson(mu * eta_i) photon
numbers on the detectors, so detector i clicks independently with
probability 1 - exp(-mu * eta_i) and a click pattern has the product-form law

    P(pattern) = prod_i [clicked_i ? 1 - exp(-mu eta_i) : exp(-mu eta_i)].

Noisy inputs are one multinomial draw from that law; noise-free inputs are
the law itself.  The true photon-number probabilities are Poisson terms.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import combinations

import numpy as np

N_DETECTORS = 4
REP_RATE_HZ = 1.25e6
REP_PERIOD_PS = 800_000

MIN_EXPECTED = 5.0  # expected counts an order needs to enter the Poissonity test
N_SIGMA = 5.0  # noisy estimates must land within this many standard errors of mu
NOISE_FREE_RTOL = 1e-6  # noise-free estimates must match mu to this relative error
# Rounding slack of the noise-free sandwich check.  At mu <= 1e-3 the p_0
# interval is about one ulp wide and the formulas round past the truth by
# one ulp, so the check allows a few.
SANDWICH_ULPS = 4

# Default detection tree: (transmittance, reflectance) of the root, the
# transmitted-arm and the reflected-arm splitters, and the detector efficiency.
SPLITTERS = ((0.494, 0.453), (0.474, 0.446), (0.461, 0.456))
DETECTOR_QE = 0.65

# Bit i-1 of a pattern index is set when detector i clicked.
PATTERN_BITS = (np.arange(1 << N_DETECTORS)[:, None] >> np.arange(N_DETECTORS)) & 1


def default_branching() -> tuple[float, float, float, float]:
    (root_t, root_r), (arm_t, arm_r), (refl_t, refl_r) = SPLITTERS
    return (root_t * arm_t, root_t * arm_r, root_r * refl_t, root_r * refl_r)


def default_eta() -> tuple[float, float, float, float]:
    return tuple(DETECTOR_QE * b for b in default_branching())


def tag(name: str) -> int:
    """Stable integer key separating the random streams of different workloads."""
    return zlib.crc32(name.encode())


def seed_for(run_seed: int, *keys: int) -> int:
    """64-bit sub-seed derived from the run seed and an item key."""
    return int(np.random.SeedSequence([run_seed, *keys]).generate_state(1, np.uint64)[0])


def rng_for(run_seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([run_seed, *keys]))


def pattern_probabilities(mu: float, eta) -> np.ndarray:
    """Product-form probabilities of the 16 click patterns."""
    x = mu * np.asarray(eta, dtype=np.float64)
    return np.prod(np.where(PATTERN_BITS == 1, -np.expm1(-x), np.exp(-x)), axis=1)


def draw_pattern_counts(rng: np.random.Generator, mu: float, eta, n_pulses: int) -> np.ndarray:
    """Pattern histogram of ``n_pulses`` pulses: one multinomial draw."""
    return rng.multinomial(n_pulses, pattern_probabilities(mu, eta))


def subset_probabilities(mu: float, eta) -> dict[frozenset[int], float]:
    """Exact c_W = prod_{i in W} (1 - exp(-mu eta_i)) for every nonempty subset W."""
    marginal = [-math.expm1(-mu * e) for e in eta]
    return {
        frozenset(w): math.prod(marginal[i - 1] for i in w)
        for r in range(1, N_DETECTORS + 1)
        for w in combinations(range(1, N_DETECTORS + 1), r)
    }


def order_probabilities(subset_probs: dict[frozenset[int], float]) -> tuple[float, ...]:
    return tuple(
        math.fsum(p for w, p in subset_probs.items() if len(w) == r) / math.comb(N_DETECTORS, r)
        for r in range(1, N_DETECTORS + 1)
    )


def poisson_pn(mu: float) -> tuple[float, float, float, float, float]:
    """True p_0..p_3 and p_{>=4} of a Poisson source; the tail is summed as a series."""
    head = [math.exp(-mu) * mu**n / math.factorial(n) for n in range(4)]
    term, tail, n = head[3], 0.0, 3
    while True:
        n += 1
        term *= mu / n
        tail += term
        if term <= tail * 1e-17:
            return (*head, tail)


@dataclass(frozen=True)
class Truth:
    """What a correct analysis of one input must reproduce."""

    mu: float
    eta: tuple[float, float, float, float]
    n_pulses: int
    noise_free: bool = False
    poisson: bool = True
    # Variance of the realised mean intensity of a fluctuating source.
    extra_var: float = 0.0

    def orders(self) -> tuple[float, ...]:
        return order_probabilities(subset_probabilities(self.mu, self.eta))

    def mu_standard_error(self) -> float:
        """Delta-method standard error of mu from c_1 and N."""
        c1 = math.fsum(-math.expm1(-self.mu * e) for e in self.eta) / N_DETECTORS
        slope = math.fsum(e * math.exp(-self.mu * e) for e in self.eta) / N_DETECTORS
        return math.sqrt(c1 * (1.0 - c1) / self.n_pulses / slope**2 + self.extra_var)

    def mu_ok(self, mu_hat: float) -> bool:
        if self.noise_free:
            return abs(mu_hat - self.mu) <= NOISE_FREE_RTOL * self.mu
        return abs(mu_hat - self.mu) <= N_SIGMA * self.mu_standard_error()

    def poissonity_insufficient(self) -> bool:
        """True when fewer than two orders carry MIN_EXPECTED expected counts."""
        return sum(self.n_pulses * c >= MIN_EXPECTED for c in self.orders()) < 2

    def poissonity_borderline(self) -> bool:
        """True when noise could flip the Poissonity test's data-sufficiency decision.

        Order probabilities fall with the order, so the decision rests on
        orders 1 and 2 alone.
        """
        return any(
            MIN_EXPECTED / 2 <= self.n_pulses * c <= MIN_EXPECTED * 2 for c in self.orders()[:2]
        )

    def sandwiched(self, lower, upper) -> bool:
        """True when every true p_n lies inside its interval, up to SANDWICH_ULPS."""
        for lo, p, hi in zip(lower, poisson_pn(self.mu), upper):
            slack = SANDWICH_ULPS * math.ulp(max(abs(lo), abs(hi), p))
            if not lo - slack <= p <= hi + slack:
                return False
        return True
