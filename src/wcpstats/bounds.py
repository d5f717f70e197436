"""Rigorous photon-number-probability bounds from four-detector coincidences.

Observed order-averaged coincidences, normalized so they stay O(1) as the
efficiency goes to zero, sandwich the true photon-number probabilities
p_0..p_3 and the tail mass p_{>=4}.  Each order is normalized by the
r-fold coincidence an exactly-r-photon pulse would produce,

    c_tilde_r = c_obs,r / c_{r,r},      c_{r,r} = r! * s_r,

which reduces to c_obs,r / (r! * eta_bar**r) for uniform efficiencies.
Non-uniform efficiencies enter through the shape factors

    s_j = sum over |W| = j of prod_{i in W} eta_i / C(4, j)
    xi_{i,j} = s_i / (s_j * eta_bar**(i-j)) - 1

where s_j is ``optics.subset_product_means`` of the efficiencies, as the
Poisson model's c_r is of the click marginals, and s_1 is the mean
efficiency eta_bar itself, the unique extension consistent with the
uniform case (all xi vanish when the four efficiencies are equal; so
does the distinction between the two normalizations).  With this
normalization the lower tail bound collapses to the exact statement
p_{>=4} >= c_obs,4: a four-fold coincidence needs at least four photons.
The ten bound formulas below are evaluated exactly as written, without
clipping; a separate clipped view intersects the raw intervals with
[0, 1] for reporting, since sampling noise can push raw bounds slightly
outside.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .coincidence import ORDERS, CoincidenceSummary
from .fileio import write_json_atomic
from .optics import N_DETECTORS, subset_product_means, validate_efficiencies

TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path
    from typing import Sequence

BOUND_LABELS = ("0", "1", "2", "3", "ge4")
_XI_INDICES = tuple((i, j) for i in range(2, N_DETECTORS + 1) for j in range(1, i))


ShapeFactors = namedtuple("ShapeFactors", "s xi")
ShapeFactors.__doc__ = """Subset-product moments of the efficiency vector and their xi ratios.

``s[j-1]`` holds s_j for j = 1..4 (s_1 is the mean efficiency) and
``xi[(i, j)]`` holds xi_{i,j} for i = 2..4, j = 1..i-1.
"""


def shape_factors(eta: Sequence[float]) -> ShapeFactors:
    """Shape factors of a 4-vector of efficiencies whose product s_4 is a positive normal float.

    Every s_r is at least s_4, so the rule also refuses a zero efficiency and
    keeps each 1 / (r! * s_r) of the normalization finite.
    """
    eta = validate_efficiencies(eta)
    s = subset_product_means(eta)
    if not s[3] >= sys.float_info.min:
        raise ValueError(f"shape factors need s_4 = prod(eta) to be a positive normal float, got {s[3]!r}")
    eta_bar = s[0]
    if len(set(eta)) == 1:
        # Equal efficiencies make every xi vanish identically.
        xi = dict.fromkeys(_XI_INDICES, 0.0)
    else:
        xi = {(i, j): s[i - 1] / (s[j - 1] * eta_bar ** (i - j)) - 1.0 for i, j in _XI_INDICES}
    return ShapeFactors(s=s, xi=xi)


def normalized_coincidences(
    summary: CoincidenceSummary, factors: ShapeFactors
) -> tuple[float, float, float, float]:
    """Order-averaged coincidences scaled by 1 / (r! * s_r).

    For uniform efficiencies the scale equals 1 / (r! * eta_bar**r).
    """
    return tuple(
        c / (math.factorial(r) * s) for r, c, s in zip(ORDERS, summary.order_probs, factors.s)
    )


class PhotonNumberBounds(namedtuple("PhotonNumberBounds", "lower upper")):
    """Lower/upper limits on p_0..p_3 and the >=4 tail, in that order."""

    __slots__ = ()

    def clipped(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Raw intervals intersected with [0, 1] for reporting."""
        lo = tuple(min(1.0, max(0.0, x)) for x in self.lower)
        hi = tuple(min(1.0, max(0.0, x)) for x in self.upper)
        return lo, hi

    def widths(self) -> tuple[float, float, float, float, float]:
        return tuple(u - l for l, u in zip(self.lower, self.upper))

    def to_report_entries(self) -> list[dict]:
        clipped_lo, clipped_hi = self.clipped()
        return [
            {
                "n": label,
                "lower": self.lower[k],
                "upper": self.upper[k],
                "clipped_lower": clipped_lo[k],
                "clipped_upper": clipped_hi[k],
            }
            for k, label in enumerate(BOUND_LABELS)
        ]


def evaluate_bounds(c_tilde: Sequence[float], factors: ShapeFactors) -> PhotonNumberBounds:
    """The ten explicit bound formulas for four detectors, verbatim; eta_bar is s_1 of ``factors``."""
    if len(c_tilde) != 4:
        raise ValueError(f"need 4 normalized coincidences, got {len(c_tilde)}")
    c1, c2, c3, c4 = (float(x) for x in c_tilde)
    e = factors.s[0]
    x21 = factors.xi[(2, 1)]
    x31 = factors.xi[(3, 1)]
    x32 = factors.xi[(3, 2)]
    x41 = factors.xi[(4, 1)]
    x42 = factors.xi[(4, 2)]
    x43 = factors.xi[(4, 3)]

    p0_low = (
        1.0
        - c1
        + (1.0 - (1.0 - 3.0 * x21) * e) * c2
        - (1.0 - (3.0 - 3.0 * x32) * e + (2.0 - 12.0 * x32 + 6.0 * x31) * e**2) * c3
        + 4.0
        * (1.0 + x43)
        * e
        * (1.0 - 6.0 * e + (11.0 + 3.0 * x31) * e**2 - 6.0 * (1.0 + x31) * e**3)
        * c4
    )
    p0_high = (
        1.0
        - c1
        + (1.0 - (1.0 - 3.0 * x21) * e) * c2
        - (1.0 - (3.0 - 3.0 * x32) * e + (2.0 - 12.0 * x32 + 6.0 * x31) * e**2) * c3
        + (
            1.0
            - (6.0 - 2.0 * x43) * e
            + (11.0 + 6.0 * x21 - 8.0 * x32 / 3.0 - 12.0 * x43 + 11.0 * x42 / 3.0) * e**2
            - (6.0 + 24.0 * x21 - 32.0 * x32 / 3.0 - 16.0 * x43 + 44.0 * x42 / 3.0 - 6.0 * x41)
            * e**3
        )
        * c4
    )
    p1_low = (
        c1
        - (2.0 - (1.0 - 3.0 * x21) * e) * c2
        + (3.0 - (6.0 - 6.0 * x32) * e + (2.0 - 12.0 * x32 + 6.0 * x31) * e**2) * c3
        - (
            4.0
            - (18.0 - 6.0 * x43) * e
            + (22.0 + 12.0 * x21 - 16.0 * x32 / 3.0 - 24.0 * x43 + 22.0 * x42 / 3.0) * e**2
            - (6.0 + 24.0 * x21 - 32.0 * x32 / 3.0 - 16.0 * x43 + 44.0 * x42 / 3.0 - 6.0 * x41)
            * e**3
        )
        * c4
    )
    p1_high = (
        c1
        - (2.0 - (1.0 - 3.0 * x21) * e) * c2
        + (3.0 - (6.0 - 6.0 * x32) * e + (2.0 - 12.0 * x32 + 6.0 * x31) * e**2) * c3
        - 4.0 * (1.0 + x43) * e * (3.0 - 12.0 * e + (11.0 + 3.0 * x31) * e**2) * c4
    )
    p2_low = (
        c2
        - 3.0 * (1.0 - (1.0 - x32) * e) * c3
        + 12.0 * (1.0 + x43) * e * (1.0 - 2.0 * e) * c4
    )
    p2_high = (
        c2
        - 3.0 * (1.0 - (1.0 - x32) * e) * c3
        + (
            6.0
            - (18.0 - 6.0 * x43) * e
            + (11.0 + 6.0 * x21 - 8.0 * x32 / 3.0 - 12.0 * x43 + 11.0 * x42 / 3.0) * e**2
        )
        * c4
    )
    p3_low = c3 - (4.0 - 2.0 * (3.0 - x43) * e) * c4
    p3_high = c3 - 4.0 * (1.0 + x43) * e * c4
    tail_low = 24.0 * (1.0 + x41) * e**4 * c4
    tail_high = c4

    return PhotonNumberBounds(
        lower=(p0_low, p1_low, p2_low, p3_low, tail_low),
        upper=(p0_high, p1_high, p2_high, p3_high, tail_high),
    )


def photon_number_bounds(summary: CoincidenceSummary, eta: Sequence[float]) -> PhotonNumberBounds:
    """Bounds on p_0..p_3 and p_{>=4} from observed coincidences."""
    factors = shape_factors(eta)
    return evaluate_bounds(normalized_coincidences(summary, factors), factors)


def write_bounds_json(path: str | Path, bounds: PhotonNumberBounds, meta: dict | None = None) -> None:
    payload: dict = {"entries": bounds.to_report_entries()}
    if meta is not None:
        payload["meta"] = meta
    write_json_atomic(path, payload)
