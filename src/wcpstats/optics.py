"""Detection geometry: beam-splitter tree and per-detector efficiencies.

The characterization setup splits the incoming pulse over a small tree of
beam splitters whose four leaf arms are coupled to threshold detectors.
Splitting ratios are intensity fractions (measured transmittance T^2 and
reflectance R^2); anything missing from T^2 + R^2 is loss and is modeled
as photon disappearance.  Photons are routed classically, which is exact
for the counting statistics of coherent pulses on non-interfering paths.
"""

from __future__ import annotations

import math

from .fileio import json_float

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence

N_DETECTORS = 4
SUBSETS_PER_ORDER = tuple(float(math.comb(N_DETECTORS, r)) for r in range(1, N_DETECTORS + 1))

_SUM_TOL = 1e-12


def subset_product_means(values):
    """(m_1..m_4), m_r = e_r(values) / C(4, r): the mean over size-r detector subsets of their product.

    The elementary symmetric e_r grow one value at a time as e_r += e_{r-1} * value,
    adding only positive terms; the four steps are written out.  Works on any
    values with + and *, such as floats or complex numbers.
    """
    a, b, c, d = values
    e1, e2 = a + b, a * b
    e1, e2, e3 = e1 + c, e2 + e1 * c, e2 * c
    n1, n2, n3, n4 = SUBSETS_PER_ORDER
    return ((e1 + d) / n1, (e2 + e1 * d) / n2, (e3 + e2 * d) / n3, e3 * d / n4)


class BeamSplitter:
    """One splitter, described by measured intensity fractions.

    transmittance and reflectance are the T^2 / R^2 intensity fractions;
    their sum may fall short of 1, the remainder being loss.
    """

    __slots__ = ("transmittance", "reflectance")

    def __init__(self, transmittance: float, reflectance: float) -> None:
        for name, value in (("transmittance", transmittance), ("reflectance", reflectance)):
            if not (math.isfinite(value) and 0.0 <= value):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if transmittance + reflectance > 1.0 + _SUM_TOL:
            raise ValueError(
                f"transmittance + reflectance = "
                f"{transmittance + reflectance!r} exceeds 1"
            )
        self.transmittance = transmittance
        self.reflectance = reflectance


class DetectionTree:
    """Three-splitter tree feeding four detectors.

    The root splitter feeds two secondary splitters: ``transmitted`` sits on
    the root's transmitted arm and ``reflected`` on its reflected arm.  The
    four leaves, in the fixed order (T,T), (T,R), (R,T), (R,R), are bound to
    detector indices through ``detector_order`` (a permutation of 1..4).
    """

    __slots__ = ("root", "transmitted", "reflected", "detector_order")

    def __init__(
        self, root: BeamSplitter, transmitted: BeamSplitter, reflected: BeamSplitter, detector_order=(1, 2, 3, 4)
    ) -> None:
        if sorted(detector_order) != [1, 2, 3, 4]:
            raise ValueError(
                f"detector_order must be a permutation of 1..4, got {detector_order!r}"
            )
        self.root = root
        self.transmitted = transmitted
        self.reflected = reflected
        self.detector_order = detector_order


def branching_efficiencies(tree: DetectionTree) -> tuple[float, float, float, float]:
    """Probability for a photon entering the tree to reach each detector.

    Each branch probability is the product of the intensity fractions along
    its path.  The result is indexed by detector: element i-1 belongs to
    detector i.
    """
    leaves = (
        tree.root.transmittance * tree.transmitted.transmittance,
        tree.root.transmittance * tree.transmitted.reflectance,
        tree.root.reflectance * tree.reflected.transmittance,
        tree.root.reflectance * tree.reflected.reflectance,
    )
    out = [0.0] * N_DETECTORS
    for value, detector in zip(leaves, tree.detector_order):
        out[detector - 1] = value
    return tuple(out)


def json_coupling(value) -> float | tuple[float, ...]:
    """A JSON coupling efficiency, one number or a list of per-arm numbers; raises TypeError."""
    if isinstance(value, list):
        return tuple(json_float(e, "eta_c entry") for e in value)
    return json_float(value, "eta_c")


def _coupling_vector(eta_c) -> tuple[float, float, float, float]:
    if isinstance(eta_c, (int, float)):
        vec = (float(eta_c),) * N_DETECTORS
    else:
        vec = tuple(float(x) for x in eta_c)
        if len(vec) != N_DETECTORS:
            raise ValueError(f"per-arm coupling needs {N_DETECTORS} values, got {len(vec)}")
    for x in vec:
        if not (math.isfinite(x) and 0.0 <= x <= 1.0):
            raise ValueError(f"coupling efficiency out of [0, 1]: {x!r}")
    return vec


class EfficiencySet:
    """Per-detector efficiencies decomposed into branching x coupling x detector.

    ``eta_c`` may be a single scalar applied to every arm or a 4-vector for
    asymmetric coupling.  The overall efficiency per detector,
    ``eta`` = eta_b,i * eta_c,i * eta_d, is derived once from the factors when
    the set is built.
    """

    __slots__ = ("eta_b", "eta_c", "eta_d", "eta")

    def __init__(self, eta_b: Sequence[float], eta_c: float | Sequence[float] = 1.0, eta_d: float = 1.0) -> None:
        if len(eta_b) != N_DETECTORS:
            raise ValueError(f"expected {N_DETECTORS} efficiencies, got {len(eta_b)}")
        eta_b = tuple(float(x) for x in eta_b)
        for x in eta_b:
            if not (math.isfinite(x) and 0.0 <= x <= 1.0):
                raise ValueError(f"branching efficiency out of [0, 1]: {x!r}")
        coupling = _coupling_vector(eta_c)
        if not (math.isfinite(eta_d) and 0.0 <= eta_d <= 1.0):
            raise ValueError(f"detector efficiency out of [0, 1]: {eta_d!r}")
        self.eta_b = eta_b
        self.eta_c = eta_c
        self.eta_d = eta_d
        self.eta = validate_efficiencies(tuple(b * c * eta_d for b, c in zip(eta_b, coupling)))

    @property
    def eta_bar(self) -> float:
        """Arithmetic mean of the four overall efficiencies, s_1 of the shape factors."""
        return subset_product_means(self.eta)[0]

    @classmethod
    def from_overall(cls, eta: Sequence[float]) -> "EfficiencySet":
        """Wrap already-combined overall efficiencies."""
        return cls(eta_b=tuple(float(x) for x in eta), eta_c=1.0, eta_d=1.0)


def validate_efficiencies(eta: Sequence[float]) -> tuple[float, float, float, float]:
    """Check a raw 4-vector of overall efficiencies and return it as a tuple.

    The one rule for an overall vector: :class:`EfficiencySet` applies it to
    its products, and every analysis routine to the efficiencies it is given.
    """
    if isinstance(eta, EfficiencySet):
        return eta.eta
    vec = tuple(float(x) for x in eta)
    if len(vec) != N_DETECTORS:
        raise ValueError(f"expected {N_DETECTORS} efficiencies, got {len(vec)}")
    for x in vec:
        if not (math.isfinite(x) and 0.0 <= x <= 1.0):
            raise ValueError(f"efficiency out of [0, 1]: {x!r}")
    if sum(vec) > 1.0 + _SUM_TOL:
        raise ValueError(f"efficiencies sum to {sum(vec)!r} > 1")
    return vec
