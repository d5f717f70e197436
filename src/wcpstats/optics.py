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
from dataclasses import dataclass
from typing import Sequence

N_DETECTORS = 4

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class BeamSplitter:
    """One splitter, described by measured intensity fractions.

    transmittance and reflectance are the T^2 / R^2 intensity fractions;
    their sum may fall short of 1, the remainder being loss.
    """

    transmittance: float
    reflectance: float

    def __post_init__(self) -> None:
        for name in ("transmittance", "reflectance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.transmittance + self.reflectance > 1.0 + _SUM_TOL:
            raise ValueError(
                f"transmittance + reflectance = "
                f"{self.transmittance + self.reflectance!r} exceeds 1"
            )


@dataclass(frozen=True)
class DetectionTree:
    """Three-splitter tree feeding four detectors.

    The root splitter feeds two secondary splitters: ``transmitted`` sits on
    the root's transmitted arm and ``reflected`` on its reflected arm.  The
    four leaves, in the fixed order (T,T), (T,R), (R,T), (R,R), are bound to
    detector indices through ``detector_order`` (a permutation of 1..4).
    """

    root: BeamSplitter
    transmitted: BeamSplitter
    reflected: BeamSplitter
    detector_order: tuple[int, int, int, int] = (1, 2, 3, 4)

    def __post_init__(self) -> None:
        if sorted(self.detector_order) != [1, 2, 3, 4]:
            raise ValueError(
                f"detector_order must be a permutation of 1..4, got {self.detector_order!r}"
            )


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


@dataclass(frozen=True)
class EfficiencySet:
    """Per-detector efficiencies decomposed into branching x coupling x detector.

    ``eta_c`` may be a single scalar applied to every arm or a 4-vector for
    asymmetric coupling.  The overall efficiencies and their average are
    derived, never stored, so they cannot drift out of sync with the factors.
    """

    eta_b: tuple[float, float, float, float]
    eta_c: float | tuple[float, float, float, float] = 1.0
    eta_d: float = 1.0

    def __post_init__(self) -> None:
        if len(self.eta_b) != N_DETECTORS:
            raise ValueError(f"eta_b needs {N_DETECTORS} entries, got {len(self.eta_b)}")
        object.__setattr__(self, "eta_b", tuple(float(x) for x in self.eta_b))
        for x in self.eta_b:
            if not (math.isfinite(x) and 0.0 <= x <= 1.0):
                raise ValueError(f"branching efficiency out of [0, 1]: {x!r}")
        _coupling_vector(self.eta_c)
        if not (math.isfinite(self.eta_d) and 0.0 <= self.eta_d <= 1.0):
            raise ValueError(f"detector efficiency out of [0, 1]: {self.eta_d!r}")
        if sum(self.eta) > 1.0 + _SUM_TOL:
            raise ValueError(
                "overall efficiencies sum above 1; a photon can reach at most one detector"
            )

    @property
    def coupling(self) -> tuple[float, float, float, float]:
        return _coupling_vector(self.eta_c)

    @property
    def eta(self) -> tuple[float, float, float, float]:
        """Overall efficiency per detector: eta_b,i * eta_c,i * eta_d."""
        c = self.coupling
        return tuple(self.eta_b[i] * c[i] * self.eta_d for i in range(N_DETECTORS))

    @property
    def eta_bar(self) -> float:
        """Arithmetic mean of the four overall efficiencies."""
        return math.fsum(self.eta) / N_DETECTORS

    @classmethod
    def from_overall(cls, eta: Sequence[float]) -> "EfficiencySet":
        """Wrap already-combined overall efficiencies."""
        return cls(eta_b=tuple(float(x) for x in eta), eta_c=1.0, eta_d=1.0)

    def to_dict(self) -> dict:
        eta_c = self.eta_c if isinstance(self.eta_c, (int, float)) else list(self.eta_c)
        return {
            "eta_b": list(self.eta_b),
            "eta_c": eta_c,
            "eta_d": self.eta_d,
            "eta": list(self.eta),
            "eta_bar": self.eta_bar,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EfficiencySet":
        if not isinstance(data, dict):
            raise ValueError(f"efficiency data must be a JSON object, got {data!r}")
        try:
            if "eta_b" in data:
                eta_c = data.get("eta_c", 1.0)
                if isinstance(eta_c, list):
                    eta_c = tuple(eta_c)
                return cls(eta_b=tuple(data["eta_b"]), eta_c=eta_c, eta_d=data.get("eta_d", 1.0))
            if "eta" in data:
                return cls.from_overall(data["eta"])
        except TypeError as exc:
            raise ValueError(f"malformed efficiency data: {exc}") from None
        raise ValueError("efficiency data must provide either 'eta_b' or 'eta'")


def validate_efficiencies(eta: Sequence[float]) -> tuple[float, float, float, float]:
    """Check a raw 4-vector of overall efficiencies and return it as a tuple.

    Used by every analysis routine that takes efficiencies directly instead
    of an :class:`EfficiencySet`.
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
