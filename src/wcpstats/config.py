"""Default run configuration: measured geometry and source settings.

The defaults mirror the reference characterization bench: a 1.25 MHz
trigger, detectors with 65% quantum efficiency, and the measured
transmittance/reflectance of the three splitters in the detection tree.
Coupling efficiency is not separately calibrated and defaults to 1, which
folds any coupling loss into the detector factor a user supplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fileio import read_json
from .optics import BeamSplitter, DetectionTree, EfficiencySet, branching_efficiencies
from .simulator import SOURCE_LABELS, FluctuationModel, SourceModel

DEFAULT_REP_RATE_HZ = 1.25e6
DEFAULT_DETECTOR_EFFICIENCY = 0.65
DEFAULT_COUPLING = 1.0

# Measured intensity fractions (transmitted, reflected) of the tree splitters.
DEFAULT_SPLITTERS = {
    "root": (0.494, 0.453),
    "transmitted": (0.474, 0.446),
    "reflected": (0.461, 0.456),
}


def default_tree() -> DetectionTree:
    return DetectionTree(
        root=BeamSplitter(*DEFAULT_SPLITTERS["root"]),
        transmitted=BeamSplitter(*DEFAULT_SPLITTERS["transmitted"]),
        reflected=BeamSplitter(*DEFAULT_SPLITTERS["reflected"]),
    )


def default_efficiency_set(
    eta_c: float | tuple[float, float, float, float] = DEFAULT_COUPLING,
    eta_d: float = DEFAULT_DETECTOR_EFFICIENCY,
) -> EfficiencySet:
    return EfficiencySet(
        eta_b=branching_efficiencies(default_tree()), eta_c=eta_c, eta_d=eta_d
    )


# Scalar RunConfig fields read from a config file, with their types.
_SCALAR_FIELDS = {"eta_d": float, "rep_rate_hz": float, "pulses": int, "seed": int}


def _tree_from_dict(data: dict) -> DetectionTree:
    def splitter(key: str) -> BeamSplitter:
        entry = data[key]
        if isinstance(entry, dict):
            return BeamSplitter(entry["transmittance"], entry["reflectance"])
        return BeamSplitter(*entry)

    order = tuple(data.get("detector_order", (1, 2, 3, 4)))
    return DetectionTree(
        root=splitter("root"),
        transmitted=splitter("transmitted"),
        reflected=splitter("reflected"),
        detector_order=order,
    )


@dataclass
class RunConfig:
    """Validated bundle of geometry, efficiencies and source models.

    Construction runs every module-level validator, so a bad configuration
    fails before any simulation or analysis starts.
    """

    tree: DetectionTree = field(default_factory=default_tree)
    eta_c: float | tuple[float, float, float, float] = DEFAULT_COUPLING
    eta_d: float = DEFAULT_DETECTOR_EFFICIENCY
    rep_rate_hz: float = DEFAULT_REP_RATE_HZ
    sources: dict[str, SourceModel] = field(default_factory=dict)
    pulses: int = 1_000_000
    seed: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rep_rate_hz) and self.rep_rate_hz > 0):
            raise ValueError(f"rep_rate_hz must be > 0, got {self.rep_rate_hz!r}")
        if self.pulses <= 0:
            raise ValueError(f"pulses must be > 0, got {self.pulses}")
        self.efficiency_set()  # runs the optics validators

    def efficiency_set(self) -> EfficiencySet:
        return EfficiencySet(
            eta_b=branching_efficiencies(self.tree), eta_c=self.eta_c, eta_d=self.eta_d
        )

    @property
    def rep_period_ps(self) -> int:
        return round(1e12 / self.rep_rate_hz)

    def source(self, label: str) -> SourceModel:
        if label in self.sources:
            return self.sources[label]
        if label in SOURCE_LABELS:
            return SourceModel(label=label, mu=0.5)
        raise ValueError(f"unknown source label {label!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        try:
            kwargs = {key: cast(data[key]) for key, cast in _SCALAR_FIELDS.items() if key in data}
            if "geometry" in data:
                kwargs["tree"] = _tree_from_dict(data["geometry"])
            if "eta_c" in data:
                eta_c = data["eta_c"]
                kwargs["eta_c"] = tuple(eta_c) if isinstance(eta_c, list) else float(eta_c)
            kwargs["sources"] = {
                label: SourceModel(
                    label=label,
                    mu=float(entry["mu"]),
                    fluctuation=FluctuationModel(
                        slope=float(entry.get("fluct_a", 0.0)),
                        intercept=float(entry.get("fluct_b", 0.0)),
                    ),
                    dark_rate=float(entry.get("dark_rate", 0.0)),
                )
                for label, entry in data.get("sources", {}).items()
            }
            return cls(**kwargs)
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed run config: {exc}") from None

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls()
        return cls.from_dict(read_json(path))
