"""Default run configuration: measured geometry and source settings.

The defaults mirror the reference characterization bench: its trigger
rate, detectors with 65% quantum efficiency, and the measured
transmittance/reflectance of the three splitters in the detection tree.
Coupling efficiency is not separately calibrated and defaults to 1, which
folds any coupling loss into the detector factor a user supplies.
"""

from __future__ import annotations

import math

from .fileio import json_float, json_int, json_keys, json_list, json_object, read_json
from .optics import BeamSplitter, DetectionTree, EfficiencySet, branching_efficiencies, json_coupling

DEFAULT_DETECTOR_EFFICIENCY = 0.65
DEFAULT_COUPLING = 1.0
# The trigger rate of the reference bench, the default of every run.
DEFAULT_REP_RATE_HZ = 1.25e6
SOURCE_LABELS = ("S1", "S2", "S3", "S4")

_MAX_DARK_RATE = 0.01

# Measured intensity fractions (transmitted, reflected) of the tree splitters.
DEFAULT_SPLITTERS = {
    "root": (0.494, 0.453),
    "transmitted": (0.474, 0.446),
    "reflected": (0.461, 0.456),
}


class FluctuationModel:
    """Linear intensity-fluctuation model: sigma(mu) = slope * mu + intercept."""

    __slots__ = ("slope", "intercept")

    def __init__(self, slope: float = 0.0, intercept: float = 0.0) -> None:
        for name, value in (("slope", slope), ("intercept", intercept)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        self.slope = slope
        self.intercept = intercept

    def sigma(self, mu: float) -> float:
        return self.slope * mu + self.intercept


class SourceModel:
    """One polarization source: label, nominal mean photon number, noise model."""

    __slots__ = ("label", "mu", "fluctuation", "dark_rate")

    def __init__(
        self, label: str, mu: float, fluctuation: FluctuationModel | None = None, dark_rate: float = 0.0
    ) -> None:
        if not (math.isfinite(mu) and mu > 0.0):
            raise ValueError(f"mu must be > 0, got {mu!r}")
        if not (0.0 <= dark_rate <= _MAX_DARK_RATE):
            raise ValueError(
                f"dark_rate must be in [0, {_MAX_DARK_RATE}], got {dark_rate!r}"
            )
        self.label = label
        self.mu = mu
        self.fluctuation = FluctuationModel() if fluctuation is None else fluctuation
        self.dark_rate = dark_rate


def default_tree() -> DetectionTree:
    return DetectionTree(
        root=BeamSplitter(*DEFAULT_SPLITTERS["root"]),
        transmitted=BeamSplitter(*DEFAULT_SPLITTERS["transmitted"]),
        reflected=BeamSplitter(*DEFAULT_SPLITTERS["reflected"]),
    )


def default_efficiency_set() -> EfficiencySet:
    return _efficiency_set_from_dict({})


def _tree_from_dict(data: dict) -> DetectionTree:
    def splitter(key: str) -> BeamSplitter:
        entry = data[key]
        if isinstance(entry, dict):
            ratios = json_keys(entry, ("transmittance", "reflectance"), f"geometry {key}")
            return BeamSplitter(**{name: json_float(v, f"{key} {name}") for name, v in ratios.items()})
        if not isinstance(entry, list):
            raise TypeError(f"geometry {key} must be a list or an object, got {entry!r}")
        if len(entry) != 2:
            raise TypeError(f"geometry {key} must hold 2 ratios, got {entry!r}")
        return BeamSplitter(*(json_float(v, f"{key} ratio") for v in entry))

    json_keys(data, ("root", "transmitted", "reflected", "detector_order"), "geometry")
    order_list = json_list(data.get("detector_order", [1, 2, 3, 4]), "detector_order")
    order = tuple(json_int(d, "detector_order entry") for d in order_list)
    return DetectionTree(
        root=splitter("root"),
        transmitted=splitter("transmitted"),
        reflected=splitter("reflected"),
        detector_order=order,
    )


def _efficiency_set_from_dict(data: dict) -> EfficiencySet:
    """The overall ``eta`` as given, or the products of ``geometry``, ``eta_c`` and ``eta_d``."""
    if "eta" in data:
        parts = [key for key in ("geometry", "eta_c", "eta_d") if key in data]
        if parts:
            raise TypeError(f"eta states the overall efficiencies and cannot be given with {', '.join(parts)}")
        return EfficiencySet.from_overall([json_float(x, "eta entry") for x in json_list(data["eta"], "eta")])
    tree = _tree_from_dict(data["geometry"]) if "geometry" in data else default_tree()
    return EfficiencySet(
        eta_b=branching_efficiencies(tree),
        eta_c=json_coupling(data.get("eta_c", DEFAULT_COUPLING)),
        eta_d=json_float(data.get("eta_d", DEFAULT_DETECTOR_EFFICIENCY), "eta_d"),
    )


def _source_from_dict(label: str, entry: dict) -> SourceModel:
    json_keys(entry, ("mu", "fluct_a", "fluct_b", "dark_rate"), f"source {label}")
    floats = {key: json_float(entry.get(key, 0.0), key) for key in ("fluct_a", "fluct_b", "dark_rate")}
    fluctuation = FluctuationModel(floats["fluct_a"], floats["fluct_b"])
    return SourceModel(label, json_float(entry["mu"], "mu"), fluctuation, floats["dark_rate"])


class RunConfig:
    """Validated bundle of efficiencies, trigger rate and source models.

    Construction runs every module-level validator, so a bad configuration
    fails before any simulation or analysis starts.  The efficiencies are
    built once, into the one :class:`EfficiencySet` every command reads.
    """

    __slots__ = ("efficiency_set", "rep_rate_hz", "sources", "pulses", "seed")

    def __init__(
        self, efficiency_set: EfficiencySet | None = None, rep_rate_hz: float = DEFAULT_REP_RATE_HZ,
        sources: dict[str, SourceModel] | None = None, pulses: int = 1_000_000, seed: int = 1,
    ) -> None:
        self.efficiency_set = default_efficiency_set() if efficiency_set is None else efficiency_set
        self.rep_rate_hz = rep_rate_hz
        self.sources = {} if sources is None else sources
        self.pulses = pulses
        self.seed = seed
        if not (rep_rate_hz > 0 and math.isfinite(1e12 / rep_rate_hz) and self.rep_period_ps >= 1):
            raise ValueError(
                f"rep_rate_hz must be > 0 with a finite trigger period of at least 1 ps, got {rep_rate_hz!r}"
            )
        # numpy's samplers take a pulse count as an int64.
        if not 0 < pulses < 2**63:
            raise ValueError(f"pulses must be in 1..2**63 - 1, got {pulses}")

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
        json_keys(data, ("eta", "geometry", "eta_c", "eta_d", "rep_rate_hz", "pulses", "seed", "sources"), "config")
        kwargs = {key: json_int(data[key], key) for key in ("pulses", "seed") if key in data}
        if "rep_rate_hz" in data:
            kwargs["rep_rate_hz"] = json_float(data["rep_rate_hz"], "rep_rate_hz")
        kwargs["efficiency_set"] = _efficiency_set_from_dict(data)
        kwargs["sources"] = {
            label: _source_from_dict(label, entry)
            for label, entry in json_object(data.get("sources", {}), "sources").items()
        }
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls()
        return read_json(path, cls.from_dict, "run config")
