"""Photon-number statistics characterization for weak coherent pulse sources.

The toolkit simulates and analyzes runs of a four-detector coincidence
bench: Poisson photon statistics, detection-tree efficiencies, coincidence
counting, single- and four-detector mean-photon-number estimation, rigorous
photon-number-probability bounds, and information-leakage estimates from
multi-photon pulses and from inter-source intensity-fluctuation
distinguishability.
"""

__version__ = "0.1.0"

from importlib import import_module

# Each public name, by the module that defines it.  The names load on first
# access (PEP 562), so importing the package or a numpy-free module such as
# ``wcpstats.cli`` does not load numpy.
_EXPORTS = {
    "bounds": (
        "PhotonNumberBounds", "ShapeFactors", "evaluate_bounds", "normalized_coincidences",
        "photon_number_bounds", "shape_factors",
    ),
    "coincidence": (
        "CoincidenceSummary", "PatternHistogram", "conditional_coincidence", "model_summary",
        "observed_coincidences", "patterns_from_timestamps", "poisson_coincidence_model",
    ),
    "config": ("FluctuationModel", "SourceModel"),
    "estimation": (
        "MuEstimate", "estimate_mu_rigorous", "estimate_mu_single", "method_difference_sweep",
        "poissonity_test",
    ),
    "leakage": (
        "FluctuationFit", "SourceDistribution", "cross_correlation", "fit_fluctuation",
        "info_leakage", "leakage_difference", "pairwise_leakage", "pairwise_reports",
        "source_distribution_at",
    ),
    "optics": ("BeamSplitter", "DetectionTree", "EfficiencySet", "branching_efficiencies"),
    "simulator": (
        "SimConfig", "simulate_count_series", "simulate_patterns", "simulate_pulses", "simulate_timestamps",
    ),
    "stats": ("ConvergenceError", "InsufficientDataError", "coherent_fock_probability", "poisson_pmf"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups are plain dict hits
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
