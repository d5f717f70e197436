"""Photon-number statistics characterization for weak coherent pulse sources.

The toolkit simulates and analyzes runs of a four-detector coincidence
bench: Poisson photon statistics and attenuation planning, detection-tree
efficiencies, coincidence counting, single- and four-detector mean-photon-
number estimation, rigorous photon-number-probability bounds, and
information-leakage estimates from multi-photon pulses and from
inter-source intensity-fluctuation distinguishability.
"""

__version__ = "0.1.0"

from .bounds import (
    PhotonNumberBounds,
    ShapeFactors,
    evaluate_bounds,
    normalized_coincidences,
    photon_number_bounds,
    shape_factors,
)
from .coincidence import (
    CoincidenceSummary,
    PatternHistogram,
    conditional_coincidence,
    model_summary,
    observed_coincidences,
    patterns_from_timestamps,
    poisson_coincidence_model,
)
from .estimation import (
    ConvergenceError,
    InsufficientDataError,
    MuEstimate,
    estimate_mu_rigorous,
    estimate_mu_single,
    method_difference_sweep,
    poissonity_test,
)
from .leakage import (
    FluctuationFit,
    LeakageReport,
    SourceDistribution,
    cross_correlation,
    fit_fluctuation,
    info_leakage,
    leakage_difference,
    pairwise_leakage,
    pairwise_reports,
    source_distribution_at,
)
from .optics import (
    BeamSplitter,
    DetectionTree,
    EfficiencySet,
    branching_efficiencies,
)
from .simulator import (
    FluctuationModel,
    SimConfig,
    SourceModel,
    simulate_count_series,
    simulate_patterns,
    simulate_pulses,
    simulate_timestamps,
)
from .stats import (
    AttenuationSpec,
    attenuation_for_target,
    coherent_fock_probability,
    desired_mean_photon,
    multi_photon_probability,
    poisson_pmf,
)

__all__ = [
    "AttenuationSpec",
    "BeamSplitter",
    "CoincidenceSummary",
    "ConvergenceError",
    "DetectionTree",
    "EfficiencySet",
    "FluctuationFit",
    "FluctuationModel",
    "InsufficientDataError",
    "LeakageReport",
    "MuEstimate",
    "PatternHistogram",
    "PhotonNumberBounds",
    "ShapeFactors",
    "SimConfig",
    "SourceDistribution",
    "SourceModel",
    "attenuation_for_target",
    "branching_efficiencies",
    "coherent_fock_probability",
    "conditional_coincidence",
    "cross_correlation",
    "desired_mean_photon",
    "estimate_mu_rigorous",
    "estimate_mu_single",
    "evaluate_bounds",
    "fit_fluctuation",
    "info_leakage",
    "leakage_difference",
    "method_difference_sweep",
    "model_summary",
    "multi_photon_probability",
    "normalized_coincidences",
    "observed_coincidences",
    "pairwise_leakage",
    "pairwise_reports",
    "patterns_from_timestamps",
    "photon_number_bounds",
    "poisson_coincidence_model",
    "poisson_pmf",
    "poissonity_test",
    "shape_factors",
    "simulate_count_series",
    "simulate_patterns",
    "simulate_pulses",
    "simulate_timestamps",
    "source_distribution_at",
]
