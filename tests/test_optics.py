"""Tests for the detection-tree geometry and efficiency model."""

import numpy as np
import pytest

from wcpstats.config import default_efficiency_set, default_tree
from wcpstats.optics import (
    BeamSplitter,
    DetectionTree,
    EfficiencySet,
    branching_efficiencies,
    validate_efficiencies,
)


def test_ideal_lossless_tree_splits_evenly():
    ideal = BeamSplitter(0.5, 0.5)
    tree = DetectionTree(root=ideal, transmitted=ideal, reflected=ideal)
    assert branching_efficiencies(tree) == (0.25, 0.25, 0.25, 0.25)


def test_measured_tree_detector_one_branch():
    branches = branching_efficiencies(default_tree())
    assert branches[0] == pytest.approx(0.494 * 0.474, abs=1e-12)
    assert branches[0] == pytest.approx(0.234156, abs=1e-12)


def test_branch_sum_bounded_for_random_trees():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        t = rng.uniform(0.0, 1.0, size=3)
        r = rng.uniform(0.0, 1.0, size=3) * (1.0 - t)
        tree = DetectionTree(
            root=BeamSplitter(t[0], r[0]),
            transmitted=BeamSplitter(t[1], r[1]),
            reflected=BeamSplitter(t[2], r[2]),
        )
        assert sum(branching_efficiencies(tree)) <= 1.0 + 1e-12


def test_splitter_rejects_excess_ratios():
    with pytest.raises(ValueError):
        BeamSplitter(0.6, 0.5)
    with pytest.raises(ValueError):
        BeamSplitter(-0.1, 0.5)


def test_detector_order_must_be_bijection():
    bs = BeamSplitter(0.5, 0.5)
    with pytest.raises(ValueError):
        DetectionTree(root=bs, transmitted=bs, reflected=bs, detector_order=(1, 1, 3, 4))


def test_detector_order_relabels_branches():
    tree = default_tree()
    swapped = DetectionTree(
        root=tree.root,
        transmitted=tree.transmitted,
        reflected=tree.reflected,
        detector_order=(2, 1, 4, 3),
    )
    base = branching_efficiencies(tree)
    relabeled = branching_efficiencies(swapped)
    assert relabeled == (base[1], base[0], base[3], base[2])


def test_uniform_overall_efficiencies():
    eff = EfficiencySet(eta_b=(0.25, 0.25, 0.25, 0.25), eta_c=1.0, eta_d=1.0)
    assert eff.eta == (0.25, 0.25, 0.25, 0.25)
    assert eff.eta_bar == 0.25
    assert all(e == eff.eta_bar for e in eff.eta)


def test_measured_overall_efficiency_detector_one():
    eff = default_efficiency_set()
    assert eff.eta[0] == pytest.approx(0.65 * 0.234156, abs=1e-12)
    assert eff.eta[0] == pytest.approx(0.1522014, abs=1e-9)


def test_efficiency_factorization_and_average():
    eff = EfficiencySet(eta_b=(0.2, 0.25, 0.22, 0.18), eta_c=0.9, eta_d=0.65)
    for i in range(4):
        assert eff.eta[i] == pytest.approx(eff.eta_b[i] * 0.9 * 0.65, abs=1e-12)
    assert eff.eta_bar == pytest.approx(sum(eff.eta) / 4, abs=1e-12)
    assert sum(eff.eta) <= 1.0


def test_per_arm_coupling():
    eff = EfficiencySet(eta_b=(0.25,) * 4, eta_c=(1.0, 0.9, 0.8, 0.7), eta_d=0.5)
    assert eff.eta == (0.125, 0.1125, 0.1, 0.0875)


def test_permutation_symmetry():
    eta_b = (0.2, 0.25, 0.22, 0.18)
    eff = EfficiencySet(eta_b=eta_b, eta_c=1.0, eta_d=0.65)
    permuted = EfficiencySet(eta_b=eta_b[::-1], eta_c=1.0, eta_d=0.65)
    assert permuted.eta == eff.eta[::-1]
    assert permuted.eta_bar == pytest.approx(eff.eta_bar, abs=1e-15)


def test_efficiency_validation():
    with pytest.raises(ValueError):
        EfficiencySet(eta_b=(0.3, 0.3, 0.3, 0.3), eta_c=1.0, eta_d=1.0)  # sums above 1
    with pytest.raises(ValueError):
        EfficiencySet(eta_b=(0.25,) * 4, eta_c=1.2, eta_d=1.0)
    with pytest.raises(ValueError):
        EfficiencySet(eta_b=(0.25,) * 4, eta_c=1.0, eta_d=-0.1)


def test_validate_efficiencies_accepts_sets_and_sequences():
    eff = default_efficiency_set()
    assert validate_efficiencies(eff) == eff.eta
    assert validate_efficiencies(list(eff.eta)) == eff.eta
    with pytest.raises(ValueError):
        validate_efficiencies([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        validate_efficiencies([0.3, 0.3, 0.3, 0.3])


def test_round_trip_dict():
    eff = default_efficiency_set()
    again = EfficiencySet.from_dict(eff.to_dict())
    assert again == eff
    direct = EfficiencySet.from_dict({"eta": list(eff.eta)})
    assert direct.eta == pytest.approx(eff.eta, abs=1e-15)
