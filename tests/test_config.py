"""How a run config resolves the per-detector efficiencies."""

import pytest

from wcpstats.config import RunConfig

DEFAULT_SPLITTERS = {"root": (0.494, 0.453), "transmitted": (0.474, 0.446), "reflected": (0.461, 0.456)}


def splitter_products(splitters, order=(1, 2, 3, 4), coupling=1.0, detector=0.65):
    """eta_i = (product of the intensity fractions on detector i's path) * eta_c,i * eta_d."""
    (root_t, root_r), (arm_t, arm_r), (refl_t, refl_r) = (
        splitters[key] for key in ("root", "transmitted", "reflected")
    )
    leaves = (root_t * arm_t, root_t * arm_r, root_r * refl_t, root_r * refl_r)
    branch = [0.0] * 4
    for value, index in zip(leaves, order):
        branch[index - 1] = value
    couplings = coupling if isinstance(coupling, tuple) else (coupling,) * 4
    return tuple(b * c * detector for b, c in zip(branch, couplings))


MEASURED = DEFAULT_SPLITTERS
EVEN = {"root": (0.5, 0.45), "transmitted": (0.48, 0.5), "reflected": (0.4, 0.55)}


def as_lists(splitters):
    return {key: list(ratios) for key, ratios in splitters.items()}


def as_dicts(splitters):
    return {key: {"transmittance": t, "reflectance": r} for key, (t, r) in splitters.items()}


@pytest.mark.parametrize(
    "data, expected",
    [
        ({}, splitter_products(MEASURED)),
        ({"geometry": as_dicts(EVEN)}, splitter_products(EVEN)),
        ({"geometry": as_lists(EVEN)}, splitter_products(EVEN)),
        ({"geometry": {**as_lists(EVEN), "detector_order": [3, 1, 4, 2]}},
         splitter_products(EVEN, order=(3, 1, 4, 2))),
        ({"eta_c": 0.9}, splitter_products(MEASURED, coupling=0.9)),
        ({"eta_c": [1.0, 0.9, 0.8, 0.7]}, splitter_products(MEASURED, coupling=(1.0, 0.9, 0.8, 0.7))),
        ({"eta_d": 0.5}, splitter_products(MEASURED, detector=0.5)),
        ({"geometry": as_lists(EVEN), "eta_c": [0.9, 1.0, 0.95, 0.85], "eta_d": 0.7},
         splitter_products(EVEN, coupling=(0.9, 1.0, 0.95, 0.85), detector=0.7)),
    ],
    ids=["defaults", "geometry-dict", "geometry-list", "detector-order", "scalar-eta_c", "vector-eta_c",
         "eta_d", "all-parts"],
)
def test_config_resolves_eta_from_the_splitter_products(data, expected):
    assert RunConfig.from_dict(data).efficiency_set.eta == expected


def test_config_eta_is_taken_as_given():
    eta = [0.12, 0.15, 0.13, 0.11]
    assert RunConfig.from_dict({"eta": eta}).efficiency_set.eta == tuple(eta)
    default = RunConfig.from_dict({}).efficiency_set
    assert RunConfig.from_dict({"eta": list(default.eta)}).efficiency_set.eta == default.eta


@pytest.mark.parametrize("part", [{"geometry": as_lists(EVEN)}, {"eta_c": 1.0}, {"eta_d": 0.65}],
                         ids=["geometry", "eta_c", "eta_d"])
def test_config_eta_refuses_the_parts_of_a_product(part):
    with pytest.raises(TypeError, match=f"eta .* with {next(iter(part))}"):
        RunConfig.from_dict({"eta": [0.1] * 4, **part})


@pytest.mark.parametrize("rate", [1e-300, 5e-324, 3e12, 1e300])
def test_rep_rate_without_a_whole_ps_period_is_refused(rate):
    # 1e12 / rate must be finite and round to at least 1 ps.
    with pytest.raises(ValueError, match="rep_rate_hz"):
        RunConfig(rep_rate_hz=rate)


@pytest.mark.parametrize("rate, period", [(1e-8, 10**20), (1.25e6, 800_000), (1e12, 1), (1.9e12, 1)])
def test_rep_rate_period_from_one_ps_up(rate, period):
    assert RunConfig(rep_rate_hz=rate).rep_period_ps == period
