"""Leaf-volume profiles and the mean-curvature relation."""

import numpy as np
import pytest

import folharm as fh


def test_named_profiles_exist_and_are_positive(torus1):
    for name in ("constant", "cosine_offset", "warped_sine"):
        struct = fh.named_profile(name, leaf_dimension=1)
        grid = fh.build_grid(torus1, 32)
        assert np.all(struct.vol_at(grid.points) > 0)


def test_volume_derivative_relation_closed_form(torus1):
    """d vol_L + vol_L kappa_B = 0 exactly for closed-form profiles."""
    grid = fh.build_grid(torus1, 64)
    for name in ("cosine_offset", "warped_sine"):
        struct = fh.named_profile(name, leaf_dimension=2)
        assert fh.check_lemma_volume(grid, struct) <= 1e-12


def test_volume_derivative_relation_discrete_converges(torus1):
    """Without a closed-form derivative the residual is second order in h."""
    struct = fh.named_profile("cosine_offset", leaf_dimension=1)
    discrete = fh.FoliatedStructure(1, struct.vol, None)
    residuals = [
        fh.check_lemma_volume(fh.build_grid(torus1, n), discrete)
        for n in (32, 64, 128)
    ]
    orders = [np.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    assert min(orders) >= 1.7


def test_cosine_offset_mean_curvature_value(torus1):
    """vol = 2 + cos b gives kappa_B = sin b / (2 + cos b) db."""
    struct = fh.named_profile("cosine_offset", 1, {"offset": 2.0})
    b = np.linspace(0, 2 * np.pi, 9)[:, None]
    kappa = struct.kappa_closed_form(b)
    want = np.sin(b) / (2.0 + np.cos(b))
    assert np.allclose(kappa, want, atol=1e-14)


def test_trivial_structure_has_zero_mean_curvature():
    struct = fh.FoliatedStructure.trivial()
    b = np.random.default_rng(0).uniform(0, 1, (5, 3))
    assert np.all(struct.vol_at(b) == 1.0)
    assert np.all(struct.kappa_closed_form(b) == 0.0)


def test_profile_validation():
    with pytest.raises(fh.ConfigurationError):
        fh.named_profile("cosine_offset", 1, {"offset": 0.5})   # dips negative
    with pytest.raises(fh.ConfigurationError):
        fh.named_profile("no_such_profile", 1)
    for name in ("constant", "cosine_offset", "warped_sine"):
        with pytest.raises(fh.ConfigurationError, match=f"^profile {name}: unknown params"):
            fh.named_profile(name, 1, {"axis": 0, "stray": 1})
    with pytest.raises(fh.ConfigurationError):
        fh.FoliatedStructure(-1, lambda b: np.ones(np.asarray(b).shape[:-1]))


def test_nonpositive_volume_rejected_at_build(torus1):
    """Positivity is enforced where the profile is used: vol_at raises on
    a grid where the profile dips below zero."""
    struct = fh.FoliatedStructure(1, lambda b: np.cos(np.asarray(b)[..., 0]))
    with pytest.raises(fh.ConfigurationError, match="nonpositive"):
        struct.vol_at(fh.build_grid(torus1, 16).points)
