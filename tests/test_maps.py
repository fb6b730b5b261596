"""Map fields: transversal differential, second form, tension, composition."""

import numpy as np
import pytest

import folharm as fh
from conftest import interior_points
from folharm.families import FAMILY_NAMES
from oracles import loop_second_form, loop_tension

TWO_PI = 2 * np.pi


def _torus_grid(n=64, q=2):
    return fh.build_grid(fh.FlatTorus([TWO_PI] * q), n)


def _sine_map(grid, amp=0.1):
    geom = grid.geometry
    fam = fh.make_family("sine_perturbation", geom, geom, {"amplitude": amp})
    return fam.realize(grid), fam


# -- transversal differential ---------------------------------------------


def test_dT_exact_on_linear_maps():
    """Winding lifts make the differential of a linear map exact, seam-free."""
    grid = _torus_grid(16)
    fam = fh.make_family("linear", grid.geometry, grid.geometry,
                         {"matrix": [[2, 1], [0, 1]]})
    mapf = fam.realize(grid)
    D = fh.d_T(mapf)
    assert np.max(np.abs(D - np.array([[2.0, 1.0], [0.0, 1.0]]))) <= 1e-12


def test_dT_second_order_accurate():
    errs = []
    for n in (32, 64, 128):
        grid = _torus_grid(n)
        mapf, fam = _sine_map(grid)
        errs.append(np.max(np.abs(fh.d_T(mapf) - fam.jac(grid.points))))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine >= 3.5


def test_identity_energy_density_is_half_dimension():
    grid = _torus_grid(16)
    mapf = fh.make_family("identity", grid.geometry, grid.geometry).realize(grid)
    assert np.allclose(fh.dT_norm_squared(mapf), 2.0, atol=1e-12)
    assert np.allclose(fh.energy_density(mapf), 1.0, atol=1e-12)


# -- second fundamental form and tension ----------------------------------


def test_second_form_symmetric_in_source_indices(sphere):
    grid = _torus_grid(32)
    fam = fh.make_family("band_wave", grid.geometry, sphere, {})
    S = fh.second_fund_form(fam.realize(grid))
    assert np.allclose(S, np.swapaxes(S, -1, -2), atol=1e-12)


def test_tension_is_metric_trace_of_second_form():
    grid = _torus_grid(32)
    mapf, _ = _sine_map(grid)
    S = fh.second_fund_form(mapf)
    tau = fh.tension(mapf)
    want = np.einsum("...ab,...gab->...g", grid.metric_inv, S)
    assert np.max(np.abs(tau - want)) <= 1e-12


def test_second_form_matches_loop_oracle(sphere):
    """Vectorized contraction against an explicit index-loop computation."""
    grid = _torus_grid(32)
    fam = fh.make_family("band_wave", grid.geometry, sphere, {})
    pts = grid.points[::8, ::8]
    S_vec = fam.second_form(pts)
    for idx in np.ndindex(pts.shape[:-1]):
        p = pts[idx]
        S_loop = loop_second_form(
            grid.geometry, sphere, p, fam.jac(p), fam.hess(p), fam.func(p)
        )
        assert np.max(np.abs(S_vec[idx] - S_loop)) <= 1e-12
        tau_loop = loop_tension(
            grid.geometry, sphere, p, fam.jac(p), fam.hess(p), fam.func(p)
        )
        gi = np.linalg.inv(grid.geometry.metric(p))
        tau_vec = np.einsum("ab,gab->g", gi, S_vec[idx])
        assert np.max(np.abs(tau_vec - tau_loop)) <= 1e-12


def test_discrete_second_form_converges_to_analytic(sphere):
    errs = []
    for n in (32, 64, 128):
        grid = _torus_grid(n)
        fam = fh.make_family("band_wave", grid.geometry, sphere, {})
        S = fh.second_fund_form(fam.realize(grid))
        errs.append(np.max(np.abs(S - fam.second_form(grid.points))))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine >= 3.5


def test_latitude_circle_tension_value(sphere):
    """theta = pi/4 circle: tau^theta = -sin(pi/4) cos(pi/4) = -1/2."""
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), 64)
    fam = fh.make_family("latitude_circle", grid.geometry, sphere,
                         {"theta": np.pi / 4})
    tau = fh.tension(fam.realize(grid))
    assert np.allclose(tau[..., 0], -0.5, atol=1e-12)
    assert np.allclose(tau[..., 1], 0.0, atol=1e-12)


def test_equator_circle_is_harmonic(sphere):
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), 64)
    fam = fh.make_family("latitude_circle", grid.geometry, sphere,
                         {"theta": np.pi / 2})
    assert fh.tension_sup_norm(fam.realize(grid)) <= 1e-12


# -- composition -----------------------------------------------------------


def test_composition_values_and_winding():
    grid = _torus_grid(32)
    phi, _ = _sine_map(grid)
    psi = fh.make_family("linear", grid.geometry, grid.geometry,
                         {"matrix": [[1, 1], [0, 1]]})
    comp = fh.compose(phi, psi)
    assert np.allclose(comp.values, psi.func(phi.values), atol=1e-14)
    assert np.array_equal(comp.winding, np.array([[1, 1], [0, 1]]))


def test_composition_chain_rule_residual_shrinks(sphere):
    def residual(n):
        grid = _torus_grid(n)
        phi, _ = _sine_map(grid)
        psi = fh.make_family("band_wave", grid.geometry, sphere, {})
        res = fh.composition_residuals(phi, psi)
        return max(res.values())

    residuals = [residual(n) for n in (32, 64, 128)]
    orders = [np.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    assert min(orders) >= 1.7


def test_composition_rejects_chart_mismatch(sphere, patch):
    grid = _torus_grid(16)
    phi, _ = _sine_map(grid)
    psi = fh.make_family("constant", patch, patch)   # source chart is wrong
    with pytest.raises(fh.CompositionError):
        fh.compose(phi, psi)
    with pytest.raises(fh.CompositionError):
        psi.realize(grid)                            # and so is the grid's


def test_compose_takes_analytic_outer_maps_only():
    grid = _torus_grid(16)
    phi, _ = _sine_map(grid)
    with pytest.raises(fh.CompositionError):
        fh.compose(phi, phi)


# -- validation ------------------------------------------------------------


def test_map_field_validation(sphere):
    grid = _torus_grid(16)
    good = np.full(grid.shape + (2,), np.pi / 2)
    fh.FoliatedMapField(grid, sphere, good, np.zeros((2, 2), dtype=int))
    with pytest.raises(fh.InvalidMapError):
        fh.FoliatedMapField(grid, sphere, good[..., :1], None)   # wrong shape
    bad = good.copy()
    bad[0, 0, 0] = 0.01          # inside the excluded polar cap
    with pytest.raises(fh.InvalidMapError):
        fh.FoliatedMapField(grid, sphere, bad, None)
    with pytest.raises(fh.InvalidMapError, match="integers"):
        fh.FoliatedMapField(grid, sphere, good,
                            np.array([[0.5, 0.0], [0.0, 0.0]]))
    with pytest.raises(fh.InvalidMapError, match="shape"):
        fh.FoliatedMapField(grid, sphere, good, np.zeros((1, 2), dtype=int))


def test_map_values_must_be_finite(sphere):
    grid = _torus_grid(16)
    values = np.full(grid.shape + (2,), np.pi / 2)
    values[3, 4, 1] = np.nan     # on the periodic axis, which contains() skips
    with pytest.raises(fh.InvalidMapError):
        fh.FoliatedMapField(grid, sphere, values, None)


def test_map_values_are_read_only():
    """Cached derivatives cannot go stale: values is a read-only copy."""
    import dataclasses

    grid = _torus_grid(16)
    values = np.full(grid.shape + (2,), 1.0)
    mapf = fh.FoliatedMapField(grid, grid.geometry, values)
    with pytest.raises(ValueError):
        mapf.values[0, 0, 0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        mapf.values = values
    values[0, 0, 0] = 2.0          # the caller's array stays its own
    assert mapf.values[0, 0, 0] == 1.0


def test_replaced_field_shares_the_lift_and_keeps_its_checks(sphere):
    grid = _torus_grid(16)
    mapf = fh.make_family("band_wave", grid.geometry, sphere, {}).realize(grid)
    moved = mapf.replace_values(mapf.values + 0.01)
    assert moved.linear_slope is mapf.linear_slope
    assert np.array_equal(moved.D, fh.d_T(moved))
    bad = mapf.values.copy()
    bad[0, 0, 0] = 0.01            # inside the excluded polar cap
    with pytest.raises(fh.InvalidMapError):
        mapf.replace_values(bad)
    with pytest.raises(fh.InvalidMapError):
        mapf.replace_values(np.where(bad > 0, np.nan, bad))


def test_winding_must_vanish_on_fixed_axes(patch):
    grid = fh.build_grid(patch, 16)
    values = np.tile(np.array([0.0, 1.0]), grid.shape + (1,))
    with pytest.raises(fh.InvalidMapError, match="source axis"):
        fh.FoliatedMapField(grid, fh.FlatTorus([TWO_PI, TWO_PI]), values,
                            np.array([[1, 0], [0, 0]]))
    torus_grid = _torus_grid(16)           # and on fixed target coordinates
    values = np.tile(np.array([0.0, 1.0]), torus_grid.shape + (1,))
    with pytest.raises(fh.InvalidMapError, match="target coordinate"):
        fh.FoliatedMapField(torus_grid, patch, values, np.array([[1, 0], [0, 0]]))


def test_family_registry_errors(torus1, torus2, sphere, patch):
    """Every parameter and chart check of the family builders and of the
    variation field raises ConfigurationError."""
    bad_families = [
        ("moebius", torus2, torus2, None),
        ("identity", torus2, torus2, {"stray": 1}),
        ("identity", torus2, sphere, None),
        ("linear", torus2, sphere, None),
        ("linear", torus2, torus2, {"stray": 1}),
        ("linear", torus2, torus2, {"matrix": [[1, 0]]}),
        ("linear", torus2, torus2, {"matrix": [[0.5, 0], [0, 1]]}),
        ("linear", torus2, torus2, {"offset": [0.1, 0.2, 0.3]}),
        ("sine_perturbation", torus2, sphere, None),
        ("sine_perturbation", torus2, torus2, {"stray": 1}),
        ("sine_perturbation", torus2, torus2, {"modes": [[2, [1, 0]]]}),
        ("sine_perturbation", torus2, torus2, {"modes": [[0, [1, 0, 0]]]}),
        ("latitude_circle", torus1, sphere, {"stray": 1}),
        ("latitude_circle", torus2, sphere, None),
        ("latitude_circle", torus1, torus1, None),
        ("band_wave", torus2, sphere, {"stray": 1}),
        ("band_wave", torus1, sphere, None),
        ("band_wave", torus2, torus2, None),
        ("band_wave", torus2, sphere, {"kvec": [1, 1, 1]}),
        ("sine_into_patch", torus2, patch, {"stray": 1}),
        ("sine_into_patch", torus1, patch, None),
        ("sine_into_patch", torus2, sphere, None),
        ("constant", torus2, sphere, {"stray": 1}),
        ("constant", torus2, sphere, {"point": [1.0, 2.0, 3.0]}),
    ]
    for name, source, target, params in bad_families:
        with pytest.raises(fh.ConfigurationError):
            fh.make_family(name, source, target, params)
    grid = fh.build_grid(torus2, 8)
    for spec in ({"kvec": [1]}, {"component": 2}, {"stray": 1}):
        with pytest.raises(fh.ConfigurationError):
            fh.variation_field(grid, torus2, spec)


# family -> (source, target, params); the tori have periods other than 2 pi,
# so a missing angular frequency shows
_TORUS, _CIRCLE = fh.FlatTorus([3.0, 5.0]), fh.FlatTorus([4.0])
_SPHERE = fh.RoundSphere(radius=1.5, cap_angle=0.4)
_PATCH = fh.HyperbolicPatch(x_bounds=(-2.0, 2.0), y_bounds=(0.5, 3.0))
_FAMILY_PAIRS = {
    "identity": (_SPHERE, _SPHERE, None),
    "linear": (_TORUS, _TORUS, {"matrix": [[2, 1], [0, 1]], "offset": [0.3, -0.2]}),
    "sine_perturbation": (_TORUS, _TORUS,
                          {"modes": [[0, [1, 2], 0.1, 0.4], [1, [2, -1], 0.05]]}),
    "latitude_circle": (_CIRCLE, _SPHERE, {"theta": 1.0}),
    "band_wave": (_TORUS, _SPHERE, None),
    "sine_into_patch": (_TORUS, _PATCH, None),
    "constant": (_SPHERE, _PATCH, None),
}


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_family_derivatives_match_central_differences(family):
    """jac is the central difference of func, hess that of jac."""
    source, target, params = _FAMILY_PAIRS[family]
    fam = fh.make_family(family, source, target, params)
    x = interior_points(source, np.random.default_rng(17), 25)
    h = 1e-5
    steps = h * np.eye(source.dim)
    fd_jac = np.stack([(fam.func(x + e) - fam.func(x - e)) / (2 * h)
                       for e in steps], axis=-1)
    fd_hess = np.stack([(fam.jac(x + e) - fam.jac(x - e)) / (2 * h)
                        for e in steps], axis=-1)
    assert np.max(np.abs(fam.jac(x) - fd_jac)) <= 1e-8
    assert np.max(np.abs(fam.hess(x) - fd_hess)) <= 1e-8


def test_variation_field_is_constant_along_fixed_axes(sphere):
    """omega is 2 pi / period on periodic axes and 0 on fixed ones."""
    grid = fh.build_grid(sphere, 16)      # theta fixed, phi periodic
    V = fh.variation_field(grid, sphere, {"component": 1, "kvec": [3, 2],
                                          "amplitude": 0.5, "phase": 0.1})
    phi = grid.points[..., 1]
    assert np.allclose(V[..., 1], 0.5 * np.sin(2 * phi + 0.1), atol=1e-14)
    assert not V[..., 0].any()
