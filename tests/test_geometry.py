"""Closed-form geometry catalog: metrics, curvature, exponential maps."""

import numpy as np
import pytest

import folharm as fh
from conftest import interior_points
from oracles import dense_christoffel, rk4_geodesic

RNG = np.random.default_rng(20240817)


# -- metric and Christoffel symbols ---------------------------------------


def test_metrics_are_symmetric_positive_definite(all_geometries):
    for geom in all_geometries:
        pts = interior_points(geom, RNG, 50)
        g = geom.metric(pts)
        assert np.allclose(g, np.swapaxes(g, -1, -2), atol=1e-14)
        assert np.all(np.linalg.eigvalsh(g) > 0)


def test_christoffel_symmetric_in_lower_indices(all_geometries):
    for geom in all_geometries:
        pts = interior_points(geom, RNG, 50)
        gam = dense_christoffel(geom, pts)
        assert np.allclose(gam, np.swapaxes(gam, -1, -2), atol=1e-14)


def test_christoffel_matches_metric_derivatives(all_geometries):
    """Gamma^c_ab = 1/2 g^{cd}(d_a g_db + d_b g_da - d_d g_ab), by central FD."""
    h = 1e-6
    for geom in all_geometries:
        for p in interior_points(geom, RNG, 10):
            q = geom.dim
            dg = np.zeros((q, q, q))   # dg[d, a, b] = d_d g_ab
            for d in range(q):
                e = np.zeros(q)
                e[d] = h
                dg[d] = (geom.metric(p + e) - geom.metric(p - e)) / (2 * h)
            gi = np.linalg.inv(geom.metric(p))
            expected = np.zeros((q, q, q))
            for c in range(q):
                for a in range(q):
                    for b in range(q):
                        for d in range(q):
                            expected[c, a, b] += 0.5 * gi[c, d] * (
                                dg[a, d, b] + dg[b, d, a] - dg[d, a, b]
                            )
            assert np.allclose(dense_christoffel(geom, p), expected, atol=1e-8)


# -- curvature -------------------------------------------------------------


def test_riemann_tensor_symmetries_and_first_bianchi(all_geometries):
    for geom in all_geometries:
        pts = interior_points(geom, RNG, 100)
        R = geom.riemann(pts)
        # antisymmetry in both index pairs, pair-swap symmetry
        assert np.allclose(R, -np.swapaxes(R, -4, -3), atol=1e-10)
        assert np.allclose(R, -np.swapaxes(R, -2, -1), atol=1e-10)
        assert np.allclose(R, np.moveaxis(R, (-4, -3, -2, -1), (-2, -1, -4, -3)),
                           atol=1e-10)
        # first Bianchi identity: R_{a[bcd]} cyclic sum vanishes
        cyc = (
            R
            + np.moveaxis(R, (-3, -2, -1), (-2, -1, -3))
            + np.moveaxis(R, (-3, -2, -1), (-1, -3, -2))
        )
        assert np.max(np.abs(cyc)) <= 1e-10


def test_ricci_is_contraction_of_riemann(all_geometries):
    for geom in all_geometries:
        pts = interior_points(geom, RNG, 30)
        R = geom.riemann(pts)
        gi = np.linalg.inv(geom.metric(pts))
        expected = np.einsum("...ad,...abcd->...bc", gi, R)
        assert np.allclose(geom.ricci(pts), expected, atol=1e-12)


def test_sectional_curvature_constants(torus2, sphere, patch):
    rng = np.random.default_rng(7)
    for geom, K in ((torus2, 0.0), (sphere, 1.0), (patch, -1.0)):
        for p in interior_points(geom, rng, 20):
            X, Y = rng.standard_normal(2), rng.standard_normal(2)
            k = geom.sectional(p, X, Y)
            assert abs(k - K) <= 1e-10


def test_sphere_radius_scales_curvature():
    s = fh.RoundSphere(radius=2.0, cap_angle=0.4)
    p = np.array([np.pi / 2, 0.3])
    assert abs(s.sectional(p, [1.0, 0.0], [0.0, 1.0]) - 0.25) <= 1e-12
    ric = s.ricci(p)
    assert np.allclose(ric, 0.25 * s.metric(p), atol=1e-12)


# -- exponential maps ------------------------------------------------------


def test_exp_matches_geodesic_reintegration(all_geometries):
    """Closed-form exp against an independent RK4 geodesic integrator."""
    rng = np.random.default_rng(101)
    for geom in all_geometries:
        for p in interior_points(geom, rng, 8):
            v = 0.25 * rng.standard_normal(geom.dim)
            n = geom.norm(p, v)
            if n > 0.8 * geom.injectivity_cap:
                v *= 0.8 * geom.injectivity_cap / n
            got = geom.exp(p, v)
            want = rk4_geodesic(geom, p, v, nsteps=400)
            if not np.all(geom.contains(want)):
                continue
            assert np.max(np.abs(got - want)) <= 1e-8


def test_exp_known_values(torus1, sphere, patch):
    assert np.allclose(torus1.exp([0.5], [0.7]), [1.2], atol=1e-14)
    out = sphere.exp([np.pi / 2, 0.0], [0.0, 1.0])
    assert np.allclose(out, [np.pi / 2, 1.0], atol=1e-12)
    out = patch.exp([0.0, 1.0], [0.0, 1.0])
    assert np.allclose(out, [0.0, np.e], atol=1e-12)


def test_exp_zero_vector_is_identity(all_geometries):
    for geom in all_geometries:
        pts = interior_points(geom, RNG, 20)
        out = geom.exp(pts, np.zeros_like(pts))
        assert np.allclose(out, pts, atol=1e-14)


def test_exp_norm_preservation(all_geometries):
    """|exp_p(tv) - curve| has speed |v|: check via midpoint re-expansion."""
    rng = np.random.default_rng(23)
    for geom in all_geometries:
        for p in interior_points(geom, rng, 5):
            v = 0.3 * rng.standard_normal(geom.dim)
            half = geom.exp(p, 0.5 * v)
            if not np.all(geom.contains(half)):
                continue
            full = geom.exp(p, v)
            refull = rk4_geodesic(geom, half, 0.5 * _transport(geom, p, half, v), 200)
            # geodesic segment property holds within integrator error
            if np.all(geom.contains(full)) and np.all(geom.contains(refull)):
                assert np.max(np.abs(full - refull)) <= 1e-6


def _transport(geom, p, mid, v):
    """Velocity of the geodesic t -> exp_p(tv) at the midpoint, by FD."""
    eps = 1e-6
    a = geom.exp(p, (0.5 + eps) * v)
    b = geom.exp(p, (0.5 - eps) * v)
    return (a - b) / (2 * eps)


def test_exp_rejects_steps_beyond_injectivity_cap(sphere):
    with pytest.raises(fh.StepTooLargeError):
        sphere.exp([np.pi / 2, 0.0], [0.0, 10.0])


def test_flat_torus_constants_are_read_only(torus2):
    """The metric diagonals, ``sqrt_det`` and ``riemann`` are read-only
    broadcast views; the dense metric comes from the base class."""
    points = np.zeros((5, 3, 2))
    for field, want, view in [(torus2.metric_diagonal(points), np.ones(2), True),
                              (torus2.metric_inv_diagonal(points), np.ones(2), True),
                              (torus2.metric(points), np.eye(2), False),
                              (torus2.sqrt_det(points), 1.0, True),
                              (torus2.riemann(points), np.zeros((2,) * 4), True)]:
        assert field.shape == (5, 3) + np.shape(want)
        assert field.flags.writeable is not view
        assert np.array_equal(field, np.broadcast_to(want, field.shape))


# -- construction and validation ------------------------------------------


def test_build_geometry_round_trip(torus2, sphere, patch):
    built = fh.build_geometry({"kind": "flat_torus", "periods": list(torus2.periods)})
    assert isinstance(built, fh.FlatTorus)
    built = fh.build_geometry({"kind": "round_sphere", "radius": 1.0, "cap_angle": 0.4})
    assert isinstance(built, fh.RoundSphere)
    built = fh.build_geometry(
        {"kind": "hyperbolic_patch", "x_bounds": [-2, 2], "y_bounds": [0.5, 3.0]}
    )
    assert isinstance(built, fh.HyperbolicPatch)


def test_build_geometry_rejects_bad_specs():
    with pytest.raises(fh.ConfigurationError):
        fh.build_geometry({"kind": "klein_bottle"})
    with pytest.raises(fh.ConfigurationError):
        fh.build_geometry({"kind": "flat_torus", "periods": [-1.0]})
    with pytest.raises(fh.ConfigurationError):
        fh.build_geometry({"kind": "flat_torus", "periods": [1.0], "extra": 2})
    # each constructor check, named by the parameter it rejects
    for spec, key in [({"kind": "flat_torus", "periods": []}, "periods"),
                      ({"kind": "round_sphere", "radius": 0.0}, "radius"),
                      ({"kind": "round_sphere", "cap_angle": 2.0}, "cap_angle"),
                      ({"kind": "hyperbolic_patch", "x_bounds": [1, 0],
                        "y_bounds": [0.5, 2.0]}, "x_bounds"),
                      ({"kind": "hyperbolic_patch", "x_bounds": [0, 1],
                        "y_bounds": [-1.0, 2.0]}, "y_bounds")]:
        with pytest.raises(fh.ConfigurationError, match=key):
            fh.build_geometry(spec)


def test_domain_validation(sphere, patch):
    with pytest.raises(fh.DomainError):
        sphere.require_valid(np.array([0.01, 0.0]))   # inside the polar cap
    with pytest.raises(fh.DomainError):
        patch.require_valid(np.array([0.0, 10.0]))


def test_exp_validates_basepoints(sphere, patch):
    with pytest.raises(fh.DomainError):
        sphere.exp(np.array([0.01, 0.0]), np.zeros(2))
    with pytest.raises(fh.DomainError):
        patch.exp(np.array([0.0, 10.0]), np.zeros(2))


def test_open_chart_bounds_are_strict():
    """A point exactly on an open bound, theta = _CHART_TOL or pi - _CHART_TOL on
    the sphere and y = _CHART_TOL on the patch, is refused by ``contains``,
    ``exp`` and ``FoliatedMapField``, also where the closed chart box, with its
    slack of _CHART_TOL, reaches the bound or past it; a point 2e-9 from the
    pole or from y = 0 is taken there."""
    tol = fh.geometry._CHART_TOL
    sphere = fh.RoundSphere(radius=1.0, cap_angle=tol)
    patch = fh.HyperbolicPatch([-1.0, 1.0], [tol, 2.0])
    wide_sphere = fh.RoundSphere(cap_angle=1e-12)
    low_patch = fh.HyperbolicPatch([-1.0, 1.0], [1e-10, 1.0])
    grid = fh.build_grid(fh.FlatTorus([2 * np.pi]), 8)
    for geom, inside, edge in [(sphere, [1.0, 0.5], [tol, 0.5]),
                               (sphere, [1.0, 0.5], [np.pi - tol, 0.5]),
                               (patch, [0.0, 1.0], [0.0, tol]),
                               (wide_sphere, [2e-9, 0.5], [1e-9, 0.5]),
                               (wide_sphere, [np.pi - 2e-9, 0.5], [np.pi - 1e-9, 0.5]),
                               (low_patch, [0.0, 2e-9], [0.0, 1e-9])]:
        inside, edge = np.array(inside), np.array(edge)
        assert geom.contains(inside) and not geom.contains(edge)
        with pytest.raises(fh.DomainError):
            geom.exp(edge, np.zeros(2))
        values = np.tile(inside, (8, 1))
        fh.FoliatedMapField(grid, geom, values)
        values[3] = edge
        with pytest.raises(fh.InvalidMapError):
            fh.FoliatedMapField(grid, geom, values)


def test_local_geometry_at_sphere_equator(sphere):
    point = np.array([np.pi / 2, 0.3])
    assert np.allclose(sphere.metric(point), np.eye(2), atol=1e-14)
    assert np.allclose(sphere.ricci(point), np.eye(2), atol=1e-12)
    K = sphere.sectional(point, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(K - 1.0) <= 1e-12
