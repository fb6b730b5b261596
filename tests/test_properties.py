"""Property-based invariants (hypothesis)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import folharm as fh
from conftest import interior_points
from folharm.flow import _singular_values_2x2, _whitened
from folharm.serialize import fmt
from oracles import (
    contract,
    dense_christoffel_term,
    dense_dT_norm_sq,
    dense_form_norm_sq,
    dense_norm_sq,
    loop_whitened_singular_values,
)
from folharm.verify import _neville_to_zero

TWO_PI = 2 * np.pi

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12)


@given(finite_floats)
def test_fmt_round_trips_any_float(x):
    assert float(fmt(x)) == x


@given(st.floats(min_value=-100, max_value=100),
       st.floats(min_value=-100, max_value=100),
       st.floats(min_value=-100, max_value=100))
def test_neville_recovers_constant_term_of_quadratic(c0, c1, c2):
    xs = [0.09, 0.04, 0.01]
    ys = [c0 + c1 * x + c2 * x * x for x in xs]
    scale = max(1.0, abs(c0), abs(c1), abs(c2))
    assert abs(_neville_to_zero(xs, ys) - c0) <= 1e-9 * scale


def _geometry_from_label(label):
    return {
        "torus": fh.FlatTorus([TWO_PI, 3.0]),
        "sphere": fh.RoundSphere(radius=1.3, cap_angle=0.5),
        "patch": fh.HyperbolicPatch([-1.5, 1.5], [0.7, 2.5]),
    }[label]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["torus", "sphere", "patch"]),
       st.floats(min_value=0.12, max_value=0.88),
       st.floats(min_value=0.12, max_value=0.88))
def test_curvature_tensor_identities_at_random_points(label, s, t):
    geom = _geometry_from_label(label)
    bounds = np.asarray(geom.chart_bounds)
    p = bounds[:, 0] + np.array([s, t]) * (bounds[:, 1] - bounds[:, 0])
    R = geom.riemann(p)
    assert np.allclose(R, -np.swapaxes(R, -2, -1), atol=1e-10)
    assert np.allclose(R, -np.swapaxes(R, -4, -3), atol=1e-10)
    cyc = (R + np.moveaxis(R, (-3, -2, -1), (-2, -1, -3))
           + np.moveaxis(R, (-3, -2, -1), (-1, -3, -2)))
    assert np.max(np.abs(cyc)) <= 1e-10
    ric = geom.ricci(p)
    assert np.allclose(ric, ric.T, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.9),
       st.floats(min_value=-0.9, max_value=0.9),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
def test_torus_exp_is_translation_mod_periods(x, v, kx, kv):
    torus = fh.FlatTorus([TWO_PI])
    p = np.array([x + TWO_PI * kx]) % TWO_PI
    w = np.array([v])
    out = torus.exp(p, w)
    want = p + w
    # compare as circle points: wrap the difference to (-pi, pi]
    diff = (out - want + np.pi) % TWO_PI - np.pi
    assert np.max(np.abs(diff)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.5, max_value=2.0),
       st.floats(min_value=-1.0, max_value=1.0))
def test_quadrature_is_linear_and_monotone(scale, shift):
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), 32)
    f = np.sin(grid.points[..., 0]) ** 2
    base = fh.integrate(grid, f)
    combined = fh.integrate(grid, scale * f + shift)
    assert np.isclose(combined, scale * base + shift * TWO_PI, atol=1e-10)
    assert fh.integrate(grid, np.abs(f)) >= 0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-2, max_value=2),
       st.integers(min_value=-2, max_value=2),
       st.integers(min_value=-2, max_value=2),
       st.integers(min_value=-2, max_value=2))
def test_composed_winding_is_matrix_product(a, b, c, d):
    torus = fh.FlatTorus([TWO_PI, TWO_PI])
    grid = fh.build_grid(torus, 16)
    phi = fh.make_family("linear", torus, torus,
                         {"matrix": [[1, 0], [0, 1]]}).realize(grid)
    psi = fh.make_family("linear", torus, torus, {"matrix": [[a, b], [c, d]]})
    comp = fh.compose(phi, psi)
    assert np.array_equal(comp.winding, np.array([[a, b], [c, d]]))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.3),
       st.integers(min_value=1, max_value=3))
def test_linear_maps_have_zero_tension(amp, k):
    """Affine torus maps are transversally harmonic regardless of slope."""
    torus = fh.FlatTorus([TWO_PI, TWO_PI])
    grid = fh.build_grid(torus, 16)
    mapf = fh.make_family("linear", torus, torus,
                          {"matrix": [[k, 0], [0, 1]],
                           "offset": [amp, -amp]}).realize(grid)
    assert fh.tension_sup_norm(mapf) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1.2, max_value=4.0),
       st.floats(min_value=0.0, max_value=TWO_PI))
def test_mean_curvature_matches_volume_profile(offset, _shift):
    torus = fh.FlatTorus([TWO_PI])
    grid = fh.build_grid(torus, 32)
    struct = fh.named_profile("cosine_offset", 1, {"offset": offset})
    assert fh.check_lemma_volume(grid, struct) <= 1e-12


_CATALOG = {
    "circle": fh.FlatTorus([TWO_PI]),
    "torus": fh.FlatTorus([TWO_PI, 3.0]),
    "sphere": fh.RoundSphere(radius=1.3, cap_angle=0.5),
    "patch": fh.HyperbolicPatch([-1.5, 1.5], [0.7, 2.5]),
}


def _matches(got, spec, *operands):
    """got equals einsum(spec, *operands) to 1e-13 relative to the size of
    the summands, which is the scale of the rounding error of either form
    when terms cancel (a curvature term that vanishes identically, say)."""
    want = np.einsum(spec, *operands)
    scale = np.einsum(spec, *(np.abs(op) for op in operands))
    return float(np.max(np.abs(got - want))) <= 1e-13 * max(float(np.max(scale)), 1e-300)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_CATALOG)),
       st.lists(st.lists(st.floats(min_value=0.05, max_value=0.95),
                         min_size=2, max_size=2), min_size=1, max_size=5))
def test_christoffel_vanishes_exactly_where_the_symbols_are_zero(label, fractions):
    """The map derivatives skip Christoffel terms where ``christoffel_symbols``
    is empty, which it is exactly when Gamma^c_{ab} is zero at points across
    the chart; the flow's FFT step needs the geometry to flag g as the
    identity, which it does exactly when g is the identity there."""
    geom = _CATALOG[label]
    bounds = np.asarray(geom.chart_bounds, dtype=float)
    frac = np.asarray(fractions)[:, :geom.dim]
    points = bounds[:, 0] + frac * (bounds[:, 1] - bounds[:, 0])
    assert (geom.christoffel_symbols(points) == {}) == (not geom.christoffel(points).any())
    identity = np.eye(geom.dim)
    assert geom.metric_is_identity == bool((geom.metric(points) == identity).all()
                                           and (geom.metric_inv(points) == identity).all())


def _every_catalog_pair(test):
    """``test`` with one explicit example for each source/target pair of the catalog."""
    for src in _CATALOG:
        for tgt in _CATALOG:
            test = example(src, tgt, 0)(test)
    return test


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_CATALOG)), st.sampled_from(sorted(_CATALOG)),
       st.integers(min_value=0, max_value=2**32 - 1))
@_every_catalog_pair
def test_small_matrix_contractions_match_einsum_definitions(src, tgt, seed):
    """The contractions of maps, grid and verify equal their einsum
    definitions on random map fields between catalog geometries, and equal,
    bit for bit, the dense fold of ``contract`` over the full metric and
    Christoffel arrays, which adds the products with zero entries that the
    closed forms leave out (``np.array_equal`` counts -0.0 equal to 0.0)."""
    source, target = _CATALOG[src], _CATALOG[tgt]
    grid = fh.build_grid(source, 8)
    rng = np.random.default_rng(seed)
    bounds = np.asarray(target.chart_bounds, dtype=float)
    lo = bounds[:, 0] + 0.1 * (bounds[:, 1] - bounds[:, 0])
    hi = bounds[:, 1] - 0.1 * (bounds[:, 1] - bounds[:, 0])
    mapf = fh.FoliatedMapField(
        grid, target, rng.uniform(lo, hi, grid.shape + (target.dim,)))
    D, S, tau = mapf.D, mapf.S, mapf.tau
    gi, gt, gam_t = grid.metric_inv, mapf.target_metric, target.christoffel(mapf.values)
    X = rng.standard_normal(D.shape)
    s = rng.standard_normal(mapf.values.shape)
    kappa = rng.standard_normal(grid.shape + (grid.dim,))
    struct = fh.FoliatedStructure(1, lambda b: np.ones(np.shape(b)[:-1]), lambda b: -kappa)
    f = rng.standard_normal(grid.shape)

    assert _matches(tau, "...ab,...gab->...g", gi, S)
    assert _matches(mapf.dT_norm_sq, "...ab,...st,...sa,...tb->...", gi, gt, D, D)
    assert _matches(fh.second_form_norm_squared(mapf),
                    "...ax,...by,...gd,...gab,...dxy->...", gi, gi, gt, S, S)
    n2 = np.einsum("...st,...s,...t->...", gt, tau, tau)
    assert np.isclose(fh.tension_sup_norm(mapf) ** 2, np.max(n2), rtol=1e-12, atol=0)
    assert _matches(target.norm(mapf.values, s) ** 2, "...ab,...a,...b->...", gt, s, s)
    ds = np.stack([fh.grid.diff1(grid, s, a) for a in range(grid.dim)], axis=-1)
    assert _matches(fh.maps.pullback_derivative(mapf, s) - ds,
                    "...gst,...sa,...t->...ga", gam_t, D, s)
    ric_term, curv_term = fh.bochner_parts(mapf)
    ric = source.ricci(grid.points)
    riem = target.riemann(mapf.values)
    assert _matches(ric_term, "...ab,...cd,...da,...st,...sc,...tb->...",
                    gi, gi, ric, gt, D, D)
    assert _matches(curv_term, "...ax,...by,...stuv,...sb,...ta,...ux,...vy->...",
                    gi, gi, riem, D, D, D, D)
    # the second form against its definition, Hessians by the grid stencils
    r = mapf.periodic_part
    H = np.stack([fh.grid.hessian_scalar(grid, r[..., g])
                  for g in range(target.dim)], axis=-3)
    want = (H - np.einsum("...gc,...cab->...gab", D, grid.gamma)
            + np.einsum("...gst,...sa,...tb->...gab", gam_t, D, D))
    scale = (np.abs(H) + np.einsum("...gc,...cab->...gab", abs(D), abs(grid.gamma))
             + np.einsum("...gst,...sa,...tb->...gab", abs(gam_t), abs(D), abs(D)))
    assert np.max(np.abs(S - want)) <= 1e-13 * np.max(scale)

    # the dense route: every entry of the metrics and the symbols, zeros included
    def pullback(field):
        return fh.grad_B(grid, field) + contract("...t,...gst,...sa->...ga", field, gam_t, D)

    kappa_up = contract("...ab,...b->...a", gi, kappa)
    grad, hess = fh.grid.derivatives(grid, f)
    cov_hess = hess - contract("...c,...cab->...ab", grad, grid.gamma)
    lap = -contract("...ab,...ab->...", gi, cov_hess) + contract("...a,...a->...", kappa_up, grad)
    A = contract("...sa,...st,...tb->...ab", D, gt, D)
    P = contract("...st,...ta,...ab,...ub->...su", gt, D, gi, D)
    tr_P = contract("...ss->...", P)
    codiff = -tau + contract("...ga,...a->...g", D, kappa_up)
    a_form = (-contract("...a,...gab->...gb", kappa_up, S)
              + pullback(contract("...ga,...a->...g", D, kappa_up)))
    terms = fh.weitzenbock_terms(mapf, struct, "general")
    B = rng.standard_normal(grid.shape + (2, target.dim, target.dim))
    div = sum(fh.grid.diff1(grid, X[..., 0, a], a) for a in range(grid.dim)) \
        + contract("...b,...b->...", contract("...aab->...b", grid.gamma), X[..., 0, :])
    psi = fh.AnalyticMap(source, target, np.mean(bounds, axis=1), 0.1 * X[(0,) * grid.dim],
                         (fh.maps.Mode(0, np.ones(grid.dim), 0.1),))
    y, J = psi.func(grid.points), psi.jac(grid.points)
    psi_S = (psi.hess(grid.points) - contract("...gc,...cab->...gab", J, grid.gamma)
             + contract("...gst,...tb,...sa->...gab", target.christoffel(y), J, J))
    for got, want in [
            (tau, contract("...ab,...gab->...g", gi, S)),
            (fh.grid.kappa_sharp(grid, struct), kappa_up),
            (fh.delta_B_scalar(grid, f, struct), lap),
            (ric_term, contract("...ab,...bc,...cd,...da->...", A, gi, ric, gi)),
            (curv_term, target.curvature_constant
             * (tr_P * tr_P - contract("...su,...us->...", P, P))),
            (terms["laplacian_pairing"],
             contract("...ts,...sa,...ab,...tb->...", gt, pullback(codiff), gi, D)),
            (terms["kappa_operator_pairing"],
             contract("...ts,...sa,...ab,...tb->...", gt, a_form, gi, D)),
            (fh.maps.pullback_form(mapf, B), contract("...gst,...tb,...sa->...gab", B, D, D)),
            (fh.div_nabla(grid, X[..., 0, :]), div),
            (psi.second_form(grid.points), psi_S)]:
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2),
       st.data())
def test_analytic_map_derivatives_match_central_differences(q, qp, data):
    """For any slope, offset and mix of sin and cos modes with phases,
    func is the closed form, jac the central difference of func and hess
    that of jac."""
    from folharm.maps import AnalyticMap, Mode

    coef = st.floats(min_value=-2.0, max_value=2.0)
    periods = data.draw(st.lists(st.floats(min_value=2.0, max_value=7.0),
                                 min_size=q, max_size=q))
    offset = data.draw(st.lists(coef, min_size=qp, max_size=qp))
    slope = data.draw(st.lists(st.lists(coef, min_size=q, max_size=q),
                               min_size=qp, max_size=qp))
    mode = st.tuples(st.integers(min_value=0, max_value=qp - 1),
                     st.lists(st.integers(min_value=-2, max_value=2),
                              min_size=q, max_size=q),
                     st.floats(min_value=-1.0, max_value=1.0),
                     st.floats(min_value=-np.pi, max_value=np.pi),
                     st.sampled_from(["sin", "cos"]))
    drawn = data.draw(st.lists(mode, max_size=3))
    omega = TWO_PI / np.asarray(periods)
    modes = [Mode(c, np.asarray(k) * omega, amp, phase, wave)
             for c, k, amp, phase, wave in drawn]
    fam = AnalyticMap(fh.FlatTorus(periods), fh.FlatTorus([TWO_PI] * qp),
                      offset, slope, modes)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, periods, (7, q))

    want = np.asarray(offset) + x @ np.asarray(slope).T
    for c, k, amp, phase, wave in modes:
        want[:, c] += amp * {"sin": np.sin, "cos": np.cos}[wave](x @ k + phase)
    assert np.max(np.abs(fam.func(x) - want)) <= 1e-12
    h = 1e-5
    steps = h * np.eye(q)
    fd_jac = np.stack([(fam.func(x + e) - fam.func(x - e)) / (2 * h)
                       for e in steps], axis=-1)
    fd_hess = np.stack([(fam.jac(x + e) - fam.jac(x - e)) / (2 * h)
                        for e in steps], axis=-1)
    assert np.max(np.abs(fam.jac(x) - fd_jac)) <= 1e-6
    assert np.max(np.abs(fam.hess(x) - fd_hess)) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sphere", "patch", "torus"]), st.sampled_from(["sphere", "patch", "torus"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_closed_form_singular_values_match_the_loop_oracle(src, tgt, seed):
    """The 2x2 closed-form singular values of the whitened Jacobian, from
    the diagonal metric factors, equal per-node LAPACK ones from the full
    metrics to 1e-13 of sigma_max, and give the same rank, for full-rank,
    rank-1 and zero Jacobians."""
    source, target = _geometry_from_label(src), _geometry_from_label(tgt)
    rng = np.random.default_rng(seed)
    count = 24
    x, y = interior_points(source, rng, count), interior_points(target, rng, count)
    jac = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((count, 2, 2))
    rank = rng.integers(0, 3, count)               # the Jacobian's rank at each node
    jac[rank == 1] = jac[rank == 1, :, :1] * rng.standard_normal((np.sum(rank == 1), 1, 2))
    jac[rank == 0] = 0.0
    sv = _singular_values_2x2(_whitened(source.metric_diagonal(x), target.metric_diagonal(y), jac))
    g, gt = source.metric(x), target.metric(y)
    want = np.array([loop_whitened_singular_values(g[i], gt[i], jac[i]) for i in range(count)])
    assert np.all(np.abs(sv - want) <= 1e-13 * want[:, :1])
    assert np.all(sv[rank == 0] == 0.0)
    tol = fh.RigidityTolerances().rank_tol_rel * np.max(want)
    assert np.array_equal(np.sum(sv > tol, axis=-1), np.sum(want > tol, axis=-1))
    assert np.array_equal(np.sum(want > tol, axis=-1), rank)


# entries below 1e50: no product of the contractions overflows
_ENTRY = st.floats(min_value=-1e50, max_value=1e50)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["sphere", "patch", "torus"]), st.integers(min_value=1, max_value=2),
       st.booleans(), st.data())
def test_closed_form_contractions_equal_the_dense_route(label, p, source_metric, data):
    """At points anywhere in the sphere band, the hyperbolic patch and the
    flat torus, the geometry's closed forms of |v|^2, |d_T phi|^2, |S|^2 and
    the Christoffel term equal, bit for bit, the dense ``contract`` of its
    full ``metric`` and ``christoffel`` arrays, for random finite v, D and S
    and an identity or a random diagonal source metric_inv h, whose dense
    side is the full matrix.

    ``np.array_equal`` counts -0.0 equal to 0.0: the closed forms leave out
    the products with zero entries, which the dense route adds, so a result
    that is zero may differ from it in the sign of that zero, and in nothing
    else.  Entries stay below 1e50, because where a product overflows the
    dense route's 0 * inf is nan and the closed form keeps the inf."""
    geom = _geometry_from_label(label)
    count, q = 5, geom.dim
    bounds = np.asarray(geom.chart_bounds, dtype=float)
    frac = data.draw(hnp.arrays(float, (count, q), elements=st.floats(0.0, 1.0)))
    points = bounds[:, 0] + frac * (bounds[:, 1] - bounds[:, 0])
    v = data.draw(hnp.arrays(float, (count, q), elements=_ENTRY))
    D = data.draw(hnp.arrays(float, (count, q, p), elements=_ENTRY))
    S = data.draw(hnp.arrays(float, (count, q, p, p), elements=_ENTRY))
    h = (data.draw(hnp.arrays(float, (count, p), elements=_ENTRY)) if source_metric
         else np.ones((count, p)))
    dense_h = np.eye(p) * h[..., None, :]

    g = geom.metric_diagonal(points)
    assert np.array_equal(geom.norm_sq(g, v), dense_norm_sq(geom, points, v))
    assert np.array_equal(geom.dT_norm_sq(g, D, h), dense_dT_norm_sq(geom, points, D, dense_h))
    assert np.array_equal(geom.form_norm_sq(g, S, h), dense_form_norm_sq(geom, points, S, dense_h))
    term = geom.christoffel_term(points, D)
    dense = dense_christoffel_term(geom, points, D)
    assert np.array_equal(np.zeros_like(dense) if term is None else term, dense)
