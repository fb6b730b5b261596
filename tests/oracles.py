"""Independent oracles for the test suite.

Everything here is deliberately written with explicit index loops and its own
integrators so that it shares no contraction helpers with the package code
it checks.  The dense reference is ``contract``: the left-to-right pairwise
fold of ``np.einsum``'s sum over every entry of its operands, zeros
included, which contracts the full ``metric``, ``dense_metric_inv`` and
``dense_christoffel`` arrays and so checks the package's closed forms, which
leave out the zero entries.
"""

from __future__ import annotations

from itertools import product
from math import isfinite, sqrt

import numpy as np

from folharm.errors import FlowDivergedError, InvalidMapError, StepTooLargeError
from folharm.grid import grad_B, hessian_scalar, integrate
from folharm.maps import _second_form


def dense_metric_inv(geom, points):
    """g^ab (..., q, q) at ``points``, from the geometry's inverse diagonal."""
    return geom.metric_inv_diagonal(points)[..., None] * np.eye(geom.dim)


def dense_christoffel(geom, points):
    """Gamma^c_{ab} (..., q, q, q), indexed [..., c, a, b], zeros included."""
    out = np.zeros(np.shape(points)[:-1] + (geom.dim,) * 3)
    for index, value in geom.christoffel_symbols(points).items():
        out[(..., *index)] = value
    return out


def contract(spec, *operands):
    """np.einsum(spec, *operands) for float operands and explicit specs whose
    ``...`` leads a term, as a left-to-right pairwise fold.

    Each pairwise product keeps the indices that a later operand or the
    output names, in the order they first appear, and sums the others, one
    product of component views per term, adding the terms in index order.
    A single operand is folded with an exact 1.  Malformed specs raise
    ValueError.
    """
    inputs, arrow, output = spec.replace(" ", "").partition("->")
    terms, out = inputs.split(","), output.removeprefix("...")
    if len(operands) == 1:
        terms, operands = terms + [""], (*operands, 1.0)
    ops = [np.asarray(x, dtype=float) for x in operands]
    if not arrow or len(terms) != len(ops):
        raise ValueError(f"contract: {spec!r} needs '->' and one term per operand")
    sizes, batches = {}, []
    for term, x in zip(terms, ops):
        letters = term.removeprefix("...")
        batches.append(x.shape[:x.ndim - len(letters)])
        if x.ndim < len(letters) or (batches[-1] and letters == term):
            raise ValueError(f"contract: term {term!r} does not fit shape {x.shape}")
        for c, n in zip(letters, x.shape[x.ndim - len(letters):]):
            if sizes.setdefault(c, n) != n:
                raise ValueError(f"contract: index {c!r} has sizes {sizes[c]} and {n}")
    batch = np.broadcast_shapes(*batches)
    if (batch and out == output) or not set(out) <= set(sizes):
        raise ValueError(f"contract: bad output {output!r} for {spec!r}")

    def components(term, x):      # {values of the distinct letters: component view}
        letters = term.removeprefix("...")
        uniq = tuple(dict.fromkeys(letters))
        return uniq, {v: x[(..., *(v[uniq.index(c)] for c in letters))]
                      for v in product(*(range(sizes[c]) for c in uniq))}

    acc, A = components(terms[0], ops[0])
    for k in range(1, len(terms)):
        rhs, B = components(terms[k], ops[k])
        both = acc + tuple(c for c in rhs if c not in acc)
        later = set(out).union(*(t.removeprefix("...") for t in terms[k + 1:]))
        keep = tuple(out) if k == len(terms) - 1 else tuple(c for c in both if c in later)
        names, sums = keep + tuple(c for c in both if c not in keep), {}
        for v in product(*(range(sizes[c]) for c in names)):
            at = dict(zip(names, v))
            p = A[tuple(at[c] for c in acc)] * B[tuple(at[c] for c in rhs)]
            sums[v[:len(keep)]] = p if v[:len(keep)] not in sums else sums[v[:len(keep)]] + p
        acc, A = keep, sums
    result = np.empty(batch + tuple(sizes[c] for c in out))
    for v, value in A.items():
        result[(..., *v)] = value
    return result


def rk4_geodesic(geom, point, v, nsteps=200):
    """Endpoint of the geodesic with initial data (point, v) at time 1.

    Classical RK4 on the first-order system x' = u, u' = -Gamma(x)(u, u),
    using only the closed-form Christoffel symbols.
    """
    q = geom.dim

    def acc(x, u):
        gam = dense_christoffel(geom, x)
        a = np.zeros(q)
        for c in range(q):
            for i in range(q):
                for j in range(q):
                    a[c] -= gam[c, i, j] * u[i] * u[j]
        return a

    x = np.array(point, dtype=float)
    u = np.array(v, dtype=float)
    h = 1.0 / nsteps
    for _ in range(nsteps):
        k1x, k1u = u, acc(x, u)
        k2x, k2u = u + 0.5 * h * k1u, acc(x + 0.5 * h * k1x, u + 0.5 * h * k1u)
        k3x, k3u = u + 0.5 * h * k2u, acc(x + 0.5 * h * k2x, u + 0.5 * h * k2u)
        k4x, k4u = u + h * k3u, acc(x + h * k3x, u + h * k3u)
        x = x + (h / 6) * (k1x + 2 * k2x + 2 * k3x + k4x)
        u = u + (h / 6) * (k1u + 2 * k2u + 2 * k3u + k4u)
    return x


def analytic_second_form(psi, points):
    """The closed-form second fundamental form of an ``AnalyticMap`` at source
    points, through the package's one second-form formula."""
    return _second_form(psi.hess(points), psi.jac(points), psi.source.christoffel_symbols(points),
                        psi.target.christoffel_symbols(psi.func(points)))


def loop_second_form(source, target, point, jac, hess, value):
    """Second fundamental form at one point by explicit index loops."""
    q, qp = source.dim, target.dim
    gam_src = dense_christoffel(source, point)
    gam_tgt = dense_christoffel(target, value)
    S = np.zeros((qp, q, q))
    for g in range(qp):
        for a in range(q):
            for b in range(q):
                s = hess[g, a, b]
                for c in range(q):
                    s -= gam_src[c, a, b] * jac[g, c]
                for al in range(qp):
                    for be in range(qp):
                        s += gam_tgt[g, al, be] * jac[al, a] * jac[be, b]
                S[g, a, b] = s
    return S


def loop_tension(source, target, point, jac, hess, value):
    q, qp = source.dim, target.dim
    gi = np.linalg.inv(source.metric(point))
    S = loop_second_form(source, target, point, jac, hess, value)
    tau = np.zeros(qp)
    for g in range(qp):
        for a in range(q):
            for b in range(q):
                tau[g] += gi[a, b] * S[g, a, b]
    return tau


def loop_bochner(source, target, point, jac, value):
    """Ricci-minus-curvature contraction at one point, explicit loops."""
    q, qp = source.dim, target.dim
    gi = np.linalg.inv(source.metric(point))
    gt = target.metric(value)
    ric = source.ricci(point)
    riem = target.riemann(value)
    ric_part = 0.0
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    for s in range(qp):
                        for t in range(qp):
                            ric_part += (
                                gi[a, b] * gi[c, d] * ric[d, a]
                                * gt[s, t] * jac[s, c] * jac[t, b]
                            )
    curv_part = 0.0
    for a in range(q):
        for x in range(q):
            for b in range(q):
                for y in range(q):
                    for s in range(qp):
                        for t in range(qp):
                            for u in range(qp):
                                for v in range(qp):
                                    curv_part += (
                                        gi[a, x] * gi[b, y]
                                        * riem[s, t, u, v]
                                        * jac[s, b] * jac[t, a]
                                        * jac[u, x] * jac[v, y]
                                    )
    return ric_part - curv_part


def loop_whitened_singular_values(g, gt, jac):
    """Singular values, largest first, of the whitened Jacobian
    L'^T jac L^{-T} at one point with source and target metrics g = L L^T
    and g' = L' L'^T there: LAPACK Cholesky factors and SVD, the product by
    explicit index loops."""
    q, qp = g.shape[-1], gt.shape[-1]
    L_inv = np.linalg.inv(np.linalg.cholesky(g))
    Lt = np.linalg.cholesky(gt)
    A = np.zeros((qp, q))
    for s in range(qp):
        for a in range(q):
            for t in range(qp):
                for b in range(q):
                    A[s, a] += Lt[t, s] * jac[t, b] * L_inv[a, b]
    return np.linalg.svd(A, compute_uv=False)


def _layer(f, axis, i):
    idx = [slice(None)] * f.ndim
    idx[axis] = i
    return tuple(idx)


def seam_diff1(grid, f, axis):
    """First partial along one axis: interior central differences, then the
    two seam layers of a periodic axis (or the one-sided boundary stencils of
    a fixed axis) assigned one at a time."""
    def at(i):
        return f[_layer(f, axis, i)]

    out = np.empty_like(f, dtype=float)
    out[_layer(f, axis, slice(1, -1))] = at(slice(2, None)) - at(slice(None, -2))
    if grid.periodic[axis]:
        out[_layer(f, axis, 0)] = at(1) - at(-1)
        out[_layer(f, axis, -1)] = at(0) - at(-2)
    else:
        out[_layer(f, axis, 0)] = -3 * at(0) + 4 * at(1) - at(2)
        out[_layer(f, axis, -1)] = 3 * at(-1) - 4 * at(-2) + at(-3)
    out /= 2 * grid.spacing[axis]
    return out


def seam_diff2(grid, f, axis):
    """Second partial along one axis, seam layers assigned as in seam_diff1."""
    def at(i):
        return f[_layer(f, axis, i)]

    out = np.empty_like(f, dtype=float)
    out[_layer(f, axis, slice(1, -1))] = (
        at(slice(2, None)) - 2 * at(slice(1, -1)) + at(slice(None, -2))
    )
    if grid.periodic[axis]:
        out[_layer(f, axis, 0)] = at(1) - 2 * at(0) + at(-1)
        out[_layer(f, axis, -1)] = at(0) - 2 * at(-1) + at(-2)
    else:
        out[_layer(f, axis, 0)] = 2 * at(0) - 5 * at(1) + 4 * at(2) - at(3)
        out[_layer(f, axis, -1)] = 2 * at(-1) - 5 * at(-2) + 4 * at(-3) - at(-4)
    out /= grid.spacing[axis] ** 2
    return out


def trapezoid_integral_1d(f, lo, hi, n=4096):
    """Plain trapezoid quadrature of a callable on [lo, hi]."""
    x = np.linspace(lo, hi, n + 1)
    return np.trapezoid(f(x), x)


# -- the dense route: every entry of metric and christoffel, zeros included --


def dense_norm_sq(geom, points, v):
    """|v|^2 = g_st v^s v^t."""
    return contract("...s,...st,...t->...", v, geom.metric(points), v)


def dense_pairing(geom, points, E, D, h):
    """<E, D> = g_ts E^s_a h^ab D^t_b for a source inverse metric h; |D|^2 for E = D."""
    return contract("...ts,...sa,...ab,...tb->...", geom.metric(points), E, h, D)


def dense_form_norm_sq(geom, points, S, h):
    """|S|^2 = g_gd (S^g h)_ac (S^d h)_ca for a source inverse metric h."""
    Sh = contract("...gab,...bc->...gac", S, h)
    return contract("...gac,...dca,...gd->...", Sh, Sh, geom.metric(points))


def dense_christoffel_term(geom, points, D):
    """Gamma^g_st D^s_a D^t_b."""
    return contract("...gst,...tb,...sa->...gab", dense_christoffel(geom, points), D, D)


def stencil_symbol(grid):
    """sum_a (4 / h_a^2) sin^2(k_a h_a / 2) at each Fourier mode of a periodic
    grid, k_a = 2 pi fftfreq(n_a, h_a), one node at a time, added in order
    of a."""
    per_axis = []
    for n, h in zip(grid.shape, grid.spacing):
        s = np.sin(2 * np.pi * np.fft.fftfreq(n, h) * h / 2)
        per_axis.append(4 / h**2 * s * s)
    out = np.empty(grid.shape)
    for i in np.ndindex(grid.shape):
        total = 0.0
        for a, j in enumerate(i):
            total += per_axis[a][j]
        out[i] = total
    return out


def dense_flow(mapf, struct, config, preconditioned=False):
    """``run_flow``'s iteration, step size policy and checks, with every
    contraction on the dense route.  With ``preconditioned`` each step
    vector dt tau is divided, mode by mode of one FFT over the source axes,
    by 1 + dt ``stencil_symbol``.  Returns the final map values and the
    trace rows (step, E, max|tau|, max|S|, max|d_T phi|^2)."""
    grid, target = mapf.grid, mapf.target
    h = dense_metric_inv(grid.geometry, grid.points)
    gamma = dense_christoffel(grid.geometry, grid.points)
    axes = tuple(range(grid.dim))
    symbol = stencil_symbol(grid) if preconditioned else None

    def evaluate(field):
        values, f = field.values, field.periodic_part
        D = grad_B(grid, f) + field.linear_slope
        S = (hessian_scalar(grid, f) - contract("...gc,...cab->...gab", D, gamma)
             + dense_christoffel_term(target, values, D))
        d2 = dense_pairing(target, values, D, D, h)
        return {"tau": contract("...ab,...gab->...g", h, S), "S": S, "d2": d2,
                "E": integrate(grid, 0.5 * d2, "base_volume")}

    def accept(step, field, q):
        if not isfinite(q["E"]):
            raise FlowDivergedError(f"energy {q['E']!r} at step {step} is not finite")
        tau_max = float(np.sqrt(dense_norm_sq(target, field.values, q["tau"]).max()))
        S_max = sqrt(max(float(dense_form_norm_sq(target, field.values, q["S"], h).max()), 0.0))
        rows.append((step, q["E"], tau_max, S_max, float(q["d2"].max())))
        return tau_max

    dt, rows, step = config.resolve_dt(grid), [], 0
    field, q = mapf, evaluate(mapf)
    tau_max = accept(0, field, q)
    while tau_max > config.tension_tol and step < config.max_steps:
        v = dt * q["tau"]
        if preconditioned:
            v = np.fft.ifftn(np.fft.fftn(v, axes=axes) / (1 + dt * symbol)[..., None],
                             axes=axes).real
        else:
            v = np.where(grid.boundary_mask[..., None], 0.0, v)
        try:
            candidate = field.replace_values(target.exp(field.values, v))
        except (StepTooLargeError, InvalidMapError):
            rejected = True
        else:
            q_c = evaluate(candidate)
            rejected = q_c["E"] > q["E"]
        if rejected:
            dt *= 0.5
            if dt < config.dt_min:
                break
            continue
        step += 1
        field, q = candidate, q_c
        tau_max = accept(step, field, q)
    return field.values, rows
