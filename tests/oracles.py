"""Independent oracles for the test suite.

Everything here is deliberately written with explicit index loops and its own
integrators so that it shares no contraction helpers with the package code
it checks.
"""

from __future__ import annotations

import numpy as np


def rk4_geodesic(geom, point, v, nsteps=200):
    """Endpoint of the geodesic with initial data (point, v) at time 1.

    Classical RK4 on the first-order system x' = u, u' = -Gamma(x)(u, u),
    using only the closed-form Christoffel symbols.
    """
    q = geom.dim

    def acc(x, u):
        gam = geom.christoffel(x)
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


def loop_second_form(source, target, point, jac, hess, value):
    """Second fundamental form at one point by explicit index loops."""
    q, qp = source.dim, target.dim
    gam_src = source.christoffel(point)
    gam_tgt = target.christoffel(value)
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


def loop_whitened_singular_values(source, target, point, jac, value):
    """Singular values, largest first, of the whitened Jacobian
    L'^T jac L^{-T} at one point, where g = L L^T and g' = L' L'^T: LAPACK
    Cholesky factors and SVD, the product by explicit index loops."""
    q, qp = source.dim, target.dim
    L_inv = np.linalg.inv(np.linalg.cholesky(source.metric(point)))
    Lt = np.linalg.cholesky(target.metric(value))
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
