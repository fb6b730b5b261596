"""Model transverse geometries: metric, connection, curvature, exponential map.

Three model local leaf spaces are provided, all with closed-form geometry:

* ``FlatTorus`` -- flat q-torus, coordinates modulo per-axis periods;
* ``RoundSphere`` -- round 2-sphere of radius r, chart (theta, phi) on the
  band theta in [theta0, pi - theta0] (polar caps excluded so Christoffel
  symbols stay bounded);
* ``HyperbolicPatch`` -- rectangle in the upper half-plane with the
  constant-curvature -1 metric (dx^2 + dy^2)/y^2.

Sign conventions (fixed once, validated downstream by curvature cross-checks):

* curvature      R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y]
* covariant      R_{abcd} = g(R(d_a, d_b) d_c, d_d)
* sectional      K(X,Y) = R(X,Y,Y,X) / (|X|^2 |Y|^2 - g(X,Y)^2),
                 normalized so the unit sphere has K = +1
* Ricci (form)   Ric_{bc} = g^{ad} R_{abcd}, so the unit 2-sphere has Ric = g.

All pointwise queries are pure, vectorized over leading axes, and safe to
evaluate concurrently; geometry objects are immutable after construction.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, StepTooLargeError, parameter_errors

__all__ = [
    "TransverseGeometry",
    "FlatTorus",
    "RoundSphere",
    "HyperbolicPatch",
    "build_geometry",
]

# slack of the chart-box test: points this far outside a fixed bound still count
_CHART_TOL = 1e-9


class TransverseGeometry:
    """Base class for the model geometry catalog.

    Every catalog metric is diagonal in its chart.  Subclasses fill in
    ``metric_diagonal`` (and ``metric_inv_diagonal`` where 1 / g_aa is not its
    closed form), ``sqrt_det``, ``christoffel_symbols`` and ``exp`` with closed
    forms; curvature comes from the constant-curvature formula
    R_{abcd} = K (g_{bc} g_{ad} - g_{ac} g_{bd}).
    """

    kind: str
    dim: int
    curvature_constant: float
    chart_bounds: np.ndarray      # (q, 2)
    periodic: tuple[bool, ...]    # per-axis boundary tag
    injectivity_cap: float
    # strict bounds of a coordinate within the chart box: axis -> (lo, hi)
    open_bounds: dict = {}

    # -- pointwise closed forms -------------------------------------------

    def metric_inv_diagonal(self, points: np.ndarray) -> np.ndarray:
        """g^aa (..., q) at ``points``: 1 / g_aa."""
        return 1.0 / self.metric_diagonal(points)

    def metric(self, points: np.ndarray) -> np.ndarray:
        """g_ab at ``points``, from its diagonal."""
        return self.metric_diagonal(points)[..., None] * np.eye(self.dim)

    def christoffel_symbols(self, points: np.ndarray) -> dict:
        """The symbols Gamma^c_{ab} that are not identically zero, as
        {(c, a, b): values}, in index order; none where they vanish."""
        return {}

    def riemann(self, points: np.ndarray) -> np.ndarray:
        """Fully covariant R_{abcd}, indexed [..., a, b, c, d]."""
        g = self.metric(points)
        return self.curvature_constant * (g[..., None, :, :, None] * g[..., :, None, None, :]
                                          - g[..., :, None, :, None] * g[..., None, :, None, :])

    def ricci(self, points: np.ndarray) -> np.ndarray:
        """Ricci as a bilinear form, Ric_{bc} = g^{ad} R_{abcd}; for constant
        curvature K this contraction is (q - 1) K g."""
        return (self.dim - 1) * self.curvature_constant * self.metric(points)

    def sectional(self, point: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
        """K(X, Y) at one point, from ``riemann`` and ``metric``."""
        g, R = self.metric(point), self.riemann(point)
        X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
        return (R @ X @ Y @ Y @ X) / ((X @ g @ X) * (Y @ g @ Y) - (X @ g @ Y) ** 2)

    # -- contractions: g is ``metric_diagonal`` g_aa (..., q) of this geometry and
    # h a grid's ``metric_inv_factor`` g^aa (..., p); each adds its terms in the
    # index order of the dense sum over every entry of the full metric and
    # Christoffel arrays, leaving out only the products with the entries that are zero.

    def norm_sq(self, g: np.ndarray, v: np.ndarray) -> np.ndarray:
        """|v|_g^2 = g_st v^s v^t of vectors v (..., q)."""
        return _total(v[..., s] * g[..., s] * v[..., s] for s in range(v.shape[-1]))

    def pairing(self, g: np.ndarray, E: np.ndarray, D: np.ndarray, h: np.ndarray) -> np.ndarray:
        """<E, D> = g_ts E^s_a h^ab D^t_b of E, D (..., q, p), one term at a time."""
        gE = E * g[..., None]
        return _total(gE[..., t, b] * h[..., b] * D[..., t, b]
                      for t, b in np.ndindex(D.shape[-2:]))

    def dT_norm_sq(self, g: np.ndarray, D: np.ndarray, h: np.ndarray) -> np.ndarray:
        """|D|^2 = g_ts D^s_a h^ab D^t_b of D (..., q, p); inf, with no warning, on overflow."""
        with np.errstate(over="ignore"):
            return self.pairing(g, D, D, h)

    def form_norm_sq(self, g: np.ndarray, S: np.ndarray, h: np.ndarray) -> np.ndarray:
        """|S|^2 = g_gd (S^g h)_ac (S^d h)_ca of second forms S (..., q, p, p)."""
        S = S * h[..., None, None, :]
        X = _total(S[..., a, c] * S[..., c, a] for a, c in np.ndindex(S.shape[-2:]))  # X_gg
        return _total(X[..., s] * g[..., s] for s in range(X.shape[-1]))

    # -- chart bookkeeping -------------------------------------------------

    def axis_periods(self) -> np.ndarray:
        """Period of each chart axis; 0 on fixed axes."""
        periods = np.zeros(self.dim)
        for a in range(self.dim):
            if self.periodic[a]:
                lo, hi = self.chart_bounds[a]
                periods[a] = hi - lo
        return periods

    @cached_property
    def _limits(self) -> tuple:
        """(axis, lo, hi, strict) bounds of the chart: the fixed box axes, then open_bounds."""
        box = tuple((a, float(lo) - _CHART_TOL, float(hi) + _CHART_TOL, False)
                    for a, (lo, hi) in enumerate(self.chart_bounds) if not self.periodic[a])
        return box + tuple((a, lo, hi, True) for a, (lo, hi) in self.open_bounds.items())

    def contains(self, points: np.ndarray) -> bool:
        """True when every point lies in the closed chart box, up to ``_CHART_TOL``, and
        in ``open_bounds``; periodic axes are unconstrained (lift coordinates)."""
        points = np.asarray(points, dtype=float)
        for a, lo, hi, strict in self._limits:
            x = points[..., a]
            low, high = np.minimum.reduce(x, None), np.maximum.reduce(x, None)
            if not ((lo < low and high < hi) if strict else (lo <= low and high <= hi)):
                return False            # also where a coordinate is nan
        return True

    def require_valid(self, points: np.ndarray) -> None:
        if not self.contains(points):
            raise DomainError(f"point outside {self.kind} chart domain")

    def norm(self, points: np.ndarray, v: np.ndarray) -> np.ndarray:
        """|v|_g at each point; inf, and no warning, where the square overflows."""
        with np.errstate(over="ignore"):
            return np.sqrt(self.norm_sq(self.metric_diagonal(points), v))

    # -- exponential map ---------------------------------------------------

    def exp(self, points: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Endpoint of the geodesic from ``points`` with initial velocity ``v``.

        Periodic coordinates stay on the continuous lift through ``points``
        (they are not wrapped into the chart box), so the winding data of a
        map survives a heat-flow update.
        """
        raise NotImplementedError

    def check_cap(self, n: np.ndarray) -> None:
        """Refuse an exp step whose lengths |v|_g = n exceed the cap."""
        if np.count_nonzero(n > self.injectivity_cap):
            raise StepTooLargeError(
                f"exp step |v| = {float(np.max(n)):.3g} exceeds injectivity cap "
                f"{self.injectivity_cap:.3g} for {self.kind}; shrink dt"
            )


class FlatTorus(TransverseGeometry):
    """Flat torus R^q / (P_1 Z x ... x P_q Z) with the Euclidean metric."""

    kind = "flat_torus"

    def __init__(self, periods: Sequence[float], injectivity_cap: float | None = None):
        periods = tuple(float(p) for p in periods)
        if len(periods) < 1:
            raise ConfigurationError("periods: need at least one axis")
        if any(p <= 0 for p in periods):
            raise ConfigurationError(f"periods: must be positive, got {periods}")
        self.periods = periods
        self.dim = len(periods)
        self.curvature_constant = 0.0
        self.chart_bounds = np.array([[0.0, p] for p in periods])
        self.periodic = tuple(True for _ in periods)
        self.injectivity_cap = (
            min(periods) / 4.0 if injectivity_cap is None else float(injectivity_cap)
        )

    # read-only broadcast views: nothing grid-sized is allocated
    def metric_diagonal(self, points):
        return np.broadcast_to(1.0, np.shape(points)[:-1] + (self.dim,))

    metric_inv_diagonal = metric_diagonal

    def sqrt_det(self, points):
        return np.broadcast_to(1.0, np.shape(points)[:-1])

    def riemann(self, points):
        return np.broadcast_to(0.0, np.shape(points)[:-1] + (self.dim,) * 4)

    def exp(self, points, v):
        points = np.asarray(points, dtype=float)
        v = np.asarray(v, dtype=float)
        self.check_cap(self.norm(points, v))
        return points + v


def _total(terms) -> np.ndarray:
    """Sum of the fresh arrays ``terms`` yields, in order, each added in place into the first."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def quadratic_term(G: dict, D: np.ndarray, E: np.ndarray, q: int) -> np.ndarray:
    """G^g_st D^s_a E^t_b (..., q, p, r) of D (..., n, p) and E (..., n, r), from the
    entries {(g, s, t): values} of G that are not identically zero, in index order,
    as the dense sum adds them: X_gs = sum_t G^g_st E^t_b, then sum_s X_gs D^s_a,
    each (g, a, b) plane of the node-major result written once."""
    p, r = D.shape[-1], E.shape[-1]
    X = {}                                          # (g, b) -> {s: X_gs^b}
    for (g, s, t), value in G.items():
        for b in range(r):
            terms = X.setdefault((g, b), {})
            term = value * E[..., t, b]
            terms[s] = term if s not in terms else terms[s] + term
    out = np.zeros(np.broadcast_shapes(D.shape[:-2], E.shape[:-2]) + (q, p, r))
    for (g, b), terms in X.items():
        for a in range(p):
            out[..., g, a, b] = _total(x * D[..., s, a] for s, x in terms.items())
    return out


def lower_christoffel(G: dict, V: np.ndarray) -> np.ndarray:
    """Gamma^c_{ab} V_c (..., q, q) of covectors V (..., q), or of each row of
    V (..., n, q), from the nonzero symbols G {(c, a, b): values}; each
    component adds its terms in order of c."""
    q = V.shape[-1]
    out = np.zeros(V.shape[:-1] + (q, q))
    for (c, a, b), value in G.items():
        out[..., a, b] += V[..., c] * value[(..., *(None,) * (V.ndim - 1 - value.ndim))]
    return out


class RoundSphere(TransverseGeometry):
    """Round 2-sphere of radius r, chart (theta, phi), polar caps excluded."""

    kind = "round_sphere"
    open_bounds = {0: (_CHART_TOL, np.pi - _CHART_TOL)}      # poles are never valid

    def __init__(self, radius: float = 1.0, cap_angle: float = 0.3,
                 injectivity_cap: float | None = None):
        radius = float(radius)
        cap_angle = float(cap_angle)
        if radius <= 0:
            raise ConfigurationError(f"radius: must be positive, got {radius}")
        if not 0.0 < cap_angle < np.pi / 2:
            raise ConfigurationError(
                f"cap_angle: must lie in (0, pi/2), got {cap_angle}"
            )
        self.radius = radius
        self.cap_angle = cap_angle
        self.dim = 2
        self.curvature_constant = 1.0 / radius**2
        self.chart_bounds = np.array(
            [[cap_angle, np.pi - cap_angle], [0.0, 2 * np.pi]]
        )
        self.periodic = (False, True)
        self.injectivity_cap = (
            radius * np.pi / 2 if injectivity_cap is None else float(injectivity_cap)
        )

    def metric_diagonal(self, points):
        g_phph = (self.radius * np.sin(np.asarray(points, dtype=float)[..., 0])) ** 2
        return np.stack((np.full_like(g_phph, self.radius**2), g_phph), axis=-1)

    def sqrt_det(self, points):
        theta = np.asarray(points, dtype=float)[..., 0]
        return self.radius**2 * np.abs(np.sin(theta))

    def christoffel_symbols(self, points):
        theta = np.asarray(points, dtype=float)[..., 0]
        sin, cos = np.sin(theta), np.cos(theta)
        cot = cos / sin
        # Gamma^th_{ph ph} = -sin cos and Gamma^ph_{th ph} = Gamma^ph_{ph th} = cot
        return {(0, 1, 1): -sin * cos, (1, 0, 1): cot, (1, 1, 0): cot}

    def embed(self, points):
        points = np.asarray(points, dtype=float)
        theta, phi = points[..., 0], points[..., 1]
        r = self.radius
        return np.stack(
            [r * np.sin(theta) * np.cos(phi),
             r * np.sin(theta) * np.sin(phi),
             r * np.cos(theta)], axis=-1)

    def exp(self, points, v):
        points = np.asarray(points, dtype=float)
        v = np.asarray(v, dtype=float)
        self.require_valid(points)
        self.check_cap(self.norm(points, v))
        r = self.radius
        theta, phi = points[..., 0], points[..., 1]
        p3 = self.embed(points)
        e_theta = np.stack(
            [r * np.cos(theta) * np.cos(phi),
             r * np.cos(theta) * np.sin(phi),
             -r * np.sin(theta)], axis=-1)
        e_phi = np.stack(
            [-r * np.sin(theta) * np.sin(phi),
             r * np.sin(theta) * np.cos(phi),
             np.zeros_like(theta)], axis=-1)
        v3 = v[..., 0, None] * e_theta + v[..., 1, None] * e_phi
        s = np.linalg.norm(v3, axis=-1)            # = |v|_g (isometric embedding)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(s[..., None] > 0, v3 / np.where(s == 0, 1.0, s)[..., None], 0.0)
        x = np.cos(s / r)[..., None] * p3 + (r * np.sin(s / r))[..., None] * unit
        theta_new = np.arccos(np.clip(x[..., 2] / r, -1.0, 1.0))
        phi_raw = np.arctan2(x[..., 1], x[..., 0])
        # keep phi on the lift closest to the first-order prediction
        phi_pred = phi + v[..., 1]
        phi_new = phi_raw + 2 * np.pi * np.round((phi_pred - phi_raw) / (2 * np.pi))
        return np.stack([theta_new, phi_new], axis=-1)


class HyperbolicPatch(TransverseGeometry):
    """Rectangle in the upper half-plane with metric (dx^2 + dy^2)/y^2 (K = -1)."""

    kind = "hyperbolic_patch"
    open_bounds = {1: (_CHART_TOL, np.inf)}

    def __init__(self, x_bounds: Sequence[float], y_bounds: Sequence[float],
                 injectivity_cap: float | None = None):
        x_bounds = (float(x_bounds[0]), float(x_bounds[1]))
        y_bounds = (float(y_bounds[0]), float(y_bounds[1]))
        if not x_bounds[0] < x_bounds[1]:
            raise ConfigurationError(f"x_bounds: need lo < hi, got {x_bounds}")
        if not 0.0 < y_bounds[0] < y_bounds[1]:
            raise ConfigurationError(
                f"y_bounds: rectangle must lie in the upper half-plane, got {y_bounds}"
            )
        self.x_bounds = x_bounds
        self.y_bounds = y_bounds
        self.dim = 2
        self.curvature_constant = -1.0
        self.chart_bounds = np.array([x_bounds, y_bounds])
        self.periodic = (False, False)
        self.injectivity_cap = 1.0 if injectivity_cap is None else float(injectivity_cap)

    def metric_diagonal(self, points):       # conformal: 1 / y^2 on both axes
        return 1.0 / np.asarray(points, dtype=float)[..., (1, 1)] ** 2

    def metric_inv_diagonal(self, points):   # y^2 on both axes
        return np.asarray(points, dtype=float)[..., (1, 1)] ** 2

    def sqrt_det(self, points):
        y = np.asarray(points, dtype=float)[..., 1]
        return 1.0 / y**2

    def christoffel_symbols(self, points):
        inv_y = 1.0 / np.asarray(points, dtype=float)[..., 1]
        m = -inv_y
        # Gamma^y_{xx} = 1/y and Gamma^x_{xy} = Gamma^x_{yx} = Gamma^y_{yy} = -1/y
        return {(0, 0, 1): m, (0, 1, 0): m, (1, 0, 0): inv_y, (1, 1, 1): m}

    def exp(self, points, v):
        # Work at the basepoint i: w -> (w - x)/y maps z to i isometrically and
        # scales velocities by 1/y; a rotation about i sends the direction to
        # vertical, where the geodesic is w(t) = i e^{st}.
        points = np.asarray(points, dtype=float)
        v = np.asarray(v, dtype=float)
        self.require_valid(points)
        x, y = points[..., 0], points[..., 1]
        with np.errstate(over="ignore"):
            s = np.hypot(v[..., 0], v[..., 1]) / y     # hyperbolic speed |v|_g
        self.check_cap(s)
        alpha = np.arctan2(v[..., 1], v[..., 0])
        th = (np.pi / 2 - alpha) / 2.0             # Moebius K_th rotates by 2*th
        w1 = 1j * np.exp(s)
        c, sn = np.cos(th), np.sin(th)
        w2 = (c * w1 - sn) / (sn * w1 + c)
        z = y * w2 + x
        out = np.asarray(z).reshape(-1).view(float).reshape(np.shape(z) + (2,))  # Re z, Im z
        zero = s == 0
        return np.where(zero[..., None], points, out) if np.count_nonzero(zero) else out


_GEOMETRY_KINDS = {
    "flat_torus": FlatTorus,
    "round_sphere": RoundSphere,
    "hyperbolic_patch": HyperbolicPatch,
}


def build_geometry(spec: dict) -> TransverseGeometry:
    """Build a catalog geometry from a plain-dict description.

    Expected keys: ``kind`` plus the constructor parameters of the model
    (``periods``; ``radius``/``cap_angle``; ``x_bounds``/``y_bounds``), and
    optionally ``injectivity_cap``.
    """
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in _GEOMETRY_KINDS:
        raise ConfigurationError(
            f"kind: expected one of {sorted(_GEOMETRY_KINDS)}, got {kind!r}"
        )
    cls = _GEOMETRY_KINDS[kind]
    with parameter_errors(kind):
        return cls(**spec)

