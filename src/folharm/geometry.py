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

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, StepTooLargeError
from .tensor import contract

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

    Subclasses fill in ``metric``, ``metric_inv``, ``sqrt_det``,
    ``christoffel`` and ``exp`` with closed forms; curvature comes from the
    constant-curvature formula R_{abcd} = K (g_{bc} g_{ad} - g_{ac} g_{bd}).
    """

    kind: str
    dim: int
    curvature_constant: float
    chart_bounds: np.ndarray      # (q, 2)
    periodic: tuple[bool, ...]    # per-axis boundary tag
    injectivity_cap: float
    # True when the chart's Christoffel symbols vanish identically, so the
    # connection terms of the map derivatives can be skipped
    christoffel_vanishes: bool = False

    # -- pointwise closed forms -------------------------------------------

    def metric(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def christoffel(self, points: np.ndarray) -> np.ndarray:
        """Gamma^c_{ab}, indexed [..., c, a, b]."""
        raise NotImplementedError

    def riemann(self, points: np.ndarray) -> np.ndarray:
        """Fully covariant R_{abcd}, indexed [..., a, b, c, d]."""
        g = self.metric(points)
        return self.curvature_constant * (contract("...bc,...ad->...abcd", g, g)
                                          - contract("...ac,...bd->...abcd", g, g))

    def ricci(self, points: np.ndarray) -> np.ndarray:
        """Ricci as a bilinear form, Ric_{bc} = g^{ad} R_{abcd}; for constant
        curvature K this contraction is (q - 1) K g."""
        return (self.dim - 1) * self.curvature_constant * self.metric(points)

    def sectional(self, point: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
        g = self.metric(point)
        R = self.riemann(point)
        num = contract("...abcd,...a,...b,...c,...d->...", R, X, Y, Y, X)
        gXX = contract("...a,...ab,...b->...", X, g, X)
        gYY = contract("...a,...ab,...b->...", Y, g, Y)
        gXY = contract("...a,...ab,...b->...", X, g, Y)
        return num / (gXX * gYY - gXY**2)

    # -- chart bookkeeping -------------------------------------------------

    def axis_periods(self) -> np.ndarray:
        """Period of each chart axis; 0 on fixed axes."""
        periods = np.zeros(self.dim)
        for a in range(self.dim):
            if self.periodic[a]:
                lo, hi = self.chart_bounds[a]
                periods[a] = hi - lo
        return periods

    def contains(self, points: np.ndarray) -> np.ndarray:
        """True where the point lies in the (closed) chart box, up to
        ``_CHART_TOL``.

        Periodic axes are unconstrained (lift coordinates are allowed).
        """
        points = np.asarray(points, dtype=float)
        ok = np.ones(points.shape[:-1], dtype=bool)
        for a in range(self.dim):
            if self.periodic[a]:
                continue
            lo, hi = self.chart_bounds[a]
            ok &= (points[..., a] >= lo - _CHART_TOL) & (points[..., a] <= hi + _CHART_TOL)
        return ok

    def require_valid(self, points: np.ndarray) -> None:
        if not np.all(self.contains(points)):
            raise DomainError(f"point outside {self.kind} chart domain")

    def norm(self, points: np.ndarray, v: np.ndarray) -> np.ndarray:
        """|v|_g = sqrt(g_ab v^a v^b) at each point."""
        return np.sqrt(contract("...a,...ab,...b->...", v, self.metric(points), v))

    # -- exponential map ---------------------------------------------------

    def exp(self, points: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Endpoint of the geodesic from ``points`` with initial velocity ``v``.

        Periodic coordinates stay on the continuous lift through ``points``
        (they are not wrapped into the chart box), so the winding data of a
        map survives a heat-flow update.
        """
        raise NotImplementedError

    def check_cap(self, points: np.ndarray, v: np.ndarray) -> None:
        n = self.norm(points, v)
        if np.any(n > self.injectivity_cap):
            raise StepTooLargeError(
                f"exp step |v| = {float(np.max(n)):.3g} exceeds injectivity cap "
                f"{self.injectivity_cap:.3g} for {self.kind}; shrink dt"
            )


class FlatTorus(TransverseGeometry):
    """Flat torus R^q / (P_1 Z x ... x P_q Z) with the Euclidean metric."""

    kind = "flat_torus"
    christoffel_vanishes = True

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

    # constant fields are read-only broadcast views, nothing grid-sized is allocated
    def metric(self, points):
        return _identity_field(self.dim, np.shape(points)[:-1])

    def metric_inv(self, points):
        return self.metric(points)

    def christoffel(self, points):
        return np.broadcast_to(0.0, np.shape(points)[:-1] + (self.dim,) * 3)

    def sqrt_det(self, points):
        return np.broadcast_to(1.0, np.shape(points)[:-1])

    def riemann(self, points):
        return np.broadcast_to(0.0, np.shape(points)[:-1] + (self.dim,) * 4)

    def exp(self, points, v):
        points = np.asarray(points, dtype=float)
        v = np.asarray(v, dtype=float)
        self.check_cap(points, v)
        return points + v


@lru_cache(maxsize=64)
def _identity_field(q: int, shape: tuple) -> np.ndarray:
    """The (q, q) identity at nodes of ``shape``: one read-only view per shape."""
    return np.broadcast_to(np.eye(q), shape + (q, q))


class RoundSphere(TransverseGeometry):
    """Round 2-sphere of radius r, chart (theta, phi), polar caps excluded."""

    kind = "round_sphere"

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

    def contains(self, points):
        ok = super().contains(points)
        theta = np.asarray(points, dtype=float)[..., 0]
        ok &= (theta > _CHART_TOL) & (theta < np.pi - _CHART_TOL)   # poles are never valid
        return ok

    def metric(self, points):
        points = np.asarray(points, dtype=float)
        theta = points[..., 0]
        out = np.zeros(points.shape[:-1] + (2, 2))
        out[..., 0, 0] = self.radius**2
        out[..., 1, 1] = (self.radius * np.sin(theta)) ** 2
        return out

    def metric_inv(self, points):
        points = np.asarray(points, dtype=float)
        theta = points[..., 0]
        out = np.zeros(points.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 / self.radius**2
        out[..., 1, 1] = 1.0 / (self.radius * np.sin(theta)) ** 2
        return out

    def sqrt_det(self, points):
        theta = np.asarray(points, dtype=float)[..., 0]
        return self.radius**2 * np.abs(np.sin(theta))

    def christoffel(self, points):
        points = np.asarray(points, dtype=float)
        theta = points[..., 0]
        out = np.zeros(points.shape[:-1] + (2, 2, 2))
        out[..., 0, 1, 1] = -np.sin(theta) * np.cos(theta)   # Gamma^th_{ph ph}
        cot = np.cos(theta) / np.sin(theta)
        out[..., 1, 0, 1] = cot                              # Gamma^ph_{th ph}
        out[..., 1, 1, 0] = cot
        return out

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
        self.check_cap(points, v)
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

    def contains(self, points):
        ok = super().contains(points)
        ok &= np.asarray(points, dtype=float)[..., 1] > _CHART_TOL
        return ok

    def metric(self, points):
        points = np.asarray(points, dtype=float)
        y = points[..., 1]
        out = np.zeros(points.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 / y**2
        out[..., 1, 1] = 1.0 / y**2
        return out

    def metric_inv(self, points):
        points = np.asarray(points, dtype=float)
        y = points[..., 1]
        out = np.zeros(points.shape[:-1] + (2, 2))
        out[..., 0, 0] = y**2
        out[..., 1, 1] = y**2
        return out

    def sqrt_det(self, points):
        y = np.asarray(points, dtype=float)[..., 1]
        return 1.0 / y**2

    def christoffel(self, points):
        points = np.asarray(points, dtype=float)
        y = points[..., 1]
        inv_y = 1.0 / y
        out = np.zeros(points.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 1] = -inv_y      # Gamma^x_{xy}
        out[..., 0, 1, 0] = -inv_y
        out[..., 1, 0, 0] = inv_y       # Gamma^y_{xx}
        out[..., 1, 1, 1] = -inv_y      # Gamma^y_{yy}
        return out

    def exp(self, points, v):
        # Work at the basepoint i: w -> (w - x)/y maps z to i isometrically and
        # scales velocities by 1/y; a rotation about i sends the direction to
        # vertical, where the geodesic is w(t) = i e^{st}.
        points = np.asarray(points, dtype=float)
        v = np.asarray(v, dtype=float)
        self.require_valid(points)
        self.check_cap(points, v)
        x, y = points[..., 0], points[..., 1]
        s = np.hypot(v[..., 0], v[..., 1]) / y     # hyperbolic speed
        alpha = np.arctan2(v[..., 1], v[..., 0])
        th = (np.pi / 2 - alpha) / 2.0             # Moebius K_th rotates by 2*th
        w1 = 1j * np.exp(s)
        c, sn = np.cos(th), np.sin(th)
        w2 = (c * w1 - sn) / (sn * w1 + c)
        z = y * w2 + x
        out = np.stack([np.real(z), np.imag(z)], axis=-1)
        return np.where((s == 0)[..., None], points, out)


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
    try:
        return cls(**spec)
    except TypeError as exc:
        raise ConfigurationError(f"invalid parameters for {kind}: {exc}") from exc

