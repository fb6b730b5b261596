"""Named analytic map families and variation fields.

Every family carries closed-form Jacobian and Hessian so tests and identity
checks can compare finite-difference quantities against exact ones.  The
shipped names (usable from experiment configs) are:

* ``identity``          chart identity between identical charts
* ``linear``            integer-winding linear map between flat tori
* ``sine_perturbation`` identity plus sinusoidal modes on a flat torus
* ``latitude_circle``   circle -> sphere, x |-> (theta_c, x)
* ``band_wave``         2-torus -> sphere band with a sinusoidal latitude
* ``sine_into_patch``   2-torus -> hyperbolic patch, smooth null-homotopic
* ``constant``          everything to one target point
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .geometry import FlatTorus, HyperbolicPatch, RoundSphere, TransverseGeometry
from .grid import GridChart
from .maps import AnalyticMap, same_chart

__all__ = ["make_family", "variation_field", "FAMILY_NAMES"]

FAMILY_NAMES = (
    "identity",
    "linear",
    "sine_perturbation",
    "latitude_circle",
    "band_wave",
    "sine_into_patch",
    "constant",
)


def _identity(source, target, params):
    if params:
        raise ConfigurationError(f"identity: unknown params {params}")
    if not same_chart(source, target):
        raise ConfigurationError("identity: source and target charts must match")
    q = source.dim
    winding = np.zeros((q, q), dtype=int)
    for a in range(q):
        if source.periodic[a] and target.periodic[a]:
            winding[a, a] = 1
    return AnalyticMap(
        source, target,
        func=lambda x: np.asarray(x, dtype=float).copy(),
        jac=lambda x: np.broadcast_to(
            np.eye(q), np.asarray(x).shape[:-1] + (q, q)).copy(),
        hess=lambda x: np.zeros(np.asarray(x).shape[:-1] + (q, q, q)),
        winding=winding,
    )


def _linear(source, target, params):
    if not isinstance(source, FlatTorus) or not isinstance(target, FlatTorus):
        raise ConfigurationError("linear: needs flat tori on both sides")
    matrix = np.asarray(params.pop("matrix", np.eye(target.dim, source.dim)), dtype=float)
    offset = np.asarray(params.pop("offset", np.zeros(target.dim)), dtype=float)
    if params:
        raise ConfigurationError(f"linear: unknown params {params}")
    if matrix.shape != (target.dim, source.dim):
        raise ConfigurationError(
            f"linear: matrix must be {(target.dim, source.dim)}, got {matrix.shape}"
        )
    if not np.all(matrix == np.round(matrix)):
        raise ConfigurationError("linear: winding matrix entries must be integers")
    winding = matrix.astype(int)
    slope = winding * np.asarray(target.periods)[:, None] / np.asarray(source.periods)[None, :]

    def func(x):
        return np.einsum("ca,...a->...c", slope, np.asarray(x, dtype=float)) + offset

    return AnalyticMap(
        source, target,
        func=func,
        jac=lambda x: np.broadcast_to(slope, np.asarray(x).shape[:-1] + slope.shape).copy(),
        hess=lambda x: np.zeros(
            np.asarray(x).shape[:-1] + (target.dim, source.dim, source.dim)),
        winding=winding,
    )


def _parse_modes(params, q, default_amplitude):
    """Modes as (component, integer wavevector, amplitude, phase) tuples."""
    amplitude = float(params.pop("amplitude", default_amplitude))
    modes = params.pop("modes", None)
    if modes is None:
        modes = [[a, [1 if b == a else 0 for b in range(q)], amplitude, 0.0]
                 for a in range(q)]
    parsed = []
    for m in modes:
        m = list(m)
        if len(m) == 2:
            m += [amplitude, 0.0]
        elif len(m) == 3:
            m += [0.0]
        comp, kvec, amp, phase = m
        kvec = np.asarray(kvec, dtype=float)
        if kvec.shape != (q,):
            raise ConfigurationError(f"mode wavevector must have {q} entries")
        parsed.append((int(comp), kvec, float(amp), float(phase)))
    return parsed


def _sine_perturbation(source, target, params):
    if not isinstance(source, FlatTorus) or not same_chart(source, target):
        raise ConfigurationError(
            "sine_perturbation: needs identical flat tori on both sides"
        )
    q = source.dim
    modes = _parse_modes(params, q, default_amplitude=0.1)
    if params:
        raise ConfigurationError(f"sine_perturbation: unknown params {params}")
    omega = 2 * np.pi / source.axis_periods()
    winding = np.eye(q, dtype=int)

    def func(x):
        x = np.asarray(x, dtype=float)
        out = x.copy()
        for comp, k, amp, phase in modes:
            s = np.einsum("a,...a->...", k * omega, x) + phase
            out[..., comp] += amp * np.sin(s)
        return out

    def jac(x):
        x = np.asarray(x, dtype=float)
        J = np.broadcast_to(np.eye(q), x.shape[:-1] + (q, q)).copy()
        for comp, k, amp, phase in modes:
            s = np.einsum("a,...a->...", k * omega, x) + phase
            J[..., comp, :] += amp * np.cos(s)[..., None] * (k * omega)
        return J

    def hess(x):
        x = np.asarray(x, dtype=float)
        H = np.zeros(x.shape[:-1] + (q, q, q))
        for comp, k, amp, phase in modes:
            s = np.einsum("a,...a->...", k * omega, x) + phase
            kw = k * omega
            H[..., comp, :, :] += (
                -amp * np.sin(s)[..., None, None] * np.outer(kw, kw)
            )
        return H

    return AnalyticMap(source, target, func, jac, hess, winding)


def _latitude_circle(source, target, params):
    theta_c = float(params.pop("theta", np.pi / 4))
    if params:
        raise ConfigurationError(f"latitude_circle: unknown params {params}")
    if not isinstance(source, FlatTorus) or source.dim != 1:
        raise ConfigurationError("latitude_circle: source must be a 1-torus")
    if not isinstance(target, RoundSphere):
        raise ConfigurationError("latitude_circle: target must be a sphere")
    slope = 2 * np.pi / source.periods[0]
    winding = np.array([[0], [1]], dtype=int)

    def func(x):
        x = np.asarray(x, dtype=float)
        return np.stack(
            [np.full(x.shape[:-1], theta_c), slope * x[..., 0]], axis=-1
        )

    def jac(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (2, 1))
        J[..., 1, 0] = slope
        return J

    return AnalyticMap(
        source, target, func, jac,
        hess=lambda x: np.zeros(np.asarray(x).shape[:-1] + (2, 1, 1)),
        winding=winding,
    )


def _band_wave(source, target, params):
    theta_c = float(params.pop("theta", np.pi / 2))
    amp = float(params.pop("amplitude", 0.3))
    kvec = np.asarray(params.pop("kvec", [1, 1]), dtype=float)
    if params:
        raise ConfigurationError(f"band_wave: unknown params {params}")
    if not isinstance(source, FlatTorus) or source.dim != 2:
        raise ConfigurationError("band_wave: source must be a 2-torus")
    if not isinstance(target, RoundSphere):
        raise ConfigurationError("band_wave: target must be a sphere")
    omega = 2 * np.pi / source.axis_periods()
    kw = kvec * omega
    phi_slope = omega[1]
    winding = np.array([[0, 0], [0, 1]], dtype=int)

    def func(x):
        x = np.asarray(x, dtype=float)
        s = np.einsum("a,...a->...", kw, x)
        return np.stack(
            [theta_c + amp * np.sin(s), phi_slope * x[..., 1]], axis=-1
        )

    def jac(x):
        x = np.asarray(x, dtype=float)
        s = np.einsum("a,...a->...", kw, x)
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, :] = amp * np.cos(s)[..., None] * kw
        J[..., 1, 1] = phi_slope
        return J

    def hess(x):
        x = np.asarray(x, dtype=float)
        s = np.einsum("a,...a->...", kw, x)
        H = np.zeros(x.shape[:-1] + (2, 2, 2))
        H[..., 0, :, :] = -amp * np.sin(s)[..., None, None] * np.outer(kw, kw)
        return H

    return AnalyticMap(source, target, func, jac, hess, winding)


def _sine_into_patch(source, target, params):
    center = np.asarray(params.pop("center", [0.0, 1.5]), dtype=float)
    a1, a12, a2 = (float(v) for v in params.pop("amplitudes", [0.3, 0.1, 0.2]))
    if params:
        raise ConfigurationError(f"sine_into_patch: unknown params {params}")
    if not isinstance(source, FlatTorus) or source.dim != 2:
        raise ConfigurationError("sine_into_patch: source must be a 2-torus")
    if not isinstance(target, HyperbolicPatch):
        raise ConfigurationError("sine_into_patch: target must be a hyperbolic patch")
    omega = 2 * np.pi / source.axis_periods()

    def func(x):
        x = np.asarray(x, dtype=float)
        u, v = omega[0] * x[..., 0], omega[1] * x[..., 1]
        return np.stack(
            [center[0] + a1 * np.sin(u) + a12 * np.sin(u + v),
             center[1] + a2 * np.cos(v)], axis=-1
        )

    def jac(x):
        x = np.asarray(x, dtype=float)
        u, v = omega[0] * x[..., 0], omega[1] * x[..., 1]
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = (a1 * np.cos(u) + a12 * np.cos(u + v)) * omega[0]
        J[..., 0, 1] = a12 * np.cos(u + v) * omega[1]
        J[..., 1, 1] = -a2 * np.sin(v) * omega[1]
        return J

    def hess(x):
        x = np.asarray(x, dtype=float)
        u, v = omega[0] * x[..., 0], omega[1] * x[..., 1]
        H = np.zeros(x.shape[:-1] + (2, 2, 2))
        H[..., 0, 0, 0] = -(a1 * np.sin(u) + a12 * np.sin(u + v)) * omega[0] ** 2
        H[..., 0, 0, 1] = -a12 * np.sin(u + v) * omega[0] * omega[1]
        H[..., 0, 1, 0] = H[..., 0, 0, 1]
        H[..., 0, 1, 1] = -a12 * np.sin(u + v) * omega[1] ** 2
        H[..., 1, 1, 1] = -a2 * np.cos(v) * omega[1] ** 2
        return H

    return AnalyticMap(source, target, func, jac, hess,
                       winding=np.zeros((2, 2), dtype=int))


def _constant(source, target, params):
    point = params.pop("point", None)
    if params:
        raise ConfigurationError(f"constant: unknown params {params}")
    if point is None:
        point = np.mean(target.chart_bounds, axis=1)
    point = np.asarray(point, dtype=float)
    if point.shape != (target.dim,):
        raise ConfigurationError(
            f"constant: point must have {target.dim} coordinates"
        )
    qp, q = target.dim, source.dim
    return AnalyticMap(
        source, target,
        func=lambda x: np.broadcast_to(point, np.asarray(x).shape[:-1] + (qp,)).copy(),
        jac=lambda x: np.zeros(np.asarray(x).shape[:-1] + (qp, q)),
        hess=lambda x: np.zeros(np.asarray(x).shape[:-1] + (qp, q, q)),
        winding=np.zeros((qp, q), dtype=int),
    )


_FAMILIES = {
    "identity": _identity,
    "linear": _linear,
    "sine_perturbation": _sine_perturbation,
    "latitude_circle": _latitude_circle,
    "band_wave": _band_wave,
    "sine_into_patch": _sine_into_patch,
    "constant": _constant,
}


def make_family(name: str, source: TransverseGeometry,
                target: TransverseGeometry, params: dict | None = None
                ) -> AnalyticMap:
    if name not in _FAMILIES:
        raise ConfigurationError(
            f"map family: expected one of {sorted(_FAMILIES)}, got {name!r}"
        )
    return _FAMILIES[name](source, target, dict(params or {}))


def variation_field(grid: GridChart, target: TransverseGeometry,
                    spec: dict | None = None, wave=np.sin) -> np.ndarray:
    """Single-mode field V^comp = amp * wave(k . omega x + phase).

    V has ``target.dim`` components; omega is 2 pi / period on periodic
    source axes and 0 on fixed ones.  ``wave`` is ``np.sin`` for variations
    of a map and ``np.cos`` for the divergence check's vector field.
    """
    spec = dict(spec or {})
    comp = int(spec.pop("component", 0))
    amp = float(spec.pop("amplitude", 1.0))
    kvec = np.asarray(spec.pop("kvec", [1] + [0] * (grid.dim - 1)), dtype=float)
    phase = float(spec.pop("phase", 0.0))
    if spec:
        raise ConfigurationError(f"variation: unknown params {spec}")
    periods = grid.geometry.axis_periods()
    omega = np.divide(2 * np.pi, periods, out=np.zeros(grid.dim), where=periods > 0)
    s = np.einsum("a,...a->...", kvec * omega, grid.points) + phase
    V = np.zeros(grid.shape + (target.dim,))
    V[..., comp] = amp * wave(s)
    return V
