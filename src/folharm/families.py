"""Named analytic map families and variation fields.

Every family is one parameter set (offset, slope, sinusoidal modes,
winding) of the closed form ``maps.AnalyticMap``, whose exact Jacobian and
Hessian let tests and identity checks compare finite-difference quantities
against exact ones.  Each builder pops the parameters it takes, and
``make_family`` rejects any left over.  The names usable in configs are:

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

from .errors import ConfigurationError, parameter_errors
from .geometry import FlatTorus, HyperbolicPatch, RoundSphere, TransverseGeometry
from .grid import GridChart
from .maps import AnalyticMap, Mode, same_chart

__all__ = ["make_family", "variation_field", "FAMILY_NAMES"]


def _identity(source, target, params):
    if not same_chart(source, target):
        raise ConfigurationError("identity: source and target charts must match")
    q = source.dim
    return np.zeros(q), np.eye(q), (), np.diag(np.asarray(source.periodic, dtype=int))


def _linear(source, target, params):
    if not isinstance(source, FlatTorus) or not isinstance(target, FlatTorus):
        raise ConfigurationError("linear: needs flat tori on both sides")
    matrix = np.asarray(params.pop("matrix", np.eye(target.dim, source.dim)), dtype=float)
    offset = params.pop("offset", np.zeros(target.dim))
    if matrix.shape != (target.dim, source.dim):
        raise ConfigurationError(
            f"linear: matrix must be {(target.dim, source.dim)}, got {matrix.shape}"
        )
    if not np.all(matrix == np.round(matrix)):
        raise ConfigurationError("linear: winding matrix entries must be integers")
    winding = matrix.astype(int)
    slope = winding * np.asarray(target.periods)[:, None] / np.asarray(source.periods)[None, :]
    return offset, slope, (), winding


def _wavevector(source, kvec):
    """Angular wavevector kvec * 2 pi / period; 0 on fixed source axes.
    A periodic axis takes whole waves only, so the field has no seam."""
    kvec = np.asarray(kvec, dtype=float)
    if kvec.shape != (source.dim,):
        raise ConfigurationError(f"mode wavevector must have {source.dim} entries")
    periods = source.axis_periods()
    if np.any((kvec != np.round(kvec)) & (periods > 0)):
        raise ConfigurationError(
            f"mode wavevector {kvec.tolist()}: entries on periodic axes must be integers"
        )
    return kvec * np.divide(2 * np.pi, periods, out=np.zeros(source.dim),
                            where=periods > 0)


def _parse_modes(params, source, default_amplitude):
    """Modes from (component, integer wavevector[, amplitude[, phase]]) lists."""
    q = source.dim
    amplitude = float(params.pop("amplitude", default_amplitude))
    modes = params.pop("modes", None)
    if modes is None:
        modes = [[a, [1 if b == a else 0 for b in range(q)]] for a in range(q)]
    parsed = []
    for m in modes:
        m = list(m)
        if len(m) == 2:
            m += [amplitude, 0.0]
        elif len(m) == 3:
            m += [0.0]
        comp, kvec, amp, phase = m
        if comp != int(comp):
            raise ValueError(f"mode component {comp!r} is not an integer")
        parsed.append(Mode(int(comp), _wavevector(source, kvec), float(amp), float(phase)))
    return tuple(parsed)


def _sine_perturbation(source, target, params):
    if not isinstance(source, FlatTorus) or not same_chart(source, target):
        raise ConfigurationError(
            "sine_perturbation: needs identical flat tori on both sides"
        )
    q = source.dim
    modes = _parse_modes(params, source, default_amplitude=0.1)
    return np.zeros(q), np.eye(q), modes, np.eye(q, dtype=int)


def _latitude_circle(source, target, params):
    theta_c = float(params.pop("theta", np.pi / 4))
    if not isinstance(source, FlatTorus) or source.dim != 1:
        raise ConfigurationError("latitude_circle: source must be a 1-torus")
    if not isinstance(target, RoundSphere):
        raise ConfigurationError("latitude_circle: target must be a sphere")
    slope = [[0.0], [2 * np.pi / source.periods[0]]]
    return [theta_c, 0.0], slope, (), [[0], [1]]


def _band_wave(source, target, params):
    theta_c = float(params.pop("theta", np.pi / 2))
    amp = float(params.pop("amplitude", 0.3))
    kvec = params.pop("kvec", [1, 1])
    if not isinstance(source, FlatTorus) or source.dim != 2:
        raise ConfigurationError("band_wave: source must be a 2-torus")
    if not isinstance(target, RoundSphere):
        raise ConfigurationError("band_wave: target must be a sphere")
    slope = [[0.0, 0.0], [0.0, 2 * np.pi / source.periods[1]]]
    mode = Mode(0, _wavevector(source, kvec), amp)
    return [theta_c, 0.0], slope, (mode,), [[0, 0], [0, 1]]


def _sine_into_patch(source, target, params):
    center = params.pop("center", [0.0, 1.5])
    a1, a12, a2 = (float(v) for v in params.pop("amplitudes", [0.3, 0.1, 0.2]))
    if not isinstance(source, FlatTorus) or source.dim != 2:
        raise ConfigurationError("sine_into_patch: source must be a 2-torus")
    if not isinstance(target, HyperbolicPatch):
        raise ConfigurationError("sine_into_patch: target must be a hyperbolic patch")
    # a cosine, not a phase-shifted sine: the two differ in the last bit
    modes = (Mode(0, _wavevector(source, [1, 0]), a1),
             Mode(0, _wavevector(source, [1, 1]), a12),
             Mode(1, _wavevector(source, [0, 1]), a2, wave="cos"))
    return center, np.zeros((2, 2)), modes, None


def _constant(source, target, params):
    point = params.pop("point", None)
    if point is None:
        point = np.mean(target.chart_bounds, axis=1)
    point = np.asarray(point, dtype=float)
    if point.shape != (target.dim,):
        raise ConfigurationError(
            f"constant: point must have {target.dim} coordinates"
        )
    return point, np.zeros((target.dim, source.dim)), (), None


_FAMILIES = {
    "identity": _identity,
    "linear": _linear,
    "sine_perturbation": _sine_perturbation,
    "latitude_circle": _latitude_circle,
    "band_wave": _band_wave,
    "sine_into_patch": _sine_into_patch,
    "constant": _constant,
}
FAMILY_NAMES = tuple(_FAMILIES)


def make_family(name: str, source: TransverseGeometry,
                target: TransverseGeometry, params: dict | None = None
                ) -> AnalyticMap:
    if name not in _FAMILIES:
        raise ConfigurationError(
            f"map family: expected one of {sorted(_FAMILIES)}, got {name!r}"
        )
    params = dict(params or {})
    with parameter_errors(name):
        offset, slope, modes, winding = _FAMILIES[name](source, target, params)
        if params:
            raise ConfigurationError(f"{name}: unknown params {params}")
        return AnalyticMap(source, target, offset, slope, modes, winding)


def variation_field(grid: GridChart, target: TransverseGeometry,
                    spec: dict | None = None, wave: str = "sin") -> np.ndarray:
    """Single-mode field V^comp = amp * wave(k . omega x + phase).

    V has ``target.dim`` components; omega is 2 pi / period on periodic
    source axes and 0 on fixed ones.  ``wave`` is ``"sin"`` for variations
    of a map and ``"cos"`` for the divergence check's vector field.
    """
    spec = dict(spec or {})
    comp = int(spec.pop("component", 0))
    amp = float(spec.pop("amplitude", 1.0))
    kvec = spec.pop("kvec", [1] + [0] * (grid.dim - 1))
    phase = float(spec.pop("phase", 0.0))
    if spec:
        raise ConfigurationError(f"variation: unknown params {spec}")
    if not 0 <= comp < target.dim:
        raise ConfigurationError(f"variation: component must be below {target.dim}")
    mode = Mode(comp, _wavevector(grid.geometry, kvec), amp, phase, wave)
    V = np.zeros(grid.shape + (target.dim,))
    V[..., comp] = mode.term(grid.points)
    return V
