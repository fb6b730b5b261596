"""Transverse part of a foliated map and its first/second derivatives.

A map is stored as a grid of target-chart coordinates of a *lift*: on every
periodic source axis a the stored values satisfy
phi(b + P_a e_a) = phi(b) + W[:, a] * P', where W is an integer winding
matrix and P' the target periods.  Internally the lift splits into an exact
linear part (slope W[alpha, a] * P'_alpha / P_a) plus a periodic remainder,
which makes all stencils seam-free and keeps the homotopy class explicit.

All tensor components live in coordinate frames; traces are taken with
explicit g^{ab} contractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CompositionError, ConfigurationError, InvalidMapError
from .foliation import FoliatedStructure
from .geometry import TransverseGeometry
from .grid import GridChart, grad_B, hessian_scalar, kappa_sharp
from .tensor import contract

__all__ = [
    "FoliatedMapField",
    "AnalyticMap",
    "Mode",
    "d_T",
    "second_fund_form",
    "tension",
    "tension_sup_norm",
    "energy_density",
    "dT_norm_squared",
    "second_form_norm_squared",
    "compose",
    "delta_nabla_dT",
    "pullback_derivative",
]


def same_chart(a: TransverseGeometry, b: TransverseGeometry) -> bool:
    return (
        a.kind == b.kind
        and a.dim == b.dim
        and np.allclose(a.chart_bounds, b.chart_bounds)
        and a.periodic == b.periodic
    )


class _Lift:
    """Winding matrix and exact linear part of a lift, fixed by grid, target
    and winding.

    The winding is validated here: every field of one flow shares the same
    instance, so the winding is checked, and the slope and the linear values
    are computed, once per flow.
    """

    def __init__(self, grid: GridChart, target: TransverseGeometry,
                 winding: np.ndarray | None):
        q, qp = grid.dim, target.dim
        winding = np.zeros((qp, q), dtype=int) if winding is None else np.asarray(winding)
        if winding.shape != (qp, q):
            raise InvalidMapError(
                f"winding: expected shape {(qp, q)}, got {winding.shape}"
            )
        if not (winding == np.round(winding)).all():
            raise InvalidMapError("winding: entries must be integers")
        periods = target.axis_periods()
        for alpha in range(qp):
            if periods[alpha] == 0 and winding[alpha].any():
                raise InvalidMapError(
                    f"winding: target coordinate {alpha} is not periodic"
                )
        for a in range(q):
            if not grid.periodic[a] and winding[:, a].any():
                raise InvalidMapError(f"winding: source axis {a} is not periodic")
        self.winding = winding.astype(int)
        self.winding.flags.writeable = False
        self.grid = grid
        self.slope = np.zeros((qp, q))
        for a in range(q):
            if grid.periodic[a]:
                lo, hi = grid.geometry.chart_bounds[a]
                self.slope[:, a] = self.winding[:, a] * periods / (hi - lo)

    @cached_property
    def values(self) -> np.ndarray:
        # node-major, like the map values it is subtracted from
        return np.ascontiguousarray(contract("ca,...a->...c", self.slope, self.grid.points))


@dataclass(frozen=True, eq=False)
class FoliatedMapField:
    """Grid of target-chart coordinates of (the transverse part of) a map.

    The field is immutable: ``values`` is a read-only copy, so the
    derivatives cached on first use (``D``, ``S``, ``tau``, ``dT_norm_sq``)
    cannot go stale.  ``replace_values`` builds a new field on the same
    lift, whose winding was checked when the lift was built, so only the
    new values are checked.
    """

    grid: GridChart
    target: TransverseGeometry
    values: np.ndarray                      # grid.shape + (q',)
    winding: np.ndarray | None = None       # (q', q) integers
    _lift: _Lift | None = field(default=None, repr=False)

    def __post_init__(self):
        qp = self.target.dim
        values = np.array(self.values, dtype=float, order="C")   # node-major stencils
        if values.shape != self.grid.shape + (qp,):
            raise InvalidMapError(
                f"values: expected shape {self.grid.shape + (qp,)}, "
                f"got {values.shape}"
            )
        # array methods, not np.all/np.any: this runs once per flow candidate
        if not np.isfinite(values).all():
            raise InvalidMapError("map values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self._lift is None:
            object.__setattr__(self, "_lift", _Lift(self.grid, self.target, self.winding))
        object.__setattr__(self, "winding", self._lift.winding)
        if not self.target.contains(values).all():
            raise InvalidMapError("map values leave the target chart interior")

    # -- lift bookkeeping --------------------------------------------------

    @property
    def linear_slope(self) -> np.ndarray:
        """Slope (q', q) of the exact linear part of the lift."""
        return self._lift.slope

    @property
    def periodic_part(self) -> np.ndarray:
        """Values minus the linear part of the lift (the values themselves
        when the winding is zero); recomputed on use, not kept."""
        if not self._lift.slope.any():
            return self.values
        return self.values - self._lift.values

    @cached_property
    def target_metric(self) -> np.ndarray:
        return self.target.metric(self.values)

    @cached_property
    def target_gamma(self) -> np.ndarray:
        return self.target.christoffel(self.values)

    def replace_values(self, values: np.ndarray) -> "FoliatedMapField":
        return FoliatedMapField(self.grid, self.target, values, _lift=self._lift)

    # -- derivatives, each computed once per field ---------------------------

    @cached_property
    def D(self) -> np.ndarray:
        """Transversal differential d_T phi, (..., q', q)."""
        return d_T(self)

    @cached_property
    def S(self) -> np.ndarray:
        """Second fundamental form, (..., q', q, q)."""
        return second_fund_form(self)

    @cached_property
    def tau(self) -> np.ndarray:
        """Transversal tension field, (..., q')."""
        return tension(self)

    @cached_property
    def dT_norm_sq(self) -> np.ndarray:
        """|d_T phi|^2 at every node."""
        return dT_norm_squared(self)


# d/ds runs sin -> cos -> -sin -> -cos; a wave's derivatives start at its index
_WAVE_CYCLE = (np.sin, np.cos, lambda s: -np.sin(s), lambda s: -np.cos(s))
_WAVE_START = {"sin": 0, "cos": 1}


class Mode(NamedTuple):
    """One sinusoidal term amp * wave(k . x + phase) of component ``comp``.

    ``k`` is the angular wavevector (q,) and ``wave`` is ``"sin"`` or
    ``"cos"``.
    """

    comp: int
    k: np.ndarray
    amp: float
    phase: float = 0.0
    wave: str = "sin"

    def term(self, x: np.ndarray, order: int = 0) -> np.ndarray:
        """amp * wave^(order)(k . x + phase): the term's ``order``-th
        derivative along k, without its ``order`` factors of k."""
        s = contract("a,...a->...", self.k, x) + self.phase
        return self.amp * _WAVE_CYCLE[_WAVE_START[self.wave] + order](s)


@dataclass(frozen=True, eq=False)
class AnalyticMap:
    """Closed-form foliated map, affine plus sinusoidal modes:

        x |-> offset + slope x + sum_m amp_m wave_m(k_m . x + phase_m) e_{comp_m}

    ``func`` maps points (..., q) to targets (..., q'); ``jac`` returns
    (..., q', q); ``hess`` returns (..., q', q, q).  The map must act on
    lifts equivariantly with respect to its winding matrix.
    """

    source: TransverseGeometry
    target: TransverseGeometry
    offset: np.ndarray                      # (q',)
    slope: np.ndarray                       # (q', q)
    modes: tuple[Mode, ...] = ()
    winding: np.ndarray | None = None       # (q', q) integers

    def __post_init__(self):
        q, qp = self.source.dim, self.target.dim
        offset = np.asarray(self.offset, dtype=float)
        slope = np.asarray(self.slope, dtype=float)
        if offset.shape != (qp,) or slope.shape != (qp, q):
            raise ConfigurationError(
                f"offset and slope: expected shapes {(qp,)} and {(qp, q)}, "
                f"got {offset.shape} and {slope.shape}"
            )
        for m in self.modes:
            if not 0 <= m.comp < qp or np.shape(m.k) != (q,) or m.wave not in _WAVE_START:
                raise ConfigurationError(
                    f"mode needs a component below {qp}, a wavevector of {q} "
                    f"entries and a wave in {sorted(_WAVE_START)}, got {m}"
                )
        winding = np.zeros((qp, q)) if self.winding is None else self.winding
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "winding", np.asarray(winding, dtype=int))

    def func(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = contract("ca,...a->...c", self.slope, x)
        y += self.offset
        for m in self.modes:
            y[..., m.comp] += m.term(x)
        return y

    def jac(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        J = np.broadcast_to(self.slope, x.shape[:-1] + self.slope.shape).copy()
        for m in self.modes:
            J[..., m.comp, :] += m.term(x, 1)[..., None] * m.k
        return J

    def hess(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        q = self.source.dim
        H = np.zeros(x.shape[:-1] + (self.target.dim, q, q))
        for m in self.modes:
            H[..., m.comp, :, :] += m.term(x, 2)[..., None, None] * np.outer(m.k, m.k)
        return H

    def second_form(self, points: np.ndarray) -> np.ndarray:
        """Closed-form second fundamental form at arbitrary source points."""
        points = np.asarray(points, dtype=float)
        y = self.func(points)
        J = self.jac(points)
        H = self.hess(points)
        gamma_src = self.source.christoffel(points)
        gamma_tgt = self.target.christoffel(y)
        return (H - contract("...gc,...cab->...gab", J, gamma_src)
                + contract("...gst,...tb,...sa->...gab", gamma_tgt, J, J))

    def realize(self, grid: GridChart) -> FoliatedMapField:
        if not same_chart(grid.geometry, self.source):
            raise CompositionError("grid chart does not match the map's source chart")
        return FoliatedMapField(grid, self.target, self.func(grid.points), self.winding)


# -- differential operators on map fields ---------------------------------


def d_T(mapf: FoliatedMapField) -> np.ndarray:
    """Transversal differential, components D[..., alpha, a] = d_a phi^alpha."""
    D = grad_B(mapf.grid, mapf.periodic_part)
    D += mapf.linear_slope
    return D


def second_fund_form(mapf: FoliatedMapField) -> np.ndarray:
    """Second fundamental form S[..., gamma, a, b] of the map.

    S^g_{ab} = d_a d_b phi^g - Gamma^c_{ab} d_c phi^g
             + Gamma'^g_{st}(phi) d_a phi^s d_b phi^t.

    A Christoffel term is skipped where its geometry says the symbols vanish.
    """
    D = mapf.D
    S = hessian_scalar(mapf.grid, mapf.periodic_part)
    if not mapf.grid.geometry.christoffel_vanishes:
        S -= contract("...gc,...cab->...gab", D, mapf.grid.gamma)
    if not mapf.target.christoffel_vanishes:
        S += contract("...gst,...tb,...sa->...gab", mapf.target_gamma, D, D)
    return S


def tension(mapf: FoliatedMapField) -> np.ndarray:
    """Transversal tension field, tau^g = g^{ab} S^g_{ab}."""
    return contract("...ab,...gab->...g", mapf.grid.metric_inv, mapf.S)


def tension_sup_norm(mapf: FoliatedMapField) -> float:
    """Max over nodes of |tau|_{g'} (the transversal-harmonicity defect)."""
    n2 = contract("...s,...st,...t->...", mapf.tau, mapf.target_metric, mapf.tau)
    return float(np.sqrt(np.max(n2)))


def energy_density(mapf: FoliatedMapField) -> np.ndarray:
    """Transversal energy density e = |d_T phi|^2 / 2."""
    return 0.5 * mapf.dT_norm_sq


def dT_norm_squared(mapf: FoliatedMapField) -> np.ndarray:
    """|d_T phi|^2 = g^{ab} g'_{st}(phi) d_a phi^s d_b phi^t."""
    return contract("...ts,...sa,...ab,...tb->...",
                    mapf.target_metric, mapf.D, mapf.grid.metric_inv, mapf.D)


def second_form_norm_squared(mapf: FoliatedMapField) -> np.ndarray:
    """|nabla_tr d_T phi|^2 = g^{aa'} g^{bb'} g'_{gd} S^g_{ab} S^d_{a'b'}
    = g'_{gd} tr(S^g g^{-1} S^d g^{-1})."""
    Sg = contract("...gab,...bc->...gac", mapf.S, mapf.grid.metric_inv)   # S^g g^{-1}
    return contract("...gac,...dca,...gd->...", Sg, Sg, mapf.target_metric)


def pullback_derivative(mapf: FoliatedMapField, s: np.ndarray) -> np.ndarray:
    """Covariant derivative of a section of the pull-back bundle.

    For s with components s^g on the grid, returns
    (nabla^phi_a s)^g = d_a s^g + Gamma'^g_{st}(phi) d_a phi^s s^t,
    indexed (..., g, a).  The Gamma' term is skipped where the target's
    Christoffel symbols vanish.
    """
    ds = grad_B(mapf.grid, s)
    if mapf.target.christoffel_vanishes:
        return ds
    ds += contract("...t,...gst,...sa->...ga", s, mapf.target_gamma, mapf.D)
    return ds


def delta_nabla_dT(mapf: FoliatedMapField,
                   struct: FoliatedStructure | None = None) -> np.ndarray:
    """Codifferential of d_T phi as a pull-back section: -tau + i(kappa#) d_T phi."""
    kappa_up = kappa_sharp(mapf.grid, struct)
    return -mapf.tau + contract("...ga,...a->...g", mapf.D, kappa_up)


# -- composition ----------------------------------------------------------


def compose(phi: FoliatedMapField, psi: AnalyticMap) -> FoliatedMapField:
    """Node-wise composition psi o phi with a closed-form outer map."""
    if not isinstance(psi, AnalyticMap):
        raise CompositionError(f"cannot compose with object of type {type(psi)!r}")
    if not same_chart(phi.target, psi.source):
        raise CompositionError("phi's target chart does not match psi's source")
    values = psi.func(phi.values)
    winding = psi.winding @ phi.winding
    return FoliatedMapField(phi.grid, psi.target, values, winding)
