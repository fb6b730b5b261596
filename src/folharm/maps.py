"""Transverse part of a foliated map and its first/second derivatives.

A map is stored as a grid of target-chart coordinates of a *lift*: on every
periodic source axis a the stored values satisfy
phi(b + P_a e_a) = phi(b) + W[:, a] * P', where W is an integer winding
matrix and P' the target periods.  Internally the lift splits into an exact
linear part (slope W[alpha, a] * P'_alpha / P_a) plus a periodic remainder,
which makes all stencils seam-free and keeps the homotopy class explicit.

All tensor components live in coordinate frames.  Contractions are closed
forms on the diagonals of the catalog metrics and on the nonzero Christoffel
symbols, each adding its terms in the index order of the dense sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CompositionError, ConfigurationError, InvalidMapError
from .foliation import FoliatedStructure
from .geometry import TransverseGeometry, _total, lower_christoffel, quadratic_term
from .grid import GridChart, along, derivatives, grad_B, kappa_sharp, metric_trace

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
    "pullback_form",
]


def same_chart(a: TransverseGeometry, b: TransverseGeometry) -> bool:
    return (
        a.kind == b.kind
        and a.dim == b.dim
        and np.allclose(a.chart_bounds, b.chart_bounds)
        and a.periodic == b.periodic
    )


def _linear(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """coef_a x^a (...) of points x (..., q) for constant coefficients (q,): the
    terms of the nonzero coefficients, added in order; 0 where there are none."""
    terms = [c * x[..., a] for a, c in enumerate(coef) if c]
    return _total(terms) if terms else np.zeros(x.shape[:-1])


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
        self.winds = bool(self.slope.any())

    @cached_property
    def values(self) -> np.ndarray:
        # node-major, like the map values it is subtracted from
        return np.stack([_linear(row, self.grid.points) for row in self.slope], axis=-1)


@dataclass(frozen=True, eq=False)
class FoliatedMapField:
    """Grid of target-chart coordinates of (the transverse part of) a map.

    The field is immutable: ``values`` is read-only (a copy of the caller's
    array), so the periodic part and the derivatives cached on first use
    (``D``, ``S``, ``tau``, ``dT_norm_sq``) cannot go stale.
    ``replace_values`` builds a new field on the same lift, whose winding was
    checked when the lift was built, and adopts the new values instead of
    copying them, so it only checks them.
    """

    grid: GridChart
    target: TransverseGeometry
    values: np.ndarray                      # grid.shape + (q',)
    winding: np.ndarray | None = None       # (q', q) integers

    def __post_init__(self):
        # a copy: the caller's array stays theirs; node-major for the stencils
        object.__setattr__(self, "_lift", _Lift(self.grid, self.target, self.winding))
        object.__setattr__(self, "winding", self._lift.winding)
        self._adopt(np.array(self.values, dtype=float, order="C"))

    def _adopt(self, values: np.ndarray) -> None:
        """Check ``values`` and make them this field's, read-only."""
        shape = self.grid.shape + (self.target.dim,)
        if values.shape != shape:
            raise InvalidMapError(f"values: expected shape {shape}, got {values.shape}")
        # count_nonzero, the cheapest test: this runs once per flow candidate
        if np.count_nonzero(np.isfinite(values)) < values.size:
            raise InvalidMapError("map values must be finite")
        # periodic axes are unconstrained, so only a fixed axis can be left
        if not all(self.target.periodic) and not self.target.contains(values):
            raise InvalidMapError("map values leave the target chart interior")
        values.flags.writeable = False
        self.__dict__["values"] = values

    # -- lift bookkeeping --------------------------------------------------

    @property
    def linear_slope(self) -> np.ndarray:
        """Slope (q', q) of the exact linear part of the lift."""
        return self._lift.slope

    @cached_property
    def periodic_part(self) -> np.ndarray:
        """Values minus the linear part of the lift (the values themselves
        when the winding is zero), read-only like them."""
        if not self._lift.winds:
            return self.values
        part = self.values - self._lift.values
        part.flags.writeable = False
        return part

    @cached_property
    def partials(self) -> tuple[np.ndarray, np.ndarray]:
        """Stencil partials of the periodic part, from the one pass D and S share."""
        return derivatives(self.grid, self.periodic_part)

    @cached_property
    def target_metric(self) -> np.ndarray:
        return self.target.metric(self.values)

    @cached_property
    def target_metric_factor(self) -> np.ndarray:
        """The target metric at the values as the geometry's contractions take
        it: g'_ss (..., q')."""
        return self.target.metric_diagonal(self.values)

    @cached_property
    def target_gamma(self) -> dict:
        """The target's nonzero Christoffel symbols at the values."""
        return self.target.christoffel_symbols(self.values)

    def replace_values(self, values: np.ndarray) -> "FoliatedMapField":
        """The field of ``values``, a fresh array it adopts, on this lift; it checks only those."""
        new = object.__new__(FoliatedMapField)
        new.__dict__.update(grid=self.grid, target=self.target, winding=self.winding,
                            _lift=self._lift)
        new._adopt(values)
        return new

    # -- derivatives, each computed once per field ---------------------------

    @cached_property
    def D(self) -> np.ndarray:
        """Transversal differential d_T phi, (..., q', q)."""
        return d_T(self)

    @cached_property
    def S(self) -> np.ndarray:
        """Second fundamental form, (..., q', q, q)."""
        S = second_fund_form(self)
        self.__dict__.pop("partials", None)     # D and S are taken: the pass is spent
        return S

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
        s = _linear(self.k, x) + self.phase
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
        y = np.stack([_linear(row, x) for row in self.slope], axis=-1)
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
        symbols = self.source.christoffel_symbols(points)
        if symbols:
            H = H - lower_christoffel(symbols, J)
        gamma_term = self.target.christoffel_term(y, J)
        return H if gamma_term is None else H + gamma_term

    def realize(self, grid: GridChart) -> FoliatedMapField:
        if not same_chart(grid.geometry, self.source):
            raise CompositionError("grid chart does not match the map's source chart")
        return FoliatedMapField(grid, self.target, self.func(grid.points), self.winding)


# -- differential operators on map fields ---------------------------------


def d_T(mapf: FoliatedMapField) -> np.ndarray:
    """Transversal differential, components D[..., alpha, a] = d_a phi^alpha."""
    D = mapf.partials[0]
    return D + mapf.linear_slope if mapf._lift.winds else D


def second_fund_form(mapf: FoliatedMapField) -> np.ndarray:
    """Second fundamental form S[..., gamma, a, b] of the map.

    S^g_{ab} = d_a d_b phi^g - Gamma^c_{ab} d_c phi^g
             + Gamma'^g_{st}(phi) d_a phi^s d_b phi^t.

    A Christoffel term is skipped where its geometry has no nonzero symbols.
    """
    D, S = mapf.D, mapf.partials[1]
    if mapf.grid.christoffel_symbols:
        S = S - lower_christoffel(mapf.grid.christoffel_symbols, D)
    gamma_term = mapf.target.christoffel_term(mapf.values, D)
    return S if gamma_term is None else S + gamma_term


def tension(mapf: FoliatedMapField) -> np.ndarray:
    """Transversal tension field, tau^g = g^{ab} S^g_{ab}."""
    return metric_trace(mapf.grid.metric_inv_factor, mapf.S)


def tension_sup_norm(mapf: FoliatedMapField) -> float:
    """Max over nodes of |tau|_{g'} (the transversal-harmonicity defect)."""
    n2 = mapf.target.norm_sq(mapf.target_metric_factor, mapf.tau)
    return float(np.sqrt(np.maximum.reduce(n2, None)))       # n2.max(), without its wrapper


def energy_density(mapf: FoliatedMapField) -> np.ndarray:
    """Transversal energy density e = |d_T phi|^2 / 2."""
    return 0.5 * mapf.dT_norm_sq


def dT_norm_squared(mapf: FoliatedMapField) -> np.ndarray:
    """|d_T phi|^2 = g^{ab} g'_{st}(phi) d_a phi^s d_b phi^t; inf, without a
    warning, where it overflows."""
    return mapf.target.dT_norm_sq(mapf.target_metric_factor, mapf.D, mapf.grid.metric_inv_factor)


def second_form_norm_squared(mapf: FoliatedMapField) -> np.ndarray:
    """|nabla_tr d_T phi|^2 = g^{aa'} g^{bb'} g'_{gd} S^g_{ab} S^d_{a'b'}
    = g'_{gd} tr(S^g g^{-1} S^d g^{-1})."""
    return mapf.target.form_norm_sq(mapf.target_metric_factor, mapf.S, mapf.grid.metric_inv_factor)


def pullback_derivative(mapf: FoliatedMapField, s: np.ndarray) -> np.ndarray:
    """Covariant derivative of a section of the pull-back bundle.

    For s with components s^g on the grid, returns
    (nabla^phi_a s)^g = d_a s^g + Gamma'^g_{st}(phi) d_a phi^s s^t,
    indexed (..., g, a).  The Gamma' term is skipped where the target's
    Christoffel symbols vanish.
    """
    ds = grad_B(mapf.grid, s)
    if mapf.target_gamma:
        ds += quadratic_term(mapf.target_gamma, mapf.D, s[..., None], mapf.target.dim)[..., 0]
    return ds


def pullback_form(mapf: FoliatedMapField, B: np.ndarray) -> np.ndarray:
    """phi* B (..., g, a, b) = B^g_st d_a phi^s d_b phi^t of a vector-valued
    bilinear form B (..., g, s, t) on the target, sampled at the values."""
    entries = {i: B[(..., *i)] for i in np.ndindex(B.shape[-3:])}
    return quadratic_term(entries, mapf.D, mapf.D, B.shape[-3])


def delta_nabla_dT(mapf: FoliatedMapField,
                   struct: FoliatedStructure | None = None) -> np.ndarray:
    """Codifferential of d_T phi as a pull-back section: -tau + i(kappa#) d_T phi."""
    kappa_up = kappa_sharp(mapf.grid, struct)
    return -mapf.tau + along(mapf.D, kappa_up)


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
