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
from typing import Callable, Optional

import numpy as np

from .errors import CompositionError, InvalidMapError
from .foliation import FoliatedStructure
from .geometry import TransverseGeometry
from .grid import GridChart, diff1, diff2, kappa_on_grid, mixed_diff

__all__ = [
    "FoliatedMapField",
    "AnalyticMap",
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


@dataclass(eq=False)
class FoliatedMapField:
    """Grid of target-chart coordinates of (the transverse part of) a map."""

    grid: GridChart
    target: TransverseGeometry
    values: np.ndarray                      # grid.shape + (q',)
    winding: np.ndarray | None = None       # (q', q) integers

    def __post_init__(self):
        q, qp = self.grid.dim, self.target.dim
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape + (qp,):
            raise InvalidMapError(
                f"values: expected shape {self.grid.shape + (qp,)}, "
                f"got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidMapError("map values must be finite")
        if self.winding is None:
            self.winding = np.zeros((qp, q), dtype=int)
        self.winding = np.asarray(self.winding)
        if self.winding.shape != (qp, q):
            raise InvalidMapError(
                f"winding: expected shape {(qp, q)}, got {self.winding.shape}"
            )
        if not np.all(self.winding == np.round(self.winding)):
            raise InvalidMapError("winding: entries must be integers")
        self.winding = self.winding.astype(int)
        tp = self.target.axis_periods()
        for alpha in range(qp):
            if tp[alpha] == 0 and np.any(self.winding[alpha] != 0):
                raise InvalidMapError(
                    f"winding: target coordinate {alpha} is not periodic"
                )
        for a in range(q):
            if not self.grid.periodic[a] and np.any(self.winding[:, a] != 0):
                raise InvalidMapError(f"winding: source axis {a} is not periodic")
        if not np.all(self.target.contains(self.values)):
            raise InvalidMapError("map values leave the target chart interior")

    # -- lift bookkeeping --------------------------------------------------

    @cached_property
    def linear_slope(self) -> np.ndarray:
        """Slope (q', q) of the exact linear part of the lift."""
        tp = self.target.axis_periods()
        slope = np.zeros((self.target.dim, self.grid.dim))
        for a in range(self.grid.dim):
            if self.grid.periodic[a]:
                lo, hi = self.grid.geometry.chart_bounds[a]
                slope[:, a] = self.winding[:, a] * tp / (hi - lo)
        return slope

    @cached_property
    def periodic_part(self) -> np.ndarray:
        return self.values - np.einsum(
            "ca,...a->...c", self.linear_slope, self.grid.points
        )

    @cached_property
    def target_metric(self) -> np.ndarray:
        return self.target.metric(self.values)

    @cached_property
    def target_gamma(self) -> np.ndarray:
        return self.target.christoffel(self.values)

    def replace_values(self, values: np.ndarray) -> "FoliatedMapField":
        return FoliatedMapField(self.grid, self.target, values, self.winding)


@dataclass(frozen=True)
class AnalyticMap:
    """Closed-form foliated map with exact Jacobian and Hessian.

    ``func`` maps points (..., q) to targets (..., q'); ``jac`` returns
    (..., q', q); ``hess`` returns (..., q', q, q).  The map must act on
    lifts equivariantly with respect to its winding matrix.
    """

    source: TransverseGeometry
    target: TransverseGeometry
    func: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    winding: np.ndarray = None

    def __post_init__(self):
        w = self.winding
        if w is None:
            w = np.zeros((self.target.dim, self.source.dim), dtype=int)
        object.__setattr__(self, "winding", np.asarray(w, dtype=int))

    def second_form(self, points: np.ndarray) -> np.ndarray:
        """Closed-form second fundamental form at arbitrary source points."""
        points = np.asarray(points, dtype=float)
        y = self.func(points)
        J = self.jac(points)
        H = self.hess(points)
        gamma_src = self.source.christoffel(points)
        gamma_tgt = self.target.christoffel(y)
        return (
            H
            - np.einsum("...gc,...cab->...gab", J, gamma_src)
            + np.einsum("...gst,...sa,...tb->...gab", gamma_tgt, J, J)
        )

    def realize(self, grid: GridChart) -> FoliatedMapField:
        if not same_chart(grid.geometry, self.source):
            raise CompositionError("grid chart does not match the map's source chart")
        return FoliatedMapField(grid, self.target, self.func(grid.points), self.winding)


# -- differential operators on map fields ---------------------------------


def d_T(mapf: FoliatedMapField) -> np.ndarray:
    """Transversal differential, components D[..., alpha, a] = d_a phi^alpha."""
    r = mapf.periodic_part
    grid = mapf.grid
    D = np.stack(
        [diff1(grid, r, a) for a in range(grid.dim)], axis=-1
    )  # (..., q', q)
    return D + mapf.linear_slope


def second_fund_form(mapf: FoliatedMapField) -> np.ndarray:
    """Second fundamental form S[..., gamma, a, b] of the map.

    S^g_{ab} = d_a d_b phi^g - Gamma^c_{ab} d_c phi^g
             + Gamma'^g_{st}(phi) d_a phi^s d_b phi^t.
    """
    grid = mapf.grid
    r = mapf.periodic_part
    q, qp = grid.dim, mapf.target.dim
    D = d_T(mapf)
    H = np.empty(grid.shape + (qp, q, q))
    for a in range(q):
        for b in range(a, q):
            d = mixed_diff(grid, r, a, b)
            H[..., a, b] = d
            H[..., b, a] = d
    return (
        H
        - np.einsum("...gc,...cab->...gab", D, grid.gamma)
        + np.einsum("...gst,...sa,...tb->...gab", mapf.target_gamma, D, D)
    )


def tension(mapf: FoliatedMapField, S: np.ndarray | None = None) -> np.ndarray:
    """Transversal tension field, tau^g = g^{ab} S^g_{ab}."""
    if S is None:
        S = second_fund_form(mapf)
    return np.einsum("...ab,...gab->...g", mapf.grid.metric_inv, S)


def tension_sup_norm(mapf: FoliatedMapField, tau: np.ndarray | None = None) -> float:
    """Max over nodes of |tau|_{g'} (the transversal-harmonicity defect)."""
    if tau is None:
        tau = tension(mapf)
    n2 = np.einsum("...ab,...a,...b->...", mapf.target_metric, tau, tau)
    return float(np.sqrt(np.max(n2)))


def energy_density(mapf: FoliatedMapField, D: np.ndarray | None = None) -> np.ndarray:
    """Transversal energy density e = |d_T phi|^2 / 2."""
    return 0.5 * dT_norm_squared(mapf, D)


def dT_norm_squared(mapf: FoliatedMapField, D: np.ndarray | None = None) -> np.ndarray:
    """|d_T phi|^2 = g^{ab} g'_{st}(phi) d_a phi^s d_b phi^t."""
    if D is None:
        D = d_T(mapf)
    return np.einsum(
        "...ab,...st,...sa,...tb->...", mapf.grid.metric_inv, mapf.target_metric, D, D
    )


def second_form_norm_squared(mapf: FoliatedMapField,
                             S: np.ndarray | None = None) -> np.ndarray:
    """|nabla_tr d_T phi|^2 = g^{aa'} g^{bb'} g'_{gd} S^g_{ab} S^d_{a'b'}."""
    if S is None:
        S = second_fund_form(mapf)
    gi = mapf.grid.metric_inv
    return np.einsum(
        "...ax,...by,...gd,...gab,...dxy->...", gi, gi, mapf.target_metric, S, S
    )


def pullback_derivative(mapf: FoliatedMapField, s: np.ndarray,
                        D: np.ndarray | None = None) -> np.ndarray:
    """Covariant derivative of a section of the pull-back bundle.

    For s with components s^g on the grid, returns
    (nabla^phi_a s)^g = d_a s^g + Gamma'^g_{st}(phi) d_a phi^s s^t,
    indexed (..., g, a).
    """
    grid = mapf.grid
    if D is None:
        D = d_T(mapf)
    ds = np.stack([diff1(grid, s, a) for a in range(grid.dim)], axis=-1)
    return ds + np.einsum("...gst,...sa,...t->...ga", mapf.target_gamma, D, s)


def delta_nabla_dT(mapf: FoliatedMapField, struct: FoliatedStructure | None = None,
                   tau: np.ndarray | None = None) -> np.ndarray:
    """Codifferential of d_T phi as a pull-back section: -tau + i(kappa#) d_T phi."""
    grid = mapf.grid
    if tau is None:
        tau = tension(mapf)
    kappa = kappa_on_grid(grid, struct)
    kappa_up = np.einsum("...ab,...b->...a", grid.metric_inv, kappa)
    D = d_T(mapf)
    return -tau + np.einsum("...ga,...a->...g", D, kappa_up)


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
