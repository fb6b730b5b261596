"""Identity checks: first variation, Weitzenboeck formula, volume lemma,
composition rule.

Each check evaluates both sides of an identity by routes that share as little
code as possible with the operator under test (finite differences of the
energy, closed-form curvature contractions, grid refinement) and reports a
residual plus, over a refinement sequence, an estimated convergence order
log2(res(h)/res(h/2)).

The curvature term of the Weitzenboeck formula is

    <F(d_T phi), d_T phi> = sum_a g'(d_T phi(Ric(E_a)), d_T phi(E_a))
                          - sum_{a,b} g'(R'(u_b, u_a) u_a, u_b),

with u_a = d_T phi(E_a).  The minus sign on the target-curvature contraction
makes the term nonnegative under Ric >= 0 and K' <= 0; it is cross-checked
numerically by the sphere-identity cancellation and the general-mode
residual decay (see tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionError
from .flow import transversal_energy
from .foliation import FoliatedStructure
from .geometry import _total
from .grid import (
    GridChart,
    along,
    delta_B_scalar,
    grad_B,
    kappa_on_grid,
    kappa_sharp,
    metric_trace,
    spectral_diff1,
)
from .maps import (
    AnalyticMap,
    FoliatedMapField,
    compose,
    delta_nabla_dT,
    pullback_derivative,
    pullback_form,
    second_form_norm_squared,
)

__all__ = [
    "VariationSpec",
    "IdentityResidualReport",
    "check_first_variation",
    "bochner_parts",
    "bochner_term",
    "weitzenbock_terms",
    "weitzenbock_residual",
    "check_lemma_volume",
    "composition_residuals",
    "refinement_report",
]


@dataclass
class VariationSpec:
    """Normal variation field along a map plus finite-difference step sizes."""

    V: np.ndarray                                  # grid.shape + (q',)
    fd_steps: tuple[float, ...] = (1e-2, 5e-3, 2.5e-3)


@dataclass
class IdentityResidualReport:
    """Residuals of one identity across one or more grids."""

    identity: str
    grids: list
    residuals: list[float]
    orders: list[float] = field(default_factory=list)
    tolerance: float | None = None
    order_tolerance: float | None = None
    passed: bool = True

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "grids": self.grids,
            "residuals": self.residuals,
            "orders": self.orders,
            "tolerance": self.tolerance,
            "order_tolerance": self.order_tolerance,
            "pass": self.passed,
        }


def _neville_to_zero(x: Sequence[float], y: Sequence[float]) -> float:
    """Polynomial extrapolation of samples (x_k, y_k) to x = 0."""
    x = list(map(float, x))
    y = list(map(float, y))
    n = len(y)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            y[i] = (x[i - j] * y[i] - x[i] * y[i - 1]) / (x[i - j] - x[i])
    return y[-1]


def check_first_variation(mapf: FoliatedMapField,
                          struct: FoliatedStructure | None,
                          spec: VariationSpec,
                          tolerance: float = 1e-3) -> IdentityResidualReport:
    """dE_B/dt|_0 against -int <V, tau_b> (1/vol_L) mu_M.

    The left side is a Richardson-extrapolated central difference of
    E_B(exp_phi(t V)) over ``spec.fd_steps``; the right side is quadrature of
    g'(V, tau_b).
    """
    grid = mapf.grid
    V = np.asarray(spec.V, dtype=float)
    if V.shape != mapf.values.shape:
        raise PreconditionError(
            f"variation field: expected shape {mapf.values.shape}, got {V.shape}"
        )
    mask = grid.boundary_mask
    if mask is not None and np.any(np.abs(V[mask]) > 0):
        raise PreconditionError(
            "variation field must vanish on fixed chart boundaries"
        )

    def energy_at(t: float) -> float:
        values = mapf.target.exp(mapf.values, t * V)
        return transversal_energy(mapf.replace_values(values), struct)

    derivs = [
        (energy_at(t) - energy_at(-t)) / (2 * t) for t in spec.fd_steps
    ]
    fd = _neville_to_zero([t**2 for t in spec.fd_steps], derivs)

    g_V_tau = along(V * mapf.target_metric_factor, mapf.tau)    # g'(V, tau)
    rhs = -float(np.sum(g_V_tau * grid.weights))
    residual = abs(fd - rhs) / max(abs(rhs), abs(fd), 1e-6)
    return IdentityResidualReport(
        identity="first_variation",
        grids=[list(grid.shape)],
        residuals=[residual],
        tolerance=tolerance,
        passed=residual <= tolerance,
    )


def bochner_parts(mapf: FoliatedMapField) -> tuple[np.ndarray, np.ndarray]:
    """Source-Ricci and target-curvature contractions, separately.

    Both are evaluated pointwise from the catalog closed forms; their
    difference (Ricci minus curvature) is the Bochner term.  With the
    pull-back metric A = D^T g' D and P = g' D g^{-1} D^T,

        ric_term  = A_{ab} g^{bc} Ric_{cd} g^{da},
        curv_term = R'_{stuv} M^{sv} M^{tu} = K' [(tr P)^2 - tr(P P)],

    with M = D g^{-1} D^T, the last form because the target has constant
    curvature K'.
    """
    grid, D, qt = mapf.grid, mapf.D, mapf.target.dim
    g, h = mapf.target_metric_factor, grid.metric_inv_factor
    gD = D * g[..., None]                           # g'_st D^t_a, indexed [s, a]
    # Ric = (q - 1) K g: its diagonal (q - 1) K g_aa
    ric = (grid.dim - 1) * grid.geometry.curvature_constant
    gs = grid.geometry.metric_diagonal(grid.points)

    def ric_part(a):                                # A_aa g^aa Ric_aa g^aa
        A_aa = along(gD[..., :, a], D[..., :, a])
        return A_aa * h[..., a] * (ric * gs[..., a]) * h[..., a]

    ric_term = _total(ric_part(a) for a in range(grid.dim))
    gDh = gD * h[..., None, :]
    P = {(s, u): along(gDh[..., s, :], D[..., u, :]) for s in range(qt) for u in range(qt)}
    tr_P = sum(P[s, s] for s in range(qt))
    curv_term = mapf.target.curvature_constant * (
        tr_P * tr_P - _total(P[s, u] * P[u, s] for s in range(qt) for u in range(qt)))
    return ric_term, curv_term


def bochner_term(mapf: FoliatedMapField) -> np.ndarray:
    ric_term, curv_term = bochner_parts(mapf)
    return ric_term - curv_term


def weitzenbock_terms(mapf: FoliatedMapField,
                      struct: FoliatedStructure | None,
                      mode: str = "general") -> dict[str, np.ndarray]:
    """All scalar fields entering the Weitzenboeck identity.

    ``general`` mode evaluates
        1/2 Delta_B |d|^2 = <Delta d, d> - |S|^2 - <A_kappa d, d> - <F d, d>,
    reconstructing Delta d_T phi = d_nabla(-tau + i(kappa#) d_T phi) from the
    closedness of d_T phi, and the kappa operator from
    A_X d = -S(X, .) + d_nabla i(X) d.  ``harmonic`` mode evaluates the
    harmonic-map corollary
        1/2 Delta_B |d|^2 = -|S|^2 - <F d, d> + 1/2 kappa#(|d|^2).
    """
    grid, D, target = mapf.grid, mapf.D, mapf.target
    g, h = mapf.target_metric_factor, grid.metric_inv_factor
    e2 = mapf.dT_norm_sq
    lhs = 0.5 * delta_B_scalar(grid, e2, struct)
    S_sq = second_form_norm_squared(mapf)
    F = bochner_term(mapf)
    kappa_up = kappa_sharp(grid, struct)
    terms = {"lhs": lhs, "second_form_sq": S_sq, "bochner": F}
    if mode == "harmonic":
        kappa_drift = 0.5 * along(kappa_up, grad_B(grid, e2))
        terms["kappa_drift"] = kappa_drift
        terms["rhs"] = -S_sq - F + kappa_drift
        return terms
    if mode != "general":
        raise PreconditionError(f"mode: expected 'general' or 'harmonic', got {mode!r}")
    codiff = delta_nabla_dT(mapf, struct)           # -tau + i(kappa#) d
    laplacian_d = pullback_derivative(mapf, codiff)      # (..., g, a)
    inner_lap = target.pairing(g, laplacian_d, D, h)
    ikd = along(D, kappa_up)                             # i(kappa#) d
    a_form = -along(mapf.S.swapaxes(-1, -2), kappa_up) + pullback_derivative(mapf, ikd)
    inner_a = target.pairing(g, a_form, D, h)
    terms["laplacian_pairing"] = inner_lap
    terms["kappa_operator_pairing"] = inner_a
    terms["rhs"] = inner_lap - S_sq - inner_a - F
    return terms


def weitzenbock_residual(mapf: FoliatedMapField,
                         struct: FoliatedStructure | None,
                         mode: str = "general") -> float:
    terms = weitzenbock_terms(mapf, struct, mode)
    return float(np.max(np.abs(terms["lhs"] - terms["rhs"])))


def check_lemma_volume(grid: GridChart, struct: FoliatedStructure) -> float:
    """Max-norm of d_B vol_L + vol_L kappa_B over the grid.

    With a closed-form kappa, d_B vol is the spectral derivative of vol on a
    periodic axis, so that a wrong closed form shows; a fixed axis takes
    vol times the closed-form d log vol.  Since kappa is then -d log vol
    itself, a fixed axis compares vol * dlog with itself and cannot fail;
    no shipped config reaches that case.  Without a closed form (the
    refined route) d_B vol and kappa are both central differences, of vol
    and log vol.
    """
    vol = struct.vol_at(grid.points)
    kappa = kappa_on_grid(grid, struct)
    if struct.has_closed_form_kappa:
        dlog = np.asarray(struct.dlog_vol(grid.points), dtype=float)
        dvol = np.stack([spectral_diff1(grid, vol, a) if grid.periodic[a] else vol * dlog[..., a]
                         for a in range(grid.dim)], axis=-1)
    else:
        dvol = grad_B(grid, vol)
    return float(np.max(np.abs(dvol + vol[..., None] * kappa)))


def composition_residuals(phi: FoliatedMapField, psi: AnalyticMap
                          ) -> dict[str, float]:
    """Residuals of the chain rules for the second form and the tension.

    Full tensor:  S(psi o phi) = d_T psi(S(phi)) + phi* S(psi)
    Trace:        tau(psi o phi) = d_T psi(tau(phi)) + tr_Q phi* S(psi)
    """
    comp = compose(phi, psi)
    J_psi = psi.jac(phi.values)
    pulled = pullback_form(phi, psi.second_form(phi.values))        # phi* S(psi)
    rhs_full = np.empty(pulled.shape)                # d_T psi(S(phi)) + phi* S(psi)
    for g in range(psi.target.dim):
        rhs_full[..., g, :, :] = along(np.moveaxis(phi.S, -3, -1), J_psi[..., g, :])
    rhs_full += pulled
    full = float(np.max(np.abs(comp.S - rhs_full)))
    rhs_trace = along(J_psi, phi.tau) + metric_trace(phi.grid.metric_inv_factor, pulled)
    trace = float(np.max(np.abs(comp.tau - rhs_trace)))
    return {"second_form": full, "tension": trace}


def refinement_report(identity: str,
                      resolutions: Sequence[int],
                      residual_fn: Callable[[int], float],
                      order_tolerance: float | None = 1.7,
                      tolerance: float | None = None) -> IdentityResidualReport:
    """Run a residual over a refinement sequence and estimate orders."""
    residuals = [float(residual_fn(n)) for n in resolutions]
    orders = []
    for coarse, fine in zip(residuals, residuals[1:]):
        if fine <= 0:
            orders.append(float("inf"))
        else:
            orders.append(float(np.log2(coarse / fine)))
    # a residual already at the tolerance (e.g. machine noise for an exact
    # identity) carries no meaningful convergence order
    at_tolerance = tolerance is not None and residuals[-1] <= tolerance
    passed = True
    if order_tolerance is not None and orders and not at_tolerance:
        passed &= min(orders) >= order_tolerance
    if tolerance is not None:
        passed &= residuals[-1] <= tolerance
    return IdentityResidualReport(
        identity=identity,
        grids=[int(n) for n in resolutions],
        residuals=residuals,
        orders=orders,
        tolerance=tolerance,
        order_tolerance=order_tolerance,
        passed=passed,
    )
