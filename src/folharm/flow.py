"""Transversal energy and the transversal heat flow (gradient descent).

The flow updates phi_new(b) = exp_{phi(b)}(dt * tau_b(phi)(b)) with the
target exponential map, which is steepest descent of the transversal energy
in the L^2(mu_M / vol_L) inner product; critical points are exactly the
transversally harmonic maps.  Explicit Euler with a CFL cap and optional
energy backtracking; fixed-boundary source nodes are frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, FlowDivergedError, PreconditionError, StepTooLargeError
from .foliation import FoliatedStructure
from .grid import GridChart, integrate
from .maps import (
    FoliatedMapField,
    energy_density,
    second_form_norm_squared,
    tension_sup_norm,
)
from .tensor import contract

__all__ = [
    "FlowConfig",
    "FlowTrace",
    "Verdict",
    "RigidityTolerances",
    "RigidityDiagnostics",
    "transversal_energy",
    "cfl_step",
    "flow_step",
    "run_flow",
    "rigidity_diagnostics",
]


def cfl_step(grid: GridChart, safety: float = 1.0) -> float:
    """Stability bound min_a h_a^2 / (2 q max g^{aa}) for the explicit flow."""
    q = grid.dim
    max_gaa = max(
        float(np.max(grid.metric_inv[..., a, a])) for a in range(q)
    )
    return safety * min(h**2 for h in grid.spacing) / (2 * q * max_gaa)


@dataclass
class FlowConfig:
    """Step size, iteration budget and stopping rule for the heat flow."""

    dt: float | None = None            # None: CFL bound of the grid
    max_steps: int = 100_000
    tension_tol: float = 1e-6
    energy_backtrack: bool = True
    dt_min: float = 1e-12
    divergence_factor: float = 10.0

    def resolve_dt(self, grid: GridChart) -> float:
        if self.dt is None:
            return cfl_step(grid, safety=0.9)
        dt = float(self.dt)
        if dt <= 0:
            raise ConfigurationError(f"dt: must be positive, got {dt}")
        if not self.energy_backtrack and dt > cfl_step(grid) * (1 + 1e-12):
            raise ConfigurationError(
                f"dt = {dt:.3g} exceeds the stability bound {cfl_step(grid):.3g} "
                "and backtracking is disabled"
            )
        return dt


@dataclass
class FlowTrace:
    """Per-step energies and tension norms of one flow run."""

    steps: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    max_tension: list = field(default_factory=list)
    max_second_form: list = field(default_factory=list)
    max_density: list = field(default_factory=list)   # max |d_T phi|^2
    termination: str = ""

    def record(self, step, E, tau_max, S_max, d2_max):
        self.steps.append(int(step))
        self.energy.append(float(E))
        self.max_tension.append(float(tau_max))
        self.max_second_form.append(float(S_max))
        self.max_density.append(float(d2_max))

    def rows(self):
        header = ["step", "E_B", "max_tension", "max_second_form", "max_density"]
        body = list(
            zip(self.steps, self.energy, self.max_tension,
                self.max_second_form, self.max_density)
        )
        return header, body


def transversal_energy(mapf: FoliatedMapField,
                       struct: FoliatedStructure | None = None,
                       check_cancellation: bool = False) -> float:
    """E_B = 1/2 int |d_T phi|^2 (1/vol_L) mu_M.

    The vol_L weight of mu_M cancels against 1/vol_L, so the value is the
    plain base-volume quadrature of the energy density.  With
    ``check_cancellation`` the two-weight computation is verified to agree
    to 1e-12 relative.
    """
    e = energy_density(mapf)
    value = integrate(mapf.grid, e, "base_volume")
    if check_cancellation and struct is not None:
        vol = struct.vol_at(mapf.grid.points)
        explicit = integrate(mapf.grid, e / vol, "manifold_volume", struct)
        if abs(explicit - value) > 1e-12 * max(1.0, abs(value)):
            raise PreconditionError(
                f"measure cancellation violated: {value!r} vs {explicit!r}"
            )
    return value


def flow_step(mapf: FoliatedMapField, dt: float) -> FoliatedMapField:
    """One explicit Euler step phi -> exp_phi(dt * tau_b(phi))."""
    v = dt * mapf.tau
    mask = mapf.grid.boundary_mask
    if mask is not None:
        v = np.where(mask[..., None], 0.0, v)
    new_values = mapf.target.exp(mapf.values, v, reduce=False)
    return mapf.replace_values(new_values)


def run_flow(mapf: FoliatedMapField, struct: FoliatedStructure | None,
             config: FlowConfig) -> tuple[FoliatedMapField, FlowTrace]:
    """Iterate the heat flow until the tension tolerance, step or dt budget."""
    dt = config.resolve_dt(mapf.grid)
    trace = FlowTrace()

    def record(step, m, E):
        # trace-only statistics, evaluated for accepted maps alone
        tau_max = tension_sup_norm(m)
        S_max = float(np.sqrt(max(np.max(second_form_norm_squared(m)), 0.0)))
        trace.record(step, E, tau_max, S_max, float(np.max(m.dT_norm_sq)))
        return tau_max

    E0 = E = transversal_energy(mapf, struct)
    tau_max = record(0, mapf, E)
    step = 0
    while tau_max > config.tension_tol:
        if step == config.max_steps:
            trace.termination = "max_steps"
            return mapf, trace
        try:
            candidate = flow_step(mapf, dt)
        except StepTooLargeError:       # exp refused a step beyond its cap
            rejected = True
        else:
            E_c = transversal_energy(candidate, struct)
            rejected = config.energy_backtrack and E_c > E
        if rejected:
            dt *= 0.5
            if dt < config.dt_min:
                trace.termination = "dt_underflow"
                return mapf, trace
            continue
        step += 1
        mapf, E = candidate, E_c
        tau_max = record(step, mapf, E)
        if not np.isfinite(E) or E > config.divergence_factor * max(E0, 1e-14):
            raise FlowDivergedError(
                f"energy {E:.6g} is not finite or exceeds "
                f"{config.divergence_factor} x initial {E0:.6g}"
            )
    trace.termination = "tension_tol"
    return mapf, trace


class Verdict(str, Enum):
    transversally_constant = "transversally_constant"
    totally_geodesic = "totally_geodesic"
    bound_violated = "bound_violated"
    inconclusive = "inconclusive"


@dataclass(frozen=True)
class RigidityTolerances:
    tension_tol: float = 1e-5
    constant_tol: float = 1e-4
    geo_tol: float = 1e-5
    rank_tol_rel: float = 1e-6


@dataclass(frozen=True)
class RigidityDiagnostics:
    """Rank/curvature diagnostics of a (near-)harmonic map."""

    lam: float            # lower bound on source transverse Ricci eigenvalues
    mu: float             # target sectional curvature (constant; 0 when q' < 2)
    rank_cap: int         # configured cap C
    rank_T: int           # max numerical rank of d_T phi over the grid
    bound_value: float    # lam * C / (mu * (C - 1)), inf when mu <= 0
    max_dT_norm_sq: float
    max_second_form: float
    verdict: Verdict

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "mu": self.mu,
            "C": self.rank_cap,
            "rank_T": self.rank_T,
            "bound_value": self.bound_value,
            "max_dT_norm_sq": self.max_dT_norm_sq,
            "max_second_form": self.max_second_form,
            "verdict": self.verdict.value,
        }


def _whiten(L: np.ndarray, M: np.ndarray) -> np.ndarray:
    """L^{-1} M L^{-T} for stacked Cholesky factors and symmetric matrices."""
    X = np.linalg.solve(L, M)
    return np.linalg.solve(L, X.swapaxes(-1, -2)).swapaxes(-1, -2)


def rigidity_diagnostics(mapf: FoliatedMapField, struct: FoliatedStructure | None,
                         rank_cap: int,
                         tolerances: RigidityTolerances = RigidityTolerances(),
                         ) -> RigidityDiagnostics:
    """Curvature/rank diagnostics behind the rigidity statements.

    lam is the grid minimum of the smallest eigenvalue of Ric^Q with respect
    to g; mu the target's sectional curvature, which is the constant
    ``curvature_constant`` for every catalog geometry, or 0 for a
    one-dimensional target (no 2-planes); rank_T counts singular values of
    the metrically whitened Jacobian above rank_tol.  Requires a
    near-harmonic map.
    """
    if rank_cap < 2:
        raise ConfigurationError(f"rank_cap: must be >= 2, got {rank_cap}")
    grid = mapf.grid
    tau_max = tension_sup_norm(mapf)
    if tau_max > tolerances.tension_tol:
        raise PreconditionError(
            f"map is not transversally harmonic: max|tau| = {tau_max:.3g} "
            f"> {tolerances.tension_tol:.3g}"
        )
    # source Ricci lower bound
    L = np.linalg.cholesky(grid.metric)
    ric = grid.geometry.ricci(grid.points)
    lam = float(np.min(np.linalg.eigvalsh(_whiten(L, ric))))
    # target sectional upper bound: the catalog's curvature is constant
    mu = float(mapf.target.curvature_constant) if mapf.target.dim >= 2 else 0.0
    # metric singular values of d_T phi
    Lt = np.linalg.cholesky(mapf.target_metric)
    A = np.linalg.solve(L, contract("...ts,...ta->...as", Lt, mapf.D)).swapaxes(-1, -2)
    sv = np.linalg.svd(A, compute_uv=False)
    rank_tol = tolerances.rank_tol_rel * max(float(np.max(sv)), 1e-300)
    rank_T = int(np.max(np.sum(sv > rank_tol, axis=-1)))
    max_d2 = float(np.max(mapf.dT_norm_sq))
    max_S = float(np.sqrt(max(np.max(second_form_norm_squared(mapf)), 0.0)))
    bound = lam * rank_cap / (mu * (rank_cap - 1)) if mu > 0 else np.inf
    if max_d2 <= tolerances.constant_tol:
        verdict = Verdict.transversally_constant
    elif max_S <= tolerances.geo_tol:
        verdict = Verdict.totally_geodesic
    elif max_d2 > bound * (1 + 1e-9):
        verdict = Verdict.bound_violated
    else:
        verdict = Verdict.inconclusive
    return RigidityDiagnostics(
        lam=lam, mu=mu, rank_cap=rank_cap, rank_T=rank_T,
        bound_value=float(bound), max_dT_norm_sq=max_d2,
        max_second_form=max_S, verdict=verdict,
    )
