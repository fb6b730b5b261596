"""Transversal energy and the transversal heat flow (gradient descent).

The flow updates phi_new(b) = exp_{phi(b)}(v(b)) with the target
exponential map along a step v built from the tension tau = tau_b(phi);
critical points are exactly the transversally harmonic maps.  The source
geometry selects the step, and the rule of the default dt:

* on a flat, fully periodic source (a flat torus) the step is
  semi-implicit, v = (I - dt Delta_h)^{-1} (dt tau), with Delta_h the
  stencil Laplacian sum_a diff2: one FFT pair over the source axes divides
  each Fourier mode by 1 + dt times the symbol ``GridChart.diff2_symbol``
  (Chen & Shen 1998).  The default dt is 1 / lambda_1, lambda_1 =
  min_a (2 pi / P_a)^2 the torus's first eigenvalue, so the step count
  does not grow with the resolution;
* on every other source it is explicit Euler, v = dt tau, which is steepest
  descent of the transversal energy in the L^2(mu_M / vol_L) inner
  product, with fixed-boundary source nodes frozen.  The default dt is 0.9
  of the CFL bound.

Both routes share the step-size policy: dt is halved whenever a
candidate's energy rises, ``exp`` refuses the step or the candidate leaves
the target chart, and it never grows, so accepted energies never rise.
Fixed points are exactly tau = 0 on both.  Every energy the flow holds,
the initial one included, must be finite.

Each attempt takes the candidate's partials in one stencil pass and its
energy from the target geometry's closed-form |d_T phi|^2; an accepted
map's trace row (E, max|tau|, max|S|, max|d_T phi|^2) is recorded at once,
from tau and |S|^2 of the field's one second-order pass over the grid's row
blocks, which the rigidity diagnostics read again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import isfinite, sqrt

import numpy as np

from .errors import (
    ConfigurationError,
    FlowDivergedError,
    InvalidMapError,
    PreconditionError,
    StepTooLargeError,
)
from .foliation import FoliatedStructure
from .geometry import FlatTorus
from .grid import GridChart, integrate, row_blocks
from .maps import FoliatedMapField, energy_density, second_form_norm_squared, tension_sup_norm

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


def cfl_step(grid: GridChart) -> float:
    """0.9 of the stability bound min_a h_a^2 / (2 q max g^{aa}) of the
    explicit flow."""
    max_gaa = float(np.max(grid.metric_inv_factor))
    return 0.9 * min(h**2 for h in grid.spacing) / (2 * grid.dim * max_gaa)


def _preconditioned(grid: GridChart) -> bool:
    """Whether the flow takes the FFT-preconditioned step on this source grid:
    a flat torus, the catalog's one flat, fully periodic geometry."""
    return isinstance(grid.geometry, FlatTorus)


@dataclass
class FlowConfig:
    """Step size, iteration budget and stopping rule for the heat flow."""

    dt: float | None = None            # None: the step route's rule (resolve_dt)
    max_steps: int = 100_000
    tension_tol: float = 1e-6
    dt_min: float = 1e-12

    def resolve_dt(self, grid: GridChart) -> float:
        """The configured dt, or by default 1 / lambda_1 on a flat torus (the
        FFT-preconditioned step), lambda_1 = min_a (2 pi / P_a)^2 for its
        periods P_a = n_a h_a, and the CFL step elsewhere."""
        if self.dt is None:
            if _preconditioned(grid):
                return 1 / min((2 * np.pi / (n * h)) ** 2 for n, h in zip(grid.shape, grid.spacing))
            return cfl_step(grid)
        dt = float(self.dt)
        if not 0 < dt < np.inf:
            raise ConfigurationError(f"dt: must be positive and finite, got {dt}")
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

    def columns(self):
        header = ["step", "E_B", "max_tension", "max_second_form", "max_density"]
        return header, [self.steps, self.energy, self.max_tension,
                        self.max_second_form, self.max_density]


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


def _resolvent(grid: GridChart, v: np.ndarray, dt: float) -> np.ndarray:
    """(I - dt Delta_h)^{-1} v on a fully periodic grid, Delta_h = sum_a diff2:
    one FFT pair over the source axes, dividing each mode by 1 + dt times
    the stencil symbol."""
    axes = tuple(range(grid.dim))
    v_hat = np.fft.fftn(v, axes=axes)
    v_hat /= (1 + dt * grid.diff2_symbol)[..., None]
    return np.fft.ifftn(v_hat, axes=axes).real


def flow_step(mapf: FoliatedMapField, dt: float) -> FoliatedMapField:
    """One step phi -> exp_phi(v): v = (I - dt Delta_h)^{-1} (dt tau) on a
    flat torus, v = dt tau with fixed-boundary nodes frozen elsewhere."""
    grid = mapf.grid
    v = dt * mapf.tau
    if _preconditioned(grid):
        v = _resolvent(grid, v, dt)
    else:
        v = np.where(grid.boundary_mask[..., None], 0.0, v)
    return mapf.replace_values(mapf.target.exp(mapf.values, v))


_max = np.maximum.reduce      # x.max() without its Python wrapper: three a step


def _max_second_form(mapf: FoliatedMapField) -> float:
    """Max over nodes of |nabla_tr d_T phi|."""
    return sqrt(max(float(_max(second_form_norm_squared(mapf), None)), 0.0))


def run_flow(mapf: FoliatedMapField, struct: FoliatedStructure | None,
             config: FlowConfig) -> tuple[FoliatedMapField, FlowTrace]:
    """Iterate the heat flow until the tension tolerance, step or dt budget."""
    dt = config.resolve_dt(mapf.grid)
    trace = FlowTrace()

    def accept(step, m, E):
        # every energy the flow holds passes here
        if not isfinite(E):
            raise FlowDivergedError(f"energy {E!r} at step {step} is not finite")
        tau_max = tension_sup_norm(m)
        trace.record(step, E, tau_max, _max_second_form(m), _max(m.dT_norm_sq, None))
        return tau_max

    E = transversal_energy(mapf, struct)
    tau_max = accept(0, mapf, E)
    step = 0
    termination = "tension_tol"
    while tau_max > config.tension_tol:
        if step == config.max_steps:
            termination = "max_steps"
            break
        try:
            candidate = flow_step(mapf, dt)
        except (StepTooLargeError, InvalidMapError):   # beyond exp's cap, or the target chart
            rejected = True
        else:
            E_c = transversal_energy(candidate, struct)
            rejected = E_c > E
        if rejected:
            dt *= 0.5
            if dt < config.dt_min:
                termination = "dt_underflow"
                break
            continue
        step += 1
        mapf, E = candidate, E_c
        tau_max = accept(step, mapf, E)
    trace.termination = termination
    return mapf, trace


class Verdict(str, Enum):
    transversally_constant = "transversally_constant"
    totally_geodesic = "totally_geodesic"
    bound_violated = "bound_violated"
    inconclusive = "inconclusive"


@dataclass(frozen=True)
class RigidityTolerances:
    """Thresholds of ``rigidity_diagnostics``.  ``rank_tol_rel`` is applied
    to the singular values of the whitened Jacobian: one counts toward
    rank_T where it exceeds rank_tol_rel times their grid maximum."""

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


def _whitened(g: np.ndarray, gt: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The whitened Jacobian A = L'^T D L^{-T} (..., q', q), where L = diag(sqrt g_aa)
    and L' = diag(sqrt g'_ss) for the metric diagonals g and g'."""
    return np.sqrt(gt)[..., :, None] * D / np.sqrt(g)[..., None, :]


def _singular_values_2x2(A: np.ndarray) -> np.ndarray:
    """Singular values (sigma_max, sigma_min) of 2x2 matrices A, stacked on the
    last axis, without LAPACK.

    For A = [[a, b], [c, d]], sigma_max = (hypot(a+d, c-b) + hypot(a-d, c+b))/2
    and sigma_min = |ad - bc| / sigma_max (0 where sigma_max = 0).
    """
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    smax = 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, c + b))
    smin = np.divide(np.abs(a * d - b * c), smax, out=np.zeros_like(smax), where=smax > 0)
    return np.stack((smax, smin), axis=-1)


def _whitened_singular_values(mapf: FoliatedMapField) -> np.ndarray:
    """Singular values of d_T phi with respect to g and g' at each node,
    stacked on the last axis: one closed form per shape, and LAPACK only
    for a source or target of dimension 3 or more; row block by row block."""
    grid, q, qt = mapf.grid, mapf.grid.dim, mapf.target.dim
    if q == 1 or qt == 1:   # one singular value, |d_T phi|
        return np.sqrt(np.maximum(mapf.dT_norm_sq, 0.0))[..., None]
    sv = np.empty(grid.shape + (min(q, qt),))
    for r in row_blocks(grid):
        A = _whitened(grid.geometry.metric_diagonal(grid.points[r]),
                      mapf.target_metric_factor[r], mapf.D[r])
        sv[r] = _singular_values_2x2(A) if q == qt == 2 else np.linalg.svd(A, compute_uv=False)
    return sv


def rigidity_diagnostics(mapf: FoliatedMapField, struct: FoliatedStructure | None,
                         rank_cap: int,
                         tolerances: RigidityTolerances = RigidityTolerances(),
                         ) -> RigidityDiagnostics:
    """Curvature/rank diagnostics behind the rigidity statements.

    lam is the smallest eigenvalue of Ric^Q with respect to g, the closed
    form (q - 1) K of the source's constant curvature K (``ricci`` is that
    number times g); mu the target's sectional curvature, which is the
    constant ``curvature_constant`` for every catalog geometry, or 0 for a
    one-dimensional target (no 2-planes); rank_T is the grid maximum of the
    number of singular values of the whitened Jacobian L'^T d_T phi L^{-T}
    (L, L' the square roots of the diagonal metrics g, g') above rank_tol_rel
    times their grid maximum.
    Those come from closed forms when q = q' = 2 or either dimension is 1.
    Requires a near-harmonic map.
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
    # source Ricci lower bound: Ric = (q - 1) K g on the catalog
    lam = float((grid.dim - 1) * grid.geometry.curvature_constant)
    # target sectional upper bound: the catalog's curvature is constant
    mu = float(mapf.target.curvature_constant) if mapf.target.dim >= 2 else 0.0
    sv = _whitened_singular_values(mapf)
    rank_tol = tolerances.rank_tol_rel * max(float(np.max(sv)), 1e-300)
    rank_T = int(np.max(np.sum(sv > rank_tol, axis=-1)))
    max_d2 = float(np.max(mapf.dT_norm_sq))
    max_S = _max_second_form(mapf)
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
