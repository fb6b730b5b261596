"""Discrete transverse calculus on a structured grid over a chart.

Second-order central differences everywhere; a periodic axis takes them from
one copy of the field wrapped by a layer on each side, and fixed
(non-periodic) axes use one-sided second-order stencils on the two boundary
layers.  All operators
are exact on fields that are polynomials of degree <= 1 in the chart
coordinates of a flat chart.  ``derivatives`` takes the first and second
partials of one field in one pass, wrapping each periodic axis once.

The discrete Fourier modes of a periodic axis have the angular wavenumbers
``GridChart.wavenumbers``; they give the exact symbol of the stencil
Laplacian (``diff2_symbol``) and a spectral first derivative
(``spectral_diff1``).  ``numpy.fft`` is loaded only when one is used.

Integration is a weighted Riemann sum against the base volume element
w(i) = sqrt(det g(b_i)) * prod_a h_a, with composite-trapezoid end weights on
fixed axes.  The measure factorization mu_M = vol_L * mu_B is the concrete
meaning of integrals over the foliated manifold: ``manifold_volume`` weights
by vol_L * w, and ``base_volume`` by w alone is the mu_M / vol_L measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, UnsupportedDomainError
from .foliation import FoliatedStructure
from .geometry import TransverseGeometry, _total, lower_christoffel

__all__ = [
    "GridChart",
    "build_grid",
    "diff1",
    "diff2",
    "spectral_diff1",
    "mixed_diff",
    "grad_B",
    "derivatives",
    "div_nabla",
    "delta_B_scalar",
    "kappa_on_grid",
    "kappa_sharp",
    "along",
    "metric_trace",
    "integrate",
    "check_divergence_theorem",
]

WEIGHT_MODES = ("base_volume", "manifold_volume")


@dataclass(frozen=True)
class GridChart:
    """Structured grid over the chart box of a model geometry.

    Periodic axes carry n nodes with spacing (hi - lo)/n and no duplicated
    seam; fixed axes carry n nodes including both endpoints with spacing
    (hi - lo)/(n - 1).
    """

    geometry: TransverseGeometry
    shape: tuple[int, ...]
    axes: tuple[np.ndarray, ...]
    spacing: tuple[float, ...]
    periodic: tuple[bool, ...]

    @property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def points(self) -> np.ndarray:
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)

    @cached_property
    def metric_inv(self) -> np.ndarray:
        return self.geometry.metric_inv(self.points)

    @cached_property
    def metric_inv_factor(self) -> np.ndarray:
        """The inverse metric as contractions take it: g^aa (..., q)."""
        return self.geometry.metric_inv_diagonal(self.points)

    @cached_property
    def gamma(self) -> np.ndarray:
        return self.geometry.christoffel(self.points)

    @cached_property
    def christoffel_symbols(self) -> dict:
        """The geometry's nonzero Christoffel symbols at the nodes."""
        return self.geometry.christoffel_symbols(self.points)

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return self.geometry.sqrt_det(self.points)

    @cached_property
    def weights(self) -> np.ndarray:
        w = self.sqrt_det * float(np.prod(self.spacing))
        for a in range(self.dim):
            if not self.periodic[a]:
                edge = [slice(None)] * self.dim
                for idx in (0, -1):
                    edge[a] = idx
                    w[tuple(edge)] = w[tuple(edge)] * 0.5
        return w

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumbers 2 pi fftfreq(n_a, h_a) of each axis, in the
        order of ``numpy.fft``: those of the discrete Fourier modes of a
        periodic axis."""
        return tuple(2 * np.pi * np.fft.fftfreq(n, h) for n, h in zip(self.shape, self.spacing))

    @cached_property
    def diff2_symbol(self) -> np.ndarray:
        """sum_a (4 / h_a^2) sin^2(k_a h_a / 2) at each Fourier mode k, added
        in order of a: on a fully periodic grid the stencil Laplacian
        sum_a diff2 multiplies mode k by minus this."""
        total = np.zeros(self.shape)
        for a, (k, h) in enumerate(zip(self.wavenumbers, self.spacing)):
            s = np.sin(k * h / 2)
            total += _along_axis(4 / h**2 * s * s, self.dim, a)
        return total

    @property
    def fully_periodic(self) -> bool:
        return all(self.periodic)

    @cached_property
    def boundary_mask(self) -> np.ndarray | None:
        """True on the end nodes of fixed axes; None on a fully periodic grid."""
        if self.fully_periodic:
            return None
        mask = np.zeros(self.shape, dtype=bool)
        for a in range(self.dim):
            if not self.periodic[a]:
                mask[_sl(self.dim, a, 0)] = True
                mask[_sl(self.dim, a, -1)] = True
        return mask


def build_grid(geometry: TransverseGeometry, resolution: int | Sequence[int]
               ) -> GridChart:
    if np.isscalar(resolution):
        resolution = [int(resolution)] * geometry.dim
    resolution = tuple(int(n) for n in resolution)
    if len(resolution) != geometry.dim:
        raise ConfigurationError(
            f"resolution: expected {geometry.dim} axes, got {len(resolution)}"
        )
    if any(n < 8 for n in resolution):
        raise ConfigurationError(f"resolution: every axis needs n >= 8, got {resolution}")
    axes, spacing = [], []
    for a, n in enumerate(resolution):
        lo, hi = geometry.chart_bounds[a]
        if geometry.periodic[a]:
            h = (hi - lo) / n
            axes.append(lo + h * np.arange(n))
        else:
            h = (hi - lo) / (n - 1)
            axes.append(np.linspace(lo, hi, n))
        h = float(h)
        if not 0.0 < h * h < np.inf:      # diff2 divides by h^2, cfl_step scales with it
            raise ConfigurationError(
                f"chart axis {a}: grid spacing {h:g} has no finite nonzero square"
            )
        spacing.append(h)
    return GridChart(
        geometry=geometry,
        shape=resolution,
        axes=tuple(axes),
        spacing=tuple(spacing),
        periodic=tuple(geometry.periodic),
    )


def _sl(ndim: int, axis: int, s) -> tuple:
    idx = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


def _along_axis(x: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    """A 1-D array x as an array of ``ndim`` axes that runs along ``axis``."""
    return x.reshape([x.size if b == axis else 1 for b in range(ndim)])


@lru_cache(maxsize=None)
def _axis_slices(ndim: int, axis: int) -> tuple:
    """Index tuples along ``axis``: [-1:], [:1], [2:], [1:-1] and [:-2]."""
    return tuple(_sl(ndim, axis, slice(lo, hi))
                 for lo, hi in ((-1, None), (None, 1), (2, None), (1, -1), (None, -2)))


def _partials_into(grid: GridChart, f: np.ndarray, axis: int,
                   d1: np.ndarray | None, d2: np.ndarray | None = None) -> None:
    """First and second partials of f along ``axis`` into d1 and d2 (None: not taken)."""
    nd = f.ndim
    last, head, hi, mid, lo = _axis_slices(nd, axis)
    if grid.periodic[axis]:        # fp[i + 1] = f[i mod n] for i = -1 .. n
        fp = np.concatenate((f[last], f, f[head]), axis=axis, dtype=float)
        if d1 is not None:
            np.subtract(fp[hi], fp[lo], out=d1)
        if d2 is not None:
            np.multiply(fp[mid], -2.0, out=d2)  # f[i+1] - 2 f[i] + f[i-1], in that order
            d2 += fp[hi]
            d2 += fp[lo]
    else:                          # one-sided stencils on the boundary layers
        def at(i):
            return f[_sl(nd, axis, i)]

        if d1 is not None:
            d1[mid] = f[hi] - f[lo]
            d1[_sl(nd, axis, 0)] = -3 * at(0) + 4 * at(1) - at(2)
            d1[_sl(nd, axis, -1)] = 3 * at(-1) - 4 * at(-2) + at(-3)
        if d2 is not None:
            d2[mid] = f[hi] - 2 * f[mid] + f[lo]
            d2[_sl(nd, axis, 0)] = 2 * at(0) - 5 * at(1) + 4 * at(2) - at(3)
            d2[_sl(nd, axis, -1)] = 2 * at(-1) - 5 * at(-2) + 4 * at(-3) - at(-4)
    if d1 is not None:
        d1 /= 2 * grid.spacing[axis]
    if d2 is not None:
        d2 /= grid.spacing[axis] ** 2


def diff1(grid: GridChart, f: np.ndarray, axis: int) -> np.ndarray:
    """First partial derivative along a grid axis, second order."""
    _partials_into(grid, f, axis, out := np.empty(f.shape))
    return out


def diff2(grid: GridChart, f: np.ndarray, axis: int) -> np.ndarray:
    """Second partial derivative along one axis, second order."""
    _partials_into(grid, f, axis, None, out := np.empty(f.shape))
    return out


def spectral_diff1(grid: GridChart, f: np.ndarray, axis: int) -> np.ndarray:
    """First partial derivative along a periodic axis by one FFT pair: exact,
    up to rounding, on trigonometric polynomials below the Nyquist mode,
    whose derivative it takes as zero."""
    if not grid.periodic[axis]:
        raise UnsupportedDomainError(f"spectral derivative needs a periodic axis, got axis {axis}")
    n, k = grid.shape[axis], grid.wavenumbers[axis].copy()
    if n % 2 == 0:
        k[n // 2] = 0.0
    f_hat = np.fft.fft(f, axis=axis) * (1j * _along_axis(k, f.ndim, axis))
    return np.fft.ifft(f_hat, axis=axis).real


def mixed_diff(grid: GridChart, f: np.ndarray, a: int, b: int) -> np.ndarray:
    """Mixed second partial d_a d_b (symmetric by construction for a != b)."""
    return diff2(grid, f, a) if a == b else diff1(grid, diff1(grid, f, b), a)


# partials stacked last are views of arrays that hold each partial as one block

def grad_B(grid: GridChart, f: np.ndarray) -> np.ndarray:
    """First partials d_a f of a scalar or vector field, stacked last:
    f.shape + (q,); for a scalar field this is its basic gradient."""
    out = np.empty((grid.dim,) + f.shape)
    for a in range(grid.dim):
        _partials_into(grid, f, a, out[a])
    return out.transpose((*range(1, out.ndim), 0))


def derivatives(grid: GridChart, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second partials of a scalar or vector field, stacked last, in one pass:
    each axis is wrapped once for both, and d_a d_b (a < b) differences d_b."""
    q = grid.dim
    first, second = np.empty((q,) + f.shape), np.empty((q, q) + f.shape)
    for b in range(q):
        _partials_into(grid, f, b, first[b], second[b, b])
        for a in range(b):
            _partials_into(grid, first[b], a, second[a, b])
            second[b, a] = second[a, b]
    return (first.transpose((*range(1, first.ndim), 0)),
            second.transpose((*range(2, second.ndim), 0, 1)))


def hessian_scalar(grid: GridChart, f: np.ndarray) -> np.ndarray:
    """Second partials d_a d_b f of a scalar or vector field, stacked last:
    f.shape + (q, q)."""
    return derivatives(grid, f)[1]


def div_nabla(grid: GridChart, X: np.ndarray) -> np.ndarray:
    """Transversal divergence of a vector field (contravariant components).

    div X = d_a X^a + Gamma^a_{ab} X^b, which analytically equals
    (1/sqrt(det g)) d_a (sqrt(det g) X^a).
    """
    out = np.zeros(X.shape[:-1])
    for a in range(grid.dim):
        out += diff1(grid, X[..., a], a)
    trace = {}                                      # b -> Gamma^a_{ab}, summed over a
    for (c, a, b), value in grid.christoffel_symbols.items():
        if c == a:
            trace[b] = value if b not in trace else trace[b] + value
    if trace:
        out += _total(value * X[..., b] for b, value in sorted(trace.items()))
    return out


def kappa_on_grid(grid: GridChart, struct: FoliatedStructure | None) -> np.ndarray:
    """Mean-curvature covector -d log vol_L at the grid nodes.

    Uses the closed-form logarithmic derivative when the profile carries one,
    otherwise central differences of log vol_L on the grid.
    """
    if struct is None:
        return np.zeros(grid.shape + (grid.dim,))
    if struct.has_closed_form_kappa:
        return struct.kappa_closed_form(grid.points)
    return -grad_B(grid, np.log(struct.vol_at(grid.points)))


def kappa_sharp(grid: GridChart, struct: FoliatedStructure | None) -> np.ndarray:
    """Mean-curvature vector kappa^a = g^{ab} kappa_b at the grid nodes."""
    return grid.metric_inv_factor * kappa_on_grid(grid, struct)


def delta_B_scalar(grid: GridChart, f: np.ndarray,
                   struct: FoliatedStructure | None = None) -> np.ndarray:
    """Basic Laplacian on functions (geometer's positive sign).

    Delta_B f = -g^{ab} (d_a d_b f - Gamma^c_{ab} d_c f) + kappa^a d_a f.
    With a minimal foliation this reduces to -f'' on the flat circle, so
    Delta_B cos = cos.
    """
    grad, hess = derivatives(grid, f)
    if grid.christoffel_symbols:
        hess = hess - lower_christoffel(grid.christoffel_symbols, grad)
    out = -metric_trace(grid.metric_inv_factor, hess)
    out += along(kappa_sharp(grid, struct), grad)
    return out


def along(T: np.ndarray, X: np.ndarray) -> np.ndarray:
    """T(X) = T_{..a} X^a (..., *n) of a tensor T (..., *n, q) and vectors X (..., q),
    as u_a X^a or D^g_a X^a: each component multiplied, then added, into its
    block of the output, one term at a time in order of a."""
    out = np.empty(T.shape[:-1])
    for i in np.ndindex(T.shape[X.ndim - 1:-1]):
        block = out[(..., *i)]
        np.multiply(T[(..., *i, 0)], X[..., 0], out=block)
        for a in range(1, X.shape[-1]):
            block += T[(..., *i, a)] * X[..., a]
    return out


def metric_trace(h: np.ndarray, S: np.ndarray) -> np.ndarray:
    """g^{ab} S_ab of S (..., q, q), or of each S^g of S (..., n, q, q), for a
    grid's metric_inv_factor h, in order of a."""
    return along(S.diagonal(0, -2, -1), h)          # S_aa, indexed [..., a]


def integrate(grid: GridChart, f: np.ndarray, weight: str = "base_volume",
              struct: FoliatedStructure | None = None) -> float:
    """Weighted Riemann sum of a scalar field over the chart."""
    if weight not in WEIGHT_MODES:
        raise ConfigurationError(f"weight: expected one of {WEIGHT_MODES}, got {weight!r}")
    w = grid.weights
    if weight == "manifold_volume":
        if struct is None:
            raise ConfigurationError("manifold_volume weight needs a foliated structure")
        w = w * struct.vol_at(grid.points)
    return float(np.add.reduce(f * w, None))     # f.sum(), without its Python wrapper


def check_divergence_theorem(grid: GridChart, X: np.ndarray,
                             struct: FoliatedStructure) -> float:
    """Residual of int div X d(mu_M) = int g(X, kappa#) d(mu_M).

    Requires a fully periodic chart (the closed-manifold hypothesis).
    """
    if not grid.fully_periodic:
        raise UnsupportedDomainError(
            "divergence theorem needs a closed manifold; chart has fixed boundaries"
        )
    lhs = integrate(grid, div_nabla(grid, X), "manifold_volume", struct)
    kappa = kappa_on_grid(grid, struct)
    g_X_kappa = along(X, kappa)                     # g(X, kappa#) = X^a kappa_a
    rhs = integrate(grid, g_X_kappa, "manifold_volume", struct)
    return abs(lhs - rhs)
