"""Structured-grid calculus: stencils, operators, quadrature."""

import numpy as np
import pytest

import folharm as fh
from folharm.grid import diff1, diff2, hessian_scalar, mixed_diff, spectral_diff1
from oracles import dense_metric_inv, seam_diff1, seam_diff2

TWO_PI = 2 * np.pi


def _circle_grid(n=64):
    return fh.build_grid(fh.FlatTorus([TWO_PI]), n)


# -- Fourier modes ---------------------------------------------------------


def test_diff2_symbol_is_the_stencil_laplacian_of_each_fourier_mode():
    """On a fully periodic grid with axes of even and odd n, sum_a diff2 of a
    random field is minus the symbol times each of its Fourier modes."""
    grid = fh.build_grid(fh.FlatTorus([TWO_PI, 3.0]), (12, 9))
    f = np.random.default_rng(11).standard_normal(grid.shape)
    laplacian = diff2(grid, f, 0) + diff2(grid, f, 1)
    spectral = np.fft.ifftn(-grid.diff2_symbol * np.fft.fftn(f)).real
    assert np.max(np.abs(laplacian - spectral)) <= 1e-12 * np.max(np.abs(laplacian))


def test_spectral_derivative_is_exact_below_the_nyquist_mode(patch):
    """sin(3x) cos(4wy) + cos(8x) on a 16 x 9 grid: cos(8x) is the Nyquist
    mode of the x axis, whose derivative -8 sin(8x) vanishes at the nodes."""
    grid = fh.build_grid(fh.FlatTorus([TWO_PI, 3.0]), (16, 9))
    x, y, w = grid.points[..., 0], grid.points[..., 1], TWO_PI / 3.0
    f = np.sin(3 * x) * np.cos(4 * w * y) + np.cos(8 * x)
    assert np.max(np.abs(spectral_diff1(grid, f, 0)
                         - 3 * np.cos(3 * x) * np.cos(4 * w * y))) <= 1e-12
    assert np.max(np.abs(spectral_diff1(grid, f, 1)
                         + 4 * w * np.sin(3 * x) * np.sin(4 * w * y))) <= 1e-12
    with pytest.raises(fh.UnsupportedDomainError, match="periodic axis"):
        spectral_diff1(fh.build_grid(patch, 16), f, 0)


# -- stencil accuracy ------------------------------------------------------


def test_derivatives_exact_on_linear_data(patch):
    """Stencils (including one-sided boundary ones) reproduce affine data."""
    grid = fh.build_grid(patch, 16)
    f = 2.0 * grid.points[..., 0] - 3.0 * grid.points[..., 1] + 0.25
    assert np.max(np.abs(diff1(grid, f, 0) - 2.0)) <= 1e-12
    assert np.max(np.abs(diff1(grid, f, 1) + 3.0)) <= 1e-12
    assert np.max(np.abs(diff2(grid, f, 0))) <= 1e-12
    assert np.max(np.abs(mixed_diff(grid, f, 0, 1))) <= 1e-12


@pytest.mark.parametrize("factory", [
    lambda n: fh.build_grid(fh.FlatTorus([TWO_PI, TWO_PI]), n),
    lambda n: fh.build_grid(fh.HyperbolicPatch([-2, 2], [0.5, 3.0]), n),
])
def test_derivative_residual_drops_by_3_5_per_doubling(factory):
    def residual(n):
        grid = factory(n)
        x, y = grid.points[..., 0], grid.points[..., 1]
        f = np.sin(x) * np.cos(2 * y)
        errs = [
            np.max(np.abs(diff1(grid, f, 0) - np.cos(x) * np.cos(2 * y))),
            np.max(np.abs(diff2(grid, f, 1) + 4 * f)),
            np.max(np.abs(mixed_diff(grid, f, 0, 1)
                          + 2 * np.cos(x) * np.sin(2 * y))),
        ]
        return max(errs)

    residuals = [residual(n) for n in (32, 64, 128)]
    for coarse, fine in zip(residuals, residuals[1:]):
        assert coarse / fine >= 3.5


def test_hessian_is_symmetric(sphere):
    grid = fh.build_grid(sphere, 24)
    f = np.sin(grid.points[..., 0]) * np.cos(grid.points[..., 1])
    H = hessian_scalar(grid, f)
    assert np.allclose(H, np.swapaxes(H, -1, -2), atol=1e-12)


def test_one_pass_partials_equal_the_single_stencils(sphere):
    """``derivatives`` takes the first and second partials of a vector field
    in one pass, on a fixed and a periodic axis; each equals, bit for bit,
    the stencil of that partial alone."""
    grid = fh.build_grid(sphere, 24)
    theta, phi = grid.points[..., 0], grid.points[..., 1]
    f = np.stack([np.sin(theta) * np.cos(phi), np.cos(2 * theta) + np.sin(phi)], axis=-1)
    first, second = fh.grid.derivatives(grid, f)
    for a in range(2):
        assert np.array_equal(first[..., a], diff1(grid, f, a))
        for b in range(2):
            assert np.array_equal(second[..., a, b], mixed_diff(grid, f, min(a, b), max(a, b)))
    assert np.array_equal(first, fh.grad_B(grid, f))


@pytest.mark.parametrize("components", [(), (2,)], ids=["scalar", "vector"])
@pytest.mark.parametrize("case", ["flat torus", "sphere band", "hyperbolic patch", "circle"])
def test_block_second_partials_are_the_rows_of_the_whole_grid(monkeypatch, request, case,
                                                              components):
    """``derivatives`` at each block of a partition of 13 rows into blocks of
    1, 2, 3 and 12 rows (the last of 1 row, ragged but for the first) gives first
    and second partials bit for bit the rows of the whole grid's, whose first
    partials are ``grad_B``'s: on a periodic axis 0 (flat torus, circle) and
    a fixed one (the sphere band's theta, the hyperbolic patch), of random
    scalar and vector fields.  A middle block's slab is its rows and a halo
    row on each side, and at least 4 rows on a fixed axis 0."""
    geometry = {"flat torus": fh.FlatTorus([TWO_PI, 3.0]), "circle": fh.FlatTorus([TWO_PI]),
                "sphere band": request.getfixturevalue("sphere"),
                "hyperbolic patch": request.getfixturevalue("patch")}[case]
    grid = fh.build_grid(geometry, [13, 9][:geometry.dim])
    f = np.random.default_rng(17).standard_normal(grid.shape + components)
    first, second = fh.grid.derivatives(grid, f)
    assert np.array_equal(first, fh.grad_B(grid, f))
    for rows in (1, 2, 3, 12):
        blocks = [slice(start, start + rows) for start in range(0, 13, rows)]
        assert len(range(13)[blocks[-1]]) == 1            # ragged but for 1-row blocks
        for block in blocks:
            block_first, block_second = fh.grid.derivatives(grid, f, block)
            assert np.array_equal(block_first, first[block]), block
            assert np.array_equal(block_second, second[block]), block
    whole = fh.grid.derivatives(grid, f, slice(None))
    assert np.array_equal(whole[0], first) and np.array_equal(whole[1], second)

    slab_rows, partials_into = [], fh.grid._partials_into

    def counted(grid, f, *args):
        slab_rows.append(f.shape[0])
        return partials_into(grid, f, *args)

    monkeypatch.setattr(fh.grid, "_partials_into", counted)
    for rows, fixed_rows in ((2, 4), (1, 4)):
        slab_rows.clear()
        fh.grid.derivatives(grid, f, slice(6, 6 + rows))
        assert set(slab_rows) == {rows + 2 if grid.periodic[0] else fixed_rows}, rows


# -- differential operators ------------------------------------------------


def test_laplacian_flat_circle_on_cosine():
    """With a trivial foliation the operator reduces to -d^2/db^2."""
    grid = _circle_grid(128)
    b = grid.points[..., 0]
    lap = fh.delta_B_scalar(grid, np.cos(b), None)
    assert np.max(np.abs(lap - np.cos(b))) <= 1e-3


def test_laplacian_includes_mean_curvature_drift():
    """vol = 2 + cos b shifts the flat value by -sin^2 b / (2 + cos b)."""
    grid = _circle_grid(256)
    b = grid.points[..., 0]
    struct = fh.named_profile("cosine_offset", 1, {"offset": 2.0})
    lap = fh.delta_B_scalar(grid, np.cos(b), struct)
    want = np.cos(b) - np.sin(b) ** 2 / (2.0 + np.cos(b))
    assert np.max(np.abs(lap - want)) <= 1e-3


def test_laplacian_self_adjoint_against_dirichlet_form():
    """int f Delta_B g mu = int <grad f, grad g> mu on a closed chart, vol = 1."""
    grid = _circle_grid(128)
    b = grid.points[..., 0]
    f, g = np.sin(b), np.cos(2 * b)
    lhs = fh.integrate(grid, f * fh.delta_B_scalar(grid, g, None))
    grads = np.einsum(
        "...ab,...a,...b->...", dense_metric_inv(grid.geometry, grid.points),
        fh.grad_B(grid, f), fh.grad_B(grid, g),
    )
    rhs = fh.integrate(grid, grads)
    assert abs(lhs - rhs) <= 1e-10


def test_divergence_theorem_residual_tiny():
    grid = _circle_grid(128)
    struct = fh.named_profile("cosine_offset", 1, {"offset": 2.0})
    X = np.cos(grid.points)
    assert fh.check_divergence_theorem(grid, X, struct) <= 1e-8


def test_divergence_theorem_needs_closed_chart(patch):
    grid = fh.build_grid(patch, 16)
    struct = fh.FoliatedStructure.trivial()
    with pytest.raises(fh.UnsupportedDomainError):
        fh.check_divergence_theorem(grid, np.ones(grid.shape + (2,)), struct)


# -- quadrature ------------------------------------------------------------


def test_integrate_constant_gives_chart_volume(torus2, sphere):
    grid = fh.build_grid(torus2, 32)
    assert abs(fh.integrate(grid, np.ones(grid.shape)) - TWO_PI ** 2) <= 1e-10
    sgrid = fh.build_grid(sphere, 128)
    # band area: 2 pi (cos(cap) - cos(pi - cap)) = 4 pi cos(cap)
    want = 4 * np.pi * np.cos(0.4)
    assert abs(fh.integrate(sgrid, np.ones(sgrid.shape)) - want) <= 1e-3


def test_integrate_weight_modes_are_consistent(torus1):
    grid = fh.build_grid(torus1, 64)
    struct = fh.named_profile("cosine_offset", 1, {"offset": 2.0})
    f = np.sin(grid.points[..., 0]) ** 2
    mani = fh.integrate(grid, f, "manifold_volume", struct)
    vol = struct.vol_at(grid.points)
    assert abs(mani - fh.integrate(grid, f * vol, "base_volume")) <= 1e-12
    with pytest.raises(fh.ConfigurationError):
        fh.integrate(grid, f, "no_such_weight")
    with pytest.raises(fh.ConfigurationError):
        fh.integrate(grid, f, "manifold_volume")   # needs a structure


def test_trapezoid_quadrature_on_fixed_axes(patch):
    grid = fh.build_grid(patch, 64)
    # chart volume of the patch: int 1/y^2 over the box
    want = 4.0 * (1 / 0.5 - 1 / 3.0)
    got = fh.integrate(grid, np.ones(grid.shape))
    assert abs(got - want) <= 1e-2


@pytest.mark.parametrize("label, shape", [
    ("torus1", (8,)), ("torus1", (33,)), ("torus2", (8, 12)), ("torus2", (17, 16)),
    ("sphere", (9, 16)), ("sphere", (16, 11)),
])
def test_stencils_equal_the_seam_assignments_bit_for_bit(label, shape, request):
    """The wrapped-copy stencils give the same bits as assigning the two seam
    layers one at a time; fixed axes (the sphere's theta) are unchanged."""
    geom = request.getfixturevalue(label)
    grid = fh.build_grid(geom, shape)
    rng = np.random.default_rng(sum(shape))
    for f in (rng.standard_normal(shape), 1e3 * rng.standard_normal(shape + (2,))):
        for axis in range(grid.dim):
            assert np.array_equal(diff1(grid, f, axis), seam_diff1(grid, f, axis))
            assert np.array_equal(diff2(grid, f, axis), seam_diff2(grid, f, axis))


# -- construction ----------------------------------------------------------


def test_build_grid_shapes_and_spacing(torus2, patch):
    g1 = fh.build_grid(torus2, (16, 24))
    assert g1.shape == (16, 24)
    assert np.isclose(g1.spacing[0], TWO_PI / 16)      # periodic: no seam node
    g2 = fh.build_grid(patch, 17)
    assert np.isclose(g2.spacing[0], 4.0 / 16)          # fixed: endpoints kept
    assert np.isclose(g2.points[0, 0, 0], -2.0)
    assert np.isclose(g2.points[-1, 0, 0], 2.0)


def test_build_grid_rejects_tiny_resolutions(torus1):
    with pytest.raises(fh.ConfigurationError):
        fh.build_grid(torus1, 4)
    with pytest.raises(fh.ConfigurationError, match="axes"):
        fh.build_grid(torus1, (16, 16))          # one resolution per axis


@pytest.mark.parametrize("period", [1e308, 1e-170])
def test_build_grid_rejects_spacings_without_a_finite_nonzero_square(period):
    with pytest.raises(fh.ConfigurationError, match="square"):
        fh.build_grid(fh.FlatTorus([period]), 16)


def test_a_grid_at_the_row_block_budget_is_one_block(torus1, torus2):
    """8,192 nodes are one block, one more row makes two, and a row above the
    budget is a block of its own."""
    assert fh.grid.ROW_BLOCK_NODES == 8192
    assert fh.grid.row_blocks(fh.build_grid(torus2, (64, 128))) == [slice(0, 64)]
    assert fh.grid.row_blocks(fh.build_grid(torus1, 8192)) == [slice(0, 8192)]
    assert len(fh.grid.row_blocks(fh.build_grid(torus2, (65, 128)))) == 2
    assert len(fh.grid.row_blocks(fh.build_grid(torus2, (8, 8193)))) == 8
