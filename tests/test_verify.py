"""Identity checks: first variation, curvature identity, reductions."""

import json
from pathlib import Path

import numpy as np
import pytest

import folharm as fh
from folharm import cli, foliation, maps, verify
from folharm.verify import _neville_to_zero
from oracles import loop_bochner

TWO_PI = 2 * np.pi
CONFIGS = Path(__file__).parents[1] / "scripts" / "configs"


def _circle_sine(n, amp=0.1):
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), n)
    fam = fh.make_family("sine_perturbation", grid.geometry, grid.geometry,
                         {"modes": [[0, [1], amp, 0.0]]})
    return fam.realize(grid)


def _torus2_sine(n):
    grid = fh.build_grid(fh.FlatTorus([TWO_PI, TWO_PI]), n)
    fam = fh.make_family(
        "sine_perturbation", grid.geometry, grid.geometry,
        {"modes": [[0, [1, 0], 0.2, 0.0], [1, [1, 1], 0.1, 0.4]]},
    )
    return fam.realize(grid)


# -- extrapolation helper --------------------------------------------------


def test_neville_extrapolation_exact_on_polynomials():
    xs = [0.04, 0.01, 0.0025]
    ys = [7.0 + 3 * x - 2 * x**2 for x in xs]
    assert abs(_neville_to_zero(xs, ys) - 7.0) <= 1e-12


# -- first variation -------------------------------------------------------


def test_energy_derivative_matches_tension_pairing():
    """dE/dt of exp_phi(tV) against -int <V, tau>, V = sin x."""
    mapf = _circle_sine(128)
    V = fh.variation_field(mapf.grid, mapf.target, {"kvec": [1]})
    rep = fh.check_first_variation(mapf, None, fh.VariationSpec(V),
                                   tolerance=1e-3)
    assert rep.passed
    # analytic pairing: -int sin(x) * (-0.1 sin x) dx = 0.1 pi
    tau = fh.tension(mapf)
    rhs = -fh.integrate(mapf.grid, np.einsum(
        "...ab,...a,...b->...", mapf.target_metric, V, tau))
    assert abs(rhs - 0.1 * np.pi) <= 1e-4


def test_first_variation_unchanged_by_leaf_volume():
    """The 1/vol_L weight cancels: kappa_B != 0 gives the same identity."""
    mapf = _circle_sine(128)
    V = fh.variation_field(mapf.grid, mapf.target, {"kvec": [1]})
    struct = fh.named_profile("cosine_offset", 1, {"offset": 2.0})
    plain = fh.check_first_variation(mapf, None, fh.VariationSpec(V), 5e-3)
    weighted = fh.check_first_variation(mapf, struct, fh.VariationSpec(V), 5e-3)
    assert weighted.passed
    assert weighted.residuals == plain.residuals


def test_first_variation_requires_matching_shape():
    mapf = _circle_sine(32)
    with pytest.raises(fh.PreconditionError):
        fh.check_first_variation(mapf, None,
                                 fh.VariationSpec(np.zeros((32, 2))))


def test_first_variation_rejects_moving_fixed_boundary(patch):
    grid = fh.build_grid(patch, 16)
    values = np.broadcast_to(np.array([0.0, 1.5]), grid.shape + (2,)).copy()
    mapf = fh.FoliatedMapField(grid, patch, values)
    V = np.ones(grid.shape + (2,))
    with pytest.raises(fh.PreconditionError):
        fh.check_first_variation(mapf, None, fh.VariationSpec(V))


# -- curvature identity ----------------------------------------------------


def test_bochner_contraction_matches_loop_oracle(sphere):
    grid = fh.build_grid(fh.FlatTorus([TWO_PI, TWO_PI]), 16)
    fam = fh.make_family("band_wave", grid.geometry, sphere, {})
    mapf = fam.realize(grid)
    F = fh.bochner_term(mapf)
    D = fh.d_T(mapf)          # same discrete differential as the implementation
    for idx in [(0, 0), (3, 7), (8, 2), (15, 15)]:
        p = grid.points[idx]
        want = loop_bochner(grid.geometry, sphere, p, D[idx], mapf.values[idx])
        assert abs(F[idx] - want) <= 1e-12


def test_curvature_identity_residual_second_order():
    struct = fh.named_profile("cosine_offset", 1, {"offset": 2.0})
    rep = fh.refinement_report(
        "curvature_identity", (32, 64, 128),
        lambda n: fh.weitzenbock_residual(_torus2_sine(n), struct, "general"),
        order_tolerance=1.7,
    )
    assert rep.passed
    assert min(rep.orders) >= 1.7


def test_curvature_identity_sphere_identity_terms(sphere):
    """Harmonic-mode identity map: each term vanishes except the two
    curvature contractions, which cancel exactly."""
    grid = fh.build_grid(sphere, 64)
    mapf = fh.make_family("identity", sphere, sphere).realize(grid)
    terms = fh.weitzenbock_terms(mapf, None, mode="harmonic")
    assert np.max(np.abs(terms["lhs"])) <= 1e-8
    assert np.max(np.abs(terms["second_form_sq"])) <= 1e-8
    assert np.max(np.abs(terms["kappa_drift"])) <= 1e-8
    ric_part, curv_part = fh.bochner_parts(mapf)
    assert np.min(ric_part) >= 1.0          # both contractions are ~2 ...
    assert np.max(np.abs(terms["bochner"])) <= 1e-8   # ... and cancel
    assert np.max(np.abs(terms["lhs"] - terms["rhs"])) <= 1e-8


def test_bochner_integral_vanishes_for_harmonic_constant_density(sphere):
    """Converged harmonic map with constant |d_T phi|^2 and vanishing second
    form must have zero-mean curvature term."""
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), 64)
    fam = fh.make_family("latitude_circle", grid.geometry, sphere,
                         {"theta": np.pi / 2})
    mapf = fam.realize(grid)
    F = fh.bochner_term(mapf)
    assert abs(fh.integrate(grid, F)) <= 1e-6


def test_invalid_mode_rejected():
    mapf = _circle_sine(32)
    with pytest.raises(fh.PreconditionError):
        fh.weitzenbock_terms(mapf, None, mode="other")


# -- point-foliation reduction ----------------------------------------------


def test_point_foliation_reduction_is_bit_identical():
    """p = 0, vol_L = 1 must reproduce the trivial-foliation numbers exactly:
    the general machinery degrades to the classical unfoliated identities."""
    mapf = _circle_sine(64)
    V = fh.variation_field(mapf.grid, mapf.target, {"kvec": [1]})
    trivial = fh.FoliatedStructure.trivial(leaf_dimension=0)

    rep_none = fh.check_first_variation(mapf, None, fh.VariationSpec(V))
    rep_triv = fh.check_first_variation(mapf, trivial, fh.VariationSpec(V))
    assert rep_none.to_dict() == rep_triv.to_dict()

    for mode in ("general", "harmonic"):
        t_none = fh.weitzenbock_terms(mapf, None, mode)
        t_triv = fh.weitzenbock_terms(mapf, trivial, mode)
        assert sorted(t_none) == sorted(t_triv)
        for key in t_none:
            assert np.array_equal(t_none[key], t_triv[key]), key


# -- row blocks ----------------------------------------------------------------


def _sphere_band_map(sphere, n=16):
    """The sphere band's identity plus a bump that vanishes on the fixed band
    edges, and the identity as a closed-form map."""
    grid = fh.build_grid(sphere, n)
    identity = fh.make_family("identity", sphere, sphere)
    theta, ph = grid.points[..., 0], grid.points[..., 1]
    lo, hi = sphere.chart_bounds[0]
    bump = 0.05 * np.sin(np.pi * (theta - lo) / (hi - lo)) * np.cos(ph)
    values = identity.func(grid.points) + bump[..., None]
    return fh.FoliatedMapField(grid, sphere, values, identity.winding), identity


def _block_case(case, sphere, patch):
    """Fresh maps of ``case``: one for the Weitzenboeck terms, and phi and psi
    to compose."""
    if case == "sphere band":
        mapf, identity = _sphere_band_map(sphere)
        return mapf, _sphere_band_map(sphere)[0], identity
    torus = fh.FlatTorus([TWO_PI, TWO_PI])
    if case == "flat torus":
        return _torus2_sine(16), _torus2_sine(16), fh.make_family("band_wave", torus, sphere)
    psi = fh.make_family("sine_into_patch", torus, patch)
    return psi.realize(fh.build_grid(torus, 16)), _torus2_sine(16), psi


@pytest.mark.parametrize("case", ["flat torus", "sphere band", "hyperbolic target"])
def test_row_blocks_change_no_bit_of_the_checks(monkeypatch, sphere, patch, case):
    """Row blocks of 5 rows (5, 5, 5 and 1 rows on a 16^2 grid) give the same
    bits as one block: the Weitzenboeck terms in both modes, with and without
    a foliation, the composition residuals, and the flow path's tau and
    |S|^2, five flow steps (trace and final map) and rigidity diagnostics."""
    struct = fh.named_profile("cosine_offset", 1, {"offset": 2.0})

    def run():
        out = {}
        for mode in ("general", "harmonic"):
            for st in (None, struct):
                terms = fh.weitzenbock_terms(_block_case(case, sphere, patch)[0], st, mode)
                out.update({(mode, st is None, k): v.tobytes() for k, v in terms.items()})
        out["composition"] = fh.composition_residuals(*_block_case(case, sphere, patch)[1:])
        mapf = _block_case(case, sphere, patch)[0]
        out["tau"] = mapf.tau.tobytes()
        out["S_sq"] = fh.second_form_norm_squared(mapf).tobytes()
        final, trace = fh.run_flow(mapf, None, fh.FlowConfig(tension_tol=0.0, max_steps=5))
        out["trace"] = [np.asarray(column, dtype=float).tobytes() for column in trace.columns()[1]]
        out["final"] = final.values.tobytes()
        out["diagnostics"] = fh.rigidity_diagnostics(
            final, None, 2, fh.RigidityTolerances(tension_tol=np.inf)).to_dict()
        return out

    monkeypatch.setattr(fh.grid, "ROW_BLOCK_NODES", 5 * 16)
    assert [len(range(16)[r]) for r in fh.grid.row_blocks(_torus2_sine(16).grid)] == [5, 5, 5, 1]
    blocked = run()
    assert blocked["trace"][0] == np.arange(6, dtype=float).tobytes()   # five steps taken
    monkeypatch.setattr(fh.grid, "ROW_BLOCK_NODES", 16 * 16)
    assert blocked == run()


@pytest.mark.parametrize("mode", ["general", "harmonic"])
@pytest.mark.parametrize("case", ["flat torus", "sphere band"])
def test_weitzenbock_terms_run_the_stencils_once_per_field(monkeypatch, sphere, patch,
                                                           case, mode):
    """The check runs the map's stencils once and forms each row block of S
    once, in the field's second-order pass: its kappa operator, d_T phi o
    nabla kappa#, takes no S.  On a 16^2 grid in blocks of 4 rows."""
    calls = {"derivatives": 0, "second_fund_form": 0}

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(maps, "derivatives", counted("derivatives", maps.derivatives))
    second_form = counted("second_fund_form", maps.second_fund_form)
    monkeypatch.setattr(maps, "second_fund_form", second_form)
    monkeypatch.setattr(verify, "second_fund_form", second_form)
    monkeypatch.setattr(fh.grid, "ROW_BLOCK_NODES", 4 * 16)
    struct = fh.named_profile("cosine_offset", 1, {"offset": 2.0}) if case == "flat torus" else None
    mapf = _block_case(case, sphere, patch)[0]
    assert len(fh.grid.row_blocks(mapf.grid)) == 4
    fh.weitzenbock_terms(mapf, struct, mode)
    assert calls == {"derivatives": 1, "second_fund_form": 4}


@pytest.mark.parametrize("case, axis", [("sphere", 0), ("sphere", 1), ("patch", 0), ("patch", 1)])
def test_kappa_operator_takes_the_source_connection(monkeypatch, request, case, axis):
    """On a curved source, which no shipped config reaches, nabla kappa# needs
    its Christoffel term.  The totally geodesic identity of the sphere band or
    of the hyperbolic patch, with a leaf volume along either axis, satisfies
    the general-mode identity to rounding; without that term it fails by O(1)
    where Gamma^a_ab kappa^b != 0 (axis 0 of the sphere, axis 1 of the patch)."""
    source = request.getfixturevalue(case)
    struct = fh.named_profile("cosine_offset", 1, {"axis": axis})

    def residual(n):
        return fh.weitzenbock_residual(
            fh.make_family("identity", source, source).realize(fh.build_grid(source, n)), struct)

    assert max(residual(32), residual(64)) <= 2e-9
    full = verify.covariant_derivative
    monkeypatch.setattr(verify, "covariant_derivative",
                        lambda grid, s, symbols, D: full(grid, s, {}, D))
    dropped = residual(32)
    assert dropped >= 0.5 if (case, axis) in [("sphere", 0), ("patch", 1)] else dropped <= 2e-9


def test_composition_at_256_stays_under_its_memory_bound(sphere):
    """The traced peak of the composition check on a 256^2 grid, the stencils
    of phi and psi o phi included, stays under 28 MB; it was 41.3 MB when the
    check built whole-grid second forms."""
    import tracemalloc

    grid = fh.build_grid(fh.FlatTorus([TWO_PI, TWO_PI]), 256)
    psi = fh.make_family("band_wave", grid.geometry, sphere)
    phi = fh.make_family("sine_perturbation", grid.geometry, grid.geometry,
                         {"modes": [[0, [1, 0], 0.15, 0.0], [1, [0, 1], 0.1, 0.7]]}).realize(grid)
    tracemalloc.start()
    try:
        fh.composition_residuals(phi, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28e6


# -- refinement machinery ----------------------------------------------------


def test_refinement_report_orders_and_pass_flag():
    rep = fh.refinement_report("synthetic", (32, 64, 128),
                               lambda n: (32 / n) ** 2,
                               order_tolerance=1.9, tolerance=0.1)
    assert rep.orders == [2.0, 2.0]
    assert rep.passed
    rep = fh.refinement_report("synthetic", (32, 64), lambda n: 1.0,
                               order_tolerance=1.9)
    assert not rep.passed


def test_an_exactly_zero_finer_residual_has_order_inf(tmp_path):
    """A finer residual of exactly 0 gives the order inf, which passes any
    order tolerance and which verify.json writes as "inf"."""
    rep = fh.refinement_report("synthetic", (32, 64), lambda n: 1e-3 if n == 32 else 0.0,
                               order_tolerance=1.9)
    assert rep.orders == [float("inf")]
    assert rep.passed
    fh.serialize.dump_json(tmp_path / "verify.json", {"reports": [rep.to_dict()]})
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["reports"][0]["orders"] == ["inf"]


def test_report_dict_shape():
    rep = fh.refinement_report("synthetic", (32, 64),
                               lambda n: (32 / n) ** 2, 1.7, 1.0)
    d = rep.to_dict()
    assert set(d) == {"identity", "grids", "residuals", "orders",
                      "tolerance", "order_tolerance", "pass"}


# -- every identity check can fail -------------------------------------------


def _scaled_cache(name, factor):
    """Plant: every map field reads its cached derivative ``name`` times ``factor``."""
    cached = maps.FoliatedMapField.__dict__[name]

    def read(field):
        if name not in field.__dict__:
            cached.__get__(field)
        return factor * field.__dict__[name]

    return maps.FoliatedMapField, name, property(read)


def _scaled(owner, name, factor):
    """Plant: the function ``name`` of ``owner`` (a module or a class), times ``factor``."""
    original = getattr(owner, name)
    return owner, name, lambda *args: factor * original(*args)


def _scaled_profile_derivative(factor):
    """Plant: every named axis profile's closed-form d log vol, times ``factor``."""
    axis_profile = foliation._axis_profile

    def planted(leaf_dimension, axis, vol, dlog):
        return axis_profile(leaf_dimension, axis, vol, lambda x: factor * dlog(x))

    return foliation, "_axis_profile", planted


# check [mode] -> (shipped config, one wrong input); the composed map itself
# takes only psi's values, so a wrong Hessian of psi, which only psi's second
# form reads, shows on one side alone.  The Weitzenboeck check takes tau and
# |S|^2 from the field's second-order pass, through ``maps._second_form``, and
# the nabla kappa# of its kappa operator from its own binding of
# ``covariant_derivative``, which ``pullback_derivative`` does not use.
# Harmonic-mode Weitzenboeck on the totally geodesic identity of the sphere
# has S = 0 and a constant |d_T phi|^2, so it shows a wrong D only.
_PLANTS = {
    "first_variation": ("verify_core_identities", _scaled_cache("tau", 1.1)),
    "weitzenbock": ("verify_weitzenbock_refinement", _scaled(maps, "_second_form", 1.01)),
    "weitzenbock kappa operator": ("verify_weitzenbock_refinement",
                                   _scaled(verify, "covariant_derivative", 1.01)),
    "weitzenbock harmonic": ("report_sphere_identity", _scaled_cache("D", 1.01)),
    "composition": ("verify_composition_chain", _scaled(maps.AnalyticMap, "hess", 1.01)),
    "lemma_volume": ("verify_core_identities", _scaled_profile_derivative(-3.0)),
}


def _run_shipped_check(tmp_path, config, check):
    """Exit code and report of ``check`` alone, at the shipped config's
    resolutions, tolerance and order tolerance."""
    doc = json.loads((CONFIGS / f"{config}.json").read_text())
    doc["verify"]["checks"] = [check]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
    [report] = json.loads((tmp_path / "out" / "verify.json").read_text())["reports"]
    return code, report


@pytest.mark.parametrize("case", sorted(_PLANTS))
def test_identity_check_fails_on_a_planted_error(tmp_path, monkeypatch, capsys, case):
    config, plant = _PLANTS[case]
    check = case.split()[0]
    assert _run_shipped_check(tmp_path, config, check)[0] == 0
    monkeypatch.setattr(*plant)
    code, report = _run_shipped_check(tmp_path, config, check)
    assert code == 1 and report["pass"] is False
    assert f"FAIL {check}" in capsys.readouterr().out
