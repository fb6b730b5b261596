"""Heat flow: descent, convergence, stopping rules, rigidity diagnostics."""

import numpy as np
import pytest

import folharm as fh

TWO_PI = 2 * np.pi


def _circle_flow(n=64, amp=0.5, **cfg):
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), n)
    fam = fh.make_family("sine_perturbation", grid.geometry, grid.geometry,
                         {"modes": [[0, [1], amp, 0.0]]})
    return fh.run_flow(fam.realize(grid), None, fh.FlowConfig(**cfg))


def test_cfl_step_flat_grid():
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), 64)
    h = TWO_PI / 64
    assert np.isclose(fh.cfl_step(grid), 0.9 * h * h / 2)


def test_energy_decreases_monotonically():
    final, trace = _circle_flow(n=64, tension_tol=1e-6)
    assert trace.termination == "tension_tol"
    assert all(b <= a + 1e-14 for a, b in zip(trace.energy, trace.energy[1:]))


def test_flow_converges_to_harmonic_limit():
    final, trace = _circle_flow(n=64, tension_tol=1e-6)
    assert fh.tension_sup_norm(final) <= 1e-6
    # harmonic maps of the flat circle are affine; limit energy is pi
    assert abs(trace.energy[-1] - np.pi) <= 1e-3


def test_stationary_start_terminates_immediately():
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), 32)
    mapf = fh.make_family("identity", grid.geometry, grid.geometry).realize(grid)
    final, trace = fh.run_flow(mapf, None, fh.FlowConfig(tension_tol=1e-10))
    assert trace.steps[-1] == 0
    assert trace.termination == "tension_tol"
    assert np.array_equal(final.values, mapf.values)


def test_max_steps_termination():
    _, trace = _circle_flow(n=64, tension_tol=1e-14, max_steps=5)
    assert trace.termination == "max_steps"
    assert trace.steps[-1] == 5


def test_steps_beyond_the_injectivity_cap_are_halved():
    """exp refuses the CFL step on a circle with a tiny injectivity cap; the
    flow halves dt once and converges at half the step size."""
    def flow(cap):
        circle = fh.FlatTorus([TWO_PI], injectivity_cap=cap)
        grid = fh.build_grid(circle, 32)
        fam = fh.make_family("sine_perturbation", circle, circle,
                             {"modes": [[0, [1], 0.5, 0.0]]})
        mapf = fam.realize(grid)
        return grid, mapf, fh.run_flow(mapf, None, fh.FlowConfig(tension_tol=1e-5))

    grid, mapf, (_, capped) = flow(0.005)
    with pytest.raises(fh.StepTooLargeError):
        fh.flow_step(mapf, fh.cfl_step(grid))
    _, _, (_, free) = flow(None)
    assert capped.termination == free.termination == "tension_tol"
    assert 1.9 * free.steps[-1] <= capped.steps[-1] <= 2.1 * free.steps[-1]


def test_rejections_below_dt_min_end_in_dt_underflow():
    """dt = 2.5 scales the sine mode by about -1.5, so the energy rises; one
    halving lands below dt_min and the flow stops on its initial map."""
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), 32)
    fam = fh.make_family("sine_perturbation", grid.geometry, grid.geometry,
                         {"modes": [[0, [1], 0.3, 0.0]]})
    mapf = fam.realize(grid)
    final, trace = fh.run_flow(mapf, None, fh.FlowConfig(
        dt=2.5, dt_min=2.0, tension_tol=1e-5))
    assert trace.termination == "dt_underflow"
    assert trace.steps == [0]
    assert final is mapf


def test_backtracking_recovers_from_large_dt():
    """An unstable step size halves until the energy decreases again."""
    final, trace = _circle_flow(n=32, amp=0.3, dt=0.05, tension_tol=1e-5)
    assert trace.termination == "tension_tol"
    assert all(b <= a + 1e-14 for a, b in zip(trace.energy, trace.energy[1:]))


def test_fixed_boundary_nodes_do_not_move(patch):
    grid = fh.build_grid(patch, 16)
    rng = np.random.default_rng(3)
    values = np.stack([
        0.2 * rng.standard_normal(grid.shape),
        1.5 + 0.2 * rng.standard_normal(grid.shape),
    ], axis=-1)
    mapf = fh.FoliatedMapField(grid, patch, values)
    stepped = fh.flow_step(mapf, 1e-3)
    for a, end in ((0, 0), (0, -1), (1, 0), (1, -1)):
        idx = [slice(None)] * 2
        idx[a] = end
        assert np.array_equal(stepped.values[tuple(idx)], values[tuple(idx)])


def test_transversal_energy_measure_cancellation(torus1):
    grid = fh.build_grid(torus1, 64)
    fam = fh.make_family("sine_perturbation", grid.geometry, grid.geometry, {})
    mapf = fam.realize(grid)
    struct = fh.named_profile("cosine_offset", 1, {"offset": 2.0})
    E = fh.transversal_energy(mapf, struct, check_cancellation=True)
    assert E > 0


def test_measure_cancellation_failure_is_a_folharm_error(torus1):
    grid = fh.build_grid(torus1, 16)
    mapf = fh.make_family("identity", torus1, torus1).realize(grid)
    calls = []

    def drifting_vol(b):     # a profile whose value changes between calls
        calls.append(None)
        return np.full(np.asarray(b).shape[:-1], float(len(calls)))

    struct = fh.FoliatedStructure(1, drifting_vol)
    with pytest.raises(fh.PreconditionError):
        fh.transversal_energy(mapf, struct, check_cancellation=True)


def test_non_finite_energy_stops_the_flow(monkeypatch):
    """A nan candidate energy passes the descent test (nan > E is false), and
    the initial energy is compared with nothing; both stop the flow, even
    when every later energy is finite."""
    import folharm.flow as flow

    nan = float("nan")
    for first, later in ((1.0, nan), (nan, 1.0), (float("inf"), 1.0)):
        energies = iter([first])
        monkeypatch.setattr(flow, "transversal_energy",
                            lambda m, s, e=energies, x=later: next(e, x))
        with pytest.raises(fh.FlowDivergedError):
            _circle_flow(n=32, tension_tol=1e-14, max_steps=50)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(None)
        return result

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_derivative_pass_per_flow_attempt(monkeypatch):
    """Each candidate map computes d_T once, rejected (backtracked) ones too."""
    import folharm.flow as flow
    import folharm.maps as maps

    d_T_calls = _count_calls(monkeypatch, maps, "d_T")
    attempts = _count_calls(monkeypatch, flow, "flow_step")
    _, trace = _circle_flow(n=32, amp=0.3, dt=0.2, tension_tol=1e-14, max_steps=20)
    assert trace.steps[-1] == 20
    assert len(attempts) > 20                   # some attempts were backtracked
    assert len(d_T_calls) == len(attempts) + 1  # + the initial map


def test_flow_outputs_and_diagnostics_share_derivatives(sphere, monkeypatch):
    import folharm.maps as maps

    grid = fh.build_grid(sphere, 16)
    mapf = fh.make_family("identity", sphere, sphere).realize(grid)
    d_T_calls = _count_calls(monkeypatch, maps, "d_T")
    S_calls = _count_calls(monkeypatch, maps, "second_fund_form")
    final, _ = fh.run_flow(mapf, None, fh.FlowConfig(tension_tol=1e-10))
    fh.tension_sup_norm(final)
    fh.rigidity_diagnostics(final, None, rank_cap=2)
    assert (len(d_T_calls), len(S_calls)) == (1, 1)


# -- rigidity diagnostics --------------------------------------------------


def test_sphere_identity_diagnostics(sphere):
    grid = fh.build_grid(sphere, 48)
    mapf = fh.make_family("identity", sphere, sphere).realize(grid)
    diag = fh.rigidity_diagnostics(mapf, None, rank_cap=2)
    assert abs(diag.lam - 1.0) <= 1e-9
    assert abs(diag.mu - 1.0) <= 1e-9
    assert diag.rank_T == 2
    assert abs(diag.bound_value - 2.0) <= 1e-9
    assert abs(diag.max_dT_norm_sq - 2.0) <= 1e-9
    assert diag.verdict == fh.Verdict.totally_geodesic


def test_constant_map_is_transversally_constant(sphere):
    grid = fh.build_grid(fh.FlatTorus([TWO_PI, TWO_PI]), 16)
    mapf = fh.make_family("constant", grid.geometry, sphere).realize(grid)
    diag = fh.rigidity_diagnostics(mapf, None, rank_cap=2)
    assert diag.verdict == fh.Verdict.transversally_constant
    assert diag.max_dT_norm_sq <= 1e-20


def test_diagnostics_require_near_harmonic_input():
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), 32)
    fam = fh.make_family("sine_perturbation", grid.geometry, grid.geometry,
                         {"amplitude": 0.3})
    with pytest.raises(fh.PreconditionError):
        fh.rigidity_diagnostics(fam.realize(grid), None, rank_cap=2)


def test_diagnostics_rank_cap_validation(sphere):
    grid = fh.build_grid(sphere, 16)
    mapf = fh.make_family("identity", sphere, sphere).realize(grid)
    with pytest.raises(fh.ConfigurationError):
        fh.rigidity_diagnostics(mapf, None, rank_cap=1)


def test_flat_target_gives_an_infinite_bound(sphere):
    """A sphere identity scaled question: the flat-torus identity violates no
    bound (mu = 0 gives an infinite bound), and the report says so."""
    grid = fh.build_grid(fh.FlatTorus([TWO_PI, TWO_PI]), 16)
    mapf = fh.make_family("identity", grid.geometry, grid.geometry).realize(grid)
    diag = fh.rigidity_diagnostics(mapf, None, rank_cap=2)
    assert diag.bound_value == np.inf
    assert diag.verdict in (fh.Verdict.totally_geodesic,
                            fh.Verdict.transversally_constant)


def _torus_map_diagnostics(family, target):
    grid = fh.build_grid(fh.FlatTorus([TWO_PI, TWO_PI]), 32)
    mapf = fh.make_family(family, grid.geometry, target).realize(grid)
    return fh.rigidity_diagnostics(mapf, None, rank_cap=2,
                                   tolerances=fh.RigidityTolerances(tension_tol=10.0))


def test_positive_target_curvature_gives_bound_violation(sphere):
    """Flat source (lambda = 0) into the unit sphere (mu = 1): the bound is 0,
    and a non-constant, non-geodesic map exceeds it."""
    diag = _torus_map_diagnostics("band_wave", sphere)
    assert diag.lam == 0.0
    assert abs(diag.mu - 1.0) <= 1e-12
    assert diag.bound_value == 0.0
    assert diag.max_dT_norm_sq > 0.1
    assert diag.verdict == fh.Verdict.bound_violated


def test_negative_target_curvature_is_inconclusive(patch):
    """mu = -1 gives an infinite bound, which no map can exceed."""
    diag = _torus_map_diagnostics("sine_into_patch", patch)
    assert abs(diag.mu + 1.0) <= 1e-12
    assert diag.bound_value == np.inf
    assert diag.verdict == fh.Verdict.inconclusive
