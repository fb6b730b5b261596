"""Heat flow: descent, convergence, stopping rules, rigidity diagnostics."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import folharm as fh

TWO_PI = 2 * np.pi
CONFIGS = Path(__file__).parents[1] / "scripts" / "configs"


def _shipped(name, resolution=None):
    """The flow settings and the experiment of a shipped config, at its own
    resolution or the one given."""
    from folharm.cli import Experiment, load_config

    config = load_config(CONFIGS / f"{name}.json")
    if resolution is not None:
        config["resolution"] = resolution
    return config["flow"], Experiment(config)


SHIPPED_FLOWS = ["flow_circle_sine", "flow_rigidity_flat", "flow_rigidity_hyperbolic"]


def _take_explicit_route(monkeypatch):
    """Make every source grid take the explicit Euler step and its CFL dt, the
    reference the FFT-preconditioned step of flat tori is tested against."""
    import folharm.flow as flow

    monkeypatch.setattr(flow, "_preconditioned", lambda grid: False)


@pytest.fixture
def explicit_route(monkeypatch):
    _take_explicit_route(monkeypatch)


def _circle_flow(n=64, amp=0.5, **cfg):
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), n)
    fam = fh.make_family("sine_perturbation", grid.geometry, grid.geometry,
                         {"modes": [[0, [1], amp, 0.0]]})
    return fh.run_flow(fam.realize(grid), None, fh.FlowConfig(**cfg))


def test_cfl_step_flat_grid():
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), 64)
    h = TWO_PI / 64
    assert np.isclose(fh.cfl_step(grid), 0.9 * h * h / 2)


@pytest.mark.parametrize("periods, dt", [([TWO_PI], 1.0), ([TWO_PI, TWO_PI], 1.0),
                                         ([1.0, 2.0], 1 / np.pi**2)])
def test_default_dt_on_a_flat_torus_is_one_over_its_first_eigenvalue(periods, dt):
    """lambda_1 = min_a (2 pi / P_a)^2, so dt = 1 on the shipped 2 pi periods."""
    grid = fh.build_grid(fh.FlatTorus(periods), 16)
    assert fh.FlowConfig().resolve_dt(grid) == pytest.approx(dt, rel=1e-15, abs=0)


@pytest.mark.parametrize("source", ["sphere", "patch"])
def test_curved_or_bounded_sources_take_the_explicit_step(request, monkeypatch, torus2,
                                                          source):
    """A round-sphere source and a source with fixed axes take the explicit
    step v = dt tau, frozen on the boundary, bit for bit, from the CFL dt,
    and never call numpy's FFT."""
    geometry = request.getfixturevalue(source)
    grid = fh.build_grid(geometry, 16)
    values = 0.3 * np.random.default_rng(5).standard_normal(grid.shape + (2,))
    mapf = fh.FoliatedMapField(grid, torus2, values)

    def refuse(*args, **kwargs):
        raise AssertionError("FFT called on the explicit route")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    dt = fh.FlowConfig().resolve_dt(grid)
    assert dt == fh.cfl_step(grid)
    v = np.where(grid.boundary_mask[..., None], 0.0, dt * mapf.tau)
    assert np.array_equal(fh.flow_step(mapf, dt).values, torus2.exp(values, v))
    _, trace = fh.run_flow(mapf, None, fh.FlowConfig(max_steps=3, tension_tol=1e-14))
    assert trace.termination == "max_steps"


def _shipped_flow_steps(name, resolution):
    settings, exp = _shipped(name, resolution)
    _, trace = fh.run_flow(exp.initial_map(), exp.struct, fh.FlowConfig(**settings))
    assert trace.termination == "tension_tol"
    return trace.steps[-1]


def test_fft_step_count_does_not_grow_with_the_resolution(monkeypatch):
    """flow_rigidity_flat takes as many FFT-preconditioned steps at n = 16,
    32 and 64; explicit steps, whose dt is proportional to h^2, grow about
    4x from n = 16 to n = 32."""
    fft = [_shipped_flow_steps("flow_rigidity_flat", n) for n in (16, 32, 64)]
    assert fft[0] == fft[1] == fft[2] <= 20
    _take_explicit_route(monkeypatch)
    explicit = [_shipped_flow_steps("flow_rigidity_flat", n) for n in (16, 32)]
    assert 3.5 <= explicit[1] / explicit[0] <= 4.5


@pytest.mark.parametrize("name", SHIPPED_FLOWS)
def test_fft_and_explicit_routes_reach_the_same_limit(tmp_path, monkeypatch, name):
    """Each shipped flow ends with the same termination and verdict on both
    routes, and final energies equal to 1e-10 relative, or 1e-6 absolute
    on the hyperbolic flow, whose limit energy is 0."""
    from folharm import cli

    def run(out):
        assert cli.main(["flow", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
        return json.loads((out / "flow.json").read_text())

    fft = run(tmp_path / "fft")
    _take_explicit_route(monkeypatch)
    explicit = run(tmp_path / "explicit")
    assert fft["termination"] == explicit["termination"] == "tension_tol"
    assert fft.get("rigidity", {}).get("verdict") == explicit.get("rigidity", {}).get("verdict")
    assert fft["steps"] < explicit["steps"]
    tolerance = 1e-6 if name == "flow_rigidity_hyperbolic" else 1e-10 * explicit["final_energy"]
    assert abs(fft["final_energy"] - explicit["final_energy"]) <= tolerance


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


@pytest.mark.parametrize("dt", [np.inf, np.nan, 0.0, -1.0])
def test_resolve_dt_rejects_a_step_that_is_not_positive_and_finite(dt):
    """An infinite dt would never halve below dt_min, so the flow would not
    end; a nan one would compare false everywhere."""
    grid = fh.build_grid(fh.FlatTorus([TWO_PI]), 16)
    with pytest.raises(fh.ConfigurationError, match="dt: must be positive and finite"):
        fh.FlowConfig(dt=dt).resolve_dt(grid)


def test_max_steps_termination():
    _, trace = _circle_flow(n=64, tension_tol=1e-14, max_steps=5)
    assert trace.termination == "max_steps"
    assert trace.steps[-1] == 5


def test_steps_beyond_the_injectivity_cap_are_halved(explicit_route):
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


@pytest.mark.parametrize("name", SHIPPED_FLOWS)
def test_refused_huge_steps_warn_nothing(explicit_route, name):
    """dt = 1e300 makes |v| overflow in exp's cap test; the length is inf,
    silently, so the step is refused and dt halved without a numpy
    warning, down to steps the flow accepts."""
    assert _huge_step_flow(name).termination == "max_steps"


@pytest.mark.parametrize("name", SHIPPED_FLOWS)
def test_refused_huge_steps_warn_nothing_on_the_fft_route(name):
    """The preconditioned step keeps the mean of dt tau undivided, so exp
    refuses it at dt = 1e300; the halvings warn nothing, and the flow then
    converges within the five steps."""
    assert _huge_step_flow(name).termination == "tension_tol"


def _huge_step_flow(name):
    """The trace of five steps from dt = 1e300 of a shipped flow at n = 16,
    with every numpy warning an error."""
    _, exp = _shipped(name, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = fh.run_flow(exp.initial_map(), exp.struct,
                               fh.FlowConfig(dt=1e300, max_steps=5))
    return trace


def test_rejections_below_dt_min_end_in_dt_underflow(explicit_route):
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


def _patch_flow(**cfg):
    grid = fh.build_grid(fh.FlatTorus([TWO_PI, TWO_PI]), 8)
    patch = fh.HyperbolicPatch(x_bounds=(-2.0, 2.0), y_bounds=(0.5, 3.0))
    fam = fh.make_family("sine_into_patch", grid.geometry, patch)
    return fh.run_flow(fam.realize(grid), None, fh.FlowConfig(**cfg))


@pytest.mark.parametrize("flow_run, cfg, termination", [
    (_circle_flow, {"n": 16, "tension_tol": 1e-3}, "tension_tol"),
    (_circle_flow, {"n": 16, "tension_tol": 1e-14, "max_steps": 11}, "max_steps"),
    (_circle_flow, {"n": 16, "tension_tol": 1e-14}, "dt_underflow"),  # energies rise
    (_patch_flow, {"tension_tol": 1e-14, "max_steps": 10}, "max_steps"),
])
def test_block_reduced_trace_columns_equal_per_map_values(monkeypatch, flow_run, cfg,
                                                           termination):
    """max_second_form and max_density of each trace row equal, bit for bit,
    the values of the map the row accepted, on a flat and a curved target,
    for every termination."""
    import folharm.flow as flow

    accepted, energies = [], []
    sup_norm, energy = flow.tension_sup_norm, flow.transversal_energy

    def recording(m):           # called once per accepted map
        accepted.append(m)
        return sup_norm(m)

    def rising(m, struct):      # every energy after the tenth rises
        energies.append(energy(m, struct) if len(energies) < 10 else 1e300)
        return energies[-1]

    monkeypatch.setattr(flow, "tension_sup_norm", recording)
    if termination == "dt_underflow":
        monkeypatch.setattr(flow, "transversal_energy", rising)
    _, trace = flow_run(**cfg)
    assert trace.termination == termination
    assert len(trace.steps) == len(accepted) > 6
    assert len(trace.max_second_form) == len(trace.max_density) == len(accepted)
    for m, S_max, d2_max in zip(accepted, trace.max_second_form, trace.max_density):
        assert S_max == float(np.sqrt(max(np.max(fh.second_form_norm_squared(m)), 0.0)))
        assert d2_max == float(np.max(m.dT_norm_sq))


@pytest.mark.parametrize("name", SHIPPED_FLOWS)
def test_trace_and_final_map_equal_the_dense_route(explicit_route, name):
    """50 explicit steps of each shipped flow at its shipped resolution: the
    trace columns and the final map of ``run_flow``, whose contractions are
    the geometries' closed forms, equal exactly those of an oracle loop that
    contracts the full metric and Christoffel arrays."""
    assert _flow_and_dense_route(name, 50, preconditioned=False) == "max_steps"


@pytest.mark.parametrize("name", SHIPPED_FLOWS)
def test_trace_and_final_map_equal_the_dense_route_on_the_fft_route(name):
    """Each whole shipped flow on its flat torus, FFT-preconditioned: trace
    and final map equal exactly those of the oracle loop, which divides by
    its own node-by-node stencil symbol."""
    assert _flow_and_dense_route(name, None, preconditioned=True) == "tension_tol"


def _flow_and_dense_route(name, max_steps, preconditioned):
    """Run a shipped flow and the dense oracle loop, require equal traces and
    final maps, and return the termination."""
    from oracles import dense_flow

    settings, exp = _shipped(name)
    flow_config = fh.FlowConfig(**settings if max_steps is None
                                else {**settings, "max_steps": max_steps})
    final, trace = fh.run_flow(exp.initial_map(), exp.struct, flow_config)
    values, rows = dense_flow(exp.initial_map(), exp.struct, flow_config, preconditioned)
    assert trace.columns()[1] == [list(column) for column in zip(*rows)]
    assert np.array_equal(final.values, values)
    return trace.termination


def test_backtracking_recovers_from_large_dt():
    """An unstable step size halves until the energy decreases again."""
    final, trace = _circle_flow(n=32, amp=0.3, dt=0.05, tension_tol=1e-5)
    assert trace.termination == "tension_tol"
    assert all(b <= a + 1e-14 for a, b in zip(trace.energy, trace.energy[1:]))


@pytest.mark.parametrize("explicit, dt", [(False, 16.0), (True, 3.0)], ids=["fft", "explicit"])
def test_steps_that_leave_the_target_chart_are_halved(monkeypatch, explicit, dt):
    """On a patch whose chart ends at y = 1.8 the first step of the given dt
    leaves it; the flow halves dt, as for a step beyond exp's cap, and
    converges."""
    if explicit:
        _take_explicit_route(monkeypatch)
    grid = fh.build_grid(fh.FlatTorus([TWO_PI, TWO_PI]), 8)
    patch = fh.HyperbolicPatch(x_bounds=(-2.0, 2.0), y_bounds=(0.5, 1.8))
    mapf = fh.make_family("sine_into_patch", grid.geometry, patch).realize(grid)
    with pytest.raises(fh.InvalidMapError, match="leave the target chart"):
        fh.flow_step(mapf, dt)
    _, trace = fh.run_flow(mapf, None, fh.FlowConfig(dt=dt, tension_tol=1e-4))
    assert trace.termination == "tension_tol"


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


def test_one_derivative_pass_per_flow_attempt(explicit_route, monkeypatch):
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
    """One d_T and one second-order pass per field: a second form for each
    row block (4 blocks of 5, 5, 5 and 1 rows here), whose tau and |S|^2 the
    trace, the tension norm and the diagnostics all read."""
    import folharm.maps as maps

    monkeypatch.setattr(fh.grid, "ROW_BLOCK_NODES", 5 * 16)
    grid = fh.build_grid(sphere, 16)
    mapf = fh.make_family("identity", sphere, sphere).realize(grid)
    d_T_calls = _count_calls(monkeypatch, maps, "d_T")
    S_calls = _count_calls(monkeypatch, maps, "second_fund_form")
    final, _ = fh.run_flow(mapf, None, fh.FlowConfig(tension_tol=1e-10))
    fh.tension_sup_norm(final)
    fh.rigidity_diagnostics(final, None, rank_cap=2)
    assert (len(d_T_calls), len(S_calls)) == (1, len(fh.grid.row_blocks(grid))) == (1, 4)


def test_sphere_band_flow_at_256_stays_under_its_memory_bound(sphere):
    """The traced peak of the 256^2 sphere-band identity's flow and rigidity
    diagnostics stays under 24 MB; it was 28.9 MB when the field cached a
    whole-grid second form."""
    import tracemalloc

    grid = fh.build_grid(sphere, 256)
    mapf = fh.make_family("identity", sphere, sphere).realize(grid)
    tracemalloc.start()
    try:
        final, _ = fh.run_flow(mapf, None, fh.FlowConfig(tension_tol=1e-8))
        diag = fh.rigidity_diagnostics(final, None, 2, fh.RigidityTolerances(tension_tol=1e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.verdict == fh.Verdict.totally_geodesic
    assert peak < 24e6


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


def _diagnostics(source, target, family, params=None, n=16):
    mapf = fh.make_family(family, source, target, params).realize(fh.build_grid(source, n))
    return fh.rigidity_diagnostics(mapf, None, rank_cap=2)


def test_circle_source_has_rank_one(torus1, sphere):
    """q = 1: the one singular value is |d_T phi|; the equator is a geodesic."""
    diag = _diagnostics(torus1, sphere, "latitude_circle", {"theta": np.pi / 2})
    assert (diag.rank_T, diag.lam, diag.mu) == (1, 0.0, 1.0)
    assert diag.verdict == fh.Verdict.totally_geodesic


def test_torus_onto_circle_has_rank_one(torus1, torus2):
    """q' = 1: a torus wound once onto a circle along its first axis."""
    diag = _diagnostics(torus2, torus1, "linear", {"matrix": [[1, 0]]})
    assert (diag.rank_T, diag.lam, diag.mu) == (1, 0.0, 0.0)
    assert diag.max_dT_norm_sq == 1.0


def test_flat_three_torus_identity_has_rank_three():
    """q = q' = 3 takes the LAPACK route, the only one left."""
    torus3 = fh.FlatTorus([TWO_PI, 3.0, 4.0])
    diag = _diagnostics(torus3, torus3, "identity", n=8)
    assert (diag.rank_T, diag.lam, diag.mu, diag.bound_value) == (3, 0.0, 0.0, np.inf)


def test_map_constant_along_one_axis_has_rank_one(torus2):
    """q = q' = 2, but d_T phi kills the second axis: rank_T falls to 1."""
    diag = _diagnostics(torus2, torus2, "linear", {"matrix": [[1, 0], [0, 0]]})
    assert diag.rank_T == 1
    assert diag.verdict == fh.Verdict.totally_geodesic


def test_two_dimensional_diagnostics_call_no_lapack(monkeypatch, sphere, patch):
    """q = q' = 2 uses closed forms only: with np.linalg's Cholesky, solve,
    SVD and eigvalsh made to raise, the sphere identity and a torus map into
    the hyperbolic patch still give their diagnostics."""
    identity = fh.make_family("identity", sphere, sphere).realize(fh.build_grid(sphere, 32))
    torus = fh.build_grid(fh.FlatTorus([TWO_PI, TWO_PI]), 32)
    into_patch = fh.make_family("sine_into_patch", torus.geometry, patch).realize(torus)

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on the q = q' = 2 path")

    for name in ("cholesky", "solve", "svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    diag = fh.rigidity_diagnostics(identity, None, rank_cap=2)
    assert (diag.lam, diag.rank_T, diag.bound_value) == (1.0, 2, 2.0)
    diag = fh.rigidity_diagnostics(into_patch, None, rank_cap=2,
                                   tolerances=fh.RigidityTolerances(tension_tol=10.0))
    assert diag.rank_T == 2
    assert diag.verdict == fh.Verdict.inconclusive
