"""Configuration-driven experiment runner.

``folharm <subcommand> --config <path> [--out <dir>] [--threads N] [--seed S]``

Subcommands: ``tension`` (dump the tension field), ``energy`` (print the
transversal energy), ``flow`` (run the heat flow, dump trace / final map /
diagnostics), ``verify`` (run identity checks), ``report`` (everything the
config selects, bundled).  Configs are single JSON documents validated
against ``config_schema.json`` before any computation, by the package's own
draft-07 validator (``_schema``, no ``jsonschema`` import); unknown keys and
numbers that are not finite are rejected.  The output directory resolves as
``--out`` flag, then the ``FOLHARM_OUT`` environment variable, then the
config's ``out`` key, then ``./folharm_out``.  Before it runs, a subcommand
removes from that directory every output file name of ``_SUBCOMMANDS``, its
own included, and touches no other file.

Exit codes: 0 all selected checks pass, 1 a numerical check failed,
2 configuration/schema error, 3 runtime failure, including an energy,
tension field or identity residual that is not finite (raised before that
result is written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

# ``fh.<name>`` loads its submodule on first use (PEP 562), so this module
# loads without numpy, before ``--threads`` is applied, and calls the
# package's current functions.
import folharm as fh

from ._schema import Schema
from .errors import ConfigurationError, FolharmError, InvalidMapError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _set_thread_limit(n: int) -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def load_config(path) -> dict:
    """Parse and schema-validate an experiment config.

    A number that is not a finite double (``NaN``, ``Infinity``,
    ``-Infinity``, or a literal such as ``1e309`` or ``1`` followed by 400
    zeros that overflows) is rejected while parsing.
    """

    def number(token: str) -> int | float:
        value = float(token)
        if not math.isfinite(value):
            raise ConfigurationError(f"config {path}: {token} is not a finite number")
        return int(token) if token.lstrip("-").isdigit() else value

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text, parse_float=number, parse_int=number,
                            parse_constant=number)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    schema = Schema(json.loads(Path(__file__).with_name("config_schema.json").read_text()))
    error = schema.first_error(config)
    if error is not None:
        where = "/".join(map(str, error[0])) or "(top level)"
        raise ConfigurationError(f"config {path}: at {where}: {error[1]}")
    return config


class Experiment:
    """Geometries, foliation, grid and initial map built from a config."""

    def __init__(self, config: dict, seed: int | None = None):
        self.config = config
        self.seed = config.get("seed", 0) if seed is None else seed
        self.source = fh.build_geometry(config["source"])
        self.target = (
            fh.build_geometry(config["target"]) if "target" in config else self.source
        )
        self.struct = None
        if "foliation" in config:
            fol = config["foliation"]
            self.struct = fh.named_profile(
                fol["profile"], fol.get("leaf_dimension", 1), fol.get("params")
            )
            # one sample at a chart corner: a profile that does not fit the
            # chart fails here, before any subcommand work
            self.struct.vol_at(self.source.chart_bounds[:, 0])
        self.resolution = config["resolution"]
        self.grid = fh.build_grid(self.source, self.resolution)
        # a refinement sequence refines: orders compare each grid with a finer one
        resolutions = config.get("resolutions", [])
        if any(coarse >= fine for coarse, fine in zip(resolutions, resolutions[1:])):
            raise ConfigurationError(
                f"resolutions: expected a strictly increasing sequence, got {resolutions}")

    def grid_at(self, n: int):
        return fh.build_grid(self.source, n)

    def initial_map(self, grid=None):
        grid = self.grid if grid is None else grid
        spec = self.config.get("map")
        if spec is None:
            raise ConfigurationError(
                "this subcommand needs a 'map' entry in the config"
            )
        if "csv" in spec:
            return fh.serialize.map_from_csv(spec["csv"], grid, self.target)
        fam = fh.make_family(
            spec["family"], self.source, self.target, spec.get("params")
        )
        return fam.realize(grid)


def _resolve_out(args, config: dict) -> Path:
    path = Path(args.out or os.environ.get("FOLHARM_OUT") or config.get("out", "folharm_out"))
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot make output directory {path}: {exc}") from exc
    return path


# -- subcommand bodies -----------------------------------------------------


def run_tension(exp: Experiment, out: Path) -> tuple[int, dict]:
    mapf = exp.initial_map()
    tau = mapf.tau
    max_tension, mean_abs = fh.tension_sup_norm(mapf), float(abs(tau).mean())
    if not (math.isfinite(max_tension) and math.isfinite(mean_abs)):
        raise InvalidMapError(f"tension field is not finite: max |tau| = {max_tension!r}")
    fh.serialize.scalar_field_to_csv(out / "tension.csv", exp.grid, {"tau": tau})
    payload = {
        "subcommand": "tension",
        "resolution": list(exp.grid.shape),
        "max_tension": max_tension,
        "mean_abs_tension": mean_abs,
        "seed": exp.seed,
        "pass": True,
    }
    fh.serialize.dump_json(out / "tension.json", payload)
    return EXIT_OK, payload


def run_energy(exp: Experiment, out: Path) -> tuple[int, dict]:
    mapf = exp.initial_map()
    E = fh.transversal_energy(mapf, exp.struct, check_cancellation=exp.struct is not None)
    if not math.isfinite(E):
        raise InvalidMapError(f"transversal energy E_B = {E!r} is not finite")
    payload = {
        "subcommand": "energy",
        "resolution": list(exp.grid.shape),
        "E_B": E,
        "seed": exp.seed,
        "pass": True,
    }
    fh.serialize.dump_json(out / "energy.json", payload)
    print(f"E_B = {E!r}")
    return EXIT_OK, payload


def run_flow_cmd(exp: Experiment, out: Path) -> tuple[int, dict]:
    flow_cfg = fh.FlowConfig(**exp.config.get("flow", {}))
    mapf = exp.initial_map()
    final, trace = fh.run_flow(mapf, exp.struct, flow_cfg)
    fh.serialize.trace_to_csv(out / "flow_trace.csv", trace)
    fh.serialize.map_to_csv(out / "flow_final_map.csv", final)
    converged = trace.termination == "tension_tol"
    payload = {
        "subcommand": "flow",
        "resolution": list(exp.grid.shape),
        "termination": trace.termination,
        "steps": trace.steps[-1],
        "initial_energy": trace.energy[0],
        "final_energy": trace.energy[-1],
        "final_max_tension": trace.max_tension[-1],    # recorded when final was accepted
        "monotone_energy": all(
            b <= a + 1e-14 for a, b in zip(trace.energy, trace.energy[1:])
        ),
        "seed": exp.seed,
        "pass": converged,
    }
    if "rigidity" in exp.config and converged:
        rig = dict(exp.config["rigidity"])
        rank_cap = rig.pop("rank_cap")
        diag = fh.rigidity_diagnostics(
            final, exp.struct, rank_cap, fh.RigidityTolerances(**rig)
        )
        payload["rigidity"] = diag.to_dict()
    fh.serialize.dump_json(out / "flow.json", payload)
    return (EXIT_OK if converged else EXIT_CHECK_FAILED), payload


def _verify_reports(exp: Experiment) -> list[dict]:
    """Run the checks selected under config['verify']; one report per check.

    A check runs over ``resolutions`` when the config gives them, else once
    at ``resolution``.  The first variation always runs once: its finite
    differences are in the variation parameter, not in the grid spacing.
    """
    vcfg = exp.config["verify"]
    tolerances = vcfg.get("tolerances", {})
    order_tol = vcfg.get("order_tolerance", 1.7)
    resolutions = exp.config.get("resolutions")
    reports = []
    for check in vcfg["checks"]:
        residual, default_tol = _CHECKS[check]
        if resolutions and check != "first_variation":
            rep = fh.refinement_report(check, resolutions, lambda n: residual(exp, n),
                                    order_tol, tolerances.get(check))
        else:
            tol = tolerances.get(check, default_tol)
            r = residual(exp, exp.resolution)
            rep = fh.IdentityResidualReport(
                check, [list(exp.grid.shape)], [r],
                tolerance=tol, passed=(tol is None or r <= tol),
            )
        if not all(map(math.isfinite, rep.residuals)):
            raise InvalidMapError(f"{check} residuals {rep.residuals} are not all finite")
        reports.append(rep.to_dict())
    return reports


def run_verify(exp: Experiment, out: Path) -> tuple[int, dict]:
    reports = _verify_reports(exp)
    fh.serialize.dump_json(out / "verify.json", {"reports": reports})
    fh.serialize.write_csv(
        out / "verify_summary.csv",
        ["identity", "finest_residual", "min_order", "pass"],
        [[rep["identity"] for rep in reports],
         [fh.serialize.fmt(rep["residuals"][-1]) for rep in reports],
         [fh.serialize.fmt(min(rep["orders"])) if rep["orders"] else "" for rep in reports],
         [str(rep["pass"]).lower() for rep in reports]],
    )
    ok = True
    for rep in reports:
        status = "PASS" if rep["pass"] else "FAIL"
        print(f"{status} {rep['identity']}: residuals {rep['residuals']}")
        ok &= rep["pass"]
    if not ok:
        failing = [r["identity"] for r in reports if not r["pass"]]
        print(f"failing identities: {', '.join(failing)}", file=sys.stderr)
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), {"reports": reports}


def run_report(exp: Experiment, out: Path) -> tuple[int, dict]:
    payload: dict = {"subcommand": "report", "seed": exp.seed}
    codes = []
    selected_by = {"energy": ("map",), "flow": ("flow", "rigidity"), "verify": ("verify",)}
    for part, keys in selected_by.items():      # the parts the config selects, in order
        if any(key in exp.config for key in keys):
            code, payload[part] = _SUBCOMMANDS[part][0](exp, out)
            codes.append(code)
    payload["pass"] = all(c == EXIT_OK for c in codes)
    fh.serialize.dump_json(out / "report.json", payload)
    return (EXIT_OK if payload["pass"] else EXIT_CHECK_FAILED), payload


def _clear_stale_outputs(out: Path) -> None:
    """Remove from ``out`` every output file named in ``_SUBCOMMANDS``, so that
    a run's results never sit beside an older run's, and a run that fails
    leaves none.  No other file is touched."""
    for name in {name for _, names in _SUBCOMMANDS.values() for name in names}:
        (out / name).unlink(missing_ok=True)


# -- identity checks -------------------------------------------------------
# Each check is residual(exp, n), its residual on the grid of resolution n.


def _require_foliation(exp: Experiment, check: str):
    if exp.struct is None:
        raise ConfigurationError(f"{check} check needs a foliation")
    return exp.struct


def _first_variation(exp: Experiment, n: int) -> float:
    var = dict(exp.config.get("variation", {}))
    fd_steps = tuple(var.pop("fd_steps", fh.VariationSpec.fd_steps))
    grid = exp.grid_at(n)
    spec = fh.VariationSpec(fh.variation_field(grid, exp.target, var), fd_steps)
    return fh.check_first_variation(exp.initial_map(grid), exp.struct, spec).residuals[0]


def _weitzenbock(exp: Experiment, n: int) -> float:
    mode = exp.config["verify"].get("weitzenbock_mode", "general")
    return fh.weitzenbock_residual(exp.initial_map(exp.grid_at(n)), exp.struct, mode)


def _lemma_volume(exp: Experiment, n: int) -> float:
    struct = _require_foliation(exp, "lemma_volume")
    if exp.config.get("resolutions"):
        # exercise the finite-difference route by withholding the closed-form
        # derivative
        struct = fh.FoliatedStructure(struct.leaf_dimension, struct.vol, None)
    return fh.check_lemma_volume(exp.grid_at(n), struct)


def _divergence(exp: Experiment, n: int) -> float:
    struct = _require_foliation(exp, "divergence")
    grid = exp.grid_at(n)
    field_spec = exp.config["verify"].get("divergence_field", {})
    X = fh.variation_field(grid, grid.geometry, field_spec, wave="cos")
    return fh.check_divergence_theorem(grid, X, struct)


def _composition(exp: Experiment, n: int) -> float:
    comp_cfg = exp.config["verify"].get("compose_with")
    if comp_cfg is None:
        raise ConfigurationError("composition check needs verify.compose_with")
    psi = fh.make_family(
        comp_cfg["family"], exp.target, fh.build_geometry(comp_cfg["target"]),
        comp_cfg.get("params"),
    )
    return max(fh.composition_residuals(exp.initial_map(exp.grid_at(n)), psi).values())


# check name -> (residual, default tolerance of the single-grid report)
_CHECKS = {
    "first_variation": (_first_variation, 1e-3),
    "weitzenbock": (_weitzenbock, None),
    "lemma_volume": (_lemma_volume, 1e-12),
    "divergence": (_divergence, 1e-8),
    "composition": (_composition, 1e-2),
}

# subcommand -> (runner, the file names it writes into the output directory)
_SUBCOMMANDS = {
    "tension": (run_tension, ("tension.csv", "tension.json")),
    "energy": (run_energy, ("energy.json",)),
    "flow": (run_flow_cmd, ("flow_trace.csv", "flow_final_map.csv", "flow.json")),
    "verify": (run_verify, ("verify.json", "verify_summary.csv")),
    "report": (run_report, ("report.json",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folharm",
        description="transversal tension, energy, heat flow and identity "
                    "checks for foliated maps",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker thread cap for numerical kernels")
        p.add_argument("--seed", type=int, default=None,
                       help="a label recorded in the reports; nothing is drawn at random")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag, value, least in (("threads", args.threads, 1), ("seed", args.seed, 0)):
        if value is not None and value < least:
            print(f"error: --{flag} must be >= {least}", file=sys.stderr)
            return EXIT_CONFIG
    if args.threads is not None:
        _set_thread_limit(args.threads)
    try:
        config = load_config(args.config)
        exp = Experiment(config, seed=args.seed)
        out = _resolve_out(args, config)
        _clear_stale_outputs(out)
        code, _ = _SUBCOMMANDS[args.subcommand][0](exp, out)
        return code
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FolharmError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
