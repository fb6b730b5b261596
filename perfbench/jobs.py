"""Workloads, their jobs, and the checks of every job's outputs.

A job is one ``folharm`` subcommand on one config.  Configs come from
``scripts/configs`` or, where a job needs another resolution, from a copy in
``perfbench/configs`` in which only ``resolution`` / ``resolutions`` differ.
Before a job runs its config is written to the run's output directory with
two run-time changes: the seed translates the sine modes of
``sine_perturbation`` maps by a whole number of grid nodes (the same work and
the same closed-form answers, different inputs), and the CSV-started flow
points at the map the job before it wrote.

Every check compares a value read from the job's outputs with an expected
value that comes from a closed form or a property of the method, never from
a saved output.  ``Check.wrong`` gives an expected value the check must
reject; the quick mode's self-test uses it.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

SHIPPED = Path("scripts/configs")
OWN = Path("perfbench/configs")
QUICK = OWN / "quick"


@dataclass
class Check:
    """``measured`` must equal (``eq``), be within ``tol`` of (``close``), or
    not exceed (``below``) ``expected``."""

    name: str
    kind: str
    expected: Any
    measured: Any
    tol: float = 0.0

    def passes(self, expected=None) -> bool:
        e = self.expected if expected is None else expected
        m = self.measured
        if self.kind == "eq":
            return m == e
        if self.kind == "close":
            return bool(np.max(np.abs(np.asarray(m) - np.asarray(e))) <= self.tol)
        if self.kind == "below":
            return bool(m <= e)
        raise ValueError(self.kind)

    def wrong(self):
        """An expected value that is wrong and that the check must reject."""
        e = self.expected
        if self.kind == "eq":
            if isinstance(e, bool):
                return not e
            return e + 1 if isinstance(e, (int, float)) else f"not_{e}"
        if self.kind == "close":
            return np.asarray(e) + 10 * self.tol + 1e-3
        return e * 1e-3


@dataclass
class Job:
    name: str
    sub: str                    # folharm subcommand
    config: Path                # relative to the checkout root
    checks: Callable[["JobRun"], list[Check]]
    flow_metric: str | None = None   # per-layer name of this job's flow time
    map_from: str | None = None      # job whose final map this job starts from


@dataclass
class JobRun:
    """Everything a check may read: the job's config, outputs and payload."""

    job: Job
    config: dict
    out: Path
    payload: dict
    seed: int
    runs: dict                  # earlier JobRuns of the same round, by name

    def json(self, name: str) -> dict:
        return json.loads((self.out / name).read_text())


# -- run-time config --------------------------------------------------------


def materialize(job: Job, seed: int, dest: Path, runs: dict) -> dict:
    """Write the job's config for this seed to ``dest``; return it."""
    config = json.loads(job.config.read_text())
    spec = config.get("map", {})
    if spec.get("family") == "sine_perturbation":
        res = config["resolution"]
        dim = len(config["source"]["periods"])
        n = [res] * dim if isinstance(res, int) else res
        shift = np.random.default_rng(seed).integers(0, n)
        for mode in spec["params"]["modes"]:
            mode[3] += 2 * math.pi * sum(k * s / m for k, s, m in zip(mode[1], shift, n))
    if job.map_from is not None:
        config["map"] = {"csv": str((runs[job.map_from].out / "flow_final_map.csv").resolve())}
    dest.write_text(json.dumps(config, indent=1))
    return config


# -- checks -----------------------------------------------------------------


def _trace_energies(out: Path) -> list[float]:
    with open(out / "flow_trace.csv", newline="") as fh:
        return [float(row["E_B"]) for row in csv.DictReader(fh)]


def flow_checks(limit_energy: float, energy_tol: float, verdict: str | None):
    def checks(r: JobRun) -> list[Check]:
        doc = r.json("flow.json")
        E = _trace_energies(r.out)
        out = [
            Check("terminated", "eq", "tension_tol", doc["termination"]),
            Check("energy_monotone", "eq", True,
                  all(b <= a for a, b in zip(E, E[1:]))),
            Check("final_tension", "below", r.config["flow"]["tension_tol"],
                  doc["final_max_tension"]),
            Check("limit_energy", "close", limit_energy, doc["final_energy"],
                  energy_tol),
            Check("seed", "eq", r.seed, doc["seed"]),
        ]
        if verdict is not None:
            out.append(Check("verdict", "eq", verdict, doc["rigidity"]["verdict"]))
        return out
    return checks


def verify_checks(second_order: tuple[str, ...]):
    """Every report passes; the named identities converge at second order."""
    def checks(r: JobRun) -> list[Check]:
        out = []
        for rep in r.payload["reports"]:
            out.append(Check(f"{rep['identity']}.pass", "eq", True, rep["pass"]))
            if rep["identity"] in second_order:
                out.append(Check(f"{rep['identity']}.order", "close", 2.0,
                                 rep["orders"][-1], 0.1))
        return out
    return checks


def energy_checks(r: JobRun) -> list[Check]:
    doc = r.json("energy.json")
    four_pi_sq = 4 * math.pi ** 2     # identity of the flat 2-torus of side 2 pi
    return [Check("E_B", "close", four_pi_sq, doc["E_B"], 1e-12 * four_pi_sq),
            Check("seed", "eq", r.seed, doc["seed"])]


def tension_checks(r: JobRun) -> list[Check]:
    """On a flat target the tension is the grid Laplacian of the lift, so a
    sine mode a sin(k.b + p) maps to -a sin(k.b + p) sum_a (2 - 2 cos k_a h_a)/h_a^2
    exactly, up to rounding."""
    data = np.loadtxt(r.out / "tension.csv", delimiter=",", skiprows=1)
    periods = np.asarray(r.config["source"]["periods"], dtype=float)
    q = len(periods)
    n = r.config["resolution"]
    h = periods / n
    b = data[:, q:2 * q]
    expected = np.zeros((len(data), q))
    for comp, kvec, amp, phase in r.config["map"]["params"]["modes"]:
        kw = np.asarray(kvec, dtype=float) * 2 * math.pi / periods
        symbol = np.sum((2 - 2 * np.cos(kw * h)) / h ** 2)
        expected[:, comp] -= amp * np.sin(b @ kw + phase) * symbol
    return [Check("rows", "eq", n ** q, len(data)),
            Check("tension_field", "close", expected, data[:, 2 * q:], 1e-9),
            Check("seed", "eq", r.seed, r.json("tension.json")["seed"])]


def sphere_band_checks(r: JobRun) -> list[Check]:
    """The identity of the unit sphere band has |d_T phi|^2 = 2, so E_B is the
    band area 4 pi cos(theta0); trapezoid quadrature in theta is second order
    with an error of about 0.95 h^2 (1.3e-3 at n = 64, 8.1e-5 at n = 256)."""
    doc = r.json("flow.json")
    cap = r.config["source"]["cap_angle"]
    h = (math.pi - 2 * cap) / (r.config["resolution"] - 1)
    return [Check("steps", "eq", 0, doc["steps"]),
            Check("band_area_energy", "close", 4 * math.pi * math.cos(cap),
                  doc["final_energy"], 1.2 * h ** 2),
            Check("verdict", "eq", "totally_geodesic", doc["rigidity"]["verdict"]),
            Check("seed", "eq", r.seed, doc["seed"])]


def csv_restart_checks(r: JobRun) -> list[Check]:
    """Read back and written again, the map must be byte-identical; the
    restarted flow stops at step 0 with the energy of the map it read."""
    source = r.runs[r.job.map_from]
    doc = r.json("flow.json")
    same = filecmp.cmp(source.out / "flow_final_map.csv",
                       r.out / "flow_final_map.csv", shallow=False)
    return [Check("csv_roundtrip_identical", "eq", True, same),
            Check("steps", "eq", 0, doc["steps"]),
            Check("energy_after_read", "eq",
                  source.json("flow.json")["final_energy"], doc["final_energy"])]


# -- workloads ---------------------------------------------------------------


def workloads(quick: bool) -> dict[str, list[Job]]:
    def pick(full: Path, small: Path) -> Path:
        return small if quick else full

    four_pi_sq = 4 * math.pi ** 2
    sphere = pick(OWN / "report_sphere_identity_256.json",
                  SHIPPED / "report_sphere_identity.json")
    return {
        "flows": [
            Job("flow_circle_sine", "flow",
                pick(SHIPPED / "flow_circle_sine.json", QUICK / "flow_circle_sine_32.json"),
                flow_checks(math.pi, 1e-8 * math.pi, None),
                flow_metric="flow.run.circle_sine_s"),
            Job("flow_rigidity_flat", "flow",
                pick(SHIPPED / "flow_rigidity_flat.json", QUICK / "flow_rigidity_flat_16.json"),
                flow_checks(four_pi_sq, 1e-8 * four_pi_sq, "totally_geodesic"),
                flow_metric="flow.run.rigidity_flat_s"),
            Job("flow_rigidity_hyperbolic", "flow",
                pick(SHIPPED / "flow_rigidity_hyperbolic.json",
                     QUICK / "flow_rigidity_hyperbolic_16.json"),
                flow_checks(0.0, 1e-6, "transversally_constant"),
                flow_metric="flow.run.rigidity_hyperbolic_s"),
        ],
        "verify_fine": [
            Job("verify_weitzenbock_refinement", "verify",
                pick(OWN / "verify_weitzenbock_refinement_256.json",
                     QUICK / "verify_weitzenbock_refinement_64.json"),
                verify_checks(("weitzenbock", "lemma_volume"))),
            Job("verify_composition_chain", "verify",
                pick(OWN / "verify_composition_chain_256.json",
                     QUICK / "verify_composition_chain_64.json"),
                verify_checks(("composition",))),
            Job("verify_sphere_identity", "verify", sphere, verify_checks(())),
            Job("verify_core_identities", "verify",
                SHIPPED / "verify_core_identities.json", verify_checks(())),
        ],
        "cli_io": [
            Job("energy_identity_torus", "energy",
                SHIPPED / "energy_identity_torus.json", energy_checks),
            Job("tension_sine", "tension",
                pick(OWN / "flow_rigidity_flat_256.json", QUICK / "flow_rigidity_flat_32.json"),
                tension_checks),
            Job("flow_sphere_band", "flow", sphere, sphere_band_checks),
            Job("flow_from_csv", "flow", sphere, csv_restart_checks,
                map_from="flow_sphere_band"),
        ],
    }
