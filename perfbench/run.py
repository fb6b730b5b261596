"""folharm benchmark: launches the jobs of one workload and reports metrics.

    python3 perfbench/run.py --workload flows|verify_fine|cli_io \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the root of a folharm checkout; the package is imported from its
``src/``.  One job at a time, each in a fresh worker interpreter
(``worker.py``).  A run repeats whole rounds of its workload's jobs while
another round still fits in ``--seconds`` and fills the time left with
set-up-only rounds (each job's worker stops at the built experiment), checks
every job's outputs
(``jobs.py``), and prints as its last line one JSON object with ``correct``,
``attempted`` and ``failed`` (jobs) and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with ``--trace 1``.

End-to-end metrics, per run:
  setup_s      sum over jobs of the median over all rounds, set-up-only
               rounds included, of the time from launching the worker to a
               built experiment (import, config, geometry, grid, initial map)
  solve_s      sum over jobs of the median over full rounds of everything
               after set-up (the subcommand body, output emission included)
  peak_rss_mb  largest peak resident set of any worker

A traced run alternates untraced and traced rounds; per-layer metrics are
means over its traced rounds of the per-round sums over jobs, and
``trace.overhead_s`` is the median traced minus the median untraced solve_s.

Beside the metrics every run prints a host-speed reference: a fixed numpy
kernel timed before and after the rounds (``host_ref_ms``).  It is not a
metric; it tells a slow spell of the host from a slow program.

``--quick`` runs every job once untraced and once traced at small sizes, then
checks that every check rejects a wrong expected value.  It is a smoke test
and never gives metrics.
"""

from __future__ import annotations

import os

# BLAS pools must be capped before numpy loads, here and in every worker.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKER = Path("perfbench/worker.py")
OUT = Path("perfbench/out")
RUN_LIMIT_S = 170.0          # a run must end within 180 s


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def preflight() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    for need in (Path("src/folharm/__init__.py"), Path("scripts/configs"),
                 Path("BENCHMARK.json"), WORKER):
        if not need.exists():
            return f"{need} not found; run from the root of a folharm checkout"
    return None


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def host_reference_ms() -> float:
    """Median time of a fixed numpy kernel (batched 2x2 products and a
    periodic stencil on 128 x 128 nodes, ten times)."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((128, 128, 2, 2))
    samples = []
    for _ in range(7):
        t = time.perf_counter()
        for _ in range(10):
            b = np.einsum("...ab,...bc->...ac", a, a)
            c = np.roll(b, 1, 0) - 2 * b + np.roll(b, -1, 0)
            float(np.sum(c * c))
        samples.append(time.perf_counter() - t)
    return statistics.median(samples) * 1e3


class Runner:
    """Runs rounds of one workload's jobs and keeps every sample."""

    def __init__(self, workload: str, jobs, seed: int, started: int):
        self.workload, self.jobs, self.seed = workload, jobs, seed
        self.started = started
        self.root = OUT / workload
        shutil.rmtree(self.root, ignore_errors=True)
        (self.root / "results").mkdir(parents=True)
        self.env = worker_env()
        self.samples = []           # one dict per job run
        self.failures = []          # (round, job, reason)
        self.job_runs = []          # JobRuns of untraced rounds, for the self-test
        self.round_s = []
        self.setup_round_s = []
        self.setup_samples = {}     # job -> set-up times of set-up-only rounds
        self.last_runs = {}         # JobRuns of the last full round, by name
        self.attempted = 0

    def run_round(self, index: int, trace: bool) -> None:
        from jobs import JobRun, materialize

        t_round = _now()
        runs = {}
        for job in self.jobs:
            if job.map_from is not None and job.map_from not in runs:
                self.attempted += 1
                self.failures.append((index, job.name, f"no map from {job.map_from}"))
                continue
            out = self.root / job.name
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            stem = self.root / "results" / f"r{index}_{job.name}"
            config = materialize(job, self.seed, stem.with_suffix(".config.json"), runs)
            extra = []
            if trace:
                extra.append("--trace")
                if job.flow_metric:
                    extra += ["--flow-metric", job.flow_metric]
            self.attempted += 1
            res, t_launch, why = self.launch(job, stem, extra)
            if res is None:
                self.failures.append((index, job.name, why))
                continue
            run = JobRun(job, config, out, res["payload"], self.seed, runs)
            runs[job.name] = run
            failed = self.check(index, run, res["exit_code"])
            self.samples.append({
                "round": index, "job": job.name, "trace": trace, "failed": failed,
                "setup_s": (res["t_built"] - t_launch) * 1e-9,
                "solve_s": res["solve_s"],
                "rss_mb": res["maxrss_kib"] / 1024,
                "cli.import_s": res["import_s"],
                "cli.load_config_s": res["load_config_s"],
                "cli.experiment_s": res["experiment_s"],
                "layers": res.get("layers"),
            })
            if not trace:
                self.job_runs.append(run)
        self.last_runs = runs
        self.round_s.append((_now() - t_round) * 1e-9)

    def run_setup_round(self, index: int) -> None:
        """Launch every job's worker once more, stopping at the built
        experiment.  These launches are not jobs: they are not checked or
        counted, and a failed one leaves no sample."""
        from jobs import materialize

        t_round = _now()
        for job in self.jobs:
            if job.map_from is not None and job.map_from not in self.last_runs:
                continue
            stem = self.root / "results" / f"s{index}_{job.name}"
            # a CSV-started job reads the map the last full round wrote
            materialize(job, self.seed, stem.with_suffix(".config.json"), self.last_runs)
            res, t_launch, _ = self.launch(job, stem, ["--setup-only"])
            if res is not None:
                self.setup_samples.setdefault(job.name, []).append(
                    (res["t_built"] - t_launch) * 1e-9)
        self.setup_round_s.append((_now() - t_round) * 1e-9)

    def launch(self, job, stem: Path, extra: list[str]):
        """Run one worker; return its result (None if it failed), its launch
        time and why it failed."""
        cmd = [sys.executable, str(WORKER), "--sub", job.sub,
               "--config", str(stem.with_suffix(".config.json")),
               "--out", str(self.root / job.name), "--seed", str(self.seed),
               "--result", str(stem.with_suffix(".json"))] + extra
        left = RUN_LIMIT_S - (_now() - self.started) * 1e-9
        t_launch = _now()
        try:
            with open(stem.with_suffix(".log"), "w") as log:
                proc = subprocess.run(cmd, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            return None, t_launch, "timed out"
        if proc.returncode != 0:
            return None, t_launch, f"worker exit {proc.returncode}"
        return json.loads(stem.with_suffix(".json").read_text()), t_launch, ""

    def check(self, index, run, exit_code) -> bool:
        """Record a failure unless the exit code and every check are right."""
        if exit_code != 0:
            self.failures.append((index, run.job.name, f"exit code {exit_code}"))
            return True
        try:
            bad = [c.name for c in run.job.checks(run) if not c.passes()]
        except (OSError, KeyError, ValueError, IndexError) as exc:
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            self.failures.append((index, run.job.name, "failed " + ", ".join(bad)))
        return bool(bad)

    def run_rounds(self, seconds: float, traced: bool) -> None:
        """Whole rounds while another one fits; a traced run alternates
        untraced and traced rounds and has at least one of each.  An
        untraced run then fills the time left with set-up-only rounds."""
        def left() -> float:
            return seconds - (_now() - self.started) * 1e-9

        index = 0
        while True:
            self.run_round(index, trace=traced and index % 2 == 1)
            index += 1
            if traced and index < 2:
                continue
            if max(self.round_s) > left():
                break
        if traced:
            return
        setup_round = sum(s["setup_s"] for s in self.samples[-len(self.jobs):])
        index = 0
        while max(self.setup_round_s, default=setup_round) <= left():
            self.run_setup_round(index)
            index += 1

    def per_job(self, key: str, trace: bool) -> dict[str, list[float]]:
        by_job: dict[str, list[float]] = {}
        for s in self.samples:
            if s["trace"] == trace:
                by_job.setdefault(s["job"], []).append(s[key])
        return by_job

    def setup_by_job(self) -> dict[str, list[float]]:
        by_job = self.per_job("setup_s", False)
        for job, values in self.setup_samples.items():
            by_job.setdefault(job, []).extend(values)
        return by_job

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": sum(statistics.median(v) for v in self.setup_by_job().values()),
            "solve_s": sum(statistics.median(v) for v in self.per_job("solve_s", False).values()),
            "peak_rss_mb": max(s["rss_mb"] for s in self.samples if not s["trace"]),
        }

    def per_layer(self) -> dict[str, float]:
        traced = [s for s in self.samples if s["trace"]]
        rounds = len({s["round"] for s in traced})
        total: dict[str, float] = {}
        for s in traced:
            figures = dict(s["layers"])
            for key in ("cli.import_s", "cli.load_config_s", "cli.experiment_s"):
                figures[key] = s[key]
            for key, value in figures.items():
                total[key] = total.get(key, 0) + value
        m = {"flow.run.circle_sine_s": 0.0, "flow.run.rigidity_flat_s": 0.0,
             "flow.run.rigidity_hyperbolic_s": 0.0}
        m.update((k, v / rounds) for k, v in total.items())
        attempts = m["flow.attempts"]
        m["flow.accept_ratio"] = m["flow.steps"] / attempts if attempts else 0.0
        m["flow.step_ms"] = 1e3 * m["flow.run_total_s"] / attempts if attempts else 0.0
        m["flow.d_T_per_attempt"] = m["flow.d_T_calls_in_flow"] / attempts if attempts else 0.0
        for kind in ("write", "read"):
            secs = m[f"serialize.{kind}_s"]
            rows = m[f"serialize.rows_{'written' if kind == 'write' else 'read'}"]
            m[f"serialize.{kind}_rows_per_s"] = rows / secs if secs else 0.0

        def solve_by_round(trace):
            per_round: dict[int, float] = {}
            for s in self.samples:
                if s["trace"] == trace:
                    per_round[s["round"]] = per_round.get(s["round"], 0) + s["solve_s"]
            return statistics.median(per_round.values())

        m["trace.overhead_s"] = solve_by_round(True) - solve_by_round(False)
        return m


def metric_specs(kind: str) -> list[dict]:
    return json.loads(Path("BENCHMARK.json").read_text())[kind]


def report(values: dict, kind: str) -> dict:
    return {spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]}
            for spec in metric_specs(kind)}


def run_quick() -> int:
    """Every job and check at small sizes, then the self-test of the checks."""
    from jobs import workloads

    started = _now()
    ok = True
    checks = rejected = 0
    for name, jobs in workloads(quick=True).items():
        runner = Runner(name, jobs, seed=1, started=started)
        runner.run_round(0, trace=False)
        runner.run_round(1, trace=True)
        for failure in runner.failures:
            print(f"FAIL {name}: round {failure[0]} {failure[1]}: {failure[2]}")
            ok = False
        if runner.failures:
            continue
        layers = runner.per_layer()
        missing = [s["name"] for s in metric_specs("per_layer") if s["name"] not in layers]
        if missing:
            print(f"FAIL {name}: per-layer metrics not produced: {missing}")
            ok = False
        for run in runner.job_runs:
            for check in run.job.checks(run):
                checks += 1
                if check.passes() and not check.passes(check.wrong()):
                    rejected += 1
                else:
                    print(f"FAIL self-test {name}/{run.job.name}/{check.name}: "
                          f"passes={check.passes()} wrong={check.wrong()!r}")
                    ok = False
        print(f"{name}: {len(jobs)} jobs, setup {runner.end_to_end()['setup_s']:.3f} s, "
              f"solve {runner.end_to_end()['solve_s']:.3f} s, "
              f"trace overhead {layers['trace.overhead_s']:.3f} s")
    elapsed = (_now() - started) * 1e-9
    print(json.dumps({"quick": True, "correct": ok, "checks": checks,
                      "wrong_expected_rejected": rejected, "elapsed_s": elapsed}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("flows", "verify_fine", "cli_io"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    why = preflight()
    if why is not None:
        print(f"error: {why}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.quick:
        return run_quick()
    if args.workload is None:
        parser.error("--workload is required without --quick")

    from jobs import workloads

    started = _now()
    runner = Runner(args.workload, workloads(quick=False)[args.workload],
                    args.seed, started)
    host_before = host_reference_ms()
    runner.run_rounds(args.seconds, traced=bool(args.trace))
    host_after = host_reference_ms()

    for failure in runner.failures:
        print(f"FAIL round {failure[0]} {failure[1]}: {failure[2]}")
    setups = runner.setup_by_job()
    for job, values in runner.per_job("solve_s", False).items():
        print(f"{job}: setup {statistics.median(setups[job]):.4f} s over {len(setups[job])}, "
              f"solve {statistics.median(values):.4f} s over {len(values)} samples")
    print(f"host_ref_ms before {host_before:.3f} after {host_after:.3f}; "
          f"rounds {len(runner.round_s)} + {len(runner.setup_round_s)} set-up only, "
          f"elapsed {(_now() - started) * 1e-9:.1f} s")
    failed = len(runner.failures)
    if not any(not s["trace"] for s in runner.samples):
        print("error: no job of this workload completed", file=sys.stderr)
        return 1
    values = runner.per_layer() if args.trace else runner.end_to_end()
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "host_ref_ms": [host_before, host_after], "round_s": runner.round_s,
               "setup_round_s": runner.setup_round_s,
               "setup_only_samples": runner.setup_samples, "samples": runner.samples, "failures": runner.failures, "values": values}
    (runner.root / "run.json").write_text(json.dumps(summary, indent=1))
    metrics = report(values, "per_layer" if args.trace else "end_to_end")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
