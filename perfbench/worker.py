"""Run one benchmark job in a fresh interpreter.

    python3 perfbench/worker.py --sub flow --config CFG --out DIR --seed S \
        --result RESULT.json [--trace] [--flow-metric NAME] [--setup-only]

The job is what ``folharm <sub> --config CFG --out DIR --seed S`` does, split
into its two phases: set-up (``import folharm.cli``, ``load_config``, the
``Experiment`` with its geometry and grid, and the initial map) and solve
(the subcommand body from ``folharm.cli``, including output emission).  Phase
boundaries are read from CLOCK_MONOTONIC, which the launching process shares,
so set-up starts when the launcher started this interpreter.  With
``--setup-only`` the worker stops at the built experiment: one more set-up
sample.

The thread caps of the BLAS pools must be in the environment before numpy
loads; the launcher sets them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sub", required=True,
                        choices=("tension", "energy", "flow", "verify"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--flow-metric", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = _now()
    import folharm.cli as cli
    t_import = _now()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_cfg0 = _now()
    config = cli.load_config(args.config)
    t_cfg = _now()
    exp = cli.Experiment(config, seed=args.seed)
    initial = exp.initial_map()
    build = exp.initial_map
    # the subcommand asks for the same map again; hand it the one set-up built
    exp.initial_map = lambda grid=None: initial if grid is None else build(grid)
    t_built = _now()
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"t_built": t_built}))
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runner = {"tension": cli.run_tension, "energy": cli.run_energy,
              "flow": cli.run_flow_cmd, "verify": cli.run_verify}[args.sub]
    code, payload = runner(exp, out)
    t_end = _now()

    result = {
        "exit_code": code,
        "payload": payload,
        "t_started": t0,
        "t_built": t_built,
        "t_end": t_end,
        "import_s": (t_import - t0) * 1e-9,
        "load_config_s": (t_cfg - t_cfg0) * 1e-9,
        "experiment_s": (t_built - t_cfg) * 1e-9,
        "solve_s": (t_end - t_built) * 1e-9,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(args.flow_metric)
        tracer.save(Path(args.result).with_suffix(".spans.npz"))
    from folharm.serialize import sanitize_json

    Path(args.result).write_text(json.dumps(sanitize_json(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
