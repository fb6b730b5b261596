#!/usr/bin/env python3
"""Time heat-flow steps in-process, as ``run_flow`` pays for them.

    python3 scripts/step_time.py [--config C] [--resolution N] [--attempts K]

Builds the config's source grid at resolution N (default: the config's own)
and its initial map, then times ``run_flow`` with the config's flow
settings, ``tension_tol=0`` and ``max_steps=K``: the initial map's energy
and tension, K steps with their energies, rejections and trace statistics.
Each of five runs starts from a freshly built initial map.  Prints one JSON
line with the median and quartiles over the runs of the milliseconds per
accepted step, and the step route the source grid selects: ``fft`` (the
preconditioned step of a flat torus) or ``explicit``; per-step figures of
the two routes are not comparable.  With no ``--config`` it does so for
each shipped flow config at its shipped resolution, one line each.  Set
OPENBLAS_NUM_THREADS=1 for figures comparable with the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path.insert(0, str(here.parent / "src"))

import numpy as np  # noqa: E402

from folharm import flow  # noqa: E402
from folharm.cli import Experiment, load_config  # noqa: E402

RUNS = 5
SHIPPED_FLOWS = ("flow_circle_sine", "flow_rigidity_flat", "flow_rigidity_hyperbolic")


def time_steps(path: Path, resolution: int | None, attempts: int) -> dict:
    """Milliseconds per accepted step of ``attempts`` attempts of the flow of
    the config at ``path``."""
    config = load_config(path)
    if resolution is not None:
        config["resolution"] = resolution
    exp = Experiment(config)
    settings = {**config.get("flow", {}), "tension_tol": 0.0, "max_steps": attempts}
    flow_config = flow.FlowConfig(**settings)
    per_step = []
    for _ in range(RUNS):
        mapf = exp.initial_map()
        t0 = time.perf_counter()
        _, trace = flow.run_flow(mapf, exp.struct, flow_config)
        elapsed = time.perf_counter() - t0
        steps = trace.steps[-1]
        per_step.append(1e3 * elapsed / max(steps, 1))
    q1, med, q3 = np.percentile(per_step, [25, 50, 75])
    return {
        "config": path.name, "resolution": list(mapf.grid.shape),
        "route": "fft" if flow._preconditioned(mapf.grid) else "explicit",
        "attempts": attempts, "steps": steps, "termination": trace.termination,
        "runs": RUNS, "dt": flow_config.resolve_dt(mapf.grid),
        "median_ms": round(float(med), 3), "q1_ms": round(float(q1), 3),
        "q3_ms": round(float(q3), 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=None,
                        help="flow config (default: each shipped flow config)")
    parser.add_argument("--resolution", type=int, default=None,
                        help="grid resolution (default: the config's)")
    parser.add_argument("--attempts", type=int, default=300)
    args = parser.parse_args(argv)

    paths = ([Path(args.config)] if args.config is not None
             else [here / "configs" / f"{name}.json" for name in SHIPPED_FLOWS])
    for path in paths:
        print(json.dumps(time_steps(path, args.resolution, args.attempts)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
