#!/usr/bin/env python3
"""Time explicit heat-flow steps in-process, as ``run_flow`` pays for them.

    python3 scripts/step_time.py [--config C] [--resolution N] [--attempts K]

Builds the config's source grid at resolution N and its initial map, then
times ``run_flow`` with the config's flow settings, ``tension_tol=0`` and
``max_steps=K``: the initial map's energy and tension, K steps with their
energies, rejections and trace statistics, and the last block of trace
statistics.  Each of five runs starts from a freshly built initial map.
Prints one JSON line with the median and quartiles over the runs of the
milliseconds per accepted step.  Set OPENBLAS_NUM_THREADS=1 for figures
comparable with the benchmark.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=str(here / "configs" / "flow_rigidity_flat.json"))
    parser.add_argument("--resolution", type=int, default=128)
    parser.add_argument("--attempts", type=int, default=30)
    args = parser.parse_args(argv)

    config = load_config(args.config)
    config["resolution"] = args.resolution
    exp = Experiment(config)
    settings = {**config.get("flow", {}), "tension_tol": 0.0, "max_steps": args.attempts}
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
    print(json.dumps({
        "config": Path(args.config).name, "resolution": list(mapf.grid.shape),
        "attempts": args.attempts, "steps": steps, "termination": trace.termination,
        "runs": RUNS, "dt": flow_config.resolve_dt(mapf.grid),
        "median_ms": round(float(med), 3), "q1_ms": round(float(q1), 3),
        "q3_ms": round(float(q3), 3),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
