#!/usr/bin/env python3
"""Time single explicit heat-flow attempts in-process.

    python3 scripts/step_time.py [--config C] [--resolution N] [--attempts K]

Builds the config's source grid at resolution N and its initial map, then
times K consecutive attempts.  An attempt is the work of one accepted step
of ``run_flow``: ``flow_step`` at the config's (CFL) step size, the
candidate's energy, and the trace statistics max|tau|, max|S| and
max|d_T phi|^2.  Each attempt starts from the previous candidate, so every
one computes fresh derivatives.  Prints one JSON line with the median and
quartiles in milliseconds.  Set OPENBLAS_NUM_THREADS=1 for figures
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

from folharm import flow, maps  # noqa: E402
from folharm.cli import Experiment, load_config  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=str(here / "configs" / "flow_rigidity_flat.json"))
    parser.add_argument("--resolution", type=int, default=128)
    parser.add_argument("--attempts", type=int, default=30)
    args = parser.parse_args(argv)

    config = load_config(args.config)
    config["resolution"] = args.resolution
    exp = Experiment(config)
    mapf = exp.initial_map()
    dt = flow.FlowConfig(**config.get("flow", {})).resolve_dt(mapf.grid)
    maps.tension_sup_norm(mapf)              # the first attempt needs tau
    times = []
    for _ in range(args.attempts):
        t0 = time.perf_counter()
        mapf = flow.flow_step(mapf, dt)
        flow.transversal_energy(mapf, exp.struct)
        maps.tension_sup_norm(mapf)
        np.max(maps.second_form_norm_squared(mapf))
        np.max(mapf.dT_norm_sq)
        times.append(time.perf_counter() - t0)
    ms = 1e3 * np.asarray(times)
    q1, med, q3 = np.percentile(ms, [25, 50, 75])
    print(json.dumps({
        "config": Path(args.config).name, "resolution": list(mapf.grid.shape),
        "attempts": args.attempts, "dt": dt,
        "median_ms": round(float(med), 3), "q1_ms": round(float(q1), 3),
        "q3_ms": round(float(q3), 3),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
