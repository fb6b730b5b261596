#!/usr/bin/env python3
"""Time heat-flow steps in-process, as ``run_flow`` pays for them.

    python3 scripts/step_time.py [--config C] [--resolution N] [--max-steps K]

Builds the config's source grid at resolution N (default: the config's own)
and its initial map, then times ``run_flow`` with the config's flow
settings, its own ``tension_tol`` included, and ``max_steps=K``: the
initial map's energy and tension, then the steps up to the tension
tolerance or K, with their energies, rejections and trace statistics.
Each of five timed runs starts from a freshly built initial map, and so
does one run before them under ``tracemalloc``, which gives the peak of the
memory the flow allocates.  Prints one JSON line with that peak, the median
and quartiles over the timed runs of the milliseconds per accepted step,
and the step route the source grid selects: ``fft`` (the
preconditioned step of a flat torus) or ``explicit``; per-step figures of
the two routes are not comparable.  A run that ends in ``dt_underflow``
spent its last attempts on rejections, so its figures are null instead of
an average.  With no ``--config`` it does so for each shipped flow config
at its shipped resolution, one JSON line each.  Set OPENBLAS_NUM_THREADS=1
for figures comparable with the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path.insert(0, str(here.parent / "src"))

import numpy as np  # noqa: E402

from folharm import flow  # noqa: E402
from folharm.cli import Experiment, load_config  # noqa: E402

RUNS = 5
SHIPPED_FLOWS = ("flow_circle_sine", "flow_rigidity_flat", "flow_rigidity_hyperbolic")


def time_steps(path: Path, resolution: int | None, max_steps: int) -> dict:
    """Milliseconds per accepted step of at most ``max_steps`` steps of the
    flow of the config at ``path``."""
    config = load_config(path)
    if resolution is not None:
        config["resolution"] = resolution
    exp = Experiment(config)
    settings = {**config.get("flow", {}), "max_steps": max_steps}
    flow_config = flow.FlowConfig(**settings)
    mapf = exp.initial_map()
    tracemalloc.start()
    flow.run_flow(mapf, exp.struct, flow_config)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    per_step = []
    for _ in range(RUNS):
        mapf = exp.initial_map()
        t0 = time.perf_counter()
        _, trace = flow.run_flow(mapf, exp.struct, flow_config)
        elapsed = time.perf_counter() - t0
        steps = trace.steps[-1]
        per_step.append(1e3 * elapsed / max(steps, 1))
    # every run starts from the same map, so all five end alike; one that ends
    # in dt_underflow spent its last attempts on rejected steps
    q1, med, q3 = ([None] * 3 if trace.termination == "dt_underflow"
                   else [round(float(x), 3) for x in np.percentile(per_step, [25, 50, 75])])
    return {
        "config": path.name, "resolution": list(mapf.grid.shape),
        "route": "fft" if flow._preconditioned(mapf.grid) else "explicit",
        "max_steps": max_steps, "tension_tol": flow_config.tension_tol,
        "steps": steps, "termination": trace.termination,
        "runs": RUNS, "dt": flow_config.resolve_dt(mapf.grid),
        "median_ms": med, "q1_ms": q1, "q3_ms": q3,
        "tracemalloc_peak_mb": round(peak / 1e6, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=None,
                        help="flow config (default: each shipped flow config)")
    parser.add_argument("--resolution", type=int, default=None,
                        help="grid resolution (default: the config's)")
    parser.add_argument("--max-steps", type=int, default=300,
                        help="cap on accepted steps when the tension tolerance is not met")
    args = parser.parse_args(argv)

    paths = ([Path(args.config)] if args.config is not None
             else [here / "configs" / f"{name}.json" for name in SHIPPED_FLOWS])
    for path in paths:
        print(json.dumps(time_steps(path, args.resolution, args.max_steps)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
