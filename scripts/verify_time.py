#!/usr/bin/env python3
"""Time each identity check in-process, as ``folharm verify`` pays for it.

    python3 scripts/verify_time.py [--config C] [--resolution N]

For each check that the config's ``verify.checks`` selects, runs the check's
residual at resolution N (default: the config's finest, the last of
``resolutions`` or else ``resolution``) as ``folharm verify`` does for one
grid: build the grid and the initial map, then evaluate the residual.  One
untimed run loads what the first call loads; one run under ``tracemalloc``
gives the peak of the memory the check allocates; five more runs give the
median and quartiles of the milliseconds per call.  Prints one JSON line per
check.  With no ``--config`` it does so for each shipped config with a
``verify`` section.  Set OPENBLAS_NUM_THREADS=1 for figures comparable with
the benchmark.
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

from folharm import cli  # noqa: E402

RUNS = 5
SHIPPED = ("verify_core_identities", "verify_weitzenbock_refinement",
           "verify_composition_chain", "report_sphere_identity")


def time_check(exp: cli.Experiment, check: str, n: int) -> dict:
    """Milliseconds per call and traced peak of the residual of ``check`` at ``n``."""
    residual = cli._CHECKS[check][0]
    value = residual(exp, n)
    tracemalloc.start()
    residual(exp, n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    ms = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        residual(exp, n)
        ms.append(1e3 * (time.perf_counter() - t0))
    q1, med, q3 = np.percentile(ms, [25, 50, 75])
    return {"check": check, "residual": value, "runs": RUNS,
            "median_ms": round(float(med), 3), "q1_ms": round(float(q1), 3),
            "q3_ms": round(float(q3), 3), "tracemalloc_peak_mb": round(peak / 1e6, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=None,
                        help="config with a verify section (default: each shipped one)")
    parser.add_argument("--resolution", type=int, default=None,
                        help="grid resolution (default: the config's finest)")
    args = parser.parse_args(argv)

    paths = ([Path(args.config)] if args.config is not None
             else [here / "configs" / f"{name}.json" for name in SHIPPED])
    for path in paths:
        config = cli.load_config(path)
        exp = cli.Experiment(config)
        n = args.resolution or (config.get("resolutions") or [config["resolution"]])[-1]
        for check in config["verify"]["checks"]:
            line = {"config": path.name, "resolution": n, **time_check(exp, check, n)}
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
