#!/usr/bin/env python3
"""Time the grid-table CSV writes and the map read in-process.

    python3 scripts/io_time.py [--config C] [--resolution N]

Builds the config's source grid at resolution N and its initial map, then
times, in each of five runs, ``scalar_field_to_csv`` of the map's tension
field (the ``tension`` subcommand's ``tension.csv``), ``map_to_csv`` of the
map (``flow_final_map.csv``) and ``map_from_csv`` of that file, writing into
a temporary directory.  Prints one JSON line with the median and quartiles
over the runs of the milliseconds per call.  Set OPENBLAS_NUM_THREADS=1 for
figures comparable with the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path.insert(0, str(here.parent / "src"))

import numpy as np  # noqa: E402

from folharm import serialize  # noqa: E402
from folharm.cli import Experiment, load_config  # noqa: E402

RUNS = 5


def _ms(call) -> float:
    t0 = time.perf_counter()
    call()
    return 1e3 * (time.perf_counter() - t0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=str(here / "configs" / "flow_rigidity_flat.json"))
    parser.add_argument("--resolution", type=int, default=256)
    args = parser.parse_args(argv)

    config = load_config(args.config)
    config["resolution"] = args.resolution
    exp = Experiment(config)
    mapf = exp.initial_map()
    tau = mapf.tau
    times = {"tension_csv": [], "map_csv": [], "map_read": []}
    with tempfile.TemporaryDirectory() as tmp:
        tension, final_map = Path(tmp) / "tension.csv", Path(tmp) / "flow_final_map.csv"
        for _ in range(RUNS):
            times["tension_csv"].append(_ms(
                lambda: serialize.scalar_field_to_csv(tension, exp.grid, {"tau": tau})))
            times["map_csv"].append(_ms(lambda: serialize.map_to_csv(final_map, mapf)))
            times["map_read"].append(_ms(
                lambda: serialize.map_from_csv(final_map, exp.grid, exp.target)))
    result = {"config": Path(args.config).name, "resolution": list(exp.grid.shape),
              "runs": RUNS}
    for name, samples in times.items():
        q1, med, q3 = np.percentile(samples, [25, 50, 75])
        result[name] = {"median_ms": round(float(med), 2), "q1_ms": round(float(q1), 2),
                        "q3_ms": round(float(q3), 2)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
