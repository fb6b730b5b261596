"""The traced benchmark's tracer still installs on the package."""

import json
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import folharm as fh

ROOT = Path(__file__).resolve().parents[1]

# Install the tracer, then run a circle flow and a flow into the hyperbolic
# patch; print the recorded span names and counts.
_TRACED_FLOWS = """
import json
import numpy as np
from tracer import Tracer
import folharm as fh

tracer = Tracer()
tracer.install()
circle = fh.FlatTorus([2 * np.pi])
grid = fh.build_grid(circle, 16)
fam = fh.make_family("sine_perturbation", circle, circle, {"modes": [[0, [1], 0.5, 0.0]]})
fh.run_flow(fam.realize(grid), None, fh.FlowConfig(tension_tol=0.0, max_steps=20))
grid = fh.build_grid(fh.FlatTorus([2 * np.pi, 2 * np.pi]), 16)
patch = fh.HyperbolicPatch(x_bounds=(-2.0, 2.0), y_bounds=(0.5, 3.0))
fam = fh.make_family("sine_into_patch", grid.geometry, patch)
fh.run_flow(fam.realize(grid), None, fh.FlowConfig(tension_tol=0.0, max_steps=20))
names = [tracer.span_names[i] for i in tracer.names]
print(json.dumps({name: names.count(name) for name in set(names)}))
"""


def test_tracer_wraps_the_flow_layers():
    """Every ``LAYER_SPANS`` name resolves, cached properties included
    (``target_metric`` must stay a ``functools.cached_property``), and the
    traced flows record the spans of the layers they call.  The flow takes
    its partials from ``grid.derivatives``, so it records no ``grid.stencil``
    span; the second form of the flow into the hyperbolic patch reads the
    field's cached ``target_gamma``, a ``geometry.connection`` span."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", _TRACED_FLOWS], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout)
    assert counts["flow.run"] == 2
    assert counts["flow.update"] >= 40
    for span in ("geometry.exp.flat_torus", "geometry.exp.hyperbolic_patch",
                 "geometry.connection", "maps.d_T", "maps.second_form", "maps.tension",
                 "flow.energy"):
        assert counts.get(span, 0) > 0, span


def test_cached_field_properties_stay_functools_cached_properties():
    """The tracer recognises the cached properties it wraps by their class,
    and wraps their ``func``."""
    for name in ("periodic_part", "target_metric", "target_gamma", "D", "tau"):
        assert isinstance(getattr(fh.FoliatedMapField, name), cached_property), name
