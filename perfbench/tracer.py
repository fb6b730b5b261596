"""In-memory span tracer for the traced benchmark run.

``Tracer.install()`` wraps the public functions of the ``folharm`` layers
listed in ``LAYER_SPANS`` and rebinds every name under which a ``folharm``
module holds them (``flow.py`` keeps its own reference to
``maps.second_fund_form``, ``cli`` imports from the package namespace at call
time, ...).  Each call appends one span (name, start, end, parent) to plain
lists; nothing is written until ``summary`` and ``save`` run after the job.

Self time of a span is its duration minus the durations of its direct child
spans.  The per-layer metrics sum self times per metric, except the flow
orchestrators listed in ``INCLUSIVE``, whose whole duration is the figure
a reader wants (time of one flow, of the energy evaluation, of the rigidity
diagnostics).
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

_now = time.perf_counter_ns

# (module, qualified name) -> span name.  Qualified names with a dot are
# methods (or cached properties) of a class in that module.
LAYER_SPANS = {
    ("geometry", "FlatTorus.exp"): "geometry.exp.flat_torus",
    ("geometry", "HyperbolicPatch.exp"): "geometry.exp.hyperbolic_patch",
    ("geometry", "RoundSphere.exp"): "geometry.exp.round_sphere",
    ("maps", "FoliatedMapField.target_metric"): "geometry.connection",
    ("maps", "FoliatedMapField.target_gamma"): "geometry.connection",
    ("geometry", "TransverseGeometry.riemann"): "geometry.curvature",
    ("geometry", "FlatTorus.riemann"): "geometry.curvature",
    ("geometry", "TransverseGeometry.ricci"): "geometry.curvature",
    ("geometry", "TransverseGeometry.sectional"): "geometry.curvature",
    ("grid", "build_grid"): "grid.build",
    ("grid", "diff1"): "grid.stencil",
    ("grid", "diff2"): "grid.stencil",
    ("grid", "mixed_diff"): "grid.stencil",
    ("grid", "grad_B"): "grid.stencil",
    ("grid", "hessian_scalar"): "grid.stencil",
    ("grid", "integrate"): "grid.integrate",
    ("grid", "delta_B_scalar"): "grid.laplacian",
    ("grid", "div_nabla"): "grid.laplacian",
    ("grid", "check_divergence_theorem"): "verify.divergence",
    ("maps", "d_T"): "maps.d_T",
    ("maps", "second_fund_form"): "maps.second_form",
    ("maps", "tension"): "maps.tension",
    ("maps", "energy_density"): "maps.energy_density",
    ("maps", "dT_norm_squared"): "maps.energy_density",
    ("maps", "second_form_norm_squared"): "maps.second_form_norm",
    ("maps", "pullback_derivative"): "maps.pullback",
    ("maps", "delta_nabla_dT"): "maps.pullback",
    ("maps", "compose"): "maps.compose",
    ("flow", "run_flow"): "flow.run",
    ("flow", "flow_step"): "flow.update",
    ("flow", "transversal_energy"): "flow.energy",
    ("flow", "rigidity_diagnostics"): "flow.rigidity",
    ("verify", "weitzenbock_residual"): "verify.weitzenbock",
    ("verify", "weitzenbock_terms"): "verify.weitzenbock",
    ("verify", "bochner_parts"): "verify.bochner",
    ("verify", "bochner_term"): "verify.bochner",
    ("verify", "composition_residuals"): "verify.composition",
    ("verify", "check_first_variation"): "verify.first_variation",
    ("verify", "check_lemma_volume"): "verify.lemma_volume",
    ("serialize", "scalar_field_to_csv"): "serialize.write",
    ("serialize", "map_to_csv"): "serialize.write",
    ("serialize", "trace_to_csv"): "serialize.write",
    ("serialize", "dump_json"): "serialize.write",
    ("serialize", "map_from_csv"): "serialize.read",
}

INCLUSIVE = ("flow.run", "flow.energy", "flow.rigidity")

# Span names whose calls are counted as a per-layer metric of their own.
COUNTED = {"maps.d_T": "maps.d_T_calls", "maps.second_form": "maps.second_form_calls"}
STENCIL_PRIMITIVES = ("diff1", "diff2")
HOOKED = ("run_flow", "scalar_field_to_csv", "map_to_csv", "trace_to_csv",
          "dump_json", "map_from_csv")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _nodes(grid) -> int:
    return int(np.prod(grid.shape))


def _on_return(qualname, args, result, counters):
    """Work counts taken at a span's end: rows, bytes and accepted steps."""
    if qualname == "run_flow":
        counters["flow.steps"] += result[1].steps[-1]
    elif qualname in ("scalar_field_to_csv", "map_to_csv"):
        grid = args[1] if qualname == "scalar_field_to_csv" else args[1].grid
        counters["serialize.rows_written"] += _nodes(grid)
        counters["serialize.bytes_written"] += _file_size(args[0])
    elif qualname == "trace_to_csv":
        counters["serialize.rows_written"] += len(args[1].steps)
        counters["serialize.bytes_written"] += _file_size(args[0])
    elif qualname == "dump_json":
        counters["serialize.bytes_written"] += _file_size(args[0])
    elif qualname == "map_from_csv":
        counters["serialize.rows_read"] += _nodes(args[1])


class Tracer:
    """Span recorder; one per worker process and job."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = {
            "flow.steps": 0, "grid.stencil_calls": 0,
            "serialize.rows_written": 0, "serialize.rows_read": 0,
            "serialize.bytes_written": 0,
        }

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, span: str, qualname: str):
        nid = self._name_id(span)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        counters = self.counters
        is_stencil = qualname in STENCIL_PRIMITIVES
        needs_hook = qualname in HOOKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _now()
                stack.pop()
            if is_stencil:
                counters["grid.stencil_calls"] += 1
            if needs_hook:
                _on_return(qualname, args, result, counters)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYER_SPANS wherever folharm holds it."""
        import importlib

        rebinds = {}
        for (module, qualname), span in LAYER_SPANS.items():
            mod = importlib.import_module(f"folharm.{module}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                member = cls.__dict__[attr]
                if isinstance(member, functools.cached_property):
                    member.func = self.wrap(member.func, span, attr)
                else:
                    setattr(cls, attr, self.wrap(member, span, attr))
                continue
            original = getattr(mod, qualname)
            # the originals stay referenced by their modules, so ids are unique
            rebinds[id(original)] = self.wrap(original, span, qualname)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "folharm" or name.startswith("folharm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in rebinds:
                    setattr(mod, attr, rebinds[id(value)])

    # -- after the job ---------------------------------------------------

    def arrays(self):
        return (np.asarray(self.names, dtype=np.int32),
                np.asarray(self.starts, dtype=np.int64),
                np.asarray(self.ends, dtype=np.int64),
                np.asarray(self.parents, dtype=np.int64))

    def save(self, path) -> None:
        names, starts, ends, parents = self.arrays()
        np.savez_compressed(path, names=names, starts=starts, ends=ends,
                            parents=parents, span_names=np.asarray(self.span_names))

    def summary(self, flow_run_metric: str | None) -> dict[str, float]:
        """Per-layer figures of this job: seconds, counts and d_T calls per flow."""
        names, starts, ends, parents = self.arrays()
        dur = (ends - starts).astype(float) * 1e-9
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        out: dict[str, float] = {}
        for nid, span in enumerate(self.span_names):
            mask = names == nid
            value = dur[mask] if span in INCLUSIVE else self_time[mask]
            out[f"{span}_s"] = float(value.sum())
            if span in COUNTED:
                out[COUNTED[span]] = int(mask.sum())
        run_id, dT_id = self._name_ids["flow.run"], self._name_ids["maps.d_T"]
        out["flow.attempts"] = int((names == self._name_ids["flow.update"]).sum())
        # d_T calls made anywhere below a run_flow span; a parent is always
        # recorded before its children
        in_flow = []
        for p in self.parents:
            in_flow.append(p >= 0 and (in_flow[p] or self.names[p] == run_id))
        out["flow.d_T_calls_in_flow"] = sum(
            1 for name, inside in zip(self.names, in_flow) if inside and name == dT_id)
        run_total = out.pop("flow.run_s")
        out["flow.run_total_s"] = run_total
        if flow_run_metric is not None:
            out[flow_run_metric] = run_total
        out["trace.spans"] = len(names)
        out.update(self.counters)
        return out
