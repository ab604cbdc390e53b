"""Spans around fevec's public functions and the per-layer metrics derived from them.

``traced(tracer)`` rebinds every public function of the layer modules to a
wrapper that records one span per call: name, start, end, parent span and the
run id.  A function is rebound in *every* fevec module namespace that binds
it (``assemble_thermal`` lives in ``assembly``, ``solver``, ``bench`` and the
package ``__init__``) and inside module-level dicts such as
``config.GENERATORS``.  The solver's scipy factorization and CG calls are
reached through a proxy of the ``scipy.sparse.linalg`` module it imported.
Leaving the context restores every binding.

Spans are kept in flat arrays in memory and written out once, at the end.
A span's self time is its duration minus the part of its interval covered by
its child spans; per-layer seconds are sums of self time grouped by layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from contextlib import contextmanager
from types import FunctionType

import numpy as np

LAYER_MODULES = ("mesh", "config", "fem", "vem", "assembly", "solver", "post", "cli")

# Public functions that stay unwrapped; their time is self time of the caller.
UNWRAPPED = {
    "mesh.mesh_text": "provenance hash, counted in cli.self_s",
}

# Public methods wrapped on their class (a single binding each).
CLASS_METHODS = {
    ("post", "FieldEvaluator"): ("locate", "evaluate", "evaluate_in_element"),
}

# scipy.sparse.linalg calls made by the solver, wrapped through a module proxy.
SCIPY_CALLS = ("splu", "cg")

# Self time of these spans goes to the layer of their caller.
INHERIT = "<inherit>"

BUCKETS = {
    "mesh.subdivided": "mesh.generate",
    "mesh.find_interface_nodes": "mesh.generate",
    "mesh.validate_mesh": "mesh.validate",
    "mesh.polygon_geometry": "mesh.geometry",
    "mesh.polygon_geometry_from_coords": "mesh.geometry",
    "mesh.shoelace_area": INHERIT,
    "assembly.assemble_thermal": "assembly.thermal",
    "assembly.assemble_mechanical": "assembly.mechanical",
    "assembly.apply_dirichlet": "assembly.dirichlet",
    "assembly.build_dof_map": INHERIT,
    "solver.splu": INHERIT,
    "solver.cg": INHERIT,
    "post.recover_stress": "post.recover_stress",
    "post.von_mises": INHERIT,
    "post.nodal_von_mises": "post.nodal_vm",
    "post.line_probe": "post.probe",
    "post.export_fields": "post.export",
    "post.write_probe_csv": "post.export",
}


def bucket_of(name: str, attrs: dict | None) -> str:
    """Layer that a span's self time is charged to (or INHERIT)."""
    if name in BUCKETS:
        return BUCKETS[name]
    if name.startswith("mesh.generate_"):
        return "mesh.generate"
    if name.startswith("post.FieldEvaluator."):
        return "post.probe"
    if name == "solver.solve_system":
        return f"solver.{(attrs or {}).get('field', 'unknown')}"
    return name.split(".", 1)[0]


class Tracer:
    """Span store for one traced run; spans live in flat arrays until written."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.distinct: dict[str, set] = {}
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name_id]

    def write(self, path) -> None:
        """Write every span (name, start, end, parent, run id) as one .npz file."""
        n = len(self)
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), runs=np.array([self.run_id]),
                 run=np.zeros(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# Hooks: counts taken where the work happens


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _record_nnz(tracer, idx, args, kwargs, result):
    tracer.attrs[idx] = {"nnz": int(result.matrix.nnz)}


def _record_solve(tracer, idx, args, kwargs, result):
    system = _first_arg(args, kwargs, "system")
    tracer.attrs[idx] = {"field": system.dof_map.field_kind,
                         "iterations": int(result[1].iterations)}


def _record_fill(tracer, idx, args, kwargs, result):
    tracer.attrs[idx] = {"fill": int(result.L.nnz + result.U.nnz)}


def _distinct_coords(key: str, kind: str):
    def hook(tracer, idx, args, kwargs, result):
        coords = np.asarray(_first_arg(args, kwargs, "coords"), dtype=float)
        tracer.distinct.setdefault(key, set()).add((kind, coords.tobytes()))
    return hook


HOOKS = {
    "assembly.assemble_thermal": _record_nnz,
    "assembly.assemble_mechanical": _record_nnz,
    "solver.solve_system": _record_solve,
    "solver.splu": _record_fill,
    "mesh.polygon_geometry_from_coords": _distinct_coords("mesh.geometry", "geometry"),
    "vem.thermal_projection": _distinct_coords("vem.projection", "thermal"),
    "vem.elastic_projection": _distinct_coords("vem.projection", "elastic"),
}


# ---------------------------------------------------------------------------
# Patching


class _ModuleProxy:
    """Stands in for a module: selected attributes overridden, the rest forwarded."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def fevec_modules() -> list:
    """The fevec package and every one of its submodules, imported."""
    import fevec
    return [fevec] + [importlib.import_module(f"fevec.{info.name}")
                      for info in pkgutil.iter_modules(fevec.__path__)]


def layer_functions() -> dict[str, FunctionType]:
    """Qualified name -> public function defined in a layer module."""
    out = {}
    for layer in LAYER_MODULES:
        mod = importlib.import_module(f"fevec.{layer}")
        for name, fn in vars(mod).items():
            qual = f"{layer}.{name}"
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or qual in UNWRAPPED):
                continue
            out[qual] = fn
    return out


def _rebind_all(modules, replacement: dict[int, object], undo: list) -> None:
    """Replace every binding of a target object in module namespaces and their dicts."""
    def swap(value):
        new = replacement.get(id(value))
        if new is not None:
            return new
        if isinstance(value, tuple) and any(id(v) in replacement for v in value):
            return tuple(replacement.get(id(v), v) for v in value)
        return None

    for mod in modules:
        ns = vars(mod)
        for attr, value in list(ns.items()):
            if attr.startswith("__"):
                continue
            new = swap(value)
            if new is not None:
                setattr(mod, attr, new)
                undo.append((ns, attr, value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    new = swap(item)
                    if new is not None:
                        value[key] = new
                        undo.append((value, key, item))


@contextmanager
def traced(tracer: Tracer):
    """Wrap fevec's layer functions for the duration of the block."""
    import scipy.sparse.linalg as spla

    modules = fevec_modules()
    replacement: dict[int, object] = {}
    for qual, fn in layer_functions().items():
        replacement[id(fn)] = tracer.wrap(qual, fn, HOOKS.get(qual))
    overrides = {call: tracer.wrap(f"solver.{call}", getattr(spla, call),
                                   HOOKS.get(f"solver.{call}"))
                 for call in SCIPY_CALLS}
    replacement[id(spla)] = _ModuleProxy(spla, overrides)

    undo: list[tuple[dict, str, object]] = []
    class_undo = []
    try:
        _rebind_all(modules, replacement, undo)
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(importlib.import_module(f"fevec.{layer}"), cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", original))
                class_undo.append((cls, meth, original))
        yield tracer
    finally:
        for cls, meth, original in reversed(class_undo):
            setattr(cls, meth, original)
        for container, key, original in reversed(undo):
            container[key] = original


# ---------------------------------------------------------------------------
# Analysis


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping children are
    counted once.
    """
    start = list(start)
    end = list(end)
    parent = list(parent)
    out = [e - s for s, e in zip(start, end)]
    kids = sorted((p, start[i], i) for i, p in enumerate(parent) if p >= 0)
    current, covered = -1, 0.0
    for p, s, i in kids:
        if p != current:
            current, covered = p, start[p]
        lo = max(s, covered)
        hi = min(end[i], end[p])
        if hi > lo:
            out[p] -= hi - lo
            covered = hi
    return out


def span_buckets(tracer: Tracer) -> list[str]:
    """Layer of every span; INHERIT spans take their caller's layer."""
    names = tracer.span_names()
    out: list[str] = []
    for i, (name, p) in enumerate(zip(names, tracer.parent)):
        b = bucket_of(name, tracer.attrs.get(i))
        if b == INHERIT:
            b = out[p] if p >= 0 else "other"
        out.append(b)
    return out


COUNT_METRICS = (
    "trace.spans", "mesh.geometry_calls", "fem.calls", "vem.calls",
    "vem.projection_calls", "assembly.nnz_thermal", "assembly.nnz_mechanical",
    "solver.lu_fill_thermal", "solver.lu_fill_mechanical", "solver.cg_iters",
    "post.nodal_vm_calls", "post.locate_calls",
)

SECONDS_METRICS = {
    "mesh.generate_s": ("mesh.generate",),
    "mesh.validate_s": ("mesh.validate",),
    "mesh.geometry_s": ("mesh.geometry",),
    "config.s": ("config",),
    "fem.self_s": ("fem",),
    "vem.self_s": ("vem",),
    "assembly.thermal_s": ("assembly.thermal",),
    "assembly.mechanical_s": ("assembly.mechanical",),
    "assembly.dirichlet_s": ("assembly.dirichlet",),
    "solver.thermal_s": ("solver.thermal",),
    "solver.mechanical_s": ("solver.mechanical",),
    "post.recover_stress_s": ("post.recover_stress",),
    "post.nodal_vm_s": ("post.nodal_vm",),
    "post.probe_s": ("post.probe",),
    "post.export_s": ("post.export",),
    "cli.self_s": ("cli",),
}

RATIO_METRICS = ("mesh.geometry_useful_ratio", "vem.projection_useful_ratio", "solver.share")


def _ratio(useful: int, attempts: int) -> float:
    """Useful outcomes per attempt; 1.0 when nothing was attempted (nothing wasted)."""
    return useful / attempts if attempts else 1.0


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict:
    """Per-layer seconds (self time), exact counts and ratios of one traced run."""
    names = tracer.span_names()
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    buckets = span_buckets(tracer)
    by_bucket: dict[str, float] = {}
    for b, t in zip(buckets, selfs):
        by_bucket[b] = by_bucket.get(b, 0.0) + t

    def calls(pred) -> int:
        return sum(1 for n in names if pred(n))

    def attr_sum(key, pred) -> int:
        return sum(a.get(key, 0) for i, a in tracer.attrs.items() if pred(i, a))

    def field_of_parent(i):
        return tracer.attrs.get(tracer.parent[i], {}).get("field")

    projections = ("vem.thermal_projection", "vem.elastic_projection")
    m: dict[str, float | int] = {
        "trace.spans": len(names),
        "mesh.geometry_calls": calls(lambda n: n == "mesh.polygon_geometry_from_coords"),
        "fem.calls": calls(lambda n: n.startswith("fem.")),
        "vem.calls": calls(lambda n: n.startswith("vem.")),
        "vem.projection_calls": calls(lambda n: n in projections),
        "assembly.nnz_thermal": attr_sum(
            "nnz", lambda i, a: names[i] == "assembly.assemble_thermal"),
        "assembly.nnz_mechanical": attr_sum(
            "nnz", lambda i, a: names[i] == "assembly.assemble_mechanical"),
        "solver.lu_fill_thermal": attr_sum(
            "fill", lambda i, a: field_of_parent(i) == "thermal"),
        "solver.lu_fill_mechanical": attr_sum(
            "fill", lambda i, a: field_of_parent(i) == "mechanical"),
        "solver.cg_iters": attr_sum(
            "iterations", lambda i, a: names[i] == "solver.solve_system"
            and a.get("iterations") is not None),
        "post.nodal_vm_calls": calls(lambda n: n == "post.nodal_von_mises"),
        "post.locate_calls": calls(lambda n: n == "post.FieldEvaluator.locate"),
    }
    for metric, keys in SECONDS_METRICS.items():
        m[metric] = sum(by_bucket.get(k, 0.0) for k in keys)
    solver_s = sum(t for b, t in by_bucket.items() if b == "solver" or b.startswith("solver."))
    m["solver.share"] = solver_s / traced_wall_s
    m["mesh.geometry_useful_ratio"] = _ratio(len(tracer.distinct.get("mesh.geometry", ())),
                                             m["mesh.geometry_calls"])
    m["vem.projection_useful_ratio"] = _ratio(len(tracer.distinct.get("vem.projection", ())),
                                              m["vem.projection_calls"])
    m["trace.wall_s"] = traced_wall_s
    m["other.self_s"] = traced_wall_s - sum(selfs)
    return m


# Stage rows named as in the ROADMAP baseline table; times are inclusive.
STAGES = (
    ("build_mesh", lambda n, a: n.startswith("mesh.generate_")),
    ("validate_mesh", lambda n, a: n == "mesh.validate_mesh"),
    ("parse_config + build_bcs", lambda n, a: n in ("config.parse_config", "config.build_bcs")),
    ("assemble_thermal", lambda n, a: n == "assembly.assemble_thermal"),
    ("solve thermal", lambda n, a: n == "solver.solve_system" and a.get("field") == "thermal"),
    ("assemble_mechanical", lambda n, a: n == "assembly.assemble_mechanical"),
    ("solve mechanical",
     lambda n, a: n == "solver.solve_system" and a.get("field") == "mechanical"),
    ("recover_stress", lambda n, a: n == "post.recover_stress"),
    ("nodal_von_mises", lambda n, a: n == "post.nodal_von_mises"),
    ("line_probe", lambda n, a: n == "post.line_probe"),
    ("export_fields", lambda n, a: n == "post.export_fields"),
    ("write_probe_csv", lambda n, a: n == "post.write_probe_csv"),
)


def stage_table(tracer: Tracer, traced_wall_s: float, cli_self_s: float,
                other_s: float) -> list[list]:
    """Rows [stage, calls, inclusive seconds]; nested calls of one stage count once."""
    calls = [0] * len(STAGES)
    seconds = [0.0] * len(STAGES)
    memo: dict[tuple, int | None] = {}
    enclosing: list[int] = []      # bit mask of the stages each span runs inside
    for i, name in enumerate(tracer.span_names()):
        p = tracer.parent[i]
        mask = enclosing[p] if p >= 0 else 0
        attrs = tracer.attrs.get(i, {})
        key = (name, attrs.get("field"))
        if key not in memo:
            memo[key] = next((k for k, (_, pred) in enumerate(STAGES) if pred(name, attrs)),
                             None)
        k = memo[key]
        if k is not None:
            if not mask & (1 << k):
                calls[k] += 1
                seconds[k] += tracer.end[i] - tracer.start[i]
            mask |= 1 << k
        enclosing.append(mask)
    return [[label, c, s] for (label, _), c, s in zip(STAGES, calls, seconds) if c] + [
        ["cli self (incl. provenance hash)", None, cli_self_s],
        ["outside any span", None, other_s],
        ["total (traced wall)", None, traced_wall_s],
    ]
