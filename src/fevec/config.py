"""Run configuration: line-oriented sections, same lexical rules as meshes.

Sections: ``[mesh]``, ``[material <region>]``, ``[bc <label>]``, ``[solver]``,
``[probe <name>]``, ``[output]``; only ``[bc <label>]`` may repeat, and
``[mesh]`` takes either ``path`` or ``generator``.  One ``key value`` pair
per line (``[bc]``: ``kind value...``), whitespace separated, ``#`` comments.  Example::

    [mesh]
    generator quarter_annulus
    r_a 20
    r_b 60
    n_r 30
    n_t 60
    split_radius 40

    [material 0]
    E_MPa 460000
    nu 0.3
    k_W_per_mK 20
    alpha_per_C 7.4e-6
    T0_C 0
    plane stress

    [bc inner]
    dirichlet_T 0

    [bc theta0]
    dirichlet_u free 0

    [solver]
    method direct

    [probe radial]
    quantity temperature
    x0 20  # one key per line; this comment is stripped
    ...

    [output]
    dir out/cylinder
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .assembly import BoundaryConditionSet, _bc_value
from .errors import AssemblyError, FevecError, ParseError, SolverError
from .materials import MaterialProps, Plane
from .mesh import (Mesh, generate_fcbga, generate_igbt, generate_plate_with_hole,
                   generate_quarter_annulus, generate_sandwich,
                   generate_split_square, generate_structured_quads, load_mesh, _number_token,
                   require_valid, ElementKind)
from .post import check_probe
from .solver import SolveOptions

# name -> (callable, ordered (param, converter) pairs); optional params carry defaults
GENERATORS = {
    "structured_quads": (generate_structured_quads,
                         [("width", float), ("height", float), ("nx", int), ("ny", int),
                          ("kind", ElementKind, ElementKind.FE_QUAD)]),
    "split_square": (generate_split_square,
                     [("width", float), ("height", float), ("nx", int), ("ny", int),
                      ("split_x", float, None)]),
    "quarter_annulus": (generate_quarter_annulus,
                        [("r_a", float), ("r_b", float), ("n_r", int), ("n_t", int),
                         ("split_radius", float)]),
    "plate_with_hole": (generate_plate_with_hole,
                        [("hole_radius", float), ("size", float), ("n_t", int),
                         ("n_r_ring", int), ("n_r_outer", int), ("split_radius", float),
                         ("ring_kind", ElementKind, ElementKind.VE_POLY),
                         ("outer_kind", ElementKind, ElementKind.FE_QUAD),
                         ("split_ring", lambda raw: bool(int(raw)), False)]),
    "sandwich": (generate_sandwich, [("level", int)]),
    "fcbga": (generate_fcbga, [("level", int)]),
    "igbt": (generate_igbt, [("level", int)]),
}


@dataclass(frozen=True)
class BcSpec:
    kind: str                   # dirichlet_T | flux | dirichlet_u | traction
    values: tuple               # 1 value, or 2 (x, y); only dirichlet_u takes None (free)

    def __post_init__(self):
        n = {"dirichlet_T": 1, "flux": 1, "dirichlet_u": 2, "traction": 2}.get(self.kind)
        if n is None:
            raise AssemblyError(f"unknown bc kind '{self.kind}'")
        if len(self.values) != n:
            raise AssemblyError(f"{self.kind} takes {n} value(s), got {len(self.values)}")
        for v in self.values:
            _bc_value(v, self.kind, free=self.kind == "dirichlet_u")


@dataclass
class ProbeSpec:
    name: str
    quantity: str
    p0: tuple[float, float]
    p1: tuple[float, float]
    n_samples: int = 50


# Keys each section accepts ([mesh] and [bc] are checked where they are read).
MATERIAL_KEYS = ("E_MPa", "nu", "k_W_per_mK", "alpha_per_C", "T0_C", "plane")
SOLVER_KEYS = dict(method=str, cg_rel_tol=float, cg_max_iter=int, tau=float, fields=str)
PROBE_KEYS = ("quantity", "x0", "y0", "x1", "y1", "n_samples")
# Keys whose values are numbers, each a _number_token.
NUMBER_KEYS = ({key for key in MATERIAL_KEYS if key != "plane"}
               | {key for key, kind in SOLVER_KEYS.items() if kind is not str}
               | {key for key in PROBE_KEYS if key != "quantity"}
               | {name for _, params in GENERATORS.values()
                  for name, kind, *_ in params if kind is not ElementKind})


@dataclass
class RunConfig:
    mesh_path: str | None = None
    generator: str | None = None
    generator_params: dict[str, str] = field(default_factory=dict)
    materials: dict[int, MaterialProps] = field(default_factory=dict)
    bcs: list[tuple[str, BcSpec]] = field(default_factory=list)
    solver: SolveOptions = field(default_factory=SolveOptions)
    probes: list[ProbeSpec] = field(default_factory=list)
    output_dir: str = "out"
    source_text: str = ""


def _sections(text: str, path: str) -> list[tuple[str, int, list[tuple[int, list[str]]]]]:
    """Each section's header, header line number and (line number, tokens) records."""
    out: list[tuple[str, int, list[tuple[int, list[str]]]]] = []
    current: list[tuple[int, list[str]]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", path, lineno)
            out.append((line[1:-1].strip(), lineno, []))
            current = out[-1][2]
        else:
            if current is None:
                raise ParseError(f"data before any section: '{line}'", path, lineno)
            current.append((lineno, line.split()))
    return out


def _kv(records, path, known=None, numbers=()) -> dict[str, str]:
    """Key -> value of a section, one each; with ``known`` set, other keys are rejected.
    The value of a key in ``numbers`` must be a ``_number_token``."""
    out = {}
    for lineno, tok in records:
        if len(tok) != 2:
            raise ParseError(f"expected 'key value', got '{' '.join(tok)}'", path, lineno)
        if known is not None and tok[0] not in known:
            raise ParseError(f"unknown key '{tok[0]}' (known: {', '.join(known)})",
                             path, lineno)
        if tok[0] in out:
            raise ParseError(f"duplicate key '{tok[0]}'", path, lineno)
        if tok[0] in numbers:
            _number(tok[1], path, lineno)
        out[tok[0]] = tok[1]
    return out


def _number(token: str, path, lineno) -> str:
    """``_number_token(token)``, its ValueError a ParseError naming the line."""
    try:
        return _number_token(token)
    except ValueError as exc:
        raise ParseError(str(exc), path, lineno) from None


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    """Parse a run config; a section other than ``[bc <label>]`` may not repeat its name."""
    cfg = RunConfig(source_text=text)
    seen: set[tuple] = set()

    def once(*key) -> None:
        if key in seen:
            raise ParseError(f"section '[{header}]' appears more than once", path, lineno)
        seen.add(key)

    for header, lineno, records in _sections(text, path):
        parts = header.split() or [""]
        name = parts[0]
        if name in ("mesh", "solver", "output") and len(parts) != 1:
            raise ParseError(f"section [{name}] takes no argument, got '[{header}]'", path, lineno)
        if name == "mesh":
            once(name)
            kv = _kv(records, path, numbers=NUMBER_KEYS)
            if "path" in kv and "generator" in kv:
                raise ParseError("[mesh] takes either 'path' or 'generator', not both", path)
            if "path" in kv:
                cfg.mesh_path = kv.pop("path")
            if "generator" in kv:
                cfg.generator = kv.pop("generator")
                cfg.generator_params = kv
            elif kv:
                raise ParseError(f"unknown mesh keys {sorted(kv)} without a generator", path)
            if cfg.mesh_path is None and cfg.generator is None:
                raise ParseError("[mesh] needs either 'path' or 'generator'", path)
        elif name == "material":
            if len(parts) != 2:
                raise ParseError("material section needs a region id: [material <region>]",
                                 path, lineno)
            try:
                region = int(_number(parts[1], path, lineno))
            except ValueError:
                raise ParseError(f"region id must be an integer, got '{parts[1]}'", path, lineno)
            once(name, region)
            kv = _kv(records, path, MATERIAL_KEYS, NUMBER_KEYS)
            cfg.materials[region] = _parse_material(kv, path)
        elif name == "bc":
            if len(parts) != 2:
                raise ParseError("bc section needs a label: [bc <label>]", path, lineno)
            cfg.bcs.append((parts[1], _parse_bc(records, path)))
        elif name == "solver":
            once(name)
            cfg.solver = _parse_solver(_kv(records, path, SOLVER_KEYS, NUMBER_KEYS), path)
        elif name == "probe":
            if len(parts) != 2:
                raise ParseError("probe section needs a name: [probe <name>]", path, lineno)
            once(name, parts[1])
            kv = _kv(records, path, PROBE_KEYS, NUMBER_KEYS)
            cfg.probes.append(_parse_probe(parts[1], kv, path))
        elif name == "output":
            once(name)
            cfg.output_dir = _kv(records, path, ("dir",)).get("dir", cfg.output_dir)
        else:
            raise ParseError(f"unknown section '[{header}]'", path, lineno)
    if ("mesh",) not in seen:
        raise ParseError("config has no [mesh] section", path)
    if cfg.solver.fields == "thermal":
        for probe in cfg.probes:
            if probe.quantity != "temperature":
                raise ParseError(f"probe '{probe.name}': quantity '{probe.quantity}' needs "
                                 "the mechanical solve, but [solver] fields is thermal", path)
    return cfg


def _parse_material(kv, path) -> MaterialProps:
    """A ``[material]`` block; only the conductivity changes unit, W/(m*K) to W/(mm*K)."""
    try:
        plane = Plane(kv.get("plane", "stress"))
        return MaterialProps(E=float(kv["E_MPa"]), nu=float(kv["nu"]),
                             conductivity=float(kv["k_W_per_mK"]) / 1000.0,
                             alpha=float(kv["alpha_per_C"]),
                             T0=float(kv.get("T0_C", "25")), plane=plane)
    except KeyError as exc:
        raise ParseError(f"material block missing key {exc}", path) from exc
    except (ValueError, AssemblyError) as exc:
        raise ParseError(f"bad material value: {exc}", path) from exc


def _parse_bc(records, path) -> BcSpec:
    if len(records) != 1:
        raise ParseError("each [bc] section defines exactly one condition", path)
    lineno, (kind, *tok) = records[0]
    try:
        return BcSpec(kind, tuple(None if t == "free" and kind == "dirichlet_u"
                                  else float(_number(t, path, lineno)) for t in tok))
    except (ValueError, AssemblyError) as exc:
        raise ParseError(f"bad bc record: {exc}", path, lineno) from exc


def _parse_solver(kv, path) -> SolveOptions:
    try:
        return SolveOptions(**{key: SOLVER_KEYS[key](value) for key, value in kv.items()})
    except (ValueError, SolverError) as exc:
        raise ParseError(f"bad solver value: {exc}", path) from None


def _parse_probe(name, kv, path) -> ProbeSpec:
    try:
        spec = ProbeSpec(
            name=name,
            quantity=kv["quantity"],
            p0=(float(kv["x0"]), float(kv["y0"])),
            p1=(float(kv["x1"]), float(kv["y1"])),
            n_samples=int(kv.get("n_samples", "50")))
        check_probe(spec.p0, spec.p1, spec.quantity, spec.n_samples)
    except KeyError as exc:
        raise ParseError(f"probe '{name}' missing key {exc}", path) from exc
    except (ValueError, FevecError) as exc:
        raise ParseError(f"bad value in probe '{name}': {exc}", path) from exc
    return spec


def build_mesh(cfg: RunConfig, base_dir: str = ".") -> Mesh:
    if cfg.mesh_path is not None:
        return load_mesh(os.path.join(base_dir, cfg.mesh_path))   # an absolute path stays
    if cfg.generator not in GENERATORS:
        raise ParseError(f"unknown generator '{cfg.generator}' "
                         f"(known: {sorted(GENERATORS)})")
    fn, params = GENERATORS[cfg.generator]
    kwargs = {}
    given = dict(cfg.generator_params)
    for pname, ptype, *default in params:
        if pname in given:
            raw = given.pop(pname)
            try:
                kwargs[pname] = ptype(raw)
            except ValueError:
                raise ParseError(f"generator parameter {pname}: bad value '{raw}'") from None
        elif not default:
            raise ParseError(f"generator '{cfg.generator}' missing parameter '{pname}'")
    if given:
        raise ParseError(f"generator '{cfg.generator}': unknown parameters {sorted(given)}")
    return fn(**kwargs)


def resolve_bcs(mesh: Mesh, specs: Iterable[tuple[str, BcSpec]]) -> BoundaryConditionSet:
    """Resolve ``(label, BcSpec)`` pairs against the mesh, in the given order."""
    labels = mesh.labels()
    bcs = BoundaryConditionSet()
    for label, spec in specs:
        if label not in labels:
            raise AssemblyError(f"bc label '{label}' not present in the mesh "
                                f"(known labels: {sorted(labels)})")
        if spec.kind in ("dirichlet_T", "dirichlet_u"):
            prescribe = bcs.set_temperature if spec.kind == "dirichlet_T" else bcs.set_displacement
            for n in mesh.nodes_with_label(label):
                prescribe(n, *spec.values)
        else:   # flux or traction: true boundary edges only
            edges = mesh.edges_with_label(label)
            off = mesh.off_boundary(edges)
            if off.any():
                a, b = edges[int(np.argmax(off))]
                raise AssemblyError(f"{spec.kind} label '{label}' sits on interior edge ({a},{b})")
            add, value = ((bcs.add_flux, spec.values[0]) if spec.kind == "flux"
                          else (bcs.add_traction, spec.values))
            for a, b in edges:
                add(a, b, value)
    return bcs


def build_bcs(cfg: RunConfig, mesh: Mesh) -> BoundaryConditionSet:
    """Resolve the config's BC specs, then check the mesh and materials with ``require_valid``."""
    bcs = resolve_bcs(mesh, cfg.bcs)
    require_valid(mesh, cfg.materials)
    return bcs
