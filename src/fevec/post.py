"""Stress recovery, error norms, line probes and field export.

FE stress is the average of the four Gauss-point stresses; VE stress is the
constant stress of the projected displacement polynomial.  Nodal stress
plots average adjacent element values weighted by element area, optionally
restricted to one region (per-material-side values at bimaterial
interfaces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem, vem
from .errors import FevecError
from .materials import (MaterialProps, Plane, element_materials, gather_materials,
                        material_for)
from .mesh import ElementKind, Mesh, polygon_geometries
from .solver import SolutionFields

PROVENANCE_FE = "FE_GAUSS_AVG"
PROVENANCE_VE = "VE_PROJECTED"


@dataclass(frozen=True)
class ElementStress:
    element_id: int
    sigma: np.ndarray      # (3,) Voigt (xx, yy, xy), MPa
    von_mises: float
    provenance: str


def von_mises(sigma: np.ndarray, plane: Plane = Plane.STRESS, nu: float = 0.0) -> float:
    """Equivalent stress; plane strain includes sigma_zz = nu*(sxx + syy)."""
    sxx, syy, sxy = float(sigma[0]), float(sigma[1]), float(sigma[2])
    if plane == Plane.STRESS:
        return math.sqrt(max(sxx * sxx - sxx * syy + syy * syy + 3.0 * sxy * sxy, 0.0))
    szz = nu * (sxx + syy)
    val = 0.5 * ((sxx - syy) ** 2 + (syy - szz) ** 2 + (szz - sxx) ** 2) + 3.0 * sxy * sxy
    return math.sqrt(max(val, 0.0))


def von_mises_batch(sigma: np.ndarray, plane_strain: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """``von_mises`` of (m, 3) Voigt stresses with per-element plane flags and nu.

    Squares go through ``float_power`` (libm ``pow``, as ``** 2`` on a Python
    float), so each value equals the scalar function's.
    """
    sxx, syy, sxy = sigma[:, 0], sigma[:, 1], sigma[:, 2]
    stress = sxx * sxx - sxx * syy + syy * syy + 3.0 * sxy * sxy
    szz = nu * (sxx + syy)
    strain = 0.5 * (np.float_power(sxx - syy, 2) + np.float_power(syy - szz, 2)
                    + np.float_power(szz - sxx, 2)) + 3.0 * sxy * sxy
    return np.sqrt(np.maximum(np.where(plane_strain, strain, stress), 0.0))


def recover_stress(mesh: Mesh, materials: dict[int, MaterialProps],
                   solution: SolutionFields) -> list[ElementStress]:
    if solution.displacement is None:
        raise FevecError("stress recovery needs a solved displacement field")
    u = solution.displacement
    temps = solution.temperature

    def ve_stress(coords, props, geom, elem_id, vertices):
        te = None if temps is None else temps[vertices]
        projection = vem.elastic_projection(coords, props, geom, elem_id)
        sigma = vem.projected_stress(projection, props, u[vertices].ravel(), te)
        return sigma, von_mises(sigma, props.plane, props.nu)

    def element_stresses(is_fe, pos, verts):
        ids = mesh.element_ids[pos]
        if not is_fe:
            coords = mesh.coords[verts]
            props = element_materials(materials, mesh.element_regions[pos], ids)
            geoms = polygon_geometries(coords, ids)
            sigma, vm = zip(*map(ve_stress, coords, props, geoms, ids.tolist(), verts))
            return np.array(sigma), np.array(vm)
        mats = gather_materials(materials, mesh.element_regions[pos], ids)
        te = None if temps is None else temps[verts]
        q = fem.q4_batch_eval(mesh.coords[verts], ids)
        sigma = fem.stress_q4_batch(q, mats, u[verts].reshape(len(pos), -1), te)
        return sigma, von_mises_batch(sigma, mats.plane_strain, mats.nu)

    sigma = np.empty((mesh.n_elements, 3))
    vm = np.empty(mesh.n_elements)
    for pos, _, (block_sigma, block_vm) in mesh.map_element_blocks(element_stresses):
        sigma[pos] = block_sigma
        vm[pos] = block_vm
    return [ElementStress(e.id, sigma[k], float(vm[k]),
                          PROVENANCE_FE if fe else PROVENANCE_VE)
            for k, (e, fe) in enumerate(zip(mesh.elements, mesh.element_fe.tolist()))]


def nodal_von_mises(mesh: Mesh, stresses: list[ElementStress],
                    region: int | None = None,
                    element_ids: set[int] | None = None) -> np.ndarray:
    """Area-weighted nodal average of element von Mises values.

    With ``region`` set, only elements of that region contribute (the
    per-material-side value at interfaces); ``element_ids`` restricts to an
    explicit subset (per-side values at a coupling interface).  Nodes with
    no contributing element hold NaN.

    The sums are one sparse node x element product whose columns run in
    element-id order, so each node adds its elements' terms in that order.
    """
    keep = np.ones(mesh.n_elements, dtype=bool)
    if region is not None:
        keep &= mesh.element_regions == region
    if element_ids is not None:
        keep &= np.isin(mesh.element_ids, list(element_ids))
    rank = np.empty(mesh.n_elements, dtype=np.int64)
    rank[mesh.element_order] = np.arange(mesh.n_elements)
    rows, cols = [], []
    for pos, verts in mesh.vertex_groups.values():
        sel = keep[pos]
        rows.append(verts[sel].ravel())
        cols.append(np.repeat(rank[pos[sel]], verts.shape[1]))
    rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    areas = mesh.element_areas[mesh.element_order]
    incidence = sp.csr_matrix((areas[cols], (rows, cols)),
                              shape=(mesh.n_nodes, mesh.n_elements))
    vm = np.array([es.von_mises for es in stresses], dtype=float)[mesh.element_order]
    acc = incidence @ vm
    wsum = incidence @ np.ones(mesh.n_elements)
    with np.errstate(invalid="ignore"):
        return np.where(wsum > 0, acc / np.maximum(wsum, 1e-300), np.nan)


def rms_l2_error(numeric: np.ndarray, exact: np.ndarray) -> float:
    """Normalized RMS deviation: sqrt(mean |X - Xe|^2) / max |Xe|."""
    numeric = np.asarray(numeric, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if numeric.shape != exact.shape or numeric.size == 0:
        raise FevecError("sample sets must be non-empty and equal length")
    norm = float(np.abs(exact).max())
    if norm == 0.0:
        raise FevecError("exact field is identically zero; normalization undefined")
    return float(np.sqrt(np.mean((numeric - exact) ** 2))) / norm


def mean_relative_error(numeric: np.ndarray, reference: np.ndarray,
                        floor_rel: float = 1e-8,
                        with_count: bool = False):
    """Mean of |num - ref| / |ref| over usable samples.

    Samples with |ref| below ``floor_rel * max|ref|`` are excluded (and
    counted) to avoid division blowup; raises if nothing survives.
    """
    numeric = np.asarray(numeric, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if numeric.shape != reference.shape or numeric.size == 0:
        raise FevecError("sample sets must be non-empty and equal length")
    floor = floor_rel * float(np.abs(reference).max())
    usable = np.abs(reference) > floor
    excluded = int(numeric.size - usable.sum())
    if not usable.any():
        raise FevecError("all reference samples below the exclusion floor")
    value = float(np.mean(np.abs((numeric[usable] - reference[usable]) / reference[usable])))
    if with_count:
        return value, excluded
    return value


# ---------------------------------------------------------------------------
# Point location and field evaluation


class FieldEvaluator:
    """Point evaluation of solved fields over a mesh.

    Element lookup uses a bounding-box prefilter and deterministic
    tie-breaking (lowest element id) for points on shared edges; elements are
    named by their position in ``mesh.elements`` and ``stresses``.
    """

    def __init__(self, mesh: Mesh, materials: dict[int, MaterialProps],
                 solution: SolutionFields,
                 stresses: list[ElementStress] | None = None):
        self.mesh = mesh
        self.materials = materials
        self.solution = solution
        self.stresses = stresses
        lo = np.empty((mesh.n_elements, 2))
        hi = np.empty((mesh.n_elements, 2))
        for pos, verts in mesh.vertex_groups.values():
            c = mesh.coords[verts]
            lo[pos] = c.min(axis=1)
            hi[pos] = c.max(axis=1)
        pad = 1e-9 * max(float((hi - lo).max()), 1.0)
        # Bounding boxes in element-id order: row k is element_order[k].
        self._lo = lo[mesh.element_order] - pad
        self._hi = hi[mesh.element_order] + pad
        self._tol = pad

    def locate(self, x: float, y: float) -> int | None:
        """Position of the lowest-id element containing (x, y), or None."""
        p = np.array([x, y])
        ranks = np.flatnonzero((self._lo[:, 0] <= x) & (x <= self._hi[:, 0]) &
                               (self._lo[:, 1] <= y) & (y <= self._hi[:, 1]))
        for pos in self.mesh.element_order[ranks].tolist():
            coords = self.mesh.element_coords(self.mesh.elements[pos])
            if _point_in_polygon(p, coords, self._tol):
                return pos
        return None

    def evaluate(self, quantity: str, x: float, y: float) -> float:
        pos = self.locate(x, y)
        if pos is None:
            return math.nan
        return self.evaluate_in_element(quantity, pos, x, y)

    def evaluate_in_element(self, quantity: str, pos: int, x: float, y: float) -> float:
        elem = self.mesh.elements[pos]
        if quantity in ("von_mises", "sxx", "syy", "sxy"):
            if self.stresses is None:
                raise FevecError("stress quantities need recovered stresses")
            es = self.stresses[pos]
            if quantity == "von_mises":
                return es.von_mises
            return float(es.sigma[("sxx", "syy", "sxy").index(quantity)])
        if quantity == "temperature":
            field = self.solution.temperature
            if field is None:
                raise FevecError("no temperature field solved")
            values = field[list(elem.vertices)]
            return self._interpolate_scalar(elem, values, x, y)
        if quantity in ("ux", "uy"):
            if self.solution.displacement is None:
                raise FevecError("no displacement field solved")
            comp = 0 if quantity == "ux" else 1
            values = self.solution.displacement[list(elem.vertices), comp]
            return self._interpolate_scalar(elem, values, x, y)
        raise FevecError(f"unknown probe quantity '{quantity}'")

    def _interpolate_scalar(self, elem, values, x, y) -> float:
        coords = self.mesh.element_coords(elem)
        if elem.kind == ElementKind.FE_QUAD:
            xi, eta = _inverse_q4_map(coords, x, y)
            ev = fem.q4_shape_eval(coords, xi, eta, elem.id)
            return float(ev.N @ values)
        props = material_for(self.materials, elem.region, elem.id)
        projection = vem.thermal_projection(coords, props, elem_id=elem.id)
        c = projection.Pi_star @ values
        gx, gy = projection.geom.centroid
        h = projection.geom.h
        return float(c[0] + c[1] * (x - gx) / h + c[2] * (y - gy) / h)


def _point_in_polygon(p: np.ndarray, coords: np.ndarray, tol: float) -> bool:
    """Inclusive point-in-simple-polygon test (handles non-convex shapes)."""
    n = coords.shape[0]
    for i in range(n):
        a = coords[i]
        b = coords[(i + 1) % n]
        e = b - a
        len2 = float(e @ e)
        cross = e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0])
        if cross * cross <= tol * tol * max(len2, 1e-300):
            t = float((p - a) @ e) / max(len2, 1e-300)
            if -1e-9 <= t <= 1.0 + 1e-9:
                return True     # on this edge
    inside = False
    for i in range(n):          # even-odd ray cast toward +x
        a = coords[i]
        b = coords[(i + 1) % n]
        if (a[1] > p[1]) != (b[1] > p[1]):
            x_int = a[0] + (p[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if x_int > p[0]:
                inside = not inside
    return inside


def _inverse_q4_map(coords: np.ndarray, x: float, y: float,
                    max_iter: int = 20) -> tuple[float, float]:
    xi = eta = 0.0
    target = np.array([x, y])
    for _ in range(max_iter):
        ev = fem.q4_shape_eval(coords, xi, eta)
        res = ev.N @ coords - target
        if float(np.abs(res).max()) < 1e-13 * max(1.0, float(np.abs(target).max())):
            break
        # ev.J rows are d(x,y)/d(xi,eta): solve J^T * delta = res
        delta = np.linalg.solve(ev.J.T, res)
        xi -= float(delta[0])
        eta -= float(delta[1])
    return xi, eta


# ---------------------------------------------------------------------------
# Line probes


@dataclass
class LineProbe:
    name: str
    quantity: str
    p0: tuple[float, float]
    p1: tuple[float, float]
    s: np.ndarray         # (m,) arc-length parameters in [0, 1]
    points: np.ndarray    # (m, 2)
    values: np.ndarray    # (m,) NaN outside the mesh
    inside: np.ndarray    # (m,) bool


def line_probe(mesh: Mesh, materials: dict[int, MaterialProps],
               solution: SolutionFields, stresses: list[ElementStress] | None,
               p0: tuple[float, float], p1: tuple[float, float],
               quantity: str, n_samples: int, name: str = "probe") -> LineProbe:
    """Sample a quantity along a segment.

    Uniform parameter samples are augmented with element-boundary crossings,
    each sampled just before and just after the crossing so interface
    discontinuities in stress stay visible.
    """
    evaluator = FieldEvaluator(mesh, materials, solution, stresses)
    a = np.asarray(p0, dtype=float)
    b = np.asarray(p1, dtype=float)
    params = set(np.linspace(0.0, 1.0, max(n_samples, 2)).tolist())
    eps = 1e-9
    for s in _edge_crossings(mesh, a, b):
        for cand in (s - eps, s, s + eps):
            if 0.0 <= cand <= 1.0:
                params.add(cand)
    svals = np.array(sorted(params))
    points = a[None, :] + svals[:, None] * (b - a)[None, :]
    values = np.array([evaluator.evaluate(quantity, float(p[0]), float(p[1]))
                       for p in points])
    inside = np.isfinite(values)
    if not inside.any():
        raise FevecError("probe line lies entirely outside the mesh")
    return LineProbe(name=name, quantity=quantity, p0=tuple(a), p1=tuple(b),
                     s=svals, points=points, values=values, inside=inside)


def _edge_crossings(mesh: Mesh, a: np.ndarray, b: np.ndarray) -> list[float]:
    d = b - a
    len2 = float(d @ d)
    if len2 == 0.0:
        return []
    out: set[float] = set()
    for (i, j) in mesh._edge_elems:
        p = mesh.coords[i]
        q = mesh.coords[j]
        e = q - p
        denom = d[0] * e[1] - d[1] * e[0]
        if abs(denom) < 1e-14 * math.sqrt(len2) * max(math.hypot(*e), 1e-300):
            continue
        w = p - a
        s = (w[0] * e[1] - w[1] * e[0]) / denom
        t = (w[0] * d[1] - w[1] * d[0]) / denom
        if -1e-12 <= s <= 1.0 + 1e-12 and -1e-9 <= t <= 1.0 + 1e-9:
            out.add(min(max(round(s, 12), 0.0), 1.0))
    return sorted(out)


def write_probe_csv(probe: LineProbe, path: str) -> None:
    lines = ["s,x,y,value"]
    for s, (x, y), v in zip(probe.s, probe.points, probe.values):
        sval = "" if not np.isfinite(v) else f"{v:.17g}"
        lines.append(f"{s:.17g},{x:.17g},{y:.17g},{sval}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Field export (legacy ASCII unstructured grid)


def export_fields(mesh: Mesh, solution: SolutionFields,
                  stresses: list[ElementStress] | None, path: str) -> None:
    """Write a legacy ASCII unstructured-grid file (version 3.0 header).

    Points carry temperature (scalar) and displacement (vector); cells carry
    von Mises (scalar) and the full stress tensor.
    """
    n = mesh.n_nodes
    temps = solution.temperature if solution.temperature is not None else np.zeros(n)
    disp = solution.displacement if solution.displacement is not None else np.zeros((n, 2))

    lines = ["# vtk DataFile Version 3.0",
             "fevec fields",
             "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {n} double"]
    for x, y in mesh.coords:
        lines.append(f"{x:.17g} {y:.17g} 0")
    size = sum(len(e.vertices) + 1 for e in mesh.elements)
    lines.append(f"CELLS {mesh.n_elements} {size}")
    for e in mesh.elements:
        lines.append(f"{len(e.vertices)} " + " ".join(str(v) for v in e.vertices))
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines.extend("7" for _ in mesh.elements)

    lines.append(f"POINT_DATA {n}")
    lines.append("SCALARS temperature double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(f"{t:.17g}" for t in temps)
    lines.append("VECTORS displacement double")
    lines.extend(f"{ux:.17g} {uy:.17g} 0" for ux, uy in disp)

    if stresses is not None:
        lines.append(f"CELL_DATA {mesh.n_elements}")
        lines.append("SCALARS von_mises double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{es.von_mises:.17g}" for es in stresses)
        lines.append("TENSORS stress double")
        for es in stresses:
            sxx, syy, sxy = es.sigma
            lines.append(f"{sxx:.17g} {sxy:.17g} 0")
            lines.append(f"{sxy:.17g} {syy:.17g} 0")
            lines.append("0 0 0")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
