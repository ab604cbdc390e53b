"""Per-point probe evaluation and line-by-line writers kept as oracles.

These are the bodies that ``fevec.post`` (``FieldEvaluator.locate_many`` and
``evaluate_at``, the block-formatted ``export_fields`` and
``write_probe_csv``) and ``fevec.mesh.mesh_text`` replaced.  Tests compare the
library against them exactly: the same element per point, the same value
bit for bit and the same bytes on disk.
"""

from __future__ import annotations

import math

import numpy as np

from fevec import vem
from fevec.errors import FevecError
from fevec.materials import gather_materials
from fevec.mesh import FORMAT_HEADER, ElementKind
from kernel_oracles import element_coords, q4_shape_eval


class PointEvaluator:
    """One point at a time: bounding-box scan over all elements, then per-element tests."""

    def __init__(self, mesh, materials, solution, stresses=None):
        self.mesh = mesh
        self.materials = materials
        self.solution = solution
        self.stresses = stresses
        lo = np.array([element_coords(mesh, e).min(axis=0) for e in mesh.elements])
        hi = np.array([element_coords(mesh, e).max(axis=0) for e in mesh.elements])
        pad = 1e-9 * max(float((hi - lo).max()), 1.0)
        self._lo = lo - pad
        self._hi = hi + pad
        self._tol = pad

    def locate(self, x: float, y: float) -> int | None:
        p = np.array([x, y])
        candidates = np.flatnonzero((self._lo[:, 0] <= x) & (x <= self._hi[:, 0]) &
                                    (self._lo[:, 1] <= y) & (y <= self._hi[:, 1]))
        for pos in candidates.tolist():
            coords = element_coords(self.mesh, self.mesh.elements[pos])
            if point_in_polygon(p, coords, self._tol):
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
            return self._interpolate_scalar(elem, field[list(elem.vertices)], x, y)
        if quantity in ("ux", "uy"):
            if self.solution.displacement is None:
                raise FevecError("no displacement field solved")
            comp = 0 if quantity == "ux" else 1
            values = self.solution.displacement[list(elem.vertices), comp]
            return self._interpolate_scalar(elem, values, x, y)
        raise FevecError(f"unknown probe quantity '{quantity}'")

    def _interpolate_scalar(self, elem, values, x, y) -> float:
        coords = element_coords(self.mesh, elem)
        if elem.kind == ElementKind.FE_QUAD:
            xi, eta = inverse_q4_map(coords, x, y)
            ev = q4_shape_eval(coords, xi, eta)
            return float(ev.N @ values)
        mats = gather_materials(self.materials, np.array([elem.region]))
        projection = vem.thermal_projection(coords[None], mats)
        c = projection.Pi_star[0] @ values
        gx, gy = projection.geom.centroid[0]
        h = projection.geom.h[0]
        return float(c[0] + c[1] * (x - gx) / h + c[2] * (y - gy) / h)


def point_in_polygon(p: np.ndarray, coords: np.ndarray, tol: float) -> bool:
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


def inverse_q4_map(coords: np.ndarray, x: float, y: float,
                   max_iter: int = 20) -> tuple[float, float]:
    xi = eta = 0.0
    target = np.array([x, y])
    for _ in range(max_iter):
        ev = q4_shape_eval(coords, xi, eta)
        res = ev.N @ coords - target
        if float(np.abs(res).max()) < 1e-13 * max(1.0, float(np.abs(target).max())):
            break
        delta = np.linalg.solve(ev.J.T, res)
        xi -= float(delta[0])
        eta -= float(delta[1])
    return xi, eta


def probe_csv_text(probe) -> str:
    lines = ["s,x,y,value"]
    for s, (x, y), v in zip(probe.s, probe.points, probe.values):
        sval = "" if not np.isfinite(v) else f"{v:.17g}"
        lines.append(f"{s:.17g},{x:.17g},{y:.17g},{sval}")
    return "\n".join(lines) + "\n"


def fields_vtk_text(mesh, solution, stresses) -> str:
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
    return "\n".join(lines) + "\n"


def mesh_text(mesh) -> str:
    lines = [FORMAT_HEADER]
    for i, (x, y) in enumerate(mesh.coords.tolist()):
        lines.append(f"node {i} {x!r} {y!r}")
    for pos, e in enumerate(mesh.elements):
        verts = " ".join(str(v) for v in e.vertices)
        lines.append(f"elem {pos} {e.kind.value} {e.region} {len(e.vertices)} {verts}")
    for (a, b) in sorted(mesh.boundary_edges):
        lines.append(f"bedge {mesh.boundary_edges[(a, b)]} {a} {b}")
    return "\n".join(lines) + "\n"


def interface_continuity(mesh, materials, fields) -> float:
    """``bench.interface_continuity`` as the per-node loop over the element list."""
    if not mesh.interface_nodes:
        return 0.0
    evaluator = PointEvaluator(mesh, materials, fields)
    by_node: dict[int, dict[ElementKind, int]] = {}
    for pos, e in enumerate(mesh.elements):
        for v in e.vertices:
            if v in mesh.interface_nodes:
                by_node.setdefault(v, {})[e.kind] = pos

    quantities = []
    if fields.temperature is not None:
        span = float(fields.temperature.max() - fields.temperature.min()) or 1.0
        quantities.append(("temperature", span))
    if fields.displacement is not None:
        span = float(np.abs(fields.displacement).max()) or 1.0
        quantities.extend((q, span) for q in ("ux", "uy"))

    worst = 0.0
    for node, sides in by_node.items():
        if len(sides) < 2:
            continue
        x, y = mesh.coords[node]
        for quantity, span in quantities:
            vals = [evaluator.evaluate_in_element(quantity, eid, x, y)
                    for eid in sides.values()]
            worst = max(worst, abs(vals[0] - vals[1]) / span)
    return worst
