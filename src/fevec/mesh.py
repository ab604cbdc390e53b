"""Mesh data model, geometry helpers, validation, generators and file I/O.

A mesh is a flat list of nodes plus mixed quadrilateral/polygon elements.
Each element carries a discretization tag: ``FE_QUAD`` elements are handled
by the four-node quadrilateral kernel, ``VE_POLY`` elements by the polygonal
kernel.  Elements of the two kinds may only meet along edges whose end nodes
are shared (coincident interface nodes); the set of such nodes is computed
once and stored on the mesh.

All lengths are millimetres.  Vertex order is counter-clockwise everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .errors import FevecError, MeshError, ParseError


class ElementKind(Enum):
    FE_QUAD = "FE"
    VE_POLY = "VE"


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Element:
    id: int
    vertices: tuple[int, ...]
    kind: ElementKind
    region: int


@dataclass(frozen=True)
class PolygonGeometry:
    """Derived geometry of one polygonal element.

    ``h`` is the characteristic size (maximum pairwise vertex distance);
    ``edge_normals[i]`` is the outward unit normal of the edge from vertex i
    to vertex i+1 (cyclic).
    """

    centroid: tuple[float, float]
    area: float
    h: float
    edge_normals: np.ndarray  # (n_v, 2)
    edge_lengths: np.ndarray  # (n_v,)


def shoelace_area(coords: np.ndarray) -> float:
    """Signed polygon area; positive for counter-clockwise vertex order."""
    x = coords[:, 0]
    y = coords[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching last-axis rows.

    Each row goes through the same BLAS dot as ``np.dot`` on one vector pair,
    so a batch reproduces the per-element sums bit for bit.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def shoelace_areas(coords: np.ndarray) -> np.ndarray:
    """Signed areas of a stack of polygons (m, n_v, 2), as ``shoelace_area`` per row."""
    x = coords[..., 0]
    y = coords[..., 1]
    return 0.5 * (rowdot(x, np.roll(y, -1, axis=-1)) - rowdot(y, np.roll(x, -1, axis=-1)))


def polygon_geometry(element: Element, nodes: Sequence[Node] | np.ndarray) -> PolygonGeometry:
    """Centroid, area, characteristic size and edge data for one element.

    Raises MeshError (naming the element) for degenerate polygons: zero-length
    edges or non-positive area.
    """
    if isinstance(nodes, np.ndarray):
        coords = nodes[list(element.vertices)]
    else:
        coords = np.array([[nodes[v].x, nodes[v].y] for v in element.vertices], dtype=float)
    return polygon_geometry_from_coords(coords, elem_id=element.id)


def polygon_geometry_from_coords(coords: np.ndarray, elem_id: int | None = None) -> PolygonGeometry:
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    tag = f"element {elem_id}" if elem_id is not None else "polygon"
    if n < 3:
        raise MeshError(f"{tag}: needs at least 3 vertices, got {n}")

    deltas = np.roll(coords, -1, axis=0) - coords
    lengths = np.hypot(deltas[:, 0], deltas[:, 1])
    scale = max(lengths.max(), 1.0)
    if np.any(lengths <= 1e-14 * scale):
        raise MeshError(f"{tag}: zero-length edge (repeated or collinear-coincident vertices)")

    area = shoelace_area(coords)
    if area <= 0.0:
        raise MeshError(f"{tag}: non-positive area {area:g} (clockwise or degenerate)")

    x = coords[:, 0]
    y = coords[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    cx = float(np.dot(x + np.roll(x, -1), cross)) / (6.0 * area)
    cy = float(np.dot(y + np.roll(y, -1), cross)) / (6.0 * area)

    diffs = coords[:, None, :] - coords[None, :, :]
    h = float(np.sqrt((diffs ** 2).sum(axis=2).max()))

    # Outward normal of a CCW edge is the tangent rotated -90 degrees.
    normals = np.column_stack((deltas[:, 1], -deltas[:, 0])) / lengths[:, None]

    return PolygonGeometry(centroid=(cx, cy), area=float(area), h=h,
                           edge_normals=normals, edge_lengths=lengths)


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class Mesh:
    """Immutable-after-construction mesh with precomputed adjacency.

    ``boundary_edges`` maps a node pair (sorted tuple) to a label string.
    Labels name edge sets for boundary conditions; labels on interior edges
    are allowed (used for embedded Dirichlet surfaces) but flux/traction may
    only be applied to true boundary edges.
    """

    def __init__(self, nodes: Sequence[Node], elements: Sequence[Element],
                 boundary_edges: dict[tuple[int, int], str] | None = None):
        self.nodes: list[Node] = list(nodes)
        self.elements: list[Element] = list(elements)
        self.boundary_edges: dict[tuple[int, int], str] = {
            _edge_key(*k): v for k, v in (boundary_edges or {}).items()
        }
        self.coords: np.ndarray = np.array([[n.x, n.y] for n in self.nodes], dtype=float).reshape(-1, 2)
        self._edge_elems: dict[tuple[int, int], list[int]] = {}
        for e in self.elements:
            for a, b in self.element_edges(e):
                self._edge_elems.setdefault(_edge_key(a, b), []).append(e.id)
        self.interface_nodes: set[int] = find_interface_nodes(self)

        # Array views of the element list; index = position in ``elements``.
        self.element_ids = np.array([e.id for e in self.elements], dtype=np.int64)
        self.element_fe = np.array([e.kind == ElementKind.FE_QUAD for e in self.elements],
                                   dtype=bool)
        self.element_regions = np.array([e.region for e in self.elements], dtype=np.int64)
        self.element_order = np.argsort(self.element_ids, kind="stable")
        # n_v -> (positions in element-id order, (m, n_v) vertex ids)
        self.vertex_groups: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        n_v = np.array([len(e.vertices) for e in self.elements], dtype=np.int64)
        for count in np.unique(n_v).tolist():
            pos = self.element_order[n_v[self.element_order] == count]
            verts = np.array([self.elements[p].vertices for p in pos.tolist()], dtype=np.int64)
            self.vertex_groups[count] = (pos, verts.reshape(pos.size, count))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def element_coords(self, element: Element) -> np.ndarray:
        return self.coords[list(element.vertices)]

    @staticmethod
    def element_edges(element: Element) -> list[tuple[int, int]]:
        v = element.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def edge_elements(self, a: int, b: int) -> list[int]:
        return self._edge_elems.get(_edge_key(a, b), [])

    def edges_with_label(self, label: str) -> list[tuple[int, int]]:
        return sorted(k for k, lab in self.boundary_edges.items() if lab == label)

    def nodes_with_label(self, label: str) -> list[int]:
        ids: set[int] = set()
        for a, b in self.edges_with_label(label):
            ids.add(a)
            ids.add(b)
        return sorted(ids)

    def labels(self) -> set[str]:
        return set(self.boundary_edges.values())

    def regions(self) -> set[int]:
        return {e.region for e in self.elements}

    def element_blocks(self) -> list[tuple[bool, np.ndarray, np.ndarray]]:
        """(is_fe, positions, (m, n_v) vertices) per group of one kind and vertex count.

        Positions index ``elements`` and run in element-id order within a block.
        """
        blocks = []
        for count in sorted(self.vertex_groups):
            pos, verts = self.vertex_groups[count]
            fe = self.element_fe[pos]
            for flag in (True, False):
                if (fe == flag).any():
                    blocks.append((flag, pos[fe == flag], verts[fe == flag]))
        return blocks

    def map_element_blocks(self, kernel: Callable[[bool, np.ndarray, np.ndarray], Any]
                           ) -> list[tuple[np.ndarray, np.ndarray, Any]]:
        """Apply ``kernel(is_fe, positions, vertices)`` to every element block.

        Returns ``(positions, vertices, result)`` per block.  When kernels
        raise errors that name an element (MeshError, a missing material's
        AssemblyError), the one of the lowest element id is raised, as an
        element-by-element loop in id order would raise it.
        """
        out, failures = [], []
        for is_fe, pos, verts in self.element_blocks():
            try:
                out.append((pos, verts, kernel(is_fe, pos, verts)))
            except FevecError as exc:
                if exc.element_id is None:
                    raise
                failures.append(self._earliest_failure(kernel, is_fe, pos, verts, exc))
        if failures:
            raise min(failures, key=lambda exc: exc.element_id)
        return out

    def _earliest_failure(self, kernel, is_fe: bool, pos: np.ndarray, verts: np.ndarray,
                          exc: FevecError) -> FevecError:
        """The failure of the lowest element id in one block.

        A block kernel runs its checks in stages over all rows (material
        lookup, then the Jacobians), so a row flagged by an early stage can
        hide an earlier row that fails only a later stage; the rows before it
        are rerun.
        """
        while True:
            row = int(np.searchsorted(self.element_ids[pos], exc.element_id))
            if row == 0:
                return exc
            try:
                kernel(is_fe, pos[:row], verts[:row])
                return exc
            except FevecError as earlier:
                if earlier.element_id is None:
                    raise
                exc = earlier

    def per_element(self, pos: np.ndarray, fn: Callable[[Element], Any]) -> list:
        """``fn(element)`` for the elements at positions ``pos``, in that order.

        A FevecError that names no element is given the id of the element
        it came from.
        """
        out = []
        for p in pos.tolist():
            elem = self.elements[p]
            try:
                out.append(fn(elem))
            except FevecError as exc:
                if exc.element_id is None:
                    exc.element_id = elem.id
                raise
        return out

    @cached_property
    def element_areas(self) -> np.ndarray:
        """Signed shoelace area of every element, by position in ``elements``."""
        areas = np.empty(self.n_elements)
        for pos, verts in self.vertex_groups.values():
            areas[pos] = shoelace_areas(self.coords[verts])
        return areas


def find_interface_nodes(mesh: Mesh) -> set[int]:
    """Nodes on edges shared by exactly one FE and one VE element."""
    kind_of = {e.id: e.kind for e in mesh.elements}
    out: set[int] = set()
    for (a, b), elems in mesh._edge_elems.items():
        if len(elems) == 2:
            k0, k1 = kind_of[elems[0]], kind_of[elems[1]]
            if k0 != k1:
                out.add(a)
                out.add(b)
    return out


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def _segments_cross(p0, p1, q0, q1) -> bool:
    """Proper (interior) intersection of two segments."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q0, q1, p0)
    d2 = orient(q0, q1, p1)
    d3 = orient(p0, p1, q0)
    d4 = orient(p0, p1, q1)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0


def validate_mesh(mesh: Mesh) -> list[Violation]:
    """Check every mesh invariant; returns an empty list iff the mesh is valid."""
    report: list[Violation] = []
    n_nodes = mesh.n_nodes

    for i, node in enumerate(mesh.nodes):
        if node.id != i:
            report.append(Violation("node-ids", f"node ids not dense: position {i} holds id {node.id}"))
            break
    if not np.all(np.isfinite(mesh.coords)):
        bad = np.where(~np.isfinite(mesh.coords).all(axis=1))[0]
        report.append(Violation("node-coords", f"non-finite coordinates at nodes {bad.tolist()}"))
        return report

    seen_elem_ids = set()
    for e in mesh.elements:
        if e.id in seen_elem_ids:
            report.append(Violation("element-ids", f"duplicate element id {e.id}"))
        seen_elem_ids.add(e.id)

        if any(v < 0 or v >= n_nodes for v in e.vertices):
            report.append(Violation("element-vertices", f"element {e.id}: vertex id out of range"))
            continue
        if len(set(e.vertices)) != len(e.vertices):
            report.append(Violation("element-vertices", f"element {e.id}: repeated vertex"))
            continue
        if len(e.vertices) < 3:
            report.append(Violation("element-vertices", f"element {e.id}: fewer than 3 vertices"))
            continue
        if e.kind == ElementKind.FE_QUAD and len(e.vertices) != 4:
            report.append(Violation("fe-quad-arity",
                                    f"element {e.id}: FE_QUAD must have 4 vertices, has {len(e.vertices)}"))
            continue

        coords = mesh.element_coords(e)
        area = shoelace_area(coords)
        if area <= 0.0:
            report.append(Violation("orientation",
                                    f"element {e.id}: non-positive area {area:g} (clockwise vertex order?)"))
            continue
        deltas = np.roll(coords, -1, axis=0) - coords
        lengths = np.hypot(deltas[:, 0], deltas[:, 1])
        if np.any(lengths <= 1e-14 * max(lengths.max(), 1.0)):
            report.append(Violation("degenerate", f"element {e.id}: zero-length edge"))
            continue
        nv = len(e.vertices)
        simple = True
        for i in range(nv):
            for j in range(i + 1, nv):
                if j == i + 1 or (i == 0 and j == nv - 1):
                    continue  # adjacent edges share a vertex
                if _segments_cross(coords[i], coords[(i + 1) % nv], coords[j], coords[(j + 1) % nv]):
                    report.append(Violation("self-intersection",
                                            f"element {e.id}: edges {i} and {j} cross"))
                    simple = False
                    break
            if not simple:
                break

    for (a, b), elems in mesh._edge_elems.items():
        if len(elems) > 2:
            report.append(Violation("edge-sharing",
                                    f"edge ({a},{b}) shared by {len(elems)} elements {sorted(elems)}"))

    for (a, b) in mesh.boundary_edges:
        if a >= n_nodes or b >= n_nodes:
            report.append(Violation("bedge-nodes", f"labeled edge ({a},{b}) references missing node"))
        elif not mesh.edge_elements(a, b):
            report.append(Violation("bedge-orphan", f"labeled edge ({a},{b}) is not an edge of any element"))

    report.extend(_check_interface_coincidence(mesh))
    return report


def _check_interface_coincidence(mesh: Mesh) -> list[Violation]:
    """Reject hanging nodes across the FE/VE interface.

    A node of one discretization kind lying strictly inside an edge of the
    other kind breaks the coincident-node coupling assumption.  Hanging
    nodes within the VE region are legal (they appear as extra polygon
    vertices), so only cross-kind pairs are scanned, and only near nodes
    shared by both kinds.
    """
    report: list[Violation] = []
    elems = {e.id: e for e in mesh.elements}

    node_kinds: dict[int, set[ElementKind]] = {}
    for e in mesh.elements:
        for v in e.vertices:
            node_kinds.setdefault(v, set()).add(e.kind)
    mixed_nodes = {n for n, kinds in node_kinds.items() if len(kinds) > 1}
    if not mixed_nodes:
        return report

    nodes_of_kind = {
        kind: np.array(sorted(n for n, kinds in node_kinds.items() if kind in kinds))
        for kind in ElementKind
    }

    for (a, b), eids in mesh._edge_elems.items():
        edge_kinds = {elems[i].kind for i in eids}
        if len(edge_kinds) > 1:
            continue  # properly matched interface edge
        if not (a in mixed_nodes or b in mixed_nodes):
            continue  # edge nowhere near the interface
        (edge_kind,) = edge_kinds
        other = (ElementKind.VE_POLY if edge_kind == ElementKind.FE_QUAD
                 else ElementKind.FE_QUAD)
        candidates = nodes_of_kind[other]
        pa, pb = mesh.coords[a], mesh.coords[b]
        ab = pb - pa
        len2 = float(ab @ ab)
        length = math.sqrt(len2)
        pts = mesh.coords[candidates]
        lo = np.minimum(pa, pb) - 1e-9 * length
        hi = np.maximum(pa, pb) + 1e-9 * length
        near = candidates[((pts >= lo) & (pts <= hi)).all(axis=1)]
        for n in near:
            if n == a or n == b:
                continue
            p = mesh.coords[n]
            t = float((p - pa) @ ab) / len2
            if t <= 1e-12 or t >= 1.0 - 1e-12:
                continue
            closest = pa + t * ab
            if float(np.hypot(*(p - closest))) <= 1e-9 * length:
                report.append(Violation(
                    "interface-coincidence",
                    f"node {n} hangs on edge ({a},{b}) across the FE/VE interface"))
    return report


# ---------------------------------------------------------------------------
# Generators


def generate_structured_quads(width: float, height: float, nx: int, ny: int,
                              kind: ElementKind = ElementKind.FE_QUAD,
                              region: int = 0) -> Mesh:
    """Regular nx-by-ny grid on [0,width]x[0,height].

    Boundary edge labels: left, right, bottom, top.
    """
    if nx < 1 or ny < 1:
        raise MeshError(f"subdivision counts must be >= 1, got nx={nx} ny={ny}")
    nodes = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            nodes.append(Node(j * (nx + 1) + i, width * i / nx, height * j / ny))
    elements = []
    for j in range(ny):
        for i in range(nx):
            n00 = j * (nx + 1) + i
            elements.append(Element(j * nx + i, (n00, n00 + 1, n00 + nx + 2, n00 + nx + 1),
                                    kind, region))
    bedges: dict[tuple[int, int], str] = {}
    for i in range(nx):
        bedges[_edge_key(i, i + 1)] = "bottom"
        top0 = ny * (nx + 1) + i
        bedges[_edge_key(top0, top0 + 1)] = "top"
    for j in range(ny):
        bedges[_edge_key(j * (nx + 1), (j + 1) * (nx + 1))] = "left"
        r0 = j * (nx + 1) + nx
        bedges[_edge_key(r0, r0 + nx + 1)] = "right"
    return Mesh(nodes, elements, bedges)


def generate_split_square(width: float, height: float, nx: int, ny: int,
                          split_x: float | None = None) -> Mesh:
    """Structured grid whose left half is FE and right half is VE.

    Cells with midpoint x < split_x (default width/2) are FE_QUAD, the rest
    VE_POLY; the shared node column is the coupling interface.
    """
    if split_x is None:
        split_x = 0.5 * width
    base = generate_structured_quads(width, height, nx, ny)
    elements = []
    for e in base.elements:
        mid_x = base.element_coords(e)[:, 0].mean()
        kind = ElementKind.FE_QUAD if mid_x < split_x else ElementKind.VE_POLY
        elements.append(Element(e.id, e.vertices, kind, e.region))
    return Mesh(base.nodes, elements, base.boundary_edges)


def generate_quarter_annulus(r_a: float, r_b: float, n_r: int, n_t: int,
                             split_radius: float) -> Mesh:
    """Polar-structured quarter annulus between radii r_a and r_b.

    Cells whose radial midpoint is below ``split_radius`` are VE_POLY, the
    rest FE_QUAD; split_radius == r_a gives an all-FE mesh, == r_b all-VE.
    Boundary edge labels: inner, outer, theta0 (x-axis cut), theta90 (y-axis
    cut).
    """
    if not (r_a > 0 and r_a < r_b):
        raise MeshError(f"need 0 < r_a < r_b, got r_a={r_a} r_b={r_b}")
    if not (r_a <= split_radius <= r_b):
        raise MeshError(f"split_radius {split_radius} outside [{r_a}, {r_b}]")
    if n_r < 1 or n_t < 1:
        raise MeshError(f"subdivision counts must be >= 1, got n_r={n_r} n_t={n_t}")

    half_pi = 0.5 * math.pi
    nodes = []
    for i in range(n_r + 1):
        r = r_a + (r_b - r_a) * i / n_r
        for j in range(n_t + 1):
            th = half_pi * j / n_t
            nodes.append(Node(i * (n_t + 1) + j, r * math.cos(th), r * math.sin(th)))
    elements = []
    for i in range(n_r):
        r_mid = r_a + (r_b - r_a) * (i + 0.5) / n_r
        kind = ElementKind.VE_POLY if r_mid < split_radius else ElementKind.FE_QUAD
        for j in range(n_t):
            n00 = i * (n_t + 1) + j
            n10 = (i + 1) * (n_t + 1) + j
            elements.append(Element(i * n_t + j, (n00, n10, n10 + 1, n00 + 1), kind, 0))
    bedges: dict[tuple[int, int], str] = {}
    for j in range(n_t):
        bedges[_edge_key(j, j + 1)] = "inner"
        o0 = n_r * (n_t + 1) + j
        bedges[_edge_key(o0, o0 + 1)] = "outer"
    for i in range(n_r):
        bedges[_edge_key(i * (n_t + 1), (i + 1) * (n_t + 1))] = "theta0"
        t0 = i * (n_t + 1) + n_t
        bedges[_edge_key(t0, t0 + n_t + 1)] = "theta90"
    return Mesh(nodes, elements, bedges)


def generate_plate_with_hole(hole_radius: float, size: float, n_t: int,
                             n_r_ring: int, n_r_outer: int, split_radius: float,
                             ring_kind: ElementKind = ElementKind.VE_POLY,
                             outer_kind: ElementKind = ElementKind.FE_QUAD,
                             split_ring: bool = False) -> Mesh:
    """Quarter plate [0,size]^2 with a hole of ``hole_radius`` at the origin.

    A polar ring of ``ring_kind`` cells covers hole_radius..split_radius; a
    blended block of ``outer_kind`` cells covers split_radius..square edge.
    With ``split_ring`` each ring cell is cut into two triangles along a
    uniform diagonal, giving the ring the simplicial-polygon character of an
    unstructured VE region (requires a polygon-capable ring kind).
    Labels: hole, bottom (y=0 cut), left (x=0 cut), right, top.
    """
    if split_ring and ring_kind == ElementKind.FE_QUAD:
        raise MeshError("split_ring needs a polygon-capable ring kind (VE_POLY)")
    if not (0 < hole_radius < split_radius < size):
        raise MeshError("need 0 < hole_radius < split_radius < size")
    half_pi = 0.5 * math.pi
    n_rows = n_r_ring + n_r_outer + 1
    cols = n_t + 1

    def square_point(th: float) -> tuple[float, float]:
        c, s = math.cos(th), math.sin(th)
        scale = size / max(c, s)
        return scale * c, scale * s

    nodes = []
    for i in range(n_rows):
        for j in range(cols):
            th = half_pi * j / n_t
            if i <= n_r_ring:
                r = hole_radius + (split_radius - hole_radius) * i / n_r_ring
                x, y = r * math.cos(th), r * math.sin(th)
            else:
                s = (i - n_r_ring) / n_r_outer
                qx, qy = square_point(th)
                x = (1 - s) * split_radius * math.cos(th) + s * qx
                y = (1 - s) * split_radius * math.sin(th) + s * qy
            nodes.append(Node(i * cols + j, x, y))

    elements = []
    for i in range(n_rows - 1):
        kind = ring_kind if i < n_r_ring else outer_kind
        for j in range(n_t):
            n00 = i * cols + j
            n10 = (i + 1) * cols + j
            quad = (n00, n10, n10 + 1, n00 + 1)
            if split_ring and i < n_r_ring:
                elements.append(Element(len(elements), quad[:3], kind, 0))
                elements.append(Element(len(elements), (quad[0], quad[2], quad[3]), kind, 0))
            else:
                elements.append(Element(len(elements), quad, kind, 0))

    bedges: dict[tuple[int, int], str] = {}
    for j in range(n_t):
        bedges[_edge_key(j, j + 1)] = "hole"
        o0 = (n_rows - 1) * cols + j
        mx = 0.5 * (nodes[o0].x + nodes[o0 + 1].x)
        my = 0.5 * (nodes[o0].y + nodes[o0 + 1].y)
        bedges[_edge_key(o0, o0 + 1)] = "right" if mx > my else "top"
    for i in range(n_rows - 1):
        bedges[_edge_key(i * cols, (i + 1) * cols)] = "bottom"
        t0 = i * cols + n_t
        bedges[_edge_key(t0, t0 + cols)] = "left"
    return Mesh(nodes, elements, bedges)


def generate_tagged_grid(xs: Sequence[float], ys: Sequence[float],
                         cell_of: Callable[[float, float], tuple[int, ElementKind] | None],
                         label_of: Callable[[float, float], str | None] | None = None,
                         interior_label_of: Callable[[int, int, float, float], str | None] | None = None,
                         ) -> Mesh:
    """Tensor grid with per-cell region/kind tagging and cell removal.

    ``cell_of(cx, cy)`` is called with each cell midpoint and returns a
    (region, kind) pair, or ``None`` to remove the cell (void).  Unused nodes
    are dropped and ids renumbered densely.  ``label_of(mx, my)`` labels true
    boundary edges by midpoint; ``interior_label_of(region_a, region_b, mx,
    my)`` may label interior edges between two different regions (for
    embedded Dirichlet surfaces).
    """
    xs = list(xs)
    ys = list(ys)
    nx, ny = len(xs) - 1, len(ys) - 1

    cells = []
    for j in range(ny):
        for i in range(nx):
            cx, cy = 0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])
            tag = cell_of(cx, cy)
            if tag is not None:
                cells.append((i, j, tag[0], tag[1]))

    grid_id: dict[tuple[int, int], int] = {}
    nodes: list[Node] = []

    def node_at(i: int, j: int) -> int:
        key = (i, j)
        if key not in grid_id:
            grid_id[key] = len(nodes)
            nodes.append(Node(len(nodes), xs[i], ys[j]))
        return grid_id[key]

    elements = []
    for eid, (i, j, region, kind) in enumerate(cells):
        v = (node_at(i, j), node_at(i + 1, j), node_at(i + 1, j + 1), node_at(i, j + 1))
        elements.append(Element(eid, v, kind, region))

    mesh = Mesh(nodes, elements)
    bedges: dict[tuple[int, int], str] = {}
    for (a, b), eids in mesh._edge_elems.items():
        mx = 0.5 * (mesh.coords[a, 0] + mesh.coords[b, 0])
        my = 0.5 * (mesh.coords[a, 1] + mesh.coords[b, 1])
        if len(eids) == 1:
            if label_of is not None:
                lab = label_of(mx, my)
                if lab is not None:
                    bedges[(a, b)] = lab
        elif interior_label_of is not None:
            r0 = mesh.elements[eids[0]].region
            r1 = mesh.elements[eids[1]].region
            if r0 != r1:
                lab = interior_label_of(r0, r1, mx, my)
                if lab is not None:
                    bedges[(a, b)] = lab
    return Mesh(nodes, elements, bedges)


def subdivided(breaks: Sequence[float], cells_per_span: Sequence[int]) -> list[float]:
    """Expand layer breakpoints into grid lines with per-layer cell counts."""
    out = [float(breaks[0])]
    for k, n in enumerate(cells_per_span):
        a, b = breaks[k], breaks[k + 1]
        for i in range(1, n + 1):
            out.append(a + (b - a) * i / n)
    return out


# Region ids of the sandwich benchmark (chip / interconnect / substrate).
SANDWICH_CHIP, SANDWICH_SILVER, SANDWICH_COPPER = 0, 1, 2
SANDWICH_STACK_X = (1.2, 3.0)      # chip/interconnect footprint, mm
SANDWICH_INTERFACE_Y = 0.8         # copper top / coupling interface, mm


def generate_sandwich(level: int = 0, all_kind: ElementKind | None = None) -> Mesh:
    """Chip / sintered-interconnect / substrate sandwich (3 x 1.6 mm).

    Half-model reading: the stack sits flush against the right edge, which
    acts as the fully constrained package center plane.  Substrate cells are
    FE, the upper stack VE; ``all_kind`` overrides both (pure-FE reference
    or pure-VE run).  ``level`` halves the 0.1 mm base cell per increment.
    Labels: bottom, top, right.
    """
    s = 2 ** level
    xs = subdivided([0.0, 1.2, 3.0], [12 * s, 18 * s])
    ys = subdivided([0.0, 0.8, 1.1, 1.6], [8 * s, 3 * s, 5 * s])
    x0, x1 = SANDWICH_STACK_X

    def cell_of(cx, cy):
        if cy < 0.8:
            region = SANDWICH_COPPER
        elif x0 < cx < x1:
            region = SANDWICH_SILVER if cy < 1.1 else SANDWICH_CHIP
        else:
            return None
        if all_kind is not None:
            return region, all_kind
        kind = ElementKind.FE_QUAD if region == SANDWICH_COPPER else ElementKind.VE_POLY
        return region, kind

    def label_of(mx, my):
        if abs(my) < 1e-9:
            return "bottom"
        if abs(my - 1.6) < 1e-9:
            return "top"
        if abs(mx - 3.0) < 1e-9:
            return "right"
        return None

    return generate_tagged_grid(xs, ys, cell_of, label_of)


# Region ids of the FC-BGA benchmark.
FCBGA_MOLD, FCBGA_DIE, FCBGA_BALL, FCBGA_EPOXY, FCBGA_BT, FCBGA_PCB = range(6)


def generate_fcbga(level: int = 0) -> Mesh:
    """Desk-scale flip-chip BGA cross-section.

    Simplified relative to a real package: five rectangular solder
    balls (width 1.0 mm, pitch 2.0 mm) instead of the full ball array, and
    rectangular component outlines.  BT substrate and PCB cells are FE, all
    other components VE.  Labels: pcb_bottom, mold_top, die (die perimeter,
    used for the prescribed die temperature).
    """
    s = 2 ** level
    xs = subdivided([-6.75, 6.75], [54 * s])
    ys = subdivided([0.0, 0.8, 1.36, 1.76, 1.86, 2.16, 2.96],
                    [2 * s, 2 * s, 2 * s, s, s, 3 * s])

    def cell_of(cx, cy):
        if cy < 0.8:
            return FCBGA_PCB, ElementKind.FE_QUAD
        if cy < 1.36:
            for center in (-4.0, -2.0, 0.0, 2.0, 4.0):
                if abs(cx - center) < 0.5:
                    return FCBGA_BALL, ElementKind.VE_POLY
            return None
        if cy < 1.76:
            if abs(cx) < 5.5:
                return FCBGA_BT, ElementKind.FE_QUAD
            return None
        if abs(cx) > 4.5:
            return None
        if cy < 2.16 and abs(cx) < 2.5:
            region = FCBGA_EPOXY if cy < 1.86 else FCBGA_DIE
            return region, ElementKind.VE_POLY
        return FCBGA_MOLD, ElementKind.VE_POLY

    def label_of(mx, my):
        if abs(my) < 1e-9:
            return "pcb_bottom"
        if abs(my - 2.96) < 1e-9:
            return "mold_top"
        return None

    def interior_label_of(r0, r1, mx, my):
        if FCBGA_DIE in (r0, r1):
            return "die"
        return None

    return generate_tagged_grid(xs, ys, cell_of, label_of, interior_label_of)


# Region ids of the IGBT benchmark.
IGBT_CHIP, IGBT_CU, IGBT_CERAMIC, IGBT_AL, IGBT_SOLDER = range(5)


def generate_igbt(level: int = 0) -> Mesh:
    """Desk-scale IGBT half-bridge cross-section (18 mm wide).

    The nine-layer stack is reduced to eight regions: the 4 um metallization
    is omitted and the bonding-wire arc is approximated by a grid-aligned
    polygonal chain (two legs and a span) welded onto the chip top and the
    second copper pad.  Baseplate and wire are VE, the stack FE.  Labels:
    base_bottom, chip_top.
    """
    s = 2 ** level
    xs = subdivided([-9.0, 9.0], [36 * s])
    ys = subdivided([0.0, 3.0, 3.15, 3.45, 3.83, 4.13, 4.28, 4.48, 5.48, 5.98],
                    [4 * s, s, s, s, s, s, s, 2 * s, s])

    def wire(cx, cy):
        if 4.48 < cy < 5.48 and 3.5 < cx < 4.0:
            return True          # leg on the chip
        if 4.13 < cy < 5.48 and 7.0 < cx < 7.5:
            return True          # leg on the second pad
        if 5.48 < cy < 5.98 and 3.5 < cx < 7.5:
            return True          # span
        return False

    def cell_of(cx, cy):
        if wire(cx, cy):
            return IGBT_AL, ElementKind.VE_POLY
        if cy < 3.0:
            return IGBT_CU, ElementKind.VE_POLY     # baseplate
        if cy < 3.15:
            return IGBT_SOLDER, ElementKind.FE_QUAD
        if cy < 3.45:
            return IGBT_CU, ElementKind.FE_QUAD     # lower pad
        if cy < 3.83:
            return IGBT_CERAMIC, ElementKind.FE_QUAD
        if cy < 4.13:
            if -8.0 < cx < 6.0 or 6.5 < cx < 8.5:
                return IGBT_CU, ElementKind.FE_QUAD  # upper pads
            return None
        if cy < 4.28:
            if -7.5 < cx < 5.5:
                return IGBT_SOLDER, ElementKind.FE_QUAD
            return None
        if cy < 4.48:
            if -7.5 < cx < 5.5:
                return IGBT_CHIP, ElementKind.FE_QUAD
            return None
        return None

    def label_of(mx, my):
        if abs(my) < 1e-9:
            return "base_bottom"
        if abs(my - 4.48) < 1e-9 and -7.5 < mx < 5.5:
            return "chip_top"
        return None

    return generate_tagged_grid(xs, ys, cell_of, label_of)


# ---------------------------------------------------------------------------
# File I/O

FORMAT_HEADER = "mesh 2d v1"


def mesh_text(mesh: Mesh) -> str:
    """Canonical text form of a mesh (see load_mesh for the grammar)."""
    lines = [FORMAT_HEADER]
    for n in mesh.nodes:
        lines.append(f"node {n.id} {n.x!r} {n.y!r}")
    for e in mesh.elements:
        verts = " ".join(str(v) for v in e.vertices)
        lines.append(f"elem {e.id} {e.kind.value} {e.region} {len(e.vertices)} {verts}")
    for (a, b) in sorted(mesh.boundary_edges):
        lines.append(f"bedge {mesh.boundary_edges[(a, b)]} {a} {b}")
    return "\n".join(lines) + "\n"


def save_mesh(mesh: Mesh, path: str) -> None:
    """Write the line-oriented mesh format (see load_mesh)."""
    with open(path, "w") as f:
        f.write(mesh_text(mesh))


def load_mesh(path: str, validate: bool = True) -> Mesh:
    """Parse a mesh file.

    Format: header line ``mesh 2d v1``; then ``node <id> <x> <y>``,
    ``elem <id> <FE|VE> <region> <n_v> <v0> ... <v{n_v-1}>`` and
    ``bedge <label> <n0> <n1>`` records, whitespace separated, ``#`` comments.
    Ids must be dense from 0.  Raises ParseError with the offending line
    number, or MeshError listing invariant violations.
    """
    with open(path) as f:
        raw_lines = f.readlines()

    nodes: dict[int, Node] = {}
    elements: dict[int, Element] = {}
    bedges: dict[tuple[int, int], str] = {}
    header_seen = False

    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != FORMAT_HEADER:
                raise ParseError(f"expected header '{FORMAT_HEADER}', got '{line}'", path, lineno)
            header_seen = True
            continue
        tok = line.split()
        try:
            if tok[0] == "node":
                if len(tok) != 4:
                    raise ValueError("node record needs: node <id> <x> <y>")
                nid = int(tok[1])
                if nid in nodes:
                    raise ValueError(f"duplicate node id {nid}")
                nodes[nid] = Node(nid, float(tok[2]), float(tok[3]))
            elif tok[0] == "elem":
                eid = int(tok[1])
                if eid in elements:
                    raise ValueError(f"duplicate element id {eid}")
                try:
                    kind = ElementKind(tok[2])
                except ValueError:
                    raise ValueError(f"unknown element kind '{tok[2]}' (expected FE or VE)")
                region = int(tok[3])
                nv = int(tok[4])
                verts = tuple(int(t) for t in tok[5:])
                if len(verts) != nv:
                    raise ValueError(f"element {eid}: declared {nv} vertices, found {len(verts)}")
                elements[eid] = Element(eid, verts, kind, region)
            elif tok[0] == "bedge":
                if len(tok) != 4:
                    raise ValueError("bedge record needs: bedge <label> <n0> <n1>")
                bedges[_edge_key(int(tok[2]), int(tok[3]))] = tok[1]
            else:
                raise ValueError(f"unknown record '{tok[0]}'")
        except (ValueError, IndexError) as exc:
            raise ParseError(str(exc), path, lineno) from exc

    if not header_seen:
        raise ParseError("empty file (missing header)", path)
    if sorted(nodes) != list(range(len(nodes))):
        raise ParseError(f"node ids not dense 0..{len(nodes) - 1}", path)
    if sorted(elements) != list(range(len(elements))):
        raise ParseError(f"element ids not dense 0..{len(elements) - 1}", path)

    mesh = Mesh([nodes[i] for i in range(len(nodes))],
                [elements[i] for i in range(len(elements))], bedges)
    if validate:
        report = validate_mesh(mesh)
        if report:
            msgs = "; ".join(v.message for v in report[:10])
            raise MeshError(f"{path}: {len(report)} validation violation(s): {msgs}")
    return mesh
