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
    if not isinstance(nodes, np.ndarray):
        nodes = np.array([[n.x, n.y] for n in nodes], dtype=float)
    return polygon_geometry_from_coords(nodes[list(element.vertices)], elem_id=element.id)


def polygon_geometry_from_coords(coords: np.ndarray, elem_id: int | None = None) -> PolygonGeometry:
    """``polygon_geometries`` of one polygon's (n_v, 2) coordinates."""
    coords = np.asarray(coords, dtype=float)
    return polygon_geometries(coords[None], None if elem_id is None else [elem_id])[0]


def _edges(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge vectors (vertex i to i+1, cyclic) and lengths of a (..., n_v, 2) stack.

    The third array flags the polygons with a zero-length edge: one no longer
    than 1e-14 x max(longest edge, 1).
    """
    deltas = np.roll(coords, -1, axis=-2) - coords
    lengths = np.hypot(deltas[..., 0], deltas[..., 1])
    scale = np.maximum(lengths.max(axis=-1), 1.0)
    return deltas, lengths, (lengths <= 1e-14 * scale[..., None]).any(axis=-1)


def polygon_geometries(coords: np.ndarray,
                       element_ids: Sequence[int] | np.ndarray | None = None
                       ) -> list[PolygonGeometry]:
    """Geometry of each polygon in a (m, n_v, 2) stack, one PolygonGeometry per row.

    The first degenerate row raises MeshError naming ``element_ids[row]``
    (``polygon`` without ids): fewer than 3 vertices, a zero-length edge or
    non-positive area, checked in that order.  Each row equals the geometry
    of that polygon computed on its own, bit for bit.
    """
    coords = np.asarray(coords, dtype=float)
    m, n_v = coords.shape[:2]

    def fail(row: int, text: str):
        raise MeshError.of_element(None if element_ids is None else int(element_ids[row]), text)

    if m and n_v < 3:
        fail(0, f"needs at least 3 vertices, got {n_v}")
    deltas, lengths, short = _edges(coords)
    areas = shoelace_areas(coords)
    bad = short | (areas <= 0.0)
    if bad.any():
        row = int(bad.argmax())
        if short[row]:
            fail(row, "zero-length edge (repeated or collinear-coincident vertices)")
        fail(row, f"non-positive area {areas[row]:g} (clockwise or degenerate)")

    x, y = coords[..., 0], coords[..., 1]
    x_next, y_next = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * y_next - x_next * y
    cx = rowdot(x + x_next, cross) / (6.0 * areas)
    cy = rowdot(y + y_next, cross) / (6.0 * areas)

    diffs = coords[:, :, None, :] - coords[:, None, :, :]
    h = np.sqrt((diffs ** 2).sum(axis=3).max(axis=(1, 2)))

    # Outward normal of a CCW edge is the tangent rotated -90 degrees.
    normals = np.stack((deltas[..., 1], -deltas[..., 0]), axis=-1) / lengths[..., None]

    return [PolygonGeometry(centroid=(float(cx[r]), float(cy[r])), area=float(areas[r]),
                            h=float(h[r]), edge_normals=normals[r], edge_lengths=lengths[r])
            for r in range(m)]


_VE_BLOCK_ROWS = 1 << 10   # see Mesh.element_blocks


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _edge_map(elements: Sequence[Element]) -> dict[tuple[int, int], list[int]]:
    """Sorted node pair -> ids of the elements that have that edge, in list order."""
    edges: dict[tuple[int, int], list[int]] = {}
    for e in elements:
        v = e.vertices
        for a, b in zip(v, v[1:] + v[:1]):
            edges.setdefault(_edge_key(a, b), []).append(e.id)
    return edges


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
        self._edge_elems: dict[tuple[int, int], list[int]] = _edge_map(self.elements)
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
        VE groups are cut into blocks of at most ``_VE_BLOCK_ROWS`` elements: a VE
        block holds one PolygonGeometry per element while its projections are built.
        """
        blocks = []
        for count in sorted(self.vertex_groups):
            pos, verts = self.vertex_groups[count]
            fe = self.element_fe[pos]
            for flag in (True, False):
                rows = np.flatnonzero(fe == flag)
                step = max(rows.size, 1) if flag else _VE_BLOCK_ROWS
                for s in range(0, rows.size, step):
                    blocks.append((flag, pos[rows[s:s + step]], verts[rows[s:s + step]]))
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


# (code, message) of each per-element check, in the order the checks run;
# an element is reported under the first one it fails.  Indexed by the
# check numbers in ``_element_violations``.
_ELEMENT_CHECKS = (
    ("element-vertices", "element {id}: vertex id out of range"),
    ("element-vertices", "element {id}: repeated vertex"),
    ("element-vertices", "element {id}: fewer than 3 vertices"),
    ("fe-quad-arity", "element {id}: FE_QUAD must have 4 vertices, has {n_v}"),
    ("orientation", "element {id}: non-positive area {area:g} (clockwise vertex order?)"),
    ("degenerate", "element {id}: zero-length edge"),
    ("self-intersection", "element {id}: edges {i} and {j} cross"),
)

# Vertices or edge pairs per chunk of the geometry checks; bounds their
# temporaries to a few hundred kB.
_CHECK_CHUNK = 1 << 14


def _edge_pairs(n_v: int) -> np.ndarray:
    """Non-adjacent edge pairs (i, j), i < j, of an n_v-gon in lexicographic order."""
    pairs = [(i, j) for i in range(n_v) for j in range(i + 2, n_v)
             if not (i == 0 and j == n_v - 1)]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _orient(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) \
        - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])


def _first_crossings(coords: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """First properly crossing edge pair of each polygon in a (m, n_v, 2) stack.

    Returns the index into ``pairs`` (``_edge_pairs(n_v)``), or -1 for a
    simple polygon.  Two edges cross when each one's end points lie strictly
    on opposite sides of the other's line.
    """
    m, n_v = coords.shape[:2]
    first = np.full(m, -1, dtype=np.int64)
    if not len(pairs):
        return first
    i, j = pairs.T
    p0, p1 = coords[:, i], coords[:, (i + 1) % n_v]
    q0, q1 = coords[:, j], coords[:, (j + 1) % n_v]
    d1, d2 = _orient(q0, q1, p0), _orient(q0, q1, p1)
    d3, d4 = _orient(p0, p1, q0), _orient(p0, p1, q1)
    cross = (((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
             & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0))
    hit = cross.any(axis=1)
    first[hit] = cross[hit].argmax(axis=1)
    return first


def _element_violations(mesh: Mesh) -> dict[int, Violation]:
    """The first failed check of every flawed element, keyed by position in ``elements``.

    Each vertex-count block is checked in one array pass (the geometry in
    row chunks); coordinates are read only for rows that pass the vertex-id
    checks.
    """
    out: dict[int, Violation] = {}
    for n_v, (pos, verts) in mesh.vertex_groups.items():
        m = pos.size
        pairs = _edge_pairs(n_v)
        srt = np.sort(verts, axis=1)
        failed = np.select(
            [((verts < 0) | (verts >= mesh.n_nodes)).any(axis=1),
             (srt[:, 1:] == srt[:, :-1]).any(axis=1),
             np.full(m, n_v < 3),
             mesh.element_fe[pos] & (n_v != 4)],
            [0, 1, 2, 3], -1)
        live = np.flatnonzero(failed < 0)
        areas = np.zeros(m)
        crossing = np.full(m, -1, dtype=np.int64)
        step = max(1, _CHECK_CHUNK // max(1, n_v, len(pairs)))
        for s in range(0, live.size, step):
            rows = live[s:s + step]
            coords = mesh.coords[verts[rows]]
            areas[rows] = shoelace_areas(coords)
            crossing[rows] = _first_crossings(coords, pairs)
            failed[rows] = np.select(
                [areas[rows] <= 0.0,
                 _edges(coords)[2],
                 crossing[rows] >= 0],
                [4, 5, 6], -1)
        for r in np.flatnonzero(failed >= 0).tolist():
            code, text = _ELEMENT_CHECKS[failed[r]]
            i, j = pairs[crossing[r]].tolist() if crossing[r] >= 0 else (None, None)
            p = int(pos[r])
            out[p] = Violation(code, text.format(id=mesh.elements[p].id, n_v=n_v,
                                                 area=float(areas[r]), i=i, j=j))
    return out


def validate_mesh(mesh: Mesh) -> list[Violation]:
    """Check every mesh invariant; returns an empty list iff the mesh is valid.

    Elements are reported in list order, each under its first failed check
    and after the duplicate-id message of its id, if any.
    """
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

    flawed = _element_violations(mesh)
    duplicate = np.ones(mesh.n_elements, dtype=bool)
    duplicate[np.unique(mesh.element_ids, return_index=True)[1]] = False
    for p in sorted(flawed.keys() | set(np.flatnonzero(duplicate).tolist())):
        if duplicate[p]:
            report.append(Violation("element-ids", f"duplicate element id {mesh.elements[p].id}"))
        if p in flawed:
            report.append(flawed[p])

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
    shared by both kinds.  Elements with out-of-range vertex ids (reported
    by the element checks) are left out.
    """
    report: list[Violation] = []
    n_nodes = mesh.n_nodes
    in_range = np.ones(mesh.n_elements, dtype=bool)
    touches = {fe: np.zeros(n_nodes, dtype=bool) for fe in (True, False)}
    for pos, verts in mesh.vertex_groups.values():
        ok = ((verts >= 0) & (verts < n_nodes)).all(axis=1)
        in_range[pos] = ok
        for fe in (True, False):
            touches[fe][verts[ok & (mesh.element_fe[pos] == fe)]] = True
    mixed = touches[True] & touches[False]
    if not mixed.any():
        return report
    mixed_nodes = set(np.flatnonzero(mixed).tolist())

    edge_elems = mesh._edge_elems
    if not in_range.all():
        edge_elems = _edge_map([e for e, ok in zip(mesh.elements, in_range.tolist()) if ok])
    fe_of = dict(zip(mesh.element_ids[in_range].tolist(), mesh.element_fe[in_range].tolist()))

    # Nodes of each kind, sorted by x, so each edge scans only the nodes
    # inside its x range.
    candidates = {}
    for fe in (True, False):
        ids = np.flatnonzero(touches[fe])
        ids = ids[np.argsort(mesh.coords[ids, 0], kind="stable")]
        candidates[fe] = (ids, mesh.coords[ids, 0], mesh.coords[ids])

    for (a, b), eids in edge_elems.items():
        if a not in mixed_nodes and b not in mixed_nodes:
            continue  # edge nowhere near the interface
        edge_kinds = {fe_of[i] for i in eids}
        if len(edge_kinds) > 1:
            continue  # properly matched interface edge
        (edge_fe,) = edge_kinds
        ids, xs, pts = candidates[not edge_fe]
        pa, pb = mesh.coords[a], mesh.coords[b]
        ab = pb - pa
        len2 = float(ab @ ab)
        if len2 == 0.0:
            continue  # collapsed edge (reported as degenerate); nothing lies inside it
        length = math.sqrt(len2)
        lo = np.minimum(pa, pb) - 1e-9 * length
        hi = np.maximum(pa, pb) + 1e-9 * length
        window = slice(xs.searchsorted(lo[0], "left"), xs.searchsorted(hi[0], "right"))
        near = np.sort(ids[window][((pts[window] >= lo) & (pts[window] <= hi)).all(axis=1)])
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

    bedges: dict[tuple[int, int], str] = {}
    for (a, b), eids in _edge_map(elements).items():
        mx = 0.5 * (nodes[a].x + nodes[b].x)
        my = 0.5 * (nodes[a].y + nodes[b].y)
        if len(eids) == 1:
            if label_of is not None:
                lab = label_of(mx, my)
                if lab is not None:
                    bedges[(a, b)] = lab
        elif interior_label_of is not None:
            r0 = elements[eids[0]].region
            r1 = elements[eids[1]].region
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
