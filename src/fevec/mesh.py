"""Mesh data model, geometry helpers, validation, generators and file I/O.

A mesh is a coordinate array, whose row i is node i, plus a list of mixed
quadrilateral/polygon elements, each named by its position in the list.
Each element carries a discretization tag: ``FE_QUAD`` elements are handled
by the four-node quadrilateral kernel, ``VE_POLY`` elements by the polygonal
kernel.  Elements of the two kinds may only meet along edges whose end nodes
are shared (coincident interface nodes); the set of such nodes is computed
once and stored on the mesh.

Edge topology is built once per mesh as arrays (``Mesh.edges`` and, per
element side, ``side_element`` / ``side_edge``); every edge reader uses them
and reads element data by position.

``validate_mesh`` is the one definition of a valid mesh: every element a
simple counter-clockwise polygon, every FE quad strictly convex.  The
assembly, stress recovery and probes pass ``require_valid`` before any
element kernel, so the kernels check nothing themselves.

All lengths are millimetres.  Vertex order is counter-clockwise everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import AssemblyError, MeshError, ParseError


class ElementKind(Enum):
    FE_QUAD = "FE"
    VE_POLY = "VE"


@dataclass(frozen=True)
class Element:
    id: int
    vertices: tuple[int, ...]
    kind: ElementKind
    region: int


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching last-axis rows.

    Each row goes through the same BLAS dot as ``np.dot`` on one vector pair,
    so a batch reproduces the per-element sums bit for bit.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def shoelace_areas(coords: np.ndarray) -> np.ndarray:
    """Signed areas of a stack of polygons (m, n_v, 2); positive for counter-clockwise order."""
    x = coords[..., 0]
    y = coords[..., 1]
    return 0.5 * (rowdot(x, np.roll(y, -1, axis=-1)) - rowdot(y, np.roll(x, -1, axis=-1)))


def _area_rounding(coords: np.ndarray) -> np.ndarray:
    """Bound on the rounding error of ``shoelace_areas``, per polygon of a (m, n_v, 2) stack."""
    x, y = np.abs(coords[..., 0]), np.abs(coords[..., 1])
    return coords.shape[-2] * np.finfo(float).eps * 0.5 * (
        rowdot(x, np.roll(y, -1, axis=-1)) + rowdot(y, np.roll(x, -1, axis=-1)))


def _edges(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge vectors (vertex i to i+1, cyclic) and lengths of a (..., n_v, 2) stack.

    The third array flags the polygons with a zero-length edge: one no longer
    than 1e-14 x max(longest edge, 1).
    """
    deltas = np.roll(coords, -1, axis=-2) - coords
    lengths = np.hypot(deltas[..., 0], deltas[..., 1])
    scale = np.maximum(lengths.max(axis=-1), 1.0)
    return deltas, lengths, (lengths <= 1e-14 * scale[..., None]).any(axis=-1)


@dataclass(frozen=True)
class PolygonStack:
    """Derived geometry of a stack of polygons, one row per polygon.

    ``h`` is the maximum pairwise vertex distance; ``edge_normals[:, i]`` is
    the outward unit normal of the edge from vertex i to i+1 (cyclic)."""

    centroid: np.ndarray      # (m, 2)
    area: np.ndarray          # (m,)
    h: np.ndarray             # (m,)
    edge_normals: np.ndarray  # (m, n_v, 2)
    edge_lengths: np.ndarray  # (m, n_v)


def polygon_stack(coords: np.ndarray) -> PolygonStack:
    """Geometry of a (m, n_v, 2) stack of polygons, in arrays with one row per polygon.

    The polygons must be ones ``validate_mesh`` accepts.  Each row equals the
    geometry of that polygon computed on its own, bit for bit.
    """
    coords = np.asarray(coords, dtype=float)
    deltas, lengths, _ = _edges(coords)
    areas = shoelace_areas(coords)

    x, y = coords[..., 0], coords[..., 1]
    x_next, y_next = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * y_next - x_next * y
    cx = rowdot(x + x_next, cross) / (6.0 * areas)
    cy = rowdot(y + y_next, cross) / (6.0 * areas)

    diffs = coords[:, :, None, :] - coords[:, None, :, :]
    h = np.sqrt((diffs ** 2).sum(axis=3).max(axis=(1, 2)))

    # Outward normal of a CCW edge is the tangent rotated -90 degrees.
    normals = np.stack((deltas[..., 1], -deltas[..., 0]), axis=-1) / lengths[..., None]
    return PolygonStack(centroid=np.column_stack((cx, cy)), area=areas, h=h,
                        edge_normals=normals, edge_lengths=lengths)


_VE_BLOCK_ROWS = 1 << 10   # see Mesh.element_blocks


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _first_use(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the distinct values of ``keys`` in order of first use.

    Returns the sorted distinct values, the number of each, and the number
    of every entry of ``keys`` (shaped like ``keys``).
    """
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    number = np.empty_like(first)
    number[np.argsort(first)] = np.arange(first.size)
    return distinct, number, number[inverse].reshape(keys.shape)


class Mesh:
    """Immutable-after-construction mesh with precomputed adjacency.

    ``coords`` is the node table: node i is row i of the (n, 2) array.  An
    element is named by its position in ``elements``; ``validate_mesh``
    requires every element's id to equal that position.
    ``boundary_edges`` maps a node pair (sorted tuple) to a label string.
    Labels name edge sets for boundary conditions; labels on interior edges
    are allowed (used for embedded Dirichlet surfaces) but flux/traction may
    only be applied to true boundary edges.
    """

    def __init__(self, coords, elements: Sequence[Element],
                 boundary_edges: dict[tuple[int, int], str] | None = None):
        self.coords: np.ndarray = np.array(coords, dtype=float).reshape(-1, 2)
        self.elements: list[Element] = list(elements)
        self.boundary_edges: dict[tuple[int, int], str] = {
            _edge_key(*k): v for k, v in (boundary_edges or {}).items()
        }

        # Array views of the element list; index = position in ``elements``.
        self.element_fe = np.array([e.kind == ElementKind.FE_QUAD for e in self.elements],
                                   dtype=bool)
        self.element_regions = np.array([e.region for e in self.elements], dtype=np.int64)
        # n_v -> (positions in increasing order, (m, n_v) vertex ids)
        self.vertex_groups: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        n_v = np.array([len(e.vertices) for e in self.elements], dtype=np.int64)
        # Every element side (vertex i to i+1, cyclic) as a sorted node pair, in
        # element-list order: side i of the element at position p is row start[p] + i.
        start = np.cumsum(n_v) - n_v
        pairs = np.empty((int(n_v.sum()), 2), dtype=np.int64)
        for count in np.unique(n_v).tolist():
            pos = np.flatnonzero(n_v == count)
            verts = np.array([self.elements[p].vertices for p in pos.tolist()],
                             dtype=np.int64).reshape(pos.size, count)
            self.vertex_groups[count] = (pos, verts)
            sides = np.stack((verts, np.roll(verts, -1, axis=1)), axis=2).reshape(-1, 2)
            pairs[(start[pos, None] + np.arange(count)).ravel()] = np.sort(sides, axis=1)

        # Edge table: ``side_element`` and ``side_edge`` give each side's element
        # position and edge; ``edges`` are the distinct sorted node pairs,
        # numbered in order of first appearance.
        self.side_element: np.ndarray = np.repeat(np.arange(n_v.size), n_v)
        # An exact int64 key per pair from the ranks of its end nodes.
        ends, rank = np.unique(pairs, return_inverse=True)
        rank = rank.reshape(pairs.shape)
        keys, edge_of_key, self.side_edge = _first_use(rank[:, 0] * ends.size + rank[:, 1])
        self.edges = np.empty((keys.size, 2), dtype=np.int64)
        self.edges[self.side_edge] = pairs
        self.edge_counts: np.ndarray = np.bincount(self.side_edge, minlength=keys.size)
        self._edge_lookup = (ends, keys, edge_of_key)
        self.interface_nodes: set[int] = find_interface_nodes(self)

    @property
    def n_nodes(self) -> int:
        return len(self.coords)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def edge_index(self, pairs) -> np.ndarray:
        """Index in ``edges`` of each node pair (either order), -1 where no element has it."""
        pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
        ends, keys, edge_of_key = self._edge_lookup
        if not keys.size:
            return np.full(len(pairs), -1, dtype=np.int64)
        rank = np.searchsorted(ends, pairs).clip(max=ends.size - 1)
        key = rank[:, 0] * ends.size + rank[:, 1]
        k = np.searchsorted(keys, key).clip(max=keys.size - 1)
        return np.where((ends[rank] == pairs).all(axis=1) & (keys[k] == key), edge_of_key[k], -1)

    def edge_owners(self) -> tuple[np.ndarray, np.ndarray]:
        """Element positions of all sides grouped by edge, and where each edge starts:
        edge k's owners, one per side in list order, are ``owners[start[k]:][:edge_counts[k]]``."""
        start = np.cumsum(self.edge_counts) - self.edge_counts
        return self.side_element[np.argsort(self.side_edge, kind="stable")], start

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
        return set(np.unique(self.element_regions).tolist())

    def element_blocks(self) -> list[tuple[bool, np.ndarray, np.ndarray]]:
        """(is_fe, positions, (m, n_v) vertices) per group of one kind and vertex count.

        Positions index ``elements`` and increase within a block.
        VE groups are cut into blocks of at most ``_VE_BLOCK_ROWS`` elements, which
        bounds the stacked projection arrays a VE block holds at once.
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

    def format_elements(self, line_format: Callable[[int, np.ndarray], Any],
                        columns: Callable[[np.ndarray, np.ndarray], list[np.ndarray]]) -> str:
        """One formatted text line per element, in element-list order.

        Each ``vertex_groups`` block of ``n_v``-vertex elements is formatted at
        once: ``line_format(n_v, positions)`` (one format, or one per element)
        ``%`` the integers ``columns(positions, vertices)`` (one (m,) or (m, k)
        array per field, row by row).
        """
        lines = np.empty(self.n_elements, dtype=object)
        for n_v, (pos, verts) in self.vertex_groups.items():
            fmt = line_format(n_v, pos)
            fmt = fmt * len(pos) if isinstance(fmt, str) else "".join(fmt.tolist())
            text = fmt % tuple(np.column_stack(columns(pos, verts)).ravel().tolist())
            lines[pos] = np.array(text.splitlines(keepends=True), dtype=object)
        return "".join(lines.tolist())

    @cached_property
    def element_areas(self) -> np.ndarray:
        """Signed shoelace area of every element, by position in ``elements``."""
        areas = np.empty(self.n_elements)
        for pos, verts in self.vertex_groups.values():
            areas[pos] = shoelace_areas(self.coords[verts])
        return areas

    @cached_property
    def node_components(self) -> tuple[int, np.ndarray]:
        """Connected components of the node graph whose edges are ``edges``: count, label per node."""
        n = self.n_nodes
        graph = sp.coo_matrix((np.ones(len(self.edges)), (self.edges[:, 0], self.edges[:, 1])),
                              shape=(n, n))
        return connected_components(graph, directed=False)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """The report of ``validate_mesh``; computed once, as the mesh does not change."""
        return tuple(_violations(self))

    @cached_property
    def dissection_order(self) -> np.ndarray:
        """Nested-dissection elimination order of the nodes (see ``_dissection_order``)."""
        return _dissection_order(self.coords, [verts for _, verts in self.vertex_groups.values()])


# Node sets of at most this many nodes are not split.  Measured on the
# sandwich and fcbga meshes, 16 gives less LU fill than 64 at every level
# (fcbga L1 mechanical: 283 k vs 366 k; COLAMD 300 k) at the same factor time.
_DISSECTION_LEAF = 16


def _dissection_order(coords: np.ndarray, vertex_blocks: list[np.ndarray]) -> np.ndarray:
    """Geometric nested-dissection order of the nodes (George, SIAM J. Numer. Anal. 1973).

    A node set is split at the median coordinate of its longer bounding-box
    axis: nodes below the median go left (at or below it when none is
    below).  Every element with live vertices on both sides puts its left
    ones into the separator, which is ordered after both halves; a half sees
    each element through its own vertices only, so every separator cuts the
    matrix graph, Q4 diagonals and polygon chords included.  Sets of at most
    ``_DISSECTION_LEAF`` nodes, or that cannot be split, are leaves.  Leaves
    and separators keep node-id order.  All sets of one recursion depth are
    split together, one array pass per element block.
    """
    n = len(coords)
    node_set = np.zeros(n, dtype=np.int64)   # live set of each node; -1 once placed
    placed_in = np.zeros(n, dtype=np.int64)  # the set a node is a leaf or separator node of
    children: list[tuple[int, int] | None] = [None]
    while True:
        live = np.flatnonzero(node_set >= 0)
        if not live.size:
            break
        live = live[np.argsort(node_set[live], kind="stable")]
        sets, start, size = np.unique(node_set[live], return_index=True, return_counts=True)
        group = np.repeat(np.arange(sets.size), size)
        pts = coords[live]
        span = np.maximum.reduceat(pts, start) - np.minimum.reduceat(pts, start)
        value = pts[np.arange(live.size), (span[:, 1] > span[:, 0]).astype(np.int64)[group]]
        ranked = value[np.lexsort((value, group))]
        median = (ranked[start + (size - 1) // 2] + ranked[start + size // 2]) / 2
        left = value < median[group]
        none_left = np.bincount(group, weights=left, minlength=sets.size) == 0
        left |= none_left[group] & (value <= median[group])
        n_left = np.bincount(group, weights=left, minlength=sets.size)
        split = (size > _DISSECTION_LEAF) & (n_left > 0) & (n_left < size)

        leaf = live[~split[group]]
        placed_in[leaf] = node_set[leaf]
        node_set[leaf] = -1
        side = np.zeros(n, dtype=np.int8)   # 1 left, 2 right, 0 placed
        cut = split[group]
        side[live[cut]] = np.where(left[cut], 1, 2)
        separator = [np.zeros(0, dtype=np.int64)]
        for verts in vertex_blocks:
            sides = side[verts]
            on_left = sides == 1
            crossing = on_left.any(axis=1) & (sides == 2).any(axis=1)
            separator.append(verts[crossing][on_left[crossing]])
        separator = np.unique(np.concatenate(separator))
        placed_in[separator] = node_set[separator]
        node_set[separator] = -1
        side[separator] = 0

        first_child = np.full(len(children), -1, dtype=np.int64)
        parents = sets[split]
        first_child[parents] = len(children) + 2 * np.arange(parents.size)
        for p, c in zip(parents.tolist(), first_child[parents].tolist()):
            children[p] = (c, c + 1)
        children.extend([None] * (2 * parents.size))
        moved = np.flatnonzero(side)
        node_set[moved] = first_child[node_set[moved]] + side[moved] - 1

    # Post-order of the set tree: both halves of a set, then the set's own nodes.
    rank = np.empty(len(children), dtype=np.int64)
    stack, k = [(0, False)], 0
    while stack:
        s, expanded = stack.pop()
        if expanded or children[s] is None:
            rank[s] = k
            k += 1
        else:
            stack += [(s, True), (children[s][1], False), (children[s][0], False)]
    return np.argsort(rank[placed_in], kind="stable")


def find_interface_nodes(mesh: Mesh) -> set[int]:
    """Nodes on edges shared by exactly one FE and one VE element."""
    fe_sides = np.bincount(mesh.side_edge[mesh.element_fe[mesh.side_element]],
                           minlength=len(mesh.edges))
    return set(np.unique(mesh.edges[(mesh.edge_counts == 2) & (fe_sides == 1)]).tolist())


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
    ("degenerate", "element {id}: area {area:g} is zero to rounding"),
    ("self-intersection", "element {id}: edges {i} and {j} cross"),
    ("fe-quad-convexity", "element {id}: FE_QUAD not strictly convex at node {node}"),
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
    checks.  An area within its rounding error (every vertex on one line)
    would make the elastic projection singular.  An FE quad must turn left
    at every corner: a strictly convex bilinear quad has det J > 0 on the
    whole reference square, so the Q4 kernels and the probes' inverse map
    never meet a singular Jacobian.
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
        reflex = np.zeros(m, dtype=np.int64)   # first corner that does not turn left
        step = max(1, _CHECK_CHUNK // max(1, n_v, len(pairs)))
        for s in range(0, live.size, step):
            rows = live[s:s + step]
            coords = mesh.coords[verts[rows]]
            areas[rows] = shoelace_areas(coords)
            crossing[rows] = _first_crossings(coords, pairs)
            straight = _orient(np.roll(coords, 1, axis=1), coords,
                               np.roll(coords, -1, axis=1)) <= 0.0
            reflex[rows] = straight.argmax(axis=1)
            failed[rows] = np.select(
                [areas[rows] <= 0.0,
                 _edges(coords)[2],
                 areas[rows] <= _area_rounding(coords),
                 crossing[rows] >= 0,
                 mesh.element_fe[pos[rows]] & straight.any(axis=1)],
                [4, 5, 6, 7, 8], -1)
        for r in np.flatnonzero(failed >= 0).tolist():
            code, text = _ELEMENT_CHECKS[failed[r]]
            i, j = pairs[crossing[r]].tolist() if crossing[r] >= 0 else (None, None)
            p = int(pos[r])
            out[p] = Violation(code, text.format(id=p, n_v=n_v,
                                                 area=float(areas[r]), i=i, j=j,
                                                 node=int(verts[r, reflex[r]])))
    return out


def validate_mesh(mesh: Mesh) -> list[Violation]:
    """Check every mesh invariant; returns an empty list iff the mesh is valid.

    Element ids must equal list positions, as a node's id is its row of
    ``coords``; the first element that breaks this is reported once, first.
    Elements are then reported in list order, each under its first failed
    check.  The report is computed once per mesh (``Mesh.violations``).
    """
    return list(mesh.violations)


def require_valid(mesh: Mesh, materials: dict) -> None:
    """The gate in front of every element kernel: MeshError with the first message of
    ``validate_mesh``, then AssemblyError when a region has no entry in ``materials``."""
    report = validate_mesh(mesh)
    if report:
        raise MeshError(report[0].message)
    missing = sorted(mesh.regions() - materials.keys())
    if missing:
        raise AssemblyError(f"mesh regions without material blocks: {missing}")


def _violations(mesh: Mesh) -> list[Violation]:
    report: list[Violation] = []
    n_nodes = mesh.n_nodes

    for p, element in enumerate(mesh.elements):
        if element.id != p:
            report.append(Violation("element-ids",
                                    f"element ids not dense: position {p} holds id {element.id}"))
            break
    if not mesh.elements:
        report.append(Violation("no-elements", "mesh has no elements"))
    if not np.all(np.isfinite(mesh.coords)):
        bad = np.where(~np.isfinite(mesh.coords).all(axis=1))[0]
        report.append(Violation("node-coords", f"non-finite coordinates at nodes {bad.tolist()}"))
        return report

    flawed = _element_violations(mesh)
    report.extend(flawed[p] for p in sorted(flawed))

    shared = np.flatnonzero(mesh.edge_counts > 2)
    if shared.size:
        owners, start = mesh.edge_owners()
        for k in shared.tolist():
            (a, b), n = mesh.edges[k].tolist(), int(mesh.edge_counts[k])
            ids = owners[start[k]:start[k] + n].tolist()
            report.append(Violation("edge-sharing", f"edge ({a},{b}) shared by {n} elements {ids}"))

    orphan = mesh.edge_index(list(mesh.boundary_edges)) < 0
    for (a, b), lost in zip(mesh.boundary_edges, orphan.tolist()):
        if a >= n_nodes or b >= n_nodes:
            report.append(Violation("bedge-nodes", f"labeled edge ({a},{b}) references missing node"))
        elif lost:
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

    # Edges of the in-range elements, in order of their first in-range side,
    # that have sides of one kind only and touch a mixed node.
    kept = in_range[mesh.side_element]
    sides = mesh.side_edge[kept]
    n_sides = np.bincount(sides, minlength=len(mesh.edges))
    n_fe = np.bincount(sides[mesh.element_fe[mesh.side_element[kept]]], minlength=len(mesh.edges))
    scan, first = np.unique(sides, return_index=True)
    scan = scan[np.argsort(first)]
    one_kind = (n_fe[scan] == 0) | (n_fe[scan] == n_sides[scan])
    scan = scan[one_kind & mixed[mesh.edges[scan]].any(axis=1)]

    # Nodes of each kind, sorted by x, so each edge scans only the nodes
    # inside its x range.
    candidates = {}
    for fe in (True, False):
        ids = np.flatnonzero(touches[fe])
        ids = ids[np.argsort(mesh.coords[ids, 0], kind="stable")]
        candidates[fe] = (ids, mesh.coords[ids, 0], mesh.coords[ids])

    for k in scan.tolist():
        a, b = mesh.edges[k].tolist()
        edge_fe = bool(n_fe[k])
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


def _structured_grid(width: float, height: float, nx: int, ny: int,
                     kind: ElementKind = ElementKind.FE_QUAD, region: int = 0
                     ) -> tuple[np.ndarray, list[Element], dict[tuple[int, int], str]]:
    """Coordinates, elements and boundary labels of ``generate_structured_quads``."""
    if nx < 1 or ny < 1:
        raise MeshError(f"subdivision counts must be >= 1, got nx={nx} ny={ny}")
    coords = np.column_stack((np.tile(width * np.arange(nx + 1) / nx, ny + 1),
                              np.repeat(height * np.arange(ny + 1) / ny, nx + 1)))
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
    return coords, elements, bedges


def _quarter_turn(n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the n_t + 1 angles (pi / 2) * j / n_t, j = 0..n_t.

    Each value comes from ``math``, so it does not depend on which SIMD
    kernels numpy dispatches to on the host CPU.
    """
    th = (0.5 * math.pi * np.arange(n_t + 1) / n_t).tolist()
    return np.array([math.cos(t) for t in th]), np.array([math.sin(t) for t in th])


def generate_structured_quads(width: float, height: float, nx: int, ny: int,
                              kind: ElementKind = ElementKind.FE_QUAD,
                              region: int = 0) -> Mesh:
    """Regular nx-by-ny grid on [0,width]x[0,height].

    Boundary edge labels: left, right, bottom, top.
    """
    return Mesh(*_structured_grid(width, height, nx, ny, kind, region))


def generate_split_square(width: float, height: float, nx: int, ny: int,
                          split_x: float | None = None) -> Mesh:
    """Structured grid whose left half is FE and right half is VE.

    Cells with midpoint x < split_x (default width/2) are FE_QUAD, the rest
    VE_POLY; the shared node column is the coupling interface.
    """
    if split_x is None:
        split_x = 0.5 * width
    coords, elements, bedges = _structured_grid(width, height, nx, ny)
    mid_x = coords[np.array([e.vertices for e in elements], dtype=np.int64), 0].mean(axis=1)
    elements = [Element(e.id, e.vertices,
                        ElementKind.FE_QUAD if m < split_x else ElementKind.VE_POLY, e.region)
                for e, m in zip(elements, mid_x.tolist())]
    return Mesh(coords, elements, bedges)


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

    r = r_a + (r_b - r_a) * np.arange(n_r + 1) / n_r
    cos, sin = _quarter_turn(n_t)
    coords = np.stack((np.outer(r, cos), np.outer(r, sin)), axis=-1).reshape(-1, 2)
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
    return Mesh(coords, elements, bedges)


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
    if n_t < 1 or n_r_ring < 1 or n_r_outer < 0:
        raise MeshError(f"need n_t >= 1, n_r_ring >= 1 and n_r_outer >= 0, got n_t={n_t} "
                        f"n_r_ring={n_r_ring} n_r_outer={n_r_outer}")
    n_rows = n_r_ring + n_r_outer + 1
    cols = n_t + 1

    # Ring rows on circles; outer rows blend the split circle into the square.
    cos, sin = _quarter_turn(n_t)
    r = hole_radius + (split_radius - hole_radius) * np.arange(n_r_ring + 1) / n_r_ring
    scale = size / np.maximum(cos, sin)
    s = (np.arange(n_r_ring + 1, n_rows) - n_r_ring)[:, None] / n_r_outer
    x = np.vstack((np.outer(r, cos), (1 - s) * split_radius * cos + s * (scale * cos)))
    y = np.vstack((np.outer(r, sin), (1 - s) * split_radius * sin + s * (scale * sin)))
    coords = np.stack((x, y), axis=-1).reshape(-1, 2)

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
        mx, my = 0.5 * (coords[o0] + coords[o0 + 1])
        bedges[_edge_key(o0, o0 + 1)] = "right" if mx > my else "top"
    for i in range(n_rows - 1):
        bedges[_edge_key(i * cols, (i + 1) * cols)] = "bottom"
        t0 = i * cols + n_t
        bedges[_edge_key(t0, t0 + cols)] = "left"
    return Mesh(coords, elements, bedges)


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
                cells.append((j * (nx + 1) + i, tag[0], tag[1]))

    # Grid corner (i, j) has key j * (nx + 1) + i, a cell that of its lower-left
    # corner; nodes are numbered in order of first use by the kept cells' corners.
    corners = np.array([c[0] for c in cells], dtype=np.int64)[:, None] + [0, 1, nx + 2, nx + 1]
    keys, node_of_key, verts = _first_use(corners)
    j_of, i_of = np.divmod(keys[np.argsort(node_of_key)], nx + 1)
    coords = np.column_stack((np.asarray(xs, dtype=float)[i_of], np.asarray(ys, dtype=float)[j_of]))
    elements = [Element(eid, tuple(v), kind, region)
                for eid, (v, (_, region, kind)) in enumerate(zip(verts.tolist(), cells))]
    mesh = Mesh(coords, elements)

    # Labels come from the mesh's own edge table, so they are set after
    # construction; the callbacks see only boundary and region-change edges.
    count = mesh.edge_counts
    owners, start = mesh.edge_owners()
    r0 = mesh.element_regions[owners[start]]
    r1 = mesh.element_regions[owners[start + count - 1]]
    boundary = (count == 1) & (label_of is not None)
    interface = (count == 2) & (r0 != r1) & (interior_label_of is not None)
    bedges: dict[tuple[int, int], str] = {}
    labeled = np.flatnonzero(boundary | interface)
    ends = mesh.edges[labeled]
    mids = 0.5 * (mesh.coords[ends[:, 0]] + mesh.coords[ends[:, 1]])
    for k, (a, b), (mx, my) in zip(labeled.tolist(), ends.tolist(), mids.tolist()):
        lab = (label_of(mx, my) if boundary[k]
               else interior_label_of(int(r0[k]), int(r1[k]), mx, my))
        if lab is not None:
            bedges[(a, b)] = lab
    mesh.boundary_edges = bedges
    return mesh


def subdivided(breaks: Sequence[float], cells_per_span: Sequence[int]) -> list[float]:
    """Expand layer breakpoints into grid lines with per-layer cell counts."""
    out = [float(breaks[0])]
    for k, n in enumerate(cells_per_span):
        a, b = breaks[k], breaks[k + 1]
        for i in range(1, n + 1):
            out.append(a + (b - a) * i / n)
    return out


def _level_scale(level: int) -> int:
    """Cells per base cell of a generator refinement ``level``: 2 ** level."""
    if level < 0:
        raise ParseError(f"level must be >= 0, got {level}")
    return 2 ** level


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
    s = _level_scale(level)
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
    s = _level_scale(level)
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
    s = _level_scale(level)
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
    def elem_format(n_v: int, pos: np.ndarray) -> np.ndarray:
        rest = f" %d {n_v}" + " %d" * n_v + "\n"
        return np.where(mesh.element_fe[pos], f"elem %d {ElementKind.FE_QUAD.value}{rest}",
                        f"elem %d {ElementKind.VE_POLY.value}{rest}")

    edges = sorted(mesh.boundary_edges)
    return "".join((
        f"{FORMAT_HEADER}\n",
        ("node %s %r %r\n" * mesh.n_nodes) % tuple(
            v for i, (x, y) in enumerate(mesh.coords.tolist()) for v in (i, x, y)),
        mesh.format_elements(elem_format, lambda pos, verts: [
            pos, mesh.element_regions[pos], verts]),
        ("bedge %s %s %s\n" * len(edges)) % tuple(
            v for a, b in edges for v in (mesh.boundary_edges[(a, b)], a, b))))


def save_mesh(mesh: Mesh, path: str) -> None:
    """Write the line-oriented mesh format (see load_mesh)."""
    with open(path, "w") as f:
        f.write(mesh_text(mesh))


def _int64(token: str) -> int:
    """An integer record field; ids, regions and node ids are stored as int64."""
    if not -2 ** 63 <= (value := int(token)) < 2 ** 63:
        raise ValueError(f"integer {token} outside the int64 range")
    return value


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

    nodes: dict[int, tuple[float, float]] = {}
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
                nid = _int64(tok[1])
                if nid in nodes:
                    raise ValueError(f"duplicate node id {nid}")
                nodes[nid] = (float(tok[2]), float(tok[3]))
            elif tok[0] == "elem":
                eid = _int64(tok[1])
                if eid in elements:
                    raise ValueError(f"duplicate element id {eid}")
                try:
                    kind = ElementKind(tok[2])
                except ValueError:
                    raise ValueError(f"unknown element kind '{tok[2]}' (expected FE or VE)")
                region = _int64(tok[3])
                nv = int(tok[4])
                verts = tuple(_int64(t) for t in tok[5:])
                if len(verts) != nv:
                    raise ValueError(f"element {eid}: declared {nv} vertices, found {len(verts)}")
                elements[eid] = Element(eid, verts, kind, region)
            elif tok[0] == "bedge":
                if len(tok) != 4:
                    raise ValueError("bedge record needs: bedge <label> <n0> <n1>")
                bedges[_edge_key(_int64(tok[2]), _int64(tok[3]))] = tok[1]
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
