"""Mesh data model, geometry helpers, validation, generators and file I/O.

A mesh is a coordinate array, whose row i is node i, plus a table of mixed
quadrilateral/polygon elements (vertices, kind, region), each named by its
position.  The kind is a discretization tag: ``FE_QUAD`` elements are handled
by the four-node quadrilateral kernel, ``VE_POLY`` elements by the polygonal
kernel.  Elements of the two kinds may only meet along edges whose end nodes
are shared (coincident interface nodes); the set of such nodes is computed
once and stored on the mesh.

Edge topology is built once per mesh as arrays (``Mesh.edges`` and, per
element side, ``side_element`` / ``side_edge``); every edge reader uses them
and reads element data by position.  These and every other index table of a
mesh (vertex groups, edge lookup, ``node_pattern``) are int32 whenever the
largest value they store fits it, else int64 (``index_dtype``); region ids
are int64.

The mesh build groups the elements once by kind and vertex count
(``Mesh.vertex_groups``, keyed ``(is_fe, n_v)``): each group is a stack of
one kernel, and no reader splits it again.  ``Mesh.element_windows`` alone
decides which rows of the groups one kernel call takes: windows of at most
1 024 positions, ended early where a VE block would pass ``STACK_ENTRIES``
element-matrix entries.

``validate_mesh`` is the one definition of a valid mesh: every element a
simple counter-clockwise polygon, every FE quad strictly convex.  The
assembly, stress recovery and probes pass ``require_valid`` before any
element kernel, so the kernels check nothing themselves.

All lengths are millimetres.  Vertex order is counter-clockwise everywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import AssemblyError, FevecError, MeshError, ParseError


class ElementKind(Enum):
    FE_QUAD = "FE"
    VE_POLY = "VE"


@dataclass(frozen=True)
class Element:
    id: int   # the element's position in ``Mesh.elements``
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

    # the largest vertex distance, over the vertex pairs d = 1 .. n_v - 1 apart
    h2 = np.zeros(len(coords))
    for d in range(1, coords.shape[1]):
        diffs = coords[:, d:] - coords[:, :-d]
        np.maximum(h2, (diffs ** 2).sum(axis=2).max(axis=1), out=h2)
    h = np.sqrt(h2)

    # Outward normal of a CCW edge is the tangent rotated -90 degrees.
    normals = np.stack((deltas[..., 1], -deltas[..., 0]), axis=-1) / lengths[..., None]
    return PolygonStack(centroid=np.column_stack((cx, cy)), area=areas, h=h,
                        edge_normals=normals, edge_lengths=lengths)


_BLOCK_ROWS = 1 << 10   # see Mesh.element_windows
# Element-matrix entries of one stacked VE kernel call at most: the bound on its scratch.
STACK_ENTRIES = 1 << 14


def _edge_labels(entries: Iterable[tuple[Any, Any]]) -> dict[tuple[int, int], str]:
    """Labeled edges keyed by sorted node pair, from ``(node pair, label)`` entries.

    A label is one token of the mesh file: a non-empty str with no
    whitespace and no ``#``, which starts a comment there.  MeshError names
    the first entry whose key is not two int64 integers other than ``bool``
    or whose label is not such a token.
    """
    out: dict[tuple[int, int], str] = {}
    for key, label in entries:
        try:
            a, b = key
            if isinstance(a, bool) or isinstance(b, bool) or not isinstance(label, str):
                raise TypeError
            a, b = operator.index(a), operator.index(b)
        except (TypeError, ValueError):
            raise MeshError(f"labeled edge {key!r}: {label!r} must map two integer node ids "
                            "to a str label") from None
        if not -2 ** 63 <= min(a, b) <= max(a, b) < 2 ** 63:
            raise MeshError(f"labeled edge {key!r}: node ids must be int64 integers")
        if label.split() != [label] or "#" in label:
            raise MeshError(f"labeled edge {key!r}: label {label!r} must be non-empty, "
                            "without whitespace or '#'")
        out[(a, b) if a < b else (b, a)] = label
    return out


_INT32 = np.iinfo(np.int32)


def index_dtype(*values: int) -> np.dtype:
    """The width of an index table: int32 when every one of ``values``, the
    extremes it stores, fits int32, else int64.

    The one rule for every index table of a mesh and of the stages that
    index through them (assembly places, evaluator buckets).
    """
    fits = all(_INT32.min <= int(v) <= _INT32.max for v in values)
    return np.dtype(np.int32 if fits else np.int64)


def _first_use(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the distinct values of ``keys`` in order of first use.

    Returns the sorted distinct values, the number of each, and the number
    of every entry of ``keys`` (shaped like ``keys``); the numbers are
    ``index_dtype`` of their count.
    """
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    number = np.empty(first.size, dtype=index_dtype(first.size))
    number[np.argsort(first)] = np.arange(first.size)
    return distinct, number, number[inverse].reshape(keys.shape)


def _integers(items, what: str, count: int = -1) -> np.ndarray:
    """``items`` as a flat integer array; MeshError naming ``what`` unless every item is
    an integer other than ``bool`` in the int64 range.

    An int array is taken as it is.  Any other ``items``, a sequence or a
    function giving a new iterator over ``count`` items, is streamed twice:
    once for the items' types and once into an int64 array, so no list of
    them is made.
    """
    if isinstance(items, np.ndarray) and items.dtype.kind in "iu":
        if items.dtype.kind == "u" and items.size and items.max() > np.iinfo(np.int64).max:
            raise MeshError(f"{what} must be int64 integers, got {items.max()}")
        return items.ravel()
    stream = items if callable(items) else items.__iter__
    wrong = [t for t in set(map(type, stream()))
             if not issubclass(t, (int, np.integer)) or issubclass(t, bool)]
    if wrong:
        bad = next(v for v in stream() if type(v) in wrong)
        raise MeshError(f"{what} must be integers, got {bad!r}")
    try:
        return np.fromiter(stream(), dtype=np.int64, count=count)
    except OverflowError:
        raise MeshError(f"{what} must be int64 integers, got {max(stream(), key=abs)}") from None


def _flat_vertices(vertices) -> tuple[np.ndarray, np.ndarray]:
    """Vertex count of every element and all vertex ids in one flat array, element by element.

    The ids are ``index_dtype`` of their extremes.  An (m, n_v) array is
    flattened as it is; any other table is read item by item.  Read item by
    item, an array yields one numpy scalar per id, which made building the
    level-3 sandwich and cylinder meshes from their generators' arrays take
    50-95 ms instead of 22-32 ms (best of 15, 2-core x86-64 host), slower
    than grouping them row by row.
    """
    if isinstance(vertices, np.ndarray) and vertices.ndim == 2:
        n_v = np.full(len(vertices), vertices.shape[1], dtype=np.int64)
        flat = _integers(vertices.ravel(), "vertex ids")
    else:
        try:
            n_v = np.fromiter(map(len, vertices), dtype=np.int64, count=len(vertices))
        except TypeError:
            raise MeshError("vertices must list a sequence of vertex ids per element") from None
        flat = _integers(lambda: itertools.chain.from_iterable(vertices), "vertex ids",
                         int(n_v.sum()))
    return n_v, flat.astype(index_dtype(flat.min(initial=0), flat.max(initial=0)), copy=False)


def _group_sides(fe: np.ndarray, n_v: np.ndarray, flat: np.ndarray, ends: np.ndarray
                 ) -> tuple[dict[tuple[bool, int], tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """The vertex groups of an element table in ``_flat_vertices`` form, and a key per side.

    Groups map (is_fe, n_v) -> (positions in increasing order, (m, n_v) vertex
    ids), read from the flat table at each element's offset: the elements one
    kernel takes in a stack.  They are ordered by n_v, FE before VE.  A side
    (vertex i to i+1, cyclic) is keyed by the ranks in ``ends``, the sorted
    vertex ids, of its sorted end nodes: ``rank(low) * ends.size + rank(high)``.
    Keys are in element order: side i of the element at position p is entry
    ``start[p] + i``, start the offset of p.  Positions and keys are
    ``index_dtype`` of their largest value.
    """
    groups: dict[tuple[bool, int], tuple[np.ndarray, np.ndarray]] = {}
    start = np.cumsum(n_v) - n_v
    key = np.empty(flat.size, dtype=index_dtype(ends.size ** 2))
    position = index_dtype(n_v.size)
    kind = 2 * n_v + ~fe          # one code per element: n_v first, then FE (even) before VE
    for code in np.unique(kind).tolist():
        count, ve = divmod(code, 2)
        pos = np.flatnonzero(kind == code).astype(position)
        rows = start[pos, None] + np.arange(count)
        verts = flat[rows]
        groups[not ve, count] = (pos, verts)
        following = np.roll(verts, -1, axis=1)
        key[rows] = np.searchsorted(ends, np.minimum(verts, following)) * ends.size
        key[rows] += np.searchsorted(ends, np.maximum(verts, following))
    return groups, key


class Mesh:
    """Immutable-after-construction mesh with precomputed adjacency.

    ``coords`` is the node table: node i is row i of the (n, 2) array.  The
    element table is three inputs indexed by element position: ``vertices``
    (vertex sequences, or an (m, n_v) int array), ``kinds`` and ``regions``.
    ``boundary_edges`` maps a pair of int64 node ids, in either order, to
    a label string; it is stored keyed by the sorted pair.
    Labels name edge sets for boundary conditions; labels on interior edges
    are allowed (used for embedded Dirichlet surfaces) but flux/traction may
    only be applied to true boundary edges.  ``vertex_groups`` maps
    (is_fe, n_v) to the positions and (m, n_v) vertex ids of the elements of
    that kind and vertex count (see ``_group_sides``).
    """

    def __init__(self, coords, vertices: Sequence[Sequence[int]], kinds: Sequence[ElementKind],
                 regions: Sequence[int], boundary_edges: dict[tuple[int, int], str] | None = None):
        try:
            coords = np.array(coords, dtype=float)
        except (TypeError, ValueError) as exc:
            raise MeshError(f"node coordinates must form an (n, 2) table of numbers: {exc}") from exc
        if coords.shape == (0,):        # no nodes at all
            coords = coords.reshape(0, 2)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise MeshError(f"node coordinates must form an (n, 2) table, got shape {coords.shape}")
        self.coords: np.ndarray = coords
        self.boundary_edges = _edge_labels((boundary_edges or {}).items())
        if not len(vertices) == len(kinds) == len(regions):
            raise MeshError("element table inputs differ in length: vertices, kinds, regions")

        # Per-element arrays; index = position in the element table.
        kinds = np.fromiter(kinds, dtype=object, count=len(kinds))
        self.element_fe: np.ndarray = kinds == ElementKind.FE_QUAD
        if not (self.element_fe | (kinds == ElementKind.VE_POLY)).all():
            raise MeshError("element kinds must be ElementKind members")
        self.element_regions = _integers(regions, "element regions").astype(np.int64)
        n_v, flat = _flat_vertices(vertices)
        # Every vertex id ends a side, so each side has an exact key from the
        # ranks of its sorted end nodes among them.
        ends = np.unique(flat)
        self.vertex_groups, side_key = _group_sides(self.element_fe, n_v, flat, ends)

        # Edge table: ``side_element`` and ``side_edge`` give each side's element
        # position and edge; ``edges`` are the distinct sorted node pairs,
        # numbered in order of first appearance.
        self.side_element: np.ndarray = np.repeat(
            np.arange(n_v.size, dtype=index_dtype(n_v.size)), n_v)
        keys, edge_of_key, self.side_edge = _first_use(side_key)
        del side_key
        self.edges = np.empty((keys.size, 2), dtype=flat.dtype)
        self.edges[edge_of_key] = ends[np.column_stack(np.divmod(keys, ends.size))]
        self.edge_counts: np.ndarray = np.bincount(self.side_edge, minlength=keys.size).astype(
            index_dtype(flat.size))
        self._edge_lookup = (ends, keys, edge_of_key)
        self.interface_nodes: set[int] = find_interface_nodes(self)

    @property
    def n_nodes(self) -> int:
        return len(self.coords)

    @property
    def n_elements(self) -> int:
        return self.element_fe.size

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """The element table as records, built on first read; no pipeline stage reads it."""
        incidence = self.incidence()
        ids, bounds = incidence.indices.tolist(), incidence.indptr.tolist()
        vertices = [tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:])]
        kinds = np.where(self.element_fe, ElementKind.FE_QUAD, ElementKind.VE_POLY).tolist()
        return tuple(map(Element, range(self.n_elements), vertices, kinds,
                         self.element_regions.tolist()))

    def edge_index(self, pairs) -> np.ndarray:
        """Index in ``edges`` of each node pair (either order), -1 where no element has it."""
        pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
        ends, keys, edge_of_key = self._edge_lookup
        if not keys.size:
            return np.full(len(pairs), -1, dtype=edge_of_key.dtype)
        # Searched in the tables' own widths, so that numpy makes no wider copy
        # of them; an id beyond the vertex ids' width has no edge anyway.
        width = np.iinfo(ends.dtype)
        rank = np.searchsorted(ends, pairs.clip(width.min, width.max).astype(ends.dtype))
        rank = rank.clip(max=ends.size - 1)
        key = (rank[:, 0] * ends.size + rank[:, 1]).astype(keys.dtype)
        k = np.searchsorted(keys, key).clip(max=keys.size - 1)
        return np.where((ends[rank] == pairs).all(axis=1) & (keys[k] == key), edge_of_key[k], -1)

    def off_boundary(self, pairs) -> np.ndarray:
        """Whether each node pair (either order) is not the side of exactly one element,
        where no flux or traction may act; a pair of no element reads the appended 0."""
        return np.append(self.edge_counts, 0)[self.edge_index(pairs)] != 1

    def edge_owners(self) -> tuple[np.ndarray, np.ndarray]:
        """Element positions of all sides grouped by edge, and where each edge starts:
        edge k's owners, one per side in list order, are ``owners[start[k]:][:edge_counts[k]]``."""
        start = np.cumsum(self.edge_counts) - self.edge_counts
        return self.side_element[np.argsort(self.side_edge, kind="stable")], start

    def edges_with_label(self, label: str) -> list[tuple[int, int]]:
        return sorted(k for k, lab in self.boundary_edges.items() if lab == label)

    def nodes_with_label(self, label: str) -> list[int]:
        return sorted({node for edge in self.edges_with_label(label) for node in edge})

    def labels(self) -> set[str]:
        return set(self.boundary_edges.values())

    def regions(self) -> set[int]:
        return set(np.unique(self.element_regions).tolist())

    def element_windows(self, dofs_per_node: int = 1
                        ) -> Iterator[list[tuple[bool, np.ndarray, np.ndarray]]]:
        """Blocks ``(is_fe, positions, (m, n_v) vertices)`` of each window of consecutive
        positions, in order: the non-empty ``_group_rows`` of the window.  A window ends
        every ``_BLOCK_ROWS`` positions and before each element of rank k * rows in its VE
        group there (k >= 1), ``rows`` polygons making ``STACK_ENTRIES`` element-matrix entries
        at ``dofs_per_node``: no VE block passes them."""
        for start in range(0, self.n_elements, _BLOCK_ROWS):
            cuts = {start, start + _BLOCK_ROWS}
            for is_fe, pos, verts in self._group_rows(start, start + _BLOCK_ROWS):
                if not is_fe:
                    rows = max(STACK_ENTRIES // (dofs_per_node * verts.shape[1]) ** 2, 1)
                    cuts.update(pos[rows::rows].tolist())
            for first, last in itertools.pairwise(sorted(cuts)):
                yield [block for block in self._group_rows(first, last) if block[1].size]

    def _group_rows(self, start: int, stop: int) -> Iterator[tuple[bool, np.ndarray, np.ndarray]]:
        """``(is_fe, positions, (m, n_v) vertices)`` of each group's elements at positions in
        [start, stop), in group order: views of ``vertex_groups``, searched in their own
        widths (no wider copy)."""
        for (is_fe, _), (group, verts) in self.vertex_groups.items():
            first, last = np.searchsorted(group, np.array((start, stop), dtype=group.dtype))
            yield is_fe, group[first:last], verts[first:last]

    @cached_property
    def element_areas(self) -> np.ndarray:
        """Signed shoelace area of every element, by position."""
        areas = np.empty(self.n_elements)
        for _, pos, verts in itertools.chain.from_iterable(self.element_windows()):
            areas[pos] = shoelace_areas(self.coords[verts])
        return areas

    @cached_property
    def node_components(self) -> tuple[int, np.ndarray]:
        """Connected parts of the graph of ``edges``: count, label per node.

        An element's sides join its vertices in a cycle, so these are the
        parts of ``node_pattern``, labelled alike (scipy numbers the parts in
        order of their first node), from about a quarter of its entries.
        """
        n, first = self.n_nodes, self.edges[:, 0]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(first, minlength=n))))
        indptr = indptr.astype(index_dtype(first.size))   # scipy then widens no array
        graph = sp.csr_array((np.ones(first.size), self.edges[np.argsort(first, kind="stable"), 1],
                              indptr), shape=(n, n))
        return connected_components(graph, directed=False)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """The report of ``validate_mesh``; computed once, as the mesh does not change."""
        return tuple(_violations(self))

    @cached_property
    def node_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR structure ``(indptr, indices)`` of the node pairs that share an element.

        Row i lists, in increasing order, every node that shares an element
        with node i, i itself included: the sparsity pattern of a scalar
        field's matrix, and with 2 x 2 blocks of a vector field's.  It is
        the structure of the boolean product of ``incidence()`` with its
        transpose, whose rows scipy builds and sorts one at a time; no array
        of all vertex pairs is made.  Computed once per mesh, in
        ``index_dtype``; scipy's arrays are kept when they have it.
        """
        incidence = self.incidence()
        pattern = incidence.T.tocsr() @ incidence
        del incidence
        pattern.sort_indices()
        dtype = index_dtype(self.n_nodes, pattern.nnz)
        return pattern.indptr.astype(dtype, copy=False), pattern.indices.astype(dtype, copy=False)

    def incidence(self) -> sp.csr_array:
        """Boolean element x node incidence: row p holds the vertex ids of the
        element at position p, in vertex order.  Built on each call."""
        n_v = np.bincount(self.side_element, minlength=self.n_elements)
        indptr = np.concatenate(([0], np.cumsum(n_v))).astype(index_dtype(self.side_element.size))
        flat = np.empty(indptr[-1], dtype=self.edges.dtype)     # vertex ids, as edges holds them
        for pos, verts in self.vertex_groups.values():
            flat[indptr[pos, None] + np.arange(verts.shape[1])] = verts
        return sp.csr_array((np.ones(flat.size, dtype=bool), flat, indptr),
                            shape=(self.n_elements, self.n_nodes))

    def _node_graph(self) -> sp.csr_array:
        """``node_pattern`` as a boolean CSR array on its cached arrays."""
        indptr, indices = self.node_pattern
        return sp.csr_array((np.ones(indices.size, dtype=bool), indices, indptr),
                            shape=(self.n_nodes, self.n_nodes))

    def node_slots(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Position in ``node_pattern``'s ``indices`` of each (row, column) node pair.

        Every pair must be in the pattern.  A binary search within each row's
        sorted columns, all pairs at once, so no pattern-sized array is made;
        the positions are in the pattern's dtype.
        """
        indptr, indices = self.node_pattern
        slot, last = np.take(indptr, rows), np.take(indptr, rows + 1) - 1
        n = int((last - slot).max(initial=-1)) + 1      # the longest row searched
        # The answer lies in [slot, slot + n]; past its row's end a column reads
        # as the row's last, which is not below the column sought.
        while n > 1:
            half = n >> 1
            mid = slot + half
            slot = np.where(np.take(indices, np.minimum(mid, last)) < cols, mid, slot)
            n -= half
        return slot + (np.take(indices, slot) < cols)

    @cached_property
    def dissection_order(self) -> np.ndarray:
        """Nested-dissection elimination order of the nodes (see ``_dissection_order``)."""
        return _dissection_order(self.coords, self._node_graph()).astype(index_dtype(self.n_nodes))


# Node sets of at most this many nodes are not split.  Measured on the
# sandwich and fcbga meshes, 16 gives less LU fill than 64 at every level
# (fcbga L1 mechanical: 283 k vs 366 k; COLAMD 300 k) at the same factor time.
_DISSECTION_LEAF = 16


def _dissection_order(coords: np.ndarray, graph: sp.csr_array) -> np.ndarray:
    """Geometric nested-dissection order of the nodes (George, SIAM J. Numer. Anal. 1973).

    ``graph`` is the boolean node graph of ``Mesh.node_pattern``: two nodes
    are neighbours when they share an element.  A node set is split at the
    median coordinate of its longer bounding-box axis: nodes below the
    median go left (at or below it when none is below).  Every left node
    with a right neighbour goes into the separator, which is ordered after
    both halves; the graph is the matrix graph, Q4 diagonals and polygon
    chords included, so every separator cuts it.  Sets of at most
    ``_DISSECTION_LEAF`` nodes, or that cannot be split, are leaves.  Leaves
    and separators keep node-id order.  All sets of one recursion depth are
    split together, with one sparse product of the graph.
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
        separator = np.flatnonzero((side == 1) & (graph @ (side == 2)))
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
    """The first failed check of every flawed element, keyed by its position.

    Each vertex group is checked in one array pass (the geometry in
    row chunks); coordinates are read only for rows that pass the vertex-id
    checks.  An area within its rounding error (every vertex on one line)
    would make the elastic projection singular.  An FE quad must turn left
    at every corner: a strictly convex bilinear quad has det J > 0 on the
    whole reference square, so the Q4 kernels and the probes' inverse map
    never meet a singular Jacobian.
    """
    out: dict[int, Violation] = {}
    for (is_fe, n_v), (pos, verts) in mesh.vertex_groups.items():
        m = pos.size
        pairs = _edge_pairs(n_v)
        srt = np.sort(verts, axis=1)
        failed = np.select(
            [((verts < 0) | (verts >= mesh.n_nodes)).any(axis=1),
             (srt[:, 1:] == srt[:, :-1]).any(axis=1),
             np.full(m, n_v < 3),
             np.full(m, is_fe and n_v != 4)],
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
                 straight.any(axis=1) & is_fe],
                [4, 5, 6, 7, 8], -1)
        for r in np.flatnonzero(failed >= 0).tolist():
            code, text = _ELEMENT_CHECKS[failed[r]]
            i, j = pairs[crossing[r]].tolist() if crossing[r] >= 0 else (None, None)
            node = int(verts[r, reflex[r]]) if failed[r] == 8 else None
            p = int(pos[r])
            out[p] = Violation(code, text.format(id=p, n_v=n_v, area=float(areas[r]),
                                                 i=i, j=j, node=node))
    return out


def validate_mesh(mesh: Mesh) -> list[Violation]:
    """Check every mesh invariant; returns an empty list iff the mesh is valid.

    Elements are reported in position order, each under its first failed
    check; nodes that no element lists are reported once, with at most ten
    ids.  The report is computed once per mesh (``Mesh.violations``).
    """
    return list(mesh.violations)


def require_valid(mesh: Mesh, materials: dict | None) -> None:
    """The gate in front of every element kernel: MeshError with the first message of
    ``validate_mesh``, then AssemblyError when a region has no entry in ``materials``
    (None for a reader of the mesh alone)."""
    report = validate_mesh(mesh)
    if report:
        raise MeshError(report[0].message)
    missing = [] if materials is None else sorted(mesh.regions() - materials.keys())
    if missing:
        raise AssemblyError(f"mesh regions without material blocks: {missing}")


# The values each node carries in a solved field.
FIELD_SHAPES = {"temperature": (), "displacement": (2,)}


def as_field(mesh: Mesh, name: str, values, finite: bool = True) -> np.ndarray:
    """The one gate for a solved field: ``values`` as a float array of one
    ``FIELD_SHAPES[name]`` row per node of ``mesh``, every value finite where
    ``finite``; FevecError naming the field and its shape otherwise."""
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FevecError(f"{name}: not an array of numbers: {exc}") from None
    shape = (mesh.n_nodes, *FIELD_SHAPES[name])
    if array.shape != shape:
        raise FevecError(f"{name} of shape {array.shape}, expected {shape}: "
                         f"one value per node")
    if finite and not np.isfinite(array).all():
        bad = np.flatnonzero(~np.isfinite(array.reshape(len(array), -1)).all(axis=1))
        raise FevecError(f"{name} of shape {shape}: non-finite values at nodes "
                         f"{bad[:8].tolist()}")
    return array


def _violations(mesh: Mesh) -> list[Violation]:
    report: list[Violation] = []
    n_nodes = mesh.n_nodes

    if not mesh.n_elements:
        report.append(Violation("no-elements", "mesh has no elements"))
    if not np.all(np.isfinite(mesh.coords)):
        bad = np.where(~np.isfinite(mesh.coords).all(axis=1))[0]
        report.append(Violation("node-coords", f"non-finite coordinates at nodes {bad.tolist()}"))
        return report

    flawed = _element_violations(mesh)
    report.extend(flawed[p] for p in sorted(flawed))

    used = np.zeros(n_nodes, dtype=bool)   # without elements, no-elements says it all
    for _, verts in mesh.vertex_groups.values():
        used[verts[(verts >= 0) & (verts < n_nodes)]] = True
    if mesh.n_elements and not used.all():
        report.append(Violation("orphan-nodes",
                                f"nodes without any element: {np.flatnonzero(~used)[:10].tolist()}"))

    shared = np.flatnonzero(mesh.edge_counts > 2)
    if shared.size:
        owners, start = mesh.edge_owners()
        for k in shared.tolist():
            (a, b), n = mesh.edges[k].tolist(), int(mesh.edge_counts[k])
            ids = owners[start[k]:start[k] + n].tolist()
            report.append(Violation("edge-sharing", f"edge ({a},{b}) shared by {n} elements {ids}"))

    orphan = mesh.edge_index(list(mesh.boundary_edges)) < 0
    for (a, b), lost in zip(mesh.boundary_edges, orphan.tolist()):
        if a < 0 or b >= n_nodes:      # keys are sorted, a <= b
            report.append(Violation("bedge-nodes", f"labeled edge ({a},{b}) references missing node"))
        elif lost:
            report.append(Violation("bedge-orphan", f"labeled edge ({a},{b}) is not an edge of any element"))

    report.extend(_check_interface_coincidence(mesh))
    return report


def _run_offsets(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., n-1 for each run length n, concatenated, in ``index_dtype`` of their count."""
    total = int(lengths.sum())
    offsets = np.arange(total, dtype=index_dtype(total))
    offsets -= np.repeat((np.cumsum(lengths) - lengths).astype(offsets.dtype), lengths)
    return offsets


def _check_interface_coincidence(mesh: Mesh) -> list[Violation]:
    """Reject hanging nodes across the FE/VE interface.

    A node of one discretization kind lying strictly inside an edge of the
    other kind breaks the coincident-node coupling assumption.  Hanging
    nodes within the VE region are legal (they appear as extra polygon
    vertices), so only cross-kind pairs are scanned, and only near nodes
    shared by both kinds.  Elements with out-of-range vertex ids (reported
    by the element checks) are left out.
    """
    n_nodes = mesh.n_nodes
    in_range = np.ones(mesh.n_elements, dtype=bool)
    touches = {fe: np.zeros(n_nodes, dtype=bool) for fe in (True, False)}
    for (is_fe, _), (pos, verts) in mesh.vertex_groups.items():
        ok = ((verts >= 0) & (verts < n_nodes)).all(axis=1)
        in_range[pos] = ok
        touches[is_fe][verts[ok]] = True
    mixed = touches[True] & touches[False]
    if not mixed.any():
        return []

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

    # Each scanned edge against the other kind's nodes inside its box: those
    # nodes are sorted by x and by y once per kind, and an edge scans the
    # narrower of its two windows (a horizontal edge its row, not a vertical
    # interface's column), in runs of about _CHECK_CHUNK candidates.
    # Collapsed edges (reported as degenerate) are skipped.
    ends = mesh.edges[scan]
    pa, pb = mesh.coords[ends[:, 0]], mesh.coords[ends[:, 1]]
    ab = pb - pa
    len2 = np.matmul(ab[:, None], ab[:, :, None])[:, 0, 0]
    length = np.sqrt(len2)
    lo = np.minimum(pa, pb) - 1e-9 * length[:, None]
    hi = np.maximum(pa, pb) + 1e-9 * length[:, None]
    pool, rows, first, count = [], [], [], []
    for fe in (True, False):
        ids = np.flatnonzero(touches[not fe])
        live = np.flatnonzero(((n_fe[scan] > 0) == fe) & (len2 > 0.0))
        windows = []
        for axis in (0, 1):
            by = ids[np.argsort(mesh.coords[ids, axis], kind="stable")]
            key = mesh.coords[by, axis]
            start = key.searchsorted(lo[live, axis], "left")
            end = np.maximum(key.searchsorted(hi[live, axis], "right"), start)
            windows.append((start + sum(map(len, pool)), end - start))
            pool.append(by)
        (x_start, x_count), (y_start, y_count) = windows
        rows.append(live)
        first.append(np.where(y_count < x_count, y_start, x_start))
        count.append(np.minimum(x_count, y_count))
    pool, rows, first, count = map(np.concatenate, (pool, rows, first, count))
    cuts = np.flatnonzero(np.diff((np.cumsum(count) - count) // _CHECK_CHUNK)) + 1
    hits = []
    for edge, start, n in zip(*(np.split(a, cuts) for a in (rows, first, count))):
        node = pool[np.repeat(start, n) + _run_offsets(n)]
        edge = np.repeat(edge, n)
        p = mesh.coords[node]
        t = np.matmul((p - pa[edge])[:, None], ab[edge][:, :, None])[:, 0, 0] / len2[edge]
        gap = p - (pa[edge] + t[:, None] * ab[edge])
        hangs = (((p >= lo[edge]) & (p <= hi[edge])).all(axis=1)
                 & (node != ends[edge, 0]) & (node != ends[edge, 1])
                 & (t > 1e-12) & (t < 1.0 - 1e-12)
                 & (np.hypot(gap[:, 0], gap[:, 1]) <= 1e-9 * length[edge]))
        hits.append(np.stack((edge[hangs], node[hangs])))
    edge, node = np.concatenate(hits, axis=1)
    order = np.lexsort((node, edge))
    return [Violation("interface-coincidence",
                      f"node {n} hangs on edge ({a},{b}) across the FE/VE interface")
            for n, (a, b) in zip(node[order].tolist(), ends[edge[order]].tolist())]


# ---------------------------------------------------------------------------
# Generators


def _grid(n_rows: int, n_cols: int, sides: Sequence = ()
          ) -> tuple[np.ndarray, dict[tuple[int, int], str]]:
    """Cells and side labels of a row-major grid of (n_rows + 1) x (n_cols + 1) nodes.

    Node (i, j) is i * (n_cols + 1) + j; cell (i, j) lists nodes (i, j),
    (i, j + 1), (i + 1, j + 1), (i + 1, j), cells row by row.  ``sides``
    label the first row, last row, first column and last column: one label
    each, or an array with one label per edge in grid order.
    """
    cols = n_cols + 1
    n00 = (np.arange(n_rows)[:, None] * cols + np.arange(n_cols)).ravel()
    along, across = np.arange(n_cols), np.arange(n_rows) * cols
    sides_at = ((along, 1), (n_rows * cols + along, 1), (across, cols), (across + n_cols, cols))
    bedges: dict[tuple[int, int], str] = {}
    for (start, step), label in zip(sides_at, sides):
        bedges.update(zip(zip(start.tolist(), (start + step).tolist()),
                          np.broadcast_to(label, start.shape).tolist()))
    return n00[:, None] + [0, 1, cols + 1, cols], bedges


def _structured_grid(width: float, height: float, nx: int, ny: int
                     ) -> tuple[np.ndarray, np.ndarray, dict[tuple[int, int], str]]:
    """Coordinates, (nx * ny, 4) cell vertices and boundary labels of a structured grid."""
    if nx < 1 or ny < 1:
        raise MeshError(f"subdivision counts must be >= 1, got nx={nx} ny={ny}")
    coords = np.column_stack((np.tile(width * np.arange(nx + 1) / nx, ny + 1),
                              np.repeat(height * np.arange(ny + 1) / ny, nx + 1)))
    return (coords, *_grid(ny, nx, ("bottom", "top", "left", "right")))


def _quarter_turn(n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the n_t + 1 angles (pi / 2) * j / n_t, j = 0..n_t.

    Each value comes from ``math``, so it does not depend on which SIMD
    kernels numpy dispatches to on the host CPU.
    """
    th = (0.5 * math.pi * np.arange(n_t + 1) / n_t).tolist()
    return np.array([math.cos(t) for t in th]), np.array([math.sin(t) for t in th])


# Counter-clockwise corners of a polar cell (rows outward, columns by angle)
# among those of ``_grid``'s cell.
_POLAR_CELL = [0, 3, 2, 1]


def generate_structured_quads(width: float, height: float, nx: int, ny: int,
                              kind: ElementKind = ElementKind.FE_QUAD) -> Mesh:
    """Regular nx-by-ny grid on [0,width]x[0,height].

    Boundary edge labels: left, right, bottom, top.
    """
    coords, vertices, bedges = _structured_grid(width, height, nx, ny)
    return Mesh(coords, vertices, [kind] * len(vertices), [0] * len(vertices), bedges)


def generate_split_square(width: float, height: float, nx: int, ny: int,
                          split_x: float | None = None) -> Mesh:
    """Structured grid whose left half is FE and right half is VE.

    Cells with midpoint x < split_x (default width/2) are FE_QUAD, the rest
    VE_POLY; the shared node column is the coupling interface.
    """
    if split_x is None:
        split_x = 0.5 * width
    coords, vertices, bedges = _structured_grid(width, height, nx, ny)
    kinds = np.where(coords[vertices, 0].mean(axis=1) < split_x,
                     ElementKind.FE_QUAD, ElementKind.VE_POLY)
    return Mesh(coords, vertices, kinds, [0] * len(vertices), bedges)


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
    cells, bedges = _grid(n_r, n_t, ("inner", "outer", "theta0", "theta90"))
    r_mid = r_a + (r_b - r_a) * (np.arange(n_r) + 0.5) / n_r
    kinds = np.repeat(np.where(r_mid < split_radius, ElementKind.VE_POLY, ElementKind.FE_QUAD),
                      n_t)
    return Mesh(coords, cells[:, _POLAR_CELL], kinds, [0] * len(cells), bedges)


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

    # Ring rows on circles; outer rows blend the split circle into the square.
    cos, sin = _quarter_turn(n_t)
    r = hole_radius + (split_radius - hole_radius) * np.arange(n_r_ring + 1) / n_r_ring
    scale = size / np.maximum(cos, sin)
    s = (np.arange(n_r_ring + 1, n_rows) - n_r_ring)[:, None] / n_r_outer
    x = np.vstack((np.outer(r, cos), (1 - s) * split_radius * cos + s * (scale * cos)))
    y = np.vstack((np.outer(r, sin), (1 - s) * split_radius * sin + s * (scale * sin)))
    coords = np.stack((x, y), axis=-1).reshape(-1, 2)

    mx, my = (0.5 * (coords[-n_t - 1:-1] + coords[-n_t:])).T     # outer row's edge midpoints
    cells, bedges = _grid(n_rows - 1, n_t, ("hole", np.where(mx > my, "right", "top"),
                                            "bottom", "left"))
    vertices = cells[:, _POLAR_CELL]
    ring = n_r_ring * n_t
    if split_ring:      # each ring cell as two triangles, then the outer quads
        vertices = (vertices[:ring, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3).tolist()
                    + vertices[ring:].tolist())
        ring *= 2
    kinds = [ring_kind] * ring + [outer_kind] * (len(vertices) - ring)
    return Mesh(coords, vertices, kinds, [0] * len(vertices), bedges)


# Region of a removed cell, and of the missing side of a boundary edge, in
# the rules of ``generate_tagged_grid``.
VOID = -1


def first_match(rules: Sequence[tuple[np.ndarray, Any]], default: Any) -> np.ndarray:
    """``np.select`` of ``(where, value)`` rules: each entry takes its first match, else ``default``."""
    where, values = zip(*rules)
    return np.select(where, values, default)


def generate_tagged_grid(xs: Sequence[float], ys: Sequence[float],
                         cells: Callable[..., tuple[np.ndarray, np.ndarray]],
                         labels: Callable[..., np.ndarray]) -> Mesh:
    """Tensor grid whose cells and edges are tagged by two array rules, each called once.

    ``cells(cx, cy)`` gets the midpoints of all cells, row by row, and returns
    the region of each cell (``VOID`` removes it) and whether it is FE.
    Unused nodes are dropped and the rest numbered in order of first use.
    ``labels(mx, my, r0, r1)`` gets the midpoints of all boundary edges
    (``r1`` = ``VOID``) and all edges between two regions ``r0`` and ``r1``, and
    returns their labels; ``''`` leaves an edge unlabeled.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nx = xs.size - 1
    cx, cy = np.meshgrid(0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:]))
    region, fe = cells(cx.ravel(), cy.ravel())
    kept = np.flatnonzero(region != VOID)

    # Grid corner (i, j) has key j * (nx + 1) + i; nodes are numbered in order
    # of first use by the kept cells' corners.
    keys, node_of_key, verts = _first_use(_grid(ys.size - 1, nx)[0][kept])
    j_of, i_of = np.divmod(keys[np.argsort(node_of_key)], nx + 1)
    mesh = Mesh(np.column_stack((xs[i_of], ys[j_of])), verts,
                np.where(fe[kept], ElementKind.FE_QUAD, ElementKind.VE_POLY), region[kept])

    # Labels come from the mesh's own edge table, so they are set after construction.
    count = mesh.edge_counts
    owners, start = mesh.edge_owners()
    r0 = mesh.element_regions[owners[start]]
    r1 = np.where(count == 1, VOID, mesh.element_regions[owners[start + count - 1]])
    tagged = np.flatnonzero(r0 != r1)
    ends = mesh.edges[tagged]
    mx, my = (0.5 * (mesh.coords[ends[:, 0]] + mesh.coords[ends[:, 1]])).T
    text = np.asarray(labels(mx, my, r0[tagged], r1[tagged]))
    named = text != ""
    mesh.boundary_edges = _edge_labels(zip(map(tuple, ends[named].tolist()), text[named].tolist()))
    return mesh


def subdivided(breaks: Sequence[float], cells_per_span: Sequence[int]) -> list[float]:
    """Expand layer breakpoints into grid lines with per-layer cell counts."""
    return np.concatenate([[float(breaks[0])]] + [
        a + (b - a) * np.arange(1, n + 1) / n
        for a, b, n in zip(breaks, breaks[1:], cells_per_span)]).tolist()


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

    def cells(cx, cy):
        stack = (x0 < cx) & (cx < x1)
        region = first_match([(cy < 0.8, SANDWICH_COPPER),
                              (stack & (cy < 1.1), SANDWICH_SILVER),
                              (stack, SANDWICH_CHIP)], VOID)
        if all_kind is not None:
            return region, np.full(region.shape, all_kind == ElementKind.FE_QUAD)
        return region, region == SANDWICH_COPPER

    def labels(mx, my, r0, r1):
        edge = r1 == VOID
        return first_match([(edge & (abs(my) < 1e-9), "bottom"),
                            (edge & (abs(my - 1.6) < 1e-9), "top"),
                            (edge & (abs(mx - 3.0) < 1e-9), "right")], "")

    return generate_tagged_grid(xs, ys, cells, labels)


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

    def cells(cx, cy):
        ball = (abs(cx[:, None] - [-4.0, -2.0, 0.0, 2.0, 4.0]) < 0.5).any(axis=1)
        under_die = (cy < 2.16) & (abs(cx) < 2.5)
        region = first_match([(cy < 0.8, FCBGA_PCB),
                              ((cy < 1.36) & ball, FCBGA_BALL),
                              (cy < 1.36, VOID),
                              ((cy < 1.76) & (abs(cx) < 5.5), FCBGA_BT),
                              (cy < 1.76, VOID),
                              (abs(cx) > 4.5, VOID),
                              (under_die & (cy < 1.86), FCBGA_EPOXY),
                              (under_die, FCBGA_DIE)], FCBGA_MOLD)
        return region, (region == FCBGA_PCB) | (region == FCBGA_BT)

    def labels(mx, my, r0, r1):
        edge = r1 == VOID
        return first_match([(edge & (abs(my) < 1e-9), "pcb_bottom"),
                            (edge & (abs(my - 2.96) < 1e-9), "mold_top"),
                            (~edge & ((r0 == FCBGA_DIE) | (r1 == FCBGA_DIE)), "die")], "")

    return generate_tagged_grid(xs, ys, cells, labels)


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

    def cells(cx, cy):
        wire = (((4.48 < cy) & (cy < 5.48) & (3.5 < cx) & (cx < 4.0))      # leg on the chip
                | ((4.13 < cy) & (cy < 5.48) & (7.0 < cx) & (cx < 7.5))    # leg on the second pad
                | ((5.48 < cy) & (cy < 5.98) & (3.5 < cx) & (cx < 7.5)))   # span
        pads = ((-8.0 < cx) & (cx < 6.0)) | ((6.5 < cx) & (cx < 8.5))
        chip = (-7.5 < cx) & (cx < 5.5)
        region = first_match([(wire, IGBT_AL),
                              (cy < 3.0, IGBT_CU),              # baseplate
                              (cy < 3.15, IGBT_SOLDER),
                              (cy < 3.45, IGBT_CU),             # lower pad
                              (cy < 3.83, IGBT_CERAMIC),
                              ((cy < 4.13) & pads, IGBT_CU),    # upper pads
                              (cy < 4.13, VOID),
                              ((cy < 4.28) & chip, IGBT_SOLDER),
                              (cy < 4.28, VOID),
                              ((cy < 4.48) & chip, IGBT_CHIP)], VOID)
        return region, ~(wire | (cy < 3.0))     # the wire and the baseplate are VE

    def labels(mx, my, r0, r1):
        edge = r1 == VOID
        return first_match([(edge & (abs(my) < 1e-9), "base_bottom"),
                            (edge & (abs(my - 4.48) < 1e-9) & (-7.5 < mx) & (mx < 5.5),
                             "chip_top")], "")

    return generate_tagged_grid(xs, ys, cells, labels)


# ---------------------------------------------------------------------------
# File I/O

FORMAT_HEADER = "mesh 2d v1"


# Lines formatted by one ``%`` each in every text output (the mesh file and
# its hash, the point and cell sections of ``post.export_fields``); bounds the
# text held at once.
_TEXT_LINES = 1 << 12


def text_windows(rows: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` of each run of ``_TEXT_LINES`` consecutive rows out of ``rows``, in order."""
    step = _TEXT_LINES
    for start in range(0, rows, step):
        yield start, min(start + step, rows)


def element_lines(mesh: Mesh, records: bool = True) -> Iterator[str]:
    """One text line per element in element-list order, a text window of elements per piece.

    A line is the mesh file's ``elem`` record (see load_mesh) or, with
    ``records`` False, the bare vertex list ``<n_v> <v0> ... <v{n_v-1}>`` of a
    legacy VTK ``CELLS`` section.  The elements of each ``vertex_groups``
    group in a window are formatted by one ``%`` and merged by position.
    """
    for start, stop in text_windows(mesh.n_elements):
        lines = np.empty(stop - start, dtype=object)
        for is_fe, pos, verts in mesh._group_rows(start, stop):
            line = f"{verts.shape[1]}" + " %d" * verts.shape[1] + "\n"
            if records:
                kind = ElementKind.FE_QUAD if is_fe else ElementKind.VE_POLY
                line = f"elem %d {kind.value} %d {line}"
                verts = np.column_stack((pos, mesh.element_regions[pos], verts))
            text = (line * pos.size) % tuple(verts.ravel().tolist())
            lines[pos - start] = np.array(text.splitlines(keepends=True), dtype=object)
        yield "".join(lines.tolist())


def mesh_text_chunks(mesh: Mesh) -> Iterator[str]:
    """The canonical text form of a mesh in pieces (see load_mesh for the grammar).

    The header, the node lines and the element lines a text window at a
    time, and the labeled edges: ``save_mesh`` writes them and ``fevec run``'s
    provenance hashes them without holding the whole text.
    """
    yield f"{FORMAT_HEADER}\n"
    for start, stop in text_windows(mesh.n_nodes):
        block = mesh.coords[start:stop]
        yield "".join(map("node {} {} {}\n".format, range(start, stop),
                          map(repr, block[:, 0].tolist()), map(repr, block[:, 1].tolist())))
    yield from element_lines(mesh)
    edges = sorted(mesh.boundary_edges)
    yield ("bedge %s %s %s\n" * len(edges)) % tuple(
        v for a, b in edges for v in (mesh.boundary_edges[(a, b)], a, b))


def mesh_text(mesh: Mesh) -> str:
    """Canonical text form of a mesh (see load_mesh for the grammar)."""
    return "".join(mesh_text_chunks(mesh))


def save_mesh(mesh: Mesh, path: str) -> None:
    """Write the line-oriented mesh format (see load_mesh)."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(mesh_text_chunks(mesh))


def _int64(token: str) -> int:
    """An integer record field: ids, regions and node ids of a mesh file are int64 integers."""
    if not -2 ** 63 <= (value := int(token)) < 2 ** 63:
        raise ValueError(f"integer {token} outside the int64 range")
    return value


def _read_text(path: str) -> str:
    """A mesh or config file's text; a byte that is not UTF-8 is a ParseError naming its line."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        data = exc.object                       # read() decodes the whole file at once
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8 text", path,
                         len(data[:exc.start + 1].splitlines())) from None


def load_mesh(path: str, validate: bool = True) -> Mesh:
    """Parse a mesh file.

    Format: header line ``mesh 2d v1``; then ``node <id> <x> <y>``,
    ``elem <id> <FE|VE> <region> <n_v> <v0> ... <v{n_v-1}>`` and
    ``bedge <label> <n0> <n1>`` records, whitespace separated, ``#`` comments.
    Ids must be dense from 0.  Raises ParseError with the offending line
    number, or MeshError listing invariant violations.
    """
    nodes: dict[int, tuple[float, float]] = {}
    vertices: dict[int, tuple[int, ...]] = {}   # the element table, keyed by element id
    kinds: dict[int, ElementKind] = {}
    regions: dict[int, int] = {}
    bedges: dict[tuple[int, int], str] = {}
    header_seen = False

    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
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
                if eid in vertices:
                    raise ValueError(f"duplicate element id {eid}")
                try:
                    kinds[eid] = ElementKind(tok[2])
                except ValueError:
                    raise ValueError(f"unknown element kind '{tok[2]}' (expected FE or VE)")
                regions[eid] = _int64(tok[3])
                nv = int(tok[4])
                verts = tuple(_int64(t) for t in tok[5:])
                if len(verts) != nv:
                    raise ValueError(f"element {eid}: declared {nv} vertices, found {len(verts)}")
                vertices[eid] = verts
            elif tok[0] == "bedge":
                if len(tok) != 4:
                    raise ValueError("bedge record needs: bedge <label> <n0> <n1>")
                bedges[_int64(tok[2]), _int64(tok[3])] = tok[1]
            else:
                raise ValueError(f"unknown record '{tok[0]}'")
        except (ValueError, IndexError) as exc:
            raise ParseError(str(exc), path, lineno) from exc

    if not header_seen:
        raise ParseError("empty file (missing header)", path)
    if sorted(nodes) != list(range(len(nodes))):
        raise ParseError(f"node ids not dense 0..{len(nodes) - 1}", path)
    if sorted(vertices) != list(range(len(vertices))):
        raise ParseError(f"element ids not dense 0..{len(vertices) - 1}", path)

    ids = range(len(vertices))
    mesh = Mesh([nodes[i] for i in range(len(nodes))], [vertices[i] for i in ids],
                [kinds[i] for i in ids], [regions[i] for i in ids], bedges)
    if validate:
        report = validate_mesh(mesh)
        if report:
            msgs = "; ".join(v.message for v in report[:10])
            raise MeshError(f"{path}: {len(report)} validation violation(s): {msgs}")
    return mesh
