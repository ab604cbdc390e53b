"""Global DOF numbering, coupled FE/VE assembly and Dirichlet handling.

Interface nodes (shared by FE and VE elements) receive additive stiffness
contributions from both sides in one pattern assembly, which realizes the
coupled block system directly: FE-interior dofs never share a stored entry
with VE-interior dofs because no single element contains both.

Both kinds run batched, after the mesh and the materials pass
``require_valid``: one kernel call per block of one kind and vertex count in
a window of ``Mesh.element_windows``, which bounds each VE block to
``mesh.STACK_ENTRIES`` element-matrix entries, through the batched Q4
kernels of ``fem`` and the stacked polygon kernels of ``vem``.  Both fields
share one sparsity pattern, ``Mesh.node_pattern`` (the node pairs
that share an element), the mechanical one with 2 x 2 blocks.

The prescribed dofs never get an equation (Hughes, *The Finite Element
Method*, the ID array): each assembly numbers the unknowns in the solve's
order and fills only two blocks, the free x free matrix and the free x
prescribed coupling, which it lifts into the right-hand side with the
prescribed values and then drops: it returns the system the solve factors.
The whole matrix is never built.  Assembly streams the
windows, so its scratch arrays never exceed one window's: a window's
element entries go straight to their places in those blocks, and its
thermal loads to the right-hand side, through ``np.add.at`` in element
order (an element's id is its position).  Every entry starts at -0.0, so
repeated runs give bit-identical matrices, equal to an element-by-element
loop, signed zeros included.  No triplet is sorted and no COO matrix is built.
A field's edge loads go in from one ``fem.edge_loads`` call in edge order, on
boundary edges only: ``Mesh.off_boundary``, as for ``config.resolve_bcs``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

from . import fem, vem
from .errors import AssemblyError
from .materials import MaterialProps, gather_materials
from .mesh import Mesh, as_field, index_dtype, require_valid


def _bc_value(value, what: str, free: bool = False) -> float | None:
    """The one rule for a boundary value: a finite real other than ``bool``, or None (free)
    where ``free``."""
    if value is None and free:
        return None
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:       # an int beyond the float range
        pass
    raise AssemblyError(f"{what} must be a finite number, got {value!r}")


def _entry(entry, size: int, what: str) -> tuple:
    """A constructor entry as a tuple of ``size`` items; any other shape is refused by name."""
    try:
        if len(entry) == size:
            return tuple(entry)
    except TypeError:           # no length
        pass
    raise AssemblyError(f"{what} must be {size} items, got {entry!r}")


class BoundaryConditionSet:
    """Node-resolved boundary data for one problem, written only by its four methods.

    ``dirichlet_u`` maps node -> (ux, uy) where either component may be None
    (free).  Edge loads keep their end nodes so the integration can use the
    exact edge geometry.  The methods admit each value through ``_bc_value``;
    data given to the constructor passes through them too.  The data reads
    back as read-only mappings and tuples, so no write skips that rule.
    """

    def __init__(self, dirichlet_T: Mapping[int, float] | None = None,
                 flux_edges: Iterable[tuple[int, int, float]] = (),
                 dirichlet_u: Mapping[int, tuple[float | None, float | None]] | None = None,
                 traction_edges: Iterable[tuple[int, int, tuple[float, float]]] = ()):
        self._temperatures: dict[int, float] = {}
        self._fluxes: list[tuple[int, int, float]] = []
        self._displacements: dict[int, tuple[float | None, float | None]] = {}
        self._tractions: list[tuple[int, int, tuple[float, float]]] = []
        for node, value in (dirichlet_T or {}).items():
            self.set_temperature(node, value)
        for entry in flux_edges:
            self.add_flux(*_entry(entry, 3, "flux entry (a, b, q)"))
        for node, pair in (dirichlet_u or {}).items():
            self.set_displacement(node, *_entry(pair, 2, f"displacement (ux, uy) at node {node}"))
        for entry in traction_edges:
            self.add_traction(*_entry(entry, 3, "traction entry (a, b, (tx, ty))"))

    @property
    def dirichlet_T(self) -> Mapping[int, float]:
        return MappingProxyType(self._temperatures)

    @property
    def flux_edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(self._fluxes)

    @property
    def dirichlet_u(self) -> Mapping[int, tuple[float | None, float | None]]:
        return MappingProxyType(self._displacements)

    @property
    def traction_edges(self) -> tuple[tuple[int, int, tuple[float, float]], ...]:
        return tuple(self._tractions)

    def _data(self) -> tuple:
        return self._temperatures, self._fluxes, self._displacements, self._tractions

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundaryConditionSet):
            return NotImplemented
        return self._data() == other._data()

    def __repr__(self) -> str:
        return (f"BoundaryConditionSet(dirichlet_T={self._temperatures!r}, "
                f"flux_edges={self._fluxes!r}, dirichlet_u={self._displacements!r}, "
                f"traction_edges={self._tractions!r})")

    def set_temperature(self, node: int, value: float) -> None:
        value = _bc_value(value, f"temperature at node {node}")
        if self._temperatures.get(node, value) != value:
            raise AssemblyError(
                f"conflicting temperature prescriptions at node {node}: "
                f"{self._temperatures[node]} vs {value}")
        self._temperatures[node] = value

    def set_displacement(self, node: int, ux: float | None, uy: float | None) -> None:
        new = [_bc_value(v, f"displacement {c} at node {node}", free=True)
               for c, v in (("ux", ux), ("uy", uy))]
        old = self._displacements.get(node, (None, None))
        for k, (a, b) in enumerate(zip(old, new)):
            if a is not None and b is not None and a != b:
                raise AssemblyError(
                    f"conflicting displacement prescriptions at node {node} "
                    f"component {k}: {a} vs {b}")
        self._displacements[node] = tuple(b if a is None else a for a, b in zip(old, new))

    def add_flux(self, a: int, b: int, q: float) -> None:
        self._fluxes.append((a, b, _bc_value(q, f"flux on edge ({a},{b})")))

    def add_traction(self, a: int, b: int, t: tuple[float, float]) -> None:
        what = f"traction on edge ({a},{b})"
        try:
            tx, ty = t
        except (TypeError, ValueError):
            raise AssemblyError(f"{what} must be a pair (tx, ty), got {t!r}") from None
        self._tractions.append((a, b, (_bc_value(tx, what), _bc_value(ty, what))))

    @property
    def has_thermal(self) -> bool:
        return bool(self._temperatures) or bool(self._fluxes)


DOFS_PER_NODE = {"thermal": 1, "mechanical": 2}

# _block_columns writes the column numbers of _ROW_BLOCK / p rows at once (p dofs per
# node): about the same number of entries in both fields, which bounds that pass's scratch.
_ROW_BLOCK = 1 << 13


@dataclass
class DofMap:
    """Node-to-global-dof numbering of a mesh."""

    field_kind: str              # "thermal" | "mechanical"
    mesh: Mesh = field(repr=False, compare=False)

    def __post_init__(self):
        if self.field_kind not in DOFS_PER_NODE:
            raise AssemblyError(f"unknown field kind '{self.field_kind}'")

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @property
    def dofs_per_node(self) -> int:
        return DOFS_PER_NODE[self.field_kind]

    @property
    def ndof(self) -> int:
        return self.n_nodes * self.dofs_per_node

    def element_dofs(self, vertices) -> np.ndarray:
        """Dofs of an element's vertices; an (m, n_v) vertex block gives one row per element.

        Vector fields interleave the components: (2v, 2v + 1) per vertex.
        """
        verts = np.asarray(vertices, dtype=np.int64)
        if self.dofs_per_node == 1:
            return verts
        return (2 * verts[..., None] + np.arange(2)).reshape(verts.shape[:-1] + (-1,))

    def elimination_order(self, free: np.ndarray) -> np.ndarray:
        """Positions in ``free`` in the order the direct solve eliminates them.

        The nodes' ``Mesh.dissection_order`` expanded to interleaved dofs.
        """
        position = np.full(self.ndof, -1, dtype=np.int64)
        position[free] = np.arange(len(free))
        order = position[self.element_dofs(self.mesh.dissection_order[:, None]).ravel()]
        return order[order >= 0]


@dataclass
class SparseSystem:
    """An assembled symmetric system, its prescribed values lifted into the right-hand side.

    Unknown i is dof ``free[i]``; the unknowns run in natural order, or in
    ``DofMap.elimination_order`` for a system assembled for the direct
    solve (``elimination_order``).  ``matrix`` is the free x free block and
    ``rhs`` the free part of the load minus the free x prescribed block
    times ``values``, both in unknown order.  ``fixed`` lists the prescribed
    dofs in increasing order and ``values`` their values.  Without
    prescribed dofs, in natural order, ``matrix`` and ``rhs`` are the whole
    system.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    values: np.ndarray
    dof_map: DofMap
    elimination_order: bool = False

    def recover(self, x_free: np.ndarray) -> np.ndarray:
        """The full-length dof vector: ``x_free`` at the unknowns, ``values`` at ``fixed``."""
        full = np.zeros(self.dof_map.ndof)
        full[self.fixed] = self.values
        full[self.free] = x_free
        return full


def _in_element_order(parts: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Concatenate per-element rows of ``(positions, (m, k) values)`` parts in element order.

    The parts are the blocks of one window of ``Mesh.element_windows``, so a
    single part is already in element order and comes back as a view.
    """
    if len(parts) == 1:
        return parts[0][1].reshape(-1)
    first = min(int(pos[0]) for pos, _ in parts)
    lengths = np.zeros(max(int(pos[-1]) for pos, _ in parts) + 1 - first, dtype=np.int64)
    for pos, values in parts:
        lengths[pos - first] = values.shape[1]
    start = np.cumsum(lengths) - lengths
    out = np.empty(int(lengths.sum()), dtype=parts[0][1].dtype)
    for pos, values in parts:
        out[start[pos - first][:, None] + np.arange(values.shape[1])] = values
    return out


def _scatter(mesh: Mesh, dof_map: DofMap, kernels, rhs: np.ndarray,
             free: np.ndarray, fixed: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Free x free and free x prescribed blocks of the element matrices of ``kernels``.

    ``kernels(is_fe, positions, vertices)`` gives the (m, n, n) element
    matrices of a block of ``Mesh.element_windows`` and its (m, n) element
    loads, or None; the loads are added into ``rhs``.  ``free`` lists the
    unknowns' dofs in solve order and ``fixed`` the prescribed dofs in
    increasing order.  Row i of both blocks is dof ``free[i]``'s row of the
    natural-order matrix, whose structure is ``Mesh.node_pattern`` with a
    p x p block per node pair (p dofs per node): its free columns, as
    unknown numbers, go to the free block and its prescribed ones, as
    positions in ``fixed``, to the coupling block, each in natural column
    order.  Prescribed rows are never stored.

    Each window's entries go straight to their places through ``np.add.at``
    in element order, so every entry sums its terms in element order.  The
    sums start at -0.0, the identity of addition, so each equals an
    element-by-element loop's, signed zeros included.
    """
    per = dof_map.dofs_per_node
    indptr, indices = mesh.node_pattern
    # Places and slots wide enough for every entry of the natural-order matrix.
    idx = index_dtype(per * per * indices.size)
    unknown = np.zeros(dof_map.ndof, dtype=bool)
    unknown[free] = True
    # A free dof's row and column in the free block; a prescribed dof's column in the coupling.
    number = np.empty(dof_map.ndof, dtype=idx)
    number[free] = np.arange(free.size)
    number[fixed] = np.arange(fixed.size)
    # cum[k]: free dof columns in the node-pattern slots before slot k
    cum = np.zeros(indices.size + 1, dtype=idx)
    free_at = per - np.bincount(fixed // per, minlength=mesh.n_nodes).astype(idx)
    np.cumsum(np.take(free_at, indices), out=cum[1:])
    # dofs of the same kind, free or prescribed, before each dof of its node
    before = np.zeros(dof_map.ndof, dtype=idx)
    for j in range(per):
        for i in range(j):
            before[j::per] += unknown[i::per] == unknown[j::per]
    first, last = (indptr[free // per + s].astype(idx) for s in (0, 1))
    in_free = cum[last] - cum[first]
    free_ptr = np.concatenate(([0], np.cumsum(in_free, dtype=idx)))
    fixed_ptr = np.concatenate(([0], np.cumsum(per * (last - first) - in_free, dtype=idx)))
    nnz, trash = int(free_ptr[-1]), int(free_ptr[-1] + fixed_ptr[-1])
    # Entry (row r, slot k, column c) of a free row goes to to_free[r] + cum[k] + before[c]
    # when c is free, else to to_fixed[r] + p k - cum[k] + before[c]; prescribed rows to trash.
    to_free, to_fixed = np.zeros(dof_map.ndof, dtype=idx), np.zeros(dof_map.ndof, dtype=idx)
    to_free[free] = free_ptr[:-1] - cum[first]
    to_fixed[free] = nnz + fixed_ptr[:-1] - (per * first - cum[first])
    del first, last, in_free
    data = np.full(trash + 1, -0.0)
    component = np.arange(per, dtype=idx)[:, None]
    held = free_at < per                        # nodes with a prescribed dof

    def places(verts: np.ndarray) -> np.ndarray:
        """Where each entry of the (m, n, n) element matrices of a vertex block goes, (m, n n)."""
        m, n_v = verts.shape
        # Axes (vertex a, component i, vertex b, component j, element): the element
        # axis last, so that every broadcast runs over long rows.
        ends = verts.T.astype(idx)
        slot = mesh.node_slots(np.repeat(ends, n_v, axis=0).ravel(),
                               np.tile(ends, (n_v, 1)).ravel())
        slot = slot.astype(idx, copy=False).reshape(n_v, 1, n_v, 1, m)
        dofs = per * ends[:, None, :] + component
        rows, cols = dofs[:, :, None, None, :], dofs[None, None]
        ck = cum[slot]
        where = to_free[rows] + (ck + component)      # every dof free: before[c] is c's component
        bound = np.flatnonzero(np.logical_or.reduce(held[ends], axis=0))
        if bound.size:      # elements with a prescribed dof
            r, c, k, ck = rows[..., bound], cols[..., bound], slot[..., bound], ck[..., bound]
            at = np.where(unknown[c], to_free[r] + ck, to_fixed[r] + (per * k - ck)) + before[c]
            where[..., bound] = np.where(unknown[r], at, trash)
        return np.moveaxis(where, -1, 0).reshape(m, -1)

    for window in mesh.element_windows(per):
        parts = [(pos, verts, *kernels(is_fe, pos, verts)) for is_fe, pos, verts in window]
        np.add.at(data, _in_element_order([(pos, places(verts)) for pos, verts, _, _ in parts]),
                  _in_element_order([(pos, ke.reshape(len(pos), -1)) for pos, _, ke, _ in parts]))
        if parts[0][3] is not None:
            np.add.at(rhs, _in_element_order([(pos, dof_map.element_dofs(verts))
                                              for pos, verts, _, _ in parts]),
                      _in_element_order([(pos, fe) for pos, _, _, fe in parts]))
    del cum, to_free, to_fixed
    column = _block_columns(mesh, per, free, number, unknown, free_ptr, fixed_ptr)
    return (sp.csr_matrix((data[:nnz], column[:nnz], free_ptr.astype(idx)),
                          shape=(free.size, free.size)),
            sp.csr_matrix((data[nnz:trash], column[nnz:], fixed_ptr.astype(idx)),
                          shape=(free.size, fixed.size)))


def _block_columns(mesh: Mesh, per: int, free: np.ndarray, number: np.ndarray,
                   unknown: np.ndarray, free_ptr: np.ndarray, fixed_ptr: np.ndarray) -> np.ndarray:
    """The column numbers of ``_scatter``'s two blocks, one array: free block, then coupling.

    Each free row lists its node's pattern columns in natural order, the free
    ones (``unknown``) as ``number`` into the free block and the prescribed
    ones into the coupling; ``_ROW_BLOCK`` / p rows at a time.
    """
    indptr, indices = mesh.node_pattern
    nnz = free_ptr[-1]
    column = np.empty(nnz + fixed_ptr[-1], dtype=number.dtype)
    # one opaque item per node: a node's p numbers or flags move together
    number, unknown = (a.view(np.dtype((np.void, per * a.itemsize))) for a in (number, unknown))
    rows = _ROW_BLOCK // per
    for start in range(0, free.size, rows):
        nodes = free[start:start + rows] // per
        first = indptr[nodes]
        count = indptr[nodes + 1] - first
        slots = np.repeat(first - (np.cumsum(count, dtype=first.dtype) - count), count)
        slots += np.arange(slots.size, dtype=slots.dtype)
        neighbours = np.take(indices, slots)
        cols = np.take(number, neighbours).view(column.dtype)
        free_cols = np.take(unknown, neighbours).view(bool)
        stop = start + nodes.size
        column[free_ptr[start]:free_ptr[stop]] = cols[free_cols]
        column[nnz + fixed_ptr[start]:nnz + fixed_ptr[stop]] = cols[~free_cols]
    return column


def _dirichlet_dofs(bcs: BoundaryConditionSet, dof_map: DofMap) -> tuple[np.ndarray, np.ndarray]:
    """The field's prescribed dofs in increasing order and their values, once all four
    kinds of boundary condition name only mesh nodes."""
    n = dof_map.n_nodes
    edge_nodes = (v for a, b, _ in bcs.flux_edges + bcs.traction_edges for v in (a, b))
    for node in (*bcs.dirichlet_T, *bcs.dirichlet_u, *edge_nodes):
        if isinstance(node, bool) or not (isinstance(node, numbers.Integral) and 0 <= node < n):
            raise AssemblyError(f"boundary condition references node {node!r}, "
                                f"not an integer in 0..{n - 1}")
    if dof_map.dofs_per_node == 1:
        prescribed = sorted(bcs.dirichlet_T.items())
    else:
        prescribed = sorted((2 * node + k, value) for node, pair in bcs.dirichlet_u.items()
                            for k, value in enumerate(pair) if value is not None)
    return (np.array([dof for dof, _ in prescribed], dtype=np.int64),
            np.array([value for _, value in prescribed], dtype=float))


def _assemble(mesh: Mesh, materials: dict[int, MaterialProps], bcs: BoundaryConditionSet,
              field_kind: str, kernels, elimination_order: bool) -> SparseSystem:
    """The one assembly body: ``kernels`` as for ``_scatter``, then the field's edge loads
    of ``bcs`` (flux or traction; AssemblyError names a pair ``Mesh.off_boundary``
    refuses), then the lift of the prescribed values, whose coupling block is freed here.
    """
    require_valid(mesh, materials)
    dof_map = DofMap(field_kind, mesh)
    fixed, values = _dirichlet_dofs(bcs, dof_map)
    kind, edges = (("flux", bcs.flux_edges) if field_kind == "thermal"
                   else ("traction", bcs.traction_edges))
    pairs = np.array([(a, b) for a, b, _ in edges], dtype=np.int64).reshape(-1, 2)
    off = mesh.off_boundary(pairs)
    if off.any():
        a, b = pairs[off][0].tolist()
        raise AssemblyError(f"{kind} on edge ({a},{b}): not a boundary edge, "
                            "the side of exactly one element")
    free = np.delete(np.arange(dof_map.ndof, dtype=index_dtype(dof_map.ndof)), fixed)
    if elimination_order:
        free = free[dof_map.elimination_order(free)]
    rhs = np.zeros(dof_map.ndof)
    matrix, coupling = _scatter(mesh, dof_map, kernels, rhs, free, fixed)
    if edges:
        loads = fem.edge_loads(mesh.coords[pairs[:, 0]], mesh.coords[pairs[:, 1]],
                               np.array([load for _, _, load in edges]))
        np.add.at(rhs, dof_map.element_dofs(pairs), loads)
    return SparseSystem(matrix=matrix, rhs=rhs[free] - coupling @ values, free=free, fixed=fixed,
                        values=values, dof_map=dof_map, elimination_order=elimination_order)


def assemble_thermal(mesh: Mesh, materials: dict[int, MaterialProps],
                     bcs: BoundaryConditionSet,
                     tau: float = vem.DEFAULT_STABILIZATION,
                     elimination_order: bool = False) -> SparseSystem:
    """Coupled thermal system: FE quads and VE polygons into one matrix.

    The unknowns run in ``DofMap.elimination_order`` when
    ``elimination_order`` is set (the direct solve's order), else naturally.
    """
    def element_matrices(is_fe, pos, verts):
        mats = gather_materials(materials, mesh.element_regions[pos])
        if not is_fe:
            projection = vem.thermal_projection(mesh.coords[verts], mats.conductivity)
            return vem.thermal_element_matrices(projection, tau), None
        return fem.thermal_stiffness_q4_batch(fem.q4_batch_eval(mesh.coords[verts]),
                                              mats.conductivity), None

    return _assemble(mesh, materials, bcs, "thermal", element_matrices, elimination_order)


def assemble_mechanical(mesh: Mesh, materials: dict[int, MaterialProps],
                        bcs: BoundaryConditionSet,
                        temperature: np.ndarray | None,
                        tau: float = vem.DEFAULT_STABILIZATION,
                        elimination_order: bool = False) -> SparseSystem:
    """Coupled mechanical system with thermal loads from a solved temperature.

    ``temperature=None`` means an isothermal problem at reference temperature
    (zero thermal load).  ``elimination_order`` as for ``assemble_thermal``.
    """
    if temperature is not None:
        temperature = as_field(mesh, "temperature", temperature)

    def element_contributions(is_fe, pos, verts):
        mats = gather_materials(materials, mesh.element_regions[pos])
        te = None if temperature is None else temperature[verts]
        if not is_fe:
            projection = vem.elastic_projection(mesh.coords[verts], mats)
            ke = vem.elastic_element_matrices(projection, tau)
            return ke, None if te is None else vem.vem_thermal_load(projection, mats, te)
        return fem.mechanical_q4_batch(fem.q4_batch_eval(mesh.coords[verts]), mats, te)

    return _assemble(mesh, materials, bcs, "mechanical", element_contributions, elimination_order)
