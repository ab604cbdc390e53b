"""Global DOF numbering, coupled FE/VE assembly and Dirichlet handling.

Interface nodes (shared by FE and VE elements) receive additive stiffness
contributions from both sides in one pattern assembly, which realizes the
coupled block system directly: FE-interior dofs never share a stored entry
with VE-interior dofs because no single element contains both.

Both kinds run batched, after the mesh and the materials pass
``require_valid``: one kernel call per block of one kind and vertex count in
a window of consecutive element positions (``Mesh.element_windows``),
through the batched Q4 kernels of ``fem`` and the stacked polygon kernels of
``vem``.  Both fields share one sparsity pattern, ``Mesh.node_pattern`` (the
node pairs that share an element), the mechanical one with 2 x 2 blocks.
Assembly streams the windows, so its scratch arrays never exceed one
window's: a window's element entries go to their slots in that pattern, and
its thermal loads to the right-hand side, through ``np.add.at`` in element
order (an element's id is its position).  Every slot starts at -0.0, so
repeated runs give bit-identical matrices, equal to an element-by-element
loop, signed zeros included.  No triplet is sorted and no COO matrix is built.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import fem, vem
from .errors import AssemblyError
from .materials import MaterialProps, gather_materials
from .mesh import Mesh, require_valid


def _bc_value(value, what: str, free: bool = False) -> float | None:
    """The one rule for a boundary value: a finite real, or None (free) where ``free``."""
    if value is None and free:
        return None
    try:
        if isinstance(value, numbers.Real) and math.isfinite(value):
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


@dataclass
class BoundaryConditionSet:
    """Node-resolved boundary data for one problem.

    ``dirichlet_u`` maps node -> (ux, uy) where either component may be None
    (free).  Edge loads keep their end nodes so the integration can use the
    exact edge geometry.  The methods admit each value through ``_bc_value``;
    data given to the constructor passes through them too.
    """

    dirichlet_T: dict[int, float] = field(default_factory=dict)
    flux_edges: list[tuple[int, int, float]] = field(default_factory=list)
    dirichlet_u: dict[int, tuple[float | None, float | None]] = field(default_factory=dict)
    traction_edges: list[tuple[int, int, tuple[float, float]]] = field(default_factory=list)

    def __post_init__(self):
        given = self.dirichlet_T, self.flux_edges, self.dirichlet_u, self.traction_edges
        self.dirichlet_T, self.flux_edges, self.dirichlet_u, self.traction_edges = {}, [], {}, []
        temperatures, fluxes, displacements, tractions = given
        for node, value in temperatures.items():
            self.set_temperature(node, value)
        for entry in fluxes:
            self.add_flux(*_entry(entry, 3, "flux entry (a, b, q)"))
        for node, pair in displacements.items():
            self.set_displacement(node, *_entry(pair, 2, f"displacement (ux, uy) at node {node}"))
        for entry in tractions:
            self.add_traction(*_entry(entry, 3, "traction entry (a, b, (tx, ty))"))

    def set_temperature(self, node: int, value: float) -> None:
        value = _bc_value(value, f"temperature at node {node}")
        if self.dirichlet_T.get(node, value) != value:
            raise AssemblyError(
                f"conflicting temperature prescriptions at node {node}: "
                f"{self.dirichlet_T[node]} vs {value}")
        self.dirichlet_T[node] = value

    def set_displacement(self, node: int, ux: float | None, uy: float | None) -> None:
        new = [_bc_value(v, f"displacement {c} at node {node}", free=True)
               for c, v in (("ux", ux), ("uy", uy))]
        old = self.dirichlet_u.get(node, (None, None))
        for k, (a, b) in enumerate(zip(old, new)):
            if a is not None and b is not None and a != b:
                raise AssemblyError(
                    f"conflicting displacement prescriptions at node {node} "
                    f"component {k}: {a} vs {b}")
        self.dirichlet_u[node] = tuple(b if a is None else a for a, b in zip(old, new))

    def add_flux(self, a: int, b: int, q: float) -> None:
        self.flux_edges.append((a, b, _bc_value(q, f"flux on edge ({a},{b})")))

    def add_traction(self, a: int, b: int, t: tuple[float, float]) -> None:
        what = f"traction on edge ({a},{b})"
        try:
            tx, ty = t
        except (TypeError, ValueError):
            raise AssemblyError(f"{what} must be a pair (tx, ty), got {t!r}") from None
        self.traction_edges.append((a, b, (_bc_value(tx, what), _bc_value(ty, what))))

    @property
    def has_thermal(self) -> bool:
        return bool(self.dirichlet_T) or bool(self.flux_edges)


DOFS_PER_NODE = {"thermal": 1, "mechanical": 2}


@dataclass
class DofMap:
    """Node-to-global-dof numbering of a mesh."""

    field_kind: str              # "thermal" | "mechanical"
    mesh: Mesh = field(repr=False, compare=False)

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


def build_dof_map(mesh: Mesh, field_kind: str) -> DofMap:
    if field_kind not in DOFS_PER_NODE:
        raise AssemblyError(f"unknown field kind '{field_kind}'")
    return DofMap(field_kind=field_kind, mesh=mesh)


@dataclass
class SparseSystem:
    """Assembled symmetric system before constraint elimination."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dof_map: DofMap
    dirichlet: dict[int, float]   # dof -> prescribed value


@dataclass
class ReducedSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    free: np.ndarray              # full-vector index of each unknown, in unknown order
    prescribed: np.ndarray        # full-length vector holding prescribed values

    def recover(self, x_free: np.ndarray) -> np.ndarray:
        full = self.prescribed.copy()
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


def _scatter(mesh: Mesh, dof_map: DofMap, kernels, rhs: np.ndarray) -> sp.csr_matrix:
    """CSR matrix of the element matrices of ``kernels``, assembled one window at a time.

    ``kernels(is_fe, positions, vertices)`` gives the (m, n, n) element
    matrices of a block of ``Mesh.element_windows`` and its (m, n) element
    loads, or None; the loads are added into ``rhs``.  The structure is
    ``Mesh.node_pattern`` with a p x p block per node pair, p the dofs per
    node.  Each window's entries go to their slots (``Mesh.node_slots``)
    through ``np.add.at`` in element order, so every slot sums its terms in
    element order.  The sums start at -0.0, the identity of addition, so each
    equals an element-by-element loop's, signed zeros included.
    """
    per = dof_map.dofs_per_node
    indptr, indices = mesh.node_pattern
    data = np.full(per * per * indices.size, -0.0)
    # Entry (p v + a, p w + b) of an element matrix is entry (a, b) of the block of
    # node pair (v, w): slot p^2 k + p a + b for the pair's node slot k.
    in_block = per * np.arange(per)[:, None, None] + np.arange(per)
    windows = mesh.element_windows()
    slots = mesh.node_slots(verts for window in windows for _, _, verts in window)
    for window in windows:
        # zip draws one slot array per block of the window
        parts = [(pos, verts, k, *kernels(is_fe, pos, verts))
                 for (is_fe, pos, verts), k in zip(window, slots)]
        where = [(pos, (per * per * k[:, :, None, :, None] + in_block).reshape(len(pos), -1))
                 for pos, _, k, _, _ in parts]
        values = [(pos, ke.reshape(len(pos), -1)) for pos, _, _, ke, _ in parts]
        np.add.at(data, _in_element_order(where), _in_element_order(values))
        if parts[0][4] is not None:
            np.add.at(rhs, _in_element_order([(pos, dof_map.element_dofs(verts))
                                              for pos, verts, *_ in parts]),
                      _in_element_order([(pos, fe) for pos, *_, fe in parts]))
    slots.close()               # frees the pattern keys before the CSR copy is made
    return sp.bsr_matrix((data.reshape(-1, per, per), indices, indptr),
                         shape=(dof_map.ndof, dof_map.ndof)).tocsr()


def _dirichlet_dofs(bcs: BoundaryConditionSet, dof_map: DofMap) -> dict[int, float]:
    """The field's prescribed values as dof -> value, once all four kinds name only mesh nodes."""
    n = dof_map.n_nodes
    edge_nodes = (v for a, b, _ in bcs.flux_edges + bcs.traction_edges for v in (a, b))
    for node in (*bcs.dirichlet_T, *bcs.dirichlet_u, *edge_nodes):
        if not (isinstance(node, numbers.Integral) and 0 <= node < n):
            raise AssemblyError(f"boundary condition references node {node!r}, "
                                f"not an integer in 0..{n - 1}")
    if dof_map.dofs_per_node == 1:
        return dict(bcs.dirichlet_T)
    return {2 * node + k: value for node, pair in bcs.dirichlet_u.items()
            for k, value in enumerate(pair) if value is not None}


def assemble_thermal(mesh: Mesh, materials: dict[int, MaterialProps],
                     bcs: BoundaryConditionSet,
                     tau: float = vem.DEFAULT_STABILIZATION) -> SparseSystem:
    """Coupled thermal system: FE quads and VE polygons into one matrix."""
    require_valid(mesh, materials)
    dof_map = build_dof_map(mesh, "thermal")
    dirichlet = _dirichlet_dofs(bcs, dof_map)
    rhs = np.zeros(dof_map.ndof)

    def element_matrices(is_fe, pos, verts):
        mats = gather_materials(materials, mesh.element_regions[pos])
        if not is_fe:
            projection = vem.thermal_projection(mesh.coords[verts], mats.conductivity)
            return vem.thermal_element_matrices(projection, tau), None
        return fem.thermal_stiffness_q4_batch(fem.q4_batch_eval(mesh.coords[verts]),
                                              mats.conductivity), None

    for (a, b, q_bar) in bcs.flux_edges:
        fe = fem.flux_load_edge(mesh.coords[a], mesh.coords[b], q_bar)
        rhs[a] += fe[0]
        rhs[b] += fe[1]

    matrix = _scatter(mesh, dof_map, element_matrices, rhs)
    return SparseSystem(matrix=matrix, rhs=rhs, dof_map=dof_map, dirichlet=dirichlet)


def assemble_mechanical(mesh: Mesh, materials: dict[int, MaterialProps],
                        bcs: BoundaryConditionSet,
                        temperature: np.ndarray | None,
                        tau: float = vem.DEFAULT_STABILIZATION) -> SparseSystem:
    """Coupled mechanical system with thermal loads from a solved temperature.

    ``temperature=None`` means an isothermal problem at reference temperature
    (zero thermal load).
    """
    require_valid(mesh, materials)
    dof_map = build_dof_map(mesh, "mechanical")
    dirichlet = _dirichlet_dofs(bcs, dof_map)
    rhs = np.zeros(dof_map.ndof)

    def element_contributions(is_fe, pos, verts):
        mats = gather_materials(materials, mesh.element_regions[pos])
        te = None if temperature is None else temperature[verts]
        if not is_fe:
            projection = vem.elastic_projection(mesh.coords[verts], mats)
            ke = vem.elastic_element_matrices(projection, tau)
            return ke, None if te is None else vem.vem_thermal_load(projection, mats, te)
        q = fem.q4_batch_eval(mesh.coords[verts])
        ke = fem.mechanical_stiffness_q4_batch(q, mats.D)
        return ke, None if te is None else fem.thermal_load_q4_batch(q, mats, te)

    matrix = _scatter(mesh, dof_map, element_contributions, rhs)

    for (a, b, t_bar) in bcs.traction_edges:
        fe = fem.traction_load_edge(mesh.coords[a], mesh.coords[b], t_bar)
        np.add.at(rhs, dof_map.element_dofs((a, b)), fe)

    return SparseSystem(matrix=matrix, rhs=rhs, dof_map=dof_map, dirichlet=dirichlet)


def apply_dirichlet(system: SparseSystem, elimination_order: bool = False) -> ReducedSystem:
    """Symmetric row/column elimination of the system's prescribed dofs.

    Constrained columns move to the right-hand side; the reduced matrix stays
    symmetric and (for well-posed problems) positive definite.  The free
    dofs run in natural order, or in ``DofMap.elimination_order`` when
    ``elimination_order`` is set; the matrix rows are sliced once either way.
    """
    constraints = system.dirichlet
    ndof = system.dof_map.ndof
    prescribed = np.zeros(ndof)
    mask = np.zeros(ndof, dtype=bool)
    for dof, value in constraints.items():
        prescribed[dof] = value
        mask[dof] = True
    free = np.where(~mask)[0]
    fixed = np.where(mask)[0]
    if elimination_order:
        free = free[system.dof_map.elimination_order(free)]

    rows = system.matrix.tocsr()[free]
    rhs = system.rhs[free]
    if fixed.size:
        rhs = rhs - rows[:, fixed] @ prescribed[fixed]
    return ReducedSystem(matrix=rows[:, free].tocsr(), rhs=np.asarray(rhs).ravel(),
                         free=free, prescribed=prescribed)
