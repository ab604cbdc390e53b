"""Global DOF numbering, coupled FE/VE assembly and Dirichlet handling.

Interface nodes (shared by FE and VE elements) receive additive stiffness
contributions from both sides during standard triplet assembly, which
realizes the coupled block system directly: FE-interior dofs never share a
stored entry with VE-interior dofs because no single element contains both.

Both kinds run batched: one kernel call per block of elements of one kind
and vertex count (``Mesh.element_blocks``), through the batched Q4 kernels
of ``fem`` and the stacked polygon kernels of ``vem``, after the mesh and
the materials pass ``require_valid``.  Assembly is deterministic: the
element triplets are concatenated in element order (an element's id is its
position in ``Mesh.elements``) and stably sorted before compression, so
repeated runs give bit-identical matrices, equal to an element-by-element
loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import fem, vem
from .errors import AssemblyError
from .materials import MaterialProps, gather_materials
from .mesh import Mesh, require_valid


@dataclass
class BoundaryConditionSet:
    """Node-resolved boundary data for one problem.

    ``dirichlet_u`` maps node -> (ux, uy) where either component may be None
    (free).  Edge loads keep their end nodes so the integration can use the
    exact edge geometry.
    """

    dirichlet_T: dict[int, float] = field(default_factory=dict)
    flux_edges: list[tuple[int, int, float]] = field(default_factory=list)
    dirichlet_u: dict[int, tuple[float | None, float | None]] = field(default_factory=dict)
    traction_edges: list[tuple[int, int, tuple[float, float]]] = field(default_factory=list)

    def set_temperature(self, node: int, value: float) -> None:
        if node in self.dirichlet_T and self.dirichlet_T[node] != value:
            raise AssemblyError(
                f"conflicting temperature prescriptions at node {node}: "
                f"{self.dirichlet_T[node]} vs {value}")
        self.dirichlet_T[node] = value

    def set_displacement(self, node: int, ux: float | None, uy: float | None) -> None:
        old = self.dirichlet_u.get(node)
        if old is not None:
            merged = []
            for k, (a, b) in enumerate(zip(old, (ux, uy))):
                if a is not None and b is not None and a != b:
                    raise AssemblyError(
                        f"conflicting displacement prescriptions at node {node} "
                        f"component {k}: {a} vs {b}")
                merged.append(a if a is not None else b)
            self.dirichlet_u[node] = (merged[0], merged[1])
        else:
            self.dirichlet_u[node] = (ux, uy)

    @property
    def has_thermal(self) -> bool:
        return bool(self.dirichlet_T) or bool(self.flux_edges)


DOF_FE_INTERIOR = "F"
DOF_INTERFACE = "I"
DOF_VE_INTERIOR = "V"


@dataclass
class DofMap:
    """Node-to-global-dof numbering with F/I/V classification per dof."""

    field_kind: str              # "thermal" | "mechanical"
    n_nodes: int
    dofs_per_node: int
    classes: np.ndarray          # (ndof,) of 'F'/'I'/'V'
    mesh: Mesh | None = field(default=None, repr=False, compare=False)   # None: no geometry

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

    def dofs_in_class(self, cls: str) -> np.ndarray:
        return np.where(self.classes == cls)[0]

    def elimination_order(self, free: np.ndarray) -> np.ndarray:
        """Positions in ``free`` in the order the direct solve eliminates them.

        With a mesh, the nodes' ``Mesh.dissection_order`` expanded to
        interleaved dofs; without one, natural order.
        """
        if self.mesh is None:
            return np.arange(len(free))
        position = np.full(self.ndof, -1, dtype=np.int64)
        position[free] = np.arange(len(free))
        order = position[self.element_dofs(self.mesh.dissection_order[:, None]).ravel()]
        return order[order >= 0]


def build_dof_map(mesh: Mesh, field_kind: str) -> DofMap:
    if field_kind not in ("thermal", "mechanical"):
        raise AssemblyError(f"unknown field kind '{field_kind}'")
    per = 1 if field_kind == "thermal" else 2

    touches_fe = np.zeros(mesh.n_nodes, dtype=bool)
    touches_any = np.zeros(mesh.n_nodes, dtype=bool)
    for is_fe, _, verts in mesh.element_blocks():
        touches_any[verts] = True
        if is_fe:
            touches_fe[verts] = True
    orphans = np.where(~touches_any)[0]
    if orphans.size:
        raise AssemblyError(f"nodes without any element: {orphans.tolist()[:10]}")

    node_class = np.full(mesh.n_nodes, DOF_VE_INTERIOR, dtype="U1")
    node_class[touches_fe] = DOF_FE_INTERIOR
    node_class[sorted(mesh.interface_nodes)] = DOF_INTERFACE
    classes = np.repeat(node_class, per)
    return DofMap(field_kind=field_kind, n_nodes=mesh.n_nodes,
                  dofs_per_node=per, classes=classes, mesh=mesh)


@dataclass
class SparseSystem:
    """Assembled symmetric system before constraint elimination."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dof_map: DofMap
    dirichlet: dict[int, float]   # dof -> prescribed value

    @classmethod
    def from_dense(cls, k: np.ndarray, f: np.ndarray,
                   dirichlet: dict[int, float] | None = None) -> "SparseSystem":
        n = k.shape[0]
        dm = DofMap("thermal", n, 1, np.full(n, DOF_FE_INTERIOR, dtype="U1"))
        return cls(sp.csr_matrix(k), np.asarray(f, dtype=float), dm, dirichlet or {})


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


def _in_element_order(mesh: Mesh, parts: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Concatenate per-element rows of ``(positions, (m, k) values)`` parts in element order."""
    lengths = np.zeros(mesh.n_elements, dtype=np.int64)
    for pos, values in parts:
        lengths[pos] = values.shape[1]
    start = np.cumsum(lengths) - lengths
    out = np.empty(int(lengths.sum()), dtype=parts[0][1].dtype if parts else float)
    for pos, values in parts:
        out[start[pos][:, None] + np.arange(values.shape[1])] = values
    return out


def _compress(mesh: Mesh, ndof: int,
              blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> sp.csr_matrix:
    """CSR matrix of ``(positions, (m, n) dofs, (m, n, n) matrices)`` element blocks."""
    if not blocks:
        return sp.csr_matrix((ndof, ndof))
    r = _in_element_order(mesh, [(p, np.repeat(d, d.shape[1], axis=1)) for p, d, _ in blocks])
    c = _in_element_order(mesh, [(p, np.tile(d, (1, d.shape[1]))) for p, d, _ in blocks])
    v = _in_element_order(mesh, [(p, ke.reshape(len(p), -1)) for p, _, ke in blocks])
    order = np.lexsort((c, r))   # stable: fixed summation order run-to-run
    # one permuted copy at a time: a lower heap high-water mark, so a lower peak RSS
    r = r[order]
    c = c[order]
    v = v[order]
    del order
    return sp.coo_matrix((v, (r, c)), shape=(ndof, ndof)).tocsr()


def _check_node(node: int, n_nodes: int, what: str) -> None:
    if node < 0 or node >= n_nodes:
        raise AssemblyError(f"{what} references node {node} outside 0..{n_nodes - 1}")


def assemble_thermal(mesh: Mesh, materials: dict[int, MaterialProps],
                     bcs: BoundaryConditionSet,
                     tau: float = vem.DEFAULT_STABILIZATION) -> SparseSystem:
    """Coupled thermal system: FE quads and VE polygons into one matrix."""
    require_valid(mesh, materials)
    dof_map = build_dof_map(mesh, "thermal")
    rhs = np.zeros(dof_map.ndof)

    def element_matrices(is_fe, pos, verts):
        mats = gather_materials(materials, mesh.element_regions[pos])
        if not is_fe:
            projection = vem.thermal_projection(mesh.coords[verts], mats)
            return vem.thermal_element_matrices(projection, tau)
        return fem.thermal_stiffness_q4_batch(fem.q4_batch_eval(mesh.coords[verts]),
                                              mats.conductivity)

    blocks = [(pos, dof_map.element_dofs(verts), element_matrices(is_fe, pos, verts))
              for is_fe, pos, verts in mesh.element_blocks()]

    for (a, b, q_bar) in bcs.flux_edges:
        _check_node(a, mesh.n_nodes, "flux edge")
        _check_node(b, mesh.n_nodes, "flux edge")
        fe = fem.flux_load_edge(mesh.coords[a], mesh.coords[b], q_bar)
        rhs[a] += fe[0]
        rhs[b] += fe[1]

    dirichlet: dict[int, float] = {}
    for node, value in bcs.dirichlet_T.items():
        _check_node(node, mesh.n_nodes, "Dirichlet temperature")
        dirichlet[node] = value

    matrix = _compress(mesh, dof_map.ndof, blocks)
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
    planes = {materials[r].plane for r in mesh.regions()}
    if len(planes) > 1:
        warnings.warn("regions mix plane stress and plane strain in one solve",
                      stacklevel=2)

    dof_map = build_dof_map(mesh, "mechanical")
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

    blocks = [(pos, dof_map.element_dofs(verts), *element_contributions(is_fe, pos, verts))
              for is_fe, pos, verts in mesh.element_blocks()]
    if temperature is not None and blocks:
        np.add.at(rhs, _in_element_order(mesh, [(pos, dofs) for pos, dofs, _, _ in blocks]),
                  _in_element_order(mesh, [(pos, fe) for pos, _, _, fe in blocks]))
    matrix = _compress(mesh, dof_map.ndof, [(pos, dofs, ke) for pos, dofs, ke, _ in blocks])

    for (a, b, t_bar) in bcs.traction_edges:
        _check_node(a, mesh.n_nodes, "traction edge")
        _check_node(b, mesh.n_nodes, "traction edge")
        fe = fem.traction_load_edge(mesh.coords[a], mesh.coords[b], t_bar)
        np.add.at(rhs, dof_map.element_dofs((a, b)), fe)

    dirichlet: dict[int, float] = {}
    for node, (ux, uy) in bcs.dirichlet_u.items():
        _check_node(node, mesh.n_nodes, "Dirichlet displacement")
        if ux is not None:
            dirichlet[2 * node] = ux
        if uy is not None:
            dirichlet[2 * node + 1] = uy

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
    for dof in constraints:
        if dof < 0 or dof >= ndof:
            raise AssemblyError(f"constraint on dof {dof} outside 0..{ndof - 1}")

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
