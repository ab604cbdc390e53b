"""Per-element element kernels kept as oracles for the stacked and batched ones.

These are the one-element-at-a-time bodies that ``fevec.vem`` (stacked VE
projections, matrices, loads and stresses) and ``fevec.fem`` (batched Q4
matrices and loads) replaced.  Tests compare the library kernels against
them row by row, bit for bit.  A polygon's geometry ``geom`` is one row of
``polygon_stack`` (``conftest.polygon_row``).  ``q4_shape_eval``,
``shoelace_area`` and ``element_coords`` are the one-element helpers the
library no longer needs.  ``compress`` is the sort-based sparse assembly,
and ``scatter`` the unwindowed, full-then-slice assembly around it, that
``fevec.assembly._scatter`` replaced; ``slice_system`` is that Dirichlet
slicing, and ``node_pattern`` the one-piece sort that built the node
pattern.  ``pattern_components`` is the rule ``Mesh.node_components`` had
before it read the graph of ``Mesh.edges``: the parts of ``node_pattern``.
``edge_components`` gives the parts of the edge graph from scipy's COO
input, without the library's CSR build.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from fevec.assembly import SparseSystem
from fevec.errors import SolverError
from fevec.fem import GAUSS_2X2
from fevec.materials import MaterialProps, elasticity_matrix, thermal_strain_voigt
from conftest import polygon_row

DEFAULT_STABILIZATION = 0.5

# Parent-element corner signs, CCW from (-1,-1).
_XI_I = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA_I = np.array([-1.0, -1.0, 1.0, 1.0])


def shoelace_area(coords: np.ndarray) -> float:
    """Signed polygon area; positive for counter-clockwise vertex order."""
    x = coords[:, 0]
    y = coords[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def element_coords(mesh, element) -> np.ndarray:
    """(n_v, 2) vertex coordinates of one element."""
    return mesh.coords[list(element.vertices)]


# ---------------------------------------------------------------------------
# Four-node quadrilateral


@dataclass(frozen=True)
class ShapeEval:
    """Shape functions and derived matrices at one local point."""

    N: np.ndarray        # (4,)
    dN_dxi: np.ndarray   # (2, 4) local gradients
    J: np.ndarray        # (2, 2)
    detJ: float
    B_T: np.ndarray      # (2, 4) global gradients (thermal)
    B_u: np.ndarray      # (3, 8) strain-displacement


def q4_shape_eval(coords: np.ndarray, xi: float, eta: float) -> ShapeEval:
    """Bilinear shape data of one quad, (4, 2) CCW corners, at local point (xi, eta)."""
    n = 0.25 * (1.0 + _XI_I * xi) * (1.0 + _ETA_I * eta)
    dn = np.vstack((0.25 * _XI_I * (1.0 + _ETA_I * eta),
                    0.25 * _ETA_I * (1.0 + _XI_I * xi)))
    jac = dn @ coords
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    inv = np.array([[jac[1, 1], -jac[0, 1]], [-jac[1, 0], jac[0, 0]]]) / det
    b_t = inv @ dn
    b_u = np.zeros((3, 8))
    b_u[0, 0::2] = b_t[0]
    b_u[1, 1::2] = b_t[1]
    b_u[2, 0::2] = b_t[1]
    b_u[2, 1::2] = b_t[0]
    return ShapeEval(N=n, dN_dxi=dn, J=jac, detJ=float(det), B_T=b_t, B_u=b_u)


def thermal_stiffness_q4(coords: np.ndarray, props: MaterialProps) -> np.ndarray:
    k = np.zeros((4, 4))
    lam = props.conductivity
    for xi, eta, w in GAUSS_2X2:
        ev = q4_shape_eval(coords, xi, eta)
        k += (w * lam * ev.detJ) * (ev.B_T.T @ ev.B_T)
    return 0.5 * (k + k.T)


def mechanical_stiffness_q4(coords: np.ndarray, props: MaterialProps) -> np.ndarray:
    k = np.zeros((8, 8))
    d = elasticity_matrix(props)
    for xi, eta, w in GAUSS_2X2:
        ev = q4_shape_eval(coords, xi, eta)
        k += (w * ev.detJ) * (ev.B_u.T @ d @ ev.B_u)
    return 0.5 * (k + k.T)


def thermal_load_q4(coords: np.ndarray, props: MaterialProps,
                    nodal_temperature: np.ndarray) -> np.ndarray:
    """Equivalent nodal forces of the thermal strain, T interpolated bilinearly."""
    f = np.zeros(8)
    d = elasticity_matrix(props)
    for xi, eta, w in GAUSS_2X2:
        ev = q4_shape_eval(coords, xi, eta)
        t_gp = float(ev.N @ nodal_temperature)
        eps_th = thermal_strain_voigt(props, t_gp)
        f += (w * ev.detJ) * (ev.B_u.T @ (d @ eps_th))
    return f


# ---------------------------------------------------------------------------
# Virtual element polygon


def vertex_normal_lengths(geom: SimpleNamespace) -> np.ndarray:
    weighted = geom.edge_normals * geom.edge_lengths[:, None]
    return 0.5 * (weighted + np.roll(weighted, 1, axis=0))


def scaled_coords(coords: np.ndarray, geom: SimpleNamespace) -> np.ndarray:
    return (coords - np.asarray(geom.centroid)) / geom.h


@dataclass(frozen=True)
class ThermalProjection:
    geom: SimpleNamespace
    G: np.ndarray          # (3, 3) closed system matrix
    G_energy: np.ndarray   # (3, 3) raw energy matrix (constant row zero)
    B: np.ndarray          # (3, n_v) closed right-hand sides
    D: np.ndarray          # (n_v, 3) basis values at vertices
    Pi_star: np.ndarray    # (3, n_v) polynomial coefficients of projection
    Pi: np.ndarray         # (n_v, n_v) projector in dof space


@dataclass(frozen=True)
class ElasticProjection:
    geom: SimpleNamespace
    M: np.ndarray          # (6, 6) closed system matrix
    M_energy: np.ndarray   # (6, 6) raw energy matrix (rigid rows/cols zero)
    B_bar: np.ndarray      # (6, 2 n_v) closed right-hand sides
    D_bar: np.ndarray      # (2 n_v, 6) basis values at vertex dofs
    Pi_star: np.ndarray    # (6, 2 n_v)
    Pi: np.ndarray         # (2 n_v, 2 n_v)
    strain_basis: np.ndarray  # (3, 6) constant Voigt strains of m1..m6


def thermal_projection(coords: np.ndarray, props: MaterialProps,
                       geom: SimpleNamespace | None = None) -> ThermalProjection:
    coords = np.asarray(coords, dtype=float)
    if geom is None:
        geom = polygon_row(coords)
    n_v = coords.shape[0]
    lam = props.conductivity
    h = geom.h
    area = geom.area

    sc = scaled_coords(coords, geom)
    dmat = np.column_stack((np.ones(n_v), sc[:, 0], sc[:, 1]))

    g_energy = np.zeros((3, 3))
    g_energy[1, 1] = g_energy[2, 2] = lam * area / (h * h)

    d_i = vertex_normal_lengths(geom)
    b = np.zeros((3, n_v))
    b[1] = (lam / h) * d_i[:, 0]
    b[2] = (lam / h) * d_i[:, 1]

    g = g_energy.copy()
    g[0] = dmat.mean(axis=0)
    b[0] = 1.0 / n_v

    try:
        pi_star = np.linalg.solve(g, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular thermal projection system") from exc
    pi = dmat @ pi_star
    return ThermalProjection(geom=geom, G=g, G_energy=g_energy, B=b,
                             D=dmat, Pi_star=pi_star, Pi=pi)


def thermal_element_matrices(coords: np.ndarray, props: MaterialProps,
                             tau: float = DEFAULT_STABILIZATION,
                             projection: ThermalProjection | None = None) -> np.ndarray:
    if projection is None:
        projection = thermal_projection(coords, props)
    k_c = projection.Pi_star.T @ projection.G_energy @ projection.Pi_star
    k_c = 0.5 * (k_c + k_c.T)
    residual = np.eye(projection.Pi.shape[0]) - projection.Pi
    k_s = (tau * np.trace(k_c)) * (residual.T @ residual)
    return k_c + k_s


def vector_strain_basis(geom: SimpleNamespace) -> np.ndarray:
    h = geom.h
    eps = np.zeros((3, 6))
    eps[2, 3] = 2.0 / h
    eps[0, 4] = 1.0 / h
    eps[1, 5] = 1.0 / h
    return eps


def vector_dof_matrix(coords: np.ndarray, geom: SimpleNamespace) -> np.ndarray:
    n_v = coords.shape[0]
    sc = scaled_coords(coords, geom)
    zeta, rho = sc[:, 0], sc[:, 1]
    dbar = np.zeros((2 * n_v, 6))
    dbar[0::2, 0] = 1.0
    dbar[1::2, 1] = 1.0
    dbar[0::2, 2] = -rho
    dbar[1::2, 2] = zeta
    dbar[0::2, 3] = rho
    dbar[1::2, 3] = zeta
    dbar[0::2, 4] = zeta
    dbar[1::2, 5] = rho
    return dbar


def elastic_projection(coords: np.ndarray, props: MaterialProps,
                       geom: SimpleNamespace | None = None) -> ElasticProjection:
    coords = np.asarray(coords, dtype=float)
    if geom is None:
        geom = polygon_row(coords)
    n_v = coords.shape[0]
    area = geom.area
    dhat = elasticity_matrix(props)
    eps = vector_strain_basis(geom)
    dbar = vector_dof_matrix(coords, geom)

    m_energy = area * (eps.T @ dhat @ eps)

    d_i = vertex_normal_lengths(geom)
    sig = dhat @ eps
    b_bar = np.zeros((6, 2 * n_v))
    b_bar[:, 0::2] = (np.outer(sig[0], d_i[:, 0]) + np.outer(sig[2], d_i[:, 1]))
    b_bar[:, 1::2] = (np.outer(sig[2], d_i[:, 0]) + np.outer(sig[1], d_i[:, 1]))

    closure = np.zeros((3, 2 * n_v))
    closure[0, 0::2] = 1.0 / n_v
    closure[1, 1::2] = 1.0 / n_v
    closure[2, 0::2] = -d_i[:, 1] / (2.0 * area)
    closure[2, 1::2] = d_i[:, 0] / (2.0 * area)

    m = m_energy.copy()
    m[:3] = closure @ dbar
    b_bar[:3] = closure

    try:
        pi_star = np.linalg.solve(m, b_bar)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular elastic projection system") from exc
    pi = dbar @ pi_star
    return ElasticProjection(geom=geom, M=m, M_energy=m_energy, B_bar=b_bar,
                             D_bar=dbar, Pi_star=pi_star, Pi=pi,
                             strain_basis=eps)


def elastic_element_matrices(coords: np.ndarray, props: MaterialProps,
                             tau: float = DEFAULT_STABILIZATION,
                             projection: ElasticProjection | None = None) -> np.ndarray:
    if projection is None:
        projection = elastic_projection(coords, props)
    k_c = projection.Pi_star.T @ projection.M_energy @ projection.Pi_star
    k_c = 0.5 * (k_c + k_c.T)
    residual = np.eye(projection.Pi.shape[0]) - projection.Pi
    k_s = (tau * np.trace(k_c)) * (residual.T @ residual)
    return k_c + k_s


def vem_thermal_load(coords: np.ndarray, props: MaterialProps,
                     nodal_temperature: np.ndarray,
                     projection: ElasticProjection | None = None) -> np.ndarray:
    if projection is None:
        projection = elastic_projection(coords, props)
    t_c = float(np.mean(nodal_temperature))
    eps_th = thermal_strain_voigt(props, t_c)
    dhat = elasticity_matrix(props)
    cell = projection.geom.area * (projection.strain_basis.T @ (dhat @ eps_th))
    return projection.Pi_star.T @ cell


def projected_stress(projection: ElasticProjection, props: MaterialProps,
                     nodal_displacement: np.ndarray,
                     nodal_temperature: np.ndarray | None) -> np.ndarray:
    coeffs = projection.Pi_star @ nodal_displacement
    strain = projection.strain_basis @ coeffs
    dhat = elasticity_matrix(props)
    if nodal_temperature is not None:
        strain = strain - thermal_strain_voigt(props, float(np.mean(nodal_temperature)))
    return dhat @ strain


# ---------------------------------------------------------------------------
# Sparse assembly


def in_element_order(n_elements: int, parts: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Concatenate per-element rows of ``(positions, (m, k) values)`` parts in element order."""
    lengths = np.zeros(n_elements, dtype=np.int64)
    for pos, values in parts:
        lengths[pos] = values.shape[1]
    start = np.cumsum(lengths) - lengths
    out = np.empty(int(lengths.sum()), dtype=parts[0][1].dtype if parts else float)
    for pos, values in parts:
        out[start[pos][:, None] + np.arange(values.shape[1])] = values
    return out


def compress(mesh, dof_map, blocks) -> sp.csr_matrix:
    """CSR matrix of ``(positions, (m, n_v) vertices, (m, n, n) matrices)`` element blocks.

    The element triplets in element order, stably sorted by (row, column),
    then COO to CSR, which sums duplicates in that order.
    """
    ndof = dof_map.ndof
    if not blocks:
        return sp.csr_matrix((ndof, ndof))
    dofs = [(p, dof_map.element_dofs(v)) for p, v, _ in blocks]
    r = in_element_order(mesh.n_elements, [(p, np.repeat(d, d.shape[1], axis=1)) for p, d in dofs])
    c = in_element_order(mesh.n_elements, [(p, np.tile(d, (1, d.shape[1]))) for p, d in dofs])
    v = in_element_order(mesh.n_elements, [(p, ke.reshape(len(p), -1)) for p, _, ke in blocks])
    order = np.lexsort((c, r))
    return sp.coo_matrix((v[order], (r[order], c[order])), shape=(ndof, ndof)).tocsr()


def node_pattern(mesh):
    """``Mesh.node_pattern`` from one sort of the keys i * n + j of every element's vertex pairs."""
    n = mesh.n_nodes
    keys = np.sort(np.concatenate([np.zeros(0, dtype=np.int64)] + [
        (verts[:, :, None] * n + verts[:, None, :]).ravel()
        for _, verts in mesh.vertex_groups.values()]))
    distinct = np.ones(keys.size, dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    rows, cols = np.divmod(keys[distinct], n)
    dtype = np.int32 if max(n, cols.size) <= np.iinfo(np.int32).max else np.int64
    return np.searchsorted(rows, np.arange(n + 1)).astype(dtype), cols.astype(dtype)


def edge_components(mesh):
    """Connected components of the graph of ``mesh.edges``: count, label per node."""
    n = mesh.n_nodes
    graph = sp.coo_matrix((np.ones(len(mesh.edges)), mesh.edges.T), shape=(n, n))
    return connected_components(graph, directed=False)


def pattern_components(mesh):
    """Connected components of the graph of ``mesh.node_pattern``: count, label per node."""
    n = mesh.n_nodes
    indptr, indices = mesh.node_pattern
    graph = sp.csr_array((np.ones(indices.size, dtype=bool), indices, indptr), shape=(n, n))
    return connected_components(graph, directed=False)


def scatter(mesh, dof_map, kernels, rhs, free, fixed):
    """The full-then-slice assembly that ``fevec.assembly._scatter`` replaced, same arguments.

    ``kernels`` runs once per whole group of one kind and vertex count, with
    no window cut; the loads go into ``rhs`` with one ``np.add.at`` over all
    entries in element order.  The whole natural-order matrix is
    ``compress``, and ``slice_system`` cuts the free x free and free x
    prescribed blocks out of it.
    """
    blocks = []
    for pos, verts in mesh.vertex_groups.values():
        for is_fe in (True, False):
            rows = mesh.element_fe[pos] == is_fe
            if rows.any():
                blocks.append((pos[rows], verts[rows], *kernels(is_fe, pos[rows], verts[rows])))
    if blocks and blocks[0][3] is not None:
        np.add.at(rhs, in_element_order(mesh.n_elements, [(p, dof_map.element_dofs(v))
                                                          for p, v, _, _ in blocks]),
                  in_element_order(mesh.n_elements, [(p, fe) for p, _, _, fe in blocks]))
    return slice_system(compress(mesh, dof_map, [(p, v, ke) for p, v, ke, _ in blocks]),
                        free, fixed)


def slice_system(matrix, free, fixed):
    """Free x free and free x prescribed blocks of a natural-order matrix, rows in ``free`` order.

    The Dirichlet reduction that assembling straight into the blocks
    replaced: the rows of ``free`` in one slice, then the columns of
    ``free`` (scipy keeps each row's natural column order) and of ``fixed``.
    """
    rows = matrix.tocsr()[free]
    return rows[:, free].tocsr(), rows[:, fixed]


def reduce(matrix, rhs, dof_map, dirichlet):
    """``fevec.assembly.SparseSystem`` of a whole natural-order system, by ``slice_system``,
    with the values of ``dirichlet`` (dof -> value) lifted into the right-hand side."""
    fixed = np.array(sorted(dirichlet), dtype=np.int64)
    values = np.array([dirichlet[dof] for dof in fixed], dtype=float)
    free = np.delete(np.arange(dof_map.ndof), fixed)
    block, coupling = slice_system(matrix, free, fixed)
    return SparseSystem(block, np.asarray(rhs, dtype=float)[free] - coupling @ values, free,
                        fixed, values, dof_map)
