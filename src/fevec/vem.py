"""First-order virtual element kernel on arbitrary polygons.

Element matrices are built without ever evaluating the (implicit) shape
functions: an energy projection onto linear polynomials provides the
consistency stiffness, and a rank-completing term scaled by the consistency
trace stabilizes the non-polynomial remainder.

Scalar (thermal) basis on element E with centroid (xc, yc) and diameter h:

    p1 = 1,  p2 = (x - xc)/h,  p3 = (y - yc)/h

Vector (displacement) basis:

    m1 = (1, 0)      m2 = (0, 1)      m3 = (-p3, p2)   [rigid rotation]
    m4 = (p3, p2)    m5 = (p2, 0)     m6 = (0, p3)

The strain of the vector basis uses standard engineering Voigt shear,
which makes m3 strain-free and gives m4 the pure-shear strain (0, 0, 2/h).

All boundary integrals reduce to closed-form sums because dof traces are
piecewise linear and the polynomial gradients are constant: node i carries
the half-sum of its two adjacent edge normal-length vectors.  The energy
bilinear forms are singular on constants/rigid modes, so the projection
systems are closed with vertex-average conditions (and a boundary-integral
mean rotation for m3), the standard first-order closure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeshError
from .materials import MaterialProps, elasticity_matrix, thermal_strain_voigt
from .mesh import PolygonGeometry, polygon_geometry_from_coords

DEFAULT_STABILIZATION = 0.5


def vertex_normal_lengths(geom: PolygonGeometry) -> np.ndarray:
    """Per-vertex boundary weights d_i = (n_prev*L_prev + n_next*L_next)/2.

    d_i equals the exact boundary integral of the hat trace psi_i against a
    constant normal field; the rows sum to zero on any closed polygon.
    """
    weighted = geom.edge_normals * geom.edge_lengths[:, None]
    return 0.5 * (weighted + np.roll(weighted, 1, axis=0))


def scaled_coords(coords: np.ndarray, geom: PolygonGeometry) -> np.ndarray:
    """Monomial coordinates (zeta, rho) of the vertices, bounded by 1."""
    return (coords - np.asarray(geom.centroid)) / geom.h


@dataclass(frozen=True)
class ThermalProjection:
    geom: PolygonGeometry
    G: np.ndarray          # (3, 3) closed system matrix
    G_energy: np.ndarray   # (3, 3) raw energy matrix (constant row zero)
    B: np.ndarray          # (3, n_v) closed right-hand sides
    D: np.ndarray          # (n_v, 3) basis values at vertices
    Pi_star: np.ndarray    # (3, n_v) polynomial coefficients of projection
    Pi: np.ndarray         # (n_v, n_v) projector in dof space


@dataclass(frozen=True)
class ElasticProjection:
    geom: PolygonGeometry
    M: np.ndarray          # (6, 6) closed system matrix
    M_energy: np.ndarray   # (6, 6) raw energy matrix (rigid rows/cols zero)
    B_bar: np.ndarray      # (6, 2 n_v) closed right-hand sides
    D_bar: np.ndarray      # (2 n_v, 6) basis values at vertex dofs
    Pi_star: np.ndarray    # (6, 2 n_v)
    Pi: np.ndarray         # (2 n_v, 2 n_v)
    strain_basis: np.ndarray  # (3, 6) constant Voigt strains of m1..m6


def thermal_projection(coords: np.ndarray, props: MaterialProps,
                       geom: PolygonGeometry | None = None,
                       elem_id: int | None = None) -> ThermalProjection:
    """Energy projection of the scalar virtual space onto {1, zeta, rho}."""
    coords = np.asarray(coords, dtype=float)
    if geom is None:
        geom = polygon_geometry_from_coords(coords, elem_id)
    n_v = coords.shape[0]
    lam = props.conductivity
    h = geom.h
    area = geom.area

    sc = scaled_coords(coords, geom)
    dmat = np.column_stack((np.ones(n_v), sc[:, 0], sc[:, 1]))

    # grad p2 = (1/h, 0), grad p3 = (0, 1/h); constant over E.
    g_energy = np.zeros((3, 3))
    g_energy[1, 1] = g_energy[2, 2] = lam * area / (h * h)

    d_i = vertex_normal_lengths(geom)
    b = np.zeros((3, n_v))
    b[1] = (lam / h) * d_i[:, 0]
    b[2] = (lam / h) * d_i[:, 1]

    g = g_energy.copy()
    g[0] = dmat.mean(axis=0)          # vertex-average closure of the constant mode
    b[0] = 1.0 / n_v

    try:
        pi_star = np.linalg.solve(g, b)
    except np.linalg.LinAlgError as exc:
        raise MeshError.of_element(elem_id, "singular thermal projection system") from exc
    pi = dmat @ pi_star
    return ThermalProjection(geom=geom, G=g, G_energy=g_energy, B=b,
                             D=dmat, Pi_star=pi_star, Pi=pi)


def thermal_element_matrices(coords: np.ndarray, props: MaterialProps,
                             tau: float = DEFAULT_STABILIZATION,
                             projection: ThermalProjection | None = None,
                             elem_id: int | None = None) -> np.ndarray:
    """Thermal stiffness K = consistency + stabilization, (n_v, n_v)."""
    if projection is None:
        projection = thermal_projection(coords, props, elem_id=elem_id)
    k_c = projection.Pi_star.T @ projection.G_energy @ projection.Pi_star
    k_c = 0.5 * (k_c + k_c.T)
    residual = np.eye(projection.Pi.shape[0]) - projection.Pi
    k_s = (tau * np.trace(k_c)) * (residual.T @ residual)
    return k_c + k_s


def vector_strain_basis(geom: PolygonGeometry) -> np.ndarray:
    """Voigt strains of m1..m6 as columns of a 3x6 matrix (constant on E)."""
    h = geom.h
    eps = np.zeros((3, 6))
    eps[2, 3] = 2.0 / h     # m4 = (rho, zeta): pure shear
    eps[0, 4] = 1.0 / h     # m5 = (zeta, 0): x stretch
    eps[1, 5] = 1.0 / h     # m6 = (0, rho): y stretch
    return eps


def vector_dof_matrix(coords: np.ndarray, geom: PolygonGeometry) -> np.ndarray:
    """(2 n_v, 6) values of the vector basis at interleaved (ux, uy) dofs."""
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
                       geom: PolygonGeometry | None = None,
                       elem_id: int | None = None) -> ElasticProjection:
    """Ritz projection of the vector virtual space onto m1..m6."""
    coords = np.asarray(coords, dtype=float)
    if geom is None:
        geom = polygon_geometry_from_coords(coords, elem_id)
    n_v = coords.shape[0]
    area = geom.area
    dhat = elasticity_matrix(props)
    eps = vector_strain_basis(geom)
    dbar = vector_dof_matrix(coords, geom)

    m_energy = area * (eps.T @ dhat @ eps)

    # Boundary right-hand sides: node i receives the constant traction of
    # each basis mode integrated against its hat trace.
    d_i = vertex_normal_lengths(geom)
    sig = dhat @ eps                      # (3, 6) constant stresses
    b_bar = np.zeros((6, 2 * n_v))
    b_bar[:, 0::2] = (np.outer(sig[0], d_i[:, 0]) + np.outer(sig[2], d_i[:, 1]))
    b_bar[:, 1::2] = (np.outer(sig[2], d_i[:, 0]) + np.outer(sig[1], d_i[:, 1]))

    # Close the three strain-free modes: preserve the vertex averages of ux
    # and uy, and the boundary-integral mean rotation.
    closure = np.zeros((3, 2 * n_v))
    closure[0, 0::2] = 1.0 / n_v
    closure[1, 1::2] = 1.0 / n_v
    closure[2, 0::2] = -d_i[:, 1] / (2.0 * area)
    closure[2, 1::2] = d_i[:, 0] / (2.0 * area)

    m = m_energy.copy()
    m[:3] = closure @ dbar                # functionals applied to the basis
    b_bar[:3] = closure

    try:
        pi_star = np.linalg.solve(m, b_bar)
    except np.linalg.LinAlgError as exc:
        raise MeshError.of_element(elem_id, "singular elastic projection system") from exc
    pi = dbar @ pi_star
    return ElasticProjection(geom=geom, M=m, M_energy=m_energy, B_bar=b_bar,
                             D_bar=dbar, Pi_star=pi_star, Pi=pi,
                             strain_basis=eps)


def elastic_element_matrices(coords: np.ndarray, props: MaterialProps,
                             tau: float = DEFAULT_STABILIZATION,
                             projection: ElasticProjection | None = None,
                             elem_id: int | None = None) -> np.ndarray:
    """Elastic stiffness K = consistency + stabilization, (2 n_v, 2 n_v)."""
    if projection is None:
        projection = elastic_projection(coords, props, elem_id=elem_id)
    k_c = projection.Pi_star.T @ projection.M_energy @ projection.Pi_star
    k_c = 0.5 * (k_c + k_c.T)
    residual = np.eye(projection.Pi.shape[0]) - projection.Pi
    k_s = (tau * np.trace(k_c)) * (residual.T @ residual)
    return k_c + k_s


def vem_thermal_load(coords: np.ndarray, props: MaterialProps,
                     nodal_temperature: np.ndarray,
                     projection: ElasticProjection | None = None,
                     elem_id: int | None = None) -> np.ndarray:
    """Equivalent nodal forces of the thermal strain on a polygon.

    The element temperature representative is the mean of the nodal values,
    which integrates the projected (linear) temperature exactly under the
    vertex-average closure.
    """
    if projection is None:
        projection = elastic_projection(coords, props, elem_id=elem_id)
    t_c = float(np.mean(nodal_temperature))
    eps_th = thermal_strain_voigt(props, t_c)
    dhat = elasticity_matrix(props)
    cell = projection.geom.area * (projection.strain_basis.T @ (dhat @ eps_th))
    return projection.Pi_star.T @ cell


def projected_stress(projection: ElasticProjection, props: MaterialProps,
                     nodal_displacement: np.ndarray,
                     nodal_temperature: np.ndarray | None) -> np.ndarray:
    """Constant element stress from the projected displacement polynomial."""
    coeffs = projection.Pi_star @ nodal_displacement
    strain = projection.strain_basis @ coeffs
    dhat = elasticity_matrix(props)
    if nodal_temperature is not None:
        strain = strain - thermal_strain_voigt(props, float(np.mean(nodal_temperature)))
    return dhat @ strain
