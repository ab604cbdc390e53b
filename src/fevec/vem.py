"""First-order virtual element kernel on arbitrary polygons, stacked.

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

Every kernel works on a stack of m polygons with the same vertex count,
(m, n_v, 2) coordinates with one ``MaterialArrays`` row (the thermal
projection: one conductivity) each, and makes one
numpy call per step for the whole stack: the projection systems go through
one stacked ``np.linalg.solve`` (Sutton, "The virtual element method in 50
lines of MATLAB", Numer. Algorithms 2017).  Each product is a stacked
``matmul`` in the operation order of a one-polygon computation, so every row
equals that polygon computed on its own, bit for bit.  A single polygon is
the one-row stack.

A stacked call holds a few arrays of its stack's element-matrix size, so
``Mesh.element_windows`` bounds each VE block to ``mesh.STACK_ENTRIES``
(16 384) entries: 256 four-vertex polygons for elasticity, all 1 024 of a
window for heat conduction.  Stacked rows are independent: no cut moves a bit.

On polygons that ``mesh.validate_mesh`` accepts both projection systems
are non-singular for positive moduli (the thermal one is [[1, ., .], [0, c,
0], [0, 0, c]], c = lambda |E| / h^2; the elastic one is block-triangular),
so a singular stack means moduli that underflow: a SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .materials import MaterialArrays
from .mesh import PolygonStack, polygon_stack

DEFAULT_STABILIZATION = 0.5


def vertex_normal_lengths(geom: PolygonStack) -> np.ndarray:
    """Per-vertex boundary weights d_i = (n_prev*L_prev + n_next*L_next)/2, (..., n_v, 2).

    d_i equals the exact boundary integral of the hat trace psi_i against a
    constant normal field; the rows sum to zero on any closed polygon.
    """
    weighted = geom.edge_normals * geom.edge_lengths[..., None]
    return 0.5 * (weighted + np.roll(weighted, 1, axis=-2))


def scaled_coords(coords: np.ndarray, geom: PolygonStack) -> np.ndarray:
    """Monomial coordinates (zeta, rho) of the vertices, bounded by 1."""
    return (coords - np.asarray(geom.centroid)[..., None, :]) / np.asarray(geom.h)[..., None, None]


def _transpose(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _solve(systems: np.ndarray, rhs: np.ndarray, field: str) -> np.ndarray:
    """Stacked solve of the projection systems of one field."""
    try:
        return np.linalg.solve(systems, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular {field} projection system") from exc


@dataclass(frozen=True)
class ThermalProjection:
    """Energy projections of a stack of polygons onto {1, zeta, rho}."""

    geom: PolygonStack
    G_energy: np.ndarray   # (m, 3, 3) raw energy matrices (constant row zero)
    D: np.ndarray          # (m, n_v, 3) basis values at vertices
    Pi_star: np.ndarray    # (m, 3, n_v) polynomial coefficients of the projection
    Pi: np.ndarray         # (m, n_v, n_v) projector in dof space


@dataclass(frozen=True)
class ElasticProjection:
    """Ritz projections of a stack of polygons onto m1..m6."""

    geom: PolygonStack
    M_energy: np.ndarray      # (m, 6, 6) raw energy matrices (rigid rows/cols zero)
    D_bar: np.ndarray         # (m, 2 n_v, 6) basis values at vertex dofs
    Pi_star: np.ndarray       # (m, 6, 2 n_v)
    Pi: np.ndarray            # (m, 2 n_v, 2 n_v)
    strain_basis: np.ndarray  # (m, 3, 6) constant Voigt strains of m1..m6


def thermal_projection(coords: np.ndarray, conductivity: np.ndarray) -> ThermalProjection:
    """Energy projection of the scalar virtual space of each polygon in a (m, n_v, 2) stack.

    ``conductivity`` holds one value per polygon; it scales both sides of the
    projection system, so ``Pi_star`` depends on it only through rounding.
    """
    coords = np.asarray(coords, dtype=float)
    geom = polygon_stack(coords)
    m, n_v = coords.shape[:2]
    lam = conductivity
    h = geom.h

    dmat = np.concatenate((np.ones((m, n_v, 1)), scaled_coords(coords, geom)), axis=2)

    # grad p2 = (1/h, 0), grad p3 = (0, 1/h); constant over E.
    g_energy = np.zeros((m, 3, 3))
    g_energy[:, 1, 1] = g_energy[:, 2, 2] = lam * geom.area / (h * h)

    d_i = vertex_normal_lengths(geom)
    b = np.empty((m, 3, n_v))
    b[:, 0] = 1.0 / n_v
    b[:, 1:] = (lam / h)[:, None, None] * _transpose(d_i)

    g = g_energy.copy()
    g[:, 0] = dmat.mean(axis=1)       # vertex-average closure of the constant mode

    pi_star = _solve(g, b, "thermal")
    return ThermalProjection(geom=geom, G_energy=g_energy, D=dmat, Pi_star=pi_star,
                             Pi=dmat @ pi_star)


def _stabilized(k_c: np.ndarray, pi: np.ndarray, tau: float) -> np.ndarray:
    """Symmetrized consistency part plus tau * trace-scaled (I - Pi)^T (I - Pi)."""
    k_c = 0.5 * (k_c + _transpose(k_c))
    residual = np.eye(pi.shape[-1]) - pi
    k_s = (tau * np.trace(k_c, axis1=-2, axis2=-1))[:, None, None] * (
        _transpose(residual) @ residual)
    return k_c + k_s


def thermal_element_matrices(projection: ThermalProjection,
                             tau: float = DEFAULT_STABILIZATION) -> np.ndarray:
    """(m, n_v, n_v) thermal stiffness: consistency + stabilization."""
    p = projection
    return _stabilized(_transpose(p.Pi_star) @ p.G_energy @ p.Pi_star, p.Pi, tau)


def vector_strain_basis(geom: PolygonStack) -> np.ndarray:
    """(m, 3, 6) Voigt strains of m1..m6 as columns (constant on each polygon)."""
    h = geom.h
    eps = np.zeros((len(h), 3, 6))
    eps[:, 2, 3] = 2.0 / h     # m4 = (rho, zeta): pure shear
    eps[:, 0, 4] = 1.0 / h     # m5 = (zeta, 0): x stretch
    eps[:, 1, 5] = 1.0 / h     # m6 = (0, rho): y stretch
    return eps


def vector_dof_matrix(coords: np.ndarray, geom: PolygonStack) -> np.ndarray:
    """(m, 2 n_v, 6) values of the vector basis at interleaved (ux, uy) dofs."""
    m, n_v = coords.shape[:2]
    sc = scaled_coords(coords, geom)
    zeta, rho = sc[..., 0], sc[..., 1]
    dbar = np.zeros((m, 2 * n_v, 6))
    dbar[:, 0::2, 0] = 1.0
    dbar[:, 1::2, 1] = 1.0
    dbar[:, 0::2, 2] = -rho
    dbar[:, 1::2, 2] = zeta
    dbar[:, 0::2, 3] = rho
    dbar[:, 1::2, 3] = zeta
    dbar[:, 0::2, 4] = zeta
    dbar[:, 1::2, 5] = rho
    return dbar


def elastic_projection(coords: np.ndarray, mats: MaterialArrays) -> ElasticProjection:
    """Ritz projection of the vector virtual space of each polygon in a (m, n_v, 2) stack."""
    coords = np.asarray(coords, dtype=float)
    geom = polygon_stack(coords)
    m, n_v = coords.shape[:2]
    area = geom.area
    eps = vector_strain_basis(geom)
    dbar = vector_dof_matrix(coords, geom)

    m_energy = area[:, None, None] * (_transpose(eps) @ mats.D @ eps)

    # Boundary right-hand sides: node i receives the constant traction of
    # each basis mode integrated against its hat trace.
    d_i = vertex_normal_lengths(geom)[:, None]            # (m, 1, n_v, 2)
    sig = (mats.D @ eps)[..., None]                       # (m, 3, 6, 1) constant stresses
    b_bar = np.empty((m, 6, 2 * n_v))
    b_bar[:, :, 0::2] = sig[:, 0] * d_i[..., 0] + sig[:, 2] * d_i[..., 1]
    b_bar[:, :, 1::2] = sig[:, 2] * d_i[..., 0] + sig[:, 1] * d_i[..., 1]

    # Close the three strain-free modes: preserve the vertex averages of ux
    # and uy, and the boundary-integral mean rotation.
    closure = np.zeros((m, 3, 2 * n_v))
    closure[:, 0, 0::2] = 1.0 / n_v
    closure[:, 1, 1::2] = 1.0 / n_v
    closure[:, 2, 0::2] = -d_i[:, 0, :, 1] / (2.0 * area)[:, None]
    closure[:, 2, 1::2] = d_i[:, 0, :, 0] / (2.0 * area)[:, None]

    systems = m_energy.copy()
    systems[:, :3] = closure @ dbar       # functionals applied to the basis
    b_bar[:, :3] = closure

    pi_star = _solve(systems, b_bar, "elastic")
    return ElasticProjection(geom=geom, M_energy=m_energy, D_bar=dbar, Pi_star=pi_star,
                             Pi=dbar @ pi_star, strain_basis=eps)


def elastic_element_matrices(projection: ElasticProjection,
                             tau: float = DEFAULT_STABILIZATION) -> np.ndarray:
    """(m, 2 n_v, 2 n_v) elastic stiffness: consistency + stabilization."""
    p = projection
    return _stabilized(_transpose(p.Pi_star) @ p.M_energy @ p.Pi_star, p.Pi, tau)


def vem_thermal_load(projection: ElasticProjection, mats: MaterialArrays,
                     nodal_temperature: np.ndarray) -> np.ndarray:
    """(m, 2 n_v) equivalent nodal forces of the thermal strain; temperatures (m, n_v).

    The element temperature representative is the mean of the nodal values,
    which integrates the projected (linear) temperature exactly under the
    vertex-average closure.
    """
    p = projection
    eps_th = mats.thermal_strain(nodal_temperature.mean(axis=1))
    stress = mats.D @ eps_th[..., None]
    cell = p.geom.area[:, None, None] * (_transpose(p.strain_basis) @ stress)
    return (_transpose(p.Pi_star) @ cell)[..., 0]


def projected_stress(projection: ElasticProjection, mats: MaterialArrays,
                     nodal_displacement: np.ndarray,
                     nodal_temperature: np.ndarray | None) -> np.ndarray:
    """(m, 3) constant stresses of the projected displacement polynomials.

    Displacements are (m, 2 n_v) interleaved, temperatures (m, n_v).
    """
    coeffs = projection.Pi_star @ nodal_displacement[..., None]
    strain = (projection.strain_basis @ coeffs)[..., 0]
    if nodal_temperature is not None:
        strain = strain - mats.thermal_strain(nodal_temperature.mean(axis=1))
    return (mats.D @ strain[..., None])[..., 0]
