"""Four-node isoparametric quadrilateral kernel.

Element matrices for heat conduction and plane elasticity, integrated with
2x2 Gauss quadrature, plus consistent edge loads for prescribed flux and
traction.  Voigt order is (xx, yy, xy) with engineering shear strain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeshError
from .materials import MaterialArrays, MaterialProps, elasticity_matrix, thermal_strain_voigt
from .mesh import rowdot

_G = 1.0 / math.sqrt(3.0)
# 2x2 Gauss rule on [-1,1]^2: points +-1/sqrt(3), unit weights.
GAUSS_2X2: tuple[tuple[float, float, float], ...] = (
    (-_G, -_G, 1.0), (_G, -_G, 1.0), (_G, _G, 1.0), (-_G, _G, 1.0),
)

# Parent-element corner signs, CCW from (-1,-1).
_XI_I = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA_I = np.array([-1.0, -1.0, 1.0, 1.0])


@dataclass(frozen=True)
class ShapeEval:
    """Shape functions and derived matrices at one local point."""

    N: np.ndarray        # (4,)
    dN_dxi: np.ndarray   # (2, 4) local gradients
    J: np.ndarray        # (2, 2)
    detJ: float
    B_T: np.ndarray      # (2, 4) global gradients (thermal)
    B_u: np.ndarray      # (3, 8) strain-displacement


def q4_shape_eval(coords: np.ndarray, xi: float, eta: float,
                  elem_id: int | None = None) -> ShapeEval:
    """Evaluate bilinear shape data at local point (xi, eta).

    ``coords`` are the 4 CCW corner coordinates (4, 2).  Raises MeshError
    when the Jacobian determinant is non-positive (distorted element).
    """
    n = 0.25 * (1.0 + _XI_I * xi) * (1.0 + _ETA_I * eta)
    dn = np.vstack((0.25 * _XI_I * (1.0 + _ETA_I * eta),
                    0.25 * _ETA_I * (1.0 + _XI_I * xi)))
    jac = dn @ coords
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if det <= 0.0:
        raise MeshError.of_element(elem_id, f"non-positive Jacobian {det:g} at ({xi:g},{eta:g})",
                                   unnamed="quad")
    inv = np.array([[jac[1, 1], -jac[0, 1]], [-jac[1, 0], jac[0, 0]]]) / det
    b_t = inv @ dn
    b_u = np.zeros((3, 8))
    b_u[0, 0::2] = b_t[0]
    b_u[1, 1::2] = b_t[1]
    b_u[2, 0::2] = b_t[1]
    b_u[2, 1::2] = b_t[0]
    return ShapeEval(N=n, dN_dxi=dn, J=jac, detJ=float(det), B_T=b_t, B_u=b_u)


def thermal_stiffness_q4(coords: np.ndarray, props: MaterialProps,
                         elem_id: int | None = None) -> np.ndarray:
    k = np.zeros((4, 4))
    lam = props.conductivity
    for xi, eta, w in GAUSS_2X2:
        ev = q4_shape_eval(coords, xi, eta, elem_id)
        k += (w * lam * ev.detJ) * (ev.B_T.T @ ev.B_T)
    return 0.5 * (k + k.T)


def mechanical_stiffness_q4(coords: np.ndarray, props: MaterialProps,
                            elem_id: int | None = None) -> np.ndarray:
    k = np.zeros((8, 8))
    d = elasticity_matrix(props)
    for xi, eta, w in GAUSS_2X2:
        ev = q4_shape_eval(coords, xi, eta, elem_id)
        k += (w * ev.detJ) * (ev.B_u.T @ d @ ev.B_u)
    return 0.5 * (k + k.T)


def thermal_load_q4(coords: np.ndarray, props: MaterialProps,
                    nodal_temperature: np.ndarray,
                    elem_id: int | None = None) -> np.ndarray:
    """Equivalent nodal forces of the thermal strain, T interpolated bilinearly."""
    f = np.zeros(8)
    d = elasticity_matrix(props)
    for xi, eta, w in GAUSS_2X2:
        ev = q4_shape_eval(coords, xi, eta, elem_id)
        t_gp = float(ev.N @ nodal_temperature)
        eps_th = thermal_strain_voigt(props, t_gp)
        f += (w * ev.detJ) * (ev.B_u.T @ (d @ eps_th))
    return f


def flux_load_edge(p0: np.ndarray, p1: np.ndarray, q_bar: float) -> np.ndarray:
    """Nodal loads of a constant prescribed outward flux on one boundary edge.

    Exact for linear edge traces: each node receives -q_bar * length / 2.
    """
    length = float(np.hypot(p1[0] - p0[0], p1[1] - p0[1]))
    if length <= 0.0:
        raise MeshError("flux edge has zero length")
    v = -q_bar * length * 0.5
    return np.array([v, v])


def traction_load_edge(p0: np.ndarray, p1: np.ndarray,
                       traction: tuple[float, float]) -> np.ndarray:
    """Nodal forces of a constant traction on one edge: (tx,ty)*L/2 per node."""
    length = float(np.hypot(p1[0] - p0[0], p1[1] - p0[1]))
    if length <= 0.0:
        raise MeshError("traction edge has zero length")
    tx, ty = traction
    return 0.5 * length * np.array([tx, ty, tx, ty])


# ---------------------------------------------------------------------------
# Batched kernels: one call evaluates a stack of quads.  Each Gauss-point
# product is a stacked matmul whose per-element BLAS call matches the
# per-element kernel above, so the results agree bit for bit.


@dataclass(frozen=True)
class Q4Batch:
    """Shape data of a stack of quads at the 2x2 Gauss points."""

    N: np.ndarray        # (4, 4) shape values, [Gauss point, node]
    detJ: np.ndarray     # (m, 4)
    B_T: np.ndarray      # (m, 4, 2, 4) global gradients, [element, Gauss point]


def q4_batch_eval(coords: np.ndarray, elem_ids: np.ndarray) -> Q4Batch:
    """Jacobians and gradients of (m, 4, 2) corner coordinates, once per Gauss point.

    A non-positive Jacobian raises the ``q4_shape_eval`` MeshError for the
    first flagged element (lowest row) at its first flagged Gauss point.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape[1:] != (4, 2):
        raise MeshError.of_element(int(elem_ids[0]),
                                   f"FE_QUAD must have 4 vertices, has {coords.shape[1]}")
    n = np.array([0.25 * (1.0 + _XI_I * xi) * (1.0 + _ETA_I * eta)
                  for xi, eta, _ in GAUSS_2X2])
    dn = np.array([np.vstack((0.25 * _XI_I * (1.0 + _ETA_I * eta),
                              0.25 * _ETA_I * (1.0 + _XI_I * xi)))
                   for xi, eta, _ in GAUSS_2X2])                  # (4, 2, 4)
    jac = dn @ coords[:, None]                                    # (m, 4, 2, 2)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    bad = det <= 0.0
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        g = int(np.argmax(bad[row]))
        xi, eta, _ = GAUSS_2X2[g]
        raise MeshError.of_element(int(elem_ids[row]), f"non-positive Jacobian {det[row, g]:g} "
                                   f"at ({xi:g},{eta:g})")
    inv = np.empty_like(jac)
    inv[..., 0, 0] = jac[..., 1, 1]
    inv[..., 0, 1] = -jac[..., 0, 1]
    inv[..., 1, 0] = -jac[..., 1, 0]
    inv[..., 1, 1] = jac[..., 0, 0]
    inv /= det[..., None, None]
    return Q4Batch(N=n, detJ=det, B_T=inv @ dn)


def _strain_displacement(b_t: np.ndarray) -> np.ndarray:
    """(..., 3, 8) strain-displacement matrices from (..., 2, 4) gradients."""
    b_u = np.zeros(b_t.shape[:-2] + (3, 8))
    b_u[..., 0, 0::2] = b_t[..., 0, :]
    b_u[..., 1, 1::2] = b_t[..., 1, :]
    b_u[..., 2, 0::2] = b_t[..., 1, :]
    b_u[..., 2, 1::2] = b_t[..., 0, :]
    return b_u


def thermal_stiffness_q4_batch(q: Q4Batch, conductivity: np.ndarray) -> np.ndarray:
    """(m, 4, 4) stack of ``thermal_stiffness_q4``; one conductivity per element."""
    k = np.zeros((q.detJ.shape[0], 4, 4))
    for g, (_, _, w) in enumerate(GAUSS_2X2):
        b_t = q.B_T[:, g]
        k += (w * conductivity * q.detJ[:, g])[:, None, None] * (np.swapaxes(b_t, 1, 2) @ b_t)
    return 0.5 * (k + np.swapaxes(k, 1, 2))


def mechanical_stiffness_q4_batch(q: Q4Batch, d: np.ndarray) -> np.ndarray:
    """(m, 8, 8) stack of ``mechanical_stiffness_q4``; ``d`` is (m, 3, 3)."""
    k = np.zeros((q.detJ.shape[0], 8, 8))
    for g, (_, _, w) in enumerate(GAUSS_2X2):
        b_u = _strain_displacement(q.B_T[:, g])
        k += (w * q.detJ[:, g])[:, None, None] * (np.swapaxes(b_u, 1, 2) @ d @ b_u)
    return 0.5 * (k + np.swapaxes(k, 1, 2))


def thermal_load_q4_batch(q: Q4Batch, mats: MaterialArrays,
                          nodal_temperature: np.ndarray) -> np.ndarray:
    """(m, 8) stack of ``thermal_load_q4``; temperatures are (m, 4)."""
    f = np.zeros((q.detJ.shape[0], 8))
    for g, (_, _, w) in enumerate(GAUSS_2X2):
        b_u = _strain_displacement(q.B_T[:, g])
        eps_th = mats.thermal_strain(rowdot(nodal_temperature, q.N[g]))
        stress = mats.D @ eps_th[..., None]
        f += (w * q.detJ[:, g])[:, None] * (np.swapaxes(b_u, 1, 2) @ stress)[..., 0]
    return f


def stress_q4_batch(q: Q4Batch, mats: MaterialArrays, nodal_displacement: np.ndarray,
                    nodal_temperature: np.ndarray | None) -> np.ndarray:
    """(m, 3) Gauss-point-averaged stresses; displacements (m, 8), temperatures (m, 4)."""
    sigma = np.zeros((q.detJ.shape[0], 3))
    for g in range(len(GAUSS_2X2)):
        strain = (_strain_displacement(q.B_T[:, g]) @ nodal_displacement[..., None])[..., 0]
        if nodal_temperature is not None:
            strain = strain - mats.thermal_strain(rowdot(nodal_temperature, q.N[g]))
        sigma += (mats.D @ strain[..., None])[..., 0]
    return sigma / len(GAUSS_2X2)
