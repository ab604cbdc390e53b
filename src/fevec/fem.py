"""Four-node isoparametric quadrilateral kernel.

Element matrices for heat conduction and plane elasticity, integrated with
2x2 Gauss quadrature, plus consistent edge loads for prescribed flux and
traction, each for a stack of quads or edges in one call.  Voigt order is
(xx, yy, xy) with engineering shear strain.  The kernels check nothing: the
assembly passes them only quads of a mesh that passed ``require_valid`` and
edges of exactly one of its elements, of positive length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import MaterialArrays
from .mesh import rowdot

_G = 1.0 / math.sqrt(3.0)
# 2x2 Gauss rule on [-1,1]^2: points +-1/sqrt(3), unit weights.
GAUSS_2X2: tuple[tuple[float, float, float], ...] = (
    (-_G, -_G, 1.0), (_G, -_G, 1.0), (_G, _G, 1.0), (-_G, _G, 1.0),
)

# Parent-element corner signs, CCW from (-1,-1).
_XI_I = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA_I = np.array([-1.0, -1.0, 1.0, 1.0])


def edge_loads(p0: np.ndarray, p1: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Consistent nodal loads of constant loads on the edges from ``p0`` to ``p1``, (k, 2):
    a flux (k,) gives each end node -q * length / 2, rows (a, b), a traction (k, 2)
    (tx, ty) * length / 2, rows (a_x, a_y, b_x, b_y).  Exact for linear edge traces."""
    length = np.hypot(p1[:, 0] - p0[:, 0], p1[:, 1] - p0[:, 1])
    if loads.ndim == 1:
        return np.tile((-loads * length * 0.5)[:, None], 2)
    return np.tile(0.5 * length[:, None] * loads, 2)


# ---------------------------------------------------------------------------
# Batched kernels: one call evaluates a stack of quads.  Each Gauss-point
# product is a stacked matmul whose per-element BLAS call matches a
# one-quad computation, so the results agree bit for bit.  The quads are
# strictly convex (``mesh.require_valid``), so every det J is positive.


@dataclass(frozen=True)
class Q4Batch:
    """Shape data of a stack of quads at the 2x2 Gauss points."""

    N: np.ndarray        # (4, 4) shape values, [Gauss point, node]
    detJ: np.ndarray     # (m, 4)
    B_T: np.ndarray      # (m, 4, 2, 4) global gradients, [element, Gauss point]


def _shape(xi: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape values (k, 4) and parent gradients (k, 2, 4) at (k, 1) parent points."""
    n = 0.25 * (1.0 + _XI_I * xi) * (1.0 + _ETA_I * eta)
    dn = np.stack((0.25 * _XI_I * (1.0 + _ETA_I * eta),
                   0.25 * _ETA_I * (1.0 + _XI_I * xi)), axis=1)
    return n, dn


# Shape values (4, 4) and parent gradients (4, 2, 4) at the Gauss points, read-only.
_GAUSS_N, _GAUSS_DN = _shape(*np.hsplit(np.array(GAUSS_2X2)[:, :2], 2))
_GAUSS_N.flags.writeable = _GAUSS_DN.flags.writeable = False


def q4_batch_eval(coords: np.ndarray) -> Q4Batch:
    """Jacobians and gradients of (m, 4, 2) corner coordinates, once per Gauss point."""
    coords = np.asarray(coords, dtype=float)
    jac = _GAUSS_DN @ coords[:, None]                             # (m, 4, 2, 2)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    inv = np.empty_like(jac)
    inv[..., 0, 0] = jac[..., 1, 1]
    inv[..., 0, 1] = -jac[..., 0, 1]
    inv[..., 1, 0] = -jac[..., 1, 0]
    inv[..., 1, 1] = jac[..., 0, 0]
    inv /= det[..., None, None]
    return Q4Batch(N=_GAUSS_N, detJ=det, B_T=inv @ _GAUSS_DN)


def q4_shape_batch(coords: np.ndarray, xi: np.ndarray,
                   eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape values (m, 4) and Jacobians (m, 2, 2) of (m, 4, 2) quads, each at its own (xi, eta)."""
    n, dn = _shape(xi[:, None], eta[:, None])
    return n, dn @ coords


def _strain_displacement(b_t: np.ndarray) -> np.ndarray:
    """(..., 3, 8) strain-displacement matrices from (..., 2, 4) gradients."""
    b_u = np.zeros(b_t.shape[:-2] + (3, 8))
    b_u[..., 0, 0::2] = b_t[..., 0, :]
    b_u[..., 1, 1::2] = b_t[..., 1, :]
    b_u[..., 2, 0::2] = b_t[..., 1, :]
    b_u[..., 2, 1::2] = b_t[..., 0, :]
    return b_u


def thermal_stiffness_q4_batch(q: Q4Batch, conductivity: np.ndarray) -> np.ndarray:
    """(m, 4, 4) thermal stiffness matrices; one conductivity per element."""
    k = np.zeros((q.detJ.shape[0], 4, 4))
    for g, (_, _, w) in enumerate(GAUSS_2X2):
        b_t = q.B_T[:, g]
        k += (w * conductivity * q.detJ[:, g])[:, None, None] * (np.swapaxes(b_t, 1, 2) @ b_t)
    return 0.5 * (k + np.swapaxes(k, 1, 2))


def mechanical_q4_batch(q: Q4Batch, mats: MaterialArrays, nodal_temperature: np.ndarray | None
                        ) -> tuple[np.ndarray, np.ndarray | None]:
    """(m, 8, 8) plane-elastic stiffness matrices and the (m, 8) nodal forces of the
    thermal strain, T interpolated bilinearly from temperatures (m, 4), or None without
    them; one Gauss loop builds each strain-displacement stack once."""
    m = q.detJ.shape[0]
    k = np.zeros((m, 8, 8))
    f = None if nodal_temperature is None else np.zeros((m, 8))
    for g, (_, _, w) in enumerate(GAUSS_2X2):
        b_u = _strain_displacement(q.B_T[:, g])
        b_u_t, weight = np.swapaxes(b_u, 1, 2), w * q.detJ[:, g]
        k += weight[:, None, None] * (b_u_t @ mats.D @ b_u)
        if f is not None:
            eps_th = mats.thermal_strain(rowdot(nodal_temperature, q.N[g]))
            f += weight[:, None] * (b_u_t @ (mats.D @ eps_th[..., None]))[..., 0]
    return 0.5 * (k + np.swapaxes(k, 1, 2)), f


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
