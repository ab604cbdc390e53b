"""Sparse symmetric solves and the two-stage thermomechanical pipeline.

The pipeline is strictly one-way: temperature is solved first, the thermal
strain enters the mechanical load, and mechanics never feeds back.

Before any solve, direct or CG, ``solve_system`` checks that the constraints
fix every rigid mode of every connected part of the mesh: a Dirichlet
temperature per part for heat conduction; for elasticity, constrained dofs on
which the two translations and the rotation have rank 3.  An ill-posed system
raises ``SolverError`` naming the part's lowest node id and what it lacks.

The direct solve is one path: SuperLU in symmetric mode (Li, ACM TOMS 2005)
with diagonal pivots and the unknowns in the order of
``DofMap.elimination_order``, the mesh's geometric nested-dissection order
(``Mesh.dissection_order``, computed once per mesh and shared by the
thermal and mechanical solves).  ``run_pipeline`` has each system assembled
in that order for a direct solve and in natural order for CG.  The assembly
has already lifted the prescribed values into the right-hand side, so
``solve_system`` factors ``SparseSystem.matrix`` as assembled, with no
permuted, sliced or lifted copy, and ``SparseSystem.recover`` puts the
prescribed values back.  Both systems are symmetric positive definite, so
no pivoting is needed.  CG never computes the order.

SuperLU's options are ``SUPERLU_FACTOR``, one definition for both factors.
Its panel is 2 columns wide, not scipy's default of 20: the supernodal
factor's dense panel workspace (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM
J. Matrix Anal. Appl. 1999) grows with n x panel, and on the sandwich L3
mechanical factor (49 632 unknowns) the narrow panel lowers the peak RSS
from about 175 to 160 MB with the same fill and no slower factor; a panel
of 1 column is about 7 % slower.  The width changes the solution only at
round-off.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (BoundaryConditionSet, SparseSystem, assemble_mechanical,
                       assemble_thermal)
from .errors import SolverError
from .materials import MaterialProps
from .mesh import Mesh
from .vem import DEFAULT_STABILIZATION

METHOD_DIRECT = "direct"
METHOD_CG = "cg"

ORDERING_NESTED_DISSECTION = "nested_dissection"
ORDERING_NONE = "none"        # CG, a natural-order system, or nothing left to solve

# The direct factor's SuperLU options: the unknowns in the order given, diagonal
# pivots, symmetric mode, and the measured panel width (see the module docstring).
SUPERLU_FACTOR = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0, "panel_size": 2,
                  "options": {"SymmetricMode": True}}

# Eigenvalues of a part's rigid-mode Gram matrix below this fraction of its
# largest one count as zero: a rigid mode left free.
_RIGID_RANK_TOL = 1e-10


@dataclass
class SolveOptions:
    method: str = METHOD_DIRECT
    cg_rel_tol: float = 1e-10
    cg_max_iter: int = 20000
    tau: float = DEFAULT_STABILIZATION   # VEM stabilization override
    fields: str = "both"        # both | thermal: the fields run_pipeline solves

    def __post_init__(self):
        for name in ("method", "fields"):
            if not isinstance(getattr(self, name), str):
                raise SolverError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.method not in (METHOD_DIRECT, METHOD_CG):
            raise SolverError(f"method must be '{METHOD_DIRECT}' or '{METHOD_CG}', "
                              f"got '{self.method}'")
        if self.fields not in ("both", "thermal"):
            raise SolverError(f"fields must be 'both' or 'thermal', got '{self.fields}'")
        for name, kind, what in (("cg_rel_tol", numbers.Real, "a real number"),
                                 ("cg_max_iter", numbers.Integral, "an integer"),
                                 ("tau", numbers.Real, "a real number")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise SolverError(f"{name} must be {what}, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:       # an int beyond the float range
                finite = False
            if not (value > 0 and finite):
                raise SolverError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class SolveDiagnostics:
    """What a solve saw; for callers and logs, never written to run outputs."""

    method: str
    n_dof: int
    iterations: int = 0
    residual: float = 0.0
    ordering: str = ORDERING_NONE
    lu_fill: int = 0            # SuperLU.nnz: entries SuperLU stores for L and U


@dataclass
class SolutionFields:
    temperature: np.ndarray | None        # (n_nodes,) degC, None if not solved
    displacement: np.ndarray | None       # (n_nodes, 2) mm
    thermal_diag: SolveDiagnostics | None = None
    mechanical_diag: SolveDiagnostics | None = None


def solve_system(system: SparseSystem, options: SolveOptions | None = None
                 ) -> tuple[np.ndarray, SolveDiagnostics]:
    """Solve the assembled system and recover the full-length solution vector.

    The direct solve factors the unknowns in the order they were assembled
    in: ``run_pipeline`` assembles them in elimination order for it.
    """
    options = options or SolveOptions()
    _check_well_posed(system)
    matrix, rhs = system.matrix, system.rhs
    diag = SolveDiagnostics(method=options.method, n_dof=matrix.shape[0])
    if diag.n_dof == 0:
        return system.recover(np.zeros(0)), diag

    if options.method == METHOD_DIRECT:
        if system.elimination_order:
            diag.ordering = ORDERING_NESTED_DISSECTION
        x, diag.lu_fill = _solve_direct(matrix, rhs)
    else:
        x, diag.iterations = _solve_cg(matrix, rhs, options)

    resid = matrix @ x - rhs
    scale = float(np.abs(rhs).max()) or 1.0
    diag.residual = float(np.abs(resid).max()) / scale
    if not np.all(np.isfinite(x)) or diag.residual > 1e-6:
        raise SolverError(
            "linear solve produced an invalid solution "
            f"(relative residual {diag.residual:.3e}); the system is likely "
            "singular -- check for missing constraints (unconstrained "
            "rigid-body modes or no Dirichlet temperature)")
    return system.recover(x), diag


def _check_well_posed(system: SparseSystem) -> None:
    """Raise SolverError unless the constraints fix every rigid mode of every connected part.

    Parts are the connected components of the mesh's node graph.  Heat
    conduction needs a Dirichlet temperature in each part; elasticity needs
    the modes (1, 0), (0, 1) and (-y, x), centred on the part and restricted
    to its constrained dofs, to have rank 3.
    """
    mesh = system.dof_map.mesh
    if system.dof_map.dofs_per_node == 2:
        _require_rigid_modes_fixed(mesh, system.fixed)
        return
    n_parts, part = mesh.node_components
    floating = np.ones(n_parts, dtype=bool)
    floating[part[system.fixed]] = False
    if floating.any():
        raise SolverError(
            "ill-posed thermal problem: the connected mesh part containing node "
            f"{int(np.flatnonzero(floating[part])[0])} has no Dirichlet temperature "
            "(missing constraints; the temperature is fixed only up to a constant)")


def _require_rigid_modes_fixed(mesh: Mesh, fixed: np.ndarray) -> None:
    """Raise unless the constrained dofs of every mesh part fix its three rigid modes."""
    n_parts, part = mesh.node_components
    count = np.bincount(part, minlength=n_parts)
    centre = np.column_stack([np.bincount(part, mesh.coords[:, k], n_parts) / count
                              for k in (0, 1)])
    rel = mesh.coords - centre[part]
    extent = np.zeros(n_parts)
    np.maximum.at(extent, part, np.abs(rel).max(axis=1))
    rel /= np.where(extent > 0, extent, 1.0)[part, None]
    node, component = np.divmod(fixed, 2)
    modes = np.zeros((fixed.size, 3))
    modes[np.arange(fixed.size), component] = 1.0
    modes[:, 2] = np.where(component == 0, -rel[node, 1], rel[node, 0])
    gram = np.zeros((n_parts, 3, 3))
    np.add.at(gram, part[node], modes[:, :, None] * modes[:, None, :])
    eig = np.linalg.eigvalsh(gram)
    rank = (eig > _RIGID_RANK_TOL * eig[:, -1:]).sum(axis=1)
    if (rank == 3).all():
        return
    lowest = int(np.flatnonzero(rank[part] < 3)[0])
    p = part[lowest]
    missing = [mode for mode, k in (("x translation", 0), ("y translation", 1))
               if p not in part[node[component == k]]]
    if 3 - rank[p] > len(missing):
        missing.append("rotation")
    named = missing[0] if len(missing) == 1 else f"{', '.join(missing[:-1])} and {missing[-1]}"
    raise SolverError(
        f"ill-posed mechanical problem: the connected mesh part containing node {lowest} "
        f"lacks displacement constraints against {named} (a rigid-body mode is free)")


def _solve_direct(matrix, rhs) -> tuple[np.ndarray, int]:
    """Symmetric-mode SuperLU of ``matrix`` with its unknowns eliminated in the given order.

    ``matrix`` is symmetric CSR, so its transpose is itself as a CSC view, not a copy.
    Returns the solution and the fill, ``SuperLU.nnz``: read from the factor
    as stored, without the ``L`` and ``U`` CSC copies.
    """
    try:
        lu = spla.splu(matrix.T, **SUPERLU_FACTOR)
    except RuntimeError as exc:
        raise SolverError(
            f"sparse factorization failed ({exc}); the system is likely "
            "singular -- check for missing constraints (rigid-body modes)") from exc
    return lu.solve(rhs), int(lu.nnz)


def _solve_cg(matrix, rhs, options: SolveOptions):
    """Jacobi-preconditioned CG."""
    d = matrix.diagonal()
    if np.any(d <= 0):
        raise SolverError("non-positive diagonal entry; system is not SPD")
    inv = 1.0 / d
    precond = spla.LinearOperator(matrix.shape, matvec=lambda v: inv * v)
    iterations = 0

    def count(_xk):
        nonlocal iterations
        iterations += 1

    x, info = spla.cg(matrix, rhs, rtol=options.cg_rel_tol, atol=0.0,
                      maxiter=options.cg_max_iter, M=precond, callback=count)
    if info != 0:
        residual = float(np.linalg.norm(matrix @ x - rhs))
        scale = float(np.linalg.norm(rhs)) or 1.0
        raise SolverError(
            f"CG did not converge in {options.cg_max_iter} iterations "
            f"(final residuals: absolute {residual:.3e}, relative {residual / scale:.3e})")
    return x, iterations


def run_pipeline(mesh: Mesh, materials: dict[int, MaterialProps],
                 bcs: BoundaryConditionSet,
                 options: SolveOptions | None = None) -> SolutionFields:
    """Thermal solve, thermal-load construction, mechanical solve.

    ``options.fields == "thermal"`` stops after the thermal solve, which then
    runs whatever the boundary data: without a Dirichlet temperature it is
    ill-posed and raises ``SolverError``.  With both fields, a problem that
    defines no thermal boundary data skips the thermal stage, and the
    mechanical solve sees reference temperature everywhere (zero thermal load).
    """
    options = options or SolveOptions()
    ordered = options.method == METHOD_DIRECT
    temperature = None
    thermal_diag = None
    if bcs.has_thermal or options.fields == "thermal":
        temperature, thermal_diag = solve_system(
            assemble_thermal(mesh, materials, bcs, tau=options.tau, elimination_order=ordered),
            options)

    displacement = None
    mech_diag = None
    if options.fields == "both":
        u_flat, mech_diag = solve_system(
            assemble_mechanical(mesh, materials, bcs, temperature, tau=options.tau,
                                elimination_order=ordered), options)
        displacement = u_flat.reshape(-1, 2)

    return SolutionFields(temperature=temperature, displacement=displacement,
                          thermal_diag=thermal_diag, mechanical_diag=mech_diag)
