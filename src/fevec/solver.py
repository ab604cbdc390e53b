"""Sparse symmetric solves and the two-stage thermomechanical pipeline.

The pipeline is strictly one-way: temperature is solved first, the thermal
strain enters the mechanical load, and mechanics never feeds back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (BoundaryConditionSet, SparseSystem, apply_dirichlet,
                       assemble_mechanical, assemble_thermal)
from .errors import SolverError
from .materials import MaterialProps
from .mesh import Mesh
from .vem import DEFAULT_STABILIZATION

METHOD_DIRECT = "direct"
METHOD_CG = "cg"


@dataclass
class SolveOptions:
    method: str = METHOD_DIRECT
    cg_rel_tol: float = 1e-10
    cg_max_iter: int = 20000
    tau: float = DEFAULT_STABILIZATION   # VEM stabilization override

    def __post_init__(self):
        if self.method not in (METHOD_DIRECT, METHOD_CG):
            raise SolverError(f"method must be '{METHOD_DIRECT}' or '{METHOD_CG}', "
                              f"got '{self.method}'")
        for name in ("cg_rel_tol", "cg_max_iter"):
            if not getattr(self, name) > 0:
                raise SolverError(f"{name} must be positive, got {getattr(self, name)!r}")


@dataclass
class SolveDiagnostics:
    method: str
    n_dof: int
    iterations: int = 0
    residual: float = 0.0


@dataclass
class SolutionFields:
    temperature: np.ndarray | None        # (n_nodes,) degC, None if not solved
    displacement: np.ndarray | None       # (n_nodes, 2) mm
    thermal_diag: SolveDiagnostics | None = None
    mechanical_diag: SolveDiagnostics | None = None


def solve_system(system: SparseSystem, options: SolveOptions | None = None
                 ) -> tuple[np.ndarray, SolveDiagnostics]:
    """Reduce, solve and recover the full-length solution vector."""
    options = options or SolveOptions()
    reduced = apply_dirichlet(system)
    n = reduced.matrix.shape[0]
    diag = SolveDiagnostics(method=options.method, n_dof=n)
    if n == 0:
        return reduced.recover(np.zeros(0)), diag

    if options.method == METHOD_DIRECT:
        x = _solve_direct(reduced.matrix, reduced.rhs)
    else:
        x, diag.iterations = _solve_cg(reduced.matrix, reduced.rhs, options)

    resid = reduced.matrix @ x - reduced.rhs
    scale = float(np.abs(reduced.rhs).max()) or 1.0
    diag.residual = float(np.abs(resid).max()) / scale
    if not np.all(np.isfinite(x)) or diag.residual > 1e-6:
        raise SolverError(
            "linear solve produced an invalid solution "
            f"(relative residual {diag.residual:.3e}); the system is likely "
            "singular -- check for missing constraints (unconstrained "
            "rigid-body modes or no Dirichlet temperature)")
    return reduced.recover(x), diag


def _solve_direct(matrix, rhs):
    try:
        lu = spla.splu(matrix.tocsc())
    except RuntimeError as exc:
        raise SolverError(
            f"sparse factorization failed ({exc}); the system is likely "
            "singular -- check for missing constraints (rigid-body modes)") from exc
    return lu.solve(rhs)


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
                 options: SolveOptions | None = None,
                 mechanical: bool = True) -> SolutionFields:
    """Thermal solve, thermal-load construction, mechanical solve.

    When the problem defines no thermal boundary data the thermal stage is
    skipped and the mechanical solve sees reference temperature everywhere
    (zero thermal load).
    """
    options = options or SolveOptions()
    temperature = None
    thermal_diag = None
    if bcs.has_thermal:
        system = assemble_thermal(mesh, materials, bcs, tau=options.tau)
        temperature, thermal_diag = solve_system(system, options)

    displacement = None
    mech_diag = None
    if mechanical:
        system = assemble_mechanical(mesh, materials, bcs, temperature, tau=options.tau)
        u_flat, mech_diag = solve_system(system, options)
        displacement = u_flat.reshape(-1, 2)

    return SolutionFields(temperature=temperature, displacement=displacement,
                          thermal_diag=thermal_diag, mechanical_diag=mech_diag)
