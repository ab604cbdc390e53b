"""Exception types shared across the package.

The CLI maps these onto process exit codes: validation problems -> 1,
solver problems -> 2, parse/IO problems -> 3.

``mesh.require_valid`` runs in front of every element kernel: a mesh that
``mesh.validate_mesh`` rejects raises MeshError with the report's first
message, then a region without a material raises AssemblyError.  A singular
VE projection, reachable only through moduli that underflow, is a SolverError.
"""


class FevecError(Exception):
    """Base class for all package errors."""


class MeshError(FevecError):
    """A mesh violates a structural invariant (orientation, degeneracy, ...)."""


class ParseError(FevecError):
    """A mesh or config file could not be parsed."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}:"
        super().__init__(f"{where} {message}" if where else message)


class AssemblyError(FevecError):
    """Problem definition is inconsistent (missing material, bad constraint, ...)."""


class SolverError(FevecError):
    """The linear solve failed (singular system, CG stagnation, ...)."""
