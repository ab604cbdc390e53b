"""Exception types shared across the package.

The CLI maps these onto process exit codes: validation problems -> 1,
solver problems -> 2, parse/IO problems -> 3.
"""


class FevecError(Exception):
    """Base class for all package errors.

    ``element_id`` names the offending element when the error comes from one.
    """

    def __init__(self, message: str = "", element_id: int | None = None):
        self.element_id = element_id
        super().__init__(message)


class MeshError(FevecError):
    """A mesh violates a structural invariant (orientation, degeneracy, ...)."""

    @classmethod
    def of_element(cls, element_id: int | None, text: str, unnamed: str = "polygon"):
        """``element <id>: text`` naming the element; ``<unnamed>: text`` without an id."""
        tag = unnamed if element_id is None else f"element {element_id}"
        return cls(f"{tag}: {text}", element_id=element_id)


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
