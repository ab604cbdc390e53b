"""Coupled finite-element / virtual-element thermomechanical solver (2D)."""

from .assembly import (BoundaryConditionSet, DofMap, SparseSystem,
                       apply_dirichlet, assemble_mechanical, assemble_thermal,
                       build_dof_map)
from .errors import (AssemblyError, FevecError, MeshError, ParseError,
                     SolverError)
from .materials import MaterialProps, Plane, elasticity_matrix, thermal_strain_voigt
from .mesh import (Element, ElementKind, Mesh, PolygonStack,
                   find_interface_nodes, generate_plate_with_hole,
                   generate_quarter_annulus, generate_split_square,
                   generate_structured_quads, load_mesh, polygon_stack,
                   save_mesh, validate_mesh)
from .post import (ElementStress, LineProbe, export_fields, line_probe,
                   mean_relative_error, nodal_von_mises, recover_stress,
                   rms_l2_error, von_mises, write_probe_csv)
from .solver import (SolutionFields, SolveOptions, run_pipeline, solve_system)

__version__ = "0.1.0"
