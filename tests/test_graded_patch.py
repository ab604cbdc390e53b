"""Patch test on a graded quadtree mesh.

``quadtree.graded_square`` refines the unit square toward one corner with
2:1 balance: FE quads, and 5- and 6-vertex VE polygons where a leaf has a
midside node, interleaved in the element table.  Linear T and u prescribed
on the boundary must come back exactly, up to round-off, with the constant
stress of that displacement in every element, whatever window cuts the
element stacks.
"""

import numpy as np

from fevec import mesh as meshmod
from fevec import post
from fevec.assembly import BoundaryConditionSet
from fevec.materials import MaterialProps, Plane, elasticity_matrix
from fevec.solver import run_pipeline
from quadtree import graded_square
from test_patch import GRAD_U, displacement_of, temperature_of

# alpha = 0: the solved temperature puts no load on the mechanical solve
PROPS = MaterialProps(E=100.0, nu=0.3, conductivity=2.0, alpha=0.0, T0=20.0,
                      plane=Plane.STRAIN)
# Largest error allowed, relative to the largest exact value of each field.
TOL = 1e-12


def solve():
    """The graded mesh, its solved fields and recovered stresses."""
    mesh = graded_square(8, 4)
    bcs = BoundaryConditionSet()
    for n in mesh.nodes_with_label("boundary"):
        bcs.set_temperature(n, float(temperature_of(mesh.coords[n])))
        bcs.set_displacement(n, *map(float, displacement_of(mesh.coords[n])))
    fields = run_pipeline(mesh, {0: PROPS}, bcs)
    return mesh, fields, post.recover_stress(mesh, {0: PROPS}, fields)


def test_linear_fields_exact_on_graded_quadtree(monkeypatch):
    mesh, fields, stresses = solve()
    assert mesh.vertex_groups.keys() == {(True, 4), (False, 5), (False, 6)}
    exact_t = temperature_of(mesh.coords)
    exact_u = displacement_of(mesh.coords)
    strain = np.array([GRAD_U[0, 0], GRAD_U[1, 1], GRAD_U[0, 1] + GRAD_U[1, 0]])
    exact_sigma = elasticity_matrix(PROPS) @ strain
    assert np.abs(fields.temperature - exact_t).max() <= TOL * np.abs(exact_t).max()
    assert np.abs(fields.displacement - exact_u).max() <= TOL * np.abs(exact_u).max()
    assert np.abs(stresses.sigma - exact_sigma).max() <= TOL * np.abs(exact_sigma).max()

    # windows of 7 positions cut every group's stack at other places, and
    # some window holds FE quads, pentagons and hexagons at once
    monkeypatch.setattr(meshmod, "_BLOCK_ROWS", 7)
    cut_mesh, cut_fields, cut_stresses = solve()
    assert any(len(window) == 3 for window in cut_mesh.element_windows(2))
    assert np.array_equal(cut_fields.temperature, fields.temperature)
    assert np.array_equal(cut_fields.displacement, fields.displacement)
    assert np.array_equal(cut_stresses, stresses)
