"""Patch exactness under any FE/VE split.

Hypothesis draws the kind of every element of a split-square or quarter
annulus mesh.  With linear temperature and linear displacement prescribed
on the boundary, the coupled solve must reproduce both linear fields at
every node, whatever the partition.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec.assembly import BoundaryConditionSet
from fevec.materials import MaterialProps, Plane
from fevec.mesh import (ElementKind, Mesh, generate_quarter_annulus,
                        generate_split_square)
from fevec.solver import run_pipeline
from conftest import element_table

TOL = 1e-10
GRAD_U = np.array([[1.3e-3, 4.0e-4], [2.0e-4, -5.0e-4]])
SHIFT_U = np.array([2.0e-4, -1.0e-4])


def temperature_of(xy):
    return 1.0 + 2.0 * xy[..., 0] + 3.0 * xy[..., 1]


def displacement_of(xy):
    return xy @ GRAD_U.T + SHIFT_U


@st.composite
def partitions(draw):
    """A split-square or annulus mesh with every element's kind drawn."""
    if draw(st.booleans()):
        base = generate_split_square(2.0, 1.0, draw(st.integers(2, 6)), draw(st.integers(1, 4)))
    else:
        base = generate_quarter_annulus(1.0, 2.5, draw(st.integers(1, 4)),
                                        draw(st.integers(2, 6)), 1.0)
    ve = draw(st.lists(st.booleans(), min_size=base.n_elements, max_size=base.n_elements))
    vertices, _, regions = element_table(base)
    kinds = [ElementKind.VE_POLY if v else ElementKind.FE_QUAD for v in ve]
    return Mesh(base.coords, vertices, kinds, regions, base.boundary_edges)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(partitions(), st.sampled_from(list(Plane)))
def test_linear_fields_reproduced_for_any_partition(mesh, plane):
    # alpha = 0: the solved temperature puts no load on the mechanical solve
    mats = {0: MaterialProps(E=200.0, nu=0.3, conductivity=2.0, alpha=0.0, T0=20.0,
                             plane=plane)}
    bcs = BoundaryConditionSet()
    for label in sorted(mesh.labels()):
        for n in mesh.nodes_with_label(label):
            bcs.set_temperature(n, float(temperature_of(mesh.coords[n])))
            ux, uy = displacement_of(mesh.coords[n])
            bcs.set_displacement(n, float(ux), float(uy))
    fields = run_pipeline(mesh, mats, bcs)

    exact_t = temperature_of(mesh.coords)
    exact_u = displacement_of(mesh.coords)
    assert np.abs(fields.temperature - exact_t).max() <= TOL * np.abs(exact_t).max()
    assert np.abs(fields.displacement - exact_u).max() <= TOL * np.abs(exact_u).max()
