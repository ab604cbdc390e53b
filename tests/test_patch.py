"""Patch exactness under any FE/VE split and on merged VE polygons.

Hypothesis draws the kind of every element of a split-square or quarter
annulus mesh; other meshes merge VE cells into larger polygons.  With
linear temperature and linear displacement prescribed on the boundary, the
coupled solve must reproduce both linear fields at every node, whatever the
partition or polygon.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec.assembly import BoundaryConditionSet
from fevec.materials import MaterialProps, Plane
from fevec.mesh import (ElementKind, Mesh, generate_quarter_annulus,
                        generate_split_square, validate_mesh)
from fevec.solver import run_pipeline
from conftest import element_table
from merged_polygons import merge_ve_blocks

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


def assert_linear_fields_reproduced(mesh, plane):
    """The coupled solve with linear T and u prescribed on every labeled node is exact."""
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(partitions(), st.sampled_from(list(Plane)))
def test_linear_fields_reproduced_for_any_partition(mesh, plane):
    assert_linear_fields_reproduced(mesh, plane)


# (grid rows, grid columns, base mesh): the VE cells of each are merged by
# ``merge_ve_blocks`` into 6-vertex pairs and non-convex 8-vertex L-shapes.
MERGED_BASES = {
    "split-square": (4, 8, lambda: generate_split_square(2.0, 1.0, 8, 4)),
    "annulus": (4, 6, lambda: generate_quarter_annulus(1.0, 2.5, 4, 6, 1.75)),
    "annulus-all-ve": (4, 4, lambda: generate_quarter_annulus(1.0, 2.5, 4, 4, 2.5)),
}


@pytest.mark.parametrize("plane", list(Plane))
@pytest.mark.parametrize("name", sorted(MERGED_BASES))
def test_linear_fields_reproduced_on_merged_polygons(name, plane):
    # Patch test on polygons with collinear and reflex vertices (Beirao da
    # Veiga et al., M3AS 23(1), 2013): the virtual element space holds the
    # linear fields on any simple polygon.
    n_rows, n_cols, base = MERGED_BASES[name]
    mesh = merge_ve_blocks(base(), n_rows, n_cols)
    assert validate_mesh(mesh) == []
    assert {(False, 6), (False, 8)} <= mesh.vertex_groups.keys()
    coords = mesh.coords[mesh.vertex_groups[False, 8][1]]
    edges = np.roll(coords, -1, axis=1) - coords
    before = np.roll(edges, 1, axis=1)
    turns = before[..., 0] * edges[..., 1] - before[..., 1] * edges[..., 0]
    assert (turns < 0).any(axis=1).all()        # every L has a reflex corner
    assert_linear_fields_reproduced(mesh, plane)
