"""One validity rule: the pipeline runs exactly the meshes ``validate_mesh`` accepts.

A seeded family of one- to three-element meshes holds distorted FE quads and
random VE polygons: convex, non-convex, self-crossing and clockwise ones.
When ``validate_mesh`` accepts a mesh, both assemblies, stress recovery and
point evaluation at interior points succeed with finite values; when it
rejects one, each of them raises MeshError with the report's first message.
Element ids that are not list positions, and a mesh without elements, are
refused the same way.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec import post
from fevec.assembly import BoundaryConditionSet, assemble_mechanical, assemble_thermal
from fevec.errors import MeshError
from fevec.materials import MaterialProps
from fevec.mesh import (Element, ElementKind, Mesh, Violation, generate_split_square,
                        generate_structured_quads, validate_mesh)
from fevec.solver import SolutionFields, run_pipeline
from conftest import random_polygon

FE, VE = ElementKind.FE_QUAD, ElementKind.VE_POLY
MATERIALS = {0: MaterialProps(E=200.0, nu=0.3, conductivity=2.0, alpha=1e-5, T0=20.0)}
SQUARE = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
XI = np.array([-1.0, 1.0, 1.0, -1.0])
ETA = np.array([-1.0, -1.0, 1.0, 1.0])


def element_shape(rng):
    """(kind, (n_v, 2) corners, a point inside if the shape is valid), centred near the origin.

    FE quads are the square with corners jittered by up to 0.2 .. 1.6; VE
    polygons are star-shaped about the origin, some of them with two
    vertices swapped so that edges cross.  Either kind is sometimes reversed.
    """
    if rng.random() < 0.5:
        kind = FE
        coords = SQUARE + rng.uniform(-1.0, 1.0, (4, 2)) * rng.choice([0.2, 0.6, 1.0, 1.6])
        xi, eta = rng.uniform(-0.95, 0.95, 2)
        point = (0.25 * (1.0 + XI * xi) * (1.0 + ETA * eta)) @ coords
    else:
        kind = VE
        coords = random_polygon(rng, int(rng.integers(3, 9)), convex=bool(rng.random() < 0.4))
        if rng.random() < 0.25:
            i, j = rng.choice(len(coords), 2, replace=False)
            coords[[i, j]] = coords[[j, i]]
        point = np.zeros(2)
    if rng.random() < 0.15:
        coords = coords[::-1]
    return kind, coords, point


def family_mesh(seed):
    """A mesh of 1-3 unconnected elements from ``element_shape`` and a point in each."""
    rng = np.random.default_rng(seed)
    nodes, elements, points = [], [], []
    for k in range(int(rng.integers(1, 4))):
        kind, coords, point = element_shape(rng)
        shift = np.array([6.0 * k, 0.0])
        elements.append(Element(k, tuple(range(len(nodes), len(nodes) + len(coords))), kind, 0))
        nodes += (coords + shift).tolist()
        points.append(point + shift)
    return Mesh(nodes, elements), np.array(points)


def linear_fields(mesh):
    """Temperature equal to x (reproduced exactly by both kinds) and a random displacement."""
    rng = np.random.default_rng(mesh.n_nodes)
    return SolutionFields(temperature=mesh.coords[:, 0].copy(),
                          displacement=rng.normal(scale=1e-3, size=(mesh.n_nodes, 2)))


def entry_points(mesh, fields):
    """Every caller of the element kernels, on ``mesh``."""
    return (lambda: assemble_thermal(mesh, MATERIALS, BoundaryConditionSet()),
            lambda: assemble_mechanical(mesh, MATERIALS, BoundaryConditionSet(),
                                        fields.temperature),
            lambda: post.recover_stress(mesh, MATERIALS, fields),
            lambda: post.FieldEvaluator(mesh, MATERIALS, fields))


class TestOneValidityRule:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_kernels_accept_exactly_what_validation_accepts(self, seed):
        mesh, points = family_mesh(seed)
        fields = linear_fields(mesh)
        report = validate_mesh(mesh)
        if report:
            for run in entry_points(mesh, fields):
                with pytest.raises(MeshError) as info:
                    run()
                assert str(info.value) == report[0].message
            return
        thermal, mechanical, recover, _ = entry_points(mesh, fields)
        assert np.isfinite(thermal().matrix.data).all()
        system = mechanical()
        assert np.isfinite(system.matrix.data).all() and np.isfinite(system.rhs).all()
        stresses = recover()
        assert np.isfinite([s.sigma for s in stresses]).all()
        evaluator = post.FieldEvaluator(mesh, MATERIALS, fields, stresses)
        positions = np.arange(mesh.n_elements)
        assert evaluator.evaluate_at("temperature", positions, points) == pytest.approx(
            points[:, 0], rel=0.0, abs=1e-9)
        for quantity in ("ux", "uy", "von_mises"):
            assert np.isfinite(evaluator.evaluate_at(quantity, positions, points)).all()

    def test_family_covers_both_outcomes(self):
        codes, accepted = set(), set()
        for seed in range(200):
            mesh, _ = family_mesh(seed)
            report = validate_mesh(mesh)
            codes |= {v.code for v in report}
            if not report:
                accepted |= {e.kind for e in mesh.elements}
        assert {"orientation", "self-intersection", "fe-quad-convexity"} <= codes
        assert accepted == {FE, VE}


def test_collinear_polygon_refused():
    # every vertex on y = 0.95: the shoelace sum rounds to a positive 8.9e-16,
    # and the polygon's elastic projection is singular
    mesh = Mesh([(float(i), 0.95) for i in range(6)], [Element(0, tuple(range(6)), VE, 0)])
    for run in entry_points(mesh, linear_fields(mesh)):
        with pytest.raises(MeshError, match="^element 0: area 8.88178e-16 is zero to rounding$"):
            run()


@pytest.mark.parametrize("kind", [FE, VE])
def test_non_finite_coordinate_refused(kind):
    base = generate_structured_quads(2, 1, 2, 1, kind=kind)
    coords = base.coords.copy()
    coords[4, 0] = math.nan
    mesh = Mesh(coords, base.elements, base.boundary_edges)
    bcs = BoundaryConditionSet(dirichlet_T={0: 0.0, 3: 0.0, 2: 10.0, 5: 10.0},
                               dirichlet_u={0: (0.0, 0.0), 3: (0.0, 0.0)})
    fields = SolutionFields(temperature=np.zeros(6), displacement=np.zeros((6, 2)))
    for run in (lambda: run_pipeline(mesh, MATERIALS, bcs),
                lambda: post.recover_stress(mesh, MATERIALS, fields),
                lambda: post.FieldEvaluator(mesh, MATERIALS, fields)):
        with pytest.raises(MeshError) as info:
            run()
        assert str(info.value) == "non-finite coordinates at nodes [4]"


# Eight elements of a split square, listed or numbered so that some id is
# not its position, and the first position that breaks the rule.
ID_LISTS = {
    "shuffled": (lambda elements: [elements[i] for i in (2, 4, 3, 6, 5, 0, 1, 7)], 0, 2),
    "offset": (lambda elements: [Element(e.id + 100, e.vertices, e.kind, e.region)
                                 for e in elements], 0, 100),
    "repeated": (lambda elements: [Element(e.id // 2, e.vertices, e.kind, e.region)
                                   for e in elements], 1, 0),
}


@pytest.mark.parametrize("name", sorted(ID_LISTS))
def test_ids_not_positions_refused(name):
    # elements are named by position: any other id list is reported once and
    # refused by every kernel caller, however valid the elements are
    relist, position, element_id = ID_LISTS[name]
    base = generate_split_square(2.0, 1.0, 4, 2)
    mesh = Mesh(base.coords, relist(base.elements), base.boundary_edges)
    message = f"element ids not dense: position {position} holds id {element_id}"
    assert validate_mesh(mesh) == [Violation("element-ids", message)]
    for run in entry_points(mesh, linear_fields(mesh)):
        with pytest.raises(MeshError) as info:
            run()
        assert str(info.value) == message


def test_mesh_without_elements_refused():
    mesh = Mesh([(0.0, 0.0), (1.0, 0.0)], [], {(0, 1): "x"})
    assert validate_mesh(mesh) == [
        Violation("no-elements", "mesh has no elements"),
        Violation("bedge-orphan", "labeled edge (0,1) is not an edge of any element")]
    for run in entry_points(mesh, linear_fields(mesh)):
        with pytest.raises(MeshError, match="^mesh has no elements$"):
            run()
