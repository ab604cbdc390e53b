"""Stacked polygon geometry against the per-polygon computation.

``geometry_oracle`` is the per-element geometry routine that
``polygon_stack`` replaced.  Every row of a stack must equal the
oracle bit for bit (centroid, area, h, edge normals and lengths).
``polygon_stack`` checks nothing: a mesh holding the oracle's first
degenerate row is refused in front of the kernels, by ``require_valid``,
with the message of ``validate_mesh`` for that row's element.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec.assembly import BoundaryConditionSet, assemble_mechanical
from fevec.errors import MeshError, SolverError
from fevec.materials import MaterialProps
from fevec.mesh import (Element, ElementKind, Mesh, generate_structured_quads,
                        polygon_stack, require_valid, validate_mesh)
from conftest import (UNIT_SQUARE, elastic_row, polygon_family, polygon_row, random_polygon,
                      thermal_row)
from kernel_oracles import shoelace_area

VE = ElementKind.VE_POLY
MATERIALS = {0: MaterialProps(E=1.0, nu=0.0, conductivity=1.0, alpha=0.0, T0=0.0)}
STACK_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def geometry_oracle(coords, elem_id=None):
    """(centroid, area, h, normals, lengths) of one polygon; MeshError if degenerate.

    Degenerate: fewer than 3 vertices, a zero-length edge, or an area that is
    not positive beyond its rounding error.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    tag = f"element {elem_id}" if elem_id is not None else "polygon"
    if n < 3:
        raise MeshError(f"{tag}: needs at least 3 vertices, got {n}")

    deltas = np.roll(coords, -1, axis=0) - coords
    lengths = np.hypot(deltas[:, 0], deltas[:, 1])
    scale = max(lengths.max(), 1.0)
    if np.any(lengths <= 1e-14 * scale):
        raise MeshError(f"{tag}: zero-length edge (repeated or collinear-coincident vertices)")

    area = shoelace_area(coords)
    if area <= 0.0:
        raise MeshError(f"{tag}: non-positive area {area:g} (clockwise or degenerate)")
    ax, ay = np.abs(coords[:, 0]), np.abs(coords[:, 1])
    if area <= n * np.finfo(float).eps * 0.5 * (float(np.dot(ax, np.roll(ay, -1)))
                                                + float(np.dot(ay, np.roll(ax, -1)))):
        raise MeshError(f"{tag}: area {area:g} is zero to rounding")

    x = coords[:, 0]
    y = coords[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    cx = float(np.dot(x + np.roll(x, -1), cross)) / (6.0 * area)
    cy = float(np.dot(y + np.roll(y, -1), cross)) / (6.0 * area)

    diffs = coords[:, None, :] - coords[None, :, :]
    h = float(np.sqrt((diffs ** 2).sum(axis=2).max()))

    normals = np.column_stack((deltas[:, 1], -deltas[:, 0])) / lengths[:, None]
    return (cx, cy), float(area), h, normals, lengths


def assert_rows_match_oracle(stack):
    g = polygon_stack(stack)
    assert len(g.area) == len(stack)
    assert g.centroid.dtype == g.area.dtype == g.h.dtype == np.float64
    for r, coords in enumerate(stack):
        centroid, area, h, normals, lengths = geometry_oracle(coords)
        assert tuple(g.centroid[r].tolist()) == centroid
        assert g.area[r] == area and g.h[r] == h
        assert np.array_equal(g.edge_normals[r], normals)
        assert np.array_equal(g.edge_lengths[r], lengths)


def disjoint_mesh(stack):
    """VE mesh of the unconnected polygons of a stack, element r from row r."""
    m, n_v = np.shape(stack)[:2]
    return Mesh(np.reshape(stack, (-1, 2)), [Element(r, tuple(range(r * n_v, (r + 1) * n_v)), VE, 0)
                                             for r in range(m)])


def oracle_error(stack):
    """(message, row) of the first row the oracle rejects, or None."""
    for r, coords in enumerate(stack):
        try:
            geometry_oracle(coords, r)
        except MeshError as exc:
            return str(exc), r
    return None


@st.composite
def polygon_stacks(draw, degenerate=False):
    """(m, n_v, 2) stack of random polygons; ``degenerate`` spoils some rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_v = draw(st.integers(3, 10))
    m = draw(st.integers(1, 12))
    stack = np.array([random_polygon(rng, n_v, scale=10.0 ** rng.uniform(-3, 2),
                                     center=rng.uniform(-50, 50, 2),
                                     convex=bool(rng.random() < 0.5))
                      for _ in range(m)])
    if degenerate:
        rows = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True))
        for row in rows:
            how = draw(st.sampled_from(["reverse", "collapse", "flatten"]))
            if how == "reverse":
                stack[row] = stack[row][::-1]
            elif how == "collapse":           # two vertices coincide
                i = draw(st.integers(0, n_v - 1))
                stack[row, i] = stack[row, (i + 1) % n_v]
            else:                              # zero area, distinct vertices
                stack[row, :, 1] = stack[row, 0, 1]
                stack[row, :, 0] = np.arange(n_v, dtype=float)
    return stack


class TestStackedGeometry:
    @pytest.mark.parametrize("seed", [42, 7])
    def test_polygon_family_stacks_match_oracle(self, seed):
        polys = polygon_family(seed=seed, count=200)
        for n_v in range(3, 11):
            stack = np.array([p for p in polys if len(p) == n_v])
            assert_rows_match_oracle(stack)

    def test_one_row_call_matches_oracle(self):
        for poly in polygon_family(count=200):
            geom = polygon_row(poly)
            centroid, area, h, normals, lengths = geometry_oracle(poly)
            assert (tuple(geom.centroid.tolist()), geom.area, geom.h) == (centroid, area, h)
            assert np.array_equal(geom.edge_normals, normals)
            assert np.array_equal(geom.edge_lengths, lengths)

    @STACK_SETTINGS
    @given(polygon_stacks())
    def test_random_stacks_match_oracle(self, stack):
        assert_rows_match_oracle(stack)

    @STACK_SETTINGS
    @given(polygon_stacks(degenerate=True))
    def test_first_degenerate_row_raises_oracle_error(self, stack):
        expected = oracle_error(stack)
        assert expected is not None
        mesh = disjoint_mesh(stack)
        first = validate_mesh(mesh)[0].message
        assert first.startswith(f"element {expected[1]}: ")
        with pytest.raises(MeshError) as info:
            require_valid(mesh, MATERIALS)
        assert str(info.value) == first

    def test_empty_stack(self):
        g = polygon_stack(np.zeros((0, 4, 2)))
        assert g.area.shape == g.h.shape == (0,) and g.edge_normals.shape == (0, 4, 2)


class TestDegenerateRows:
    @staticmethod
    def raised(stack):
        """Message of the MeshError that the gate raises for a mesh of the stack's polygons."""
        with pytest.raises(MeshError) as info:
            require_valid(disjoint_mesh(np.asarray(stack, dtype=float)), MATERIALS)
        return str(info.value)

    def test_fewer_than_three_vertices(self):
        stack = [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]
        assert self.raised(stack) == "element 0: fewer than 3 vertices"

    def test_zero_length_edge_names_its_row(self):
        square = UNIT_SQUARE
        collapsed = np.array([[0, 0], [0, 0], [1, 1], [0, 1]], float)
        stack = [square, square + 2.0, collapsed, square[::-1]]
        assert self.raised(stack) == "element 2: zero-length edge"

    def test_clockwise_row_before_collapsed_row(self):
        collapsed = np.array([[0, 0], [0, 0], [1, 1], [0, 1]], float)
        stack = [UNIT_SQUARE, UNIT_SQUARE[::-1], collapsed]
        assert self.raised(stack) == (
            "element 1: non-positive area -1 (clockwise vertex order?)")


class TestProjectionErrorIds:
    # A singular projection names no element: every element the gate accepts
    # has a non-singular one, so only moduli that underflow reach it.
    TINY = dict(nu=0.0, alpha=0.0, T0=0.0)

    def test_thermal_singular_projection_carries_id(self):
        props = MaterialProps(E=1.0, conductivity=5e-324, **self.TINY)
        with pytest.raises(SolverError, match="^singular thermal projection system$"):
            thermal_row(UNIT_SQUARE, props)

    def test_elastic_singular_projection_carries_id(self):
        props = MaterialProps(E=5e-324, conductivity=1.0, **self.TINY)
        with pytest.raises(SolverError, match="^singular elastic projection system$"):
            elastic_row(UNIT_SQUARE, props)

    def test_mechanical_assembly_reports_singular_element(self):
        base = generate_structured_quads(3.0, 2.0, 3, 2, kind=VE)
        materials = {0: MaterialProps(E=1.0, conductivity=1.0, **self.TINY),
                     1: MaterialProps(E=5e-324, conductivity=1.0, **self.TINY)}
        elements = [Element(e.id, e.vertices, VE, 1 if e.id in (2, 4) else 0)
                    for e in base.elements]
        mesh = Mesh(base.coords, elements, base.boundary_edges)
        with pytest.raises(SolverError, match="^singular elastic projection system$"):
            assemble_mechanical(mesh, materials, BoundaryConditionSet(), None)
