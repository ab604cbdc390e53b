"""Stacked polygon geometry against the per-polygon computation.

``geometry_oracle`` is the per-element geometry routine that
``polygon_geometries`` replaced.  Every row of a stack must equal the
oracle bit for bit (centroid, area, h, edge normals and lengths), and a
degenerate stack must raise the oracle's error for its first degenerate
row, with that row's element id.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec import vem
from fevec.assembly import BoundaryConditionSet, assemble_mechanical
from fevec.errors import MeshError
from fevec.materials import MaterialProps
from fevec.mesh import (Element, ElementKind, Mesh, generate_structured_quads,
                        polygon_geometries, polygon_geometry_from_coords, shoelace_area)
from conftest import UNIT_SQUARE, polygon_family, random_polygon

VE = ElementKind.VE_POLY
STACK_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def geometry_oracle(coords, elem_id=None):
    """(centroid, area, h, normals, lengths) of one polygon; MeshError if degenerate."""
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

    x = coords[:, 0]
    y = coords[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    cx = float(np.dot(x + np.roll(x, -1), cross)) / (6.0 * area)
    cy = float(np.dot(y + np.roll(y, -1), cross)) / (6.0 * area)

    diffs = coords[:, None, :] - coords[None, :, :]
    h = float(np.sqrt((diffs ** 2).sum(axis=2).max()))

    normals = np.column_stack((deltas[:, 1], -deltas[:, 0])) / lengths[:, None]
    return (cx, cy), float(area), h, normals, lengths


def assert_rows_match_oracle(stack, ids=None):
    geoms = polygon_geometries(stack, ids)
    assert len(geoms) == len(stack)
    for coords, geom in zip(stack, geoms):
        centroid, area, h, normals, lengths = geometry_oracle(coords)
        assert geom.centroid == centroid
        assert type(geom.centroid[0]) is float and type(geom.area) is float
        assert geom.area == area and geom.h == h
        assert np.array_equal(geom.edge_normals, normals)
        assert np.array_equal(geom.edge_lengths, lengths)


def oracle_error(stack, ids):
    """(message, element id) of the first row the oracle rejects, or None."""
    for coords, eid in zip(stack, ids):
        try:
            geometry_oracle(coords, eid)
        except MeshError as exc:
            return str(exc), eid
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
            assert_rows_match_oracle(stack, np.arange(len(stack)))

    def test_one_row_call_matches_oracle(self):
        for poly in polygon_family(count=200):
            geom = polygon_geometry_from_coords(poly, 3)
            centroid, area, h, normals, lengths = geometry_oracle(poly)
            assert (geom.centroid, geom.area, geom.h) == (centroid, area, h)
            assert np.array_equal(geom.edge_normals, normals)
            assert np.array_equal(geom.edge_lengths, lengths)

    @STACK_SETTINGS
    @given(polygon_stacks())
    def test_random_stacks_match_oracle(self, stack):
        assert_rows_match_oracle(stack)

    @STACK_SETTINGS
    @given(polygon_stacks(degenerate=True), st.integers(0, 1000))
    def test_first_degenerate_row_raises_oracle_error(self, stack, first_id):
        ids = first_id + 3 * np.arange(len(stack))
        expected = oracle_error(stack, ids.tolist())
        assert expected is not None
        with pytest.raises(MeshError) as info:
            polygon_geometries(stack, ids)
        assert (str(info.value), info.value.element_id) == expected

    def test_empty_stack(self):
        assert polygon_geometries(np.zeros((0, 4, 2)), []) == []


class TestDegenerateRows:
    @staticmethod
    def raised(stack, ids=None):
        with pytest.raises(MeshError) as info:
            polygon_geometries(np.asarray(stack, dtype=float), ids)
        return str(info.value), info.value.element_id

    def test_fewer_than_three_vertices(self):
        stack = [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]
        assert self.raised(stack, [4, 5]) == ("element 4: needs at least 3 vertices, got 2", 4)

    def test_zero_length_edge_names_its_row(self):
        square = UNIT_SQUARE
        collapsed = np.array([[0, 0], [0, 0], [1, 1], [0, 1]], float)
        stack = [square, square + 2.0, collapsed, square[::-1]]
        assert self.raised(stack, [10, 11, 12, 13]) == (
            "element 12: zero-length edge (repeated or collinear-coincident vertices)", 12)

    def test_clockwise_row_before_collapsed_row(self):
        collapsed = np.array([[0, 0], [0, 0], [1, 1], [0, 1]], float)
        stack = [UNIT_SQUARE, UNIT_SQUARE[::-1], collapsed]
        assert self.raised(stack, [10, 11, 12]) == (
            "element 11: non-positive area -1 (clockwise or degenerate)", 11)

    def test_zero_length_edge_checked_before_area(self):
        # zero area and a repeated vertex: the edge check runs first
        stack = [[[0, 0], [0, 0], [1, 1]]]
        assert self.raised(stack, [7]) == (
            "element 7: zero-length edge (repeated or collinear-coincident vertices)", 7)

    def test_without_ids_names_polygon(self):
        assert self.raised([UNIT_SQUARE[::-1]]) == (
            "polygon: non-positive area -1 (clockwise or degenerate)", None)
        with pytest.raises(MeshError, match="^polygon: needs at least 3 vertices, got 2$"):
            polygon_geometry_from_coords(np.array([[0.0, 0.0], [1.0, 0.0]]))


class TestProjectionErrorIds:
    TINY = dict(nu=0.0, alpha=0.0, T0=0.0)

    def test_thermal_singular_projection_carries_id(self):
        props = MaterialProps(E=1.0, conductivity=5e-324, **self.TINY)
        with pytest.raises(MeshError) as info:
            vem.thermal_projection(UNIT_SQUARE, props, elem_id=8)
        assert str(info.value) == "element 8: singular thermal projection system"
        assert info.value.element_id == 8

    def test_elastic_singular_projection_carries_id(self):
        props = MaterialProps(E=5e-324, conductivity=1.0, **self.TINY)
        with pytest.raises(MeshError) as info:
            vem.elastic_projection(UNIT_SQUARE, props, elem_id=9)
        assert str(info.value) == "element 9: singular elastic projection system"
        assert info.value.element_id == 9

    def test_mechanical_assembly_reports_singular_element(self):
        base = generate_structured_quads(3.0, 2.0, 3, 2, kind=VE)
        materials = {0: MaterialProps(E=1.0, conductivity=1.0, **self.TINY),
                     1: MaterialProps(E=5e-324, conductivity=1.0, **self.TINY)}
        elements = [Element(e.id, e.vertices, VE, 1 if e.id in (2, 4) else 0)
                    for e in base.elements]
        mesh = Mesh(base.nodes, elements, base.boundary_edges)
        with pytest.raises(MeshError) as info:
            assemble_mechanical(mesh, materials, BoundaryConditionSet(), None)
        assert str(info.value) == "element 2: singular elastic projection system"
        assert info.value.element_id == 2
