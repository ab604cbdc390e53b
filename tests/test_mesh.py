import hashlib
import math
import os
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec import bench
from fevec import mesh as meshmod
from fevec import post
from fevec.assembly import BoundaryConditionSet
from fevec.config import build_bcs, build_mesh, parse_config
from fevec.errors import MeshError, ParseError
from fevec.materials import MaterialProps
from fevec.mesh import (ElementKind, Mesh, Violation, find_interface_nodes,
                        generate_plate_with_hole, generate_quarter_annulus,
                        generate_split_square, generate_structured_quads,
                        load_mesh, mesh_text, require_valid, save_mesh, validate_mesh)
from fevec.solver import SolutionFields, run_pipeline
import post_oracles
from conftest import element_table, polygon_family, polygon_row
from kernel_oracles import element_coords, shoelace_area
from merged_polygons import merge_ve_blocks
from test_post_batched import special_fields, special_stresses

FE = ElementKind.FE_QUAD
VE = ElementKind.VE_POLY
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


class TestPolygonGeometry:
    def test_unit_square(self):
        g = polygon_row(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
        assert g.area == pytest.approx(1.0)
        assert g.centroid == pytest.approx((0.5, 0.5))
        assert g.h == pytest.approx(math.sqrt(2.0))

    def test_triangle(self):
        g = polygon_row(np.array([[0, 0], [1, 0], [0, 1]], float))
        assert g.area == pytest.approx(0.5)
        assert g.centroid == pytest.approx((1 / 3, 1 / 3))

    def test_regular_hexagon_area(self):
        # shoelace evaluated by hand on the six vertices as the oracle
        angles = [math.pi / 3 * k for k in range(6)]
        pts = [(math.cos(a), math.sin(a)) for a in angles]
        hand = 0.0
        for i in range(6):
            x0, y0 = pts[i]
            x1, y1 = pts[(i + 1) % 6]
            hand += x0 * y1 - x1 * y0
        hand *= 0.5
        assert hand == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, rel=1e-12)
        g = polygon_row(np.array(pts))
        assert g.area == pytest.approx(hand, rel=1e-12)
        assert g.area == pytest.approx(2.598076, abs=1e-6)

    def test_outward_normals_unit_length(self):
        rng = np.random.default_rng(3)
        for poly in polygon_family(seed=9, count=25):
            g = polygon_row(poly)
            assert np.hypot(g.edge_normals[:, 0], g.edge_normals[:, 1]) == pytest.approx(
                np.ones(len(poly)), abs=1e-12)

    def test_closed_polygon_normal_sum(self):
        for poly in polygon_family(seed=10, count=25):
            g = polygon_row(poly)
            resid = (g.edge_normals * g.edge_lengths[:, None]).sum(axis=0)
            assert np.abs(resid).max() < 1e-10 * g.edge_lengths.sum()

    def test_reversed_order_negates_shoelace(self):
        for poly in polygon_family(seed=11, count=25):
            assert shoelace_area(poly[::-1]) == pytest.approx(-shoelace_area(poly), rel=1e-12)

    def test_degenerate_rejected(self):
        # the geometry checks nothing; the gate in front of the kernels does
        for pts, message in (([(0, 0), (0, 1), (1, 1), (1, 0)], "non-positive area"),
                             ([(0, 0), (0, 0), (1, 1), (0, 1)], "zero-length edge")):
            with pytest.raises(MeshError, match=f"^element 0: {message}"):
                require_valid(Mesh(pts, [(0, 1, 2, 3)], [VE], [0]), {})

    def test_element_wrapper_names_element(self):
        nodes = [(0, 0), (0, 1), (1, 1), (1, 0)]
        with pytest.raises(MeshError, match="^element 0: "):
            require_valid(Mesh(nodes, [(0, 1, 2, 3)], [VE], [0]), {})   # clockwise


class TestValidation:
    def test_valid_structured_mesh(self):
        assert validate_mesh(generate_structured_quads(2, 2, 2, 2)) == []

    def test_clockwise_quad_flagged(self):
        mesh = generate_structured_quads(1, 1, 1, 1)
        bad = mesh.elements[0].vertices[::-1]
        report = validate_mesh(Mesh(mesh.coords, [bad], [FE], [0], mesh.boundary_edges))
        assert any(v.code == "orientation" for v in report)

    def test_five_vertex_fe_flagged(self):
        nodes = [(0, 0), (1, 0), (1.5, 0.5), (1, 1), (0, 1)]
        report = validate_mesh(Mesh(nodes, [(0, 1, 2, 3, 4)], [FE], [0]))
        assert any(v.code == "fe-quad-arity" for v in report)

    def test_self_intersection_flagged(self):
        nodes = [(0, 0), (1, 1), (1, 0), (0, 1)]
        report = validate_mesh(Mesh(nodes, [(0, 1, 2, 3)], [VE], [0]))
        assert any(v.code in ("self-intersection", "orientation") for v in report)

    def test_positive_area_self_crossing_flagged(self):
        # edge 2 runs from (2, 2) down to (1, -1), through edge 0; area +1
        nodes = [(0, 0), (2, 0), (2, 2), (1, -1), (0, 2)]
        mesh = Mesh(nodes, [(0, 1, 2, 3, 4)], [VE], [0])
        assert shoelace_area(mesh.coords) == pytest.approx(1.0)
        assert validate_mesh(mesh) == [
            Violation("self-intersection", "element 0: edges 0 and 2 cross")]

    @pytest.mark.parametrize("bad_id", [9, -1])
    def test_out_of_range_vertex_at_interface_reported(self, bad_id):
        # element 1 shares edge (1,2) with the FE quad; its id 9 (or -1,
        # which would wrap to node 5) is left out of the interface scan, and
        # node 5 is used by no element
        nodes = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1)]
        mesh = Mesh(nodes, [(0, 1, 2, 3), (1, 4, bad_id, 2)], [FE, VE], [0, 0])
        assert validate_mesh(mesh) == [
            Violation("element-vertices", "element 1: vertex id out of range"),
            Violation("orphan-nodes", "nodes without any element: [5]")]

    def test_out_of_range_vertex_at_interface_load_mesh(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 1 1 0\nnode 2 1 1\nnode 3 0 1\n"
                        "node 4 2 0\nnode 5 2 1\nelem 0 FE 0 4 0 1 2 3\n"
                        "elem 1 VE 0 4 1 4 9 2\n")
        with pytest.raises(MeshError, match="vertex id out of range"):
            load_mesh(str(path))

    def test_collapsed_edge_at_interface_reported(self):
        # nodes 0, 1 and 4 coincide: VE edge (1,4) has zero length next to
        # FE node 0
        nodes = [(1, 0), (1, 0), (1, 1), (0, 1), (1, 0), (2, 1)]
        mesh = Mesh(nodes, [(0, 1, 2, 3), (1, 4, 5, 2)], [FE, VE], [0, 0])
        assert validate_mesh(mesh) == [
            Violation("degenerate", "element 0: zero-length edge"),
            Violation("degenerate", "element 1: zero-length edge")]

    def test_hanging_node_across_interface(self):
        # Left FE quad (0,1), (1,1) column shared with a VE block whose edge
        # is split at the midpoint (node 6): coincidence violation.
        nodes = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1), (1, 0.5)]
        report = validate_mesh(Mesh(nodes, [(0, 1, 2, 3), (1, 4, 5, 2, 6)], [FE, VE], [0, 0]))
        assert any(v.code == "interface-coincidence" for v in report)

    def test_hanging_node_ve_to_ve_allowed(self):
        nodes = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1), (1, 0.5)]
        mesh = Mesh(nodes, [(0, 1, 6, 2, 3), (1, 4, 5, 2, 6)], [VE, VE], [0, 0])
        assert validate_mesh(mesh) == []

    def test_orphan_bedge_flagged(self):
        mesh = generate_structured_quads(1, 1, 1, 1)
        report = validate_mesh(Mesh(mesh.coords, *element_table(mesh), {(0, 3): "diag"}))
        assert any(v.code == "bedge-orphan" for v in report)

    @pytest.mark.parametrize("edge", [(0, 99), (-1, 0)])
    def test_bedge_missing_node_flagged(self, edge):
        mesh = generate_structured_quads(1, 1, 1, 1)
        report = validate_mesh(Mesh(mesh.coords, *element_table(mesh), {edge: "x"}))
        assert [v.code for v in report] == ["bedge-nodes"]

    @pytest.mark.parametrize("edge", [(0, 2 ** 70), (0, 2 ** 63), (-2 ** 70, 1)])
    def test_bedge_node_outside_int64_refused(self, edge):
        # once built, and validate_mesh then raised a bare OverflowError
        mesh = generate_structured_quads(1, 1, 1, 1)
        with pytest.raises(MeshError, match="^" + re.escape(
                f"labeled edge {edge!r}: node ids must be int64 integers")):
            Mesh(mesh.coords, *element_table(mesh), {edge: "x"})

    @pytest.mark.parametrize("edge", [(True, 2), (0, False)], ids=["true-first", "false-second"])
    def test_bool_bedge_node_refused(self, edge):
        # (True, 2) once built as the labeled edge (1, 2)
        mesh = generate_structured_quads(1, 1, 1, 1)
        with pytest.raises(MeshError, match="^" + re.escape(
                f"labeled edge {edge!r}: 'x' must map two integer node ids to a str label")):
            Mesh(mesh.coords, *element_table(mesh), {edge: "x"})

    def test_edge_shared_three_times_flagged(self):
        nodes = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0.5), (-1, 0.5)]
        mesh = Mesh(nodes, [(0, 1, 2, 3), (1, 4, 2), (1, 2, 5)],   # edge (1,2) used thrice
                    [VE] * 3, [0] * 3)
        report = validate_mesh(mesh)
        assert any(v.code == "edge-sharing" for v in report)


class TestElementTable:
    NODES = [(0, 0), (1, 0), (1, 1), (0, 1)]

    @pytest.mark.parametrize("vertices, kinds, regions", [
        ([(0, 1, 2, 3)], [FE, FE], [0]),
        ([(0, 1, 2, 3)], [FE], []),
        ([], [VE], [0]),
        (np.array([[0, 1, 2, 3]] * 2), [FE], [0, 0])])
    def test_inputs_of_different_lengths_refused(self, vertices, kinds, regions):
        with pytest.raises(MeshError, match="^element table inputs differ in length"):
            Mesh(self.NODES, vertices, kinds, regions)

    @pytest.mark.parametrize("kind", ["FE", "VE", None, 0, True])
    def test_kind_not_an_element_kind_refused(self, kind):
        # a bad kind must not silently become VE
        with pytest.raises(MeshError, match="^element kinds must be ElementKind members$"):
            Mesh(self.NODES, [(0, 1, 2, 3)] * 2, [VE, kind], [0, 0])

    @pytest.mark.parametrize("nodes, vertices, regions", [
        (NODES, [(0, 1, 2, 3)], ["a"]),
        (NODES, [(0, 1, 2, "x")], [0]),
        (NODES, [(0, 1, 2, 3)], [2 ** 70]),
        (NODES, [(0, 1, 2, 3)], np.array([2 ** 63], dtype=np.uint64)),
        ([(0, 0), (1, 0, 0), (1, 1), (0, 1)], [(0, 1, 2, 3)], [0])],
        ids=["region-a", "vertex-x", "region-2**70", "region-uint64-2**63", "ragged-coords"])
    def test_bad_python_input_is_a_mesh_error(self, nodes, vertices, regions):
        with pytest.raises(MeshError):
            Mesh(nodes, vertices, [FE], regions)

    @pytest.mark.parametrize("nodes", [
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
        [0, 0, 1, 0, 1, 1, 0, 1],
        np.zeros((2, 2, 2)),
        np.zeros((4, 0)),
        np.zeros((0, 3)),
        [[]]],
        ids=["x-y-z-rows", "flat-list", "3-d-array", "4-by-0", "0-by-3", "one-empty-row"])
    def test_coordinates_not_n_by_2_refused(self, nodes):
        # none of these may be read as pairs of coordinates
        with pytest.raises(MeshError, match=re.escape(f"got shape {np.shape(nodes)}")):
            Mesh(nodes, [(0, 1, 2, 3)], [FE], [0])

    @pytest.mark.parametrize("nodes", [NODES, np.array(NODES, dtype=float), []],
                             ids=["list", "array", "empty"])
    def test_n_by_2_coordinates_accepted(self, nodes):
        vertices = [(0, 1, 2, 3)] if len(nodes) else []
        mesh = Mesh(nodes, vertices, [FE] * len(vertices), [0] * len(vertices))
        assert mesh.coords.shape == (len(nodes), 2)

    @pytest.mark.parametrize("vertices, regions, message", [
        ([(0, 1, 2, 3)], [1.5], "element regions must be integers, got 1.5"),
        ([(0, 1, 2, 3)], [True], "element regions must be integers, got True"),
        ([(0, 1, 2, 3)], np.array([1.0]), "element regions must be integers, got "),
        ([(0, 1, 2, 1.7)], [0], "vertex ids must be integers, got 1.7"),
        ([(0, 1, 2, True)], [0], "vertex ids must be integers, got True"),
        ([(0, 1, 2, np.bool_(True))], [0], "vertex ids must be integers, got "),
        (np.array([[0.0, 1.0, 2.0, 3.0]]), [0], "vertex ids must be integers, got ")],
        ids=["region-1.5", "region-True", "region-float-array", "vertex-1.7", "vertex-True",
             "vertex-numpy-bool", "vertex-float-array"])
    def test_non_integer_ids_refused(self, vertices, regions, message):
        # neither truncated nor read as 0 / 1
        with pytest.raises(MeshError, match="^" + re.escape(message)):
            Mesh(self.NODES, vertices, [FE], regions)

    def test_integer_ids_of_any_width_accepted(self):
        ids = np.array([[0, 1, 2, 3]], dtype=np.uint8)
        mesh = Mesh(self.NODES, ids, [FE], np.array([7], dtype=np.int16))
        assert mesh.element_regions.tolist() == [7] and not validate_mesh(mesh)
        assert mesh.vertex_groups[True, 4][1].tolist() == ids.tolist()

    @pytest.mark.parametrize("key, label", [
        ((0, 1, 2), "x"), ((0,), "x"), (("a", "b"), "x"), ((0.5, 1), "x"), ((0, 1), None)])
    def test_bad_boundary_edge_is_a_mesh_error(self, key, label):
        with pytest.raises(MeshError, match=re.escape(f"labeled edge {key!r}: {label!r} ")):
            Mesh(self.NODES, [(0, 1, 2, 3)], [FE], [0], {key: label})

    def test_no_elements_reported(self):
        mesh = Mesh(self.NODES, [], [], [])
        assert mesh.n_elements == 0 and mesh.elements == ()
        assert validate_mesh(mesh) == [Violation("no-elements", "mesh has no elements")]

    @pytest.mark.parametrize("unused", [2, 12])
    def test_unused_nodes_reported_once(self, unused):
        # with at most ten ids
        mesh = Mesh(self.NODES + [(5, 5)] * unused, [(0, 1, 2, 3)], [FE], [0])
        ids = list(range(4, 4 + min(unused, 10)))
        assert validate_mesh(mesh) == [Violation("orphan-nodes", f"nodes without any element: {ids}")]

    def test_view_is_built_only_when_read(self):
        # the pipeline reads the element arrays, never the Element records
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        materials = {0: MaterialProps(E=200.0, nu=0.3, conductivity=2.0, alpha=1e-5, T0=20.0)}
        left, right = mesh.nodes_with_label("left"), mesh.nodes_with_label("right")
        bcs = BoundaryConditionSet(
            dirichlet_T={**dict.fromkeys(left, 20.0), **dict.fromkeys(right, 80.0)},
            dirichlet_u=dict.fromkeys(left, (0.0, 0.0)))
        fields = run_pipeline(mesh, materials, bcs)
        stresses = post.recover_stress(mesh, materials, fields)
        evaluator = post.FieldEvaluator(mesh, materials, fields, stresses)
        for quantity in ("temperature", "ux", "von_mises"):
            post.line_probe(evaluator, (0.0, 0.5), (2.0, 0.5), quantity, 9)
        post.nodal_von_mises(mesh, stresses)
        post.export_fields(mesh, fields, stresses, os.devnull)
        assert "elements" not in mesh.__dict__
        assert mesh.elements[5].id == 5 and "elements" in mesh.__dict__


class TestInterfaceNodes:
    def test_all_fe_empty(self):
        mesh = generate_structured_quads(2, 2, 2, 2, kind=FE)
        assert find_interface_nodes(mesh) == set()

    def test_split_square_column(self):
        mesh = generate_split_square(2.0, 1.0, 2, 1)
        assert mesh.interface_nodes == {1, 4}

    def test_symmetric_under_kind_swap(self):
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        vertices, kinds, regions = element_table(mesh)
        swapped = Mesh(mesh.coords, vertices, [FE if k == VE else VE for k in kinds], regions,
                       mesh.boundary_edges)
        assert mesh.interface_nodes == swapped.interface_nodes

    def test_subset_of_both_kinds(self):
        mesh = generate_quarter_annulus(20, 60, 6, 8, 40)
        fe_nodes, ve_nodes = set(), set()
        for e in mesh.elements:
            (fe_nodes if e.kind == FE else ve_nodes).update(e.vertices)
        assert mesh.interface_nodes <= (fe_nodes & ve_nodes)
        assert mesh.interface_nodes


def split_square_two_step(width, height, nx, ny, split_x=None):
    """The former ``generate_split_square``: a full structured-grid Mesh, then a second one."""
    if split_x is None:
        split_x = 0.5 * width
    base = generate_structured_quads(width, height, nx, ny)
    vertices, _, regions = element_table(base)
    kinds = [ElementKind.FE_QUAD if element_coords(base, e)[:, 0].mean() < split_x
             else ElementKind.VE_POLY for e in base.elements]
    return Mesh(base.coords, vertices, kinds, regions, base.boundary_edges)


class TestGenerators:
    @pytest.mark.parametrize("args", [(2.0, 1.0, 2, 1), (2.0, 1.0, 8, 4), (3.0, 2.0, 7, 3),
                                      (1.0, 1.0, 5, 5, 0.3), (0.7, 0.3, 9, 2, 0.35),
                                      (2.0, 1.0, 6, 3, 1.0), (4.0, 1.0, 3, 1, 0.0)])
    def test_split_square_matches_two_step_construction(self, args):
        new, old = generate_split_square(*args), split_square_two_step(*args)
        assert np.array_equal(new.coords, old.coords)
        assert new.elements == old.elements          # ids, vertices, kinds, regions
        assert new.boundary_edges == old.boundary_edges
        assert new.interface_nodes == old.interface_nodes

    def test_structured_counts(self):
        mesh = generate_structured_quads(1, 1, 1, 1)
        assert mesh.n_nodes == 4 and mesh.n_elements == 1
        mesh = generate_structured_quads(2, 1, 2, 1, kind=VE)
        assert mesh.n_nodes == 6 and mesh.n_elements == 2
        assert all(len(e.vertices) == 4 for e in mesh.elements)
        assert generate_structured_quads(3, 3, 3, 3).n_nodes == 16

    def test_structured_rejects_zero(self):
        with pytest.raises(MeshError):
            generate_structured_quads(1, 1, 0, 1)

    def test_annulus_radii(self):
        mesh = generate_quarter_annulus(20, 60, 4, 6, 40)
        r = np.hypot(mesh.coords[:, 0], mesh.coords[:, 1])
        inner = [n for (a, b) in mesh.edges_with_label("inner") for n in (a, b)]
        outer = [n for (a, b) in mesh.edges_with_label("outer") for n in (a, b)]
        assert np.abs(r[inner] - 20).max() < 1e-12 * 20
        assert np.abs(r[outer] - 60).max() < 1e-12 * 60
        assert mesh.n_elements == 4 * 6
        assert validate_mesh(mesh) == []

    def test_annulus_all_fe_at_inner_split(self):
        mesh = generate_quarter_annulus(20, 60, 3, 4, 20)
        assert all(e.kind == FE for e in mesh.elements)
        assert mesh.interface_nodes == set()

    def test_annulus_split_interface_on_circle(self):
        mesh = generate_quarter_annulus(20, 60, 4, 4, 40)
        r = np.hypot(mesh.coords[:, 0], mesh.coords[:, 1])
        iface = sorted(mesh.interface_nodes)
        assert iface and np.abs(r[iface] - 40).max() < 1e-12 * 40

    def test_annulus_bad_inputs(self):
        with pytest.raises(MeshError):
            generate_quarter_annulus(60, 20, 3, 3, 40)
        with pytest.raises(MeshError):
            generate_quarter_annulus(20, 60, 3, 3, 10)

    @pytest.mark.parametrize("n_t, n_r_ring, n_r_outer", [(0, 2, 2), (4, 0, 2), (4, 2, -1)])
    def test_plate_bad_counts(self, n_t, n_r_ring, n_r_outer):
        with pytest.raises(MeshError, match="^need n_t >= 1, n_r_ring >= 1 and n_r_outer >= 0"):
            generate_plate_with_hole(1.0, 4.0, n_t, n_r_ring, n_r_outer, 2.0)

    def test_plate_without_outer_rows(self):
        mesh = generate_plate_with_hole(1.0, 4.0, 4, 2, 0, 2.0)
        assert validate_mesh(mesh) == []
        assert np.hypot(*mesh.coords.T).max() == pytest.approx(2.0, rel=1e-15)

    def test_plate_with_hole_valid_and_tagged(self):
        mesh = generate_plate_with_hole(5, 20, 8, 4, 8, 10)
        assert validate_mesh(mesh) == []
        r = np.hypot(mesh.coords[:, 0], mesh.coords[:, 1])
        hole = [n for (a, b) in mesh.edges_with_label("hole") for n in (a, b)]
        assert np.abs(r[hole] - 5).max() < 1e-12 * 5
        assert {"hole", "bottom", "left", "right", "top"} <= mesh.labels()
        iface = sorted(mesh.interface_nodes)
        assert np.abs(r[iface] - 10).max() < 1e-9

    def test_plate_split_ring_is_simplicial(self):
        mesh = generate_plate_with_hole(5, 20, 8, 4, 8, 10, split_ring=True)
        assert validate_mesh(mesh) == []
        tri = [e for e in mesh.elements if len(e.vertices) == 3]
        assert len(tri) == 2 * 4 * 8
        assert all(e.kind == VE for e in tri)


class TestGeneratorLevels:
    @pytest.mark.parametrize("name", ["generate_sandwich", "generate_fcbga", "generate_igbt"])
    def test_negative_level_is_parse_error(self, name):
        with pytest.raises(ParseError, match="^level must be >= 0, got -1$"):
            getattr(meshmod, name)(-1)


# sha256 of ``mesh_text`` of each packaging mesh, recorded when its cells and
# labels were still tagged by one Python call per cell and per edge.
PACKAGING_MESH_SHA256 = [
    ("sandwich", 0, None, "afabe79d3db08a4f06c36fd86fc0e64c29f70958b92c0b827499bba882fe2855"),
    ("sandwich", 1, None, "4d509feb594dc29a995773cffc299e0436917392d018f5f6d635c9a5a7550865"),
    ("sandwich", 2, None, "22314ae9beb98d22a5e9f67bba061dcffaba930f3ebb3386e8a01746a1bfe510"),
    ("sandwich", 0, FE, "4e4a5154aab42de5603ae03910d258f469f61a76aafa368ed1351c944f6a40d5"),
    ("sandwich", 1, FE, "36a62abb72a2aa3f6a0079702ee91d177c681ae8675a45af502332ecb1c10495"),
    ("sandwich", 2, FE, "f3eaae1ad0d8000aabbdf2cab5f2084e8580ac969bcda4d148b9a96ce808d58e"),
    ("sandwich", 0, VE, "5ff916f9d7f149c50e5dfd8345456bd03dba7ee864582e1c8efea224a9a40b86"),
    ("sandwich", 1, VE, "f0a6fb88f5f394f4ddd071e3ffae92fe18d804c970c5e4221a5cbc29fefe9542"),
    ("sandwich", 2, VE, "e38e01446588644c9b4a51ecb0620544301d9dcc28202f6fcea7b9b3a6b025dc"),
    ("sandwich", 3, FE, "52c2a9a2a1d2c6b5fc733e8c8d8beac923cbc3f16c9dd658f8131231f7af9307"),
    ("fcbga", 0, None, "d9aa5c846ff62a17f8a46baa5df60f5c5b0d98e5e157ab97aa10a7bf16f92437"),
    ("fcbga", 1, None, "e9dc046d2f0d4e52127255b061fce5ff87ce1edf5c956a51d0a313964538c4ce"),
    ("fcbga", 2, None, "27bc084c1ce21afca71299ee9dcd3a2bcc66e8267b5b30fdc92389d51ae1b532"),
    ("igbt", 0, None, "b3afd30a56f7494c380c9d8c9680cc46b27df71faef08a212faf0df5860ed09e"),
    ("igbt", 1, None, "7a9e06c060bebebb6f66680f7500092597d5db0062968cb294ed0fbec531a133"),
    ("igbt", 2, None, "1f5e79f47ccf9c71fbe47319e91e9d68fa78c1c153433bf23b0c1ebd0e4cfe90"),
]


class TestTaggedGrid:
    @pytest.mark.parametrize("name, level, all_kind, digest", PACKAGING_MESH_SHA256,
                             ids=[f"{name}-{level}-{kind and kind.value}"
                                  for name, level, kind, _ in PACKAGING_MESH_SHA256])
    def test_packaging_mesh_unchanged(self, name, level, all_kind, digest):
        args = (level, all_kind) if name == "sandwich" else (level,)
        mesh = getattr(meshmod, f"generate_{name}")(*args)
        assert hashlib.sha256(mesh_text(mesh).encode()).hexdigest() == digest

    def test_rules_see_every_cell_and_only_tagged_edges(self):
        # 3 x 2 unit cells: region 0 on the left, region 1 in the right column,
        # and the upper-left cell void.
        seen = {}

        def cells(cx, cy):
            seen["cells"] = (cx.tolist(), cy.tolist())
            region = meshmod.first_match([((cx < 1) & (cy > 1), meshmod.VOID), (cx > 2, 1)], 0)
            return region, region == 0

        def labels(mx, my, r0, r1):
            seen["edges"] = list(zip(mx.tolist(), my.tolist(), r0.tolist(), r1.tolist()))
            return meshmod.first_match([(my == 0, "bottom"), (r1 == 1, "seam")], "")

        mesh = meshmod.generate_tagged_grid([0, 1, 2, 3], [0, 1, 2], cells, labels)
        assert seen["cells"] == ([0.5, 1.5, 2.5] * 2, [0.5] * 3 + [1.5] * 3)
        # Nodes are numbered as the kept cells first use their corners; corner
        # (0, 2) is used only by the void cell and is dropped.
        assert mesh.coords.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1],
                                        [3, 0], [3, 1], [2, 2], [1, 2], [3, 2]]
        vertices, kinds, regions = element_table(mesh)
        assert vertices == [(0, 1, 2, 3), (1, 4, 5, 2), (4, 6, 7, 5), (2, 5, 8, 9), (5, 7, 10, 8)]
        assert kinds == [FE, FE, VE, FE, VE] and regions == [0, 0, 1, 0, 1]
        # Ten boundary edges, two of them on the void, with r1 = VOID; the two
        # region-change edges once each; no edge inside one region.
        assert sorted(seen["edges"]) == sorted([
            (0.5, 0.0, 0, -1), (1.5, 0.0, 0, -1), (2.5, 0.0, 1, -1), (3.0, 0.5, 1, -1),
            (3.0, 1.5, 1, -1), (1.5, 2.0, 0, -1), (2.5, 2.0, 1, -1), (0.0, 0.5, 0, -1),
            (0.5, 1.0, 0, -1), (1.0, 1.5, 0, -1), (2.0, 0.5, 0, 1), (2.0, 1.5, 0, 1)])
        assert mesh.boundary_edges == {(0, 1): "bottom", (1, 4): "bottom", (4, 6): "bottom",
                                       (4, 5): "seam", (5, 8): "seam"}


# sha256 of ``mesh_text`` of each analytic mesh, recorded when each generator
# still numbered its own grid and labeled its sides edge by edge; with the
# sizes in ``test_edge_table.MESH_TEXT_SHA256``.  The bench cases' levels (-1
# is the plate's reference) and the shipped configs through ``build_mesh``,
# which reach the level 1 coupled meshes through the config parser (so the
# hashes repeat); cylinder level 3 coupled is also perfbench's cylinder
# workload mesh.
ANALYTIC_MESH_SHA256 = {
    "quads-1x1": "359bf3510a8f95af8c7f1f267f73b194ebea4a197575f9164b70987293acb33a",
    "quads-4x6": "266410bf730aba51f54e8d74fd72f293c85c6643519c683d208da98357fe7d74",
    "quads-7x5-ve": "b91b3463d734e03d93ad4601444ec13de4a6cd76143817bd71c1481a1e38a6b9",
    "split-2x1": "571c4a140aaf464bc12269aafea15b8871ad56e1d249a75ef8ba1bf9515c3e36",
    "split-5x3": "4f31741a0664e0fcdbce4a16b840f46919cae213b61a3442d6057fe0a95ed62b",
    "split-6x4-at-0.7": "82c9ee8a9834091b50b4b43ee1a9aa45999b3f4ce00f26923f226db1e27b38eb",
    "cylinder.cfg": "0fb2d6a124ae75cbc8149ab6b1d45a6a8a0b6e1288cd5688e9b316cbd25a0d14",
    "plate.cfg": "c23f2eb9f59ef06d716e35463493c4d2c8f1587378c409f7f251760dccc9e645",
    "cylinder-0-coupled": "e7b130b3af083a4ff71a7b8d6327da9c698e806c3d673b158258d3a94623f1ff",
    "cylinder-0-fe": "af79b9153dc3d9fb9d92d71a8266ec588cf66eaf95fd60979b2efa52bf277e78",
    "cylinder-0-ve": "49a583be76f204ff77a806b46bb2729e32482db57c89a9fbbded908b7138be17",
    "cylinder-1-coupled": "0fb2d6a124ae75cbc8149ab6b1d45a6a8a0b6e1288cd5688e9b316cbd25a0d14",
    "cylinder-1-fe": "2720fdf911ffa79e75153bb1c60e483d6926328be7e2132a7e2dbec0ac64f478",
    "cylinder-1-ve": "bf5d31c1f8e573b098ce331e4bc3630e27effb647838fd6c0c38df2c5b5010ff",
    "cylinder-2-coupled": "90f8043bcc7dc145ae5ea8919eee12d6543e0159338d4a991edb932015651d69",
    "cylinder-2-fe": "c22c340007b0b14ae6b37486967771e1c293723ed9a596a39e56bf615d8a54ec",
    "cylinder-2-ve": "27ef5986a5d0d8a1e156efd170e0119ce1cbda9c4773129fe4000e5661604eeb",
    "cylinder-3-coupled": "c52da7e3a79be5fc6d68047342375588b2f297b922f62cf07cb9621b050d99ca",
    "cylinder-3-fe": "b4ce42574d4ce52becf72f8918fe10c4e50e629446c29e2c6f1d5b828ed6cbdd",
    "cylinder-3-ve": "0ad2b797b9c9237f717e6637ff27e2f0a99ec4f57a2269d78eae25385cc03281",
    "plate--1-coupled": "d7e7420816188d37cd25dbef8dc106882b618f71bf6933af24a9a760841d64ca",
    "plate--1-fe": "ca056d025fd20019aa9767f7729719fa4d33ae9b59da06dbf56cbf5c8ff048f4",
    "plate--1-ve": "7e83ef40d22dc7d771d57dd982843c647b9383f1704baf8f70cd4a2249d8954f",
    "plate-0-coupled": "8243c0e79c52171a04b9e08990120e6e29251b7a72dc18e580fab85a8bc15a31",
    "plate-0-fe": "986820fc14e88ccb0aaeaab19c315a7ab781f2e3582d7451ac5746a6ce26f221",
    "plate-0-ve": "64fb228ac5b851b7a92af34c85cbc71ec0b41ef6de630c7163d642810ecdb29f",
    "plate-1-coupled": "c23f2eb9f59ef06d716e35463493c4d2c8f1587378c409f7f251760dccc9e645",
    "plate-1-fe": "a3e645a3d3133059814191bf6d41bbbe988f574252392f5d4da971280609120c",
    "plate-1-ve": "9d68ddd0ffd22995f1de6e11b15c20361b52c33f3a33bb465f77c5586b3afe5f",
    "plate-2-coupled": "d892ca0a349b9469332e244d6411a72c9068734b88c28004f854fec1a933f5a1",
    "plate-2-fe": "43305eda65607ceb515a830990f3dbf1a81e134cfc6e13f08ae1e6c501b5e8df",
    "plate-2-ve": "4b3cb730adc19fff81024b39af703049c29d6eb2c242556d309dfb090f3f759e",
}

ANALYTIC_MESHES = {
    "quads-1x1": lambda: generate_structured_quads(1, 1, 1, 1),
    "quads-4x6": lambda: generate_structured_quads(1.5, 2.5, 4, 6),
    "quads-7x5-ve": lambda: generate_structured_quads(3.5, 1.25, 7, 5, VE),
    "split-2x1": lambda: generate_split_square(2.0, 1.0, 2, 1),
    "split-5x3": lambda: generate_split_square(3.0, 2.0, 5, 3),
    "split-6x4-at-0.7": lambda: generate_split_square(2.0, 1.0, 6, 4, 0.7),
    **{f"{name}.cfg": lambda name=name: config_mesh(name) for name in ("cylinder", "plate")},
    **{f"{case.name}-{level}-{method}": lambda case=case, level=level, method=method:
       case.build_mesh(level, method)
       for case, levels in ((bench.CylinderCase(), range(4)), (bench.PlateCase(), (-1, 0, 1, 2)))
       for level in levels for method in ("coupled", "fe", "ve")},
}


def config_mesh(name):
    path = CONFIGS / f"{name}.cfg"
    return build_mesh(parse_config(path.read_text(), str(path)))


def integer_arrays(value, name):
    """(name, array) of every integer array in ``value``, through dicts, tuples and lists."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iu":
            yield name, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from integer_arrays(item, f"{name}[{key!r}]")
    elif isinstance(value, (tuple, list)):
        for k, item in enumerate(value):
            yield from integer_arrays(item, f"{name}[{k}]")


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.cfg")))
def test_mesh_index_tables_are_int32_when_they_fit(name):
    # every index table a mesh keeps, cached ones included, is int32 unless a
    # value it holds does not fit int32; region ids are int64 by design
    path = CONFIGS / f"{name}.cfg"
    cfg = parse_config(path.read_text(), str(path))
    mesh = build_mesh(cfg)
    run_pipeline(mesh, cfg.materials, build_bcs(cfg, mesh), cfg.solver)
    tables = dict(integer_arrays(vars(mesh), "mesh"))
    assert {"mesh['edges']", "mesh['node_pattern'][1]", "mesh['node_components'][1]",
            "mesh['dissection_order']", "mesh['_edge_lookup'][1]"} <= tables.keys()
    assert tables.pop("mesh['element_regions']").dtype == np.int64
    int32 = np.iinfo(np.int32)
    for key, table in tables.items():
        fits = not table.size or int32.min <= table.min() and table.max() <= int32.max
        assert table.dtype.itemsize <= (4 if fits else 8), (key, table.dtype)


class TestAnalyticGrids:
    @pytest.mark.parametrize("name", ANALYTIC_MESHES)
    def test_analytic_mesh_unchanged(self, name):
        text = mesh_text(ANALYTIC_MESHES[name]())
        assert hashlib.sha256(text.encode()).hexdigest() == ANALYTIC_MESH_SHA256[name]

    @pytest.mark.parametrize("level", range(4))
    def test_grid_lines_are_the_per_line_sums(self, level):
        breaks = [0.0, 0.8, 1.36, 1.76, 1.86, 2.16, 2.96]
        counts = [c * 2 ** level for c in (2, 2, 2, 1, 1, 3)]
        lines = [breaks[0]] + [a + (b - a) * i / n for a, b, n in zip(breaks, breaks[1:], counts)
                               for i in range(1, n + 1)]
        assert meshmod.subdivided(breaks, counts) == lines


INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
# Any float, with the signed zeros, subnormals and non-finite values spelled out.
COORDS = st.floats() | st.sampled_from([-0.0, 5e-324, -2.2250738585072009e-308, math.nan,
                                        math.inf, -math.inf])
LABELS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6).filter(
    lambda label: label.split() == [label] and "#" not in label)


@st.composite
def any_meshes(draw):
    """A mesh the constructor accepts, valid or not: vertex ids in and out of range,
    empty and short vertex lists, regions across int64, labels on any node pair."""
    n = draw(st.integers(0, 6))
    node = st.integers(-2, n + 1) | INT64
    vertices = draw(st.lists(st.lists(node, max_size=5), max_size=5))
    m = len(vertices)
    return Mesh(draw(st.lists(st.tuples(COORDS, COORDS), min_size=n, max_size=n)), vertices,
                draw(st.lists(st.sampled_from(list(ElementKind)), min_size=m, max_size=m)),
                draw(st.lists(INT64, min_size=m, max_size=m)),
                draw(st.dictionaries(st.tuples(node, node), LABELS, max_size=4)))


def assert_round_trip(mesh):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.txt")
        save_mesh(mesh, path)
        assert mesh_text(load_mesh(path, validate=False)) == mesh_text(mesh)


class TestMeshIO:
    SQUARE_MESH = dict(coords=[(0, 0), (1, 0), (1, 1), (0, 1)], vertices=[(0, 1, 2, 3)],
                       kinds=[VE], regions=[0])

    @pytest.mark.parametrize("label", ["die top", "", " top", "top\n", "a\tb", "x#y"])
    def test_label_that_cannot_be_saved_refused(self, label):
        # "die top" and "" once saved files that load_mesh refused
        with pytest.raises(MeshError, match="must be non-empty, without whitespace or '#'"):
            Mesh(**self.SQUARE_MESH, boundary_edges={(0, 1): "bottom", (1, 2): label})

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))
    def test_accepted_label_survives_save_and_load(self, label):
        try:
            mesh = Mesh(**self.SQUARE_MESH, boundary_edges={(1, 0): label})
        except MeshError:
            assert label.split() != [label] or "#" in label
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.txt")
            save_mesh(mesh, path)
            back = load_mesh(path)
        assert back.boundary_edges == {(0, 1): label}
        assert mesh_text(back) == mesh_text(mesh)

    def test_text_the_same_in_any_node_block(self, monkeypatch, tmp_path):
        # 4-, 6- and 8-vertex VE polygons interleave with each other and with the
        # FE quads, so one text window merges lines of several vertex groups
        mesh = merge_ve_blocks(generate_quarter_annulus(20, 60, 12, 16, 40), 12, 16)
        assert [sum(len(pos) for (_, k), (pos, _) in mesh.vertex_groups.items() if k == n)
                for n in (4, 6, 8)] == [108, 24, 12]
        fields = special_fields(mesh, 1)
        stresses = post.as_stresses(mesh, special_stresses(mesh, 2))
        vtk = post_oracles.fields_vtk_text(mesh, fields, stresses)
        unsolved = SolutionFields(temperature=None, displacement=None)
        vtk_unsolved = post_oracles.fields_vtk_text(mesh, unsolved, None)
        text = post_oracles.mesh_text(mesh)
        elements = "".join(text.splitlines(keepends=True)[1 + mesh.n_nodes:][:mesh.n_elements])
        for rows in (1, 7, mesh.n_elements, mesh.n_nodes, 2 * mesh.n_nodes):
            monkeypatch.setattr(meshmod, "_TEXT_LINES", rows)
            assert "".join(meshmod.element_lines(mesh)) == elements
            assert mesh_text(mesh) == text
            save_mesh(mesh, str(tmp_path / "m.txt"))
            assert (tmp_path / "m.txt").read_bytes() == text.encode()
            post.export_fields(mesh, fields, stresses, str(tmp_path / "f.vtk"))
            assert (tmp_path / "f.vtk").read_bytes() == vtk.encode()
            post.export_fields(mesh, unsolved, None, str(tmp_path / "f.vtk"))
            assert (tmp_path / "f.vtk").read_bytes() == vtk_unsolved.encode()

    def test_provenance_hashes_the_saved_mesh(self, tmp_path):
        from fevec.cli import main
        from test_cli import RUN_CFG
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CFG.format(out=tmp_path / "out"))
        assert main(["run", str(cfg)]) == 0
        assert main(["mesh-gen", str(cfg)]) == 0      # writes mesh.txt next to the outputs
        digest = hashlib.sha256((tmp_path / "out" / "mesh.txt").read_bytes()).hexdigest()
        assert f"mesh_sha256 {digest}\n" in (tmp_path / "out" / "provenance.txt").read_text()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_any_accepted_mesh_survives_save_and_load(self, data):
        assert_round_trip(data.draw(any_meshes()))

    def test_round_trip_identity(self, tmp_path):
        from fevec.mesh import generate_fcbga, generate_igbt, generate_sandwich
        for mesh in (generate_structured_quads(2, 2, 2, 2),
                     generate_split_square(2, 1, 4, 2),
                     generate_quarter_annulus(20, 60, 3, 5, 40),
                     generate_plate_with_hole(5, 20, 8, 4, 8, 10, split_ring=True),
                     generate_sandwich(0), generate_fcbga(0), generate_igbt(0),
                     # the smallest analytic meshes and the all-FE sandwich
                     generate_structured_quads(1, 1, 1, 1, VE), generate_split_square(1, 1, 1, 1),
                     generate_quarter_annulus(1, 2, 1, 1, 1.5),
                     generate_plate_with_hole(1, 3, 1, 1, 0, 2),
                     generate_plate_with_hole(1, 3, 1, 1, 1, 2, split_ring=True),
                     generate_sandwich(0, FE)):
            path = tmp_path / "m.txt"
            save_mesh(mesh, str(path))
            back = load_mesh(str(path))
            assert np.array_equal(back.coords, mesh.coords)
            assert back.elements == mesh.elements
            assert back.vertex_groups.keys() == mesh.vertex_groups.keys()
            for n_v, (pos, verts) in mesh.vertex_groups.items():
                assert np.array_equal(back.vertex_groups[n_v][0], pos)
                assert np.array_equal(back.vertex_groups[n_v][1], verts)
            assert np.array_equal(back.element_fe, mesh.element_fe)
            assert np.array_equal(back.element_regions, mesh.element_regions)
            assert back.boundary_edges == mesh.boundary_edges

    def test_duplicate_node_id_parse_error(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 0 1 0\n")
        with pytest.raises(ParseError, match="duplicate node id"):
            load_mesh(str(path))

    @pytest.mark.parametrize("second", ["bedge bottom 3 2", "bedge bottom 2 3", "bedge top 3 2"])
    def test_second_label_on_an_edge_parse_error(self, tmp_path, second):
        # the second record once replaced the first without a word
        path = tmp_path / "labels.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 1 1 0\nnode 2 1 1\nnode 3 0 1\n"
                        f"elem 0 FE 0 4 0 1 2 3\nbedge top 2 3\n{second}\n")
        with pytest.raises(ParseError, match=r"edge \(2, 3\) already has label 'top'") as err:
            load_mesh(str(path))
        assert err.value.line == 8

    def test_second_label_on_an_edge_mesh_error(self):
        with pytest.raises(MeshError, match=r"labeled edge \(3, 2\): edge \(2, 3\) already"):
            Mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2, 3)], [ElementKind.FE_QUAD], [0],
                 {(2, 3): "top", (3, 2): "bottom"})

    @pytest.mark.parametrize("line", ["node 1 1_000 0", "node 1 1 ٠", "elem ٠ FE 0 4 0 1 2 3",
                                      "elem 0 FE 0 4 0 1 2 3_0", "elem 0 FE 0 ٤ 0 1 2 3",
                                      "bedge top 2 3_0"])
    def test_numbers_are_plain_ascii(self, tmp_path, line):
        # float and int read 1_000 as 1000.0 and Arabic-Indic digits as decimals
        lines = ["mesh 2d v1", "node 0 0 0", "node 1 1 0", "node 2 1 1", "node 3 0 1",
                 "elem 0 FE 0 4 0 1 2 3", "bedge top 2 3"]
        at = next(i for i, old in enumerate(lines) if old.split()[:2] == line.split()[:2]
                  or (old.split()[0] == line.split()[0] == "elem"))
        lines[at] = line
        path = tmp_path / "numbers.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="must be plain ASCII") as err:
            load_mesh(str(path))
        assert err.value.line == at + 1

    def test_five_vertex_fe_is_validation_error(self, tmp_path):
        path = tmp_path / "fe5.txt"
        path.write_text("mesh 2d v1\n"
                        "node 0 0 0\nnode 1 1 0\nnode 2 1.5 0.5\nnode 3 1 1\nnode 4 0 1\n"
                        "elem 0 FE 0 5 0 1 2 3 4\n")
        with pytest.raises(MeshError, match="FE_QUAD"):
            load_mesh(str(path))

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 1 zzz 0\n")
        with pytest.raises(ParseError) as err:
            load_mesh(str(path))
        assert err.value.line == 3

    SQUARE = "mesh 2d v1\nnode 0 0 0\nnode 1 1 0\nnode 2 1 1\nnode 3 0 1\n"
    HUGE = "99999999999999999999999"

    @pytest.mark.parametrize("record", [f"elem 0 VE 0 3 0 1 {HUGE}",
                                        f"elem 0 FE {HUGE} 4 0 1 2 3",
                                        f"elem {HUGE} VE 0 4 0 1 2 3",
                                        f"elem 0 VE 0 4 0 1 2 -{HUGE}",
                                        f"bedge x 0 {HUGE}",
                                        f"node {HUGE} 0 0"])
    def test_integer_outside_int64_is_parse_error(self, tmp_path, record):
        path = tmp_path / "huge.txt"
        path.write_text(self.SQUARE + record + "\n")
        with pytest.raises(ParseError, match="outside the int64 range") as err:
            load_mesh(str(path), validate=False)
        assert err.value.line == 6

    def test_int64_extremes_reach_validation(self, tmp_path):
        path = tmp_path / "extreme.txt"
        path.write_text(self.SQUARE + f"elem 0 VE 0 4 0 1 2 {2 ** 63 - 1}\n"
                        f"bedge x {-2 ** 63} 1\n")
        report = validate_mesh(load_mesh(str(path), validate=False))
        assert [v.message for v in report] == [
            "element 0: vertex id out of range",
            "nodes without any element: [3]",
            f"labeled edge ({-2 ** 63},1) references missing node"]

    def test_missing_header(self, tmp_path):
        path = tmp_path / "hdr.txt"
        path.write_text("node 0 0 0\n")
        with pytest.raises(ParseError, match="header"):
            load_mesh(str(path))

    def test_non_dense_ids(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 2 1 0\n")
        with pytest.raises(ParseError, match="dense"):
            load_mesh(str(path))

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# leading comment\nmesh 2d v1\n\nnode 0 0 0  # trailing\n"
                        "node 1 1 0\nnode 2 1 1\nnode 3 0 1\nelem 0 VE 0 4 0 1 2 3\n")
        mesh = load_mesh(str(path))
        assert mesh.n_nodes == 4 and mesh.n_elements == 1
