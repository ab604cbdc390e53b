import math

import numpy as np
import pytest

from fevec.errors import MeshError, ParseError
from fevec.mesh import (Element, ElementKind, Mesh, Violation, find_interface_nodes,
                        generate_plate_with_hole, generate_quarter_annulus,
                        generate_split_square, generate_structured_quads,
                        load_mesh, require_valid, save_mesh, validate_mesh)
from conftest import polygon_family, polygon_row
from kernel_oracles import element_coords, shoelace_area

FE = ElementKind.FE_QUAD
VE = ElementKind.VE_POLY


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
                require_valid(Mesh(pts, [Element(0, (0, 1, 2, 3), VE, 0)]), {})

    def test_element_wrapper_names_element(self):
        nodes = [(0, 0), (0, 1), (1, 1), (1, 0)]
        elem = Element(0, (0, 1, 2, 3), VE, 0)  # clockwise
        with pytest.raises(MeshError, match="^element 0: "):
            require_valid(Mesh(nodes, [elem]), {})


class TestValidation:
    def test_valid_structured_mesh(self):
        assert validate_mesh(generate_structured_quads(2, 2, 2, 2)) == []

    def test_clockwise_quad_flagged(self):
        mesh = generate_structured_quads(1, 1, 1, 1)
        bad = Element(0, tuple(reversed(mesh.elements[0].vertices)), FE, 0)
        report = validate_mesh(Mesh(mesh.coords, [bad], mesh.boundary_edges))
        assert any(v.code == "orientation" for v in report)

    def test_five_vertex_fe_flagged(self):
        nodes = [(0, 0), (1, 0), (1.5, 0.5), (1, 1), (0, 1)]
        report = validate_mesh(Mesh(nodes, [Element(0, (0, 1, 2, 3, 4), FE, 0)]))
        assert any(v.code == "fe-quad-arity" for v in report)

    def test_self_intersection_flagged(self):
        nodes = [(0, 0), (1, 1), (1, 0), (0, 1)]
        report = validate_mesh(Mesh(nodes, [Element(0, (0, 1, 2, 3), VE, 0)]))
        assert any(v.code in ("self-intersection", "orientation") for v in report)

    def test_positive_area_self_crossing_flagged(self):
        # edge 2 runs from (2, 2) down to (1, -1), through edge 0; area +1
        nodes = [(0, 0), (2, 0), (2, 2), (1, -1), (0, 2)]
        mesh = Mesh(nodes, [Element(0, (0, 1, 2, 3, 4), VE, 0)])
        assert shoelace_area(mesh.coords) == pytest.approx(1.0)
        assert validate_mesh(mesh) == [
            Violation("self-intersection", "element 0: edges 0 and 2 cross")]

    @pytest.mark.parametrize("bad_id", [9, -1])
    def test_out_of_range_vertex_at_interface_reported(self, bad_id):
        # element 1 shares edge (1,2) with the FE quad; its id 9 (or -1,
        # which would wrap to node 5) is left out of the interface scan
        nodes = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1)]
        elems = [Element(0, (0, 1, 2, 3), FE, 0), Element(1, (1, 4, bad_id, 2), VE, 0)]
        assert validate_mesh(Mesh(nodes, elems)) == [
            Violation("element-vertices", "element 1: vertex id out of range")]

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
        elems = [Element(0, (0, 1, 2, 3), FE, 0), Element(1, (1, 4, 5, 2), VE, 0)]
        assert validate_mesh(Mesh(nodes, elems)) == [
            Violation("degenerate", "element 0: zero-length edge"),
            Violation("degenerate", "element 1: zero-length edge")]

    def test_hanging_node_across_interface(self):
        # Left FE quad (0,1), (1,1) column shared with a VE block whose edge
        # is split at the midpoint (node 6): coincidence violation.
        nodes = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1), (1, 0.5)]
        elems = [Element(0, (0, 1, 2, 3), FE, 0),
                 Element(1, (1, 4, 5, 2, 6), VE, 0)]
        report = validate_mesh(Mesh(nodes, elems))
        assert any(v.code == "interface-coincidence" for v in report)

    def test_hanging_node_ve_to_ve_allowed(self):
        nodes = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1), (1, 0.5)]
        elems = [Element(0, (0, 1, 6, 2, 3), VE, 0),
                 Element(1, (1, 4, 5, 2, 6), VE, 0)]
        assert validate_mesh(Mesh(nodes, elems)) == []

    def test_orphan_bedge_flagged(self):
        mesh = generate_structured_quads(1, 1, 1, 1)
        report = validate_mesh(Mesh(mesh.coords, mesh.elements, {(0, 3): "diag"}))
        assert any(v.code == "bedge-orphan" for v in report)

    def test_bedge_missing_node_flagged(self):
        mesh = generate_structured_quads(1, 1, 1, 1)
        report = validate_mesh(Mesh(mesh.coords, mesh.elements, {(0, 99): "x"}))
        assert any(v.code == "bedge-nodes" for v in report)

    def test_edge_shared_three_times_flagged(self):
        nodes = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0.5), (-1, 0.5)]
        elems = [Element(0, (0, 1, 2, 3), VE, 0),
                 Element(1, (1, 4, 2), VE, 0),
                 Element(2, (1, 2, 5), VE, 0)]   # edge (1,2) used thrice
        report = validate_mesh(Mesh(nodes, elems))
        assert any(v.code == "edge-sharing" for v in report)


class TestInterfaceNodes:
    def test_all_fe_empty(self):
        mesh = generate_structured_quads(2, 2, 2, 2, kind=FE)
        assert find_interface_nodes(mesh) == set()

    def test_split_square_column(self):
        mesh = generate_split_square(2.0, 1.0, 2, 1)
        assert mesh.interface_nodes == {1, 4}

    def test_symmetric_under_kind_swap(self):
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        swapped = Mesh(mesh.coords,
                       [Element(e.id, e.vertices, FE if e.kind == VE else VE, e.region)
                        for e in mesh.elements],
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
    elements = []
    for e in base.elements:
        mid_x = element_coords(base, e)[:, 0].mean()
        kind = ElementKind.FE_QUAD if mid_x < split_x else ElementKind.VE_POLY
        elements.append(Element(e.id, e.vertices, kind, e.region))
    return Mesh(base.coords, elements, base.boundary_edges)


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
        import fevec.mesh as meshmod
        with pytest.raises(ParseError, match="^level must be >= 0, got -1$"):
            getattr(meshmod, name)(-1)


class TestMeshIO:
    def test_round_trip_identity(self, tmp_path):
        from fevec.mesh import generate_fcbga, generate_igbt, generate_sandwich
        for mesh in (generate_structured_quads(2, 2, 2, 2),
                     generate_split_square(2, 1, 4, 2),
                     generate_quarter_annulus(20, 60, 3, 5, 40),
                     generate_plate_with_hole(5, 20, 8, 4, 8, 10, split_ring=True),
                     generate_sandwich(0), generate_fcbga(0), generate_igbt(0)):
            path = tmp_path / "m.txt"
            save_mesh(mesh, str(path))
            back = load_mesh(str(path))
            assert np.array_equal(back.coords, mesh.coords)
            assert back.elements == mesh.elements
            assert back.boundary_edges == mesh.boundary_edges

    def test_duplicate_node_id_parse_error(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 0 1 0\n")
        with pytest.raises(ParseError, match="duplicate node id"):
            load_mesh(str(path))

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
            f"labeled edge ({-2 ** 63},1) is not an edge of any element"]

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
