"""Batched ``validate_mesh`` against an element-by-element oracle.

``oracle_validate`` is the per-element validation loop with its pairwise
``segments_cross`` test, a rounding bound on each area, a corner-by-corner
convexity test of FE quads, a set of the nodes that elements list, and an
interface scan over every node of the other kind.  ``validate_mesh`` must
return the same report, codes, messages and order, on meshes mutated by
seeded hypothesis draws.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec import mesh as meshmod
from fevec.mesh import (ElementKind, Mesh, Violation, generate_quarter_annulus,
                        generate_split_square, validate_mesh)
from conftest import edge_dict, element_table
from kernel_oracles import element_coords, shoelace_area

FE = ElementKind.FE_QUAD
VE = ElementKind.VE_POLY


def orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_cross(p0, p1, q0, q1) -> bool:
    """Proper (interior) intersection of two segments."""
    d1 = orient(q0, q1, p0)
    d2 = orient(q0, q1, p1)
    d3 = orient(p0, p1, q0)
    d4 = orient(p0, p1, q1)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0


def oracle_validate(mesh: Mesh) -> list[Violation]:
    report: list[Violation] = []
    n_nodes = mesh.n_nodes

    if not mesh.elements:
        report.append(Violation("no-elements", "mesh has no elements"))
    if not np.all(np.isfinite(mesh.coords)):
        bad = np.where(~np.isfinite(mesh.coords).all(axis=1))[0]
        report.append(Violation("node-coords", f"non-finite coordinates at nodes {bad.tolist()}"))
        return report

    for p, e in enumerate(mesh.elements):
        if any(v < 0 or v >= n_nodes for v in e.vertices):
            report.append(Violation("element-vertices", f"element {p}: vertex id out of range"))
            continue
        if len(set(e.vertices)) != len(e.vertices):
            report.append(Violation("element-vertices", f"element {p}: repeated vertex"))
            continue
        if len(e.vertices) < 3:
            report.append(Violation("element-vertices", f"element {p}: fewer than 3 vertices"))
            continue
        if e.kind == ElementKind.FE_QUAD and len(e.vertices) != 4:
            report.append(Violation("fe-quad-arity",
                                    f"element {p}: FE_QUAD must have 4 vertices, has {len(e.vertices)}"))
            continue

        coords = element_coords(mesh, e)
        area = shoelace_area(coords)
        if area <= 0.0:
            report.append(Violation("orientation",
                                    f"element {p}: non-positive area {area:g} (clockwise vertex order?)"))
            continue
        deltas = np.roll(coords, -1, axis=0) - coords
        lengths = np.hypot(deltas[:, 0], deltas[:, 1])
        if np.any(lengths <= 1e-14 * max(lengths.max(), 1.0)):
            report.append(Violation("degenerate", f"element {p}: zero-length edge"))
            continue
        ax, ay = np.abs(coords[:, 0]), np.abs(coords[:, 1])
        rounding = len(coords) * np.finfo(float).eps * 0.5 * (
            float(np.dot(ax, np.roll(ay, -1))) + float(np.dot(ay, np.roll(ax, -1))))
        if area <= rounding:
            report.append(Violation("degenerate",
                                    f"element {p}: area {area:g} is zero to rounding"))
            continue
        nv = len(e.vertices)
        simple = True
        for i in range(nv):
            for j in range(i + 1, nv):
                if j == i + 1 or (i == 0 and j == nv - 1):
                    continue  # adjacent edges share a vertex
                if segments_cross(coords[i], coords[(i + 1) % nv], coords[j], coords[(j + 1) % nv]):
                    report.append(Violation("self-intersection",
                                            f"element {p}: edges {i} and {j} cross"))
                    simple = False
                    break
            if not simple:
                break
        if simple and e.kind == ElementKind.FE_QUAD:
            for k in range(4):
                if orient(coords[k - 1], coords[k], coords[(k + 1) % 4]) <= 0.0:
                    report.append(Violation("fe-quad-convexity",
                                            f"element {p}: FE_QUAD not strictly convex "
                                            f"at node {e.vertices[k]}"))
                    break

    used = {v for e in mesh.elements for v in e.vertices if 0 <= v < n_nodes}
    orphans = [n for n in range(n_nodes) if n not in used]
    if mesh.elements and orphans:
        report.append(Violation("orphan-nodes", f"nodes without any element: {orphans[:10]}"))

    edges = edge_dict(mesh)
    for (a, b), owners in edges.items():
        if len(owners) > 2:
            report.append(Violation("edge-sharing",
                                    f"edge ({a},{b}) shared by {len(owners)} elements {sorted(owners)}"))

    for (a, b) in mesh.boundary_edges:
        if a < 0 or b >= n_nodes:      # keys are sorted, a <= b
            report.append(Violation("bedge-nodes", f"labeled edge ({a},{b}) references missing node"))
        elif (a, b) not in edges:
            report.append(Violation("bedge-orphan", f"labeled edge ({a},{b}) is not an edge of any element"))

    report.extend(oracle_interface_coincidence(mesh))
    return report


def oracle_interface_coincidence(mesh: Mesh) -> list[Violation]:
    """Every edge near a mixed node against every node of the other kind.

    Elements with an out-of-range vertex id are left out, and collapsed
    edges are skipped.
    """
    report: list[Violation] = []
    elements = [e for e in mesh.elements if all(0 <= v < mesh.n_nodes for v in e.vertices)]
    edge_elems: dict[tuple[int, int], list[int]] = {}
    for pos, e in enumerate(elements):
        v = e.vertices
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            edge_elems.setdefault((min(a, b), max(a, b)), []).append(pos)

    node_kinds: dict[int, set[ElementKind]] = {}
    for e in elements:
        for v in e.vertices:
            node_kinds.setdefault(v, set()).add(e.kind)
    mixed_nodes = {n for n, kinds in node_kinds.items() if len(kinds) > 1}
    if not mixed_nodes:
        return report

    nodes_of_kind = {
        kind: np.array(sorted(n for n, kinds in node_kinds.items() if kind in kinds))
        for kind in ElementKind
    }

    for (a, b), owners in edge_elems.items():
        edge_kinds = {elements[p].kind for p in owners}
        if len(edge_kinds) > 1:
            continue  # properly matched interface edge
        if not (a in mixed_nodes or b in mixed_nodes):
            continue  # edge nowhere near the interface
        (edge_kind,) = edge_kinds
        other = (ElementKind.VE_POLY if edge_kind == ElementKind.FE_QUAD
                 else ElementKind.FE_QUAD)
        candidates = nodes_of_kind[other]
        pa, pb = mesh.coords[a], mesh.coords[b]
        ab = pb - pa
        len2 = float(ab @ ab)
        if len2 == 0.0:
            continue
        length = math.sqrt(len2)
        pts = mesh.coords[candidates]
        lo = np.minimum(pa, pb) - 1e-9 * length
        hi = np.maximum(pa, pb) + 1e-9 * length
        near = candidates[((pts >= lo) & (pts <= hi)).all(axis=1)]
        for n in near:
            if n == a or n == b:
                continue
            p = mesh.coords[n]
            t = float((p - pa) @ ab) / len2
            if t <= 1e-12 or t >= 1.0 - 1e-12:
                continue
            closest = pa + t * ab
            if float(np.hypot(*(p - closest))) <= 1e-9 * length:
                report.append(Violation(
                    "interface-coincidence",
                    f"node {n} hangs on edge ({a},{b}) across the FE/VE interface"))
    return report


# A positive-area pentagon whose edges 0 and 2 cross.
CROSSED_PENTAGON = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.0, -1.0), (0.0, 2.0))

MUTATIONS = ("reverse", "out_of_range", "negative_id", "repeat", "swap_elements",
             "drop_vertex", "split_edge", "collapse", "move", "crossed_pentagon",
             "copy_element", "nan", "orphan_bedge", "missing_bedge", "flatten")


@st.composite
def mutated_meshes(draw):
    """A small FE/VE split square or quarter annulus with 1-4 seeded defects.

    ``split_edge`` puts a new node inside one element edge; on an FE/VE
    edge it hangs across the interface, and on an FE element it makes a
    5-vertex quad.  ``drop_vertex`` makes 3-vertex quads and, repeated,
    elements with fewer than 3 vertices.
    """
    if draw(st.booleans()):
        nx, ny = draw(st.integers(2, 4)), draw(st.integers(1, 3))
        base = generate_split_square(float(nx), float(ny), nx, ny)
    else:
        base = generate_quarter_annulus(1.0, 3.0, draw(st.integers(2, 3)),
                                        draw(st.integers(2, 4)), 2.0)
    coords = base.coords.tolist()
    elements = [[list(e.vertices), e.kind] for e in base.elements]
    bedges = dict(base.boundary_edges)

    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(MUTATIONS))
        elem = elements[draw(st.integers(0, len(elements) - 1))]
        verts = elem[0]
        i = draw(st.integers(0, max(len(verts) - 1, 0)))
        n_nodes = len(coords)
        if op == "reverse":
            verts.reverse()
        elif op == "out_of_range" and verts:
            verts[i] = n_nodes + draw(st.integers(0, 3))
        elif op == "negative_id" and verts:
            verts[i] = -draw(st.integers(1, n_nodes))
        elif op == "repeat" and len(verts) > 1:
            verts[i] = verts[(i + 1) % len(verts)]
        elif op == "swap_elements":
            j = draw(st.integers(0, len(elements) - 1))
            k = draw(st.integers(0, len(elements) - 1))
            elements[j], elements[k] = elements[k], elements[j]
        elif op == "drop_vertex" and len(verts) > 1:
            del verts[i]
        elif op == "split_edge" and len(verts) > 1:
            a, b = verts[i], verts[(i + 1) % len(verts)]
            if 0 <= a < n_nodes and 0 <= b < n_nodes:
                t = draw(st.sampled_from([0.5, 0.25, 0.7]))
                (xa, ya), (xb, yb) = coords[a], coords[b]
                coords.append([xa + t * (xb - xa), ya + t * (yb - ya)])
                verts.insert(i + 1, n_nodes)
        elif op == "collapse" and len(verts) > 1:
            a, b = verts[i], verts[(i + 1) % len(verts)]
            if 0 <= a < n_nodes and 0 <= b < n_nodes:
                coords[b] = list(coords[a])
        elif op == "move":
            node = draw(st.integers(0, n_nodes - 1))
            dx, dy = draw(st.sampled_from([(1.3, 0.0), (-0.6, 0.9), (0.0, -2.5), (0.4, 0.4)]))
            coords[node] = [coords[node][0] + dx, coords[node][1] + dy]
        elif op == "crossed_pentagon":
            ox = draw(st.floats(-5.0, 5.0, allow_nan=False))
            coords.extend([[ox + x, y] for x, y in CROSSED_PENTAGON])
            elements.append([list(range(n_nodes, n_nodes + 5)), VE])
        elif op == "copy_element":
            kind = draw(st.sampled_from([FE, VE]))
            elements.append([list(verts), kind])
        elif op == "flatten" and all(0 <= v < n_nodes for v in verts):
            x0, y0 = coords[verts[0]] if verts else (0.0, 0.0)
            for k, v in enumerate(verts):       # every vertex on one horizontal line
                coords[v] = [x0 + 0.37 * k, y0]
        elif op == "nan":
            coords[draw(st.integers(0, n_nodes - 1))][draw(st.integers(0, 1))] = math.nan
        elif op == "orphan_bedge":
            a, b = draw(st.integers(0, n_nodes - 1)), draw(st.integers(0, n_nodes - 1))
            bedges[min(a, b), max(a, b)] = "x"     # relabels the edge if it has a label
        elif op == "missing_bedge":     # one end past the last node or negative
            missing = draw(st.sampled_from([n_nodes, -3])) + draw(st.integers(0, 2))
            bedges[(draw(st.integers(0, n_nodes - 1)), missing)] = "y"

    return Mesh(coords, [v for v, _ in elements], [kind for _, kind in elements],
                [0] * len(elements), bedges)


class TestValidationOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated_meshes())
    def test_report_equals_element_loop(self, mesh):
        expected = oracle_validate(mesh)
        assert validate_mesh(mesh) == expected
        with mock.patch.object(meshmod, "_CHECK_CHUNK", 8):   # chunks of 1-2 rows
            # a new mesh: the report is computed once per mesh
            fresh = Mesh(mesh.coords, *element_table(mesh), mesh.boundary_edges)
            assert validate_mesh(fresh) == expected

    @pytest.mark.parametrize("kind", [FE, VE])
    def test_element_without_vertices(self, kind):
        # once a bare IndexError: the convexity message read a vertex of every flagged row
        mesh = Mesh([[0, 0], [1, 0], [1, 1]], [[0, 1, 2], []], [VE, kind], [0, 0])
        assert validate_mesh(mesh) == oracle_validate(mesh) == [
            Violation("element-vertices", "element 1: fewer than 3 vertices")]

    def test_tall_split_square_check_stays_small(self):
        # Each horizontal edge at the vertical FE/VE interface has the whole
        # interface column in its x window: 2 x 5 001^2 candidate pairs if
        # they were taken at once.
        mesh = generate_split_square(1.0, 5000.0, 2, 5000)
        tracemalloc.start()
        try:
            assert validate_mesh(mesh) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_cylinder_config_mesh_valid(self):
        mesh = generate_quarter_annulus(20.0, 60.0, 30, 60, 40.0)   # configs/cylinder.cfg
        assert validate_mesh(mesh) == oracle_validate(mesh) == []
