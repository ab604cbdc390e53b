"""The mesh's edge arrays against the element-by-element edge dict.

``edge_dict`` (conftest) is the loop over ``mesh.elements`` that the edge
arrays replaced.  ``Mesh.edges``, ``edge_counts``, ``edge_owners``,
``side_element`` / ``side_edge`` and ``edge_index`` must reproduce it on
arbitrary element lists: negative, out-of-range and extreme int64 vertex
ids, elements with fewer than 3 vertices, elements that list one edge
twice, and the mutated meshes of the validation oracle test.  Generated
meshes must keep their frozen ``mesh_text``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec.mesh import (Element, ElementKind, Mesh, find_interface_nodes,
                        generate_fcbga, generate_igbt, generate_plate_with_hole,
                        generate_quarter_annulus, generate_sandwich, generate_split_square,
                        generate_structured_quads, mesh_text, validate_mesh)
from conftest import edge_dict
from test_validation import mutated_meshes

FE = ElementKind.FE_QUAD
VE = ElementKind.VE_POLY
INT64 = np.iinfo(np.int64)
N_NODES = 6


@st.composite
def element_lists(draw):
    """A mesh of 6 nodes over 0-8 elements whose vertex ids come from a small pool.

    The pool mixes node ids with negative, out-of-range and extreme int64
    ids, so edges repeat across elements; some elements are a path walked
    back (a, b, a, c), which lists the edge (a, b) twice.
    """
    pool = draw(st.lists(st.one_of(st.integers(-3, N_NODES + 3),
                                   st.sampled_from([INT64.min, INT64.min + 1, INT64.max,
                                                    INT64.max - 1, 2 ** 32, -2 ** 32])),
                         min_size=1, max_size=7, unique=True))
    vertex = st.sampled_from(pool)
    elements = []
    for eid in range(draw(st.integers(0, 8))):
        if draw(st.booleans()) and len(pool) >= 3:
            a, b, c = draw(st.permutations(pool))[:3]
            verts = (a, b, a, c)
        else:
            verts = tuple(draw(st.lists(vertex, min_size=0, max_size=6)))
        elements.append(Element(draw(st.integers(0, 3)), verts,
                                draw(st.sampled_from([FE, VE])), 0))
    coords = [(float(k), float(k % 2)) for k in range(N_NODES)]
    queries = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    return Mesh(coords, elements), queries


def assert_edge_arrays_match(mesh, queries=()):
    oracle = edge_dict(mesh)
    pairs = list(oracle)
    assert [tuple(p) for p in mesh.edges.tolist()] == pairs
    assert mesh.edges.dtype == np.int64 and mesh.edges.shape == (len(pairs), 2)
    assert mesh.edge_counts.tolist() == [len(owners) for owners in oracle.values()]
    owners, start = mesh.edge_owners()
    assert [owners[s:s + n].tolist() for s, n in zip(start.tolist(), mesh.edge_counts.tolist())] \
        == list(oracle.values())

    sides = [(pos, (min(a, b), max(a, b)))
             for pos, e in enumerate(mesh.elements)
             for a, b in zip(e.vertices, e.vertices[1:] + e.vertices[:1])]
    assert list(zip(mesh.side_element.tolist(),
                    [tuple(p) for p in mesh.edges[mesh.side_edge].tolist()])) == sides

    assert mesh.edge_index(pairs).tolist() == list(range(len(pairs)))
    assert mesh.edge_index([(b, a) for a, b in pairs]).tolist() == list(range(len(pairs)))
    index = {p: k for k, p in enumerate(pairs)}
    assert mesh.edge_index(list(queries)).tolist() == \
        [index.get((min(a, b), max(a, b)), -1) for a, b in queries]

    kinds = [e.kind for e in mesh.elements]
    assert mesh.interface_nodes == find_interface_nodes(mesh) == {
        n for (a, b), owners in oracle.items()
        if len(owners) == 2 and kinds[owners[0]] != kinds[owners[1]] for n in (a, b)}


class TestEdgeArrays:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(element_lists())
    def test_arrays_equal_edge_dict(self, drawn):
        mesh, queries = drawn
        assert_edge_arrays_match(mesh, queries)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(mutated_meshes())
    def test_arrays_equal_edge_dict_on_mutated_meshes(self, mesh):
        assert_edge_arrays_match(mesh)

    @pytest.mark.parametrize("build", [lambda: generate_split_square(4.0, 2.0, 4, 2),
                                       lambda: generate_fcbga(0)])
    def test_generated_meshes(self, build):
        assert_edge_arrays_match(build(), [(0, 1), (0, 10 ** 6), (-1, 0)])

    def test_empty_mesh(self):
        mesh = Mesh([], [], {(0, 1): "x"})
        assert mesh.edges.shape == (0, 2) and mesh.edge_counts.size == 0
        assert mesh.edge_index([(0, 1)]).tolist() == [-1]
        assert mesh.edge_index([]).tolist() == []


class TestRepeatedElementIds:
    """Kinds are read by element position, so a repeated id is reported and hides nothing."""

    @staticmethod
    def hanging_node_mesh(repeat_id):
        base = generate_split_square(4.0, 1.0, 4, 1)     # elements 0, 1 FE; 2, 3 VE
        coords = np.vstack((base.coords, 0.5 * (base.coords[2] + base.coords[7])))
        elements = list(base.elements)
        elements[2] = Element(1 if repeat_id else 2, (2, 3, 8, 7, 10), VE, 0)
        return Mesh(coords, elements, base.boundary_edges)

    def test_hanging_node_reported(self):
        mesh = self.hanging_node_mesh(repeat_id=False)
        assert [v.message for v in validate_mesh(mesh)] == [
            "node 10 hangs on edge (2,7) across the FE/VE interface"]
        assert mesh.interface_nodes == set()

    def test_hanging_node_reported_despite_repeated_id(self):
        mesh = self.hanging_node_mesh(repeat_id=True)
        assert [v.message for v in validate_mesh(mesh)] == [
            "element ids not dense: position 2 holds id 1",
            "node 10 hangs on edge (2,7) across the FE/VE interface"]
        assert mesh.interface_nodes == set()


# sha256 of mesh_text, recorded before the generators moved onto the edge
# arrays (sandwich, fcbga, igbt) and before they emitted coordinate arrays
# (the rest); the numbering, coordinates, element order and labels must not
# change.  Level 0 of the latter is a small mesh, level 1 the size of their
# configs/*.cfg or, without one, an odd-sized grid.
MESH_TEXT_SHA256 = {
    ("sandwich", 0): "afabe79d3db08a4f06c36fd86fc0e64c29f70958b92c0b827499bba882fe2855",
    ("sandwich_fe", 0): "4e4a5154aab42de5603ae03910d258f469f61a76aafa368ed1351c944f6a40d5",
    ("fcbga", 0): "d9aa5c846ff62a17f8a46baa5df60f5c5b0d98e5e157ab97aa10a7bf16f92437",
    ("igbt", 0): "b3afd30a56f7494c380c9d8c9680cc46b27df71faef08a212faf0df5860ed09e",
    ("sandwich", 1): "4d509feb594dc29a995773cffc299e0436917392d018f5f6d635c9a5a7550865",
    ("sandwich_fe", 1): "36a62abb72a2aa3f6a0079702ee91d177c681ae8675a45af502332ecb1c10495",
    ("fcbga", 1): "e9dc046d2f0d4e52127255b061fce5ff87ce1edf5c956a51d0a313964538c4ce",
    ("igbt", 1): "7a9e06c060bebebb6f66680f7500092597d5db0062968cb294ed0fbec531a133",
    ("sandwich", 2): "22314ae9beb98d22a5e9f67bba061dcffaba930f3ebb3386e8a01746a1bfe510",
    ("sandwich_fe", 2): "f3eaae1ad0d8000aabbdf2cab5f2084e8580ac969bcda4d148b9a96ce808d58e",
    ("fcbga", 2): "27bc084c1ce21afca71299ee9dcd3a2bcc66e8267b5b30fdc92389d51ae1b532",
    ("igbt", 2): "1f5e79f47ccf9c71fbe47319e91e9d68fa78c1c153433bf23b0c1ebd0e4cfe90",
    ("structured_quads", 0): "c23bbd68fb92793aa6a8edbfa50e93fc7caa3f26c3cecee231aa81d3bdbe5af6",
    ("structured_quads", 1): "2cc01098cb6e59babde45ba48dd4ae848aadae7d1d5b7cf6074fb70b1373152c",
    ("split_square", 0): "182a159a5cd373dc25a03ab7e99d2ec1f27a56c0c6a8d915c39d5aaaa6a33441",
    ("split_square", 1): "44e829f8c10741154f83c21201c8c60700409c982788c74b0dc7713a601880e8",
    ("quarter_annulus", 0): "e1921cfd2b614eaa9599c89649fae061dd18fcb200b08afe50d91ab771aabc36",
    ("quarter_annulus", 1): "0fb2d6a124ae75cbc8149ab6b1d45a6a8a0b6e1288cd5688e9b316cbd25a0d14",
    ("plate_with_hole", 0): "ee455115924c16c2a6ca70f7204a4ac5593e0f12189b03b96acd9aa1f64675b5",
    ("plate_with_hole_split", 0): "f881bb624e16fa882552c9efcf302260f3fc7ac9de4e34d930022c6819009be5",
    ("plate_with_hole", 1): "d1bfbb2933f300fd84bbb08368dd25ac7b61d9a959b8d60d44cf29b1ae08b5af",
    ("plate_with_hole_split", 1): "c23f2eb9f59ef06d716e35463493c4d2c8f1587378c409f7f251760dccc9e645",
}
PLATE_SIZES = [(1.0, 4.0, 4, 2, 3, 2.0), (5.0, 20.0, 16, 8, 16, 10.0)]
GENERATORS = {
    "sandwich": generate_sandwich,
    "sandwich_fe": lambda level: generate_sandwich(level, FE),
    "fcbga": generate_fcbga,
    "igbt": generate_igbt,
    "structured_quads": lambda level: generate_structured_quads(
        *[(2.0, 1.0, 3, 2), (3.7, 1.3, 37, 13, VE, 2)][level]),
    "split_square": lambda level: generate_split_square(
        *[(4.0, 2.0, 4, 2), (3.7, 1.3, 37, 13, 1.1)][level]),
    "quarter_annulus": lambda level: generate_quarter_annulus(
        *[(1.0, 2.0, 2, 3, 1.5), (20.0, 60.0, 30, 60, 40.0)][level]),
    "plate_with_hole": lambda level: generate_plate_with_hole(*PLATE_SIZES[level]),
    "plate_with_hole_split": lambda level: generate_plate_with_hole(*PLATE_SIZES[level],
                                                                    split_ring=True),
}


@pytest.mark.parametrize("name, level", sorted(MESH_TEXT_SHA256))
def test_generated_mesh_text_frozen(name, level):
    text = mesh_text(GENERATORS[name](level))
    assert hashlib.sha256(text.encode()).hexdigest() == MESH_TEXT_SHA256[(name, level)]
