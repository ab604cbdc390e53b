"""Nested-dissection order, the node graph it reads, and the symmetric direct solve.

The oracle is the direct solve that the ordered one replaced: SuperLU with
its default COLAMD column order and partial pivoting on the reduced system.
The orders and node components are pinned by hash, as recorded before they
were read off ``Mesh.node_pattern``.
"""

import hashlib
import pathlib

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec import bench
from fevec import config as configmod
from fevec.assembly import (BoundaryConditionSet, SparseSystem, assemble_mechanical,
                            assemble_thermal)
from fevec.materials import MaterialProps, Plane
from fevec.mesh import (_DISSECTION_LEAF, ElementKind, Mesh, generate_fcbga, generate_igbt,
                        generate_quarter_annulus, generate_sandwich, generate_split_square,
                        generate_structured_quads)
from fevec.solver import METHOD_CG, SUPERLU_FACTOR, SolveOptions, run_pipeline, solve_system
from conftest import element_table
from kernel_oracles import edge_components, pattern_components
from merged_polygons import merge_ve_blocks

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
TOL = 1e-10


def colamd_solve(system: SparseSystem) -> tuple[np.ndarray, int]:
    """Full solution and LU fill of the COLAMD-ordered, partially pivoted SuperLU solve
    of a natural-order system."""
    lu = spla.splu(system.matrix.tocsc())
    return system.recover(lu.solve(system.rhs)), int(lu.L.nnz + lu.U.nnz)


def permuted_solve(system: SparseSystem) -> np.ndarray:
    """The direct solve as a natural-order system whose matrix is then permuted into
    elimination order and factored with the solver's own SuperLU options;
    assembling in that order must give the same bits."""
    order = system.dof_map.elimination_order(system.free)
    lu = spla.splu(system.matrix[order][:, order].tocsc(), **SUPERLU_FACTOR)
    x = np.empty_like(system.rhs)
    x[order] = lu.solve(system.rhs[order])
    return system.recover(x)


def assert_matches_oracle(assemble) -> np.ndarray:
    """``assemble(elimination_order)`` solved directly, against the natural-order oracles."""
    x, diag = solve_system(assemble(True))
    natural = assemble(False)
    ref, _ = colamd_solve(natural)
    assert diag.ordering == "nested_dissection"
    assert np.abs(x - ref).max() <= TOL * np.abs(ref).max()
    assert np.array_equal(x, permuted_solve(natural))
    return x


def config_problem(name: str, edit: tuple[str, str] | None = None):
    text = (CONFIGS / f"{name}.cfg").read_text()
    if edit is not None:
        assert edit[0] in text
        text = text.replace(*edit)
    cfg = configmod.parse_config(text, str(CONFIGS / f"{name}.cfg"))
    mesh = configmod.build_mesh(cfg, str(CONFIGS))
    return cfg, mesh, configmod.build_bcs(cfg, mesh)


def props():
    return MaterialProps(E=100.0, nu=0.3, conductivity=1.0, alpha=1e-3, T0=25.0,
                         plane=Plane.STRESS)


def clamped_heated(mesh):
    bcs = BoundaryConditionSet()
    for n in mesh.nodes_with_label("left"):
        bcs.set_temperature(n, 25.0)
        bcs.set_displacement(n, 0.0, 0.0)
    for n in mesh.nodes_with_label("right"):
        bcs.set_temperature(n, 125.0)
    return bcs


def sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.int64).tobytes()).hexdigest()


# name -> (mesh, sha256 of dissection_order, node part count, sha256 of the part labels)
PINNED_GRAPHS = {
    "sandwich-l3-fe": (lambda: generate_sandwich(3, all_kind=ElementKind.FE_QUAD),
                       "a6b3a0c38472709879450b95bbabe09bffcc9edae3396348ce418e336b21eb43", 1,
                       "e4a3eb2e96afa012e37ad4db18d1ab5cad0f4d2f3681bd0da299cc818884d9c0"),
    "sandwich-l3": (lambda: generate_sandwich(3),
                    "a6b3a0c38472709879450b95bbabe09bffcc9edae3396348ce418e336b21eb43", 1,
                    "e4a3eb2e96afa012e37ad4db18d1ab5cad0f4d2f3681bd0da299cc818884d9c0"),
    "fcbga-l2": (lambda: generate_fcbga(2),
                 "1d0f82eef6dd2fcb364a2b3693a5f47cc1fb9fe4e2307e807961b92f67fe8491", 1,
                 "98ddeba7c64807332f518ea59762815c7b0e61307ef453b6964d3174d522e2a7"),
    "cylinder-l3": (lambda: bench.CylinderCase().build_mesh(3, "coupled"),
                    "1ec2429f942db593b747d32256b28155840bc90346e0f6531ca4b8d0c2861b26", 1,
                    "e6aa857dc72cee82d3de6d763aa770fce119c77cab3e927be95d84e57569d91a"),
    "igbt-l2": (lambda: generate_igbt(2),
                "d30aed89685bef8b01860437fc1d0a4b0148237df110a6ce353b1eeea85047dc", 1,
                "5669cd0fb898e5ab2adfb09a069076726ea12dfe1458b2b19ca3e844d3bdf1af"),
    "igbt-l3": (lambda: generate_igbt(3),
                "bf348721c4122c25e0971a62157d141276522f42c6285768c48e6ae8333bf2ed", 1,
                "4732cc1fac8cd1eee45f7b6bb970cbd39cbf5e6c29891018907e0ff7296b8346"),
    "split-ring-plate": (lambda: bench.PlateCase().build_mesh(2, "coupled"),
                         "d2ce66350f6d7f9ca39abb8009f0d8bc4d4e1976417c1d932b3089295163c59a", 1,
                         "d2d0f24a4adf58a863685fbc902ab101c40b94350a9ab1333775d2c129e115b5"),
    "merged-split-square": (lambda: merge_ve_blocks(generate_split_square(2.0, 1.0, 24, 12), 12, 24),
                            "34d0256bf0276f867e9743047d8ce26be367b195630bd3ec299e1f3ee2ce2e61", 1,
                            "8bffbf88a5b1e8bb4ac2bc48957d26c4c5e294774dad81758f2c0cbfaf6f8d52"),
    "merged-annulus": (lambda: merge_ve_blocks(
                           generate_quarter_annulus(1.0, 2.5, 12, 16, 1.75), 12, 16),
                       "76f500aee0e4d53a811393687a2b7da176a0a03be5573cc72e838a18da789cfa", 1,
                       "7314b978571ffc723887d81a40c88dbd2de4b221b4a0149d14f284b074eec9f9"),
}


class TestNodeGraph:
    @pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
    def test_order_and_parts_pinned(self, name):
        build, order_sha, n_parts, labels_sha = PINNED_GRAPHS[name]
        mesh = build()
        n, labels = mesh.node_components
        assert (sha256(mesh.dissection_order), n, sha256(labels)) == (order_sha, n_parts,
                                                                      labels_sha)

    def test_parts_match_edge_graph_oracle(self):
        # two squares apart, their nodes interleaved, and node 8 in no element
        coords = [[0, 0], [3, 0], [1, 0], [4, 0], [1, 1], [4, 1], [0, 1], [3, 1], [9, 9]]
        mesh = Mesh(coords, [(1, 3, 5, 7), (0, 2, 4, 6)], [ElementKind.FE_QUAD,
                                                           ElementKind.VE_POLY], [0, 0])
        n, labels = mesh.node_components
        for oracle in (edge_components, pattern_components):
            oracle_n, oracle_labels = oracle(mesh)
            assert n == oracle_n == 3
            assert np.array_equal(labels, oracle_labels)
        assert labels.tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 2]

    @pytest.mark.parametrize("name", ["merged-split-square", "merged-annulus", "split-ring-plate"])
    def test_parts_match_node_pattern_oracle(self, name):
        # the mesh and a shifted copy, their node ids interleaved, and two nodes in no
        # element; merged polygons have chords in node_pattern that are not edges
        base = PINNED_GRAPHS[name][0]()
        vertices, kinds, regions = element_table(base)
        n = base.n_nodes
        coords = np.empty((2 * n + 2, 2))
        coords[0:2 * n:2], coords[1:2 * n:2], coords[2 * n:] = base.coords, base.coords + 99, -1
        mesh = Mesh(coords, [tuple(2 * v for v in vs) for vs in vertices]
                    + [tuple(2 * v + 1 for v in vs) for vs in vertices], kinds * 2, regions * 2)
        n_parts, labels = mesh.node_components
        oracle_n, oracle_labels = pattern_components(mesh)
        assert n_parts == oracle_n == 4
        assert np.array_equal(labels, oracle_labels)

    @pytest.mark.parametrize("build", [
        # vertex counts out of group order, an element without vertices, a repeated id
        # and one out of range: the table is read back as given
        lambda: Mesh(np.zeros((10, 2)),
                     [(0, 1, 4, 3), (1, 2, 5), (), (3, 4, 7, 6), (4, 5, 8, 9, 7), (2, 2, 11)],
                     [ElementKind.FE_QUAD, ElementKind.VE_POLY, ElementKind.VE_POLY,
                      ElementKind.FE_QUAD, ElementKind.VE_POLY, ElementKind.VE_POLY], [0] * 6),
        PINNED_GRAPHS["merged-split-square"][0],
        PINNED_GRAPHS["split-ring-plate"][0]])
    def test_incidence_rows_are_the_element_table(self, build):
        mesh = build()
        incidence = mesh.incidence()
        assert incidence.dtype == bool and incidence.shape == (mesh.n_elements, mesh.n_nodes)
        rows = [tuple(row.tolist()) for row in np.split(incidence.indices, incidence.indptr[1:-1])]
        assert rows == element_table(mesh)[0]
        for pos, verts in mesh.vertex_groups.values():
            assert [rows[p] for p in pos.tolist()] == [tuple(v) for v in verts.tolist()]
        assert "incidence" not in vars(mesh) and mesh.incidence() is not incidence


class TestDissectionOrder:
    @pytest.mark.parametrize("build", [lambda: generate_sandwich(1),
                                       lambda: generate_fcbga(1),
                                       lambda: generate_split_square(3.0, 2.0, 17, 9),
                                       lambda: generate_structured_quads(1.0, 1.0, 1, 1)])
    def test_permutation_of_nodes(self, build):
        mesh = build()
        assert np.array_equal(np.sort(mesh.dissection_order), np.arange(mesh.n_nodes))

    def test_identical_on_fresh_meshes(self):
        for build in (lambda: generate_sandwich(1), lambda: generate_fcbga(1)):
            assert np.array_equal(build().dissection_order, build().dissection_order)

    def test_small_mesh_is_one_leaf_in_node_order(self):
        # 2 x 2 cells, 9 nodes: one leaf, so the solve runs in natural order
        mesh = generate_structured_quads(1.0, 1.0, 2, 2)
        assert mesh.n_nodes <= _DISSECTION_LEAF
        assert np.array_equal(mesh.dissection_order, np.arange(9))

    def test_elimination_order_covers_free_dofs(self):
        mesh = generate_split_square(2.0, 1.0, 16, 8)
        bcs = BoundaryConditionSet()
        for n in mesh.nodes_with_label("left"):
            bcs.set_displacement(n, 0.0, None)
        bcs.set_displacement(0, None, 0.0)
        system = assemble_mechanical(mesh, {0: props()}, bcs, None)
        free = system.free
        order = system.dof_map.elimination_order(free)
        assert np.array_equal(np.sort(order), np.arange(free.size))
        # interleaved: each node's free dofs are adjacent, x before y, nodes in dissection order
        dofs = free[order]
        same_node = np.diff(dofs // 2) == 0
        assert np.all(np.diff(dofs)[same_node] == 1)
        runs = dofs[np.r_[True, ~same_node]] // 2
        assert np.array_equal(runs, mesh.dissection_order[np.isin(mesh.dissection_order, dofs // 2)])

    def test_reduction_in_elimination_order(self):
        mesh = generate_split_square(2.0, 1.0, 16, 8)
        bcs = clamped_heated(mesh)
        natural = assemble_mechanical(mesh, {0: props()}, bcs, None)
        ordered = assemble_mechanical(mesh, {0: props()}, bcs, None, elimination_order=True)
        order = natural.dof_map.elimination_order(natural.free)
        assert np.array_equal(ordered.free, natural.free[order])
        assert np.array_equal(ordered.rhs, natural.rhs[order])
        assert (ordered.matrix != natural.matrix[order][:, order]).nnz == 0

    def test_cg_never_computes_the_order(self):
        mesh = generate_split_square(2.0, 1.0, 16, 8)
        bcs = clamped_heated(mesh)
        run_pipeline(mesh, {0: props()}, bcs, SolveOptions(method=METHOD_CG))
        assert "dissection_order" not in vars(mesh)
        run_pipeline(mesh, {0: props()}, bcs)
        assert "dissection_order" in vars(mesh)


class TestFill:
    def test_sandwich_l1_mechanical_fill_below_colamd(self):
        mesh = generate_sandwich(1)
        case = bench.builtin_cases()["sandwich"]
        bcs = case.make_bcs(mesh)
        _, diag = solve_system(assemble_mechanical(mesh, case.materials, bcs, None,
                                                   elimination_order=True))
        assert diag.lu_fill < colamd_solve(assemble_mechanical(mesh, case.materials, bcs, None))[1]

    def test_fcbga_l1_mechanical_fill_below_colamd(self):
        cfg, mesh, bcs = config_problem("fcbga", ("level 2", "level 1"))
        _, diag = solve_system(assemble_mechanical(mesh, cfg.materials, bcs, None,
                                                   elimination_order=True))
        assert diag.lu_fill < colamd_solve(assemble_mechanical(mesh, cfg.materials, bcs, None))[1]


@pytest.mark.parametrize("name", ["plate", "sandwich", "fcbga", "igbt", "cylinder"])
def test_config_solves_match_oracle(name):
    cfg, mesh, bcs = config_problem(name)
    temperature = None
    if bcs.has_thermal:
        temperature = assert_matches_oracle(
            lambda order: assemble_thermal(mesh, cfg.materials, bcs, elimination_order=order))
    if cfg.solver.fields == "both":
        assert_matches_oracle(lambda order: assemble_mechanical(
            mesh, cfg.materials, bcs, temperature, elimination_order=order))


@st.composite
def split_square_partitions(draw):
    """A split square with more nodes than one dissection leaf and every element's kind drawn."""
    base = generate_split_square(2.0, 1.0, draw(st.integers(6, 12)), draw(st.integers(3, 6)))
    ve = draw(st.lists(st.booleans(), min_size=base.n_elements, max_size=base.n_elements))
    vertices, _, regions = element_table(base)
    kinds = [ElementKind.VE_POLY if v else ElementKind.FE_QUAD for v in ve]
    return Mesh(base.coords, vertices, kinds, regions, base.boundary_edges)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(split_square_partitions())
def test_partition_solves_match_oracle(mesh):
    assert mesh.n_nodes > _DISSECTION_LEAF
    bcs = clamped_heated(mesh)
    temperature = assert_matches_oracle(
        lambda order: assemble_thermal(mesh, {0: props()}, bcs, elimination_order=order))
    assert_matches_oracle(lambda order: assemble_mechanical(
        mesh, {0: props()}, bcs, temperature, elimination_order=order))
