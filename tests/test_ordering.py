"""Nested-dissection order and the symmetric direct solve.

The oracle is the direct solve that the ordered one replaced: SuperLU with
its default COLAMD column order and partial pivoting on the reduced system.
"""

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
from fevec.mesh import (_DISSECTION_LEAF, ElementKind, Mesh, generate_fcbga,
                        generate_sandwich, generate_split_square, generate_structured_quads)
from fevec.solver import METHOD_CG, SUPERLU_FACTOR, SolveOptions, run_pipeline, solve_system
from conftest import element_table

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
