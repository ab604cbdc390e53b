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
from fevec.assembly import (BoundaryConditionSet, SparseSystem, apply_dirichlet,
                            assemble_mechanical, assemble_thermal)
from fevec.materials import MaterialProps, Plane
from fevec.mesh import (_DISSECTION_LEAF, Element, ElementKind, Mesh, generate_fcbga,
                        generate_sandwich, generate_split_square, generate_structured_quads)
from fevec.solver import METHOD_CG, SolveOptions, run_pipeline, solve_system

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
TOL = 1e-10


def colamd_solve(system: SparseSystem) -> tuple[np.ndarray, int]:
    """Full solution and LU fill of the COLAMD-ordered, partially pivoted SuperLU solve."""
    reduced = apply_dirichlet(system)
    lu = spla.splu(reduced.matrix.tocsc())
    return reduced.recover(lu.solve(reduced.rhs)), int(lu.L.nnz + lu.U.nnz)


def permuted_solve(system: SparseSystem) -> np.ndarray:
    """The direct solve as a natural-order reduction whose matrix is then permuted
    into elimination order; the in-order reduction must give the same bits."""
    reduced = apply_dirichlet(system)
    order = system.dof_map.elimination_order(reduced.free)
    lu = spla.splu(reduced.matrix[order][:, order].tocsc(), permc_spec="NATURAL",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    x = np.empty_like(reduced.rhs)
    x[order] = lu.solve(reduced.rhs[order])
    return reduced.recover(x)


def assert_matches_oracle(system: SparseSystem) -> np.ndarray:
    x, diag = solve_system(system)
    ref, _ = colamd_solve(system)
    assert diag.ordering == "nested_dissection"
    assert np.abs(x - ref).max() <= TOL * np.abs(ref).max()
    assert np.array_equal(x, permuted_solve(system))
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
        free = apply_dirichlet(system).free
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
        system = assemble_mechanical(mesh, {0: props()}, clamped_heated(mesh), None)
        natural = apply_dirichlet(system)
        ordered = apply_dirichlet(system, elimination_order=True)
        order = system.dof_map.elimination_order(natural.free)
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
        system = assemble_mechanical(mesh, case.materials, case.make_bcs(mesh), None)
        _, diag = solve_system(system)
        assert diag.lu_fill < colamd_solve(system)[1]

    def test_fcbga_l1_mechanical_fill_below_colamd(self):
        cfg, mesh, bcs = config_problem("fcbga", ("level 2", "level 1"))
        system = assemble_mechanical(mesh, cfg.materials, bcs, None)
        _, diag = solve_system(system)
        assert diag.lu_fill < colamd_solve(system)[1]


@pytest.mark.parametrize("name", ["plate", "sandwich", "fcbga", "igbt", "cylinder"])
def test_config_solves_match_oracle(name):
    cfg, mesh, bcs = config_problem(name)
    temperature = None
    if bcs.has_thermal:
        temperature = assert_matches_oracle(assemble_thermal(mesh, cfg.materials, bcs))
    if cfg.solver.fields == "both":
        assert_matches_oracle(assemble_mechanical(mesh, cfg.materials, bcs, temperature))


@st.composite
def split_square_partitions(draw):
    """A split square with more nodes than one dissection leaf and every element's kind drawn."""
    base = generate_split_square(2.0, 1.0, draw(st.integers(6, 12)), draw(st.integers(3, 6)))
    ve = draw(st.lists(st.booleans(), min_size=base.n_elements, max_size=base.n_elements))
    elements = [Element(e.id, e.vertices, ElementKind.VE_POLY if v else ElementKind.FE_QUAD,
                        e.region) for e, v in zip(base.elements, ve)]
    return Mesh(base.coords, elements, base.boundary_edges)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(split_square_partitions())
def test_partition_solves_match_oracle(mesh):
    assert mesh.n_nodes > _DISSECTION_LEAF
    bcs = clamped_heated(mesh)
    temperature = assert_matches_oracle(assemble_thermal(mesh, {0: props()}, bcs))
    assert_matches_oracle(assemble_mechanical(mesh, {0: props()}, bcs, temperature))
