import numpy as np
import pytest

from fevec.assembly import (BoundaryConditionSet, SparseSystem, assemble_mechanical,
                            assemble_thermal)
from fevec.errors import SolverError
from fevec.materials import MaterialProps, Plane
from fevec.mesh import Element, Mesh, generate_split_square, generate_structured_quads
from fevec.solver import (METHOD_CG, METHOD_DIRECT, SolveOptions, run_pipeline, solve_system)


def props():
    return MaterialProps(E=100.0, nu=0.3, conductivity=1.0, alpha=1e-5, T0=25.0,
                         plane=Plane.STRESS)


class TestSolveSystem:
    def test_identity(self):
        system = SparseSystem.from_dense(np.eye(3), np.array([1.0, 2.0, 3.0]))
        x, diag = solve_system(system)
        assert np.allclose(x, [1, 2, 3])
        assert diag.n_dof == 3

    def test_two_by_two_hand_solve(self):
        system = SparseSystem.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]),
                                         np.array([1.0, 1.0]))
        x, _ = solve_system(system)
        assert np.allclose(x, [1.0, 1.0])

    def test_unconstrained_mechanical_rigid_error(self):
        mesh = generate_split_square(2.0, 1.0, 2, 1)
        from fevec.assembly import assemble_mechanical
        system = assemble_mechanical(mesh, {0: props()}, BoundaryConditionSet(), None)
        system.rhs[:] = 1.0    # force a nontrivial solve of the singular matrix
        with pytest.raises(SolverError, match="singular|constraints"):
            solve_system(system)

    def test_cg_matches_direct(self):
        mesh = generate_split_square(2.0, 1.0, 8, 4)
        from fevec.assembly import assemble_thermal
        bcs = BoundaryConditionSet()
        for n in mesh.nodes_with_label("left"):
            bcs.set_temperature(n, 0.0)
        for n in mesh.nodes_with_label("right"):
            bcs.set_temperature(n, 10.0)
        system = assemble_thermal(mesh, {0: props()}, bcs)
        x_direct, _ = solve_system(system, SolveOptions())
        tol = 1e-10
        x_cg, diag = solve_system(system, SolveOptions(method=METHOD_CG, cg_rel_tol=tol))
        rel = np.linalg.norm(x_cg - x_direct) / np.linalg.norm(x_direct)
        assert rel < 10 * tol
        assert diag.iterations > 0

    def test_cg_non_convergence_reports_history(self):
        system = SparseSystem.from_dense(np.array([[4.0, 1.0], [1.0, 3.0]]),
                                         np.array([1.0, 2.0]))
        with pytest.raises(SolverError, match="residuals"):
            solve_system(system, SolveOptions(method=METHOD_CG, cg_max_iter=1,
                                              cg_rel_tol=1e-15))

    def test_bad_options(self):
        with pytest.raises(SolverError):
            SolveOptions(method="magic")
        with pytest.raises(SolverError):
            SolveOptions(cg_rel_tol=-1.0)


class TestPipeline:
    def make_problem(self):
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        bcs = BoundaryConditionSet()
        for n in mesh.nodes_with_label("left"):
            bcs.set_temperature(n, 25.0)
            bcs.set_displacement(n, 0.0, 0.0)
        for n in mesh.nodes_with_label("right"):
            bcs.set_temperature(n, 125.0)
        for (a, b) in mesh.edges_with_label("right"):
            bcs.traction_edges.append((a, b, (2.0, 0.0)))
        return mesh, {0: props()}, bcs

    def test_uniform_reference_temperature_no_motion(self):
        mesh = generate_split_square(2.0, 1.0, 4, 2)
        bcs = BoundaryConditionSet()
        for n in mesh.nodes_with_label("left") + mesh.nodes_with_label("right"):
            bcs.set_temperature(n, 25.0)
        for n in mesh.nodes_with_label("left"):
            bcs.set_displacement(n, 0.0, 0.0)
        fields = run_pipeline(mesh, {0: props()}, bcs)
        assert np.allclose(fields.temperature, 25.0)
        assert np.abs(fields.displacement).max() < 1e-12

    def test_thermal_independent_of_mechanical_bcs(self):
        mesh, mats, bcs = self.make_problem()
        fields_a = run_pipeline(mesh, mats, bcs)
        bcs.traction_edges[0] = (bcs.traction_edges[0][0], bcs.traction_edges[0][1],
                                 (99.0, -5.0))
        fields_b = run_pipeline(mesh, mats, bcs)
        assert np.array_equal(fields_a.temperature, fields_b.temperature)
        assert not np.allclose(fields_a.displacement, fields_b.displacement)

    def test_deterministic_rerun(self):
        mesh, mats, bcs = self.make_problem()
        a = run_pipeline(mesh, mats, bcs)
        b = run_pipeline(mesh, mats, bcs)
        assert np.array_equal(a.temperature, b.temperature)
        assert np.array_equal(a.displacement, b.displacement)

    def test_thermal_only(self):
        mesh, mats, bcs = self.make_problem()
        fields = run_pipeline(mesh, mats, bcs, mechanical=False)
        assert fields.temperature is not None
        assert fields.displacement is None


def heated(mesh):
    """Left edge at 25 degC, right edge at 125 degC; no displacement constraint."""
    bcs = BoundaryConditionSet()
    for n in mesh.nodes_with_label("left"):
        bcs.set_temperature(n, 25.0)
    for n in mesh.nodes_with_label("right"):
        bcs.set_temperature(n, 125.0)
    return bcs


def two_squares():
    """Two disjoint 2 x 2 grids; nodes 0-8 and 9-17."""
    a = generate_structured_quads(1.0, 1.0, 2, 2)
    coords = np.vstack((a.coords, a.coords + [3.0, 0.0]))
    elements = a.elements + [Element(e.id + 4, tuple(v + 9 for v in e.vertices), e.kind, 0)
                             for e in a.elements]
    return Mesh(coords, elements)


@pytest.mark.parametrize("method", [METHOD_DIRECT, METHOD_CG])
class TestWellPosedness:
    """Ill-posed systems fail before the solve, whatever the method."""

    def run(self, mesh, bcs, method):
        return run_pipeline(mesh, {0: props()}, bcs, SolveOptions(method=method))

    @pytest.mark.parametrize("build", [lambda: generate_split_square(2, 1, 8, 4),
                                       lambda: generate_structured_quads(1.0, 1.0, 16, 16)])
    def test_free_thermal_expansion(self, build, method):
        mesh = build()
        with pytest.raises(SolverError, match="node 0 lacks displacement constraints against "
                                              "x translation, y translation and rotation"):
            self.run(mesh, heated(mesh), method)

    def test_single_pinned_node_leaves_rotation_free(self, method):
        mesh = generate_split_square(2, 1, 8, 4)
        bcs = heated(mesh)
        bcs.set_displacement(20, 0.0, 0.0)
        with pytest.raises(SolverError, match="node 0 lacks displacement constraints "
                                              "against rotation \\("):
            self.run(mesh, bcs, method)

    def test_ux_only_supports(self, method):
        mesh = generate_split_square(2, 1, 8, 4)
        bcs = heated(mesh)
        for n in mesh.nodes_with_label("left"):
            bcs.set_displacement(n, 0.0, None)
        with pytest.raises(SolverError, match="against y translation \\("):
            self.run(mesh, bcs, method)
        bcs = heated(mesh)
        for n in mesh.nodes_with_label("bottom"):     # collinear along x: rotation free too
            bcs.set_displacement(n, 0.0, None)
        with pytest.raises(SolverError, match="against y translation and rotation \\("):
            self.run(mesh, bcs, method)

    def test_rollers_on_two_edges_are_enough(self, method):
        mesh = generate_split_square(2, 1, 8, 4)
        bcs = heated(mesh)
        for n in mesh.nodes_with_label("left"):
            bcs.set_displacement(n, 0.0, None)
        bcs.set_displacement(0, None, 0.0)
        fields = self.run(mesh, bcs, method)
        assert np.all(np.isfinite(fields.displacement))

    def test_second_component_unconstrained(self, method):
        mesh = two_squares()
        bcs = BoundaryConditionSet()
        for n in range(9):
            bcs.set_temperature(n, 10.0)
        with pytest.raises(SolverError, match="containing node 9 has no Dirichlet temperature"):
            self.run(mesh, bcs, method)
        for n in range(9, 18):
            bcs.set_temperature(n, 20.0)
        for n in (0, 3, 6):
            bcs.set_displacement(n, 0.0, 0.0)
        with pytest.raises(SolverError, match="containing node 9 lacks displacement constraints"):
            self.run(mesh, bcs, method)
        for n in (9, 12, 15):
            bcs.set_displacement(n, 0.0, 0.0)
        fields = self.run(mesh, bcs, method)
        assert np.allclose(fields.temperature, [10.0] * 9 + [20.0] * 9)

    def test_matrix_without_mesh(self, method):
        floating = SparseSystem.from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros(2))
        with pytest.raises(SolverError, match="dof 0 has no Dirichlet value"):
            solve_system(floating, SolveOptions(method=method))
        fixed = SparseSystem.from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros(2), {1: 2.0})
        assert np.allclose(solve_system(fixed, SolveOptions(method=method))[0], [2.0, 2.0])


class TestDiagnostics:
    def problem(self):
        mesh = generate_split_square(2.0, 1.0, 8, 4)
        bcs = heated(mesh)
        for n in mesh.nodes_with_label("left"):
            bcs.set_displacement(n, 0.0, 0.0)
        return mesh, bcs

    def test_direct_reports_order_and_fill(self):
        mesh, bcs = self.problem()
        fields = run_pipeline(mesh, {0: props()}, bcs)
        for diag in (fields.thermal_diag, fields.mechanical_diag):
            assert diag.ordering == "nested_dissection"
            assert diag.lu_fill >= diag.n_dof       # L and U hold at least the diagonal
        _, diag = solve_system(SparseSystem.from_dense(np.eye(3), np.ones(3)))
        assert (diag.ordering, diag.lu_fill) == ("natural", 6)

    def test_cg_reports_no_order(self):
        mesh, bcs = self.problem()
        fields = run_pipeline(mesh, {0: props()}, bcs, SolveOptions(method=METHOD_CG))
        for diag in (fields.thermal_diag, fields.mechanical_diag):
            assert (diag.ordering, diag.lu_fill) == ("none", 0)
            assert diag.iterations > 0
