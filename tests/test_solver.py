import numpy as np
import pytest

from fevec import solver
from fevec.assembly import BoundaryConditionSet, assemble_mechanical, assemble_thermal
from fevec.errors import SolverError
from fevec.materials import MaterialProps, Plane
from fevec.mesh import Mesh, generate_split_square, generate_structured_quads
from fevec.solver import (METHOD_CG, METHOD_DIRECT, SolveOptions, run_pipeline, solve_system)
from conftest import element_table, triangle_system


def props():
    return MaterialProps(E=100.0, nu=0.3, conductivity=1.0, alpha=1e-5, T0=25.0,
                         plane=Plane.STRESS)


class TestSolveSystem:
    def test_identity(self):
        system = triangle_system(np.eye(3), [1.0, 2.0, 3.0], {0: 1.0})
        x, diag = solve_system(system)
        assert np.allclose(x, [1, 2, 3])
        assert diag.n_dof == 2

    def test_two_by_two_hand_solve(self):
        # dof 2 is held at 0 and uncoupled: the reduced system is [[2, -1], [-1, 2]]
        system = triangle_system(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]),
                                 [1.0, 1.0, 0.0], {2: 0.0})
        x, _ = solve_system(system)
        assert np.allclose(x, [1.0, 1.0, 0.0])

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
        system = triangle_system(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]]),
                                 [1.0, 2.0, 0.0], {2: 0.0})
        with pytest.raises(SolverError, match="residuals"):
            solve_system(system, SolveOptions(method=METHOD_CG, cg_max_iter=1,
                                              cg_rel_tol=1e-15))

    def test_bad_options(self):
        with pytest.raises(SolverError):
            SolveOptions(method="magic")
        with pytest.raises(SolverError):
            SolveOptions(cg_rel_tol=-1.0)
        with pytest.raises(SolverError, match="^tau must be positive and finite"):
            SolveOptions(tau=10**400)       # an int beyond the float range

    @pytest.mark.parametrize("field, value, message", [
        ("cg_max_iter", 2.5, "cg_max_iter must be an integer, got 2.5"),
        ("cg_max_iter", True, "cg_max_iter must be an integer, got True"),
        ("cg_rel_tol", "1e-3", "cg_rel_tol must be a real number, got '1e-3'"),
        ("tau", False, "tau must be a real number, got False"),
        ("tau", None, "tau must be a real number, got None"),
        ("method", 1, "method must be a string, got 1"),
        ("fields", ["thermal"], "fields must be a string, got \\['thermal'\\]")])
    def test_option_types(self, field, value, message):
        with pytest.raises(SolverError, match=f"^{message}$"):
            SolveOptions(**{field: value})

    def test_numpy_scalars_are_accepted(self):
        options = SolveOptions(cg_rel_tol=np.float32(1e-6), cg_max_iter=np.int64(50),
                               tau=np.float64(0.5))
        assert options.cg_max_iter == 50


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
            bcs.add_traction(a, b, (2.0, 0.0))
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
        (a, b, _), *rest = bcs.traction_edges
        bcs = BoundaryConditionSet(bcs.dirichlet_T, bcs.flux_edges, bcs.dirichlet_u,
                                   [(a, b, (99.0, -5.0)), *rest])
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
        fields = run_pipeline(mesh, mats, bcs, SolveOptions(fields="thermal"))
        assert fields.temperature is not None
        assert fields.displacement is None

    @pytest.mark.parametrize("method", [METHOD_DIRECT, METHOD_CG])
    def test_thermal_only_without_thermal_data_fails(self, method):
        # nothing would be solved: the thermal stage runs and finds no Dirichlet temperature
        mesh = generate_structured_quads(1.0, 1.0, 4, 4)
        bcs = BoundaryConditionSet()
        for n in mesh.nodes_with_label("left"):
            bcs.set_displacement(n, 0.0, 0.0)
        with pytest.raises(SolverError, match="ill-posed thermal problem: .* node 0 has no "
                                              "Dirichlet temperature"):
            run_pipeline(mesh, {0: props()}, bcs, SolveOptions(method=method, fields="thermal"))


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
    vertices, kinds, regions = element_table(a)
    return Mesh(coords, vertices + [tuple(v + 9 for v in verts) for verts in vertices],
                kinds * 2, regions * 2)


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

    def test_cg_reports_no_order(self):
        mesh, bcs = self.problem()
        fields = run_pipeline(mesh, {0: props()}, bcs, SolveOptions(method=METHOD_CG))
        for diag in (fields.thermal_diag, fields.mechanical_diag):
            assert (diag.ordering, diag.lu_fill) == ("none", 0)
            assert diag.iterations > 0


class FactorWithoutExport:
    """A SuperLU object whose ``L`` and ``U``, CSC copies of the whole factor, may not be read."""

    def __init__(self, lu):
        self.lu = lu

    @property
    def L(self):
        raise AssertionError("the L factor was exported")

    @property
    def U(self):
        raise AssertionError("the U factor was exported")

    def __getattr__(self, name):
        return getattr(self.lu, name)


def test_fill_is_read_without_exporting_the_factor(monkeypatch):
    factors = []
    splu = solver.spla.splu

    def guarded_splu(*args, **kwargs):
        factors.append(FactorWithoutExport(splu(*args, **kwargs)))
        return factors[-1]

    monkeypatch.setattr(solver.spla, "splu", guarded_splu)
    mesh = generate_split_square(2.0, 1.0, 8, 4)
    bcs = heated(mesh)
    for n in mesh.nodes_with_label("left"):
        bcs.set_displacement(n, 0.0, 0.0)
    fields = run_pipeline(mesh, {0: props()}, bcs)
    diags = (fields.thermal_diag, fields.mechanical_diag)
    assert len(factors) == 2
    for diag, factor in zip(diags, factors):
        assert diag.lu_fill == factor.lu.nnz >= diag.n_dof


@pytest.mark.parametrize("method", [METHOD_DIRECT, METHOD_CG])
def test_direct_solves_pass_the_shared_factor_options(monkeypatch, method):
    calls = []
    splu = solver.spla.splu

    def spy(matrix, **kwargs):
        calls.append(kwargs)
        return splu(matrix, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", spy)
    mesh = generate_split_square(2.0, 1.0, 8, 4)
    bcs = heated(mesh)
    for n in mesh.nodes_with_label("left"):
        bcs.set_displacement(n, 0.0, 0.0)
    run_pipeline(mesh, {0: props()}, bcs, SolveOptions(method=method))
    # thermal, then mechanical; CG factors nothing
    assert calls == ([solver.SUPERLU_FACTOR] * 2 if method == METHOD_DIRECT else [])
    assert solver.SUPERLU_FACTOR["panel_size"] == 2     # the measured width
