import math
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fevec import bench, post
from fevec import config as configmod
from fevec.assembly import BoundaryConditionSet, assemble_mechanical, assemble_thermal
from fevec.errors import AssemblyError, FevecError
from fevec.materials import MaterialProps, Plane
from fevec.mesh import (ElementKind, Mesh, generate_split_square, generate_structured_quads,
                        mesh_text)
from fevec.solver import SolveOptions, run_pipeline, solve_system
from conftest import element_table

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


class TestCylinderExact:
    def test_boundary_values(self):
        assert bench.cylinder_exact_temperature(20.0, 20, 60, 0, 500) == pytest.approx(0.0)
        assert bench.cylinder_exact_temperature(60.0, 20, 60, 0, 500) == pytest.approx(500.0)

    def test_log_midpoint(self):
        r = math.sqrt(20.0 * 60.0)
        assert bench.cylinder_exact_temperature(r, 20, 60, 0, 500) == pytest.approx(250.0)

    def test_formula_value(self):
        expected = 500.0 * math.log(2.0) / math.log(3.0)
        got = bench.cylinder_exact_temperature(40.0, 20, 60, 0, 500)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(315.465, abs=1e-3)

    def test_out_of_range(self):
        with pytest.raises(FevecError):
            bench.cylinder_exact_temperature(10.0, 20, 60, 0, 500)


class TestFitSlope:
    def test_pure_power_law(self):
        ndofs = np.array([100.0, 400.0, 1600.0])
        errors = 3.0 * ndofs ** -0.5
        assert bench.fit_slope(ndofs, errors) == pytest.approx(0.5, rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(FevecError):
            bench.fit_slope([100.0], [1.0])


class TestBuiltinCases:
    def test_all_present(self):
        cases = bench.builtin_cases()
        assert set(cases) == {"plate", "cylinder", "sandwich", "fcbga", "igbt"}

    def test_every_expected_metric_tagged(self):
        convergence = [case for case in bench.builtin_cases().values()
                       if isinstance(case, bench.ConvergenceCase)]
        assert [case.name for case in convergence] == ["plate", "cylinder"]
        for case in convergence:
            assert case.expected
            for method, (low, high, provenance) in case.expected.items():
                assert method in bench.METHODS and provenance

    def test_sandwich_materials_table(self):
        mats = bench.builtin_cases()["sandwich"].materials
        from fevec import mesh as meshmod
        silver = mats[meshmod.SANDWICH_SILVER]
        assert silver.E == pytest.approx(12900.0)       # 12.9 GPa in MPa
        assert silver.conductivity == pytest.approx(0.278)
        assert silver.alpha == pytest.approx(19e-6)
        chip = mats[meshmod.SANDWICH_CHIP]
        assert chip.E == pytest.approx(410000.0)

    def test_plate_case_shape(self):
        case = bench.builtin_cases()["plate"]
        mesh = case.build_mesh(0, "coupled")
        kinds = {e.kind for e in mesh.elements}
        assert kinds == {ElementKind.FE_QUAD, ElementKind.VE_POLY}
        bcs = case.make_bcs(mesh)
        assert bcs.traction_edges      # top load F = 5 MPa
        assert bcs.dirichlet_u         # symmetry rollers

    def test_igbt_flux_bc(self):
        case = bench.builtin_cases()["igbt"]
        mesh = case.build_mesh(0)
        bcs = case.make_bcs(mesh)
        assert bcs.flux_edges
        assert all(q == pytest.approx(-1.0) for (_, _, q) in bcs.flux_edges)

    def test_cylinder_exact_field_follows_config(self, tmp_path, monkeypatch):
        # an outer temperature of 400 reaches the exact field as well as the
        # solve: the coupled error falls about 4x a level, as with the shipped 500
        text = (CONFIGS / "cylinder.cfg").read_text()
        (tmp_path / "cylinder.cfg").write_text(text.replace("dirichlet_T 500", "dirichlet_T 400"))
        monkeypatch.setattr(bench, "CONFIG_DIR", str(tmp_path))
        case = bench.CylinderCase()
        case.levels = (0, 1)
        errors = [rec.error for rec in bench.run_convergence(case, "coupled").records]
        assert errors[0] >= 3.0 * errors[1], errors

    @pytest.mark.parametrize("old, new", [("hole_radius 5", "hole_radius 4"),
                                          ("split_radius 10", "split_radius 12")])
    def test_plate_mesh_and_circle_follow_config(self, tmp_path, monkeypatch, old, new):
        text = (CONFIGS / "plate.cfg").read_text()
        assert old in text
        (tmp_path / "plate.cfg").write_text(text.replace(old, new))
        monkeypatch.setattr(bench, "CONFIG_DIR", str(tmp_path))
        cfg = configmod.parse_config((tmp_path / "plate.cfg").read_text())
        case = bench.PlateCase()
        # level 1 is the config's own mesh
        mesh = case.build_mesh(1, "coupled")
        assert mesh_text(mesh) == mesh_text(configmod.build_mesh(cfg))
        # the coupling circle is the config's split radius, its 17 nodes by angle
        split = float(cfg.generator_params["split_radius"])
        ids, ring = case.coupling_circle(mesh)
        x, y = mesh.coords[ids].T
        assert ids.size == 17 and np.allclose(np.hypot(x, y), split, rtol=1e-12)
        assert np.all(np.diff(np.arctan2(y, x)) > 0)
        # the ring is the VE elements, all inside the circle
        assert ring == set(np.flatnonzero(~mesh.element_fe).tolist())
        case.levels = (0, 1)
        report = bench.run_convergence(case, "coupled")
        assert [rec.ndof for rec in report.records] == [
            2 * case.build_mesh(level, "coupled").n_nodes for level in (0, 1)]
        assert all(0.0 < rec.error < 0.05 for rec in report.records), report.records

    def test_configs_ship_as_package_data(self, tmp_path, monkeypatch):
        # build the package from a copy of the tree (build_py writes an
        # egg-info beside the sources); an installed fevec bench reads these
        root = CONFIGS.parent
        shutil.copy(root / "pyproject.toml", tmp_path)
        for tree in ("src", "configs"):
            shutil.copytree(root / tree, tmp_path / tree, symlinks=True,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        subprocess.run([sys.executable, "-c", "import setuptools; setuptools.setup()",
                        "build_py", "-d", "built"], cwd=tmp_path, check=True,
                       stdout=subprocess.DEVNULL)
        built = tmp_path / "built" / "fevec" / "configs"
        monkeypatch.setattr(bench, "CONFIG_DIR", str(built))
        for name, case in bench.builtin_cases().items():
            shipped = CONFIGS / f"{name}.cfg"
            assert (built / f"{name}.cfg").read_bytes() == shipped.read_bytes()
            assert case.materials == configmod.parse_config(shipped.read_text()).materials

    def test_absent_bc_label_rejected(self):
        cases = bench.builtin_cases()
        mesh = cases["cylinder"].build_mesh(0, "coupled")
        with pytest.raises(AssemblyError, match="bc label 'top' not present"):
            cases["sandwich"].make_bcs(mesh)


class TestManufacturedExactness:
    def test_linear_field_exact_at_every_refinement(self):
        # manufactured linear temperature on the split square: the harness
        # error is round-off at every refinement (patch exactness)
        mats = {0: MaterialProps(E=10.0, nu=0.0, conductivity=2.0, alpha=0.0,
                                 T0=25.0, plane=Plane.STRESS)}
        errs = []
        for n in (2, 4, 8):
            mesh = generate_split_square(2.0, 1.0, n, max(n // 2, 1))
            bcs = BoundaryConditionSet()
            boundary = {v for (a, b), lab in mesh.boundary_edges.items() for v in (a, b)}
            for v in sorted(boundary):
                x, y = mesh.coords[v]
                bcs.set_temperature(v, 1.0 + 2.0 * x - 0.5 * y)
            fields = run_pipeline(mesh, mats, bcs, SolveOptions(fields="thermal"))
            exact = 1.0 + 2.0 * mesh.coords[:, 0] - 0.5 * mesh.coords[:, 1]
            errs.append(post.rms_l2_error(fields.temperature, exact))
        assert all(e < 1e-9 for e in errs)

    def test_interface_split_equivalence(self):
        # square with a manufactured field: FE-only and FE/VE-split errors
        # stay within a factor 2 of each other at each refinement
        mats = {0: MaterialProps(E=10.0, nu=0.0, conductivity=1.0, alpha=0.0,
                                 T0=25.0, plane=Plane.STRESS)}

        def solve_rms(mesh):
            bcs = BoundaryConditionSet()
            boundary = {v for (a, b) in mesh.boundary_edges for v in (a, b)}
            for v in sorted(boundary):
                x, y = mesh.coords[v]
                bcs.set_temperature(v, math.sin(x) * math.exp(y))
            fields = run_pipeline(mesh, mats, bcs, SolveOptions(fields="thermal"))
            exact = np.sin(mesh.coords[:, 0]) * np.exp(mesh.coords[:, 1])
            # manufactured field is not harmonic-free of source, so compare
            # both discretizations against each other instead of truth:
            return fields.temperature, exact

        for n in (4, 8):
            unsplit = generate_structured_quads(2.0, 2.0, n, n)
            split = generate_split_square(2.0, 2.0, n, n)
            t_fe, exact = solve_rms(unsplit)
            t_mix, _ = solve_rms(split)
            e_fe = post.rms_l2_error(t_fe, exact)
            e_mix = post.rms_l2_error(t_mix, exact)
            assert 0.5 <= e_mix / e_fe <= 2.0


def strain_energy(case, level):
    """Half u^T K u of the case's mechanical system at ``level``, thermal load included.

    The displacement supports are homogeneous, so the free-block energy
    half u_f^T K_ff u_f is the whole system's.
    """
    mesh = case.build_mesh(level)
    bcs = case.make_bcs(mesh)
    fields = run_pipeline(mesh, case.materials, bcs, SolveOptions(fields="thermal"))
    system = assemble_mechanical(mesh, case.materials, bcs, fields.temperature,
                                 elimination_order=True)
    assert system.fixed.size and np.all(system.values == 0.0)
    u_free = solve_system(system)[0][system.free]
    return 0.5 * u_free @ (system.matrix @ u_free)


@pytest.mark.parametrize("name", ["fcbga", "igbt"])
def test_packaging_strain_energy_converges(name):
    # Levels 0-2 measured: fcbga 7.03289, 7.19781, 7.24189 (difference ratio 3.74);
    # igbt 0.494951, 0.501089, 0.502974 (3.26).  Rising energy and a ratio near
    # 2^p for an order p between 1.3 and 2.6 in h.
    energies = [strain_energy(bench.builtin_cases()[name], level) for level in range(3)]
    steps = np.diff(energies)
    assert np.all(steps > 0), energies
    assert 2.5 <= steps[0] / steps[1] <= 6.0, energies


def thermal_energy(case, level):
    """Half T^T K T of the case's solved temperature at ``level``, with K the whole thermal
    matrix: assembled without boundary data, no dof is prescribed."""
    mesh = case.build_mesh(level)
    temperature = run_pipeline(mesh, case.materials, case.make_bcs(mesh),
                               SolveOptions(fields="thermal")).temperature
    system = assemble_thermal(mesh, case.materials, BoundaryConditionSet())
    assert system.free.size == mesh.n_nodes
    return 0.5 * temperature @ (system.matrix @ temperature)


@pytest.mark.parametrize("name, direction", [("fcbga", -1), ("igbt", 1)])
def test_packaging_thermal_energy_converges(name, direction):
    # Levels 0-3 measured: fcbga 2767.756, 2695.204, 2664.622, 2651.226 (falling,
    # difference ratios 2.37, 2.28); igbt 185.881, 186.693, 187.034, 187.187 (rising,
    # 2.38, 2.23).  One direction and a ratio near 2^p for an order p between 0.85
    # and 1.7 in h.
    energies = [thermal_energy(bench.builtin_cases()[name], level) for level in range(3)]
    steps = np.diff(energies)
    assert np.all(direction * steps > 0), energies
    assert 1.8 <= steps[0] / steps[1] <= 3.2, energies


class TestPropertyHelpers:
    def test_material_interface_elements(self):
        mesh = bench.builtin_cases()["sandwich"].build_mesh(0, "coupled")
        iface = bench.material_interface_elements(mesh)
        regions = {mesh.elements[i].region for i in iface}
        assert len(regions) >= 2 and iface

    def test_kernel_invariants_on_generated_mesh(self):
        case = bench.builtin_cases()["igbt"]
        mesh = case.build_mesh(0)
        assert bench.check_kernel_invariants(mesh, case.materials)

    def test_kernel_invariants_region_without_material(self):
        # VE elements 3 and 6 sit in region 7, which has no material: refused
        # as by assembly, naming the region
        base = generate_split_square(2.0, 1.0, 4, 2)
        vertices, kinds, regions = element_table(base)
        regions[3] = regions[6] = 7
        mesh = Mesh(base.coords, vertices, kinds, regions, base.boundary_edges)
        assert [mesh.elements[i].kind for i in (3, 6)] == [ElementKind.VE_POLY] * 2
        materials = {0: MaterialProps(E=1.0, nu=0.3, conductivity=1.0, alpha=0.0, T0=0.0)}
        with pytest.raises(AssemblyError) as info:
            bench.check_kernel_invariants(mesh, materials)
        assert str(info.value) == "mesh regions without material blocks: [7]"


class TestSandwichStudyHelpers:
    def test_interface_average_constant_and_linear(self):
        # uneven spacing: the trapezoid rule is exact for linear data anyway
        x = np.array([1.2, 1.3, 1.55, 2.0, 2.9, 3.0])
        points = np.column_stack([x, np.full_like(x, 0.8)])
        assert bench.interface_average(points, np.full(x.size, 7.5)) == pytest.approx(7.5, rel=1e-14)
        mean = bench.interface_average(points, 4.0 + 10.0 * x)
        assert mean == pytest.approx(4.0 + 10.0 * 0.5 * (1.2 + 3.0), rel=1e-14)

    def test_interface_average_length_weighted(self):
        # one short and one long segment: a plain nodal mean would give 1/3
        points = [[0.0, 0.0], [0.1, 0.0], [1.0, 0.0]]
        assert bench.interface_average(points, [0.0, 0.0, 1.0]) == pytest.approx(0.45)

    def test_interface_average_rejects_bad_input(self):
        with pytest.raises(FevecError):
            bench.interface_average([[0.0, 0.0]], [1.0])
        with pytest.raises(FevecError):
            bench.interface_average([[0.0, 0.0], [1.0, 0.0]], [1.0, 2.0, 3.0])
        with pytest.raises(FevecError):
            bench.interface_average([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0])

    @staticmethod
    def study(gate_level, coupled_levels=(0, 1, 2), fe_levels=(0, 1, 2)):
        return bench.SandwichStudy(
            coupled_levels=list(coupled_levels),
            copper_peaks=[10.0 + l for l in coupled_levels],
            silver_peaks=[1.0 + l for l in coupled_levels],
            fe_levels=list(fe_levels),
            fe_copper_peaks=[20.0 + l for l in fe_levels],
            fe_silver_peaks=[2.0 + l for l in fe_levels],
            fe_copper_means=[5.0] * len(fe_levels),
            fe_silver_means=[3.0] * len(fe_levels),
            gate_level=gate_level)

    def test_peaks_at_gate_looks_up_the_level(self):
        study = self.study(2, coupled_levels=(1, 2, 3))
        assert study.peaks_at_gate() == ((12.0, 3.0), (22.0, 4.0))

    def test_peaks_at_gate_missing_coupled_level(self):
        # the FE gate lies beyond the coupled ladder: no coarser stand-in
        study = self.study(3, coupled_levels=(0, 1, 2), fe_levels=(0, 1, 2, 3))
        with pytest.raises(FevecError, match="gate level 3"):
            study.peaks_at_gate()

    def test_peaks_at_gate_without_gate(self):
        with pytest.raises(FevecError, match="did not converge"):
            self.study(None).peaks_at_gate()

    def test_study_runs_on_the_instance(self, monkeypatch):
        # ladders overridden on the instance, as on the other cases, reach its study
        solved = []
        solve_case = bench.solve_case
        monkeypatch.setattr(bench, "solve_case", lambda case, level, method: (
            solved.append((case, level, method)) or solve_case(case, level, method)))
        case = bench.SandwichCase()
        case.levels, case.fe_levels = (0,), (1,)
        reports, lines = case.study()
        assert reports == [] and len(lines) == 1
        assert solved == [(case, 0, "coupled"), (case, 1, "fe")]
        assert bench.SandwichCase.levels == (0, 1, 2)


class TestReports:
    def test_csv_and_summary(self, tmp_path):
        rep = bench.ConvergenceReport(
            case="demo", method="coupled",
            records=[bench.ConvergenceRecord(0, 100, 1e-2),
                     bench.ConvergenceRecord(1, 400, 5e-3)]).finalize()
        path = tmp_path / "report.csv"
        bench.write_report_csv([rep], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "case,method,ndof,error"
        assert lines[1].startswith("demo,coupled,100,")
        text = bench.summarize([rep])
        assert "demo [coupled]" in text and "slope" in text

    def test_exact_report_flagged(self):
        rep = bench.ConvergenceReport(
            case="demo", method="fe",
            records=[bench.ConvergenceRecord(0, 100, 1e-15),
                     bench.ConvergenceRecord(1, 400, 2e-15)]).finalize()
        assert rep.exact and rep.slope is None
        assert "exact" in bench.summarize([rep])

    def test_evaluate_expected_bounds(self):
        case = bench.builtin_cases()["plate"]
        reps = [bench.ConvergenceReport(case="plate", method="coupled",
                                        records=[], slope=0.5),
                bench.ConvergenceReport(case="plate", method="fe",
                                        records=[], slope=0.9)]
        lines = bench.evaluate_expected(case, reps)
        assert any("coupled" in l and ": ok" in l for l in lines)
        # only the coupled method carries an expectation for the plate
        assert all("fe]" not in l for l in lines)
        case.expected = {**case.expected, "fe": (0.25, 0.6, "x")}
        lines = bench.evaluate_expected(case, reps)
        assert any("fe" in l and "MISS" in l for l in lines)
        assert "fe" not in bench.PlateCase.expected

    def test_solver_failure_yields_partial_report(self):
        # a case whose finer refinements lose all displacement constraints
        class Flaky(bench.CylinderCase):
            levels = (0, 1)

            def make_bcs(self, mesh):
                bcs = super().make_bcs(mesh)
                if mesh.n_nodes > 600:
                    # loaded pure-Neumann problem: singular and inconsistent
                    a, b = mesh.edges_with_label("inner")[0]
                    bcs = BoundaryConditionSet(flux_edges=[*bcs.flux_edges, (a, b, -1.0)],
                                               dirichlet_u=bcs.dirichlet_u,
                                               traction_edges=bcs.traction_edges)
                return bcs

        rep = bench.run_convergence(Flaky(), "fe")
        assert rep.aborted and len(rep.records) == 1
        assert "ABORTED" in bench.summarize([rep])
