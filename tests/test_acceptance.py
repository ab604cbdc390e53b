"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single pass line when it succeeds; pytest reports the
failures.  Criterion budgets are asserted with wall-clock timers.
"""

import pathlib
import time

import numpy as np
import pytest

from fevec import bench, post
from fevec.assembly import BoundaryConditionSet, assemble_mechanical, assemble_thermal
from fevec.cli import main as cli_main
from fevec.materials import MaterialProps, Plane
from fevec.mesh import ElementKind, generate_split_square
from fevec.solver import SolveOptions, run_pipeline
from conftest import (dof_classes, edge_dict, elastic_matrix, elastic_row, polygon_family, thermal_matrix,
                      thermal_row)
from kernel_oracles import element_coords, mechanical_stiffness_q4, thermal_stiffness_q4

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def report(criterion, name, seconds=None):
    stamp = f" [{seconds:.1f}s]" if seconds is not None else ""
    print(f"acceptance {criterion} ({name}): PASS{stamp}")


def boundary_nodes(mesh):
    out = set()
    for (a, b), elems in edge_dict(mesh).items():
        if len(elems) == 1:
            out.update((a, b))
    return out


def test_criterion_1_patch_exactness():
    """Linear temperature and constant-stress displacement reproduced on a
    mixed FE/VE mesh within 1e-9 relative at all interior nodes."""
    with Timer() as t:
        mesh = generate_split_square(2.0, 2.0, 6, 6)   # 3 columns each side
        mats = {0: MaterialProps(E=200.0, nu=0.3, conductivity=2.0, alpha=1e-5,
                                 T0=20.0, plane=Plane.STRESS)}
        outer = sorted(boundary_nodes(mesh))

        t_of = lambda x, y: 1.0 + 2.0 * x + 3.0 * y
        bcs = BoundaryConditionSet()
        for n in outer:
            bcs.set_temperature(n, t_of(*mesh.coords[n]))
        fields = run_pipeline(mesh, mats, bcs, SolveOptions(fields="thermal"))
        exact_t = np.array([t_of(x, y) for x, y in mesh.coords])
        t_err = np.abs(fields.temperature - exact_t).max() / np.abs(exact_t).max()
        assert t_err < 1e-9

        grad = np.array([[1.3e-3, 4.0e-4], [2.0e-4, -5.0e-4]])
        bcs = BoundaryConditionSet()
        for n in outer:
            ux, uy = grad @ mesh.coords[n]
            bcs.set_displacement(n, ux, uy)
        fields = run_pipeline(mesh, mats, bcs)
        exact_u = (grad @ mesh.coords.T).T
        u_err = np.abs(fields.displacement - exact_u).max() / np.abs(exact_u).max()
        assert u_err < 1e-9
    assert t.seconds < 1.0
    report(1, "mixed-mesh patch exactness", t.seconds)


def test_criterion_2_cylinder_convergence():
    """Quarter annulus, 4 refinements ~500..30k dofs: temperature RMS-L2
    slopes coupled >= 0.90, FE >= 0.85, VE >= 0.90; under 60 s total."""
    with Timer() as t:
        case = bench.builtin_cases()["cylinder"]
        slopes = {}
        reports = {}
        for method in bench.METHODS:
            rep = bench.run_convergence(case, method)
            slopes[method] = rep.slope
            reports[method] = rep
        ndofs = [r.ndof for r in reports["coupled"].records]
        assert 400 <= ndofs[0] <= 700 and 25000 <= ndofs[-1] <= 35000
        assert slopes["coupled"] >= 0.90
        assert slopes["fe"] >= 0.85
        assert slopes["ve"] >= 0.90
        errors = [r.error for r in reports["coupled"].records]
        assert errors[-1] < 1e-2
        assert all(b < a for a, b in zip(errors, errors[1:]))
    assert t.seconds < 60.0
    report(2, f"cylinder slopes {slopes}", t.seconds)


def test_criterion_3_plate_mre_trend():
    """Coupled plate MRE vs finest FE reference: monotone decrease over 3
    refinements, fitted slope in [0.25, 0.6]; under 120 s."""
    with Timer() as t:
        case = bench.builtin_cases()["plate"]
        rep = bench.run_convergence(case, "coupled")
        errors = [r.error for r in rep.records]
        assert len(errors) == 3
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert 0.25 <= rep.slope <= 0.6
    assert t.seconds < 120.0
    report(3, f"plate MRE slope {rep.slope:.3f}", t.seconds)


def test_criterion_4_vem_property_suite():
    """200 seeded random polygons (3-10 vertices, convex and non-convex):
    reproduction 1e-9, symmetry 1e-12 relative, nullspace dims 1/3 with zero
    eigenvalues < 1e-9 * lambda_max, stabilization annihilates polynomial
    nodal data within 1e-9; under 30 s."""
    with Timer() as t:
        mats = MaterialProps(E=25.0, nu=0.3, conductivity=1.5, alpha=1e-5,
                             T0=25.0, plane=Plane.STRESS)
        polys = polygon_family(seed=42, count=200)
        assert len(polys) == 200
        for poly in polys:
            tp = thermal_row(poly, mats)
            ep = elastic_row(poly, mats)
            assert np.abs(tp.Pi @ tp.D - tp.D).max() < 1e-9
            assert np.abs(ep.Pi @ ep.D_bar - ep.D_bar).max() < 1e-9

            kt = thermal_matrix(poly, mats)
            ke = elastic_matrix(poly, mats)
            assert np.abs(kt - kt.T).max() <= 1e-12 * np.abs(kt).max()
            assert np.abs(ke - ke.T).max() <= 1e-12 * np.abs(ke).max()

            wt = np.linalg.eigvalsh(kt)
            we = np.linalg.eigvalsh(ke)
            assert (np.abs(wt) < 1e-9 * wt.max()).sum() == 1
            assert (np.abs(we) < 1e-9 * we.max()).sum() == 3

            kt_c = tp.Pi_star.T @ tp.G_energy @ tp.Pi_star
            ke_c = ep.Pi_star.T @ ep.M_energy @ ep.Pi_star
            assert np.abs((kt - kt_c) @ tp.D).max() < 1e-9 * np.abs(kt).max()
            assert np.abs((ke - ke_c) @ ep.D_bar).max() < 1e-9 * np.abs(ke).max()
    assert t.seconds < 30.0
    report(4, "VEM kernel properties over 200 polygons", t.seconds)


def test_criterion_5_free_thermal_expansion():
    """Uniform dT = 100 C on a mixed mesh with statically determinate
    supports: max von Mises < 1e-6 * E * alpha * dT; under 5 s."""
    with Timer() as t:
        mesh = generate_split_square(3.0, 2.0, 6, 4)
        mats = {0: MaterialProps(E=70000.0, nu=0.33, conductivity=0.2,
                                 alpha=2.3e-5, T0=25.0, plane=Plane.STRESS)}
        bcs = BoundaryConditionSet()
        for n in sorted(boundary_nodes(mesh)):
            bcs.set_temperature(n, 125.0)
        bcs.set_displacement(0, 0.0, 0.0)                     # pin
        roller = max(mesh.nodes_with_label("bottom"))
        bcs.set_displacement(roller, None, 0.0)               # roller
        fields = run_pipeline(mesh, mats, bcs)
        stresses = post.recover_stress(mesh, mats, fields)
        bound = 1e-6 * mats[0].E * mats[0].alpha * 100.0
        worst = max(es.von_mises for es in stresses)
        assert worst < bound
    assert t.seconds < 5.0
    report(5, f"free expansion, max vm {worst:.2e} < {bound:.2e}", t.seconds)


def test_criterion_6_coupled_block_structure():
    """No stored entry links an F dof to a V dof; the interface diagonal
    block equals the sum of independently accumulated FE and VE sides."""
    with Timer() as t:
        mesh = generate_split_square(2.0, 1.0, 6, 3)
        mats = {0: MaterialProps(E=120.0, nu=0.3, conductivity=1.0, alpha=1e-5,
                                 T0=25.0, plane=Plane.STRESS)}
        for field_kind in ("thermal", "mechanical"):
            if field_kind == "thermal":
                system = assemble_thermal(mesh, mats, BoundaryConditionSet())
            else:
                system = assemble_mechanical(mesh, mats, BoundaryConditionSet(), None)
            classes = dof_classes(system.dof_map)
            coo = system.matrix.tocoo()
            for i, j in zip(coo.row, coo.col):
                assert {classes[i], classes[j]} != {"F", "V"}

            n = system.dof_map.ndof
            k_fe = np.zeros((n, n))
            k_ve = np.zeros((n, n))
            for e in mesh.elements:
                coords = element_coords(mesh, e)
                if field_kind == "thermal":
                    ke = (thermal_stiffness_q4(coords, mats[0])
                          if e.kind == ElementKind.FE_QUAD
                          else thermal_matrix(coords, mats[0]))
                    dofs = np.array(e.vertices)
                else:
                    ke = (mechanical_stiffness_q4(coords, mats[0])
                          if e.kind == ElementKind.FE_QUAD
                          else elastic_matrix(coords, mats[0]))
                    dofs = np.array([2 * v + k for v in e.vertices for k in (0, 1)])
                target = k_fe if e.kind == ElementKind.FE_QUAD else k_ve
                target[np.ix_(dofs, dofs)] += ke
            iface = np.flatnonzero(classes == "I")
            sub = np.ix_(iface, iface)
            full = system.matrix.toarray()
            err = np.abs(full[sub] - (k_fe + k_ve)[sub]).max()
            assert err <= 1e-12 * np.abs(full[sub]).max()
    report(6, "coupled block structure and interface additivity", t.seconds)


def test_criterion_7_sandwich_benchmark_trend():
    """Substrate-side / interconnect-side interface peak ratio >= 3 at the
    mid refinement; at the refinement gated by < 2% change of the pure-FE
    per-side interface averages, both coupled peaks within 5% of the pure-FE
    peaks of that refinement; under 120 s.

    The gate reads the length-weighted interface average, not the peak: the
    peak sits on the clamped bimaterial corner (x = 3.0), a Williams/Bogy-type
    singularity whose nodal value grows by ~24% per halving of h, while the
    singularity is integrable and the average converges.  The pure-FE peaks
    at the gate level are an independent all-Q4 discretisation of the same
    grid, so the coupled peaks are checked against them at equal mesh size.
    """
    with Timer() as t:
        study = bench.run_sandwich_study(bench.SandwichCase())
        ratio_mid = study.copper_peaks[1] / study.silver_peaks[1]
        assert ratio_mid >= 3.0, (
            f"coupled level-1 peak ratio {ratio_mid:.2f} below 3 "
            f"(substrate {study.copper_peaks}, interconnect {study.silver_peaks})")
        assert study.gate_level is not None, (
            "pure-FE interface averages never changed by less than 2% "
            f"(substrate {study.fe_copper_means}, "
            f"interconnect {study.fe_silver_means})")
        (copper, silver), (fe_copper, fe_silver) = study.peaks_at_gate()
        # 5%: the two discretisations differ only in the stack's elements, so
        # their peaks at equal h agree to a few percent (0.3% / 2.4% measured);
        # a wider band would also accept the pure-FE peak of the next coarser
        # level, which lies 19% below on the substrate side.
        for side, got, ref in (("substrate", copper, fe_copper),
                               ("interconnect", silver, fe_silver)):
            assert abs(got - ref) <= 0.05 * ref, (
                f"coupled {side}-side peak {got:.2f} MPa differs from the "
                f"pure-FE peak {ref:.2f} MPa at gate level {study.gate_level} "
                f"by more than 5%")
    assert t.seconds < 120.0
    report(7, f"sandwich peaks ratio {ratio_mid:.2f}, gate level {study.gate_level}",
           t.seconds)


def test_criterion_8_run_determinism(tmp_path, monkeypatch):
    """Two consecutive ``run`` invocations on the cylinder config produce
    byte-identical field and probe files."""
    with Timer() as t:
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", str(CONFIGS / "cylinder.cfg")]) == 0
        out_dir = tmp_path / "out" / "cylinder"
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert cli_main(["run", str(CONFIGS / "cylinder.cfg")]) == 0
        second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert set(first) == set(second)
        assert any(name.endswith(".vtk") for name in first)
        assert any(name.startswith("probe_") for name in first)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
    report(8, "byte-identical reruns", t.seconds)


@pytest.mark.parametrize("case_name", ["fcbga", "igbt"])
def test_criterion_9_packaging_property_cases(case_name):
    """Desk-scale packaging cases accepted by property: pipeline completes,
    stress maxima at material interfaces, interface probe continuity, kernel
    invariants on the generated meshes; under 180 s each."""
    with Timer() as t:
        case = bench.builtin_cases()[case_name]
        result = bench.run_property_case(case)
        assert result.max_von_mises > 0
        assert result.peak_element_at_interface
        # VE-side point evaluation uses the projected polynomial, so node
        # values carry an O(h^2) projection deviation: 2% of range allowed
        assert result.interface_continuity < 0.02
        assert result.kernel_invariants_ok
    assert t.seconds < 180.0
    report(9, f"{case_name} property run", t.seconds)
