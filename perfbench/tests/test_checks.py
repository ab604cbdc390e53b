"""Workload checks pass on the recorded reference and fail when a reference value moves."""

import copy

import numpy as np
import pytest

from perfbench import checks, workloads

REFERENCE = workloads.load_reference()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_passes_its_own_check(name):
    wl = workloads.WORKLOADS[name]
    assert wl.check(copy.deepcopy(REFERENCE[name]), REFERENCE[name]) == []


def _perturbed(name, *path, factor=1.0 + 1e-4):
    ref = copy.deepcopy(REFERENCE[name])
    node = ref
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= factor
    return ref


@pytest.mark.parametrize("name, path", [
    ("sandwich_fe_l3", ("substrate_peak",)),
    ("sandwich_fe_l3", ("interconnect_peak",)),
    ("sandwich_fe_l3", ("fields", "von_mises", "l2")),
    ("fcbga_l2_run", ("fields", "temperature", "sum")),
    ("fcbga_l2_run", ("probes", "probe_L2_vm.csv", "value", "abs_max")),
    ("cylinder_l3_thermal_cg", ("rms_l2",)),
])
def test_perturbed_reference_fails_the_check(name, path):
    wl = workloads.WORKLOADS[name]
    factor = 1.1 if path == ("rms_l2",) else 1.0 + 1e-4
    assert wl.check(copy.deepcopy(REFERENCE[name]), _perturbed(name, *path, factor=factor))


def test_perturbed_sample_value_fails():
    ref = copy.deepcopy(REFERENCE["fcbga_l2_run"])
    values = ref["fields"]["displacement"]["value"]
    values[len(values) // 2] += 1e-3 * ref["fields"]["displacement"]["abs_max"]
    fails = workloads.fcbga_check(copy.deepcopy(REFERENCE["fcbga_l2_run"]), ref)
    assert any("displacement[" in f for f in fails)


def test_failed_run_and_stray_probe_fail():
    obs = copy.deepcopy(REFERENCE["cylinder_l3_thermal_cg"])
    obs["probe_max_err"] = 10 * workloads.CYL_PROBE_MAX_ERR
    assert workloads.cylinder_check(obs, REFERENCE["cylinder_l3_thermal_cg"])
    assert workloads.fcbga_check({"rc": 2, "fields": {}, "probes": {}},
                                 REFERENCE["fcbga_l2_run"]) == ["fevec run exited with 2"]


def test_vtk_and_probe_round_trip(tmp_path):
    from fevec import mesh as meshmod
    from fevec import post
    from fevec.post import ElementStress, LineProbe
    from fevec.solver import SolutionFields

    mesh = meshmod.generate_structured_quads(2.0, 1.0, 3, 2)
    rng = np.random.default_rng(0)
    temps = rng.normal(size=mesh.n_nodes)
    disp = rng.normal(size=(mesh.n_nodes, 2))
    stresses = [ElementStress(e.id, rng.normal(size=3), float(rng.uniform()), "x")
                for e in mesh.elements]
    post.export_fields(mesh, SolutionFields(temps, disp), stresses, str(tmp_path / "f.vtk"))
    got = checks.read_vtk(tmp_path / "f.vtk")
    np.testing.assert_array_equal(got["points"], mesh.coords)
    np.testing.assert_array_equal(got["temperature"], temps)
    np.testing.assert_array_equal(got["displacement"], disp)
    np.testing.assert_array_equal(got["von_mises"], [s.von_mises for s in stresses])
    np.testing.assert_array_equal(got["stress"], [s.sigma for s in stresses])

    s = np.array([0.0, 0.5, 1.0])
    probe = LineProbe("p", "temperature", (0, 0), (1, 0), s, np.column_stack((s, 0 * s)),
                      np.array([1.0, np.nan, 3.0]), np.array([True, False, True]))
    post.write_probe_csv(probe, str(tmp_path / "p.csv"))
    table = checks.read_probe_csv(tmp_path / "p.csv")
    np.testing.assert_array_equal(table["value"], probe.values)
    summary = checks.summarize(table["value"])
    assert summary["n_nan"] == 1 and summary["value"] == [1.0, None, 3.0]
    assert checks.compare_summary("p", summary, summary, 1e-12) == []


def test_edited_configs_keep_the_shipped_problem(tmp_path):
    from pathlib import Path

    from fevec import config

    root = Path(workloads.__file__).resolve().parents[1]
    cyl = workloads.cylinder_prepare(3, tmp_path, root)
    cfg = config.parse_config(cyl["config"].read_text())
    assert cfg.solver.method == "cg" and cfg.solver.fields == "thermal"
    assert dict(cfg.generator_params)["n_r"] == "120"
    assert [p.name for p in cfg.probes] == ["radial_T"]
    again = workloads.cylinder_prepare(3, tmp_path / "b", root)
    assert again["theta"] == cyl["theta"]
    fcbga = workloads.fcbga_prepare(0, tmp_path, root)
    cfg = config.parse_config(fcbga["config"].read_text())
    assert len(cfg.probes) == 3 and cfg.output_dir.endswith("out")
