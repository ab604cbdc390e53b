import hashlib
import pathlib

import pytest

from fevec.cli import main
from fevec.mesh import generate_split_square, save_mesh

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

RUN_CFG = """
[mesh]
generator split_square
width 2
height 1
nx 4
ny 2

[material 0]
E_MPa 100
nu 0.3
k_W_per_mK 1000
alpha_per_C 1e-5
T0_C 25
plane stress

[bc left]
dirichlet_T 25

[bc left]
dirichlet_u 0 0

[bc right]
dirichlet_T 75

[probe mid]
quantity temperature
x0 0
y0 0.5
x1 2
y1 0.5
n_samples 11

[output]
dir {out}
"""

THERMAL_ONLY_CFG = """
[mesh]
generator structured_quads
width 1
height 1
nx 4
ny 4

[material 0]
E_MPa 100
nu 0.3
k_W_per_mK 1
alpha_per_C 1e-5
plane stress

[bc left]
dirichlet_u 0 0

[solver]
fields thermal

[output]
dir {out}
"""


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(RUN_CFG.format(out=out))
        assert main(["run", str(cfg)]) == 0
        assert (out / "fields.vtk").exists()
        assert (out / "probe_mid.csv").exists()
        assert (out / "provenance.txt").exists()

    def test_run_determinism(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(RUN_CFG.format(out=out))
        assert main(["run", str(cfg)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["run", str(cfg)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_missing_config_exit_3(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:3:")

    def test_solver_failure_exit_2(self, tmp_path, capsys):
        # no displacement constraints: mechanical solve hits rigid modes
        text = RUN_CFG.format(out=tmp_path / "o").replace("dirichlet_u 0 0",
                                                          "dirichlet_u free free")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:2:")

    @pytest.mark.parametrize("support, missing", [
        ("dirichlet_u 0 free", "y translation"),
        ("dirichlet_u free free", "x translation, y translation and rotation")])
    def test_ill_posed_supports_exit_2(self, tmp_path, capsys, support, missing):
        text = RUN_CFG.format(out=tmp_path / "o").replace("dirichlet_u 0 0", support)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:2: ill-posed mechanical problem")
        assert f"against {missing} (" in err
        assert not (tmp_path / "o").exists()

    def test_thermal_only_without_thermal_bc_exit_2(self, tmp_path, capsys):
        # once exit 0 and a temperature field of zeros: nothing was solved
        out = tmp_path / "o"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(THERMAL_ONLY_CFG.format(out=out))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:2: ill-posed thermal problem")
        assert "has no Dirichlet temperature" in err
        assert not out.exists()

    def test_solve_diagnostics_stay_out_of_outputs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(RUN_CFG.format(out=out))
        assert main(["run", str(cfg)]) == 0
        for path in out.iterdir():
            text = path.read_text()
            assert "nested_dissection" not in text and "fill" not in text

    def test_unknown_bc_label_exit_1(self, tmp_path, capsys):
        text = RUN_CFG.format(out=tmp_path / "o").replace("[bc right]", "[bc nope]")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error:1:")

    @pytest.mark.parametrize("old,new,key", [
        ("[probe mid]", "[solver]\nmethod lu\n\n[probe mid]", "method"),
        ("[probe mid]", "[solver]\ncg_rel_tol -1\n\n[probe mid]", "cg_rel_tol"),
        ("T0_C 25", "T0_c 25", "T0_c"),
        ("ny 2", "ny 2\nkind XX", "kind"),
        ("[probe mid]", "[solver]\ntau -0.3\n\n[probe mid]", "tau"),
        ("[probe mid]", "[solver]\ntau nan\n\n[probe mid]", "tau"),
        ("n_samples 11", "n_samples -7", "n_samples"),
        ("n_samples 11", "n_samples 1", "n_samples"),
        ("quantity temperature", "quantity foo", "quantity 'foo'"),
        ("[probe mid]\nquantity temperature", "[solver]\nfields thermal\n\n[probe mid]\nquantity ux",
         "quantity 'ux'"),
        ("[probe mid]\nquantity temperature", "[solver]\nfields thermal\n\n[probe mid]\nquantity sxx",
         "quantity 'sxx'"),
        ("dirichlet_T 75", "dirichlet_T nan", "got nan"),
        ("dirichlet_T 75", "dirichlet_T 1e309", "got inf"),
        ("dirichlet_u 0 0", "dirichlet_u 0 inf", "got inf"),
        ("dirichlet_T 75", "flux nan", "flux must be a finite number"),
        ("x1 2", "x1 nan", "end points"),
        ("[output]", "[probe mid]\nquantity ux\nx0 0\ny0 0.5\nx1 2\ny1 0.5\n\n[output]",
         "section '[probe mid]' appears more than once"),
        ("[bc right]",
         "[material 0]\nE_MPa 200\nnu 0.3\nk_W_per_mK 1\nalpha_per_C 1e-5\n\n[bc right]",
         "section '[material 0]' appears more than once"),
        ("generator split_square", "path m.txt\ngenerator split_square", "not both"),
        ("[mesh]", "[mesh extra tokens]", "section [mesh] takes no argument"),
        ("[probe mid]", "[solver anything]\nmethod direct\n\n[probe mid]",
         "section [solver] takes no argument"),
        ("[output]", "[output dir]", "section [output] takes no argument"),
    ])
    def test_bad_config_value_exit_3(self, tmp_path, capsys, old, new, key):
        text = RUN_CFG.format(out=tmp_path / "o").replace(old, new)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:3:") and key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "mesh-gen"])
    @pytest.mark.parametrize("old,new", [
        ("E_MPa 100", "E_MPa -5"), ("E_MPa 100", "E_MPa inf"), ("nu 0.3", "nu nan"),
        ("k_W_per_mK 1000", "k_W_per_mK 0"), ("k_W_per_mK 1000", "k_W_per_mK inf"),
        ("alpha_per_C 1e-5", "alpha_per_C -1"), ("alpha_per_C 1e-5", "alpha_per_C nan"),
        ("T0_C 25", "T0_C inf"),
    ])
    def test_bad_material_value_exit_3(self, tmp_path, capsys, command, old, new):
        text = RUN_CFG.format(out=tmp_path / "o").replace(old, new)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main([command, str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error:3: {cfg}: bad material value:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new, field", [
        ("k_W_per_mK 1000", "k_W_per_mK 4e-321", "thermal"),
        ("E_MPa 100", "E_MPa 5e-324", "elastic")])
    def test_underflowing_moduli_on_ve_mesh_exit_2(self, tmp_path, capsys, old, new, field):
        # valid polygons with moduli that underflow give a singular projection
        text = RUN_CFG.format(out=tmp_path / "o").replace(old, new).replace(
            "generator split_square", "generator structured_quads").replace("ny 2", "ny 2\nkind VE")
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error:2: singular {field} projection system\n"
        assert not (tmp_path / "o").exists()

    def test_displacement_probe_on_ve_mesh_ignores_conductivity(self, tmp_path):
        # the probe's VE interpolation reads no material: with no thermal
        # data, a conductivity that underflows changes no output byte
        outputs = []
        for k in ("4e-321", "20"):
            out = tmp_path / k
            text = RUN_CFG.format(out=out).replace("k_W_per_mK 1000", f"k_W_per_mK {k}").replace(
                "generator split_square", "generator structured_quads").replace(
                "ny 2", "ny 2\nkind VE").replace("[bc left]\ndirichlet_T 25\n\n", "").replace(
                "dirichlet_T 75", "traction 1 0").replace("quantity temperature", "quantity ux")
            cfg = tmp_path / f"k{k}.cfg"
            cfg.write_text(text)
            assert main(["run", str(cfg)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("fields.vtk", "probe_mid.csv")])
        assert outputs[0] == outputs[1]

    def test_probe_outside_mesh_exit_1(self, tmp_path, capsys):
        text = RUN_CFG.format(out=tmp_path / "o").replace("x0 0", "x0 50").replace(
            "x1 2", "x1 60")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error:1: probe failed:")
        assert not (tmp_path / "o").exists()    # no fields.vtk written before the probe

    def test_mesh_without_elements_exit_1(self, tmp_path, capsys):
        mesh = tmp_path / "m.txt"
        mesh.write_text("mesh 2d v1\nnode 0 0 0\nnode 1 1 0\nnode 2 1 1\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[mesh]\npath {mesh.name}\n\n[material 0]\nE_MPa 100\nnu 0.3\n"
                       "k_W_per_mK 1000\nalpha_per_C 1e-5\n\n[solver]\nfields thermal\n\n"
                       "[probe p]\nquantity temperature\nx0 0\ny0 0\nx1 1\ny1 1\n\n"
                       f"[output]\ndir {tmp_path / 'o'}\n")
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error:1: {mesh}: 1 validation violation(s): mesh has no elements\n")
        assert not (tmp_path / "o").exists()


class TestValidate:
    def test_valid_mesh_exit_0(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        save_mesh(generate_split_square(2, 1, 2, 2), str(path))
        assert main(["validate", str(path)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_invalid_mesh_exit_1(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 1 1 0\nnode 2 1 1\nnode 3 0 1\n"
                        "elem 0 FE 0 4 0 3 2 1\n")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "1 violations" in out

    def test_non_convex_fe_quad_exit_1(self, tmp_path, capsys):
        # positive area and no crossing edges, but det J < 0 near node 2
        path = tmp_path / "m.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 1 2 0\nnode 2 0.5 0.5\nnode 3 0 2\n"
                        "elem 0 FE 0 4 0 1 2 3\nbedge left 0 3\nbedge bottom 0 1\n")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert out == ("1 violations\n  [fe-quad-convexity] element 0: FE_QUAD not strictly "
                       "convex at node 2\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[mesh]\npath {path.name}\n\n[material 0]\nE_MPa 100\nnu 0.3\n"
                       "k_W_per_mK 1000\nalpha_per_C 1e-5\n\n[bc left]\ndirichlet_T 25\n\n"
                       "[bc left]\ndirichlet_u 0 0\n\n[bc bottom]\ndirichlet_T 75\n\n"
                       f"[output]\ndir {tmp_path / 'o'}\n")
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:1: ") and err.count("\n") == 1
        assert "element 0: FE_QUAD not strictly convex at node 2" in err
        assert not (tmp_path / "o").exists()

    def test_out_of_range_vertex_at_interface_exit_1(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 1 1 0\nnode 2 1 1\nnode 3 0 1\n"
                        "node 4 2 0\nnode 5 2 1\nelem 0 FE 0 4 0 1 2 3\n"
                        "elem 1 VE 0 4 1 4 9 2\n")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == (
            "2 violations\n  [element-vertices] element 1: vertex id out of range\n"
            "  [orphan-nodes] nodes without any element: [5]\n")

    def test_unused_node_exit_1(self, tmp_path, capsys):
        # a node that no element lists is a mesh defect for both commands
        path = tmp_path / "m.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 1 1 0\nnode 2 1 1\nnode 3 0 1\n"
                        "node 4 5 5\nelem 0 FE 0 4 0 1 2 3\nbedge left 0 3\nbedge right 1 2\n")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == (
            "1 violations\n  [orphan-nodes] nodes without any element: [4]\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[mesh]\npath {path.name}\n\n[material 0]\nE_MPa 100\nnu 0.3\n"
                       "k_W_per_mK 1000\nalpha_per_C 1e-5\n\n[solver]\nfields thermal\n\n"
                       "[bc left]\ndirichlet_T 25\n\n[bc right]\ndirichlet_T 75\n\n"
                       f"[output]\ndir {tmp_path / 'o'}\n")
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error:1: {path}: 1 validation violation(s): nodes without any element: [4]\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["FE", "VE"])
    def test_element_without_vertices_exit_1(self, tmp_path, capsys, kind):
        # once a bare IndexError from the convexity message of every flagged element
        path = tmp_path / "m.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 1 1 0\nnode 2 1 1\n"
                        f"elem 0 VE 0 3 0 1 2\nelem 1 {kind} 0 0\n")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == (
            "1 violations\n  [element-vertices] element 1: fewer than 3 vertices\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[mesh]\npath {path.name}\n\n[material 0]\nE_MPa 100\nnu 0.3\n"
                       "k_W_per_mK 1000\nalpha_per_C 1e-5\n\n[solver]\nfields thermal\n\n"
                       f"[output]\ndir {tmp_path / 'o'}\n")
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error:1: {path}: 1 validation violation(s): element 1: fewer than 3 vertices\n")
        assert not (tmp_path / "o").exists()

    def test_parse_error_exit_3(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 0 1 0\n")
        assert main(["validate", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error:3:")


    def test_integer_outside_int64_exit_3(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("mesh 2d v1\nnode 0 0 0\nnode 1 1 0\nnode 2 1 1\n"
                        "elem 0 VE 0 3 0 1 99999999999999999999999\n")
        assert main(["validate", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:3:") and f"{path}:5:" in err and "int64" in err

    def test_run_with_oversized_region_exit_3(self, tmp_path, capsys):
        mesh = tmp_path / "m.txt"
        mesh.write_text("mesh 2d v1\nnode 0 0 0\nnode 1 1 0\nnode 2 1 1\nnode 3 0 1\n"
                        "elem 0 FE 99999999999999999999999 4 0 1 2 3\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[mesh]\npath {mesh.name}\n[output]\ndir {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:3:") and f"{mesh}:6:" in err and "int64" in err


class TestNotUtf8:
    """A byte that is not UTF-8 in any file read is a ParseError naming its file and line."""

    MESH = b"mesh 2d v1\nnode 0 0 0\nnode 1 1 0\nnode 2 1 1\nnode 3 0 1\nelem 0 FE 0 4 0 1 2 3\n"

    @staticmethod
    def assert_names(capsys, where):
        err = capsys.readouterr().err
        assert err.startswith("error:3:") and f"{where}: byte 0xff is not UTF-8 text" in err, err

    def test_node_line(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_bytes(self.MESH.replace(b"node 2 1 1", b"node 2 1\xff 1"))
        assert main(["validate", str(path)]) == 3
        self.assert_names(capsys, f"{path}:4")

    @pytest.mark.parametrize("command", ["run", "mesh-gen"])
    def test_config_comment(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# heat \xff sink\n"
                        + RUN_CFG.format(out=tmp_path / "o").encode())
        assert main([command, str(cfg)]) == 3
        self.assert_names(capsys, f"{cfg}:1")
        assert not (tmp_path / "o").exists()

    def test_mesh_through_config_path(self, tmp_path, capsys):
        mesh = tmp_path / "m.txt"
        mesh.write_bytes(self.MESH.replace(b"elem 0 FE", b"elem 0 \xffFE"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[mesh]\npath {mesh.name}\n[output]\ndir {tmp_path / 'o'}\n")
        assert main(["run", str(cfg)]) == 3
        self.assert_names(capsys, f"{mesh}:6")
        assert not (tmp_path / "o").exists()


class TestMeshGen:
    def test_generates_file(self, tmp_path, capsys):
        spec = tmp_path / "gen.cfg"
        spec.write_text("[mesh]\ngenerator quarter_annulus\nr_a 20\nr_b 60\n"
                        f"n_r 3\nn_t 4\nsplit_radius 40\n[output]\ndir {tmp_path}\n")
        assert main(["mesh-gen", str(spec)]) == 0
        mesh_path = tmp_path / "mesh.txt"
        assert mesh_path.exists()
        assert main(["validate", str(mesh_path)]) == 0

    def test_generator_mesh_error_exit_1(self, tmp_path, capsys):
        spec = tmp_path / "gen.cfg"
        spec.write_text("[mesh]\ngenerator structured_quads\nwidth 1\nheight 1\n"
                        f"nx 0\nny 1\n[output]\ndir {tmp_path}\n")
        assert main(["mesh-gen", str(spec)]) == 1
        assert capsys.readouterr().err.startswith("error:1: subdivision counts")


    @pytest.mark.parametrize("command", ["mesh-gen", "run"])
    @pytest.mark.parametrize("generator", ["sandwich", "fcbga", "igbt"])
    def test_negative_level_exit_3(self, tmp_path, capsys, command, generator):
        spec = tmp_path / "gen.cfg"
        spec.write_text(f"[mesh]\ngenerator {generator}\nlevel -1\n[output]\ndir {tmp_path}\n")
        assert main([command, str(spec)]) == 3
        assert capsys.readouterr().err.startswith("error:3: level must be >= 0, got -1")


class TestBench:
    def test_unknown_case(self, capsys):
        assert main(["bench", "nonsense"]) == 3
        assert capsys.readouterr().err.startswith("error:3:")

    def test_bench_report_schema(self, tmp_path, monkeypatch):
        # shrink the cylinder ladder so the smoke test stays fast
        from fevec import bench, cli
        case = bench.builtin_cases()["cylinder"]
        case.levels = [0, 1]
        monkeypatch.setattr(bench, "builtin_cases", lambda: {"cylinder": case})
        monkeypatch.setattr(cli, "benchmod", bench)
        out = tmp_path / "bench"
        assert main(["bench", "cylinder", "-o", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "case,method,ndof,error"
        # three method rows per refinement
        assert len(lines) == 1 + 3 * 2
        summary = (out / "summary.txt").read_text()
        assert summary.count("fitted slope") == 3

    def test_bench_all_runs_each_case_study_in_order(self, tmp_path, monkeypatch, capsys):
        # every ladder shrunk on a case class, so the fresh instances of
        # builtin_cases run the whole command in a few seconds
        from fevec import bench
        for cls, levels in ((bench.PlateCase, (0, 1)), (bench.CylinderCase, (0, 1)),
                            (bench.SandwichCase, (0,)), (bench.FcbgaCase, (0,)),
                            (bench.IgbtCase, (0,))):
            monkeypatch.setattr(cls, "levels", levels)
        monkeypatch.setattr(bench.SandwichCase, "fe_levels", (0, 1))
        out = tmp_path / "bench"
        assert main(["bench", "all", "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout == (out / "summary.txt").read_text()

        rows = [line.split(",")[:2] for line in (out / "report.csv").read_text().splitlines()[1:]]
        assert rows == [[case, method] for case in ("plate", "cylinder")
                        for method in bench.METHODS for _ in range(2)]
        lines = stdout.splitlines()
        fitted = [f"{case} [{method}]: fitted slope " for case in ("plate", "cylinder")
                  for method in bench.METHODS]
        expected = ["plate [coupled]: slope "] + [f"cylinder [{method}]: slope "
                                                  for method in bench.METHODS]
        heads = fitted + expected + ["sandwich: ", "fcbga: ", "igbt: "]
        assert len(lines) == len(heads)
        assert all(line.startswith(head) for line, head in zip(lines, heads)), lines
        assert all(" expected " in line for line in lines[6:10])
        # recorded before the cases read their shipped configs: a change of
        # material, BC or BC order that moves any number fails here
        assert hashlib.sha256((out / "report.csv").read_bytes()).hexdigest() == (
            "70abd6f15fef67dd5e7b9dcea6002adb273e9dfa4f9bb1f7187786a081bbca87")
        assert hashlib.sha256((out / "summary.txt").read_bytes()).hexdigest() == (
            "8f282672c68aa7d8ded450d791d309688c6f411c33185b93d13784cc1f30782d")

    @pytest.mark.parametrize("config", [None, "E_MPa abc"])
    def test_bench_bad_case_config_exit_3(self, tmp_path, monkeypatch, capsys, config):
        # a missing config file, then one whose material does not parse
        from fevec import bench
        if config is not None:
            text = (CONFIGS / "cylinder.cfg").read_text()
            (tmp_path / "cylinder.cfg").write_text(text.replace("E_MPa 460000", config))
        monkeypatch.setattr(bench, "CONFIG_DIR", str(tmp_path))
        assert main(["bench", "cylinder", "-o", str(tmp_path / "bench")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:3: ") and "cylinder.cfg" in err

    @pytest.mark.parametrize("mesh", ["[mesh]\ngenerator sandwich\nlevel 1\n",
                                      "[mesh]\npath cylinder.txt\n"],
                             ids=["other-generator", "mesh-path"])
    def test_bench_case_config_names_its_generator(self, tmp_path, monkeypatch, capsys, mesh):
        # a case config that names another generator, or a mesh file, is refused:
        # the ladder could not refine it
        from fevec import bench
        text = (CONFIGS / "cylinder.cfg").read_text()
        start, end = text.index("[mesh]"), text.index("[material 0]")
        (tmp_path / "cylinder.cfg").write_text(text[:start] + mesh + text[end:])
        monkeypatch.setattr(bench, "CONFIG_DIR", str(tmp_path))
        assert main(["bench", "cylinder", "-o", str(tmp_path / "bench")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:3: ") and "must name generator 'quarter_annulus'" in err

    @pytest.mark.parametrize("level", ["1.5", "two"])
    def test_bench_property_case_level_not_integer_exit_3(self, tmp_path, monkeypatch, capsys,
                                                          level):
        from fevec import bench
        text = (CONFIGS / "fcbga.cfg").read_text()
        (tmp_path / "fcbga.cfg").write_text(text.replace("level 2", f"level {level}"))
        monkeypatch.setattr(bench, "CONFIG_DIR", str(tmp_path))
        assert main(["bench", "fcbga", "-o", str(tmp_path / "bench")]) == 3
        assert capsys.readouterr().err.startswith(
            f"error:3: fcbga: [mesh] level must be an integer, got '{level}'")

    @pytest.mark.parametrize("name, old, new, message", [
        ("plate", "traction 0 5", "traction 0 0", "all reference samples below the exclusion floor"),
        ("cylinder", "dirichlet_T 500", "dirichlet_T 0", "exact field is identically zero")],
        ids=["plate-no-load", "cylinder-equal-temperatures"])
    def test_bench_study_error_exit_1(self, tmp_path, monkeypatch, capsys, name, old, new,
                                      message):
        # a study's own FevecError (no load, or a zero exact field) is an error:1: line
        from fevec import bench
        text = (CONFIGS / f"{name}.cfg").read_text()
        assert old in text
        (tmp_path / f"{name}.cfg").write_text(text.replace(old, new))
        monkeypatch.setattr(bench, "CONFIG_DIR", str(tmp_path))
        assert main(["bench", name, "-o", str(tmp_path / "bench")]) == 1
        assert capsys.readouterr().err.startswith(f"error:1: {message}")

    def test_shipped_cylinder_config_runs(self, tmp_path, monkeypatch):
        # the shipped config is the determinism fixture of the acceptance
        # suite; make sure it stays valid
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(CONFIGS / "cylinder.cfg")]) == 0
        assert (tmp_path / "out" / "cylinder" / "fields.vtk").exists()

    def test_property_case_summary(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "igbt", "-o", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "igbt:" in summary
        assert "kernel invariants ok: True" in summary
        assert "peak at material interface: True" in summary
