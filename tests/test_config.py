import re

import pytest

from fevec import bench
from fevec import config as configmod
from fevec.errors import AssemblyError, ParseError
from fevec.materials import Plane
from conftest import edge_dict, element_table

MINIMAL = """
[mesh]
generator structured_quads
width 2
height 1
nx 4
ny 2

[material 0]
E_MPa 100
nu 0.3
k_W_per_mK 400
alpha_per_C 1e-5
T0_C 25
plane stress

[bc left]
dirichlet_T 0

[bc left]
dirichlet_u 0 0

[bc right]
dirichlet_T 50

[solver]
method cg
cg_rel_tol 1e-9
tau 0.4

[probe mid]
quantity temperature
x0 0
y0 0.5
x1 2
y1 0.5
n_samples 21

[output]
dir out/demo
"""


class TestParse:
    def test_minimal_round(self):
        cfg = configmod.parse_config(MINIMAL)
        assert cfg.generator == "structured_quads"
        assert cfg.materials[0].E == 100.0
        assert cfg.materials[0].conductivity == pytest.approx(0.4)  # W/mK -> W/mmK
        assert cfg.materials[0].plane == Plane.STRESS
        assert len(cfg.bcs) == 3
        assert cfg.solver.method == "cg"
        assert cfg.solver.tau == pytest.approx(0.4)
        assert cfg.probes[0].name == "mid"
        assert cfg.output_dir == "out/demo"

    def test_mesh_section_required(self):
        with pytest.raises(ParseError, match="mesh"):
            configmod.parse_config("[solver]\nmethod direct\n")

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            configmod.parse_config("[mesh]\npath m.txt\n[wat]\nx 1\n")

    def test_bad_material_value(self):
        text = MINIMAL.replace("E_MPa 100", "E_MPa banana")
        with pytest.raises(ParseError, match="material"):
            configmod.parse_config(text)

    def test_missing_material_key(self):
        text = MINIMAL.replace("nu 0.3\n", "")
        with pytest.raises(ParseError, match="missing key"):
            configmod.parse_config(text)

    def test_free_displacement_component(self):
        text = MINIMAL.replace("dirichlet_u 0 0", "dirichlet_u free 0")
        cfg = configmod.parse_config(text)
        specs = [s for (lab, s) in cfg.bcs if s.kind == "dirichlet_u"]
        assert specs[0].values == (None, 0.0)

    def test_data_before_section(self):
        with pytest.raises(ParseError, match="before any section"):
            configmod.parse_config("x 1\n[mesh]\npath m.txt\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate key"):
            configmod.parse_config("[mesh]\ngenerator structured_quads\n"
                                   "width 1\nwidth 2\nheight 1\nnx 1\nny 1\n")

    @pytest.mark.parametrize("old,new,text", [
        ("method cg", "method lu", "method"),            # SolveOptions' checks name the key
        ("cg_rel_tol 1e-9", "cg_rel_tol -1", "cg_rel_tol"),
        ("cg_rel_tol 1e-9", "cg_max_iter 0", "cg_max_iter"),
        ("tau 0.4", "fields all", "fields"),
        ("cg_rel_tol 1e-9", "cg_max_iter many", "invalid literal"),
        ("cg_rel_tol 1e-9", "cg_rel_tol inf", "cg_rel_tol"),
        ("tau 0.4", "tau -0.3", "tau"),
        ("tau 0.4", "tau nan", "tau"),
        ("tau 0.4", "tau inf", "tau"),
    ])
    def test_bad_solver_value(self, old, new, text):
        with pytest.raises(ParseError, match=f"bad solver value: {text}"):
            configmod.parse_config(MINIMAL.replace(old, new))

    @pytest.mark.parametrize("old,new", [
        ("T0_C 25", "T0_c 25"),             # material
        ("method cg", "methd cg"),          # solver
        ("n_samples 21", "samples 21"),     # probe
        ("dir out/demo", "directory out/demo"),
        ("tau 0.4", "diag_precond 1"),      # removed option
    ])
    def test_unknown_key_rejected(self, old, new):
        key = new.split()[0]
        with pytest.raises(ParseError, match=f"unknown key '{key}'"):
            configmod.parse_config(MINIMAL.replace(old, new))

    @pytest.mark.parametrize("old,new", [
        ("nx 4", "nx 4 8"),                             # mesh
        ("nu 0.3", "nu 0.3 0.45"),                      # material
        ("method cg", "method cg direct"),              # solver
        ("n_samples 21", "n_samples 21 41"),            # probe
        ("dir out/demo", "dir out/demo extra"),         # output
    ])
    def test_extra_value_names_key_and_line(self, old, new):
        # the first value was once taken and the rest dropped without a word
        text = MINIMAL.replace(old, new)
        message = re.escape(f"expected 'key value', got '{new}'")
        with pytest.raises(ParseError, match=message) as err:
            configmod.parse_config(text)
        assert err.value.line == text.splitlines().index(new) + 1

    @pytest.mark.parametrize("record, text", [
        ("dirichlet_T 0 5", "dirichlet_T takes 1 value"),
        ("dirichlet_T free", "could not convert string to float: 'free'"),
        ("dirichlet_u 0", r"dirichlet_u takes 2 value\(s\), got 1"),
        ("traction 1 -inf", "traction must be a finite number, got -inf"),
        ("heat 5", "unknown bc kind 'heat'"),
    ])
    def test_bad_bc_record_names_its_line(self, record, text):
        cfg = "[mesh]\ngenerator structured_quads\n[bc top]\n" + record + "\n"
        with pytest.raises(ParseError, match=f"^<config>:4: bad bc record: {text}"):
            configmod.parse_config(cfg)

    @pytest.mark.parametrize("kind, values", [
        ("bogus", (1.0,)), ("dirichlet_T", (1.0, 2.0)), ("flux", (float("nan"),)),
        ("traction", (1.0, None)), ("dirichlet_u", (None, float("inf")))])
    def test_malformed_bc_spec_rejected(self, kind, values):
        with pytest.raises(AssemblyError):
            configmod.BcSpec(kind, values)

    @pytest.mark.parametrize("section, body", [
        ("[probe mid]", "quantity ux\nx0 0\ny0 0.5\nx1 2\ny1 0.5"),
        ("[material 0]", "E_MPa 200\nnu 0.3\nk_W_per_mK 400\nalpha_per_C 1e-5"),
        ("[material 00]", "E_MPa 200\nnu 0.3\nk_W_per_mK 400\nalpha_per_C 1e-5"),
        ("[mesh]", "path m.txt"),
        ("[solver]", "method direct"),
        ("[output]", "dir out/other"),
    ])
    def test_repeated_section_rejected(self, section, body):
        text = f"{MINIMAL}\n{section}\n{body}\n"
        with pytest.raises(ParseError, match=re.escape(f"'{section}' appears more than once")):
            configmod.parse_config(text)

    def test_mesh_path_and_generator_rejected(self):
        text = MINIMAL.replace("[mesh]\n", "[mesh]\npath m.txt\n")
        with pytest.raises(ParseError, match="either 'path' or 'generator', not both"):
            configmod.parse_config(text)

    @pytest.mark.parametrize("header", ["[mesh extra tokens]", "[solver anything]",
                                        "[output dir]"])
    def test_extra_header_tokens_name_the_line(self, header):
        # these once parsed as [mesh], [solver] and [output]
        name = header[1:].split()[0]
        lines = MINIMAL.splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line == f"[{name}]")
        lines[lineno - 1] = header
        with pytest.raises(ParseError, match=re.escape(
                f"<config>:{lineno}: section [{name}] takes no argument, got '{header}'")) as err:
            configmod.parse_config("\n".join(lines) + "\n")
        assert err.value.line == lineno

    @pytest.mark.parametrize("header, message", [
        ("[bc a b]", "bc section needs a label"), ("[material 0 1]", "needs a region id"),
        ("[probe a b]", "probe section needs a name"), ("[wat]", "unknown section")])
    def test_bad_header_names_its_line(self, header, message):
        text = f"{MINIMAL}\n{header}\nx 1\n"
        with pytest.raises(ParseError, match=message) as err:
            configmod.parse_config(text)
        assert err.value.line == text.splitlines().index(header) + 1

    def test_empty_section_header_rejected(self):
        with pytest.raises(ParseError, match=re.escape("unknown section '[]'")):
            configmod.parse_config("[mesh]\npath m.txt\n[]\n")

    def test_solver_spec_is_the_solve_options(self):
        from fevec.solver import SolveOptions
        spec = configmod.parse_config(MINIMAL).solver
        assert isinstance(spec, SolveOptions)
        assert (spec.method, spec.cg_rel_tol, spec.fields) == ("cg", 1e-9, "both")


class TestBuild:
    def test_generator_mesh(self):
        cfg = configmod.parse_config(MINIMAL)
        mesh = configmod.build_mesh(cfg)
        assert mesh.n_nodes == 5 * 3
        assert mesh.n_elements == 8

    def test_unknown_generator(self):
        cfg = configmod.parse_config(MINIMAL.replace("structured_quads", "donut"))
        with pytest.raises(ParseError, match="unknown generator"):
            configmod.build_mesh(cfg)

    def test_missing_generator_param(self):
        text = MINIMAL.replace("nx 4\n", "")
        cfg = configmod.parse_config(text)
        with pytest.raises(ParseError, match="missing parameter 'nx'"):
            configmod.build_mesh(cfg)

    @pytest.mark.parametrize("old,new", [("ny 2", "ny 2\nkind XX"), ("nx 4", "nx four")])
    def test_bad_generator_value(self, old, new):
        key, value = new.split()[-2:]
        cfg = configmod.parse_config(MINIMAL.replace(old, new))
        with pytest.raises(ParseError, match=f"generator parameter {key}: bad value '{value}'"):
            configmod.build_mesh(cfg)

    def test_typed_generator_parameters(self):
        from fevec.mesh import ElementKind
        cfg = configmod.parse_config(MINIMAL.replace("ny 2\n", "ny 2\nkind VE\n"))
        mesh = configmod.build_mesh(cfg)
        assert {e.kind for e in mesh.elements} == {ElementKind.VE_POLY}
        cfg = configmod.parse_config(
            "[mesh]\ngenerator plate_with_hole\nhole_radius 0.5\nsize 2\nn_t 4\n"
            "n_r_ring 2\nn_r_outer 2\nsplit_radius 1\nsplit_ring 1\nouter_kind VE\n")
        mesh = configmod.build_mesh(cfg)
        assert {len(e.vertices) for e in mesh.elements} == {3, 4}
        assert {e.kind for e in mesh.elements} == {ElementKind.VE_POLY}

    def test_bcs_resolved_by_label(self):
        cfg = configmod.parse_config(MINIMAL)
        mesh = configmod.build_mesh(cfg)
        bcs = configmod.build_bcs(cfg, mesh)
        assert bcs.dirichlet_T and bcs.dirichlet_u

    def test_unknown_label_rejected(self):
        cfg = configmod.parse_config(MINIMAL.replace("[bc right]", "[bc riiight]"))
        mesh = configmod.build_mesh(cfg)
        with pytest.raises(AssemblyError, match="riiight"):
            configmod.build_bcs(cfg, mesh)

    def test_missing_region_material(self):
        text = MINIMAL.replace("[material 0]", "[material 5]")
        cfg = configmod.parse_config(text)
        mesh = configmod.build_mesh(cfg)
        with pytest.raises(AssemblyError, match="regions without material"):
            configmod.build_bcs(cfg, mesh)

    def test_flux_on_interior_edge_rejected(self):
        text = """
[mesh]
generator fcbga
level 0

[bc die]
flux 1.0
"""
        cfg = configmod.parse_config(text)
        mesh = configmod.build_mesh(cfg)
        cfg.materials = dict(bench.builtin_cases()["fcbga"].materials)
        with pytest.raises(AssemblyError, match="interior edge"):
            configmod.build_bcs(cfg, mesh)

    @pytest.mark.parametrize("kind, values", [("flux", "1.0"), ("traction", "1.0 2.0")])
    def test_interior_edge_error_names_first_labeled_interior_edge(self, kind, values):
        cfg = configmod.parse_config(f"[mesh]\ngenerator fcbga\nlevel 0\n[bc die]\n{kind} {values}\n")
        mesh = configmod.build_mesh(cfg)
        owners = edge_dict(mesh)
        a, b = next(e for e in mesh.edges_with_label("die") if len(owners.get(e, [])) != 1)
        with pytest.raises(AssemblyError) as info:
            configmod.build_bcs(cfg, mesh)
        assert str(info.value) == f"{kind} label 'die' sits on interior edge ({a},{b})"

    def test_flux_on_edge_of_no_element_rejected(self):
        from fevec.mesh import Mesh, generate_structured_quads
        base = generate_structured_quads(1, 1, 1, 1)
        for mesh in (Mesh(base.coords, *element_table(base), {(0, 3): "diag"}),
                     Mesh(base.coords, [], [], [], {(0, 3): "diag"})):
            cfg = configmod.parse_config("[mesh]\npath m.txt\n[bc diag]\nflux 1.0\n")
            with pytest.raises(AssemblyError, match=r"^flux label 'diag' sits on interior edge \(0,3\)$"):
                configmod.build_bcs(cfg, mesh)

    def test_boundary_flux_and_traction_edges_in_label_order(self):
        cfg = configmod.parse_config("[mesh]\ngenerator structured_quads\nwidth 2\nheight 1\n"
                                     "nx 3\nny 2\n[bc top]\nflux 2.5\n[bc right]\ntraction 1 -1\n"
                                     "[material 0]\nE_MPa 1\nnu 0\nk_W_per_mK 1\n"
                                     "alpha_per_C 0\nT0_C 0\nplane stress\n")
        mesh = configmod.build_mesh(cfg)
        bcs = configmod.build_bcs(cfg, mesh)
        assert bcs.flux_edges == tuple((a, b, 2.5) for a, b in mesh.edges_with_label("top"))
        assert bcs.traction_edges == tuple((a, b, (1.0, -1.0))
                                           for a, b in mesh.edges_with_label("right"))

    def test_mesh_path_loading(self, tmp_path):
        from fevec.mesh import generate_structured_quads, save_mesh
        mesh_path = tmp_path / "m.txt"
        save_mesh(generate_structured_quads(1, 1, 1, 1), str(mesh_path))
        cfg = configmod.parse_config(f"[mesh]\npath {mesh_path}\n")
        mesh = configmod.build_mesh(cfg, str(tmp_path))
        assert mesh.n_nodes == 4


class TestNumberTokens:
    """A number of a config is plain ASCII: ``float`` and ``int`` would read
    ``1_0`` as 10 and Arabic-Indic digits as decimals."""

    @pytest.mark.parametrize("old,new", [
        ("nx 4", "nx 4_0"), ("height 1", "height 1_0"), ("nu 0.3", "nu 0.3_0"),
        ("E_MPa 100", "E_MPa 1_00"), ("tau 0.4", "tau 0._4"), ("n_samples 21", "n_samples ٢١"),
        ("method cg", "cg_max_iter 5_00")])
    def test_refused_with_its_line(self, old, new):
        text = MINIMAL.replace(old, new)
        assert new in text
        with pytest.raises(ParseError, match="must be plain ASCII") as err:
            configmod.parse_config(text)
        assert err.value.line == text.splitlines().index(new) + 1

    @pytest.mark.parametrize("header", ["[material 1_0]", "[material ١]"])
    def test_region_id(self, header):
        text = MINIMAL.replace("[material 0]", header)
        assert header in text
        with pytest.raises(ParseError, match="must be plain ASCII"):
            configmod.parse_config(text)

    def test_bc_value(self):
        cfg = "[mesh]\ngenerator structured_quads\n[bc top]\ndirichlet_T 1_0\n"
        with pytest.raises(ParseError, match="^<config>:4: .*must be plain ASCII"):
            configmod.parse_config(cfg)
