"""Batched probes and block-formatted writers against the per-point oracles.

``post_oracles.PointEvaluator`` locates and evaluates one point at a time;
``FieldEvaluator.locate_many`` / ``evaluate_at`` must return the same element
per point and the same value bit for bit (NaN where outside).  The
line-by-line writers in ``post_oracles`` fix the bytes of ``export_fields``,
``write_probe_csv`` and ``mesh_text``.
"""

import math
import pathlib

import numpy as np
import pytest

from fevec import config as configmod
from fevec import post
from fevec.bench import interface_continuity
from fevec.errors import FevecError, MeshError
from fevec.materials import MaterialProps, Plane
from fevec.mesh import (ElementKind, Mesh, generate_plate_with_hole,
                        generate_quarter_annulus, generate_split_square, mesh_text, save_mesh)
from fevec.solver import SolutionFields, run_pipeline
import post_oracles as oracle
from conftest import element_table, polygon_family

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
FE, VE = ElementKind.FE_QUAD, ElementKind.VE_POLY
QUANTITIES = ("temperature", "ux", "uy", "von_mises", "sxx", "syy", "sxy")
MATERIALS = {r: MaterialProps(E=100.0 * (r + 1), nu=0.2 + 0.05 * r, conductivity=1.0 + r,
                              alpha=1e-5, T0=25.0, plane=Plane.STRAIN if r == 1 else Plane.STRESS)
             for r in range(3)}


def random_fields(mesh, seed):
    rng = np.random.default_rng(seed)
    x, y = mesh.coords.T
    fields = SolutionFields(temperature=1.0 + 3.0 * x - y ** 2 + rng.normal(scale=0.1, size=x.size),
                            displacement=rng.normal(scale=1e-3, size=(mesh.n_nodes, 2)))
    return fields, post.recover_stress(mesh, MATERIALS, fields)


def mesh_points(mesh):
    """Every vertex and every edge midpoint."""
    mid = 0.5 * (mesh.coords[mesh.edges[:, 0]] + mesh.coords[mesh.edges[:, 1]])
    return np.concatenate((mesh.coords, mid))


def segment_points(mesh, seed, count=6):
    """Probe samples (crossings at s and s +- 1e-9 included) of seeded segments from a
    vertex to a point of the box grown by 40 %, so part of most segments lies outside."""
    rng = np.random.default_rng(seed)
    lo, hi = mesh.coords.min(axis=0), mesh.coords.max(axis=0)
    pad = 0.4 * (hi - lo)
    zero = SolutionFields(temperature=np.zeros(mesh.n_nodes), displacement=None)
    evaluator = post.FieldEvaluator(mesh, MATERIALS, zero)
    points = []
    for _ in range(count):
        a = mesh.coords[rng.integers(mesh.n_nodes)]
        b = rng.uniform(lo - pad, hi + pad)
        probe = post.line_probe(evaluator, tuple(a), tuple(b), "temperature", 25)
        points.append(probe.points)
    return np.concatenate(points)


def assert_matches_oracle(mesh, materials, fields, stresses, points):
    evaluator = post.FieldEvaluator(mesh, materials, fields, stresses)
    reference = oracle.PointEvaluator(mesh, materials, fields, stresses)
    located = evaluator.locate_many(points)
    expected = [reference.locate(x, y) for x, y in points.tolist()]
    assert located.tolist() == [-1 if pos is None else pos for pos in expected]
    assert (located >= 0).any()
    solved = {"temperature": fields.temperature is not None,
              "ux": fields.displacement is not None, "uy": fields.displacement is not None}
    quantities = [q for q in QUANTITIES if solved.get(q, stresses is not None)]
    for quantity in quantities:
        got = evaluator.evaluate_at(quantity, located, points)
        want = np.array([reference.evaluate(quantity, x, y) for x, y in points.tolist()])
        assert np.array_equal(got, want, equal_nan=True), quantity
    # the one-point methods are the same path
    for k in range(0, len(points), max(len(points) // 7, 1)):
        x, y = points[k].tolist()
        assert evaluator.locate(x, y) == expected[k]
        want = reference.evaluate(quantities[0], x, y)
        assert np.array_equal(evaluator.evaluate(quantities[0], x, y), want, equal_nan=True)
        if expected[k] is not None:
            assert evaluator.evaluate_in_element(quantities[0], expected[k], x, y) == want


def notch_mesh():
    pts = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    return Mesh(pts, [tuple(range(6))], [VE], [0])


def repeated_id_mesh():
    """A coupled split square listed in reverse, each region id on every third element."""
    base = generate_split_square(2.0, 1.0, 6, 3)
    vertices, kinds, _ = element_table(base)
    regions = [p % 3 for p in range(base.n_elements)]
    return Mesh(base.coords, vertices[::-1], kinds[::-1], regions[::-1], base.boundary_edges)


def plate_mesh():
    """Triangles (VE) in the ring and quads (FE) outside: two vertex counts and kinds."""
    return generate_plate_with_hole(0.5, 2.0, 6, 2, 3, 1.0, split_ring=True)


def star_polygons_mesh():
    """Separate non-convex VE polygons with irregular coordinates, 3 to 10 vertices."""
    polygons = polygon_family(seed=9, count=40)
    start = np.cumsum([0] + [len(poly) for poly in polygons])
    vertices = [tuple(range(start[k], start[k + 1])) for k in range(len(polygons))]
    return Mesh(np.concatenate(polygons), vertices, [VE] * len(polygons),
                [k % 3 for k in range(len(polygons))])


GENERATED = {
    "notch": notch_mesh,
    "plate_split_ring": plate_mesh,
    "annulus": lambda: generate_quarter_annulus(1.0, 2.0, 4, 8, 1.5),
}


class TestProbesMatchPointOracle:
    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_vertices_and_edge_midpoints(self, name):
        mesh = GENERATED[name]()
        fields, stresses = random_fields(mesh, 1)
        assert_matches_oracle(mesh, MATERIALS, fields, stresses, mesh_points(mesh))

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_seeded_segments_partly_outside(self, name, seed):
        mesh = GENERATED[name]()
        fields, stresses = random_fields(mesh, seed)
        points = segment_points(mesh, seed)
        assert (post.FieldEvaluator(mesh, MATERIALS, fields).locate_many(points) < 0).any()
        assert_matches_oracle(mesh, MATERIALS, fields, stresses, points)

    def test_notch_grid(self):
        mesh = notch_mesh()
        fields, stresses = random_fields(mesh, 2)
        g = np.linspace(-0.5, 2.5, 25)
        points = np.column_stack([c.ravel() for c in np.meshgrid(g, g)])
        evaluator = post.FieldEvaluator(mesh, MATERIALS, fields, stresses)
        assert evaluator.locate(1.5, 1.5) is None and evaluator.locate(1.0, 1.5) == 0
        assert_matches_oracle(mesh, MATERIALS, fields, stresses, points)

    def test_rays_through_vertices(self):
        # points level with a vertex: the ray toward +x passes through it
        mesh = star_polygons_mesh()
        fields, stresses = random_fields(mesh, 5)
        xs = np.linspace(mesh.coords[:, 0].min() - 1.0, mesh.coords[:, 0].max() + 1.0, 7)
        points = np.array([(x, y) for y in mesh.coords[:, 1].tolist() for x in xs.tolist()])
        assert_matches_oracle(mesh, MATERIALS, fields, stresses, points)

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.cfg")))
    def test_config_probes(self, name):
        path = CONFIGS / f"{name}.cfg"
        assert_config_probes_match(path.read_text(), str(path))

    @pytest.mark.parametrize("seed", [7, 301])
    def test_cylinder_workload_probe(self, seed):
        # the perfbench cylinder run: 120 x 240 cells, thermal CG, one seeded radial probe
        theta = math.radians(np.random.default_rng(seed).uniform(2.0, 88.0))
        c, s = math.cos(theta), math.sin(theta)
        text = (CONFIGS / "cylinder.cfg").read_text().split("[probe ")[0]
        edits = (("n_r 30", "n_r 120"), ("n_t 60", "n_t 240"),
                 ("method direct", "method cg\nfields thermal"))
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        text += (f"[probe radial_T]\nquantity temperature\nx0 {21 * c!r}\ny0 {21 * s!r}\n"
                 f"x1 {59 * c!r}\ny1 {59 * s!r}\nn_samples 81\n")
        assert_config_probes_match(text, str(CONFIGS / "cylinder.cfg"))

    def test_interface_continuity_matches_per_node_loop(self):
        for mesh in (plate_mesh(), generate_split_square(2.0, 1.0, 5, 3)):
            fields, _ = random_fields(mesh, 4)
            assert interface_continuity(mesh, MATERIALS, fields) == \
                oracle.interface_continuity(mesh, MATERIALS, fields)


def assert_config_probes_match(text, path):
    cfg = configmod.parse_config(text, path)
    mesh = configmod.build_mesh(cfg, str(CONFIGS))
    fields = run_pipeline(mesh, cfg.materials, configmod.build_bcs(cfg, mesh), cfg.solver)
    stresses = None if fields.displacement is None else \
        post.recover_stress(mesh, cfg.materials, fields)
    assert cfg.probes
    evaluator = post.FieldEvaluator(mesh, cfg.materials, fields, stresses)
    points = []
    for spec in cfg.probes:
        probe = post.line_probe(evaluator, spec.p0, spec.p1, spec.quantity, spec.n_samples)
        points.append(probe.points)
    assert_matches_oracle(mesh, cfg.materials, fields, stresses, np.concatenate(points))


class TestEvaluationErrors:
    def test_inverted_quad_names_the_element(self):
        coords = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]
        mesh = Mesh(coords, [(0, 1, 2, 3)], [FE], [0])      # clockwise
        with pytest.raises(MeshError, match=r"^element 0: non-positive area -1 \(clockwise"):
            post.FieldEvaluator(mesh, MATERIALS, SolutionFields(
                temperature=np.zeros(4), displacement=None))

    def test_checks_run_only_when_a_point_is_located(self):
        mesh = plate_mesh()
        evaluator = post.FieldEvaluator(mesh, MATERIALS, SolutionFields(None, None))
        assert np.isnan(evaluator.evaluate_at("nonsense", [-1, -1], [[9, 9], [8, 8]])).all()
        for quantity, message in (("nonsense", "unknown probe quantity"),
                                  ("von_mises", "recovered stresses"),
                                  ("temperature", "no temperature"), ("uy", "no displacement")):
            with pytest.raises(FevecError, match=message):
                evaluator.evaluate_at(quantity, [-1, 0], [[9, 9], mesh.coords[0]])


# ---------------------------------------------------------------------------
# Writers

SPECIAL = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -2.5e300, 1.0 / 3.0])


def special_fields(mesh, seed, temperature=True, displacement=True):
    rng = np.random.default_rng(seed)
    t = rng.normal(scale=100.0, size=mesh.n_nodes)
    u = rng.normal(scale=1e-3, size=(mesh.n_nodes, 2))
    t[:SPECIAL.size] = SPECIAL[:mesh.n_nodes]
    u.ravel()[-SPECIAL.size:] = SPECIAL[:u.size]
    return SolutionFields(temperature=t if temperature else None,
                          displacement=u if displacement else None)


def special_stresses(mesh, seed):
    rng = np.random.default_rng(seed)
    sigma = rng.normal(scale=50.0, size=(mesh.n_elements, 3))
    vm = np.abs(rng.normal(scale=50.0, size=mesh.n_elements))
    sigma.ravel()[:SPECIAL.size] = SPECIAL[:sigma.size]
    vm[-SPECIAL.size:] = SPECIAL[:vm.size]
    return [post.ElementStress(k, sigma[k], float(vm[k]), "x") for k in range(mesh.n_elements)]


def float64_node_mesh():
    """Node coordinates given as a list of numpy rows."""
    base = generate_split_square(1.0, 1.0, 3, 2)
    return Mesh(list(base.coords), *element_table(base))


def interleaved_plate_mesh():
    """Triangles and quads alternating in the element list."""
    base = plate_mesh()
    vertices, kinds, regions = element_table(base)
    return Mesh(base.coords, vertices[1::2] + vertices[::2], kinds[1::2] + kinds[::2],
                regions[1::2] + regions[::2], base.boundary_edges)


WRITER_MESHES = {**GENERATED, "repeated_ids": repeated_id_mesh, "float64_nodes": float64_node_mesh,
                 "interleaved": interleaved_plate_mesh}


class TestWritersMatchLineOracles:
    @pytest.mark.parametrize("name", sorted(WRITER_MESHES))
    def test_export_fields(self, name, tmp_path):
        mesh = WRITER_MESHES[name]()
        path = tmp_path / "f.vtk"
        listed = special_stresses(mesh, 2)
        # the list and its record array write the same bytes, those of the oracle
        for fields, stresses in ((special_fields(mesh, 1), listed),
                                 (special_fields(mesh, 1), post.as_stresses(mesh, listed)),
                                 (special_fields(mesh, 3, displacement=False), None),
                                 (special_fields(mesh, 4, temperature=False),
                                  post.as_stresses(mesh, special_stresses(mesh, 5)))):
            post.export_fields(mesh, fields, stresses, str(path))
            assert path.read_text() == oracle.fields_vtk_text(mesh, fields, stresses)

    @pytest.mark.parametrize("name", sorted(WRITER_MESHES))
    def test_mesh_text(self, name, tmp_path):
        mesh = WRITER_MESHES[name]()
        assert mesh_text(mesh) == oracle.mesh_text(mesh)
        save_mesh(mesh, str(tmp_path / "m.txt"))
        assert (tmp_path / "m.txt").read_text() == oracle.mesh_text(mesh)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_probe_csv(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        m = 40
        values = rng.normal(size=m)
        values[rng.permutation(m)[:SPECIAL.size]] = SPECIAL
        probe = post.LineProbe(name="p", quantity="temperature", p0=(0.0, -0.0), p1=(1.0, 2.0),
                               s=np.linspace(0.0, 1.0, m), points=rng.normal(size=(m, 2)),
                               values=values, inside=np.isfinite(values))
        probe.points[0] = (-0.0, math.nan)
        path = tmp_path / "p.csv"
        post.write_probe_csv(probe, str(path))
        assert path.read_text() == oracle.probe_csv_text(probe)
