"""Scratch memory of the stages of a run, measured with tracemalloc.

Each test measures one call with ``conftest.scratch_bytes`` (its traced
peak above the bytes live before it).  The stages of a thermal run use the
cylinder config's quarter annulus at n_r 60, n_t 120: 7 381 nodes, 7 200
elements.  ``BEFORE`` holds
what each call took when it made its temporaries over the whole mesh at
once, ``NOW`` what it takes with bounded windows, in bytes, both measured
with numpy 2.4 and scipy 1.17.  The bound, 1.5 x ``NOW``, sits below
``BEFORE``, so a temporary that grows back with the mesh fails it.

Two stages pin the index width of the mesh tables (int32 where the mesh
fits it): the bytes of the arrays a built mesh holds, and the thermal
assembly with the node pattern it builds.  Their ``BEFORE`` is what they
took with int64 tables and with the assembly's pattern-sized slot numbers.
Most of the assembly's peak at this size is the element kernels' window
arrays, which do not grow with the mesh, so its bound is 1.1 x ``NOW``.

The mechanical assembly runs on the FC-BGA config's mesh (7 041 nodes,
3 520 of its 6 656 elements VE quads), with its node pattern built, as the
thermal assembly leaves it in a run.  Its ``BEFORE`` is what it took with
VE stacks of a whole 1 024-element window and column blocks of 8 192 rows;
``NOW`` bounds each VE stack to ``mesh.STACK_ENTRIES`` element-matrix entries
and each column block to ``assembly._ROW_BLOCK`` / p rows, p dofs per node.  More than half
of its peak is the system it returns, so its bound is 1.1 x ``NOW`` too.
"""

import hashlib

import numpy as np
import pytest

from fevec import cli, post
from fevec.assembly import assemble_mechanical, assemble_thermal
from fevec.config import build_bcs, build_mesh, parse_config
from fevec.mesh import Mesh, mesh_text_chunks, validate_mesh
from fevec.solver import SolutionFields
from conftest import element_table, scratch_bytes
from test_mesh import CONFIGS

BEFORE = {"mesh": 4_008_814, "components": 1_725_637, "evaluator": 2_091_944,
          "probe": 1_308_002, "export": 1_524_265, "provenance": 2_651_039,
          "mesh bytes": 1_573_944, "assembly": 3_418_232, "mechanical assembly": 7_759_105}
NOW = {"mesh": 1_965_450, "components": 441_511, "evaluator": 995_297,
       "probe": 369_140, "export": 860_752, "provenance": 1_517_194,
       "mesh bytes": 878_420, "assembly": 2_979_612, "mechanical assembly": 5_246_415}
MARGIN = {"assembly": 1.1, "mechanical assembly": 1.1}


def arrays(value):
    """Every array in ``value``, through dicts, tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (dict, tuple, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from arrays(item)


@pytest.fixture(scope="module")
def run():
    text = (CONFIGS / "cylinder.cfg").read_text()
    cfg = parse_config(text.replace("n_r 30", "n_r 60").replace("n_t 60", "n_t 120"))
    mesh = build_mesh(cfg)
    assert (mesh.n_nodes, mesh.n_elements) == (7381, 7200)
    assert not validate_mesh(mesh)
    fields = SolutionFields(temperature=np.log(np.hypot(*mesh.coords.T)), displacement=None)
    return cfg, mesh, fields


def check(stage, used):
    bound = MARGIN.get(stage, 1.5) * NOW[stage]
    assert bound < BEFORE[stage]
    assert used <= bound, f"{stage}: {used} bytes of scratch, bound {bound:.0f}"


def test_mesh_build(run):
    _, mesh, _ = run
    vertices, kinds, regions = element_table(mesh)
    verts = np.array(vertices, dtype=np.int64)
    again, used = scratch_bytes(Mesh, mesh.coords, verts, kinds, regions, mesh.boundary_edges)
    assert np.array_equal(again.edges, mesh.edges)
    check("mesh", used)


def test_mesh_holds_narrow_tables(run):
    _, mesh, _ = run
    again = Mesh(mesh.coords, *element_table(mesh), mesh.boundary_edges)
    check("mesh bytes", sum(a.nbytes for a in arrays(vars(again))))


def test_thermal_assembly(run):
    cfg, mesh, _ = run
    again = Mesh(mesh.coords, *element_table(mesh), mesh.boundary_edges)
    validate_mesh(again)
    bcs = build_bcs(cfg, again)
    system, used = scratch_bytes(assemble_thermal, again, cfg.materials, bcs)
    assert system.matrix.shape == (7381 - 2 * 121,) * 2
    check("assembly", used)


def test_mechanical_assembly():
    cfg = parse_config((CONFIGS / "fcbga.cfg").read_text(), str(CONFIGS / "fcbga.cfg"))
    mesh = build_mesh(cfg, str(CONFIGS))
    assert (mesh.n_nodes, mesh.n_elements) == (7041, 6656) and not validate_mesh(mesh)
    bcs = build_bcs(cfg, mesh)
    mesh.node_pattern
    x, y = mesh.coords.T
    temperature = 50.0 + 400.0 * np.exp(-x * x - y * y)
    system, used = scratch_bytes(assemble_mechanical, mesh, cfg.materials, bcs, temperature,
                                 elimination_order=True)
    assert system.matrix.shape == (13648, 13648)
    check("mechanical assembly", used)


def test_node_components(run):
    _, mesh, _ = run
    again = Mesh(mesh.coords, *element_table(mesh))
    again.node_pattern      # the thermal assembly builds it before the well-posedness check
    (n_parts, _), used = scratch_bytes(lambda: again.node_components)
    assert n_parts == 1
    check("components", used)


def test_field_evaluator(run):
    cfg, mesh, fields = run
    _, used = scratch_bytes(post.FieldEvaluator, mesh, cfg.materials, fields)
    check("evaluator", used)


def test_line_probe(run):
    cfg, mesh, fields = run
    evaluator = post.FieldEvaluator(mesh, cfg.materials, fields)
    probe, used = scratch_bytes(post.line_probe, evaluator, (16.8, 12.6), (47.2, 35.4),
                                "temperature", 81)
    assert probe.inside.all() and probe.s.size > 81
    check("probe", used)


def test_export_fields(run, tmp_path):
    _, mesh, fields = run
    _, used = scratch_bytes(post.export_fields, mesh, fields, None, str(tmp_path / "f.vtk"))
    check("export", used)


def test_provenance_hash(run, tmp_path):
    cfg, mesh, _ = run
    path = tmp_path / "provenance.txt"
    _, used = scratch_bytes(cli._write_provenance, cfg, mesh, str(path))
    digest = hashlib.sha256()
    for chunk in mesh_text_chunks(mesh):
        digest.update(chunk.encode())
    assert f"mesh_sha256 {digest.hexdigest()}\n" in path.read_text()
    check("provenance", used)
