"""Convergence on merged VE polygons, through the solve, the line probe and the VTK export.

An n x n unit square: the left half FE quads, the right half VE cells merged by
``merge_ve_blocks`` into 6-vertex polygons with collinear mid-side nodes and
non-convex 8-vertex L-shapes.  The harmonic temperature T = exp(x) sin(y) and
the displacement u = grad(x^3 - 3 x y^2) = (3x^2 - 3y^2, -6xy), which is in
equilibrium without body force for any elastic constants, are prescribed on
the boundary, with alpha = 0.  On the unmerged grid the nodes carry no error
in this u and a far smaller one in T, so the nodal error is mostly the merged
polygons'.  Nodal errors are read back from the exported file, probe errors
from ``line_probe``; each must fall at close to the rate h^2.
"""

import numpy as np

from fevec import post
from fevec.assembly import BoundaryConditionSet
from fevec.materials import MaterialProps, Plane
from fevec.mesh import generate_split_square, validate_mesh
from fevec.solver import run_pipeline
from merged_polygons import merge_ve_blocks

LEVELS = (6, 12, 24)
# Least-squares slopes of log error against log h over LEVELS, as measured:
# nodal RMS 1.61 (T) and 1.54 (u), probe maximum 2.03 (T) and 1.85 (u).  The
# coarsest level is not yet asymptotic: the nodal slopes are 1.34 and 1.21
# from n = 6 to 12, and 1.88 for both from 12 to 24.
MIN_SLOPE = {"T nodal": 1.55, "u nodal": 1.5, "T probe": 1.95, "u probe": 1.8}
PROBE = ((0.0, 0.1), (1.0, 0.9))     # across the FE half, the interface and the polygons


def temperature_of(xy):
    return np.exp(xy[..., 0]) * np.sin(xy[..., 1])


def displacement_of(xy):
    x, y = xy[..., 0], xy[..., 1]
    return np.stack([3.0 * x**2 - 3.0 * y**2, -6.0 * x * y], axis=-1)


def read_point_data(path, n_nodes):
    """Temperature and displacement rows of an ``export_fields`` file."""
    lines = path.read_text().splitlines()
    t = lines.index("SCALARS temperature double 1") + 2     # after LOOKUP_TABLE
    u = lines.index("VECTORS displacement double") + 1
    return (np.array(lines[t:t + n_nodes], dtype=float),
            np.array([row.split()[:2] for row in lines[u:u + n_nodes]], dtype=float))


def level_errors(n, tmp_path):
    """Nodal RMS and probe maximum errors of T and u on the merged n x n square."""
    mesh = merge_ve_blocks(generate_split_square(1.0, 1.0, n, n), n, n)
    assert validate_mesh(mesh) == []
    assert {(False, 6), (False, 8)} <= mesh.vertex_groups.keys()
    mats = {0: MaterialProps(E=200.0, nu=0.3, conductivity=2.0, alpha=0.0, T0=20.0,
                             plane=Plane.STRAIN)}
    bcs = BoundaryConditionSet()
    for label in sorted(mesh.labels()):
        for v in mesh.nodes_with_label(label):
            bcs.set_temperature(v, float(temperature_of(mesh.coords[v])))
            ux, uy = displacement_of(mesh.coords[v])
            bcs.set_displacement(v, float(ux), float(uy))
    fields = run_pipeline(mesh, mats, bcs)

    path = tmp_path / f"fields_{n}.vtk"
    post.export_fields(mesh, fields, None, str(path))
    t, u = read_point_data(path, mesh.n_nodes)
    assert np.array_equal(t, fields.temperature)
    assert np.array_equal(u, fields.displacement)
    errors = {"T nodal": np.sqrt(np.mean((t - temperature_of(mesh.coords)) ** 2)),
              "u nodal": np.sqrt(np.mean(np.sum((u - displacement_of(mesh.coords)) ** 2,
                                                axis=1)))}

    evaluator = post.FieldEvaluator(mesh, mats, fields)
    probes = {q: post.line_probe(evaluator, *PROBE, q, 201) for q in ("temperature", "ux", "uy")}
    points = probes["temperature"].points
    exact = {"temperature": temperature_of(points), "ux": displacement_of(points)[:, 0],
             "uy": displacement_of(points)[:, 1]}
    miss = {}
    for q, probe in probes.items():
        assert probe.inside.all() and np.array_equal(probe.points, points)
        miss[q] = np.abs(probe.values - exact[q]).max()
    errors["T probe"] = miss["temperature"]
    errors["u probe"] = max(miss["ux"], miss["uy"])
    return errors


def test_merged_polygons_converge_at_second_order(tmp_path):
    errors = [level_errors(n, tmp_path) for n in LEVELS]
    log_h = np.log(1.0 / np.array(LEVELS))
    for name, bound in MIN_SLOPE.items():
        slope = np.polyfit(log_h, np.log([e[name] for e in errors]), 1)[0]
        assert slope >= bound, f"{name} error slope {slope:.3f} below {bound}"
