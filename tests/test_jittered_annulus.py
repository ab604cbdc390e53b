"""The cylinder ladder on a jittered mesh, where FE, VE and their coupling differ.

On the bench's polar quarter annulus the exact temperature depends on the
radius alone, and the fe, ve and coupled nodal errors agree to about 1e-11
relative, whatever the VE stabilization ``tau``: the study checks a 1D radial
scheme.  Here every node off the two symmetry cuts moves along its ring by a
seeded angle of up to 0.3 of the angular step.  The nodes keep their radii, so
the exact field still holds at every node, but the cells are no longer
sectors, and each method, and ``tau``, gives its own error.

The errors are pinned as measured at level 1 (1 891 nodes); the solve is
deterministic, so only round-off may move them.  A stabilization term scaled
by another factor moves them far outside the tolerance.
"""

import math

import numpy as np
import pytest

from fevec import bench
from fevec.mesh import Mesh, validate_mesh
from fevec.solver import SolveOptions, run_pipeline
from conftest import element_table

LEVEL = 1
# Nodal temperature RMS error / 500 degC at LEVEL, as measured (numpy 2.4, scipy 1.17).
VE_ERROR = {0.1: 4.8794015368058114e-4, 0.5: 4.6539950204888415e-4, 10.0: 3.6378610523747184e-4}
METHOD_ERROR = {"fe": 4.7185464706844165e-4, "ve": VE_ERROR[0.5],
                "coupled": 4.6880859149256676e-4}
RTOL = 1e-6


def jittered_annulus(case, level, method, seed=1):
    """The case's mesh at ``level`` with each node off the cuts moved along its ring by
    a uniform angle in +-0.3 of the angular step; the same shifts for every method."""
    mesh = case.build_mesh(level, method)
    x, y = mesh.coords.T
    radius, angle = np.hypot(x, y), np.arctan2(y, x)
    step = 0.5 * math.pi / (int(case.config.generator_params["n_t"]) * 2 ** level // 2)
    shift = np.random.default_rng(seed).uniform(-0.3, 0.3, mesh.n_nodes) * step
    angle = angle + np.where((x == 0.0) | (y == 0.0), 0.0, shift)
    coords = np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))
    jittered = Mesh(coords, *element_table(mesh), mesh.boundary_edges)
    assert validate_mesh(jittered) == []
    return jittered


def level_error(method, tau=0.5):
    case = bench.builtin_cases()["cylinder"]
    mesh = jittered_annulus(case, LEVEL, method)
    assert mesh.n_nodes == 1891
    fields = run_pipeline(mesh, case.materials, case.make_bcs(mesh),
                          SolveOptions(method="direct", fields="thermal", tau=tau))
    return case.error(mesh, fields, None, LEVEL, method)


def test_ve_error_moves_with_stabilization():
    errors = {tau: level_error("ve", tau) for tau in VE_ERROR}
    assert errors == pytest.approx(VE_ERROR, rel=RTOL)
    # far apart, where the polar ladder gives the same error to 9 digits
    values = sorted(errors.values())
    assert all(b > 1.04 * a for a, b in zip(values, values[1:]))


def test_methods_differ():
    errors = {method: level_error(method) for method in METHOD_ERROR}
    assert errors == pytest.approx(METHOD_ERROR, rel=RTOL)
    assert errors["ve"] < errors["coupled"] < errors["fe"]
    assert errors["fe"] > 1.005 * errors["coupled"] and errors["coupled"] > 1.005 * errors["ve"]
