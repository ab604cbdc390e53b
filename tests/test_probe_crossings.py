"""Probe edge crossings against the all-edges loop they replaced.

``crossings_oracle`` is the scalar test run on every mesh edge.
``post._edge_crossings`` prefilters the edges in one array pass and runs the
same scalar test on the survivors; the returned lists must be identical.
"""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec import config as configmod
from fevec import post
from fevec.mesh import generate_quarter_annulus, generate_split_square
from conftest import edge_dict

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
MESHES = {
    "split_square": generate_split_square(2.0, 1.0, 6, 4),
    "annulus": generate_quarter_annulus(1.0, 2.0, 4, 6, 1.5),
}


def crossings_oracle(mesh, a, b):
    d = b - a
    len2 = float(d @ d)
    if len2 == 0.0:
        return []
    out = set()
    for (i, j) in edge_dict(mesh):
        p = mesh.coords[i]
        q = mesh.coords[j]
        e = q - p
        denom = d[0] * e[1] - d[1] * e[0]
        if abs(denom) < 1e-14 * math.sqrt(len2) * max(math.hypot(*e), 1e-300):
            continue
        w = p - a
        s = (w[0] * e[1] - w[1] * e[0]) / denom
        t = (w[0] * d[1] - w[1] * d[0]) / denom
        if -1e-12 <= s <= 1.0 + 1e-12 and -1e-9 <= t <= 1.0 + 1e-9:
            out.add(min(max(round(s, 12), 0.0), 1.0))
    return sorted(out)


def assert_same_crossings(mesh, a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert post._edge_crossings(mesh, a, b) == crossings_oracle(mesh, a, b)


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.cfg")))
def test_config_probes_match_oracle(name):
    path = CONFIGS / f"{name}.cfg"
    cfg = configmod.parse_config(path.read_text(), str(path))
    mesh = configmod.build_mesh(cfg, str(CONFIGS))
    assert cfg.probes
    for spec in cfg.probes:
        a, b = np.array(spec.p0, dtype=float), np.array(spec.p1, dtype=float)
        assert post._edge_crossings(mesh, a, b)
        assert_same_crossings(mesh, a, b)


@st.composite
def segments(draw):
    """(mesh name, a, b): free segments, segments along edges, through vertices."""
    name = draw(st.sampled_from(sorted(MESHES)))
    mesh = MESHES[name]
    coords = mesh.coords
    lo, hi = coords.min(axis=0) - 0.3, coords.max(axis=0) + 0.3
    unit = st.floats(0.0, 1.0)

    def point():
        return lo + np.array([draw(unit), draw(unit)]) * (hi - lo)

    def vertex():
        return coords[draw(st.integers(0, mesh.n_nodes - 1))]

    how = draw(st.sampled_from(["free", "edge", "vertices", "vertex_point", "through_vertex"]))
    if how == "free":
        return name, point(), point()
    if how == "edge":                  # on an edge's line, possibly beyond its ends
        edges = sorted(edge_dict(mesh))
        i, j = edges[draw(st.integers(0, len(edges) - 1))]
        p, q = coords[i], coords[j]
        s0, s1 = draw(st.floats(-2.0, 1.0)), draw(st.floats(0.0, 3.0))
        return name, p + s0 * (q - p), p + s1 * (q - p)
    if how == "vertices":
        return name, vertex(), vertex()
    if how == "vertex_point":
        return name, vertex(), point()
    a, v = point(), vertex()            # through a vertex, ending beyond it
    return name, a, v + draw(st.floats(0.01, 2.0)) * (v - a)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(segments())
def test_random_segments_match_oracle(segment):
    name, a, b = segment
    assert_same_crossings(MESHES[name], a, b)


def test_degenerate_segment_has_no_crossings():
    mesh = MESHES["split_square"]
    point = mesh.coords[3]
    assert post._edge_crossings(mesh, point, point.copy()) == []
