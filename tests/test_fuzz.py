"""Token-level fuzzing of mesh files and run configs.

Each input is a shipped config or a small mesh file with a few tokens
dropped, duplicated, swapped or replaced by a hostile value.  Whatever the
mutation, ``load_mesh``, ``parse_config`` and ``build_mesh`` must either
succeed or raise a typed ``ParseError``/``MeshError``.  The draws are seeded
(``derandomize``), so a failure reproduces.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec import config as configmod
from fevec.errors import MeshError, ParseError
from fevec.mesh import generate_split_square, load_mesh, mesh_text

CONFIGS = sorted((pathlib.Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
MESH_TEXT = mesh_text(generate_split_square(2.0, 1.0, 2, 1))
HOSTILE = ("nan", "inf", "-1", "1e400", "garbage")

# Largest value of each integer generator parameter: swapped tokens can turn
# a level or a subdivision count into a number that would build a huge mesh.
CAPS = {"level": 1, "nx": 8, "ny": 8, "n_r": 8, "n_t": 16, "n_r_ring": 4, "n_r_outer": 8}


@st.composite
def mutated(draw, text: str) -> str:
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        slots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
        i, j = draw(st.sampled_from(slots))
        op = draw(st.sampled_from(("drop", "duplicate", "swap", "replace")))
        if op == "drop":
            del lines[i][j]
        elif op == "duplicate":
            lines[i].insert(j, lines[i][j])
        elif op == "swap":
            k, m = draw(st.sampled_from(slots))
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        else:
            lines[i][j] = draw(st.sampled_from(HOSTILE))
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


def capped(cfg: configmod.RunConfig) -> configmod.RunConfig:
    for name, cap in CAPS.items():
        raw = cfg.generator_params.get(name)
        if raw is not None and raw.lstrip("-").isdigit() and int(raw) > cap:
            cfg.generator_params[name] = str(cap)
    return cfg


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=mutated(MESH_TEXT))
def test_mutated_mesh_file(scratch, text):
    path = scratch / "mesh.txt"
    path.write_text(text)
    try:
        load_mesh(str(path))
    except (ParseError, MeshError):
        pass


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_mutated_config(scratch, path):
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(text=mutated(path.read_text()))
    def run(text):
        try:
            configmod.build_mesh(capped(configmod.parse_config(text, str(path))), str(scratch))
        except (ParseError, MeshError):
            pass

    run()
