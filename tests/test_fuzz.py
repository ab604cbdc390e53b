"""Token-level fuzzing of mesh files and run configs.

Each input is a shipped config or a small mesh file with a few tokens
dropped, duplicated, swapped or replaced by a hostile value; a config may
also have a whole section repeated after itself.  Whatever the
mutation, ``load_mesh`` must either succeed or raise a typed
``ParseError``/``MeshError``; ``parse_config``, ``build_mesh`` and
``build_bcs`` may also raise ``AssemblyError``, and a boundary value that is
not finite must already be a ``ParseError``.  Run end to end by
``cli.cmd_run``, a mutated config must end in a documented exit code, and a
run that succeeds must write only finite numbers.  The draws are seeded
(``derandomize``), so a failure reproduces.
"""

import itertools
import math
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fevec import cli
from fevec import config as configmod
from fevec.errors import AssemblyError, MeshError, ParseError
from fevec.mesh import generate_split_square, load_mesh, mesh_text

CONFIGS = sorted((pathlib.Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
MESH_TEXT = mesh_text(generate_split_square(2.0, 1.0, 2, 1))
HOSTILE = ("nan", "inf", "-1", "1e400", "garbage")

# Largest value of each integer generator parameter: swapped tokens can turn
# a level or a subdivision count into a number that would build a huge mesh.
CAPS = {"level": 1, "nx": 8, "ny": 8, "n_r": 8, "n_t": 16, "n_r_ring": 4, "n_r_outer": 8}


TOKEN_OPS = ("drop", "duplicate", "swap", "replace")


@st.composite
def mutated(draw, text: str, ops=TOKEN_OPS) -> str:
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        slots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
        i, j = draw(st.sampled_from(slots))
        op = draw(st.sampled_from(ops))
        if op == "section":     # the section holding line i, repeated after itself
            heads = [k for k, toks in enumerate(lines) if toks and toks[0].startswith("[")]
            start = max([k for k in heads if k <= i], default=0)
            end = min([k for k in heads if k > i], default=len(lines))
            lines[end:end] = [list(toks) for toks in lines[start:end]]
        elif op == "drop":
            del lines[i][j]
        elif op == "duplicate":
            lines[i].insert(j, lines[i][j])
        elif op == "swap":
            k, m = draw(st.sampled_from(slots))
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        else:
            lines[i][j] = draw(st.sampled_from(HOSTILE))
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


def capped(text: str) -> str:
    """``text`` with every ``<key> <integer>`` line of a ``CAPS`` key held to its cap."""
    lines = []
    for line in text.splitlines():
        toks = line.split()
        if len(toks) > 1 and toks[0] in CAPS and toks[1].lstrip("-").isdigit():
            toks[1] = str(min(int(toks[1]), CAPS[toks[0]]))
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def without_output(text: str) -> str:
    """``text`` without its ``[output]`` section."""
    lines, skip = [], False
    for line in text.splitlines():
        if line.startswith("["):
            skip = line.strip() == "[output]"
        if not skip:
            lines.append(line)
    return "\n".join(lines) + "\n"


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
    @given(text=mutated(path.read_text(), TOKEN_OPS + ("section",)))
    def run(text):
        try:
            cfg = configmod.parse_config(capped(text), str(path))
        except ParseError:
            return
        assert all(v is None or math.isfinite(v) for _, spec in cfg.bcs for v in spec.values)
        try:
            configmod.build_bcs(cfg, configmod.build_mesh(cfg, str(scratch)))
        except (ParseError, MeshError, AssemblyError):
            pass

    run()


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_mutated_config_runs_end_to_end(tmp_path, path):
    runs = itertools.count()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(text=mutated(without_output(path.read_text()), TOKEN_OPS + ("section",)))
    def run(text):
        out = tmp_path / f"out{next(runs)}"
        config = tmp_path / path.name
        config.write_text(capped(text) + f"[output]\ndir {out}\n")
        code = cli.cmd_run(str(config))
        assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_SOLVER, cli.EXIT_IO)
        if code == cli.EXIT_OK:
            for written in out.iterdir():
                words = re.findall(r"[^\s,=]+", written.read_text().lower())
                assert not {"nan", "inf"} & {w.lstrip("+-") for w in words}, written.name

    run()
