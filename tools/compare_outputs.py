"""Byte-compare the outputs of two source trees of fevec.

    python tools/compare_outputs.py PARENT_TREE [--work DIR]

This checkout and PARENT_TREE each run in a working directory of their own,
with ``PYTHONPATH`` set to their ``src``: ``fevec run``, ``fevec mesh-gen`` and
``fevec validate`` of the ``mesh.txt`` that mesh-gen writes, on every
``configs/*.cfg`` of this checkout and on ``cylinder_cg``, then ``fevec bench
all``.  So each mesh file compares byte for byte, and its load round trip
through ``validate``, not only through the hash in ``provenance.txt``.
``cylinder_cg`` is ``configs/cylinder.cfg`` solved for temperature only by
Jacobi-CG, the path no shipped config takes (natural-order assembly, CG, an
export without displacement).  Both trees get the same config text, so
``provenance.txt`` compares too; ``fevec bench`` reads
each tree's own shipped configs.  Every output file, and each command's
stdout and exit status, must be equal byte for byte.  The differences are
listed and the exit status is 1 if there is any, else 0.  The working
directories go under ``--work`` when it is given (kept), else under a
temporary directory (removed).
"""

import argparse
import filecmp
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

CLI = "import sys; from fevec.cli import main; sys.exit(main(sys.argv[1:]))"


def cylinder_cg(text: str) -> str:
    """``configs/cylinder.cfg`` as ``cylinder_cg``: ``method cg`` and ``fields thermal``,
    without the von Mises probe that a thermal-only run refuses, into ``out/cylinder_cg``."""
    edits = {"method direct": "method cg\nfields thermal",
             "dir out/cylinder": "dir out/cylinder_cg"}
    for old in ("[probe radial_vm]", *edits):
        if old not in text:
            raise SystemExit(f"configs/cylinder.cfg: no '{old}' line to derive cylinder_cg from")
    text = "".join(section for section in re.split(r"(?m)^(?=\[)", text)
                   if not section.startswith("[probe radial_vm]"))
    for old, new in edits.items():
        text = text.replace(old, new)
    return text


def run_tree(tree: pathlib.Path, configs: pathlib.Path, work: pathlib.Path) -> None:
    """``run``, ``mesh-gen`` and ``validate`` of every shipped config and of
    ``cylinder_cg``, and ``bench all``, with ``tree``'s source, inside ``work``."""
    shutil.copytree(configs, work / "configs")
    (work / "configs" / "cylinder_cg.cfg").write_text(
        cylinder_cg((configs / "cylinder.cfg").read_text()))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    commands = {}
    for path in sorted((work / "configs").glob("*.cfg")):
        out = re.search(r"(?m)^\s*dir\s+(\S+)", path.read_text())
        commands[f"run_{path.stem}"] = ["run", f"configs/{path.name}"]
        commands[f"mesh_gen_{path.stem}"] = ["mesh-gen", f"configs/{path.name}"]
        commands[f"validate_{path.stem}"] = ["validate", f"{out[1] if out else 'out'}/mesh.txt"]
    commands["bench_all"] = ["bench", "all", "-o", "bench_out"]
    streams = work / "stdout"
    streams.mkdir()
    for name, args in commands.items():
        print(f"{tree}: fevec {' '.join(args)}", file=sys.stderr, flush=True)
        done = subprocess.run([sys.executable, "-c", CLI, *args], cwd=work, env=env,
                              capture_output=True)
        (streams / name).write_bytes(done.stdout + f"exit {done.returncode}\n".encode())
        if done.returncode:
            sys.stderr.write(done.stderr.decode(errors="replace"))


def differences(a: pathlib.Path, b: pathlib.Path) -> list[str]:
    """The files that are in only one of ``a`` and ``b``, then those that differ."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    return ([f"only in {a.name}: {path}" for path in sorted(files[0] - files[1])]
            + [f"only in {b.name}: {path}" for path in sorted(files[1] - files[0])]
            + [f"differs: {path}" for path in sorted(files[0] & files[1])
               if not filecmp.cmp(a / path, b / path, shallow=False)])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path, help="source tree to compare against")
    parser.add_argument("--work", type=pathlib.Path, help="keep the working directories here")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "tree": pathlib.Path(__file__).resolve().parents[1]}
    for tree in trees.values():
        if not (tree / "src" / "fevec").is_dir():
            parser.error(f"{tree} has no src/fevec")
    base = args.work or pathlib.Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    try:
        for name, tree in trees.items():
            (base / name).mkdir(parents=True)
            run_tree(tree, trees["tree"] / "configs", base / name)
        found = differences(base / "parent", base / "tree")
    finally:
        if args.work is None:
            shutil.rmtree(base)
    for line in found:
        print(line)
    print(f"{len(found)} difference(s)" if found else "outputs are byte-identical")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
