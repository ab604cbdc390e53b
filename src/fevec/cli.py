"""Batch command-line front-end.

Subcommands: ``run <config>``, ``bench <case|all>``, ``validate <mesh>``,
``mesh-gen <spec>``.  Exit codes: 0 success, 1 validation failure, 2 solver
failure, 3 I/O or parse error.  Every failure prints a single
machine-parsable ``error:<code>:`` line to stderr before any detail.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys

from . import bench as benchmod
from . import config as configmod
from . import post
from .errors import AssemblyError, FevecError, MeshError, ParseError, SolverError
from .mesh import Mesh, _read_text, load_mesh, mesh_text_chunks, save_mesh, validate_mesh
from .solver import SolutionFields, run_pipeline

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3


def _fail(code: int, message: str) -> int:
    print(f"error:{code}: {message}", file=sys.stderr)
    return code


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_config(path: str) -> tuple[configmod.RunConfig, Mesh]:
    """Parse a run or mesh-gen spec and build its mesh (OSError, ParseError, MeshError)."""
    cfg = configmod.parse_config(_read_text(path), path)
    return cfg, configmod.build_mesh(cfg, os.path.dirname(path) or ".")


def cmd_run(config_path: str) -> int:
    try:
        cfg, mesh = _read_config(config_path)
    except (OSError, ParseError, MeshError) as exc:
        return _fail(EXIT_VALIDATION if isinstance(exc, MeshError) else EXIT_IO, str(exc))

    report = validate_mesh(mesh)
    if report:
        return _fail(EXIT_VALIDATION,
                     f"mesh has {len(report)} violation(s): {report[0].message}")
    try:
        bcs = configmod.build_bcs(cfg, mesh)
    except AssemblyError as exc:
        return _fail(EXIT_VALIDATION, str(exc))

    try:
        fields = run_pipeline(mesh, cfg.materials, bcs, cfg.solver)
        stresses = None
        if fields.displacement is not None:
            stresses = post.recover_stress(mesh, cfg.materials, fields)
    except (SolverError, AssemblyError) as exc:
        return _fail(EXIT_SOLVER, str(exc))

    try:
        probes = _sample_probes(cfg, mesh, fields, stresses)
    except FevecError as exc:
        return _fail(EXIT_VALIDATION, f"probe failed: {exc}")

    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        post.export_fields(mesh, fields, stresses, os.path.join(cfg.output_dir, "fields.vtk"))
        for probe in probes:
            post.write_probe_csv(probe, os.path.join(cfg.output_dir, f"probe_{probe.name}.csv"))
        _write_provenance(cfg, mesh, os.path.join(cfg.output_dir, "provenance.txt"))
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    print(f"run complete: outputs in {cfg.output_dir}")
    return EXIT_OK


def _sample_probes(cfg: configmod.RunConfig, mesh: Mesh, fields: SolutionFields,
                   stresses) -> list[post.LineProbe]:
    """The config's probes, sampled from one evaluator; it is freed before the export."""
    if not cfg.probes:
        return []
    evaluator = post.FieldEvaluator(mesh, cfg.materials, fields, stresses)
    return [post.line_probe(evaluator, p.p0, p.p1, p.quantity, p.n_samples, name=p.name)
            for p in cfg.probes]


def _write_provenance(cfg: configmod.RunConfig, mesh, path: str) -> None:
    buf = io.StringIO()
    s = cfg.solver
    buf.write(f"config_sha256 {_sha256(cfg.source_text.encode())}\n")
    mesh_hash = hashlib.sha256()
    for chunk in mesh_text_chunks(mesh):
        mesh_hash.update(chunk.encode())
    buf.write(f"mesh_sha256 {mesh_hash.hexdigest()}\n")
    buf.write(f"solver method={s.method} cg_rel_tol={s.cg_rel_tol!r} "
              f"cg_max_iter={s.cg_max_iter} tau={s.tau!r} fields={s.fields}\n")
    buf.write(f"mesh nodes={mesh.n_nodes} elements={mesh.n_elements}\n")
    with open(path, "w") as f:
        f.write(buf.getvalue())


def cmd_bench(which: str, out_dir: str) -> int:
    cases = benchmod.builtin_cases()
    if which != "all" and which not in cases:
        return _fail(EXIT_IO, f"unknown case '{which}' (known: {', '.join(sorted(cases))}, all)")
    selected = list(cases.values()) if which == "all" else [cases[which]]

    reports, lines = [], []
    try:
        for case in selected:
            case_reports, case_lines = case.study()
            reports += case_reports
            lines += case_lines
    except SolverError as exc:
        return _fail(EXIT_SOLVER, str(exc))
    except (OSError, ParseError) as exc:      # the case's shipped config
        return _fail(EXIT_IO, str(exc))
    except FevecError as exc:   # a mesh, a BC or a study's own check (e.g. a zero exact field)
        return _fail(EXIT_VALIDATION, str(exc))

    try:
        os.makedirs(out_dir, exist_ok=True)
        benchmod.write_report_csv(reports, os.path.join(out_dir, "report.csv"))
        summary = benchmod.summarize(reports, lines)
        with open(os.path.join(out_dir, "summary.txt"), "w") as f:
            f.write(summary)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    print(summary, end="")
    return EXIT_OK


def cmd_validate(mesh_path: str) -> int:
    try:
        mesh = load_mesh(mesh_path, validate=False)
    except (OSError, ParseError) as exc:
        return _fail(EXIT_IO, str(exc))
    report = validate_mesh(mesh)
    print(f"{len(report)} violations")
    for v in report:
        print(f"  [{v.code}] {v.message}")
    return EXIT_OK if not report else EXIT_VALIDATION


def cmd_mesh_gen(spec_path: str) -> int:
    try:
        cfg, mesh = _read_config(spec_path)
    except (OSError, ParseError, MeshError) as exc:
        return _fail(EXIT_VALIDATION if isinstance(exc, MeshError) else EXIT_IO, str(exc))
    report = validate_mesh(mesh)
    if report:
        return _fail(EXIT_VALIDATION, f"generated mesh invalid: {report[0].message}")
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        out = os.path.join(cfg.output_dir, "mesh.txt")
        save_mesh(mesh, out)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    print(f"wrote {out} ({mesh.n_nodes} nodes, {mesh.n_elements} elements)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fevec",
        description="coupled FE/VE thermomechanical solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run config")
    p_run.add_argument("config")

    p_bench = sub.add_parser("bench", help="run benchmark cases")
    p_bench.add_argument("case", help="case name or 'all'")
    p_bench.add_argument("-o", "--out", default="bench_out")

    p_val = sub.add_parser("validate", help="validate a mesh file")
    p_val.add_argument("mesh")

    p_gen = sub.add_parser("mesh-gen", help="generate a mesh from a spec file")
    p_gen.add_argument("spec")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "bench":
        return cmd_bench(args.case, args.out)
    if args.command == "validate":
        return cmd_validate(args.mesh)
    return cmd_mesh_gen(args.spec)


if __name__ == "__main__":
    sys.exit(main())
