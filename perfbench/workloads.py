"""The three benchmark workloads: inputs from a seed, the timed run, and its check.

Each workload has four steps:

- ``prepare(seed, work, root)`` writes the inputs (run configs) and returns them;
  the seed only places probe lines, so the amount of work is fixed;
- ``run(inputs)`` is the timed part, from the first call into fevec until the
  last output file is written;
- ``observe(results, inputs)`` reduces the outputs to comparable observables;
- ``check(observed, reference)`` returns the failures against the reference
  recorded at the seed commit (``reference.json``).

fevec is imported inside the steps, at call time, so that a traced run sees
the wrapped functions.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench import checks

REFERENCE_PATH = Path(__file__).with_name("reference.json")

FIELD_RTOL = 1e-6          # fields and probe values vs the seed reference
MAX_RESIDUAL = 1e-9        # relative residual of every direct solve
RMS_RTOL = 0.02            # cylinder nodal RMS-L2 error vs the seed's value
# Largest deviation of the seeded radial temperature probe from the exact log
# profile, relative to the 500 degC span; seeds 0-119 show at most 2.75e-5.
CYL_PROBE_MAX_ERR = 5e-5

# configs/cylinder.cfg: radii (mm) and surface temperatures (degC)
CYL_RA, CYL_RB, CYL_TA, CYL_TB = 20.0, 60.0, 0.0, 500.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, Path, Path], dict]
    run: Callable[[dict], dict]
    observe: Callable[[dict, dict], dict]
    check: Callable[[dict, dict], list[str]]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# Config editing


def _sections(text: str) -> list[list[str]]:
    """Config text split into [header, body lines...] blocks; block 0 is the preamble."""
    blocks: list[list[str]] = [[]]
    for line in text.splitlines():
        if line.startswith("["):
            blocks.append([line])
        else:
            blocks[-1].append(line)
    return blocks


def _set_key(block: list[str], key: str, value: str) -> None:
    """Replace ``key`` in a section body (appending it when absent)."""
    pattern = re.compile(rf"^{re.escape(key)}\s")
    for i, line in enumerate(block):
        if pattern.match(line):
            block[i] = f"{key} {value}"
            return
    block.append(f"{key} {value}")


def _edit_config(text: str, edits: dict[str, dict[str, str]],
                 drop_prefix: str | None = None, extra: str = "") -> str:
    blocks = _sections(text)
    headers = [b[0] if b and b[0].startswith("[") else "" for b in blocks]
    for header, keys in edits.items():
        if header not in headers:
            raise ValueError(f"config has no section {header}")
        for key, value in keys.items():
            _set_key(blocks[headers.index(header)], key, value)
    kept = [b for b, h in zip(blocks, headers) if not (drop_prefix and h.startswith(drop_prefix))]
    return "\n".join(line for b in kept for line in b).rstrip() + "\n" + extra


def _work_dirs(work: Path) -> tuple[Path, Path]:
    """Input and output directories of a workload; the worker clears the output one."""
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    return inputs, out


# ---------------------------------------------------------------------------
# sandwich_fe_l3: pure-FE sandwich at level 3, driven through bench.solve_case


def sandwich_prepare(seed: int, work: Path, root: Path) -> dict:
    _, out = _work_dirs(work)
    return {"out_dir": out}


def sandwich_run(inputs: dict) -> dict:
    from fevec import bench, post
    from fevec import mesh as meshmod

    mesh = meshmod.generate_sandwich(3, meshmod.ElementKind.FE_QUAD)
    report = meshmod.validate_mesh(mesh)
    if report:
        raise RuntimeError(f"sandwich mesh invalid: {report[0].message}")
    case = bench.builtin_cases()["sandwich"]
    case.build_mesh = lambda level, method: mesh     # solve the mesh just validated
    mesh, fields, stresses, _ = bench.solve_case(case, 3, "fe")
    ids = bench.SandwichCase.interface_nodes(mesh)
    peaks = bench.interface_side_peaks(mesh, stresses, ids)
    inputs["out_dir"].mkdir(parents=True, exist_ok=True)
    post.export_fields(mesh, fields, stresses, str(inputs["out_dir"] / "fields.vtk"))
    return {"mesh": mesh, "fields": fields, "stresses": stresses, "peaks": peaks}


def sandwich_observe(results: dict, inputs: dict) -> dict:
    fields = results["fields"]
    return {
        "n_elements": results["mesh"].n_elements,
        "substrate_peak": results["peaks"][0],
        "interconnect_peak": results["peaks"][1],
        "n_free_mechanical": fields.mechanical_diag.n_dof,
        "max_residual": max(fields.thermal_diag.residual, fields.mechanical_diag.residual),
        "fields": {
            "temperature": checks.summarize(fields.temperature),
            "displacement": checks.summarize(fields.displacement),
            "von_mises": checks.summarize([s.von_mises for s in results["stresses"]]),
        },
    }


def sandwich_check(obs: dict, ref: dict) -> list[str]:
    fails = (checks.compare_value("substrate-side peak", obs["substrate_peak"],
                                  ref["substrate_peak"], FIELD_RTOL)
             + checks.compare_value("interconnect-side peak", obs["interconnect_peak"],
                                    ref["interconnect_peak"], FIELD_RTOL))
    if obs["n_free_mechanical"] != ref["n_free_mechanical"]:
        fails.append(f"free mechanical dofs {obs['n_free_mechanical']}, "
                     f"reference {ref['n_free_mechanical']}")
    if not obs["max_residual"] <= MAX_RESIDUAL:
        fails.append(f"solve residual {obs['max_residual']:.3e} above {MAX_RESIDUAL:g}")
    for name, summary in ref["fields"].items():
        fails += checks.compare_summary(name, obs["fields"][name], summary, FIELD_RTOL)
    return fails


# ---------------------------------------------------------------------------
# fcbga_l2_run: `fevec run` on the shipped FC-BGA config


def _cli_run(inputs: dict) -> dict:
    from fevec import cli
    return {"rc": cli.cmd_run(str(inputs["config"]))}


def fcbga_prepare(seed: int, work: Path, root: Path) -> dict:
    inputs, out = _work_dirs(work)
    text = (root / "configs" / "fcbga.cfg").read_text()
    config = inputs / "fcbga.cfg"
    config.write_text(_edit_config(text, {"[output]": {"dir": os.path.relpath(out, root)}}))
    return {"config": config, "out_dir": out}


def fcbga_observe(results: dict, inputs: dict) -> dict:
    out = inputs["out_dir"]
    obs = {"rc": results["rc"], "fields": {}, "probes": {}}
    if results["rc"] != 0:
        return obs
    vtk = checks.read_vtk(out / "fields.vtk")
    obs["n_elements"] = int(vtk["von_mises"].size)
    obs["fields"] = {name: checks.summarize(arr) for name, arr in sorted(vtk.items())}
    for path in sorted(out.glob("probe_*.csv")):
        probe = checks.read_probe_csv(path)
        obs["probes"][path.name] = {"s": checks.summarize(probe["s"]),
                                    "value": checks.summarize(probe["value"])}
    return obs


def fcbga_check(obs: dict, ref: dict) -> list[str]:
    if obs["rc"] != 0:
        return [f"fevec run exited with {obs['rc']}"]
    fails = []
    for group in ("fields", "probes"):
        if sorted(obs[group]) != sorted(ref[group]):
            fails.append(f"{group}: {sorted(obs[group])}, reference {sorted(ref[group])}")
    for name, summary in ref["fields"].items():
        if name in obs["fields"]:
            fails += checks.compare_summary(name, obs["fields"][name], summary, FIELD_RTOL)
    for fname, cols in ref["probes"].items():
        for col, summary in cols.items():
            if fname in obs["probes"]:
                fails += checks.compare_summary(f"{fname}:{col}", obs["probes"][fname][col],
                                                summary, FIELD_RTOL)
    return fails


# ---------------------------------------------------------------------------
# cylinder_l3_thermal_cg: thermal-only Jacobi-CG run with one seeded radial probe


def cylinder_exact(r: np.ndarray) -> np.ndarray:
    return CYL_TA + (CYL_TB - CYL_TA) * np.log(r / CYL_RA) / math.log(CYL_RB / CYL_RA)


def cylinder_prepare(seed: int, work: Path, root: Path) -> dict:
    inputs, out = _work_dirs(work)
    theta = math.radians(np.random.default_rng(seed).uniform(2.0, 88.0))
    c, s = math.cos(theta), math.sin(theta)
    r0, r1 = CYL_RA + 1.0, CYL_RB - 1.0      # stay inside the polygonal boundary
    probe = (f"\n[probe radial_T]\nquantity temperature\n"
             f"x0 {r0 * c!r}\ny0 {r0 * s!r}\nx1 {r1 * c!r}\ny1 {r1 * s!r}\nn_samples 81\n")
    text = (root / "configs" / "cylinder.cfg").read_text()
    config = inputs / "cylinder.cfg"
    config.write_text(_edit_config(text, {"[mesh]": {"n_r": "120", "n_t": "240"},
                                          "[solver]": {"method": "cg", "fields": "thermal"},
                                          "[output]": {"dir": os.path.relpath(out, root)}},
                                   drop_prefix="[probe ", extra=probe))
    return {"config": config, "out_dir": out, "theta": theta}


def cylinder_observe(results: dict, inputs: dict) -> dict:
    obs = {"rc": results["rc"]}
    if results["rc"] != 0:
        return obs
    out = inputs["out_dir"]
    vtk = checks.read_vtk(out / "fields.vtk")
    exact = cylinder_exact(np.hypot(vtk["points"][:, 0], vtk["points"][:, 1]))
    obs["n_nodes"] = int(exact.size)
    obs["rms_l2"] = float(np.sqrt(np.mean((vtk["temperature"] - exact) ** 2))
                          / np.abs(exact).max())
    probe = checks.read_probe_csv(out / "probe_radial_T.csv")
    inside = np.isfinite(probe["value"])
    r = np.hypot(probe["x"][inside], probe["y"][inside])
    obs["probe_samples"] = int(probe["value"].size)
    obs["probe_inside"] = int(inside.sum())
    obs["probe_max_err"] = float(np.abs(probe["value"][inside] - cylinder_exact(r)).max()
                                 / (CYL_TB - CYL_TA)) if inside.any() else math.inf
    return obs


def cylinder_check(obs: dict, ref: dict) -> list[str]:
    if obs["rc"] != 0:
        return [f"fevec run exited with {obs['rc']}"]
    fails = checks.compare_value("nodal temperature RMS-L2 error", obs["rms_l2"],
                                 ref["rms_l2"], RMS_RTOL)
    if obs["n_nodes"] != ref["n_nodes"]:
        fails.append(f"{obs['n_nodes']} nodes, reference {ref['n_nodes']}")
    if obs["probe_inside"] != obs["probe_samples"]:
        fails.append(f"probe: {obs['probe_samples'] - obs['probe_inside']} samples "
                     "fell outside the mesh")
    if not obs["probe_max_err"] <= CYL_PROBE_MAX_ERR:
        fails.append(f"probe deviates from the exact profile by {obs['probe_max_err']:.3e} "
                     f"(limit {CYL_PROBE_MAX_ERR:g})")
    return fails


WORKLOADS = {w.name: w for w in (
    Workload("sandwich_fe_l3",
             "largest system and LU fill; time in the Q4 kernel, mechanical assembly, "
             "stress recovery and nodal averaging; no VE element and no probe",
             sandwich_prepare, sandwich_run, sandwich_observe, sandwich_check),
    Workload("fcbga_l2_run",
             "the user's config-to-files path on a multi-material mesh, mostly VE "
             "elements, with probes and file writes next to a small direct solve",
             fcbga_prepare, _cli_run, fcbga_observe, fcbga_check),
    Workload("cylinder_l3_thermal_cg",
             "thermal only on curved Q4 and VE elements; the only Jacobi-CG workload; "
             "time in thermal assembly and validate_mesh",
             cylinder_prepare, _cli_run, cylinder_observe, cylinder_check),
)}
