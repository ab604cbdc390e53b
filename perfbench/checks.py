"""Output readers and comparisons against reference values recorded at the seed.

Large arrays are compared through a summary: length, NaN count, sum, L1 and
L2 norms, and values at evenly spaced indices.  Every comparison returns a
list of failure messages; an empty list means the output matches.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

N_SAMPLES = 48


def read_vtk(path) -> dict[str, np.ndarray]:
    """Arrays of a legacy ASCII unstructured-grid file as written by fevec.

    Returns ``points`` (n, 2), point scalars/vectors by name, cell scalars by
    name, and ``stress`` as (m, 3) Voigt (xx, yy, xy).
    """
    lines = Path(path).read_text().splitlines()
    out: dict[str, np.ndarray] = {}

    def block(first: int, count: int, cols: int) -> np.ndarray:
        values = np.array(" ".join(lines[first:first + count]).split(), dtype=float)
        return values.reshape(count, cols)

    i, n_cur = 0, 0
    while i < len(lines):
        tok = lines[i].split()
        head = tok[0] if tok else ""
        if head == "POINTS":
            n = int(tok[1])
            out["points"] = block(i + 1, n, 3)[:, :2]
            i += 1 + n
        elif head in ("CELLS", "CELL_TYPES"):
            i += 1 + int(tok[1])
        elif head in ("POINT_DATA", "CELL_DATA"):
            n_cur = int(tok[1])
            i += 1
        elif head == "SCALARS":
            out[tok[1]] = block(i + 2, n_cur, 1)[:, 0]
            i += 2 + n_cur
        elif head == "VECTORS":
            out[tok[1]] = block(i + 1, n_cur, 3)[:, :2]
            i += 1 + n_cur
        elif head == "TENSORS":
            t = block(i + 1, 3 * n_cur, 3).reshape(n_cur, 3, 3)
            out[tok[1]] = np.column_stack((t[:, 0, 0], t[:, 1, 1], t[:, 0, 1]))
            i += 1 + 3 * n_cur
        else:
            i += 1
    return out


def read_probe_csv(path) -> dict[str, np.ndarray]:
    """Columns s, x, y, value of a probe file; empty values (outside the mesh) are NaN."""
    rows = Path(path).read_text().splitlines()
    if not rows or rows[0] != "s,x,y,value":
        raise ValueError(f"{path}: not a probe file")
    table = np.array([[float(v) if v else math.nan for v in r.split(",")] for r in rows[1:]],
                     dtype=float).reshape(-1, 4)
    return {"s": table[:, 0], "x": table[:, 1], "y": table[:, 2], "value": table[:, 3]}


def digest_dir(path) -> str:
    """SHA-256 over the names and bytes of every file in a directory."""
    h = hashlib.sha256()
    for f in sorted(Path(path).iterdir()):
        if f.is_file():
            h.update(f.name.encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def _num(v: float):
    return None if not math.isfinite(v) else float(v)


def summarize(values, n_samples: int = N_SAMPLES) -> dict:
    """Compact, comparable description of an array."""
    flat = np.asarray(values, dtype=float).ravel()
    finite = flat[np.isfinite(flat)]
    idx = np.unique(np.linspace(0, max(flat.size - 1, 0), min(flat.size, n_samples))
                    .round().astype(int)) if flat.size else np.zeros(0, dtype=int)
    return {
        "n": int(flat.size),
        "n_nan": int(flat.size - finite.size),
        "sum": float(finite.sum()),
        "l1": float(np.abs(finite).sum()),
        "l2": float(np.sqrt((finite ** 2).sum())),
        "abs_max": float(np.abs(finite).max()) if finite.size else 0.0,
        "index": idx.tolist(),
        "value": [_num(v) for v in flat[idx]],
    }


def compare_summary(name: str, got: dict, ref: dict, rtol: float) -> list[str]:
    """Failures where an array summary departs from the reference by more than rtol."""
    if got["n"] != ref["n"] or got["n_nan"] != ref["n_nan"]:
        return [f"{name}: {got['n']} values ({got['n_nan']} NaN), "
                f"reference {ref['n']} ({ref['n_nan']} NaN)"]
    fails = []
    scale = ref["abs_max"] or 1.0
    for key, tol in (("sum", rtol * (ref["l1"] or 1.0)), ("l1", rtol * (ref["l1"] or 1.0)),
                     ("l2", rtol * (ref["l2"] or 1.0)), ("abs_max", rtol * scale)):
        if not abs(got[key] - ref[key]) <= tol:
            fails.append(f"{name}: {key} {got[key]!r} vs reference {ref[key]!r}")
    if got["index"] != ref["index"]:
        return fails + [f"{name}: sample indices differ from the reference"]
    for i, g, r in zip(ref["index"], got["value"], ref["value"]):
        if (g is None) != (r is None) or (r is not None and not abs(g - r) <= rtol * scale):
            fails.append(f"{name}[{i}]: {g!r} vs reference {r!r}")
            break
    return fails


def compare_value(name: str, got: float, ref: float, rtol: float) -> list[str]:
    if abs(got - ref) <= rtol * abs(ref):
        return []
    return [f"{name}: {got!r} vs reference {ref!r} (rtol {rtol:g})"]
