"""One child process of the benchmark: set up, run one workload once, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace \
        --work DIR --result FILE --spawned-at T

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so ``setup_s`` covers interpreter
start, ``import fevec`` (numpy and scipy included) and input generation.
``setup`` mode stops there; ``run`` adds one timed, untraced run of the
workload and its check; ``trace`` does the same with every fevec layer
function wrapped, and adds per-layer metrics and the stage table.  The
result is written as JSON to ``--result``; the exit code is 0 when the run
and its check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_fevec():
    """Import fevec from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fevec
    import fevec.bench
    import fevec.cli  # noqa: F401  (every CLI invocation pays this import)
    if src not in Path(fevec.__file__).resolve().parents:
        raise RuntimeError(f"fevec imported from {fevec.__file__}, not from {src}")
    return fevec


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "FEVEC_THREADS": os.environ.get("FEVEC_THREADS", "unset"),
        "seed": seed,
    }


def run_once(wl, inputs: dict, traced: bool, run_id: str, work: Path) -> dict:
    from perfbench import spans, workloads
    from perfbench.checks import digest_dir

    shutil.rmtree(inputs["out_dir"], ignore_errors=True)
    tracer = spans.Tracer(run_id) if traced else None
    with spans.traced(tracer) if traced else nullcontext():
        t0 = time.perf_counter()
        results = wl.run(inputs)
        wall = time.perf_counter() - t0
    rec = {"wall_s": wall,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    observed = wl.observe(results, inputs)
    rec["failures"] = wl.check(observed, workloads.load_reference()[wl.name])
    rec["digest"] = digest_dir(inputs["out_dir"])
    if traced:
        layers = spans.layer_metrics(tracer, wall)
        rec["layers"] = layers
        rec["stages"] = spans.stage_table(tracer, wall, layers["cli.self_s"],
                                          layers["other.self_s"])
        tracer.write(work / "spans.npz")
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)

    rec: dict = {"mode": args.mode, "failures": []}
    try:
        import_fevec()
        sys.path.insert(0, str(ROOT))
        from perfbench import workloads
        wl = workloads.WORKLOADS[args.workload]
        inputs = wl.prepare(args.seed, args.work, ROOT)
        rec["setup_s"] = time.monotonic() - args.spawned_at
        rec["env"] = environment(args.seed)
        if args.mode != "setup":
            run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
            rec.update(run_once(wl, inputs, args.mode == "trace", run_id, args.work))
    except Exception:     # reported to the parent, which counts the run as failed
        rec["failures"].append(traceback.format_exc())
    rec["ok"] = not rec["failures"]
    args.result.write_text(json.dumps(rec))
    return 0 if rec["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
