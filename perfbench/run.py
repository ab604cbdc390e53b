"""fevec performance benchmark (this is not ``fevec bench``, the analytic-case suite).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in child processes, one at a time, each with BLAS/OpenMP
pinned to one thread and ``FEVEC_THREADS`` unset.  With ``--trace 0`` it
starts several set-up-only children, then timed runs until ``--seconds`` have
passed (at least two), and reports the end-to-end metrics.  With
``--trace 1`` it makes one untraced and two traced runs and reports the
per-layer metrics.  Every run's outputs are checked against the reference
recorded at the seed, and all runs of one invocation must write byte-identical
output files.  The last line of stdout is one JSON object; a human-readable
summary goes to stderr and the full record to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_CHILDREN = 5          # set-up-only processes per timed invocation
MIN_RUNS = 2                # byte-identity needs two runs
TRACED_RUNS = 2             # exact counts must agree between two traced runs
BUDGET_S = 170.0            # the whole invocation, children included
BLAS_THREADS = "1"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_frac", "frac"))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FEVEC_THREADS", None)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    """Starts worker processes one at a time within the invocation's time budget."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = time.monotonic() + BUDGET_S
        self.env = child_env()
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, mode: str) -> dict:
        self.count += 1
        result = self.work / f"child-{self.count}-{mode}.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--work", str(self.work),
               "--result", str(result)]
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return {"mode": mode, "ok": False, "failures": ["timed out (killed)"]}
        rec = json.loads(result.read_text()) if result.exists() else {
            "mode": mode, "ok": False, "failures": []}
        if proc.returncode != 0:
            rec["ok"] = False
            rec["failures"].append(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
        return rec


def median(values):
    return statistics.median(values) if values else None


def timed(runner: Runner, seconds: float) -> tuple[list[dict], dict, list[str]]:
    setups = [runner.spawn("setup") for _ in range(SETUP_CHILDREN)]
    runs: list[dict] = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        longest = max((r.get("wall_s", 0.0) + r.get("setup_s", 0.0) for r in runs),
                      default=0.0)
        if runs and runner.remaining() < 1.5 * longest:
            break
        runs.append(runner.spawn("run"))
    fails = [] if len(runs) >= MIN_RUNS else [f"only {len(runs)} run(s) fit the time budget"]
    ok = [r for r in runs if r["ok"]]
    metrics = {
        "wall_s": median([r["wall_s"] for r in ok]),
        "setup_s": median([r["setup_s"] for r in setups + runs if "setup_s" in r]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        "pass_frac": len(ok) / len(runs) if runs else None,
    }
    fails += [f"set-up child: {f}" for s in setups if not s["ok"] for f in s["failures"]]
    return runs + setups, {k: (metrics[k], unit) for k, unit in END_TO_END}, fails


def per_layer(runner: Runner) -> tuple[list[dict], dict, list[str]]:
    from perfbench.spans import COUNT_METRICS

    base = runner.spawn("run")
    traced = [runner.spawn("trace") for _ in range(TRACED_RUNS)]
    fails = []
    good = [t for t in traced if t["ok"]]
    metrics: dict = {}
    if good:
        for name, value in good[0]["layers"].items():
            if name in COUNT_METRICS:
                seen = {t["layers"][name] for t in good}
                if len(seen) > 1:
                    fails.append(f"count {name} differs between traced runs: {sorted(seen)}")
                metrics[name] = (value, "count")
            else:
                unit = "ratio" if name.endswith(("ratio", "share")) else "s"
                metrics[name] = (median([t["layers"][name] for t in good]), unit)
        if base["ok"]:
            metrics["trace.overhead_s"] = (median([t["wall_s"] for t in good]) - base["wall_s"],
                                           "s")
    return [base] + traced, metrics, fails


def stage_report(workload: str, rec: dict) -> str:
    lines = [f"stage table, {workload} (traced run; inclusive seconds)",
             f"  {'stage':36s} {'calls':>6s} {'seconds':>9s}"]
    for stage, calls, seconds in rec["stages"]:
        lines.append(f"  {stage:36s} {'' if calls is None else calls:>6} {seconds:9.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so a running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    sys.path.insert(0, str(ROOT))
    if not (ROOT / "src" / "fevec" / "__init__.py").is_file():
        print(f"error: no fevec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, work)
    if args.trace:
        children, metrics, fails = per_layer(runner)
    else:
        children, metrics, fails = timed(runner, args.seconds)

    workload_runs = [c for c in children if c["mode"] != "setup"]
    failed = sum(not c["ok"] for c in workload_runs)
    fails += [f"{c['mode']} run: {f}" for c in workload_runs if not c["ok"]
              for f in c["failures"]]
    digests = {c.get("digest") for c in workload_runs if c["ok"]}
    if len(digests) > 1:
        fails.append(f"output files differ between runs of one invocation: {sorted(digests)}")
    fails += [f"no value for {k}" for k, (v, _) in metrics.items() if v is None]
    correct = not fails and failed == 0
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "failures": fails,
              "env": next((c["env"] for c in children if "env" in c), None),
              "metrics": reported,
              "children": [{k: v for k, v in c.items() if k not in ("stages", "env")}
                           for c in children]}
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    staged = [c for c in children if c.get("stages")]
    if staged:
        print(stage_report(args.workload, staged[0]), file=sys.stderr)
    for k, m in reported.items():
        print(f"  {k:30s} {m['value']!r} {m['unit']}", file=sys.stderr)
    for f in fails:
        print(f"FAIL: {f}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(workload_runs), "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
