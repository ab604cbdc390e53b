"""Record the reference observables that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload once, untraced, in this process (seed 0) and rewrites
``perfbench/reference.json``.  Run it only on a commit whose outputs are
trusted; the reference in the repository was recorded at the commit that
introduced the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.worker import import_fevec
    import_fevec()
    from perfbench import workloads

    reference = {}
    for name, wl in workloads.WORKLOADS.items():
        work = ROOT / ".perfbench_out" / "reference" / name
        inputs = wl.prepare(0, work, ROOT)
        shutil.rmtree(inputs["out_dir"], ignore_errors=True)
        reference[name] = wl.observe(wl.run(inputs), inputs)
        print(f"{name}: recorded", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
