"""Benchmark for osnids: one workload, one run, one JSON line of results.

Usage, from the repository root:

    python3 perfbench/run.py --workload ingest-hard --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from --seed. Rounds of the workload's
operations repeat until --seconds have passed (at least one round). The
last line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics from a traced run with --trace 1). See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

# BLAS threads are fixed before numpy loads, in this process and its children:
# one thread, so a run does not depend on getting every core at once.
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

WORK_ROOT = Path(".perfbench_work")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/osnids/cli.py").is_file():
        print("error: run from the root of an osnids checkout (src/osnids not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    import workloads  # after sys.path holds the program

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    run_dir = WORK_ROOT / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        if args.trace:
            result = workloads.trace(w, args.seed, run_dir)
        else:
            result = workloads.measure(w, args.seed, args.seconds, run_dir)
    except (workloads.checks.CheckFailed, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK_ROOT.rmdir()
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
