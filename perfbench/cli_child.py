"""Run osnids CLI commands one after another in this process.

Usage: python3 perfbench/cli_child.py OPS_JSON RESULT_JSON

OPS_JSON is a JSON list of argument lists for `osnids.cli.main`. The result
file gets, per command, its exit code, wall time and CPU time. The first
command that fails ends the sequence. Run it from the repository root.
"""

import json
import sys
import time
import traceback


def main() -> int:
    ops = json.loads(sys.argv[1])
    sys.path.insert(0, "src")
    from osnids.cli import main as osnids_main

    results = []
    for argv in ops:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = osnids_main(argv)
        except Exception:  # an escaped exception is a failed command, not a crashed benchmark
            traceback.print_exc()
            code = -1
        results.append({"argv": argv, "code": code, "wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0})
        if code != 0:
            break
    with open(sys.argv[2], "w") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
