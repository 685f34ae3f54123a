"""Byte identity of every run artifact: a parent revision against the working tree.

Usage, from the repository root:

    python3 scripts/same_bytes.py --parent HEAD

Both sides run from fresh copies in a temporary directory, made as
`bench_pairs.py` makes them, with one BLAS thread, each run in its own
process through that side's own CLI:

* `synth`: the default config's `osnids run`, then `predict` on D3;
* `ingest-hard-seed1`, `ingest-hard-seed2`: perfbench's input generator,
  its six stages, then `predict` on D3;
* `predict-stream-seed1`: perfbench's inputs and set-up stages, then
  `predict` on D3 and on the stream.

The sha256 of every file a run leaves, its workdir and its generated inputs,
is compared between the sides; only the config (`run.json`) is left out,
since it names the side's own paths. One line per run says how many files
are identical; each file that differs, or that one side lacks, is named, and
then the exit code is 1. A run that fails on either side exits 2. Nothing is
written in the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # importing bench_pairs leaves no cache in the repository
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export_revision, export_worktree  # noqa: E402

CONFIG = "run.json"
# run name -> (perfbench workload, or "synth", and seed)
RUNS = {
    "synth": ("synth", None),
    "ingest-hard-seed1": ("ingest-hard", 1),
    "ingest-hard-seed2": ("ingest-hard", 2),
    "predict-stream-seed1": ("predict-stream", 1),
}
ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_in_checkout(name: str, root: Path) -> None:
    """One run of RUNS, in the checkout that is the current directory, under `root`."""
    sys.path[:0] = ["src", "perfbench"]
    import library
    import workloads

    workload, seed = RUNS[name]
    if workload == "synth":
        root.mkdir(parents=True)
        cfg_path, work = root / CONFIG, root / "work"
        library.cli_main(["config", "init", "--out", str(cfg_path)])
        cfg = json.loads(cfg_path.read_text())
        cfg["workdir"] = str(work)
        cfg_path.write_text(json.dumps(cfg, indent=2))
        ops = [["run", "--config", str(cfg_path)],
               ["predict", "--bundle", str(work / "bundle"), "--samples", str(work / "d3.sset"),
                "--out", str(work / "d3_predict.csv")]]
    else:
        w = workloads.WORKLOADS[workload]
        inp = workloads.write_inputs(w, seed, root)
        ops = workloads.stage_ops(inp) + [workloads.predict_op(inp, inp.work / "d3.sset", inp.work / "d3_predict.csv")]
        if w.streaming:
            ops.append(workloads.predict_op(inp, inp.stream_path, inp.work / "stream_verdicts.csv"))
    for argv in ops:
        if library.cli_main(argv) != 0:
            sys.exit(f"{name}: osnids {' '.join(argv)} failed")


def digests(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != CONFIG
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision the working tree is compared with")
    parser.add_argument("--tmp", default=None, help="directory for the exported trees and the runs")
    parser.add_argument("--run", nargs=2, metavar=("NAME", "ROOT"), help=argparse.SUPPRESS)  # one side's run
    args = parser.parse_args()
    if args.run:
        run_in_checkout(args.run[0], Path(args.run[1]))
        return 0
    if not args.parent:
        parser.error("--parent is required")

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | ONE_BLAS_THREAD
    different = 0
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        print(f"parent {export_revision(args.parent, trees['parent'])}, change {export_worktree(trees['change'])}")
        for name in RUNS:
            for side, tree in trees.items():
                argv = [sys.executable, str(Path(__file__).resolve()), "--run", name, str(tree / "runs" / name)]
                if subprocess.run(argv, cwd=tree / "tree", env=env).returncode != 0:
                    print(f"{name}: the {side} run failed", file=sys.stderr)
                    return 2
            parent, change = (digests(tree / "runs" / name) for tree in trees.values())
            differs = sorted(f for f in parent.keys() | change.keys() if parent.get(f) != change.get(f))
            print(f"{name}: {len(parent.keys() | change.keys()) - len(differs)} files identical, {len(differs)} differ")
            for f in differs:
                print(f"  differs: {f}" if f in parent and f in change else f"  only on one side: {f}")
            different += len(differs)
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
