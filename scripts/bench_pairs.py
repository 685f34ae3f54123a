"""Paired benchmark runs: a parent revision against the working tree.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --name serving --parent HEAD~1 \\
        --workload predict-stream --workload ingest-hard --pairs 10

Both sides run from fresh copies in a temporary directory: the parent
revision is exported with `git archive`, and the working tree's files
(tracked ones with their uncommitted edits, and untracked ones that are not
ignored) are copied. So neither side runs in a directory the other lacks,
such as one holding build caches, and an exported tree needs no cleanup in
`.git` when a run is killed. Each pair runs `perfbench/run.py --trace 0`
once on each side, one side after the other, alternating which side goes
first. `BENCH_<name>.json` at the repository root then holds every
run's final JSON line, each side's median and quartiles per end-to-end
metric, the number of pairs the change won per metric, each side's `src/`
line count, and the host: core count and the Python, numpy and OpenBLAS
versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_revision(rev: str, into: Path) -> str:
    """Write `rev`'s tree under `into`; returns its full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    into.mkdir(parents=True, exist_ok=True)
    archive = into / "tree.tar"
    archive.write_bytes(_git("archive", "--format=tar", commit))
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()
    return commit


def export_worktree(into: Path) -> str:
    """Copy the working tree's files under `into`; returns HEAD's commit id,
    with "+dirty" when the copy differs from it."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():  # a tracked file deleted from the tree is left out
            (into / "tree" / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / "tree" / name)
    dirty = _git("status", "--porcelain").strip()
    return _git("rev-parse", "HEAD").decode().strip() + ("+dirty" if dirty else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run; its final JSON line, or a failed record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}


def src_lines(tree: Path) -> int:
    """Lines of the `src/**/*.py` files under an exported tree, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, and the
    pairs in which the change was better (ties count for neither side)."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        sides = {}
        for side in ("parent", "change"):
            vals = [r["result"]["metrics"].get(name, {}).get("value") for r in runs if r["side"] == side]
            if None in vals or not vals:
                break
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            sides[side] = {"median": float(med), "q1": float(q1), "q3": float(q3), "values": vals}
        if len(sides) < 2:
            continue
        pairs = zip(sides["parent"]["values"], sides["change"]["values"])
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        out[name] = {**sides, "better": m["better"], "change_wins": wins, "pairs": len(sides["parent"]["values"])}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--parent", required=True, help="git revision the working tree is compared with")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--tmp", default=None, help="directory for the two exported trees")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "name": args.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        record["parent"] = export_revision(args.parent, Path(tmp) / "parent")
        record["change"] = export_worktree(Path(tmp) / "change")
        sides = {side: Path(tmp) / side / "tree" for side in ("parent", "change")}
        record["src_lines"] = {side: src_lines(tree) for side, tree in sides.items()}
        for workload in args.workload:
            runs = []
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(sides[side], workload, args.seed, args.seconds)
                    runs.append({"pair": pair, "side": side, "result": result})
                    run_s = result["metrics"].get("run_s", {}).get("value")
                    print(f"{workload} pair {pair} {side}: run_s={run_s} correct={result['correct']}",
                          file=sys.stderr)
            record["workloads"][workload] = {"runs": runs, "summary": summarize(runs, bench["end_to_end"])}
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
