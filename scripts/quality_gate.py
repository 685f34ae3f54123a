"""Quality gate for a change that moves bits: a parent revision against the working tree.

Usage, from the repository root:

    python3 scripts/quality_gate.py --parent HEAD [--seed N ...]

Both sides run from fresh copies in a temporary directory, made as
`bench_pairs.py` makes them, with one BLAS thread. For each seed (SEEDS,
unless a repeatable `--seed` names others), each side runs in its own
process, through its own CLI: perfbench's ingest-hard inputs, the six
stages, then `predict` on D3, and perfbench's checks of that round. One line
per seed gives, for each side, the selected cluster count N, `detect_rate`
and `benign_rate` (the evaluation report's sensitivity and specificity) and
whether perfbench's checks passed, then the adjusted Rand index of the
change's D1 partition against the parent's and, when D1, D2 and D3 are the
same bytes on both sides, the share of D3 rows whose `verdicts.csv`
decision or any family bit O_1..O_4 differs.

The exit code is 1 when, on any seed, N differs from the parent's, the ARI
is below MIN_ARI, the verdict share is above VERDICT_MARGIN, `benign_rate`
falls, or either side fails a check or a stage; or when the mean
`detect_rate` over the seeds falls by more than DETECT_MARGIN. A per-seed
rate moves when clusters are only renumbered (by -0.023 to +0.054 in one
such change), so detection is judged on the mean. Otherwise the exit code
is 0. Nothing is written in the repository.
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

import numpy as np

sys.dont_write_bytecode = True  # importing bench_pairs leaves no cache in the repository
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export_revision, export_worktree  # noqa: E402

SEEDS = tuple(range(1, 9))
MIN_ARI = 0.99
DETECT_MARGIN = 0.01  # largest allowed fall of the mean detect_rate over the seeds run
# Largest allowed share of D3 rows whose decision or family bits differ, on the
# same D1 to D3. A last-bit change flips only rows whose probability sits on a
# tree threshold or whose vote ties: a few of ingest-hard's ~1,500 D3 rows. One
# in a hundred (about 15 rows) is a change in what the families learned.
VERDICT_MARGIN = 0.01
SPLITS = ("d1", "d2", "d3")
RESULT = "gate.json"
ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def adjusted_rand_index(a, b) -> float:
    """Hubert and Arabie's adjusted Rand index of two partitions of the same rows:
    1.0 for the same partition under any labels, about 0 for chance agreement."""
    _, a = np.unique(np.asarray(a), return_inverse=True)
    _, b = np.unique(np.asarray(b), return_inverse=True)
    rows, cols = a.max() + 1, b.max() + 1
    table = np.bincount(a * cols + b, minlength=rows * cols).reshape(rows, cols)

    def pairs(counts) -> float:
        return float(np.sum(counts * (counts - 1) // 2))

    index, row_pairs, col_pairs = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = row_pairs * col_pairs / pairs(np.array([a.size]))
    top = (row_pairs + col_pairs) / 2.0
    return 1.0 if top == expected else (index - expected) / (top - expected)


def run_in_checkout(seed: int, root: Path) -> None:
    """One ingest-hard round for `seed`, in the checkout that is the current
    directory, under `root`; writes its figures to root / RESULT."""
    sys.path[:0] = ["src", "perfbench"]
    import checks
    import corpus
    import library
    import workloads

    w = workloads.WORKLOADS["ingest-hard"]
    inp = workloads.write_inputs(w, seed, root)
    ops = workloads.stage_ops(inp) + [workloads.predict_op(inp, inp.work / "d3.sset", inp.work / "d3_predict.csv")]
    result = {"correct": False}
    if all(library.cli_main(argv) == 0 for argv in ops):  # stops at the first stage that fails
        try:
            detect, benign, _ = workloads.check_round(w, inp)
            result = {"correct": True, "detect_rate": detect, "benign_rate": benign}
        except checks.CheckFailed as exc:
            result["error"] = str(exc)
    if (inp.work / "d1_clustered.sset").exists():  # the cluster stage ran, whatever failed after it
        result["selected_n"] = json.loads((inp.work / "clustering.json").read_text())["selected_n"]
        for split in SPLITS:
            result[split] = hashlib.sha256((inp.work / f"{split}.sset").read_bytes()).hexdigest()
        result["clusters"] = corpus.read_sset(inp.work / "d1_clustered.sset")[1]["cluster"].tolist()
    if (inp.work / "verdicts.csv").exists():
        header, rows = checks.read_verdicts(inp.work / "verdicts.csv")
        compared = [i for i, name in enumerate(header) if name.startswith("O_") or name == "decision"]
        result["verdicts"] = [",".join(row[i] for i in compared) for row in rows]
    (root / RESULT).write_text(json.dumps(result))


def verdict_share(parent: dict, change: dict) -> float | None:
    """The share of D3 rows whose decision or family bits differ between the
    sides; None unless both wrote verdicts on the same D1, D2 and D3."""
    if "verdicts" not in parent or "verdicts" not in change or any(parent[s] != change[s] for s in SPLITS):
        return None
    return float(np.mean(np.array(parent["verdicts"]) != np.array(change["verdicts"])))


def judge(parent: dict, change: dict) -> tuple[float | None, list[str]]:
    """One seed's ARI (None when the partitions are not comparable) and its failures."""
    faults = [f"the {side} run failed its checks" for side, r in (("parent", parent), ("change", change))
              if not r["correct"]]
    if "clusters" not in parent or "clusters" not in change:
        return None, faults
    if parent["selected_n"] != change["selected_n"]:
        faults.append("N differs")
    if parent["d1"] != change["d1"]:
        return None, faults + ["D1 differs, so its partitions cannot be compared"]
    ari = adjusted_rand_index(parent["clusters"], change["clusters"])
    if ari < MIN_ARI:
        faults.append(f"ARI below {MIN_ARI}")
    share = verdict_share(parent, change)
    if share is not None and share > VERDICT_MARGIN:
        faults.append(f"verdicts differ on more than {VERDICT_MARGIN} of D3")
    if parent["correct"] and change["correct"] and change["benign_rate"] < parent["benign_rate"]:
        faults.append("benign_rate fell")
    return ari, faults


def _figures(r: dict) -> str:
    rates = f"detect {r['detect_rate']:.4f} benign {r['benign_rate']:.4f}" if "detect_rate" in r else "no rates"
    return f"N={r.get('selected_n')} {rates} correct={r['correct']}"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision the working tree is compared with")
    parser.add_argument("--seed", type=int, action="append", dest="seeds",
                        help=f"an ingest-hard seed to run, repeatable (default: {SEEDS[0]}-{SEEDS[-1]})")
    parser.add_argument("--tmp", default=None, help="directory for the exported trees and the runs")
    parser.add_argument("--run", nargs=2, metavar=("SEED", "ROOT"), help=argparse.SUPPRESS)  # one side's run
    args = parser.parse_args(argv)
    args.seeds = tuple(args.seeds or SEEDS)
    if not (args.run or args.parent):
        parser.error("--parent is required")
    return args


def main() -> int:
    args = parse_args()
    if args.run:
        run_in_checkout(int(args.run[0]), Path(args.run[1]))
        return 0

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | ONE_BLAS_THREAD
    failed, detect = False, {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        print(f"parent {export_revision(args.parent, trees['parent'])}, change {export_worktree(trees['change'])}")
        for seed in args.seeds:
            results = {}
            for side, tree in trees.items():
                root = tree / "runs" / f"seed{seed}"
                argv = [sys.executable, str(Path(__file__).resolve()), "--run", str(seed), str(root)]
                ok = subprocess.run(argv, cwd=tree / "tree", env=env).returncode == 0
                results[side] = json.loads((root / RESULT).read_text()) if ok else {"correct": False}
                detect[side].append(results[side].get("detect_rate", 0.0))
            ari, faults = judge(results["parent"], results["change"])
            share = verdict_share(results["parent"], results["change"])
            shown = ["n/a" if x is None else f"{x:.4f}" for x in (ari, share)]
            print(f"seed {seed}: parent {_figures(results['parent'])}; change {_figures(results['change'])}; "
                  f"ARI {shown[0]}; D3 verdicts differ {shown[1]}" + "".join(f"; FAIL: {f}" for f in faults))
            failed |= bool(faults)
    means = {side: float(np.mean(v)) for side, v in detect.items()}
    fall = means["parent"] - means["change"]
    print(f"mean detect_rate: parent {means['parent']:.4f}, change {means['change']:.4f}"
          + (f"; FAIL: fell by more than {DETECT_MARGIN}" if fall > DETECT_MARGIN else ""))
    failed |= fall > DETECT_MARGIN
    print("gate: FAIL" if failed else "gate: pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
