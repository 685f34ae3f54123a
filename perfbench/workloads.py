"""The workloads: set-up, timed rounds, output checks and metrics.

A timed round starts one child process (`cli_child.py`) that runs osnids CLI
commands in order; its wall time, CPU time and peak RSS come from the
kernel's accounting of that child. Single-row verdicts run in this process
through `library.single_verdicts`: a few are checked after a timed run, and
a traced run times 1,000 of them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Optional

import numpy as np

import checks
import corpus
import library

HERE = Path(__file__).resolve().parent
STAGES = ["ingest", "split", "cluster", "train-base", "train-meta", "evaluate"]
SETUP_REPEATS = 3
SINGLE_CHECKS = 100  # single-row verdicts checked against the batch in a timed run
SINGLE_VERDICTS = 1000  # timed in a traced run; p99 then has ten verdicts beyond it
STREAM_UNKNOWN_SHARE = 0.2
# floors for the share of unknown stream rows flagged and of benign stream rows passed
STREAM_FLOORS = (0.6, 0.95)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: corpus.CorpusSpec
    stream_rows: int = 0  # > 0: set-up trains a bundle, the rounds score a stream of this many rows

    @property
    def streaming(self) -> bool:
        return self.stream_rows > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ingest-hard", corpus.CorpusSpec()),
        Workload(
            "predict-stream",
            corpus.CorpusSpec(benign_per_template=200, attack_per_class=88),
            stream_rows=30_000,
        ),
    )
}


@dataclass
class Inputs:
    root: Path
    cfg_path: Path
    cfg: dict
    corpus: corpus.IngestCorpus
    stream_unknown: Optional[np.ndarray] = None

    @property
    def work(self) -> Path:
        return self.root / "work"

    @property
    def stream_path(self) -> Path:
        return self.root / "stream.sset"


def write_inputs(w: Workload, seed: int, root: Path) -> Inputs:
    """Generate the corpus from the seed and write everything the program reads."""
    root.mkdir(parents=True)
    corp = corpus.build_ingest_corpus(seed, w.spec)
    corpus.write_ingest_files(corp, seed, root / "capture.pcap", root / "flows.csv")
    cfg_path = root / "run.json"
    if library.cli_main(["config", "init", "--out", str(cfg_path)]) != 0:
        raise RuntimeError("osnids config init failed")
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg["seed"] = seed
    cfg["workdir"] = str(root / "work")
    cfg["pipeline"]["source"] = "ingest"
    cfg["ingest"].update(pcap=str(root / "capture.pcap"), flows=str(root / "flows.csv"),
                         undersample_ratio=w.spec.undersample_ratio)
    cfg["split"]["heldout_classes"] = corp.spec.unknown_names
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    inputs = Inputs(root, cfg_path, cfg, corp)
    if w.streaming:
        rows, inputs.stream_unknown = corpus.build_stream(seed, corp, w.stream_rows, STREAM_UNKNOWN_SHARE)
        labels = np.zeros(len(rows), dtype=np.int64)
        labels[inputs.stream_unknown] = 1
        corpus.write_sset(inputs.stream_path, [corpus.BENIGN_LABEL, "unknown"], rows, labels)
    return inputs


def stage_ops(inp: Inputs) -> list[list[str]]:
    return [[stage, "--config", str(inp.cfg_path)] for stage in STAGES]


def predict_op(inp: Inputs, samples: Path, out: Path) -> list[str]:
    return ["predict", "--bundle", str(inp.work / "bundle"), "--samples", str(samples), "--out", str(out)]


def timed_ops(w: Workload, inp: Inputs) -> list[list[str]]:
    """The operations of one round."""
    if w.streaming:
        return [predict_op(inp, inp.stream_path, inp.work / "stream_verdicts.csv")]
    return stage_ops(inp) + [predict_op(inp, inp.work / "d3.sset", inp.work / "d3_predict.csv")]


@dataclass
class ChildRun:
    ops: list[dict]  # per command: argv, code, wall_s, cpu_s
    wall_s: float
    cpu_s: float
    peak_rss_mb: float

    @property
    def ok(self) -> bool:
        return bool(self.ops) and all(op["code"] == 0 for op in self.ops)


def run_child(ops: list[list[str]], log_dir: Path) -> ChildRun:
    """Run the commands in one fresh process and reap it with its rusage."""
    result_path = log_dir / "ops.json"
    result_path.unlink(missing_ok=True)
    with open(log_dir / "child.log", "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "cli_child.py"), json.dumps(ops), str(result_path)],
                                stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    results = []
    if proc.returncode == 0 and result_path.exists():
        with open(result_path) as fh:
            results = json.load(fh)
    return ChildRun(results, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


# --- checks ---


def check_pipeline(inp: Inputs) -> dict:
    """All checks on a pipeline workdir; returns the evaluation report."""
    work, corp = inp.work, inp.corpus
    with open(work / "ingest_report.json") as fh:
        checks.check_ingest_report(json.load(fh), corp.expected)
    names, samples = corpus.read_sset(work / "samples.sset")
    if names != corp.spec.class_names:
        raise checks.CheckFailed(f"samples.sset class table {names}")
    checks.check_ingested_rows(samples, corp.rows, corp.row_label)
    d1, d2, d3 = (corpus.read_sset(work / f"d{i}.sset")[1] for i in (1, 2, 3))
    checks.check_split(samples, d1, d2, d3, names, corp.spec.unknown_names)
    with open(work / "clustering.json") as fh:
        selected_n = json.load(fh)["selected_n"]
    checks.check_clusters(corpus.read_sset(work / "d1_clustered.sset")[1], selected_n, corp.templates.benign)
    header, rows = checks.read_verdicts(work / "verdicts.csv")
    checks.check_verdicts(header, rows, len(d3))
    with open(work / "eval_report.json") as fh:
        report = json.load(fh)
    checks.check_eval_report(report, rows, d3["label"], names)
    return report


def check_round(w: Workload, inp: Inputs) -> tuple[float, float, list]:
    """Checks after a round. Returns (detect rate, benign rate, verdict rows
    the single-row verdicts are compared with)."""
    if w.streaming:
        header, rows = checks.read_verdicts(inp.work / "stream_verdicts.csv")
        checks.check_verdicts(header, rows, w.stream_rows)
        detect, benign = checks.check_stream_rates(rows, inp.stream_unknown, *STREAM_FLOORS)
        return detect, benign, rows
    report = check_pipeline(inp)
    if (inp.work / "d3_predict.csv").read_bytes() != (inp.work / "verdicts.csv").read_bytes():
        raise checks.CheckFailed("osnids predict on d3 and the evaluate stage wrote different verdicts")
    _, rows = checks.read_verdicts(inp.work / "d3_predict.csv")
    return report["sensitivity"], report["specificity"], rows


def single_rows(w: Workload, inp: Inputs, seed: int, rows: list, count: int) -> list[float]:
    """Score `count` seeded rows one at a time, check each against its batch
    verdict, and return the latencies in ms."""
    sset = inp.stream_path if w.streaming else inp.work / "d3.sset"
    indices = np.random.default_rng([seed, 3]).integers(0, len(rows), size=count).tolist()
    latencies, singles = library.single_verdicts(inp.work / "bundle", sset, indices)
    checks.check_single_verdicts(singles, rows, indices)
    return latencies


# --- the timed run ---


def _setup(w: Workload, seed: int, root: Path) -> Inputs:
    inp = write_inputs(w, seed, root)
    if w.streaming:
        train = run_child(stage_ops(inp), root)
        if not train.ok:
            raise RuntimeError(f"set-up training failed: {train.ops}; see {root / 'child.log'}")
    return inp


def measure(w: Workload, seed: int, seconds: float, run_dir: Path) -> dict:
    setup_times, inp = [], None
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        this = _setup(w, seed, run_dir / f"setup{k}")
        setup_times.append(time.perf_counter() - t0)
        if inp is None:
            inp = this
        else:
            shutil.rmtree(this.root)
    if w.streaming:
        check_pipeline(inp)

    ops = timed_ops(w, inp)
    per_op = w.stream_rows if w.streaming else 1  # operations per command
    rounds, rates, attempted, failed = [], set(), 0, 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        run = run_child(ops, inp.root)
        rounds.append(run)
        attempted += per_op * len(ops)
        failed += per_op * (len(ops) - sum(op["code"] == 0 for op in run.ops))
        if not run.ok:
            print(f"round failed: {run.ops}; see {inp.root / 'child.log'}", file=sys.stderr)
            return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        detect, benign, rows = check_round(w, inp)
        rates.add((detect, benign))
    if len(rates) > 1:
        raise checks.CheckFailed(f"rates differ between identical rounds: {sorted(rates)}")

    single_rows(w, inp, seed, rows, SINGLE_CHECKS)
    attempted += SINGLE_CHECKS

    detect, benign = rates.pop()
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "run_s": (median(r.wall_s for r in rounds), "s"),
        "cpu_s": (median(r.cpu_s for r in rounds), "s"),
        "peak_rss_mb": (median(r.peak_rss_mb for r in rounds), "MB"),
        "detect_rate": (detect, "ratio"),
        "benign_rate": (benign, "ratio"),
    }
    print(f"{w.name}: {len(rounds)} rounds, stage walls "
          f"{[round(op['wall_s'], 2) for op in rounds[0].ops]}", file=sys.stderr)
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


# --- the traced run ---


def _run_in_process(tracer: Optional[library.Tracer], ops: list[list[str]]) -> int:
    """Run CLI commands in this process, each in a span when traced.
    Returns the number that failed."""
    failures = 0
    for argv in ops:
        name = "cli.predict" if argv[0] == "predict" else "pipeline." + argv[0].replace("-", "_")
        if tracer is None:
            failures += library.cli_main(argv) != 0
        else:
            with tracer.span(name):
                failures += library.cli_main(argv) != 0
    return failures


def _traced(tracer: library.Tracer, ops: list[list[str]]) -> tuple[int, float]:
    library.install_layer_spans(tracer)
    try:
        t0 = time.perf_counter()
        failures = _run_in_process(tracer, ops)
        return failures, time.perf_counter() - t0
    finally:
        tracer.unwrap()


def trace(w: Workload, seed: int, run_dir: Path) -> dict:
    """One traced pass over the workload, in this process.

    The round's commands run once untraced and once with every call in
    `library.LAYER_CALLS` wrapped in a span; the difference is the tracing
    overhead. On predict-stream the set-up training is traced too, and
    layers the timed round never calls take their figures from it.
    """
    inp = write_inputs(w, seed, run_dir / "setup0")
    setup_tracer = library.Tracer()
    failed = _traced(setup_tracer, stage_ops(inp))[0] if w.streaming else 0
    ops = timed_ops(w, inp)

    t0 = time.perf_counter()
    failed += _run_in_process(None, ops)
    untraced_s = time.perf_counter() - t0
    tracer = library.Tracer()
    f, traced_s = _traced(tracer, ops)
    failed += f
    rows = check_round(w, inp)[2]
    if w.streaming:
        check_pipeline(inp)
    latencies = single_rows(w, inp, seed, rows, SINGLE_VERDICTS)

    fit_tracer = library.Tracer()
    nodes = library.fit_meta_families(fit_tracer, inp.work / "bundle", inp.work / "d2.sset", inp.cfg)
    metrics = layer_metrics(tracer, setup_tracer, fit_tracer, nodes, traced_s, untraced_s)
    predict_s = [sp["end"] - sp["start"] for sp in tracer.spans if sp["name"] == "cli.predict"]
    metrics["verdict_rate"] = (len(rows) / median(predict_s), "1/s")
    metrics["verdict_p50_ms"] = (float(np.percentile(latencies, 50)), "ms")
    metrics["verdict_p99_ms"] = (float(np.percentile(latencies, 99)), "ms")

    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{w.name}-seed{seed}.json", "w") as fh:
        json.dump({"timed": tracer.spans, "setup": setup_tracer.spans, "fits": fit_tracer.spans}, fh)
    per_op = w.stream_rows if w.streaming else 1
    return {"correct": failed == 0, "attempted": 2 * len(ops) * per_op + SINGLE_VERDICTS,
            "failed": failed * per_op, "metrics": metrics}


def layer_metrics(tracer, setup_tracer, fit_tracer, nodes, traced_s, untraced_s) -> dict:
    def source(name: str) -> library.Tracer:
        for t in (tracer, setup_tracer):
            if name in t.names():
                return t
        raise checks.CheckFailed(f"traced run recorded no {name} span")

    def total(name: str) -> float:
        return source(name).total(name)

    def note(name: str, key: str):
        return next(s[key] for s in source(name).spans if s["name"] == name)

    m = {}
    for stage in STAGES:
        name = "pipeline." + stage.replace("-", "_")
        m[f"{name}_s"] = (total(name), "s")
        m[f"{name}_cpu_s"] = (sum(s["cpu"] for s in source(name).spans if s["name"] == name), "s")
    for layer in ("parse", "label", "dedup", "undersample"):
        m[f"capture.{layer}_s"] = (total(f"capture.{layer}"), "s")
    m["capture.packets"] = (note("capture.parse", "packets"), "count")
    m["clustering.tsne_s"] = (total("clustering.tsne"), "s")
    m["clustering.tsne_iter_ms"] = (total("clustering.tsne") * 1e3 / note("clustering.tsne", "iterations"), "ms")
    m["clustering.kmeans_sweep_s"] = (total("clustering.kmeans_sweep"), "s")
    m["clustering.selected_n"] = (note("clustering.kmeans_sweep", "selected_n"), "count")
    m["learners.tensor_build_s"] = (total("learners.tensor_build"), "s")
    m["learners.train_base_s"] = (total("learners.train_base"), "s")
    epochs = [(s["end"] - s["start"]) / s["epochs"] for s in source("learners.train_scorer").spans
              if s["name"] == "learners.train_scorer"]
    m["learners.epoch_s"] = (median(epochs), "s")
    m["learners.meta_features_s"] = (total("learners.meta_features"), "s")
    m["meta.train_s"] = (total("meta.train"), "s")
    for family in ("logistic", "random_forest", "boost_depthwise", "boost_leafwise"):
        m[f"meta.fit_s.{family}"] = (fit_tracer.total(f"meta.fit.{family}"), "s")
    for family, count in nodes.items():
        m[f"trees.nodes.{family}"] = (count, "count")
    m["meta.predict_batch_s"] = (total("meta.predict_batch"), "s")
    for layer in ("sset_load", "bundle_load", "sset_save"):
        m[f"persistence.{layer}_s"] = (total(f"persistence.{layer}"), "s")
    m["evaluation.evaluate_s"] = (total("evaluation.evaluate"), "s")
    m["evaluation.baseline_s"] = (total("evaluation.baseline"), "s")
    top = sum(s["end"] - s["start"] for s in tracer.spans if s["parent"] is None)
    m["trace.run_s"] = (traced_s, "s")
    m["trace.untraced_run_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.op_share"] = (top / traced_s, "ratio")
    return m
