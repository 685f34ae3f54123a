"""Stage orchestration: each stage reads its inputs from the work
directory, writes its artifact there, and is independently re-runnable.
Identical configs and seeds reproduce identical artifacts byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import capture, clustering, evaluation, learners, meta, persistence, splits
from .config import require, setting, setting_list, settings
from .errors import ConfigError, IoFailure
from .samples import BENIGN_CLASS_ID, SampleSet

log = logging.getLogger("osnids")

SAMPLES = "samples.sset"
HELDOUT = "heldout.json"
INGEST_REPORT = "ingest_report.json"
D1, D2, D3 = "d1.sset", "d2.sset", "d3.sset"
D1_CLUSTERED = "d1_clustered.sset"
SPLIT_MANIFEST = "split_manifest.csv"
CLUSTER_CSV, CLUSTER_JSON = "clustering.csv", "clustering.json"
BUNDLE_DIR = "bundle"
TRAINING_CURVES = "training_curves.csv"
EVAL_REPORT = "eval_report.json"
EVAL_REPORT_CSV = "eval_report.csv"
BASELINE_REPORT = "baseline_report.json"
VERDICTS = "verdicts.csv"
SWEEP_KEYS = ("k_min", "k_max", "restarts")  # the k-means sweep's `cluster` keys


def workdir_of(cfg: dict) -> Path:
    wd = Path(require(cfg, "workdir"))
    try:
        wd.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create workdir {wd}: {exc}") from exc
    return wd


def _seed(cfg: dict) -> int:
    return setting(cfg, "seed", int)


def _scorer_kind(cfg: dict) -> str:
    kind = setting(cfg, "learners.kind", str)
    if kind not in learners.SCORER_KINDS:
        raise ConfigError(f"config key learners.kind: expected one of {', '.join(learners.SCORER_KINDS)}, got {kind!r}")
    return kind


def _config_digest(cfg: dict) -> str:
    """Digest of the settings that shape the trained models, as the stages
    decode them: a key no stage reads does not change it."""
    seed = _seed(cfg)
    relevant = {
        "seed": seed,
        "cluster": asdict(settings(cfg, "cluster", clustering.EmbeddingParams, seed=seed)),
        "sweep": {key: setting(cfg, f"cluster.{key}", int) for key in SWEEP_KEYS},
        "learners.kind": _scorer_kind(cfg),
        "learners": asdict(settings(cfg, "learners", learners.TrainingConfig, seed=seed)),
        "meta": asdict(settings(cfg, "meta", meta.MetaConfig)),
    }
    blob = json.dumps(relevant, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def stage_synth(cfg: dict) -> Path:
    wd = workdir_of(cfg)
    corpus = evaluation.generate_synthetic(settings(cfg, "synth", evaluation.SyntheticConfig, seed=_seed(cfg)))
    persistence.save_sample_set(corpus.sample_set, wd / SAMPLES)
    persistence.write_json(wd / HELDOUT, {"heldout_classes": corpus.heldout_classes})
    log.info("synth: %d samples, %d classes", len(corpus.sample_set), len(corpus.sample_set.class_names))
    return wd / SAMPLES


def stage_ingest(cfg: dict) -> Path:
    wd = workdir_of(cfg)
    pcap_path = require(cfg, "ingest.pcap")
    flows_path = require(cfg, "ingest.flows")
    column_map = require(cfg, "ingest.column_map")
    benign_label = require(cfg, "ingest.benign_label")
    ratio = setting(cfg, "ingest.undersample_ratio", float)

    parsed = capture.parse_capture(pcap_path)
    flows = capture.read_flow_csv(flows_path, column_map)
    labeled, unmatched = capture.label_packets(parsed, flows, benign_label=benign_label)
    deduped = capture.deduplicate(labeled.samples)
    final = capture.undersample_benign(deduped, ratio, _seed(cfg))
    out = SampleSet(class_names=labeled.class_names, samples=final)
    persistence.save_sample_set(out, wd / SAMPLES)
    report = {
        "packets": len(parsed),
        "skipped": parsed.skipped,
        "matched": unmatched.matched,
        "no_match": unmatched.no_match,
        "empty_payload": unmatched.empty_payload,
        "after_dedup": len(deduped),
        "after_undersample": len(final),
    }
    persistence.write_json(wd / INGEST_REPORT, report)
    log.info("ingest: %d packets -> %d samples", len(parsed), len(final))
    return wd / SAMPLES


def _heldout_classes(cfg: dict, wd: Path) -> list[str]:
    source = require(cfg, "pipeline.source")
    if source == "synth":
        heldout_file = wd / HELDOUT
        if not heldout_file.exists():
            raise ConfigError(f"{heldout_file} not found; run the synth stage first")
        return persistence.json_field(persistence.read_json(heldout_file), "heldout_classes", list, None, str)
    return setting_list(cfg, "split.heldout_classes", str)


def stage_split(cfg: dict) -> splits.SplitResult:
    wd = workdir_of(cfg)
    sample_set = persistence.load_sample_set(wd / SAMPLES)
    spec = splits.SplitSpec(
        heldout_classes=frozenset(_heldout_classes(cfg, wd)),
        benign_ratios=tuple(setting_list(cfg, "split.benign_ratios", float, 3)),
        seed=_seed(cfg),
    )
    result = splits.build_splits(sample_set, spec)
    for name, part in ((D1, result.d1), (D2, result.d2), (D3, result.d3)):
        persistence.save_sample_set(SampleSet(class_names=result.class_names, samples=part), wd / name)
    persistence.write_csv(wd / SPLIT_MANIFEST, [("split", "class", "count"), *result.manifest])
    log.info("split: d1=%d d2=%d d3=%d", len(result.d1), len(result.d2), len(result.d3))
    return result


def stage_cluster(cfg: dict) -> clustering.ClusteringReport:
    wd = workdir_of(cfg)
    for stale in (D1_CLUSTERED, CLUSTER_CSV, CLUSTER_JSON):  # a refused run leaves no partition behind
        persistence.remove(wd / stale)
    params = settings(cfg, "cluster", clustering.EmbeddingParams, seed=_seed(cfg))
    sweep = {key: setting(cfg, f"cluster.{key}", int) for key in SWEEP_KEYS}
    d1 = persistence.load_sample_set(wd / D1)
    embedding = clustering.tsne_embed(learners.sample_tensors(d1.samples), params)
    report = clustering.select_cluster_count(embedding, **sweep, seed=_seed(cfg))
    learners.require_trainable(report.assignments, report.selected_n)  # before any artifact is written
    annotated = clustering.annotate_clusters(d1.samples, report.assignments)
    persistence.save_sample_set(SampleSet(class_names=d1.class_names, samples=annotated), wd / D1_CLUSTERED)
    per_k = [(k, repr(sse), repr(sil)) for k, sse, sil in report.per_k]
    persistence.write_csv(wd / CLUSTER_CSV, [("k", "sse", "silhouette"), *per_k])
    persistence.write_json(wd / CLUSTER_JSON, {
        "selected_n": report.selected_n,
        "centroids": report.centroids.tolist(),
        "per_k": [{"k": k, "sse": sse, "silhouette": sil} for k, sse, sil in report.per_k],
    })
    log.info("cluster: selected N=%d", report.selected_n)
    return report


def stage_train_base(cfg: dict) -> learners.BaseEnsemble:
    wd = workdir_of(cfg)
    digest = _config_digest(cfg)  # decodes every section it covers before anything trains
    kind = _scorer_kind(cfg)
    config = settings(cfg, "learners", learners.TrainingConfig, seed=_seed(cfg))
    d1 = persistence.load_sample_set(wd / D1_CLUSTERED)
    n = len(np.unique(d1.samples.cluster))  # train_base_ensemble refuses ids that are not 0..n-1
    ensemble = learners.train_base_ensemble(d1.samples, n, config=config, kind=kind)
    persistence.save_bundle(ensemble, None, wd / BUNDLE_DIR, config_digest=digest)
    curves = [
        (i, epoch, repr(loss))
        for i, scorer in enumerate(ensemble.scorers)
        for epoch, loss in enumerate(scorer.training_meta["loss_curve"])
    ]
    persistence.write_csv(wd / TRAINING_CURVES, [("cluster", "epoch", "loss"), *curves])
    log.info("train-base: %d scorers (%s)", n, kind)
    return ensemble


def stage_train_meta(cfg: dict) -> meta.MetaEnsemble:
    wd = workdir_of(cfg)
    digest = _config_digest(cfg)
    config = settings(cfg, "meta", meta.MetaConfig)
    base, _ = persistence.load_bundle(wd / BUNDLE_DIR)
    d2 = persistence.load_sample_set(wd / D2)
    features = learners.meta_feature_matrix(base, d2.samples)
    labels = (d2.samples.label != BENIGN_CLASS_ID).astype(np.float64)
    ensemble = meta.train_meta_classifiers(features, labels, config=config, seed=_seed(cfg))
    if config.holdout_fraction > 0 and not ensemble.holdout_accuracy:
        log.warning("train-meta: holdout_fraction %s leaves one class on the training side; no probe ran",
                    config.holdout_fraction)
    persistence.save_bundle(base, ensemble, wd / BUNDLE_DIR, config_digest=digest)
    log.info("train-meta: holdout accuracy %s", ensemble.holdout_accuracy)
    return ensemble


def stage_evaluate(cfg: dict) -> evaluation.EvalReport:
    wd = workdir_of(cfg)
    quantile = setting(cfg, "eval.baseline_quantile", float)
    d1 = persistence.load_sample_set(wd / D1_CLUSTERED)  # before any output is rewritten
    base, meta_ens = persistence.load_bundle(wd / BUNDLE_DIR)
    d3 = persistence.load_sample_set(wd / D3)
    report, verdicts, mf = evaluation.evaluate(base, meta_ens, d3.samples, d3.class_names)
    persistence.write_json(wd / EVAL_REPORT, report.to_dict())
    persistence.write_csv(wd / EVAL_REPORT_CSV, report.to_rows())
    persistence.write_verdict_csv(wd / VERDICTS, mf, verdicts)
    baseline = evaluation.naive_baseline(d1.samples, d3.samples, d3.class_names, threshold_quantile=quantile)
    persistence.write_json(wd / BASELINE_REPORT, baseline.to_dict())
    log.info(
        "evaluate: sensitivity=%s specificity=%s",
        report.sensitivity,
        report.specificity,
    )
    return report


def run_pipeline(cfg: dict) -> evaluation.EvalReport:
    """Acquire the corpus, then split, cluster, train base, train meta,
    and evaluate, persisting each stage's artifact along the way."""
    source = require(cfg, "pipeline.source")
    if source == "synth":
        stage_synth(cfg)
    elif source == "ingest":
        stage_ingest(cfg)
    elif source == "existing":
        wd = workdir_of(cfg)
        if not (wd / SAMPLES).exists():
            raise ConfigError(f"pipeline.source=existing but {wd / SAMPLES} not found")
    else:
        raise ConfigError(f"pipeline.source must be synth, ingest or existing, got {source!r}")
    stage_split(cfg)
    stage_cluster(cfg)
    stage_train_base(cfg)
    stage_train_meta(cfg)
    return stage_evaluate(cfg)
