"""Scoring on D3, the desk-scale synthetic corpus, and a naive baseline.

Unknown attack is the positive class throughout: sensitivity is the
detection rate of unknown attacks, specificity the detection rate of
benign traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyDataset, InvalidRange, SeparationUnsatisfiable
from .learners import BaseEnsemble
from .meta import MetaEnsemble, Verdicts, predict_batch
from .samples import BENIGN_CLASS_ID, BENIGN_CLASS_NAME, FEATURE_LEN, SampleSet, make_records


@dataclass
class EvalReport:
    tp: int
    tn: int
    fp: int
    fn: int
    per_class: dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def sensitivity(self) -> Optional[float]:
        pos = self.tp + self.fn
        return self.tp / pos if pos else None

    @property
    def specificity(self) -> Optional[float]:
        neg = self.tn + self.fp
        return self.tn / neg if neg else None

    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "tn": self.tn,
            "fp": self.fp,
            "fn": self.fn,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "per_class": dict(sorted(self.per_class.items())),
        }

    def to_rows(self) -> list[tuple]:
        """The (metric, value) table of eval_report.csv; an undefined rate is empty."""
        rates = [("sensitivity", self.sensitivity), ("specificity", self.specificity)]
        rates += [(f"detection_rate[{name}]", rate) for name, rate in sorted(self.per_class.items())]
        counts = [(key, getattr(self, key)) for key in ("tp", "tn", "fp", "fn")]
        return [("metric", "value"), *counts, *((key, "" if r is None else repr(r)) for key, r in rates)]


def _report_from_predictions(
    samples: np.recarray,
    is_attack_pred,
    class_names: Sequence[str],
) -> EvalReport:
    predicted = np.asarray(is_attack_pred, dtype=bool)
    actual = samples.label != BENIGN_CLASS_ID
    totals = np.bincount(samples.label, minlength=len(class_names))
    hits = np.bincount(samples.label, weights=predicted == actual, minlength=len(class_names))
    per_class = {class_names[c]: int(hits[c]) / int(totals[c]) for c in np.flatnonzero(totals)}
    return EvalReport(
        tp=int(np.sum(actual & predicted)),
        tn=int(np.sum(~actual & ~predicted)),
        fp=int(np.sum(~actual & predicted)),
        fn=int(np.sum(actual & ~predicted)),
        per_class=per_class,
    )


def evaluate(
    base: BaseEnsemble,
    meta: MetaEnsemble,
    d3: np.recarray,
    class_names: Sequence[str],
) -> tuple[EvalReport, Verdicts, np.ndarray]:
    """Confusion counts plus per-true-class detection rates over D3."""
    if len(d3) == 0:
        raise EmptyDataset("evaluation dataset is empty")
    verdicts, mf = predict_batch(base, meta, d3)
    return _report_from_predictions(d3, verdicts.attack, class_names), verdicts, mf


# --- synthetic corpus ---


@dataclass(frozen=True)
class SyntheticConfig:
    n_benign_clusters: int = 7
    n_known_attack_classes: int = 9
    n_unknown_attack_classes: int = 5
    samples_per_class: int = 200
    noise_sigma: float = 8.0
    min_hamming_separation: int = 1200
    seed: int = 0

    def __post_init__(self):
        counts = (
            self.n_benign_clusters,
            self.n_known_attack_classes,
            self.n_unknown_attack_classes,
            self.samples_per_class,
        )
        if any(c < 1 for c in counts):
            raise InvalidRange("all synthetic counts must be >= 1")
        if not (0 <= self.min_hamming_separation <= FEATURE_LEN):
            raise InvalidRange(
                f"hamming separation must lie in [0, {FEATURE_LEN}], got {self.min_hamming_separation}"
            )
        if self.noise_sigma < 0:
            raise InvalidRange("noise sigma must be >= 0")


@dataclass
class SyntheticCorpus:
    sample_set: SampleSet
    heldout_classes: list[str]
    benign_templates: np.ndarray  # (n_benign_clusters, 1500) uint8
    known_templates: np.ndarray
    unknown_templates: np.ndarray


def _draw_templates(rng: np.random.Generator, count: int, existing: list[np.ndarray], min_sep: int):
    out = []
    for _ in range(count):
        for _attempt in range(1000):
            tpl = rng.integers(0, 256, size=FEATURE_LEN, dtype=np.uint8)
            if not tpl.any():
                continue
            if all(int(np.count_nonzero(tpl != other)) >= min_sep for other in existing):
                existing.append(tpl)
                out.append(tpl)
                break
        else:
            raise SeparationUnsatisfiable(
                f"could not draw {count} templates with pairwise Hamming >= {min_sep}"
            )
    return out


def _noisy_rows(rng, template, count, sigma) -> np.ndarray:
    """(count, 1500) noisy copies of a template; all-zero draws are redrawn."""
    base = template.astype(np.float64)
    rows = np.empty((count, FEATURE_LEN), dtype=np.uint8)
    for i in range(count):
        while True:
            rows[i] = np.clip(np.rint(base + rng.normal(0.0, sigma, size=FEATURE_LEN)), 0, 255)
            if rows[i].any():
                break
    return rows


def generate_synthetic(config: SyntheticConfig) -> SyntheticCorpus:
    """Deterministic template-plus-noise corpus.

    Every class (and every benign sub-cluster) gets its own random byte
    template; all templates are pairwise separated by at least the
    configured Hamming distance, so classes are distinguishable by
    construction.
    """
    rng = np.random.default_rng(config.seed)
    all_templates: list[np.ndarray] = []
    benign = _draw_templates(rng, config.n_benign_clusters, all_templates, config.min_hamming_separation)
    known = _draw_templates(rng, config.n_known_attack_classes, all_templates, config.min_hamming_separation)
    unknown = _draw_templates(rng, config.n_unknown_attack_classes, all_templates, config.min_hamming_separation)

    known_names = [f"known_attack_{i}" for i in range(config.n_known_attack_classes)]
    unknown_names = [f"unknown_attack_{i}" for i in range(config.n_unknown_attack_classes)]
    class_names = [BENIGN_CLASS_NAME] + known_names + unknown_names

    # benign templates, then known, then unknown: class ids 0, 0, ..., 1, 2, ...
    templates = benign + known + unknown
    template_labels = [BENIGN_CLASS_ID] * len(benign) + list(range(1, len(known) + len(unknown) + 1))
    rows = [_noisy_rows(rng, tpl, config.samples_per_class, config.noise_sigma) for tpl in templates]
    samples = make_records(np.concatenate(rows), np.repeat(template_labels, config.samples_per_class))

    return SyntheticCorpus(
        sample_set=SampleSet(class_names=class_names, samples=samples),
        heldout_classes=unknown_names,
        benign_templates=np.stack(benign),
        known_templates=np.stack(known),
        unknown_templates=np.stack(unknown),
    )


# --- naive centroid-distance baseline ---


def naive_baseline(
    d1: np.recarray,
    d3: np.recarray,
    class_names: Sequence[str],
    threshold_quantile: float = 0.99,
) -> EvalReport:
    """Distance-to-nearest-benign-centroid detector in raw byte space.

    Centroids come from D1's cluster ids when present (one global centroid
    otherwise); the threshold is the given quantile of D1's own
    nearest-centroid distances.
    """
    if len(d1) == 0 or len(d3) == 0:
        raise EmptyDataset("baseline needs non-empty d1 and d3")
    if not (0.0 <= threshold_quantile <= 1.0):
        raise InvalidRange(f"quantile must lie in [0, 1], got {threshold_quantile}")

    X1 = d1.features.astype(np.float64)
    cluster_ids = d1.cluster
    if np.all(cluster_ids >= 0):
        centroids = np.stack([X1[cluster_ids == i].mean(axis=0) for i in np.unique(cluster_ids)])
    else:
        centroids = X1.mean(axis=0, keepdims=True)

    c_sq = (centroids * centroids).sum(axis=1)

    def nearest(X: np.ndarray) -> np.ndarray:
        d2 = (X * X).sum(axis=1)[:, None] + c_sq[None, :] - 2.0 * (X @ centroids.T)
        return np.sqrt(np.maximum(d2.min(axis=1), 0.0))

    threshold = float(np.quantile(nearest(X1), threshold_quantile))
    preds = nearest(d3.features.astype(np.float64)) > threshold
    return _report_from_predictions(d3, preds, class_names)
