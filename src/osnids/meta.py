"""Four meta-classifier families, the majority vote, and the end-to-end
predictor.

The meta-classifiers consume the N base-learner probabilities and each emit
a bit (1 = attack). Their mean V decides the verdict: V >= 0.5 means
unknown attack, a deliberately security-conservative tie break.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import LengthMismatch, SingleClassLabels, UntrainedModel, WrongArity
from .learners import BaseEnsemble, meta_feature_matrix
from .trees import GradientBoostedTrees, RandomForest

BENIGN = "benign"
UNKNOWN_ATTACK = "unknown_attack"

META_FAMILIES = ("logistic", "random_forest", "boost_depthwise", "boost_leafwise")
VOTE_ARITY = 4
IRLS_ITERATIONS = 25
IRLS_L2 = 1e-6  # ridge on the logistic meta-classifier's weights, not its bias


@dataclass
class MetaConfig:
    forest_trees: int = 100
    forest_depth: int = 8
    boost_rounds: int = 100
    boost_learning_rate: float = 0.1
    boost_depth: int = 3
    boost_leaves: int = 15
    holdout_fraction: float = 0.2


class LogisticMetaClassifier:
    """Logistic regression fit by iteratively reweighted least squares."""

    def __init__(self):
        self.coef: Optional[np.ndarray] = None  # (d + 1,), bias last

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticMetaClassifier":
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        w = np.zeros(Xb.shape[1])
        reg = IRLS_L2 * np.eye(Xb.shape[1])
        reg[-1, -1] = 0.0
        for _ in range(IRLS_ITERATIONS):
            p = 1.0 / (1.0 + np.exp(-(Xb @ w)))
            r = np.maximum(p * (1.0 - p), 1e-9)
            H = (Xb * r[:, None]).T @ Xb + reg
            grad = Xb.T @ (p - y) + reg @ w
            step = np.linalg.solve(H, grad)
            w = w - step
            if float(np.abs(step).max()) < 1e-10:
                break
        self.coef = w
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        return 1.0 / (1.0 + np.exp(-(Xb @ self.coef)))


def _make_classifier(family: str, config: MetaConfig, seed: int):
    if family == "logistic":
        return LogisticMetaClassifier()
    if family == "random_forest":
        return RandomForest(n_trees=config.forest_trees, max_depth=config.forest_depth, seed=seed)
    if family == "boost_depthwise":
        return GradientBoostedTrees(
            growth="depthwise",
            rounds=config.boost_rounds,
            learning_rate=config.boost_learning_rate,
            max_depth=config.boost_depth,
        )
    if family == "boost_leafwise":
        return GradientBoostedTrees(
            growth="leafwise",
            rounds=config.boost_rounds,
            learning_rate=config.boost_learning_rate,
            max_leaves=config.boost_leaves,
        )
    raise WrongArity(f"unknown meta family {family!r}")


@dataclass
class MetaEnsemble:
    classifiers: list  # one per META_FAMILIES entry, same order
    families: tuple[str, ...] = META_FAMILIES
    holdout_accuracy: dict[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if len(self.classifiers) != VOTE_ARITY or len(self.families) != VOTE_ARITY:
            raise WrongArity(f"meta ensemble needs exactly {VOTE_ARITY} classifiers")


@dataclass(frozen=True)
class Verdict:
    decision: str  # BENIGN or UNKNOWN_ATTACK
    v: float
    outputs: tuple[int, int, int, int]


def train_meta_classifiers(
    features: np.ndarray,
    labels: np.ndarray,
    config: Optional[MetaConfig] = None,
    seed: int = 0,
) -> MetaEnsemble:
    """Fit all four families on identical data.

    Holdout accuracy per family is measured first on a seeded 80/20 split,
    then each classifier is refit on the full data.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.shape[0] != y.shape[0]:
        raise LengthMismatch(f"{X.shape[0]} feature rows vs {y.shape[0]} labels")
    if np.unique(y).size < 2:
        raise SingleClassLabels("meta training needs both benign and attack labels")
    config = config or MetaConfig()

    rng = np.random.default_rng(seed)
    order = rng.permutation(X.shape[0])
    n_train = int(round((1.0 - config.holdout_fraction) * X.shape[0]))
    train_idx, hold_idx = order[:n_train], order[n_train:]

    family_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(VOTE_ARITY)]
    classifiers = []
    holdout_accuracy = {}
    measurable = hold_idx.size > 0 and np.unique(y[train_idx]).size == 2
    for family, fam_seed in zip(META_FAMILIES, family_seeds):
        if measurable:
            probe = _make_classifier(family, config, fam_seed)
            probe.fit(X[train_idx], y[train_idx])
            pred = (probe.predict_proba(X[hold_idx]) >= 0.5).astype(np.float64)
            holdout_accuracy[family] = float((pred == y[hold_idx]).mean())
        clf = _make_classifier(family, config, fam_seed)
        clf.fit(X, y)
        classifiers.append(clf)
    return MetaEnsemble(
        classifiers=classifiers,
        holdout_accuracy=holdout_accuracy,
        seed=seed,
    )


def classifier_outputs(meta: MetaEnsemble, features: np.ndarray) -> np.ndarray:
    """(n, 4) bit matrix: each family's 0.5-thresholded probability."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    cols = [(clf.predict_proba(X) >= 0.5).astype(np.int64) for clf in meta.classifiers]
    return np.stack(cols, axis=1)


def vote(outputs: Sequence[int]) -> Verdict:
    """Mean of the four bits; V >= 0.5 classifies as unknown attack."""
    bits = tuple(int(o) for o in outputs)
    if len(bits) != VOTE_ARITY:
        raise WrongArity(f"expected {VOTE_ARITY} meta outputs, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise WrongArity(f"meta outputs must be bits, got {bits}")
    v = sum(bits) / VOTE_ARITY
    decision = UNKNOWN_ATTACK if v >= 0.5 else BENIGN
    return Verdict(decision=decision, v=v, outputs=bits)


def predict_batch(
    base: BaseEnsemble, meta: MetaEnsemble, samples: np.recarray
) -> tuple[list[Verdict], np.ndarray]:
    """Verdicts for a record array, plus the meta-feature matrix. A single
    sample is a one-row slice."""
    if not base.scorers or not meta.classifiers:
        raise UntrainedModel("both base and meta ensembles must be trained")
    mf = meta_feature_matrix(base, samples)
    bits = classifier_outputs(meta, mf)
    return [vote(row) for row in bits], mf


def write_verdict_csv(path, mf: np.ndarray, verdicts: Sequence[Verdict]) -> None:
    """Audit CSV: sample index, p_1..p_N, O_1..O_4, v, decision."""
    n_features = mf.shape[1] if mf.ndim == 2 else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = (
            ["index"]
            + [f"p_{i + 1}" for i in range(n_features)]
            + [f"O_{i + 1}" for i in range(VOTE_ARITY)]
            + ["v", "decision"]
        )
        writer.writerow(header)
        for i, verdict in enumerate(verdicts):
            row = [i]
            row += [repr(float(p)) for p in mf[i]]
            row += list(verdict.outputs)
            row += [repr(verdict.v), verdict.decision]
            writer.writerow(row)
