"""Four meta-classifier families, the majority vote, and the end-to-end
predictor.

The meta-classifiers consume the N base-learner probabilities and each emit
a bit (1 = attack). Their mean V decides the verdict: V >= 0.5 means
unknown attack, a deliberately security-conservative tie break.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidRange, LengthMismatch, SingleClassLabels, UntrainedModel, WrongArity
from .learners import BaseEnsemble, meta_feature_matrix
from .parallel import fork_map
from .trees import GradientBoostedTrees, RandomForest, sigmoid

BENIGN = "benign"
UNKNOWN_ATTACK = "unknown_attack"

META_FAMILIES = ("logistic", "random_forest", "boost_depthwise", "boost_leafwise")
VOTE_ARITY = len(META_FAMILIES)
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

    def __post_init__(self):
        # below these, a family has no tree or no split: it votes one class on every row
        least = {"forest_trees": 1, "forest_depth": 1, "boost_rounds": 1, "boost_depth": 1, "boost_leaves": 2}
        for name, low in least.items():
            if getattr(self, name) < low:
                raise InvalidRange(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0 < self.boost_learning_rate < float("inf"):
            raise InvalidRange(f"boost_learning_rate must be finite and > 0, got {self.boost_learning_rate}")
        if not 0 <= self.holdout_fraction < 1:
            raise InvalidRange(f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}")


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
            p = sigmoid(Xb @ w)
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
        return sigmoid(Xb @ self.coef)


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
    holdout_accuracy: dict[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if len(self.classifiers) != VOTE_ARITY:
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
    then each classifier is refit on the full data; the eight fits run side
    by side (`fork_map`).
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
    if config.holdout_fraction > 0 and not 0 < n_train < X.shape[0]:
        side = "holdout" if n_train else "training"
        raise InvalidRange(f"holdout_fraction {config.holdout_fraction} leaves no {side} row of {X.shape[0]} rows")
    train_idx, hold_idx = order[:n_train], order[n_train:]

    family_seeds = dict(zip(META_FAMILIES, np.random.SeedSequence(seed).generate_state(VOTE_ARITY).tolist()))
    measurable = hold_idx.size > 0 and np.unique(y[train_idx]).size == 2

    def fit(job):
        family, probe = job
        clf = _make_classifier(family, config, family_seeds[family])
        if not probe:
            return clf.fit(X, y)
        clf.fit(X[train_idx], y[train_idx])
        pred = (clf.predict_proba(X[hold_idx]) >= 0.5).astype(np.float64)
        return float((pred == y[hold_idx]).mean())

    probes = (True, False) if measurable else (False,)
    jobs = [(family, probe) for family in META_FAMILIES for probe in probes]  # the plain loop's order
    done = dict(zip(jobs, fork_map(fit, jobs)))
    classifiers = [done[family, False] for family in META_FAMILIES]
    holdout_accuracy = {family: done[family, True] for family in META_FAMILIES if measurable}
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


class Verdicts(Sequence):
    """A batch's verdicts as arrays: `bits` (n, 4), their means `v` and
    `attack` = v >= 0.5. Indexing builds one `Verdict` of Python values."""

    def __init__(self, bits: np.ndarray):
        self.bits = bits
        self.v = bits.sum(axis=1) / VOTE_ARITY
        self.attack = self.v >= 0.5

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> Verdict:
        decision = UNKNOWN_ATTACK if self.attack[i] else BENIGN
        return Verdict(decision=decision, v=float(self.v[i]), outputs=tuple(self.bits[i].tolist()))


def vote(outputs: Sequence[int]) -> Verdict:
    """Mean of the four bits; V >= 0.5 classifies as unknown attack."""
    bits = np.array([[int(o) for o in outputs]])
    if bits.shape[1] != VOTE_ARITY or not np.isin(bits, (0, 1)).all():
        raise WrongArity(f"expected {VOTE_ARITY} meta output bits, got {bits[0].tolist()}")
    return Verdicts(bits)[0]


def predict_batch(
    base: BaseEnsemble, meta: Optional[MetaEnsemble], samples: np.recarray
) -> tuple[Verdicts, np.ndarray]:
    """Verdicts for a record array, plus the meta-feature matrix. A single
    sample is a one-row slice. `meta` is None for a `train-base` bundle."""
    if meta is None or not base.scorers or not meta.classifiers:
        raise UntrainedModel("both base and meta ensembles must be trained; run train-meta after train-base")
    mf = meta_feature_matrix(base, samples)
    return Verdicts(classifier_outputs(meta, mf)), mf
