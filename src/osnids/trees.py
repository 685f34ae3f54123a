"""Decision-tree building blocks for the meta-classifier families.

All trees share one flat node-array representation (feature == -1 marks a
leaf), which keeps prediction vectorized and serialization trivial. One
second-order split finder serves every family, on columns sorted once per
tree fit (once per boosting fit), and two growers use it: depth-first to a
fixed depth (the forest's Gini CARTs, as g = -y, h = 1, lambda = 0, and
depthwise boosting) and best-first under a leaf cap (leafwise boosting).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

_GAIN_TOL = 1e-12
BOOST_LAMBDA = 1.0  # L2 penalty on boosted leaf weights


@dataclass
class TreeNodes:
    feature: np.ndarray  # int32; -1 marks a leaf
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    value: np.ndarray  # float64 leaf outputs; 0 for internal nodes

    def __len__(self) -> int:
        return len(self.feature)


class _Builder:
    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add(self, value: float = 0.0) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def make_split(self, node: int, feature: int, threshold: float, left: int, right: int) -> None:
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right
        self.value[node] = 0.0

    def finish(self) -> TreeNodes:
        return TreeNodes(
            feature=np.array(self.feature, dtype=np.int32),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            value=np.array(self.value, dtype=np.float64),
        )


def predict_tree(nodes: TreeNodes, X: np.ndarray) -> np.ndarray:
    """Route every row to its leaf; returns the leaf values."""
    idx = np.zeros(X.shape[0], dtype=np.int64)
    active = nodes.feature[idx] >= 0
    while active.any():
        rows = np.flatnonzero(active)
        node = idx[rows]
        go_left = X[rows, nodes.feature[node]] <= nodes.threshold[node]
        idx[rows] = np.where(go_left, nodes.left[node], nodes.right[node])
        active = nodes.feature[idx] >= 0
    return nodes.value[idx]


def distinct_rows(trees: list[TreeNodes], X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, inverse): the first of each group of X's rows that compare alike
    with every split of `trees`, and each row's group, so routing `rows` and
    gathering by `inverse` equals routing X. A row's key is, per feature, the
    rank of its value among the family's thresholds, which fixes every `x <= t`;
    a 1-D `np.unique` on the keys' bytes groups them (`axis=0` is far slower)."""
    X = np.asarray(X, dtype=np.float64)
    feature = np.concatenate([t.feature for t in trees] or [np.empty(0, np.int32)])
    threshold = np.concatenate([t.threshold for t in trees] or [np.empty(0)])
    keys = np.empty(X.shape, dtype=np.min_scalar_type(feature.size))
    for j in range(X.shape[1]):
        keys[:, j] = np.searchsorted(np.unique(threshold[feature == j]), X[:, j])
    rows = keys.view(np.dtype((np.void, keys.itemsize * X.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return X[first], inverse


# --- one split finder and two growers ---


def _best_split(X, order, idx, g, h, reg_lambda, feature_ids):
    """Best (gain, feature, threshold) by the second-order gain over the
    candidate features; None when nothing gains more than _GAIN_TOL.

    `order[f]` is X's stable argsort by feature f and `idx` the node's rows
    (two or more), ascending, so `order[f]` filtered to the node is the node's
    stable sort. One (k, m) pass scores all candidates; ties score -inf.

    Gini CART is the case g = -y, h = 1, reg_lambda = 0: its impurity
    decrease is 4/n times this gain.
    """
    G, H = g[idx].sum(), h[idx].sum()
    parent = G * G / (H + reg_lambda)
    feats = np.asarray(feature_ids)
    member = np.zeros(X.shape[0], dtype=bool)
    member[idx] = True
    cols = order[feats]
    rows = np.extract(member[cols], cols).reshape(feats.size, idx.size)  # a third of cols[mask]'s time
    xs = X[rows, feats[:, None]]
    G_l = np.cumsum(g[rows], axis=1)[:, :-1]
    H_l = np.cumsum(h[rows], axis=1)[:, :-1]
    gain = 0.5 * (G_l**2 / (H_l + reg_lambda) + (G - G_l) ** 2 / (H - H_l + reg_lambda) - parent)
    gain = np.where(xs[:, :-1] < xs[:, 1:], gain, -np.inf)
    top = gain.max(axis=1)
    f = int(top.argmax())  # the first feature holding the top gain
    if not top[f] > _GAIN_TOL:
        return None
    j = int(gain[f].argmax())
    return float(top[f]), int(feats[f]), float((xs[f, j] + xs[f, j + 1]) / 2.0)


def _leaf_weight(g, h, reg_lambda) -> float:
    # (-g).sum(), not -g.sum(): an all-benign forest leaf must store +0.0
    return float((-g).sum() / (h.sum() + reg_lambda))


def build_tree(X, g, h, max_depth: int, reg_lambda: float, rng=None, max_features=None, order=None) -> TreeNodes:
    """Grow depth-first to a fixed depth, splitting while gain is positive.

    A node whose gradient is constant is a leaf. With `max_features` below
    the feature count, each split draws that many candidate features from
    `rng`. `order` is X's stable per-feature argsort, made here when not given.
    """
    n_features = X.shape[1]
    order = np.argsort(X.T, axis=1, kind="stable") if order is None else order
    builder = _Builder()

    def grow(idx: np.ndarray, depth: int) -> int:
        gsub, hsub = g[idx], h[idx]
        if depth >= max_depth or gsub.min() == gsub.max():
            return builder.add(_leaf_weight(gsub, hsub, reg_lambda))
        if max_features is not None and max_features < n_features:
            feats = np.sort(rng.choice(n_features, size=max_features, replace=False))
        else:
            feats = range(n_features)
        best = _best_split(X, order, idx, g, h, reg_lambda, feats)
        if best is None:
            return builder.add(_leaf_weight(gsub, hsub, reg_lambda))
        _, f, thr = best
        node = builder.add()
        go_left = X[idx, f] <= thr
        left = grow(idx[go_left], depth + 1)
        right = grow(idx[~go_left], depth + 1)
        builder.make_split(node, f, thr, left, right)
        return node

    grow(np.arange(X.shape[0]), 0)
    return builder.finish()


def build_boost_tree_leafwise(X, g, h, max_leaves: int, order=None) -> TreeNodes:
    """Grow best-first: repeatedly split the leaf with the largest gain
    until the leaf cap. `order` is as for `build_tree`."""
    features = range(X.shape[1])
    order = np.argsort(X.T, axis=1, kind="stable") if order is None else order
    builder = _Builder()
    root = builder.add(_leaf_weight(g, h, BOOST_LAMBDA))

    heap: list = []
    counter = 0

    def offer(node: int, idx: np.ndarray) -> None:
        nonlocal counter
        if idx.size < 2:
            return
        best = _best_split(X, order, idx, g, h, BOOST_LAMBDA, features)
        if best is not None:
            heapq.heappush(heap, (-best[0], counter, node, idx, best[1], best[2]))
            counter += 1

    offer(root, np.arange(X.shape[0]))
    n_leaves = 1
    while heap and n_leaves < max_leaves:
        _, _, node, idx, f, thr = heapq.heappop(heap)
        go_left = X[idx, f] <= thr
        left_idx, right_idx = idx[go_left], idx[~go_left]
        left = builder.add(_leaf_weight(g[left_idx], h[left_idx], BOOST_LAMBDA))
        right = builder.add(_leaf_weight(g[right_idx], h[right_idx], BOOST_LAMBDA))
        builder.make_split(node, f, thr, left, right)
        n_leaves += 1
        offer(left, left_idx)
        offer(right, right_idx)
    return builder.finish()


# --- ensembles over the builders ---


@dataclass
class RandomForest:
    """Bagged Gini CARTs with per-split feature subsampling."""

    n_trees: int = 100
    max_depth: int = 8
    seed: int = 0
    trees: list[TreeNodes] = field(default_factory=list)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, d = X.shape
        max_features = max(1, int(round(np.sqrt(d))))
        rng = np.random.default_rng(self.seed)
        self.trees = []
        for _ in range(self.n_trees):
            boot = rng.integers(0, n, size=n)
            self.trees.append(
                build_tree(X[boot], -y[boot], np.ones(n), self.max_depth, 0.0, rng, max_features)
            )
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X, inverse = distinct_rows(self.trees, X)
        return np.mean([predict_tree(t, X) for t in self.trees], axis=0)[inverse]


@dataclass
class GradientBoostedTrees:
    """Boosted trees on the logistic loss with Newton leaf weights."""

    growth: str = "depthwise"  # or "leafwise"
    rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    max_leaves: int = 15
    base_score: float = 0.0
    trees: list[TreeNodes] = field(default_factory=list)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        prior = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
        self.base_score = float(np.log(prior / (1.0 - prior)))
        F = np.full(X.shape[0], self.base_score)
        order = np.argsort(X.T, axis=1, kind="stable")  # X is fixed for the whole fit
        self.trees = []
        for _ in range(self.rounds):
            p = 1.0 / (1.0 + np.exp(-F))
            g = p - y
            h = np.maximum(p * (1.0 - p), 1e-12)
            if self.growth == "depthwise":
                tree = build_tree(X, g, h, self.max_depth, BOOST_LAMBDA, order=order)
            else:
                tree = build_boost_tree_leafwise(X, g, h, self.max_leaves, order)
            self.trees.append(tree)
            F = F + self.learning_rate * predict_tree(tree, X)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X, inverse = distinct_rows(self.trees, X)
        F = np.full(X.shape[0], self.base_score)
        for tree in self.trees:
            F = F + self.learning_rate * predict_tree(tree, X)
        return (1.0 / (1.0 + np.exp(-F)))[inverse]
