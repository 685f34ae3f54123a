"""Decision-tree building blocks for the meta-classifier families.

All trees share one flat node-array representation (feature == -1 marks a
leaf). A family stores its trees only as one node table, built once at the
end of a fit or in the bundle decoder; its `trees` is a read-only view. One
second-order split finder serves every family, on columns sorted once per
fit (the forest ranks its values once and sorts each bootstrap's ranks), and
two growers use it: depth-first to a fixed depth (the forest's Gini CARTs,
as g = -y, h = 1, lambda = 0, and depthwise boosting) and best-first under
a leaf cap (leafwise boosting). Neither searches a node whose g is constant.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

_GAIN_TOL = 1e-12
BOOST_LAMBDA = 1.0  # L2 penalty on boosted leaf weights


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic link of boosting and of the logistic meta-classifier."""
    with np.errstate(over="ignore"):  # exp(-z) = inf for z << 0 gives the limit 1 / (1 + inf) = 0
        return 1.0 / (1.0 + np.exp(-z))


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
    def __init__(self, n_rows: int):
        self.nodes: list[list] = []  # [feature, threshold, left, right, value]
        self.fitted = np.empty(n_rows)  # each training row's leaf value

    def add(self, value: float = 0.0, rows=None) -> int:
        """A leaf holding `value`, with the training rows placed in it (none for a split-to-be)."""
        self.nodes.append([-1, 0.0, -1, -1, value])
        if rows is not None:
            self.fitted[rows] = value
        return len(self.nodes) - 1

    def make_split(self, node: int, feature: int, threshold: float, left: int, right: int) -> None:
        self.nodes[node] = [feature, threshold, left, right, 0.0]

    def finish(self) -> tuple[TreeNodes, np.ndarray]:
        dtypes = (np.int32, np.float64, np.int32, np.int32, np.float64)
        return TreeNodes(*map(np.array, zip(*self.nodes), dtypes)), self.fitted


def node_table(trees: list[TreeNodes]) -> tuple[TreeNodes, np.ndarray]:
    """A family's trees as one node table, and `bounds`: tree t holds nodes
    bounds[t]:bounds[t + 1] and is rooted at bounds[t]. The node arrays run
    end to end, with child indices (int64) shifted to index the table."""
    sizes = [len(t) for t in trees]
    bounds = np.cumsum([0, *sizes])
    shift = np.repeat(bounds[:-1], sizes)
    columns = zip(*[(t.feature, t.threshold, t.left, t.right, t.value) for t in trees])
    feature, threshold, left, right, value = [np.concatenate(c) for c in columns] or [np.empty(0, np.int32)] * 5
    return TreeNodes(feature, threshold, left + shift, right + shift, value), bounds


class TreeFamily:
    """What both tree families store, built once by `store` and never rebuilt:
    one node table, its `bounds`, and each split feature's sorted `thresholds`."""

    def store(self, trees: list[TreeNodes]):
        """Keep the grown or decoded trees as the stored form; returns self."""
        self.table, self.bounds = node_table(trees)
        for column in vars(self.table).values():
            column.flags.writeable = False  # the `trees` views share them
        f, t = self.table.feature, self.table.threshold
        order = np.argsort(f)[np.count_nonzero(f < 0) :]  # the split nodes, grouped by feature
        features, starts = np.unique(f[order], return_index=True)
        self.thresholds = {j: np.sort(s) for j, s in zip(features.tolist(), np.split(t[order], starts[1:]))}
        return self

    @property
    def trees(self) -> list[TreeNodes]:
        """One `TreeNodes` per tree, sliced from the table, child indices tree-local."""
        t, shift = self.table, np.repeat(self.bounds[:-1], np.diff(self.bounds))
        columns = [t.feature, t.threshold, *((c - shift).astype(np.int32) for c in (t.left, t.right)), t.value]
        return [TreeNodes(*(c[a:b] for c in columns)) for a, b in itertools.pairwise(self.bounds.tolist())]


# Distinct rows routed at a time. Each block is summed before the next
# starts, so memory does not grow with the batch: on 200k distinct rows a
# boosted family peaks at 27 MB, and at 1,161 MB routed as one block.
ROW_BLOCK = 1024


def _groups(thresholds: dict[int, np.ndarray], X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each group of rows alike in every `x <= t` of the
    family, and each row's group: a 1-D `np.unique` of keys that count, per
    feature, the thresholds below the row's value (`axis=0` is far slower)."""
    keys = np.zeros(X.shape, dtype=np.min_scalar_type(max(map(len, thresholds.values()), default=0)))
    for j, below in thresholds.items():
        keys[:, j] = np.searchsorted(below, X[:, j])
    rows = keys.view(np.dtype((np.void, keys.itemsize * X.shape[1]))).ravel()
    return np.unique(rows, return_index=True, return_inverse=True)[1:]


def predict_trees(family: TreeFamily, X: np.ndarray, start: float, scale: float) -> np.ndarray:
    """`start + scale * leaf value` for every row of X, added tree by tree in
    the trees' order as one `cumsum` over a start row stacked on the scaled
    (T, b) leaf values, so a row's sum does not depend on its batch. Only the
    first row of each of `_groups` is routed; each pass moves every (tree,
    row) pair still on a split node one level down."""
    X = np.asarray(X, dtype=np.float64)
    table, roots = family.table, family.bounds[:-1]
    first, inverse = _groups(family.thresholds, X)
    flat, out, d = X[first].ravel(), np.empty(len(first)), X.shape[1]
    for lo in range(0, len(first), ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, len(first))
        node = np.repeat(roots, hi - lo)  # one (tree, row) pair per entry, tree-major
        row = np.tile(np.arange(lo * d, hi * d, d), len(roots))  # each pair's row, as an offset into `flat`
        live = np.flatnonzero(table.feature[node] >= 0)
        while live.size:
            at = node[live]
            go_left = flat[row[live] + table.feature[at]] <= table.threshold[at]
            at = np.where(go_left, table.left[at], table.right[at])
            node[live] = at
            live = live[table.feature[at] >= 0]
        leaves = table.value[node].reshape(len(roots), hi - lo)
        out[lo:hi] = np.cumsum(np.concatenate([np.full((1, hi - lo), start), scale * leaves]), axis=0)[-1]
    return out[inverse]


# --- one split finder and two growers ---


def _best_split(XT, order, idx, gh, reg_lambda, feature_ids):
    """Best (gain, feature, threshold) by the second-order gain over the
    candidate features; None when nothing gains more than _GAIN_TOL.

    `XT` is X feature-major, `order[f]` X's stable argsort by feature f and
    `idx` the node's rows (two or more), ascending, so `order[f]` filtered to
    the node is the node's stable sort; a node of every row takes it whole.
    `gh` is g + 1j*h: one complex `cumsum` adds the real and imaginary parts
    as the two float ones would (a -0.0 in g reads +0.0, and G enters the
    gain only squared). One (k, m) pass scores all candidates; ties score -inf.

    Gini CART is the case g = -y, h = 1, reg_lambda = 0: its impurity
    decrease is 4/n times this gain.
    """
    G, H = gh.real[idx].sum(), gh.imag[idx].sum()
    parent = G * G / (H + reg_lambda)
    feats, n = np.asarray(feature_ids), XT.shape[1]
    rows = order[feats]
    if idx.size < n:
        member = np.zeros(n, dtype=bool)
        member[idx] = True
        rows = np.extract(member[rows], rows).reshape(feats.size, idx.size)  # a third of rows[mask]'s time
    xs = XT.take(rows + n * feats[:, None])  # flat indices: half the time of XT[feats[:, None], rows]
    GH_l = np.cumsum(gh[rows], axis=1)[:, :-1]
    G_l, H_l = GH_l.real, GH_l.imag
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


def _columns(X, order):
    """X feature-major (no copy when X is a transposed C-contiguous array)
    and, unless given, its stable per-feature argsort."""
    XT = np.ascontiguousarray(X.T)
    return XT, np.argsort(XT, axis=1, kind="stable") if order is None else order


def _dense_rank(XT):
    """Each value's rank in its row of XT, equal values sharing one, in the
    smallest unsigned dtype that holds n - 1. A stable argsort of a bootstrap's
    ranks is that of its values, ties included, and numpy radix-sorts ranks
    of 16 bits or fewer: the forest sorts values once per fit, not per tree."""
    dtype = np.min_scalar_type(XT.shape[1] - 1)
    return np.array([np.unique(x, return_inverse=True)[1] for x in XT], dtype=dtype)


def build_tree(X, g, h, max_depth: int, reg_lambda: float, rng=None, max_features=None, order=None):
    """Grow depth-first to a fixed depth, splitting while gain is positive;
    returns the tree and each row's leaf value.

    A node whose gradient is constant is a leaf. With `max_features` below
    the feature count, each split draws that many candidate features from
    `rng`. `order` is X's stable per-feature argsort, made here when not given.
    A feature-major (Fortran-order) X is used without a copy.
    """
    n_features = X.shape[1]
    XT, order = _columns(X, order)
    gh = g + 1j * h
    builder = _Builder(X.shape[0])

    def grow(idx: np.ndarray, depth: int) -> int:
        gsub, hsub = g[idx], h[idx]
        if depth >= max_depth or gsub.min() == gsub.max():  # before the feature draw, which moves the RNG
            return builder.add(_leaf_weight(gsub, hsub, reg_lambda), idx)
        if max_features is not None and max_features < n_features:
            feats = np.sort(rng.choice(n_features, size=max_features, replace=False))
        else:
            feats = range(n_features)
        best = _best_split(XT, order, idx, gh, reg_lambda, feats)
        if best is None:
            return builder.add(_leaf_weight(gsub, hsub, reg_lambda), idx)
        _, f, thr = best
        node = builder.add()
        go_left = XT[f, idx] <= thr
        builder.make_split(node, f, thr, grow(idx[go_left], depth + 1), grow(idx[~go_left], depth + 1))
        return node

    grow(np.arange(X.shape[0]), 0)
    return builder.finish()


def build_boost_tree_leafwise(X, g, h, max_leaves: int, order=None):
    """Grow best-first: repeatedly split the leaf with the largest gain
    until the leaf cap. Returns and takes what `build_tree` does; a leaf
    whose gradient is constant is never searched, as no split of it gains."""
    XT, order = _columns(X, order)
    gh = g + 1j * h
    builder = _Builder(X.shape[0])
    root = builder.add(_leaf_weight(g, h, BOOST_LAMBDA), np.arange(X.shape[0]))

    heap: list = []
    counter = itertools.count()  # ties on gain pop in the order offered

    def offer(node: int, idx: np.ndarray) -> None:
        gsub = g[idx]
        if gsub.min() == gsub.max():  # one row, or a pure leaf
            return
        best = _best_split(XT, order, idx, gh, BOOST_LAMBDA, range(X.shape[1]))
        if best is not None:
            heapq.heappush(heap, (-best[0], next(counter), node, idx, best[1], best[2]))

    offer(root, np.arange(X.shape[0]))
    n_leaves = 1
    while heap and n_leaves < max_leaves:
        _, _, node, idx, f, thr = heapq.heappop(heap)
        go_left = XT[f, idx] <= thr
        left_idx, right_idx = idx[go_left], idx[~go_left]
        left = builder.add(_leaf_weight(g[left_idx], h[left_idx], BOOST_LAMBDA), left_idx)
        right = builder.add(_leaf_weight(g[right_idx], h[right_idx], BOOST_LAMBDA), right_idx)
        builder.make_split(node, f, thr, left, right)
        n_leaves += 1
        offer(left, left_idx)
        offer(right, right_idx)
    return builder.finish()


# --- ensembles over the builders ---


@dataclass
class RandomForest(TreeFamily):
    """Bagged Gini CARTs with per-split feature subsampling."""

    n_trees: int = 100
    max_depth: int = 8
    seed: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
        n, d = X.shape
        max_features = max(1, int(round(np.sqrt(d))))
        rng = np.random.default_rng(self.seed)
        XT = np.ascontiguousarray(X.T)
        rank = _dense_rank(XT)
        trees = []
        for _ in range(self.n_trees):
            boot = rng.integers(0, n, size=n)
            order = np.argsort(rank[:, boot], axis=1, kind="stable")
            tree, _ = build_tree(XT[:, boot].T, -y[boot], np.ones(n), self.max_depth, 0.0, rng, max_features, order)
            trees.append(tree)
        return self.store(trees)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return predict_trees(self, X, 0.0, 1.0) / (len(self.bounds) - 1)


@dataclass
class GradientBoostedTrees(TreeFamily):
    """Boosted trees on the logistic loss with Newton leaf weights."""

    growth: str = "depthwise"  # or "leafwise"
    rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    max_leaves: int = 15
    base_score: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
        prior = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
        self.base_score = float(np.log(prior / (1.0 - prior)))
        F = np.full(X.shape[0], self.base_score)
        X = np.asfortranarray(X)  # feature-major, for the growers' X.T
        order = np.argsort(X.T, axis=1, kind="stable")  # X is fixed for the whole fit
        trees = []
        for _ in range(self.rounds):
            p = sigmoid(F)
            g, h = p - y, np.maximum(p * (1.0 - p), 1e-12)
            if self.growth == "depthwise":
                tree, fitted = build_tree(X, g, h, self.max_depth, BOOST_LAMBDA, order=order)
            else:
                tree, fitted = build_boost_tree_leafwise(X, g, h, self.max_leaves, order)
            trees.append(tree)
            F = F + self.learning_rate * fitted
        return self.store(trees)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        F = predict_trees(self, X, self.base_score, self.learning_rate)  # F + lr * v, as the fit added them
        return sigmoid(F)
