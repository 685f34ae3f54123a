import numpy as np
import pytest

from osnids import trees
from osnids.trees import (
    GradientBoostedTrees,
    RandomForest,
    build_boost_tree_leafwise,
    build_tree,
    predict_tree,
)

from helpers import gini_best_splits, gini_tree_oracle, split_oracle


def _xor_free_data(rng, n=200):
    """Axis-separable binary data: class 1 iff x0 > 0.5."""
    X = rng.random((n, 4))
    y = (X[:, 0] > 0.5).astype(float)
    return X, y


def gini_tree(X, y, max_depth, rng, max_features):
    """The forest's CART: the second-order tree with g = -y, h = 1, lambda = 0."""
    return build_tree(X, -y, np.ones(len(y)), max_depth, 0.0, rng, max_features)


class TestGiniTree:
    def test_perfect_split_on_separable_data(self):
        rng = np.random.default_rng(0)
        X, y = _xor_free_data(rng)
        tree = gini_tree(X, y, max_depth=3, rng=rng, max_features=4)
        assert ((predict_tree(tree, X) >= 0.5) == (y == 1)).all()

    def test_pure_node_becomes_leaf(self):
        rng = np.random.default_rng(1)
        X = rng.random((20, 3))
        y = np.ones(20)
        tree = gini_tree(X, y, max_depth=5, rng=rng, max_features=3)
        assert len(tree) == 1
        assert tree.feature[0] == -1 and tree.value[0] == 1.0

    def test_depth_limit(self):
        rng = np.random.default_rng(2)
        X = rng.random((300, 3))
        y = rng.integers(0, 2, 300).astype(float)
        tree = gini_tree(X, y, max_depth=2, rng=rng, max_features=3)
        # depth 2 allows at most 3 internal + 4 leaf nodes
        assert len(tree) <= 7

    def test_constant_features_become_leaf(self):
        rng = np.random.default_rng(3)
        X = np.ones((30, 2))
        y = rng.integers(0, 2, 30).astype(float)
        tree = gini_tree(X, y, max_depth=4, rng=rng, max_features=2)
        assert len(tree) == 1


class TestBoostTreeBuilders:
    def test_depthwise_respects_depth(self):
        rng = np.random.default_rng(4)
        X = rng.random((300, 5))
        g = rng.normal(0, 1, 300)
        h = np.full(300, 0.25)
        tree = build_tree(X, g, h, max_depth=3, reg_lambda=1.0)
        # depth-3 binary tree: <= 7 internal + 8 leaves
        assert len(tree) <= 15
        assert (tree.feature >= -1).all()

    def test_leafwise_respects_leaf_cap(self):
        rng = np.random.default_rng(5)
        X = rng.random((300, 5))
        g = rng.normal(0, 1, 300)
        h = np.full(300, 0.25)
        tree = build_boost_tree_leafwise(X, g, h, max_leaves=15)
        n_leaves = int((tree.feature == -1).sum())
        assert 1 <= n_leaves <= 15

    def test_leaf_weight_matches_newton_step(self):
        X = np.zeros((10, 1))  # unsplittable: single leaf
        g = np.arange(10, dtype=float)
        h = np.full(10, 0.5)
        tree = build_tree(X, g, h, max_depth=3, reg_lambda=1.0)
        assert len(tree) == 1
        assert tree.value[0] == -g.sum() / (h.sum() + 1.0)


class TestRandomForest:
    def test_fit_predict_separable(self):
        rng = np.random.default_rng(6)
        X, y = _xor_free_data(rng, 400)
        forest = RandomForest(n_trees=30, max_depth=6, seed=0).fit(X, y)
        acc = ((forest.predict_proba(X) >= 0.5) == (y == 1)).mean()
        assert acc >= 0.98

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        X, y = _xor_free_data(rng, 150)
        p1 = RandomForest(n_trees=10, seed=3).fit(X, y).predict_proba(X)
        p2 = RandomForest(n_trees=10, seed=3).fit(X, y).predict_proba(X)
        assert np.array_equal(p1, p2)

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(8)
        X = rng.random((100, 3))
        y = rng.integers(0, 2, 100).astype(float)
        proba = RandomForest(n_trees=15, seed=1).fit(X, y).predict_proba(X)
        assert proba.min() >= 0.0 and proba.max() <= 1.0


def _check_forest_against_gini_definition(forest, X, y, seed):
    """Replay the forest's bootstrap and feature draws, node by node in
    depth-first order, against the Gini CART definition: a node at the depth
    limit or with one class is a leaf holding the class-1 fraction (+0.0 when
    there is none); any other node splits at a best exact-Gini split of the
    drawn features, or is a leaf when no split decreases impurity. Exact ties
    may go to any of the tied splits."""
    n, d = X.shape
    max_features = max(1, int(round(np.sqrt(d))))
    rng = np.random.default_rng(seed)
    for tree in forest.trees:
        boot = rng.integers(0, n, size=n)
        Xb, yb = X[boot], y[boot]
        next_id = 0

        def walk(idx, depth):
            nonlocal next_id
            node, next_id = next_id, next_id + 1
            ysub = yb[idx]
            leaf = tree.feature[node] == -1
            if depth >= forest.max_depth or ysub.min() == ysub.max():
                best = set()
            else:
                if max_features < d:
                    feats = np.sort(rng.choice(d, size=max_features, replace=False))
                else:
                    feats = range(d)
                best = gini_best_splits(Xb[idx], ysub, feats)
            if not best:
                assert leaf and tree.value[node].tobytes() == np.float64(ysub.mean()).tobytes()
                return
            f, thr = int(tree.feature[node]), float(tree.threshold[node])
            assert (f, thr) in best
            assert tree.value[node].tobytes() == np.float64(0.0).tobytes()
            go_left = Xb[idx, f] <= thr
            assert tree.left[node] == next_id
            walk(idx[go_left], depth + 1)
            assert tree.right[node] == next_id
            walk(idx[~go_left], depth + 1)

        walk(np.arange(n), 0)
        assert next_id == len(tree)


def _forest_data(seed):
    """Small sets whose nodes tie often: repeated x values, and a region
    whose labels are all 0 so pure and all-zero-label nodes are common."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(20, 150)), int(rng.integers(1, 6))
    X = rng.integers(0, 5, (n, d)) / 4.0 if seed % 2 else np.round(rng.random((n, d)), 2)
    y = (rng.random(n) < rng.random()).astype(float)
    y[X[:, 0] > 0.7] = 0.0
    return X, y


class TestForestAgainstGiniOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_every_node_follows_gini_definition(self, seed):
        X, y = _forest_data(seed)
        forest = RandomForest(n_trees=4, max_depth=1 + seed % 8, seed=seed).fit(X, y)
        _check_forest_against_gini_definition(forest, X, y, seed)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_one_class_tree_equals_moved_oracle(self, label):
        rng = np.random.default_rng(12)
        X = rng.integers(0, 3, (40, 3)) / 2.0
        y = np.full(40, label)
        tree = gini_tree(X, y, 5, np.random.default_rng(0), 2)
        expected = gini_tree_oracle(X, y, 5, np.random.default_rng(0), 2)
        got = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]


class TestGradientBoostedTrees:
    def test_loss_improves_over_prior(self):
        rng = np.random.default_rng(9)
        X, y = _xor_free_data(rng, 300)
        for growth in ("depthwise", "leafwise"):
            model = GradientBoostedTrees(growth=growth, rounds=30).fit(X, y)
            p = np.clip(model.predict_proba(X), 1e-12, 1 - 1e-12)
            loss = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
            prior = np.clip(y.mean(), 1e-12, 1 - 1e-12)
            prior_loss = -np.mean(y * np.log(prior) + (1 - y) * np.log(1 - prior))
            assert loss < 0.2 * prior_loss

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        X, y = _xor_free_data(rng, 150)
        a = GradientBoostedTrees(growth="leafwise", rounds=10).fit(X, y).predict_proba(X)
        b = GradientBoostedTrees(growth="leafwise", rounds=10).fit(X, y).predict_proba(X)
        assert np.array_equal(a, b)

    def test_growth_modes_differ_structurally(self):
        rng = np.random.default_rng(11)
        X = rng.random((400, 6))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)  # needs depth 2
        deep = GradientBoostedTrees(growth="depthwise", rounds=5, max_depth=3).fit(X, y)
        leafy = GradientBoostedTrees(growth="leafwise", rounds=5, max_leaves=15).fit(X, y)
        # leafwise trees may have up to 15 leaves; depthwise at most 8
        max_leaves_deep = max(int((t.feature == -1).sum()) for t in deep.trees)
        max_leaves_leafy = max(int((t.feature == -1).sum()) for t in leafy.trees)
        assert max_leaves_deep <= 8
        assert max_leaves_leafy > 8


def _tied_matrix(rng, n, d):
    """Columns with many repeated values, so tied positions are common."""
    if rng.random() < 0.5:
        return rng.integers(0, 6, (n, d)) / 5.0
    return np.round(rng.random((n, d)), 2)


def _tree_bytes(model):
    return [b"".join(a.tobytes() for a in (t.feature, t.threshold, t.left, t.right, t.value)) for t in model.trees]


def _grow_with_oracle(monkeypatch):
    """Route every grower's split search through the per-node argsort oracle."""
    monkeypatch.setattr(
        trees, "_best_split", lambda X, order, idx, g, h, lam, feats: split_oracle(X[idx], g[idx], h[idx], lam, feats)
    )


class TestPresortedSplitFinder:
    """The presorted finder must return the per-node argsort finder's exact
    (gain, feature, threshold), float for float, so fitted trees and bundles
    stay byte-identical."""

    @pytest.mark.parametrize("newton", [False, True], ids=["gini", "newton"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_nodes_equal_oracle(self, seed, newton):
        rng = np.random.default_rng(100 + seed)
        found = 0
        for _ in range(60):
            n, d = int(rng.integers(2, 200)), int(rng.integers(1, 8))
            X = _tied_matrix(rng, n, d)
            if newton:
                g, h, lam = rng.normal(0, 1, n), rng.uniform(1e-3, 0.25, n), 1.0
            else:
                g, h, lam = -(rng.random(n) < rng.random()).astype(float), np.ones(n), 0.0
            idx = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
            feats = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            got = trees._best_split(X, np.argsort(X.T, axis=1, kind="stable"), idx, g, h, lam, feats)
            assert got == split_oracle(X[idx], g[idx], h[idx], lam, feats)
            found += got is not None
        assert found >= 30

    @pytest.mark.parametrize("seed", range(3))
    def test_forest_equals_oracle_grown(self, seed, monkeypatch):
        rng = np.random.default_rng(200 + seed)
        X = _tied_matrix(rng, 150, 5)
        y = (X[:, 0] + 0.5 * rng.random(150) > 0.7).astype(float)
        new = RandomForest(n_trees=8, max_depth=6, seed=seed).fit(X, y)
        _grow_with_oracle(monkeypatch)
        old = RandomForest(n_trees=8, max_depth=6, seed=seed).fit(X, y)
        assert _tree_bytes(new) == _tree_bytes(old)
        assert sum(len(t) for t in new.trees) > 3 * len(new.trees)  # the trees did split

    @pytest.mark.parametrize("growth", ["depthwise", "leafwise"])
    @pytest.mark.parametrize("seed", range(3))
    def test_boosting_equals_oracle_grown(self, seed, growth, monkeypatch):
        rng = np.random.default_rng(300 + seed)
        X = _tied_matrix(rng, 200, 6)
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.4) | (rng.random(200) < 0.1)).astype(float)
        new = GradientBoostedTrees(growth=growth, rounds=15).fit(X, y)
        _grow_with_oracle(monkeypatch)
        old = GradientBoostedTrees(growth=growth, rounds=15).fit(X, y)
        assert _tree_bytes(new) == _tree_bytes(old)
        assert sum(len(t) for t in new.trees) > len(new.trees)  # the trees did split
