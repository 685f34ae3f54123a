import numpy as np
import pytest

from osnids import trees
from osnids.trees import (
    GradientBoostedTrees,
    RandomForest,
    build_boost_tree_leafwise,
    build_tree,
)

from helpers import (
    boost_fit_oracle,
    boost_proba_oracle,
    forest_proba_oracle,
    gini_best_splits,
    gini_tree_oracle,
    predict_tree_oracle,
    split_oracle,
)


def _xor_free_data(rng, n=200):
    """Axis-separable binary data: class 1 iff x0 > 0.5."""
    X = rng.random((n, 4))
    y = (X[:, 0] > 0.5).astype(float)
    return X, y


def gini_tree(X, y, max_depth, rng, max_features):
    """The forest's CART: the second-order tree with g = -y, h = 1, lambda = 0."""
    return build_tree(X, -y, np.ones(len(y)), max_depth, 0.0, rng, max_features)[0]


class TestGiniTree:
    def test_perfect_split_on_separable_data(self):
        rng = np.random.default_rng(0)
        X, y = _xor_free_data(rng)
        tree = gini_tree(X, y, max_depth=3, rng=rng, max_features=4)
        assert ((predict_tree_oracle(tree, X) >= 0.5) == (y == 1)).all()

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
        tree, _ = build_tree(X, g, h, max_depth=3, reg_lambda=1.0)
        # depth-3 binary tree: <= 7 internal + 8 leaves
        assert len(tree) <= 15
        assert (tree.feature >= -1).all()

    def test_leafwise_respects_leaf_cap(self):
        rng = np.random.default_rng(5)
        X = rng.random((300, 5))
        g = rng.normal(0, 1, 300)
        h = np.full(300, 0.25)
        tree, _ = build_boost_tree_leafwise(X, g, h, max_leaves=15)
        n_leaves = int((tree.feature == -1).sum())
        assert 1 <= n_leaves <= 15

    def test_leaf_weight_matches_newton_step(self):
        X = np.zeros((10, 1))  # unsplittable: single leaf
        g = np.arange(10, dtype=float)
        h = np.full(10, 0.5)
        tree, _ = build_tree(X, g, h, max_depth=3, reg_lambda=1.0)
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
    """Route every grower's split search through the per-node argsort oracle,
    given the node's rows of X, g and h as the finder's arguments hold them."""

    def oracle(XT, order, idx, gh, lam, feats):
        return split_oracle(XT.T[idx], gh.real[idx], gh.imag[idx], lam, feats)

    monkeypatch.setattr(trees, "_best_split", oracle)


def _presorted_split(X, idx, g, h, lam, feats):
    """`trees._best_split` on X as the growers lay it out: feature-major, presorted."""
    XT = np.ascontiguousarray(X.T)
    return trees._best_split(XT, np.argsort(XT, axis=1, kind="stable"), idx, g + 1j * h, lam, feats)


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
            got = _presorted_split(X, idx, g, h, lam, feats)
            assert got == split_oracle(X[idx], g[idx], h[idx], lam, feats)
            found += got is not None
        assert found >= 30

    @pytest.mark.parametrize("newton", [False, True], ids=["gini", "newton"])
    @pytest.mark.parametrize("seed", range(4))
    def test_nodes_of_every_row_equal_oracle(self, seed, newton):
        rng = np.random.default_rng(150 + seed)
        found = 0
        for _ in range(40):
            n, d = int(rng.integers(2, 200)), int(rng.integers(1, 8))
            X = _tied_matrix(rng, n, d)
            if newton:
                g, h, lam = rng.normal(0, 1, n), rng.uniform(1e-3, 0.25, n), 1.0
            else:
                g, h, lam = -(rng.random(n) < rng.random()).astype(float), np.ones(n), 0.0
            feats = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            got = _presorted_split(X, np.arange(n), g, h, lam, feats)
            assert got == split_oracle(X, g, h, lam, feats)
            found += got is not None
        assert found >= 20

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6])
    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_constant_gradient_nodes_do_not_split(self, p, label):
        """No split of a node whose g is constant gains: the growers' rule
        that such a node is a leaf cannot move a tree."""
        rng = np.random.default_rng(int(p * 1e6) + int(label))
        for n, whole in [(2, True), (37, True), (400, True), (400, False)]:
            X = _tied_matrix(rng, n, 5)
            idx = np.arange(n) if whole else np.sort(rng.choice(n, size=n // 3, replace=False))
            gini = -np.full(n, label), np.ones(n), 0.0  # a pure Gini node
            newton = np.full(n, p - label), np.full(n, p * (1 - p)), 1.0  # p constant on a one-label node
            for g, h, lam in (gini, newton):
                assert _presorted_split(X, idx, g, h, lam, range(5)) is None
                assert split_oracle(X[idx], g[idx], h[idx], lam, range(5)) is None

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


class TestSortWork:
    """What the fits no longer redo: the forest's per-tree sort and the
    leafwise grower's search of pure leaves."""

    @pytest.mark.parametrize("n, dtype", [(150, np.uint8), (300, np.uint16)])
    def test_bootstrap_rank_order_is_the_value_order(self, n, dtype):
        rng = np.random.default_rng(800 + n)
        for _ in range(50):
            X = _tied_matrix(rng, n, 5)
            rank = trees._dense_rank(np.ascontiguousarray(X.T))
            assert rank.dtype == dtype
            boot = rng.integers(0, n, size=n)
            got = np.argsort(rank[:, boot], axis=1, kind="stable")
            assert np.array_equal(got, np.argsort(X[boot].T, axis=1, kind="stable"))

    @pytest.mark.parametrize("seed", range(3))
    def test_leafwise_never_searches_a_constant_gradient_leaf(self, seed, monkeypatch):
        rng = np.random.default_rng(900 + seed)
        X = _tied_matrix(rng, 300, 5)
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.4) | (rng.random(300) < 0.05)).astype(float)
        searched = []
        finder = trees._best_split

        def counted(XT, order, idx, gh, lam, feats):
            searched.append(np.ptp(gh.real[idx]) == 0)
            return finder(XT, order, idx, gh, lam, feats)

        monkeypatch.setattr(trees, "_best_split", counted)
        model = GradientBoostedTrees(growth="leafwise", rounds=10).fit(X, y)
        assert len(searched) > 10 and not any(searched)
        assert sum(len(t) for t in model.trees) > 3 * len(model.trees)  # the trees did split


class TestRecordedLeafValues:
    """Each grower records every training row's leaf value as it places the
    row, and the boosted fit adds those to F instead of routing X."""

    @pytest.mark.parametrize("grower", ["gini", "depthwise", "leafwise"])
    @pytest.mark.parametrize("seed", range(3))
    def test_recorded_values_equal_routing(self, seed, grower):
        rng = np.random.default_rng(500 + seed)
        X = _tied_matrix(rng, 200, 5)
        X = X[rng.integers(0, 200, 200)]  # repeated rows, as in a bootstrap
        g, h = rng.normal(0, 1, 200), rng.uniform(1e-3, 0.25, 200)
        if grower == "gini":
            tree, fitted = build_tree(X, -(g > 0.3).astype(float), np.ones(200), 6, 0.0, rng, 3)
        elif grower == "depthwise":
            tree, fitted = build_tree(X, g, h, 4, 1.0)
        else:
            tree, fitted = build_boost_tree_leafwise(X, g, h, 15)
        assert len(tree) > 7
        assert fitted.tobytes() == predict_tree_oracle(tree, X).tobytes()

    @pytest.mark.parametrize("growth", ["depthwise", "leafwise"])
    @pytest.mark.parametrize("seed", range(3))
    def test_fit_equals_routed_update_oracle(self, seed, growth):
        rng = np.random.default_rng(600 + seed)
        X = _tied_matrix(rng, 200, 6)
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.4) | (rng.random(200) < 0.1)).astype(float)
        new = GradientBoostedTrees(growth=growth, rounds=15).fit(X, y)
        old = boost_fit_oracle(GradientBoostedTrees(growth=growth, rounds=15), X, y)
        assert _tree_bytes(new) == _tree_bytes(old) and new.base_score == old.base_score
        assert sum(len(t) for t in new.trees) > 3 * len(new.trees)  # the trees did split


class TestStoredForm:
    """A family stores one node table; `trees` views it as the grown trees."""

    def test_trees_view_holds_the_grown_arrays(self):
        rng = np.random.default_rng(700)
        X = _tied_matrix(rng, 200, 5)
        g, h = rng.normal(0, 1, 200), rng.uniform(1e-3, 0.25, 200)
        grown = [build_tree(X, g, h, 1 + k % 4, 1.0)[0] for k in range(6)] + [build_boost_tree_leafwise(X, g, h, 9)[0]]
        model = GradientBoostedTrees().store(grown)
        assert [len(t) for t in model.trees] == [len(t) for t in grown] and len(model.table) == sum(map(len, grown))
        for view, tree in zip(model.trees, grown):
            for name in ("feature", "threshold", "left", "right", "value"):
                got, want = getattr(view, name), getattr(tree, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_trees_is_read_only(self):
        rng = np.random.default_rng(701)
        X = rng.random((100, 3))
        model = RandomForest(n_trees=3, max_depth=3).fit(X, (X[:, 0] > 0.5).astype(float))
        with pytest.raises(AttributeError):
            model.trees = []
        with pytest.raises(ValueError):
            model.trees[0].threshold[0] = 0.0  # the views share the stored table


def _families(X, y):
    """One fitted model per tree family, each with its per-tree-loop oracle."""
    return [
        (RandomForest(n_trees=12, max_depth=5, seed=1).fit(X, y), forest_proba_oracle),
        (GradientBoostedTrees(growth="depthwise", rounds=12).fit(X, y), boost_proba_oracle),
        (GradientBoostedTrees(growth="leafwise", rounds=12).fit(X, y), boost_proba_oracle),
    ]


def _split_pairs(model):
    nodes = [(t.feature[t.feature >= 0], t.threshold[t.feature >= 0]) for t in model.trees]
    return np.concatenate([f for f, _ in nodes]), np.concatenate([t for _, t in nodes])


def _depth(tree):
    depth = np.zeros(len(tree), dtype=int)
    for i in np.flatnonzero(tree.feature >= 0):  # children follow their parent
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return depth.max()


class TestDistinctRowRouting:
    """`predict_proba` routes one row per distinct comparison pattern and
    gathers; it must equal routing every row through every tree, byte for
    byte, with the leaf values summed tree by tree: the forest's mean and
    boosting's sequential `F + lr * v`."""

    @pytest.mark.parametrize("n", [0, 1, 2, 257, 3000])
    def test_equals_per_tree_loop(self, n):
        rng = np.random.default_rng(40 + n)
        X = rng.random((300, 5))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.3) | (rng.random(300) < 0.1)).astype(float)
        batch = np.concatenate([rng.random((n // 2, 5)), X[rng.integers(0, 300, n - n // 2)]])
        for model, oracle in _families(X, y):
            got = model.predict_proba(batch)
            assert got.shape == (n,) and got.tobytes() == oracle(model, batch).tobytes()

    def test_equals_per_tree_loop_across_blocks(self, monkeypatch):
        monkeypatch.setattr(trees, "ROW_BLOCK", 7)
        rng = np.random.default_rng(41)
        X = rng.random((300, 5))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.3) | (rng.random(300) < 0.1)).astype(float)
        lone_last_rows = 0
        for model, oracle in _families(X, y):
            feats, thrs = _split_pairs(model)
            for n in range(2, 40):
                batch = rng.random((n, 5))
                m = len(np.unique(batch[:, feats] <= thrs, axis=0))
                lone_last_rows += m > 1 and m % 7 == 1
                assert model.predict_proba(batch).tobytes() == oracle(model, batch).tobytes()
        assert lone_last_rows >= 6  # batches whose last block would hold one row

    def test_equals_per_tree_loop_deep_leafwise(self):
        rng = np.random.default_rng(42)
        X = rng.random((2000, 7))
        y = (rng.random(2000) < 0.3 + 0.4 * (X[:, 0] > 0.5)).astype(float)
        model = GradientBoostedTrees(growth="leafwise", rounds=10).fit(X, y)
        assert max(_depth(t) for t in model.trees) >= 8
        batch = np.concatenate([rng.random((3000, 7)), X[:500]])
        assert model.predict_proba(batch).tobytes() == boost_proba_oracle(model, batch).tobytes()

    def test_values_on_thresholds_go_left(self):
        rng = np.random.default_rng(50)
        X = _tied_matrix(rng, 200, 4)
        y = (X[:, 0] + X[:, 2] > 0.9).astype(float)
        for model, oracle in _families(X, y):
            feats, thrs = _split_pairs(model)
            batch = X[rng.integers(0, 200, 3 * len(feats))]
            for i, (f, t) in enumerate(zip(feats, thrs)):  # each split's threshold, and a hair either side
                batch[3 * i : 3 * i + 3, f] = (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf))
            assert len(feats) > 12 and (batch[1::3, feats] == thrs).diagonal().all()
            assert model.predict_proba(batch).tobytes() == oracle(model, batch).tobytes()

    def test_family_of_single_leaves(self):
        rng = np.random.default_rng(51)
        X = rng.random((60, 3))
        for model, oracle in _families(X, np.zeros(60)):
            assert all(len(t) == 1 for t in model.trees)  # K = 0: no comparison at all
            for n in (0, 1, 25):
                batch = rng.random((n, 3))
                assert model.predict_proba(batch).tobytes() == oracle(model, batch).tobytes()

    def test_groups_are_the_distinct_comparison_rows(self, monkeypatch):
        rng = np.random.default_rng(52)
        X = _tied_matrix(rng, 400, 5)
        y = (X[:, 1] > 0.4).astype(float)
        groups = trees._groups
        for model, oracle in _families(X, y):
            feats, thrs = _split_pairs(model)
            compared = X[:, feats] <= thrs
            seen = []
            monkeypatch.setattr(trees, "_groups", lambda thr, rows: seen.append(groups(thr, rows)) or seen[-1])
            got = model.predict_proba(X)
            [(first, group)] = seen
            m = len(first)
            assert m == len(np.unique(compared, axis=0)) < len(X)
            assert len(np.unique(np.column_stack([group, compared]), axis=0)) == m  # a group compares alike
            assert np.array_equal(first[group[first]], first)  # each routed row heads its own group
            routed = np.stack([predict_tree_oracle(t, X) for t in model.trees])
            assert routed[:, first[group]].tobytes() == routed.tobytes()  # its leaf values are every member's
            assert got.tobytes() == oracle(model, X).tobytes()

    def test_stump_forest_row_alone_equals_row_in_batch(self):
        """numpy sums a (T, 1) block pairwise and a wider one row by row, so a
        mean over the trees gave [0.2] alone other last bits than in a batch."""
        rng = np.random.default_rng(0)
        X = rng.random((200, 1))
        y = (rng.random(200) < 0.3 + 0.4 * (X[:, 0] > 0.5)).astype(float)
        forest = RandomForest(n_trees=100, max_depth=1, seed=0).fit(X, y)
        assert sum(len(t) == 3 for t in forest.trees) > 50  # mostly stumps, each its own leaf values
        alone = forest.predict_proba(np.array([[0.2]]))
        in_batch = forest.predict_proba(np.array([[0.2], [0.8]]))
        assert alone.tobytes() == in_batch[:1].tobytes() == forest_proba_oracle(forest, np.array([[0.2]])).tobytes()

    def test_each_row_alone_equals_its_batch(self):
        rng = np.random.default_rng(53)
        X = rng.random((300, 5))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.3) | (rng.random(300) < 0.1)).astype(float)
        batch = np.concatenate([rng.random((40, 5)), X[:40]])
        for model, oracle in _families(X, y):
            alone = np.concatenate([model.predict_proba(batch[i : i + 1]) for i in range(len(batch))])
            assert alone.tobytes() == model.predict_proba(batch).tobytes() == oracle(model, batch).tobytes()
