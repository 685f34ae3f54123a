import numpy as np
import pytest

from osnids.errors import (
    DegenerateClasses,
    InvalidRange,
    MissingCluster,
    UntrainedEnsemble,
)
from osnids.learners import (
    CONVNET,
    CONVNET_N_PARAMS,
    LOGISTIC,
    LOGISTIC_N_PARAMS,
    SCORE_BLOCK,
    BaseEnsemble,
    BinaryScorer,
    TrainingConfig,
    _KIND_FNS,
    _convnet_forward,
    _loss,
    _pool_backward,
    _pool_forward,
    convnet_scores,
    logistic_scores,
    meta_feature_matrix,
    sample_tensors,
    train_base_ensemble,
    train_scorer,
)
from osnids.samples import make_records

from helpers import (
    LOSS_AND_GRAD_ORACLES,
    gradient_check,
    image_tensor_oracle,
    meta_feature_oracle,
    pool_backward_oracle,
    pool_forward_oracle,
    train_scorer_oracle,
)


def _clustered_corpus(rng, n_clusters=3, per_cluster=40, sigma=6.0):
    """Benign records drawn from well-separated byte templates."""
    templates = rng.integers(0, 256, (n_clusters, 1500))
    vecs = []
    for c in range(n_clusters):
        for _ in range(per_cluster):
            noisy = np.clip(np.rint(templates[c] + rng.normal(0, sigma, 1500)), 0, 255)
            vec = noisy.astype(np.uint8)
            vec[0] = max(int(vec[0]), 1)
            vecs.append(vec)
    return make_records(np.stack(vecs), 0, np.repeat(np.arange(n_clusters), per_cluster)), templates


def _random_records(rng, n):
    vecs = rng.integers(0, 256, (n, 1500)).astype(np.uint8)
    vecs[:, 0] = np.maximum(vecs[:, 0], 1)
    return make_records(vecs, 0)


def _pair(scorer):
    """Two copies of one scorer: the smallest ensemble the batch path scores."""
    return BaseEnsemble(scorers=[scorer, scorer])


class TestGradients:
    @pytest.mark.parametrize("kind", [LOGISTIC, CONVNET])
    def test_analytic_matches_finite_differences(self, kind):
        for seed in range(5):
            assert gradient_check(kind, seed) <= 1e-4


class TestSampleTensors:
    def test_matches_per_sample_image_normalization(self):
        rows = _random_records(np.random.default_rng(20), 30)
        expected = np.stack([image_tensor_oracle(s.features).reshape(-1) for s in rows])
        assert sample_tensors(rows).tobytes() == expected.tobytes()


class TestScore:
    def test_zero_params_logistic_gives_half(self):
        scorer = BinaryScorer(kind=LOGISTIC, params=np.zeros(1501))
        rows = _random_records(np.random.default_rng(0), 1)
        assert np.all(meta_feature_matrix(_pair(scorer), rows) == 0.5)

    def test_purity(self):
        rng = np.random.default_rng(1)
        scorer = BinaryScorer(kind=LOGISTIC, params=rng.normal(0, 0.1, 1501))
        rows = _random_records(rng, 1)
        assert meta_feature_matrix(_pair(scorer), rows).tobytes() == meta_feature_matrix(_pair(scorer), rows).tobytes()

    def test_scores_in_unit_interval_fuzz(self):
        rng = np.random.default_rng(2)
        for kind, n_params in ((LOGISTIC, 1501), (CONVNET, CONVNET_N_PARAMS)):
            scorer = BinaryScorer(kind=kind, params=rng.normal(0, 5.0, n_params))
            mf = meta_feature_matrix(_pair(scorer), _random_records(rng, 25))
            assert np.all((0.0 <= mf) & (mf <= 1.0))

    def test_convnet_scores_in_blocks_bit_equal_to_one_pass(self, monkeypatch):
        rng = np.random.default_rng(4)
        params = rng.normal(0, 0.5, CONVNET_N_PARAMS)
        X = sample_tensors(_random_records(rng, 600))
        whole, _ = _convnet_forward(params, X)
        seen = []

        def forward(params, X):
            seen.append(len(X))
            return _convnet_forward(params, X)

        monkeypatch.setattr("osnids.learners._convnet_forward", forward)
        assert convnet_scores(params, X).tobytes() == whole.tobytes()
        assert seen == [SCORE_BLOCK, SCORE_BLOCK, 600 - 2 * SCORE_BLOCK] and SCORE_BLOCK == 256


class TestBlockScoring:
    """`meta_feature_matrix` builds and scores SCORE_BLOCK rows at a time and
    must equal one whole-batch pass of every scorer, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
    @pytest.mark.parametrize("kind", [LOGISTIC, CONVNET])
    def test_equals_one_pass_oracle(self, kind, n, monkeypatch):
        rng = np.random.default_rng(n)
        n_params = LOGISTIC_N_PARAMS if kind == LOGISTIC else CONVNET_N_PARAMS
        ensemble = BaseEnsemble(
            scorers=[BinaryScorer(kind=kind, params=rng.normal(0, 0.5, n_params)) for _ in range(3)]
        )
        rows = _random_records(rng, n)
        expected = meta_feature_oracle(ensemble, rows)
        built = []

        def tensors(samples):
            built.append(len(samples))
            return sample_tensors(samples)

        monkeypatch.setattr("osnids.learners.sample_tensors", tensors)
        monkeypatch.setattr("osnids.learners.FORK_ROWS", SCORE_BLOCK)  # a worker's unit a block, so n > 256 forks
        got = meta_feature_matrix(ensemble, rows)
        assert got.shape == (n, 3) and got.tobytes() == expected.tobytes()
        built.clear()  # a forked worker's builds never reach this list
        monkeypatch.setattr("osnids.parallel.cpu_count", lambda: 1)
        assert meta_feature_matrix(ensemble, rows).tobytes() == expected.tobytes()
        assert built == [min(SCORE_BLOCK, n - i) for i in range(0, n, SCORE_BLOCK)]


class TestMaxPool:
    @pytest.mark.parametrize("shape", [(4, 16, 21, 16), (3, 17, 20, 2), (1, 2, 2, 1), (0, 16, 21, 16)])
    def test_forward_and_backward_equal_oracles_with_planted_ties(self, shape):
        rng = np.random.default_rng(sum(shape))
        for x in (
            rng.integers(0, 3, shape).astype(np.float64),  # ties in most windows
            np.zeros(shape),  # every window a four-way tie
            np.maximum(rng.standard_normal(shape), 0.0),  # post-ReLU: ties at 0
        ):
            out, idx = _pool_forward(x)
            want_out, want_idx = pool_forward_oracle(x)
            assert out.tobytes() == want_out.tobytes() and out.shape == want_out.shape
            assert idx.tobytes() == want_idx.tobytes() and idx.dtype == want_idx.dtype
            dout = rng.standard_normal(out.shape)
            assert _pool_backward(dout, idx, shape).tobytes() == pool_backward_oracle(dout, idx, shape).tobytes()


class TestTrainBaseLearner:
    """One cluster-vs-rest scorer, read off the ensemble trained on D1."""

    def test_separable_clusters_high_accuracy(self):
        rng = np.random.default_rng(3)
        samples, _ = _clustered_corpus(rng)
        scorer = train_base_ensemble(samples, 3, config=TrainingConfig(seed=0)).scorers[0]
        X = sample_tensors(samples)
        preds = logistic_scores(scorer.params, X) >= 0.5
        truth = samples.cluster == 0
        assert (preds == truth).mean() >= 0.99

    def test_loss_non_increasing_smoothed(self):
        rng = np.random.default_rng(4)
        samples, _ = _clustered_corpus(rng)
        scorer = train_base_ensemble(samples, 3, config=TrainingConfig(seed=1)).scorers[1]
        losses = scorer.training_meta["loss_curve"]
        smoothed = [np.mean(losses[i : i + 5]) for i in range(len(losses) - 4)]
        assert all(smoothed[i + 1] <= smoothed[i] + 1e-3 for i in range(len(smoothed) - 1))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        samples, _ = _clustered_corpus(rng, per_cluster=20)
        a = train_base_ensemble(samples, 3, config=TrainingConfig(epochs=5, seed=7))
        b = train_base_ensemble(samples, 3, config=TrainingConfig(epochs=5, seed=7))
        for x, y in zip(a.scorers, b.scorers):
            assert x.params.tobytes() == y.params.tobytes()

    def test_degenerate_classes(self):
        rng = np.random.default_rng(6)
        samples, _ = _clustered_corpus(rng, n_clusters=2, per_cluster=20)
        samples = samples[11:]  # cluster 0 keeps 9 rows, below the 10-per-side floor
        with pytest.raises(DegenerateClasses):
            train_base_ensemble(samples, 2, config=TrainingConfig(epochs=1))

    def test_binary_reduction_ignores_other_cluster_ids(self):
        # relabeling the "rest" clusters must not change the trained scorer
        rng = np.random.default_rng(7)
        samples, _ = _clustered_corpus(rng, n_clusters=3, per_cluster=20)
        permuted = samples.copy()
        rest = permuted.cluster != 0
        permuted.cluster[rest] = 1 + (permuted.cluster[rest] % 2)
        cfg = TrainingConfig(epochs=5, seed=3)
        a = train_base_ensemble(samples, 3, config=cfg).scorers[0]
        b = train_base_ensemble(permuted, 3, config=cfg).scorers[0]
        assert a.params.tobytes() == b.params.tobytes()

    def test_convnet_trains_and_loss_decreases(self):
        rng = np.random.default_rng(8)
        samples, _ = _clustered_corpus(rng, n_clusters=2, per_cluster=15)
        ensemble = train_base_ensemble(
            samples, 2, config=TrainingConfig(epochs=8, learning_rate=0.001, seed=0), kind=CONVNET
        )
        for scorer in ensemble.scorers:
            losses = scorer.training_meta["loss_curve"]
            assert losses[-1] < losses[0]
            assert np.all(np.isfinite(scorer.params))


class TestTrainingConfigRanges:
    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 0), ("batch_size", 0), ("batch_size", -5), ("learning_rate", 0.0), ("learning_rate", -0.01),
         ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("l2", -1e-9), ("l2", float("nan")),
         ("l2", float("inf"))],
    )
    def test_out_of_range_is_refused(self, field, value):
        with pytest.raises(InvalidRange, match=field):
            TrainingConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("epochs", 1), ("batch_size", 1), ("learning_rate", 1e-12), ("l2", 0.0)])
    def test_edge_values_in_range_are_kept(self, field, value):
        assert getattr(TrainingConfig(**{field: value}), field) == value


class TestTrainBaseEnsemble:
    def test_scorer_count_follows_n(self):
        rng = np.random.default_rng(9)
        samples, _ = _clustered_corpus(rng, n_clusters=2, per_cluster=15)
        ensemble = train_base_ensemble(samples, 2, config=TrainingConfig(epochs=2, seed=0))
        assert len(ensemble.scorers) == 2

    def test_missing_cluster(self):
        rng = np.random.default_rng(10)
        samples, _ = _clustered_corpus(rng, n_clusters=3, per_cluster=15)
        samples = samples[samples.cluster != 2]
        with pytest.raises(MissingCluster):
            train_base_ensemble(samples, 4, config=TrainingConfig(epochs=1))


class TestTrainingAgainstOracle:
    """The sequential loop with a forward-only epoch loss and no layer-1
    input gradient reproduces the old loop bit for bit."""

    @staticmethod
    def _config(kind, seed, epochs=4):
        # 16 does not divide the 50 rows, so every epoch ends on a short batch;
        # l2 = 1e-3 makes the penalty terms large enough that adding them in
        # another order changes the last bit of some losses
        lr = 0.001 if kind == CONVNET else TrainingConfig().learning_rate
        return TrainingConfig(epochs=epochs, batch_size=16, learning_rate=lr, l2=1e-3, seed=seed)

    @pytest.mark.parametrize("kind", [LOGISTIC, CONVNET])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_train_scorer_matches_oracle(self, kind, seed):
        samples, _ = _clustered_corpus(np.random.default_rng(30 + seed), n_clusters=2, per_cluster=25)
        tensors = sample_tensors(samples)
        y = (samples.cluster == seed).astype(np.float64)
        config = self._config(kind, seed)
        scorer = train_scorer(tensors, y, kind, config)
        params, losses = train_scorer_oracle(tensors, y, kind, config)
        assert scorer.params.tobytes() == params.tobytes()
        assert np.array(scorer.training_meta["loss_curve"]).tobytes() == np.array(losses).tobytes()
        assert len(losses) == config.epochs

    @pytest.mark.parametrize("kind", [LOGISTIC, CONVNET])
    def test_loss_and_grad_match_oracle(self, kind):
        init, grad_of, scores = _KIND_FNS[kind]
        for seed in range(40, 48):  # a third of such batches expose a reordered penalty sum
            rng = np.random.default_rng(seed)
            X = rng.random((13, 1500))
            y = (rng.random(13) < 0.5).astype(np.float64)
            weights = np.where(y == 1, 1.3, 0.8)
            params = init(3) + rng.normal(0, 0.05, init(3).shape)
            loss, grad = _loss(kind, params, scores(params, X), y, weights, 1e-3), grad_of(params, X, y, weights, 1e-3)
            oracle_loss, oracle_grad = LOSS_AND_GRAD_ORACLES[kind](params, X, y, weights, 1e-3)
            assert np.float64(loss).tobytes() == np.float64(oracle_loss).tobytes()
            assert grad.tobytes() == oracle_grad.tobytes()

    def test_ensemble_matches_oracle_per_cluster(self):
        samples, _ = _clustered_corpus(np.random.default_rng(42), n_clusters=3, per_cluster=17)
        config = self._config(LOGISTIC, 9, epochs=4)
        ensemble = train_base_ensemble(samples, 3, config=config)
        seeds = np.random.SeedSequence(9).generate_state(3)
        tensors = sample_tensors(samples)
        for i, scorer in enumerate(ensemble.scorers):
            y = (samples.cluster == i).astype(np.float64)
            cluster_config = TrainingConfig(4, 16, config.learning_rate, config.l2, int(seeds[i]))
            params, losses = train_scorer_oracle(tensors, y, LOGISTIC, cluster_config)
            assert scorer.training_meta["seed"] == int(seeds[i])
            assert scorer.params.tobytes() == params.tobytes()
            assert scorer.training_meta["loss_curve"] == losses


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(12)
    samples, templates = _clustered_corpus(rng, n_clusters=3, per_cluster=40)
    ensemble = train_base_ensemble(samples, 3, config=TrainingConfig(seed=2))
    return ensemble, samples, templates, rng


class TestMetaFeatures:
    def test_shape_and_range(self, trained):
        ensemble, samples, _, _ = trained
        mf = meta_feature_matrix(ensemble, samples[:1])
        assert mf.shape == (1, 3)
        assert np.all((mf >= 0) & (mf <= 1))

    def test_own_cluster_scores_higher(self, trained):
        ensemble, samples, _, _ = trained
        rng = np.random.default_rng(13)
        picks = rng.choice(len(samples), 200, replace=True)
        mf = meta_feature_matrix(ensemble, samples[picks])
        wins = 0
        for row, cluster in zip(mf, samples.cluster[picks]):
            own = row[cluster]
            others = np.delete(row, cluster)
            wins += int(own > others.max())
        assert wins >= 190

    def test_far_samples_score_low(self, trained):
        ensemble, _, templates, _ = trained
        rng = np.random.default_rng(14)
        n = 100
        mf = meta_feature_matrix(ensemble, _random_records(rng, n))  # far from all templates whp
        low = int(np.sum(mf.max(axis=1) <= 0.5))
        assert low >= int(0.9 * n)

    def test_batch_matches_single(self, trained):
        ensemble, samples, _, _ = trained
        mf_batch = meta_feature_matrix(ensemble, samples[:10])
        for i in range(10):
            assert np.allclose(mf_batch[i], meta_feature_matrix(ensemble, samples[i : i + 1])[0], atol=1e-12)

    def test_untrained_ensemble(self):
        with pytest.raises((UntrainedEnsemble, MissingCluster)):
            empty = BaseEnsemble.__new__(BaseEnsemble)
            empty.scorers = []
            rng = np.random.default_rng(15)
            vec = rng.integers(1, 256, (1, 1500)).astype(np.uint8)
            meta_feature_matrix(empty, make_records(vec, 0))
