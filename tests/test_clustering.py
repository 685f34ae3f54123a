import numpy as np
import pytest

from osnids.clustering import (
    EmbeddingParams,
    annotate_clusters,
    kmeans,
    select_cluster_count,
    silhouette_score,
    tsne_embed,
)
from osnids.errors import (
    InvalidRange,
    LengthMismatch,
    NonBenignSample,
    NonFiniteInput,
    PerplexityTooLarge,
    SingleCluster,
    TooFewPoints,
)
from osnids.samples import make_records

from helpers import kmeans_partition_oracle, silhouette_oracle


def _blobs(rng, centers, n_per, sigma=0.5):
    return np.vstack([c + rng.normal(0, sigma, (n_per, 2)) for c in np.asarray(centers, float)])


class TestKMeans:
    def test_two_cluster_hand_case(self):
        P = np.array([[0, 0], [0, 1], [10, 0], [10, 1]], float)
        result = kmeans(P, 2, restarts=5, seed=0)
        assert result.sse == pytest.approx(1.0, abs=1e-12)
        assert sorted(result.centroids.tolist()) == [[0.0, 0.5], [10.0, 0.5]]
        assert result.assignments[0] == result.assignments[1]
        assert result.assignments[2] == result.assignments[3]
        assert result.assignments[0] != result.assignments[2]

    def test_k1_is_mean_and_total_variance(self):
        rng = np.random.default_rng(1)
        P = rng.normal(0, 2, (40, 2))
        result = kmeans(P, 1, restarts=1, seed=0)
        assert np.allclose(result.centroids[0], P.mean(axis=0))
        assert result.sse == pytest.approx(float(((P - P.mean(axis=0)) ** 2).sum()))

    def test_matches_exhaustive_partition_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            P = rng.uniform(0, 10, (8, 2))
            result = kmeans(P, 3, restarts=50, seed=trial)
            assert result.sse <= kmeans_partition_oracle(P, 3) + 1e-9

    def test_sse_never_increases_within_run(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            P = rng.uniform(0, 5, (60, 2))
            result = kmeans(P, 4, restarts=1, seed=trial)
            trace = result.sse_trace
            assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))

    def test_duplicate_points_repair(self):
        # more centroids than distinct locations forces empty-cluster repair
        P = np.array([[0.0, 0.0]] * 5 + [[5.0, 5.0]] * 5 + [[9.0, 0.0]])
        result = kmeans(P, 3, restarts=10, seed=0)
        assert np.bincount(result.assignments, minlength=3).min() >= 1
        assert result.sse == pytest.approx(0.0, abs=1e-18)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            kmeans(np.zeros((2, 2)), 3, restarts=1, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        P = rng.normal(0, 1, (30, 2))
        a = kmeans(P, 3, restarts=10, seed=5)
        b = kmeans(P, 3, restarts=10, seed=5)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)


class TestSilhouette:
    def test_hand_case(self):
        P = np.array([[0, 0], [0, 1], [10, 0], [10, 1]], float)
        labels = np.array([0, 0, 1, 1])
        # for (0,0): a = 1, b = (10 + sqrt(101)) / 2; symmetric for all points
        b = (10 + np.sqrt(101)) / 2
        expected = (b - 1) / b
        assert silhouette_score(P, labels) == pytest.approx(expected, abs=1e-12)
        assert silhouette_score(P, labels) == pytest.approx(0.9003, abs=1e-4)

    def test_a_equals_b_scores_zero(self):
        # A=(0,0),B=(2,0) in cluster 0; C=(-1,0),D=(-3,0) in cluster 1.
        # A and C each have a = b = 2 (s = 0); B and D have s = 0.5.
        P = np.array([[0, 0], [2, 0], [-1, 0], [-3, 0]], float)
        labels = np.array([0, 0, 1, 1])
        assert silhouette_score(P, labels) == pytest.approx(0.25, abs=1e-12)
        assert silhouette_score(P, labels) == pytest.approx(silhouette_oracle(P, labels), abs=1e-12)

    def test_single_cluster_error(self):
        with pytest.raises(SingleCluster):
            silhouette_score(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_singleton_cluster_scores_zero(self):
        P = np.array([[0, 0], [0, 1], [10, 10]], float)
        labels = np.array([0, 0, 1])
        ours = silhouette_score(P, labels)
        assert ours == pytest.approx(silhouette_oracle(P, labels), abs=1e-12)

    def test_matches_definition_oracle_random(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            P = rng.uniform(0, 10, (50, 2))
            labels = rng.integers(0, 4, 50)
            labels[:4] = [0, 1, 2, 3]  # every cluster non-empty
            assert silhouette_score(P, labels) == pytest.approx(
                silhouette_oracle(P, labels), abs=1e-9
            )


class TestSelectClusterCount:
    def test_seven_blobs(self):
        rng = np.random.default_rng(0)
        centers = [[0, 0], [20, 0], [0, 20], [20, 20], [40, 0], [0, 40], [40, 40]]
        P = _blobs(rng, centers, 100)
        report = select_cluster_count(P, 2, 15, restarts=10, seed=0)
        assert report.selected_n == 7
        assert any(k == 7 for k, _, _ in report.per_k)
        assert report.assignments.max() == 6

    def test_two_blobs(self):
        rng = np.random.default_rng(1)
        P = _blobs(rng, [[0, 0], [15, 15]], 50)
        report = select_cluster_count(P, 2, 8, restarts=10, seed=1)
        assert report.selected_n == 2

    def test_sse_curve_non_increasing(self):
        rng = np.random.default_rng(2)
        P = rng.uniform(0, 10, (80, 2))
        report = select_cluster_count(P, 2, 12, restarts=10, seed=2)
        curve = report.sse_curve()
        assert all(curve[i + 1] <= curve[i] + 1e-9 for i in range(len(curve) - 1))

    def test_invalid_range(self):
        P = np.random.default_rng(3).uniform(0, 1, (20, 2))
        with pytest.raises(InvalidRange):
            select_cluster_count(P, 1, 5)
        with pytest.raises(InvalidRange):
            select_cluster_count(P, 5, 5)
        with pytest.raises(InvalidRange):
            select_cluster_count(P, 2, 20)


def _records(rng, n, label=0):
    feats = rng.integers(0, 256, (n, 1500)).astype(np.uint8)
    feats[:, 0] = np.maximum(feats[:, 0], 1)
    return make_records(feats, label)


class TestAnnotateClusters:
    def test_assigns_positionally(self):
        rng = np.random.default_rng(0)
        samples = _records(rng, 4)
        out = annotate_clusters(samples, [0, 0, 0, 0])
        assert all(s.cluster == 0 for s in out)
        out = annotate_clusters(samples, [3, 1, 2, 0])
        assert [s.cluster for s in out] == [3, 1, 2, 0]
        assert all(s.label == 0 for s in out)
        assert np.array_equal(out.features, samples.features)
        assert np.all(samples.cluster == -1)  # the input is left as it was

    def test_length_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(LengthMismatch):
            annotate_clusters(_records(rng, 1), [0, 1])

    def test_rejects_non_benign(self):
        rng = np.random.default_rng(2)
        attack = _records(rng, 1, label=2)
        with pytest.raises(NonBenignSample):
            annotate_clusters(attack, [0])


class TestTsne:
    def test_output_shape_and_finite(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (30, 5))
        Y = tsne_embed(X, EmbeddingParams(perplexity=5, iterations=300, seed=0))
        assert Y.shape == (30, 2)
        assert np.all(np.isfinite(Y))

    def test_perplexity_too_large(self):
        X = np.random.default_rng(1).normal(0, 1, (10, 3))
        with pytest.raises(PerplexityTooLarge):
            tsne_embed(X, EmbeddingParams(perplexity=10, iterations=300, seed=0))

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            tsne_embed(np.zeros((3, 2)), EmbeddingParams(perplexity=1.5, iterations=300, seed=0))

    def test_non_finite_input(self):
        X = np.zeros((6, 2))
        X[2, 1] = np.nan
        with pytest.raises(NonFiniteInput):
            tsne_embed(X, EmbeddingParams(perplexity=2, iterations=300, seed=0))

    def test_duplicate_pairs_stay_together(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        Y = tsne_embed(X, EmbeddingParams(perplexity=1.5, iterations=500, seed=3))
        intra = (np.linalg.norm(Y[0] - Y[1]) + np.linalg.norm(Y[2] - Y[3])) / 2
        cross = np.mean(
            [np.linalg.norm(Y[i] - Y[j]) for i in (0, 1) for j in (2, 3)]
        )
        assert intra / cross < 0.5

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (25, 4))
        params = EmbeddingParams(perplexity=8, iterations=300, seed=11)
        a = tsne_embed(X, params)
        b = tsne_embed(X, params)
        assert a.tobytes() == b.tobytes()

    def test_kl_windows_non_increasing(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0, 0.3, (25, 4)), rng.normal(4, 0.3, (25, 4))])
        _, trace = tsne_embed(
            X, EmbeddingParams(perplexity=10, iterations=600, seed=4), return_trace=True
        )
        assert len(trace) == (600 - 250) // 50
        assert all(trace[i + 1] <= trace[i] + 1e-6 for i in range(len(trace) - 1))

    def test_iterations_minimum_enforced(self):
        with pytest.raises(InvalidRange):
            EmbeddingParams(iterations=200)
