import numpy as np
import pytest

from osnids import clustering
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

from helpers import kmeans_partition_oracle, lloyd_oracle, silhouette_oracle, tsne_oracle


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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lloyd_equals_difference_cube_oracle(self, seed):
        """The per-coordinate distance sum is the (n, k, dim) cube's, bit for
        bit, on a t-SNE-scaled 2-D layout at every k of the default sweep,
        on 3-D points, and on a 0.1-spaced grid whose many exact ties in
        distance go to whichever form rounds lower."""
        rng = np.random.default_rng(seed)
        P2 = np.vstack([c + rng.normal(0, 2.0, (40, 2)) for c in rng.uniform(-40, 40, (7, 2))])
        grid = np.array([(x, y) for x in np.arange(12) * 0.1 for y in np.arange(12) * 0.1])
        for P, ks in ((P2, range(2, 16)), (rng.normal(0, 1, (60, 3)), (2, 5)), (grid, range(2, 9))):
            for k in ks:
                if P is grid:  # evenly spaced grid points as the initial centroids
                    init = grid[np.linspace(0, len(grid) - 1, k).astype(int)]
                else:
                    init = clustering._kmeans_pp_init(P, k, np.random.default_rng([seed, k]))
                result = clustering._lloyd(P, init)
                assignments, centroids, trace = lloyd_oracle(P, init)
                assert result.assignments.tobytes() == assignments.tobytes()
                assert result.centroids.tobytes() == centroids.tobytes()
                assert np.array(result.sse_trace).tobytes() == np.array(trace).tobytes()


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
        curve = [sse for _, sse, _ in report.per_k]
        assert all(curve[i + 1] <= curve[i] + 1e-9 for i in range(len(curve) - 1))

    def test_clusters_numbered_by_first_appearance(self):
        rng = np.random.default_rng(4)
        P = _blobs(rng, [[0, 0], [20, 0], [0, 20], [20, 20], [40, 0]], 30)[rng.permutation(150)]
        report = select_cluster_count(P, 2, 8, restarts=10, seed=4)
        labels, first = np.unique(report.assignments, return_index=True)
        assert report.selected_n == 5 and report.assignments[0] == 0
        assert labels.tolist() == list(range(5)) and np.all(np.diff(first) > 0)
        for j in range(5):  # each centroid moved with its cluster
            assert report.centroids[j].tobytes() == P[report.assignments == j].mean(axis=0).tobytes()

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


class TestFirstAppearanceNumbering:
    """Cluster ids depend on the partition alone, never on which ids
    k-means happened to give it."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_any_relabelling_numbers_the_same(self, seed):
        rng = np.random.default_rng(seed)
        assignments = rng.permutation(np.arange(60) % 6)
        centroids = rng.normal(0, 5, (6, 2))
        expected = clustering._number_by_first_appearance(assignments, centroids)
        assert expected[0][0] == 0
        _, first = np.unique(expected[0], return_index=True)
        assert np.all(np.diff(first) > 0)
        for _ in range(5):
            perm = rng.permutation(6)  # old id j becomes perm[j]
            moved = np.empty_like(centroids)
            moved[perm] = centroids
            got = clustering._number_by_first_appearance(perm[assignments], moved)
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1].tobytes() == expected[1].tobytes()

    def test_partition_and_centroids_kept(self):
        assignments = np.array([2, 2, 0, 1, 0, 1, 2])
        centroids = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        got, moved = clustering._number_by_first_appearance(assignments, centroids)
        assert got.tolist() == [0, 0, 1, 2, 1, 2, 0]
        assert moved.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]


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

    @pytest.mark.parametrize("seed", range(20))
    def test_duplicate_pairs_stay_together(self, seed):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        Y = tsne_embed(X, EmbeddingParams(perplexity=1.5, iterations=500, seed=seed))
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

    @pytest.mark.parametrize(
        "field, value",
        [("early_exaggeration", 0.0), ("early_exaggeration", np.nan), ("perplexity", np.nan)],
    )
    def test_settings_must_be_positive(self, field, value):
        with pytest.raises(InvalidRange, match=field):
            EmbeddingParams(**{field: value})


class TestAffinities:
    """Each row of the conditional affinities is a distribution whose entropy
    the bandwidth bisection has matched to log(perplexity)."""

    @pytest.fixture(scope="class")
    def P(self):
        rng = np.random.default_rng(5)
        X = np.vstack([c + rng.normal(0, 0.4, (70, 8)) for c in rng.normal(0, 2, (3, 8))])
        return clustering._conditional_affinities(clustering._squared_distances(X), 30.0)

    def test_rows_sum_to_one_off_the_diagonal(self, P):
        assert np.all(np.diag(P) == 0.0)
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12

    def test_row_entropy_matches_perplexity(self, P):
        entropy = -np.sum(P * np.log(np.where(P > 0, P, 1.0)), axis=1)
        assert np.max(np.abs(entropy - np.log(30.0))) <= clustering.ENTROPY_TOL + 1e-9


class TestStudentTKernel:
    """The float32 kernel against its float64 definition 1 / (1 + |y_i - y_j|^2),
    on a layout as wide as a finished D1 embedding, with duplicated rows."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_kernel_equals_definition(self, seed):
        rng = np.random.default_rng(seed)
        n = 720
        angle, radius = rng.uniform(0, 2 * np.pi, n), 35.0 * np.sqrt(rng.uniform(0, 1, n))
        Y = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
        copies, originals = rng.choice(n, 80, replace=False).reshape(2, 40)
        Y[copies] = Y[originals]
        Y = Y.astype(np.float32)
        num, Q = np.empty((n, n), np.float32), np.empty((n, n), np.float32)
        clustering._student_t(Y, num, Q)

        Y64 = Y.astype(np.float64)
        exact = 1.0 / (1.0 + np.sum((Y64[:, None, :] - Y64[None, :, :]) ** 2, axis=2))
        off = ~np.eye(n, dtype=bool)
        assert np.max(np.abs(num[off] - exact[off]) / exact[off]) <= 1e-3
        assert np.all(np.diagonal(num) == 0.0)
        assert np.all(num[off] > 0.0) and np.all(num[off] <= 1.0)
        assert np.all(num[copies, originals] == 1.0) and np.all(num[originals, copies] == 1.0)
        assert abs(float(Q.sum(dtype=np.float64)) - 1.0) <= 1e-5


class TestTsneAgainstOracle:
    """The in-place float32 loop must reproduce the allocating float32 one
    bit for bit. At 300 iterations the run crosses the exaggeration and
    momentum switch at 250 and samples one KL value. Both loops make the
    same BLAS calls under the same thread count, so they agree on any host."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_embedding_and_trace_equal_oracle(self, seed):
        rng = np.random.default_rng(seed)
        X = np.vstack([c + rng.normal(0, 0.3, (40, 6)) for c in rng.normal(0, 3, (4, 6))])
        params = EmbeddingParams(perplexity=15.0, iterations=300, seed=seed)
        Y, trace = tsne_embed(X, params, return_trace=True)
        Y_oracle, trace_oracle = tsne_oracle(X, params, dtype=np.float32)
        assert Y.dtype == np.float64 and Y_oracle.dtype == np.float32
        assert Y.tobytes() == Y_oracle.astype(np.float64).tobytes()
        assert np.array(trace).tobytes() == np.array(trace_oracle).tobytes() and len(trace) == 1
        assert tsne_embed(X, params).tobytes() == Y.tobytes()


class TestFloat32Partition:
    """Gate for the float32 descent: the clusters it leads to are the ones
    the float64 loop as first written leads to. The embeddings differ by
    several units (t-SNE amplifies the last bits), so only the canonical
    assignments can be compared."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_clusters_as_float64_oracle(self, seed):
        rng = np.random.default_rng(seed)
        X = np.vstack([c + rng.normal(0, 0.3, (30, 10)) for c in 2.0 * np.eye(7, 10)])
        params = EmbeddingParams(seed=seed)
        ours = select_cluster_count(tsne_embed(X, params), seed=seed)
        oracle = select_cluster_count(tsne_oracle(X, params, dtype=np.float64)[0], seed=seed)
        assert ours.selected_n == oracle.selected_n == 7
        assert ours.assignments.tobytes() == oracle.assignments.tobytes()
        assert ours.assignments.tolist() == np.repeat(np.arange(7), 30).tolist()
