"""Benign traffic clustering: exact t-SNE embedding, k-means, model selection.

The embedding is the exact O(n^2) algorithm (no tree approximation):
per-point bandwidths from a bisection on the conditional entropy, symmetric
joint affinities, Student-t low-dimensional kernel, and momentum gradient
descent with per-coordinate gains, in float32 at every map size, with the
opt-SNE step size n / early_exaggeration (Belkina et al. 2019, Nat. Commun.
10:5415). Cluster counts are chosen by the maximum silhouette over a k range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    InvalidRange,
    LengthMismatch,
    NonBenignSample,
    NonFiniteInput,
    PerplexityTooLarge,
    SingleCluster,
    TooFewPoints,
)
from .samples import BENIGN_CLASS_ID

_EPS = 1e-12
# the standard exact t-SNE descent schedule, cut to 500 iterations by default
# (`EmbeddingParams.iterations`): the latest of the measured maps settles its
# cluster selection at 425 (README)
EXAGGERATION_ITERS = 250
MOMENTUM_EARLY, MOMENTUM_LATE, MOMENTUM_SWITCH_ITER = 0.5, 0.8, 250
# bandwidth bisection: stop within this entropy of log(perplexity), or after this many steps
ENTROPY_TOL, BISECTION_STEPS = 1e-5, 50


@dataclass(frozen=True)
class EmbeddingParams:
    perplexity: float = 30.0
    iterations: int = 500
    early_exaggeration: float = 12.0
    seed: int = 0

    def __post_init__(self):
        for name in ("perplexity", "early_exaggeration"):
            if not getattr(self, name) > 0:  # NaN too
                raise InvalidRange(f"{name} must be > 0, got {getattr(self, name)}")
        if self.iterations < EXAGGERATION_ITERS:
            raise InvalidRange(f"iterations must be >= {EXAGGERATION_ITERS}, got {self.iterations}")


def _squared_distances(X: np.ndarray) -> np.ndarray:
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :]
    d2 -= 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _conditional_affinities(d2: np.ndarray, perplexity: float) -> np.ndarray:
    """Per-point Gaussian affinities with bandwidth matched to the perplexity.

    For each point the precision beta is bisected until the entropy of the
    conditional distribution is within ENTROPY_TOL of log(perplexity).
    """
    n = d2.shape[0]
    target = math.log(perplexity)
    P = np.zeros((n, n))
    others = np.arange(n)
    for i in range(n):
        idx = others[others != i]
        d = d2[i, idx]
        dmin = d.min()
        ds = d - dmin  # entropy is shift invariant; keeps exp() in range
        # ds holds an exact 0 and beta stays finite, so p holds a 1 and z >= 1
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        for _ in range(BISECTION_STEPS):
            p = np.exp(-ds * beta)
            z = p.sum()
            entropy = math.log(z) + beta * float(ds @ p) / z
            diff = entropy - target
            if abs(diff) <= ENTROPY_TOL:
                break
            if diff > 0:
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
        P[i, idx] = p / z
    return P


def _kl_divergence(P: np.ndarray, Q: np.ndarray) -> float:
    mask = P > 0
    p = P[mask].astype(np.float64)  # a float64 sum over the float32 descent's P and Q
    return float(np.sum(p * np.log(p / np.maximum(Q[mask].astype(np.float64), _EPS))))


def _student_t(Y: np.ndarray, num: np.ndarray, Q: np.ndarray) -> None:
    """In place: num = 1 / (1 + |y_i - y_j|^2) off the diagonal, 0 on it; Q = num / num.sum().
    1 + |y_i - y_j|^2 is formed in one product, [y, |y|^2, 1] @ [-2y, 1, 1 + |y|^2].T."""
    sq = np.sum(Y * Y, axis=1)
    one = np.ones_like(sq)
    np.matmul(np.column_stack([Y, sq, one]), np.column_stack([-2.0 * Y, one, one + sq]).T, out=num)
    diag = num.diagonal().copy()  # each column's value for a duplicate row: 1 + 0, up to rounding
    np.maximum(num, diag, out=num)
    np.divide(diag, num, out=num)  # so duplicates get exactly 1, whatever the BLAS kernel's rounding
    np.fill_diagonal(num, 0.0)
    np.divide(num, num.sum(), out=Q)


def tsne_embed(X, params: EmbeddingParams, return_trace: bool = False):
    """Embed an (n, d) matrix into 2-D with exact t-SNE.

    Affinities are float64, the descent float32 with step size
    n / early_exaggeration (opt-SNE), which holds maps of every size steady.
    Deterministic for a fixed seed. `return_trace` adds the KL divergence
    every 50 iterations after the early-exaggeration phase.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 4:
        raise TooFewPoints(f"t-SNE needs at least 4 points, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("t-SNE input contains non-finite values")
    n = X.shape[0]
    if params.perplexity >= n:
        raise PerplexityTooLarge(f"perplexity {params.perplexity} must be < number of points {n}")

    cond = _conditional_affinities(_squared_distances(X), params.perplexity)
    P = ((cond + cond.T) / (2.0 * n)).astype(np.float32)

    Y = (np.random.default_rng(params.seed).standard_normal((n, 2)) * 1e-4).astype(np.float32)
    velocity, gains = np.zeros_like(Y), np.ones_like(Y)
    learning_rate = n / params.early_exaggeration

    P_exaggerated = P * params.early_exaggeration
    num, work = np.empty_like(P), np.empty_like(P)  # the loop allocates no n x n array
    kl_trace: list[float] = []
    for it in range(params.iterations):
        exaggerating = it < EXAGGERATION_ITERS
        P_eff = P_exaggerated if exaggerating else P
        momentum = MOMENTUM_EARLY if it < MOMENTUM_SWITCH_ITER else MOMENTUM_LATE

        _student_t(Y, num, work)  # work = Q
        np.subtract(P_eff, work, out=work)
        work *= num
        grad = 4.0 * (work.sum(axis=1)[:, None] * Y - work @ Y)

        inc = (grad > 0) != (velocity > 0)
        gains[inc] += 0.2
        gains[~inc] *= 0.8
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - learning_rate * (gains * grad)
        Y += velocity
        Y -= Y.mean(axis=0)

        if return_trace and not exaggerating and (it + 1 - EXAGGERATION_ITERS) % 50 == 0:
            _student_t(Y, num, work)
            kl_trace.append(_kl_divergence(P, work))

    if not np.all(np.isfinite(Y)):
        raise NonFiniteInput("t-SNE diverged to non-finite coordinates")
    Y = Y.astype(np.float64)
    return (Y, kl_trace) if return_trace else Y


@dataclass
class KMeansResult:
    assignments: np.ndarray  # int array, shape (n,)
    centroids: np.ndarray  # shape (k, dim)
    sse: float
    sse_trace: list[float] = field(default_factory=list)  # per Lloyd iteration of the winning run


def _kmeans_pp_init(P: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = P.shape[0]
    centroids = np.empty((k, P.shape[1]))
    centroids[0] = P[rng.integers(n)]
    d2 = np.sum((P - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = P[idx]
        d2 = np.minimum(d2, np.sum((P - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd(P: np.ndarray, centroids: np.ndarray, max_iter: int = 300) -> KMeansResult:
    k = centroids.shape[0]
    centroids = centroids.copy()
    assignments = np.full(P.shape[0], -1, dtype=np.int64)
    trace: list[float] = []
    for _ in range(max_iter):
        # per coordinate, summed left to right: bit-equal to np.sum over the (n, k, dim) cube
        d2 = sum((P[:, j, None] - centroids[:, j]) ** 2 for j in range(P.shape[1]))
        new_assign = np.argmin(d2, axis=1)
        dist_to_own = d2[np.arange(P.shape[0]), new_assign]

        # Repair empty clusters: move the worst-fit point there and park the
        # centroid on it, so the objective still decreases this iteration.
        counts = np.bincount(new_assign, minlength=k)
        while np.any(counts == 0):
            empty = int(np.argmin(counts))
            movable = counts[new_assign] > 1
            donor = int(np.argmax(np.where(movable, dist_to_own, -np.inf)))
            counts[new_assign[donor]] -= 1
            new_assign[donor] = empty
            counts[empty] += 1
            centroids[empty] = P[donor]
            dist_to_own[donor] = 0.0

        converged = np.array_equal(new_assign, assignments)
        assignments = new_assign
        for d in range(P.shape[1]):  # row-order sums, as mean(axis=0) sums an (m, dim >= 2) array
            centroids[:, d] = np.bincount(assignments, weights=P[:, d], minlength=k) / counts
        trace.append(float(np.sum((P - centroids[assignments]) ** 2)))
        if converged:
            break
    return KMeansResult(assignments=assignments, centroids=centroids, sse=trace[-1], sse_trace=trace)


def kmeans(
    P,
    k: int,
    restarts: int = 10,
    seed: int = 0,
    extra_inits: Optional[Sequence[np.ndarray]] = None,
) -> KMeansResult:
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding.

    `extra_inits` lets callers add deterministic warm starts; they compete
    on equal footing with the seeded restarts.
    """
    P = np.asarray(P, dtype=np.float64)
    if k < 1 or P.shape[0] < k:
        raise TooFewPoints(f"k-means needs n >= k >= 1, got n={P.shape[0]}, k={k}")
    if restarts < 1:
        raise InvalidRange(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    inits = [_kmeans_pp_init(P, k, rng) for _ in range(restarts)]
    inits += [np.asarray(init, dtype=np.float64) for init in extra_inits or ()]
    return min((_lloyd(P, init) for init in inits), key=lambda result: result.sse)  # the first best wins ties


def silhouette_score(P, assignments, distances: Optional[np.ndarray] = None) -> float:
    """Mean silhouette s(i) = (b - a) / max(a, b) over all points.

    Points in singleton clusters score 0 by convention.
    """
    P = np.asarray(P, dtype=np.float64)
    assignments = np.asarray(assignments, dtype=np.int64)
    if P.shape[0] != assignments.shape[0]:
        raise LengthMismatch("points and assignments differ in length")
    labels, cols = np.unique(assignments, return_inverse=True)
    if labels.size < 2:
        raise SingleCluster("silhouette requires at least 2 clusters")

    if distances is None:
        distances = np.sqrt(_squared_distances(P))
    n = P.shape[0]
    onehot = np.zeros((n, labels.size))
    onehot[np.arange(n), cols] = 1.0
    counts = onehot.sum(axis=0)

    sums = distances @ onehot  # sums[i, j] = total distance from i to cluster j
    own_counts = counts[cols]
    s = np.zeros(n)
    multi = own_counts > 1
    a = np.zeros(n)
    a[multi] = sums[np.arange(n), cols][multi] / (own_counts[multi] - 1)

    means = sums / counts[None, :]
    means[np.arange(n), cols] = np.inf
    b = means.min(axis=1)

    denom = np.maximum(a, b)
    valid = multi & (denom > 0)
    s[valid] = (b[valid] - a[valid]) / denom[valid]
    return float(s.mean())


@dataclass
class ClusteringReport:
    per_k: list[tuple[int, float, float]]  # (k, sse, silhouette)
    selected_n: int
    centroids: np.ndarray
    assignments: np.ndarray


def select_cluster_count(
    P,
    k_min: int = 2,
    k_max: int = 15,
    restarts: int = 10,
    seed: int = 0,
) -> ClusteringReport:
    """Run k-means over [k_min, k_max] and pick argmax silhouette; the
    chosen clusters are numbered in order of first appearance in `P`.

    Each k also gets a warm start built from the previous k's solution
    (its centroids plus the worst-fit point), which keeps the reported
    SSE curve non-increasing in k.
    """
    P = np.asarray(P, dtype=np.float64)
    n = P.shape[0]
    if not (2 <= k_min < k_max <= n - 1):
        raise InvalidRange(f"need 2 <= k_min < k_max <= n-1, got k_min={k_min}, k_max={k_max}, n={n}")

    distances = np.sqrt(_squared_distances(P))
    seeds = np.random.SeedSequence(seed).generate_state(k_max - k_min + 1)
    per_k: list[tuple[int, float, float]] = []
    best_row: Optional[tuple[float, int, KMeansResult]] = None
    prev: Optional[KMeansResult] = None
    for i, k in enumerate(range(k_min, k_max + 1)):
        extra = []
        if prev is not None:
            worst = int(np.argmax(np.sum((P - prev.centroids[prev.assignments]) ** 2, axis=1)))
            extra.append(np.vstack([prev.centroids, P[worst]]))
        result = kmeans(P, k, restarts=restarts, seed=int(seeds[i]), extra_inits=extra)
        sil = silhouette_score(P, result.assignments, distances=distances)
        per_k.append((k, result.sse, sil))
        if best_row is None or sil > best_row[0]:
            best_row = (sil, k, result)
        prev = result

    _, selected_n, chosen = best_row
    assignments, centroids = _number_by_first_appearance(chosen.assignments, chosen.centroids)
    return ClusteringReport(per_k=per_k, selected_n=selected_n, centroids=centroids, assignments=assignments)


def _number_by_first_appearance(assignments: np.ndarray, centroids: np.ndarray):
    """Ids 0..k-1 in order of each cluster's first row (label 0 owns row 0),
    so no later stage sees which ids k-means happened to use."""
    order = np.argsort(np.unique(assignments, return_index=True)[1])  # old ids, by first row
    return np.argsort(order)[assignments], centroids[order]


def annotate_clusters(samples: np.recarray, assignments) -> np.recarray:
    """A copy of the benign records with cluster ids attached, positionally."""
    assignments = np.asarray(assignments, dtype=np.int64)
    if len(samples) != assignments.shape[0]:
        raise LengthMismatch(f"{len(samples)} samples vs {assignments.shape[0]} assignments")
    if np.any(samples.label != BENIGN_CLASS_ID):
        raise NonBenignSample("cluster ids may only be assigned to benign samples")
    out = samples.copy()
    out.cluster = assignments
    return out
