"""Benign traffic clustering: exact t-SNE embedding, k-means, model selection.

The embedding is the exact O(n^2) algorithm (no tree approximation):
per-point bandwidths from a bisection on the conditional entropy, symmetric
joint affinities, Student-t low-dimensional kernel, and momentum gradient
descent with per-coordinate gains. Cluster counts are chosen by the maximum
silhouette over a k range, with the full SSE curve kept for elbow reading.
"""

from __future__ import annotations

import csv
import json
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


@dataclass(frozen=True)
class EmbeddingParams:
    perplexity: float = 30.0
    iterations: int = 1000
    early_exaggeration: float = 12.0
    exaggeration_iters: int = 250
    learning_rate: float = 200.0
    momentum_early: float = 0.5
    momentum_late: float = 0.8
    momentum_switch_iter: int = 250
    seed: int = 0

    def __post_init__(self):
        if self.perplexity <= 0:
            raise InvalidRange(f"perplexity must be > 0, got {self.perplexity}")
        if self.iterations < 250:
            raise InvalidRange(f"iterations must be >= 250, got {self.iterations}")


def _squared_distances(X: np.ndarray, out=None, work=None) -> np.ndarray:
    sq = np.sum(X * X, axis=1)
    work = np.matmul(X, X.T, out=work)
    work *= 2.0
    d2 = np.add(sq[:, None], sq[None, :], out=out)
    d2 -= work
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _conditional_affinities(d2: np.ndarray, perplexity: float, tol: float = 1e-5, max_steps: int = 50) -> np.ndarray:
    """Per-point Gaussian affinities with bandwidth matched to the perplexity.

    For each point the precision beta is bisected until the entropy of the
    conditional distribution is within `tol` of log(perplexity).
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
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        p = np.exp(-ds)
        for _ in range(max_steps):
            p = np.exp(-ds * beta)
            z = p.sum()
            if z <= 0.0:
                entropy = 0.0
            else:
                entropy = math.log(z) + beta * float(ds @ p) / z
            diff = entropy - target
            if abs(diff) <= tol:
                break
            if diff > 0:
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
        z = p.sum()
        if z <= 0.0:
            # degenerate row: fall back to uniform over neighbors
            P[i, idx] = 1.0 / (n - 1)
        else:
            P[i, idx] = p / z
    return P


def _kl_divergence(P: np.ndarray, Q: np.ndarray) -> float:
    mask = P > 0
    return float(np.sum(P[mask] * np.log(P[mask] / np.maximum(Q[mask], _EPS))))


def _student_t(Y: np.ndarray, num: np.ndarray, Q: np.ndarray) -> None:
    """In place: num = 1 / (1 + |y_i - y_j|^2) off the diagonal, 0 on it; Q = num / num.sum()."""
    _squared_distances(Y, out=num, work=Q)
    num += 1.0
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    np.divide(num, num.sum(), out=Q)


def tsne_embed(X, params: EmbeddingParams, return_trace: bool = False):
    """Embed an (n, d) matrix into 2-D with exact t-SNE.

    Deterministic for a fixed seed. When `return_trace` is set, also
    returns the KL divergence sampled every 50 iterations after the
    early-exaggeration phase ends.
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
    P = (cond + cond.T) / (2.0 * n)

    rng = np.random.default_rng(params.seed)
    Y = rng.standard_normal((n, 2)) * 1e-4
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)

    P_exaggerated = P * params.early_exaggeration
    num, work = np.empty((n, n)), np.empty((n, n))  # the loop allocates no n x n array
    kl_trace: list[float] = []
    for it in range(params.iterations):
        exaggerating = it < params.exaggeration_iters
        P_eff = P_exaggerated if exaggerating else P
        momentum = params.momentum_early if it < params.momentum_switch_iter else params.momentum_late

        _student_t(Y, num, work)  # work = Q
        np.subtract(P_eff, work, out=work)
        work *= num
        grad = 4.0 * (work.sum(axis=1)[:, None] * Y - work @ Y)

        inc = (grad > 0) != (velocity > 0)
        gains[inc] += 0.2
        gains[~inc] *= 0.8
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - params.learning_rate * (gains * grad)
        Y += velocity
        Y -= Y.mean(axis=0)

        if return_trace and not exaggerating and (it + 1 - params.exaggeration_iters) % 50 == 0:
            _student_t(Y, num, work)
            kl_trace.append(_kl_divergence(P, work))

    if not np.all(np.isfinite(Y)):
        raise NonFiniteInput("t-SNE diverged to non-finite coordinates")
    if return_trace:
        return Y, kl_trace
    return Y


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
        d2 = np.sum((P[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
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
        for j in range(k):
            centroids[j] = P[assignments == j].mean(axis=0)
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
    best: Optional[KMeansResult] = None
    for _ in range(restarts):
        result = _lloyd(P, _kmeans_pp_init(P, k, rng))
        if best is None or result.sse < best.sse:
            best = result
    for init in extra_inits or ():
        result = _lloyd(P, np.asarray(init, dtype=np.float64))
        if result.sse < best.sse:
            best = result
    return best


def silhouette_score(P, assignments, distances: Optional[np.ndarray] = None) -> float:
    """Mean silhouette s(i) = (b - a) / max(a, b) over all points.

    Points in singleton clusters score 0 by convention.
    """
    P = np.asarray(P, dtype=np.float64)
    assignments = np.asarray(assignments, dtype=np.int64)
    if P.shape[0] != assignments.shape[0]:
        raise LengthMismatch("points and assignments differ in length")
    labels = np.unique(assignments)
    if labels.size < 2:
        raise SingleCluster("silhouette requires at least 2 clusters")

    if distances is None:
        distances = np.sqrt(_squared_distances(P))
    n = P.shape[0]
    k = labels.size
    onehot = np.zeros((n, k))
    label_pos = {int(c): j for j, c in enumerate(labels)}
    cols = np.array([label_pos[int(a)] for a in assignments])
    onehot[np.arange(n), cols] = 1.0
    counts = onehot.sum(axis=0)

    sums = distances @ onehot  # sums[i, j] = total distance from i to cluster j
    own = cols
    own_counts = counts[own]
    s = np.zeros(n)
    multi = own_counts > 1
    a = np.zeros(n)
    a[multi] = sums[np.arange(n), own][multi] / (own_counts[multi] - 1)

    means = sums / counts[None, :]
    means[np.arange(n), own] = np.inf
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

    def sse_curve(self) -> list[float]:
        return [row[1] for row in self.per_k]


def select_cluster_count(
    P,
    k_min: int = 2,
    k_max: int = 15,
    restarts: int = 10,
    seed: int = 0,
) -> ClusteringReport:
    """Run k-means over [k_min, k_max] and pick argmax silhouette.

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
    return ClusteringReport(
        per_k=per_k,
        selected_n=selected_n,
        centroids=chosen.centroids,
        assignments=chosen.assignments,
    )


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


def report_to_csv(report: ClusteringReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "sse", "silhouette"])
        for k, sse, sil in report.per_k:
            writer.writerow([k, repr(sse), repr(sil)])


def report_to_json(report: ClusteringReport, path) -> None:
    payload = {
        "selected_n": report.selected_n,
        "centroids": [[float(v) for v in row] for row in report.centroids],
        "per_k": [{"k": k, "sse": sse, "silhouette": sil} for k, sse, sil in report.per_k],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
