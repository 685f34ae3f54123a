"""Per-cluster binary base learners and the meta-feature extraction.

One binary scorer is trained per benign sub-cluster to separate that
cluster from the rest of the benign data. Scoring a sample against all N
scorers yields its N-vector of membership probabilities, the meta-features
consumed by the meta-classifiers.

Two scorer kinds exist: an L2-regularized logistic regression on the
normalized payload (the default; convex and fast), and a small
convolutional network over its 20x25x3 image with the same sigmoid output.
Both take the (n, 1500) matrix of `sample_tensors`; only the convnet
reshapes it. Both expose their loss as a pure function of a flat parameter
vector, so gradients can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    DegenerateClasses,
    GeometryMismatch,
    InvalidRange,
    MissingCluster,
    NonFiniteLoss,
    UntrainedEnsemble,
)
from .parallel import fork_map
from .samples import FEATURE_LEN, IMAGE_SHAPE

LOGISTIC = "logistic"
CONVNET = "convnet"
SCORER_KINDS = (LOGISTIC, CONVNET)

LOGISTIC_N_PARAMS = FEATURE_LEN + 1

# convnet geometry: two valid 3x3 convs, one 2x2 max-pool, dense head
_C1_OUT, _C2_OUT = 8, 16
_H1, _W1 = IMAGE_SHAPE[0] - 2, IMAGE_SHAPE[1] - 2  # 18 x 23
_H2, _W2 = _H1 - 2, _W1 - 2  # 16 x 21
_HP, _WP = _H2 // 2, _W2 // 2  # 8 x 10
_DENSE_IN = _HP * _WP * _C2_OUT  # 1280

_SHAPES = {
    "W1": (3, 3, IMAGE_SHAPE[2], _C1_OUT),
    "b1": (_C1_OUT,),
    "W2": (3, 3, _C1_OUT, _C2_OUT),
    "b2": (_C2_OUT,),
    "Wd": (_DENSE_IN,),
    "bd": (1,),
}
_ORDER = ("W1", "b1", "W2", "b2", "Wd", "bd")
CONVNET_N_PARAMS = sum(int(np.prod(s)) for s in _SHAPES.values())
SCORE_BLOCK = 256  # rows a scoring pass; 333-row blocks lost BLAS row alignment and changed last bits
FORK_ROWS = 16 * SCORE_BLOCK  # rows a scoring worker's unit; 1,505-row D3s ran slower forked
MIN_SIDE_ROWS = 10  # a scorer needs this many rows in its cluster and in the rest of benign


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.01
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise InvalidRange(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.learning_rate < float("inf"):
            raise InvalidRange(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.l2 < float("inf"):
            raise InvalidRange(f"l2 must be finite and >= 0, got {self.l2}")


@dataclass
class BinaryScorer:
    kind: str
    params: np.ndarray  # flat float64 vector
    training_meta: dict = field(default_factory=dict)


@dataclass
class BaseEnsemble:
    scorers: list[BinaryScorer]  # scorer i separates benign cluster i

    def __post_init__(self):
        if self.n_clusters < 2:
            raise MissingCluster("a base ensemble needs at least 2 clusters")

    @property
    def n_clusters(self) -> int:
        return len(self.scorers)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _weighted_bce(p: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-(w * (y * np.log(p) + (1 - y) * np.log(1 - p))).sum() / w.sum())


def _loss(kind: str, params: np.ndarray, p: np.ndarray, y: np.ndarray, weights: np.ndarray, l2: float) -> float:
    """Weighted cross-entropy of scores `p` plus the L2 penalty on the
    weights (biases unregularized); the convnet adds one layer at a time."""
    loss = _weighted_bce(p, y, weights)
    if kind == LOGISTIC:
        w = params[:-1]
        return loss + 0.5 * l2 * float(w @ w)
    t = _unpack(params)
    for name in ("W1", "W2", "Wd"):
        loss += 0.5 * l2 * float(np.sum(t[name] ** 2))
    return loss


# --- logistic kind ---


def logistic_init(seed: int = 0) -> np.ndarray:
    # zero init keeps the problem convex-deterministic and scores 0.5 everywhere
    return np.zeros(LOGISTIC_N_PARAMS)


def logistic_scores(params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X: (n, 1500) normalized payloads."""
    return _sigmoid(X @ params[:-1] + params[-1])


def logistic_grad(params, X, y, weights, l2):
    """Gradient of `_loss`: weighted cross-entropy + (l2/2)*||w||^2 (bias unregularized)."""
    w = params[:-1]
    p = logistic_scores(params, X)
    dz = weights * (p - y) / weights.sum()
    return np.concatenate([X.T @ dz + l2 * w, [dz.sum()]])


# --- convnet kind ---


def _unpack(params: np.ndarray) -> dict[str, np.ndarray]:
    out = {}
    pos = 0
    for name in _ORDER:
        shape = _SHAPES[name]
        size = int(np.prod(shape))
        out[name] = params[pos : pos + size].reshape(shape)
        pos += size
    return out


def _pack(tensors: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([tensors[name].reshape(-1) for name in _ORDER])


def convnet_init(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = {
        "W1": rng.standard_normal(_SHAPES["W1"]) * np.sqrt(2.0 / (3 * 3 * IMAGE_SHAPE[2])),
        "b1": np.zeros(_SHAPES["b1"]),
        "W2": rng.standard_normal(_SHAPES["W2"]) * np.sqrt(2.0 / (3 * 3 * _C1_OUT)),
        "b2": np.zeros(_SHAPES["b2"]),
        "Wd": rng.standard_normal(_SHAPES["Wd"]) * np.sqrt(1.0 / _DENSE_IN),
        "bd": np.zeros(_SHAPES["bd"]),
    }
    return _pack(t)


def _windows(x: np.ndarray) -> np.ndarray:
    """(B, H, W, C) -> (B, H-2, W-2, 9*C) valid 3x3 patches, kh/kw/c order."""
    v = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(1, 2))
    # sliding_window_view yields (B, H', W', C, 3, 3); reorder to (.., 3, 3, C)
    return np.ascontiguousarray(v.transpose(0, 1, 2, 4, 5, 3)).reshape(
        x.shape[0], x.shape[1] - 2, x.shape[2] - 2, 9 * x.shape[3]
    )


def _conv_forward(x, W, b):
    cols = _windows(x)
    out = cols @ W.reshape(-1, W.shape[-1]) + b
    return out, cols


def _conv_param_grads(dout, cols, W):
    k = W.shape[-1]
    dW = (cols.reshape(-1, cols.shape[-1]).T @ dout.reshape(-1, k)).reshape(W.shape)
    db = dout.sum(axis=(0, 1, 2))
    return dW, db


def _pool_forward(x):
    """2x2 max-pool; `idx` is each max's slot in its window (row-major), ties keeping the first."""
    Hp, Wp = x.shape[1] // 2, x.shape[2] // 2
    out = x[:, 0 : 2 * Hp : 2, 0 : 2 * Wp : 2]
    idx = np.zeros(out.shape, dtype=np.intp)
    for k in (1, 2, 3):
        slot = x[:, k // 2 : 2 * Hp : 2, k % 2 : 2 * Wp : 2]
        above = slot > out
        out = np.where(above, slot, out)
        idx[above] = k
    return out, idx


def _pool_backward(dout, idx, x_shape):
    dx = np.zeros(x_shape)
    for k in range(4):  # each window slot takes the gradient where it held the max
        dx[:, k // 2 : 2 * idx.shape[1] : 2, k % 2 : 2 * idx.shape[2] : 2] = np.where(idx == k, dout, 0.0)
    return dx


def _convnet_forward(params, X):
    t = _unpack(params)
    z1, cols1 = _conv_forward(X.reshape(len(X), *IMAGE_SHAPE), t["W1"], t["b1"])
    a1 = np.maximum(z1, 0.0)
    z2, cols2 = _conv_forward(a1, t["W2"], t["b2"])
    a2 = np.maximum(z2, 0.0)
    pooled, idx = _pool_forward(a2)
    flat = pooled.reshape(X.shape[0], _DENSE_IN)
    logit = flat @ t["Wd"] + t["bd"][0]
    p = _sigmoid(logit)
    cache = (t, cols1, z1, a1, cols2, z2, a2, idx, flat)
    return p, cache


def convnet_scores(params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X: (n, 1500) normalized payloads, SCORE_BLOCK rows a pass, so the
    im2col buffers (0.5 MB a row) stay bounded; bit-equal to one whole-batch pass."""
    starts = range(0, max(len(X), 1), SCORE_BLOCK)  # an empty batch is one empty block
    return np.concatenate([_convnet_forward(params, X[i : i + SCORE_BLOCK])[0] for i in starts])


def convnet_grad(params, X, y, weights, l2):
    """Gradient of `_loss` by backpropagation through `_convnet_forward`."""
    p, cache = _convnet_forward(params, X)
    t, cols1, z1, a1, cols2, z2, a2, idx, flat = cache

    dlogit = weights * (p - y) / weights.sum()
    dWd = flat.T @ dlogit + l2 * t["Wd"]
    dbd = np.array([dlogit.sum()])
    dflat = np.outer(dlogit, t["Wd"])
    dpooled = dflat.reshape(X.shape[0], _HP, _WP, _C2_OUT)
    da2 = _pool_backward(dpooled, idx, a2.shape)
    dz2 = da2 * (z2 > 0)
    dW2, db2 = _conv_param_grads(dz2, cols2, t["W2"])
    dW2 += l2 * t["W2"]
    # only layer 2 needs its input gradient; layer 1's input is the data
    dcols = (dz2 @ t["W2"].reshape(-1, _C2_OUT).T).reshape(X.shape[0], _H2, _W2, 3, 3, _C1_OUT)
    da1 = np.zeros(a1.shape)
    for i in range(3):
        for j in range(3):
            da1[:, i : i + _H2, j : j + _W2, :] += dcols[:, :, :, i, j, :]
    dz1 = da1 * (z1 > 0)
    dW1, db1 = _conv_param_grads(dz1, cols1, t["W1"])
    dW1 += l2 * t["W1"]

    return _pack({"W1": dW1, "b1": db1, "W2": dW2, "b2": db2, "Wd": dWd, "bd": dbd})


_KIND_FNS = {  # each kind's (init, gradient, scores)
    LOGISTIC: (logistic_init, logistic_grad, logistic_scores),
    CONVNET: (convnet_init, convnet_grad, convnet_scores),
}


def sample_tensors(samples: np.recarray) -> np.ndarray:
    """The records' payloads as an (n, 1500) float matrix scaled by 1/255."""
    tensors = samples.features.astype(np.float64)
    tensors /= 255.0
    return tensors


def train_scorer(
    X: np.ndarray,
    y: np.ndarray,
    kind: str = LOGISTIC,
    config: Optional[TrainingConfig] = None,
) -> BinaryScorer:
    """Mini-batch SGD on weighted cross-entropy, inverse-frequency weights;
    X is `sample_tensors`' (n, 1500) matrix."""
    if kind not in _KIND_FNS:
        raise GeometryMismatch(f"unknown scorer kind {kind!r}")
    config = config or TrainingConfig()
    init, grad, scores = _KIND_FNS[kind]

    n = X.shape[0]
    n_pos = int(y.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClasses(f"both classes required, got {n_pos} positive / {n_neg} negative")
    weights = np.where(y == 1, n / (2.0 * n_pos), n / (2.0 * n_neg))

    params = init(config.seed)
    rng = np.random.default_rng(config.seed)
    losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            params -= config.learning_rate * grad(params, X[idx], y[idx], weights[idx], config.l2)
        epoch_loss = _loss(kind, params, scores(params, X), y, weights, config.l2)
        if not np.isfinite(epoch_loss):
            raise NonFiniteLoss(f"loss diverged to {epoch_loss} during epoch {len(losses)}")
        losses.append(float(epoch_loss))

    return BinaryScorer(
        kind=kind,
        params=params,
        training_meta={
            "epochs": config.epochs,
            "learning_rate": config.learning_rate,
            "seed": config.seed,
            "final_loss": losses[-1] if losses else None,
            "loss_curve": losses,
        },
    )


def require_trainable(cluster: np.ndarray, n: int) -> None:
    """Refuse cluster ids 0..n-1 that leave some scorer fewer than MIN_SIDE_ROWS rows on a side."""
    rows = len(cluster)
    for i, count in enumerate(np.bincount(cluster, minlength=n).tolist()):
        if min(count, rows - count) < MIN_SIDE_ROWS:
            raise DegenerateClasses(f"cluster {i}: {count} of {rows} rows; need >= {MIN_SIDE_ROWS} on each side")


def train_base_ensemble(
    d1: np.recarray,
    n: int,
    config: Optional[TrainingConfig] = None,
    kind: str = LOGISTIC,
) -> BaseEnsemble:
    """Train the N cluster-vs-rest-of-benign scorers on clustered D1
    records, side by side (`fork_map`); ordering follows cluster ids."""
    present = np.unique(d1.cluster)
    if not np.array_equal(present, np.arange(n)):
        raise MissingCluster(f"cluster ids {present.tolist()} do not cover 0..{n - 1}")
    require_trainable(d1.cluster, n)

    base = config or TrainingConfig()
    seeds = np.random.SeedSequence(base.seed).generate_state(n)
    tensors = sample_tensors(d1)
    ys = [(d1.cluster == i).astype(np.float64) for i in range(n)]
    scorers = fork_map(lambda i: train_scorer(tensors, ys[i], kind, replace(base, seed=int(seeds[i]))), range(n))
    return BaseEnsemble(scorers=scorers)


def meta_feature_matrix(ensemble: BaseEnsemble, samples: np.recarray) -> np.ndarray:
    """The records' N membership probabilities, in cluster order: (n, N), built and
    scored a block of rows at a time, FORK_ROWS rows a worker's unit. A single
    sample is a one-row slice."""
    if not ensemble.scorers:
        raise UntrainedEnsemble("base ensemble has no trained scorers")

    def score(span: np.recarray) -> np.ndarray:
        out = np.empty((len(span), len(ensemble.scorers)))
        for i in range(0, len(span), SCORE_BLOCK):  # one block's tensors at a time, not the batch's
            tensors = sample_tensors(span[i : i + SCORE_BLOCK])
            for j, scorer in enumerate(ensemble.scorers):
                out[i : i + SCORE_BLOCK, j] = _KIND_FNS[scorer.kind][2](scorer.params, tensors)
        return out

    spans = [samples[i : i + FORK_ROWS] for i in range(0, max(len(samples), 1), FORK_ROWS)]  # empty: one empty span
    return np.concatenate(fork_map(score, spans))
