"""Per-cluster binary base learners and the meta-feature extraction.

One binary scorer is trained per benign sub-cluster to separate that
cluster from the rest of the benign data. Scoring a sample against all N
scorers yields its N-vector of membership probabilities, the meta-features
consumed by the meta-classifiers.

Two scorer kinds exist: an L2-regularized logistic regression on the
flattened normalized image (the default; convex and fast), and a small
convolutional network with the same sigmoid output. Both expose their loss
as a pure function of a flat parameter vector, so gradients can be checked
against finite differences.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateClasses,
    GeometryMismatch,
    MissingCluster,
    NonFiniteLoss,
    UntrainedEnsemble,
)
from .features import IMAGE_SHAPE

LOGISTIC = "logistic"
CONVNET = "convnet"
SCORER_KINDS = (LOGISTIC, CONVNET)

_INPUT_DIM = int(np.prod(IMAGE_SHAPE))
LOGISTIC_N_PARAMS = _INPUT_DIM + 1

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


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.01
    l2: float = 1e-4
    seed: int = 0

    @classmethod
    def for_kind(cls, kind: str, seed: int = 0) -> "TrainingConfig":
        if kind == CONVNET:
            return cls(learning_rate=0.001, seed=seed)
        return cls(seed=seed)


@dataclass
class BinaryScorer:
    kind: str
    params: np.ndarray  # flat float64 vector
    input_geometry: tuple[int, int, int] = IMAGE_SHAPE
    training_meta: dict = field(default_factory=dict)


@dataclass
class BaseEnsemble:
    scorers: list[BinaryScorer]
    n_clusters: int
    input_geometry: tuple[int, int, int] = IMAGE_SHAPE

    def __post_init__(self):
        if self.n_clusters != len(self.scorers):
            raise MissingCluster(f"{len(self.scorers)} scorers for {self.n_clusters} clusters")
        if self.n_clusters < 2:
            raise MissingCluster("a base ensemble needs at least 2 clusters")


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


# --- logistic kind ---


def logistic_init(seed: int = 0) -> np.ndarray:
    # zero init keeps the problem convex-deterministic and scores 0.5 everywhere
    return np.zeros(LOGISTIC_N_PARAMS)


def logistic_scores(params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X: (n, 1500) flattened normalized tensors."""
    return _sigmoid(X @ params[:-1] + params[-1])


def logistic_loss_and_grad(params, X, y, weights, l2):
    """Weighted cross-entropy + (l2/2)*||w||^2 (bias unregularized)."""
    w, b = params[:-1], params[-1]
    p = _sigmoid(X @ w + b)
    wsum = weights.sum()
    loss = _weighted_bce(p, y, weights) + 0.5 * l2 * float(w @ w)
    dz = weights * (p - y) / wsum
    grad = np.concatenate([X.T @ dz + l2 * w, [dz.sum()]])
    return loss, grad


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
        x.shape[0], x.shape[1] - 2, x.shape[2] - 2, -1
    )


def _conv_forward(x, W, b):
    cols = _windows(x)
    out = cols @ W.reshape(-1, W.shape[-1]) + b
    return out, cols


def _conv_backward(dout, cols, W, x_shape):
    k = W.shape[-1]
    dW = (cols.reshape(-1, cols.shape[-1]).T @ dout.reshape(-1, k)).reshape(W.shape)
    db = dout.sum(axis=(0, 1, 2))
    dcols = dout @ W.reshape(-1, k).T
    B, H, Wd, C = x_shape
    dcols = dcols.reshape(B, H - 2, Wd - 2, 3, 3, C)
    dx = np.zeros(x_shape)
    for i in range(3):
        for j in range(3):
            dx[:, i : i + H - 2, j : j + Wd - 2, :] += dcols[:, :, :, i, j, :]
    return dx, dW, db


def _pool_forward(x):
    B, H, W, C = x.shape
    Hp, Wp = H // 2, W // 2
    x = x[:, : Hp * 2, : Wp * 2, :]
    win = x.reshape(B, Hp, 2, Wp, 2, C).transpose(0, 1, 3, 2, 4, 5).reshape(B, Hp, Wp, 4, C)
    idx = win.argmax(axis=3)
    out = np.take_along_axis(win, idx[:, :, :, None, :], axis=3).squeeze(axis=3)
    return out, idx


def _pool_backward(dout, idx, x_shape):
    B, H, W, C = x_shape
    Hp, Wp = H // 2, W // 2
    dwin = np.zeros((B, Hp, Wp, 4, C))
    np.put_along_axis(dwin, idx[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
    dx = np.zeros(x_shape)
    dx[:, : Hp * 2, : Wp * 2, :] = (
        dwin.reshape(B, Hp, Wp, 2, 2, C).transpose(0, 1, 3, 2, 4, 5).reshape(B, Hp * 2, Wp * 2, C)
    )
    return dx


def _convnet_forward(params, X):
    t = _unpack(params)
    z1, cols1 = _conv_forward(X, t["W1"], t["b1"])
    a1 = np.maximum(z1, 0.0)
    z2, cols2 = _conv_forward(a1, t["W2"], t["b2"])
    a2 = np.maximum(z2, 0.0)
    pooled, idx = _pool_forward(a2)
    flat = pooled.reshape(X.shape[0], -1)
    logit = flat @ t["Wd"] + t["bd"][0]
    p = _sigmoid(logit)
    cache = (t, cols1, z1, a1, cols2, z2, a2, idx, flat)
    return p, cache


def convnet_scores(params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X: (n, 20, 25, 3) normalized tensors."""
    p, _ = _convnet_forward(params, X)
    return p


def convnet_loss_and_grad(params, X, y, weights, l2):
    p, cache = _convnet_forward(params, X)
    t, cols1, z1, a1, cols2, z2, a2, idx, flat = cache
    wsum = weights.sum()
    loss = _weighted_bce(p, y, weights)
    for name in ("W1", "W2", "Wd"):
        loss += 0.5 * l2 * float(np.sum(t[name] ** 2))

    dlogit = weights * (p - y) / wsum
    dWd = flat.T @ dlogit + l2 * t["Wd"]
    dbd = np.array([dlogit.sum()])
    dflat = np.outer(dlogit, t["Wd"])
    dpooled = dflat.reshape(X.shape[0], _HP, _WP, _C2_OUT)
    da2 = _pool_backward(dpooled, idx, a2.shape)
    dz2 = da2 * (z2 > 0)
    da1, dW2, db2 = _conv_backward(dz2, cols2, t["W2"], a1.shape)
    dW2 += l2 * t["W2"]
    dz1 = da1 * (z1 > 0)
    _, dW1, db1 = _conv_backward(dz1, cols1, t["W1"], X.shape)
    dW1 += l2 * t["W1"]

    grad = _pack({"W1": dW1, "b1": db1, "W2": dW2, "b2": db2, "Wd": dWd, "bd": dbd})
    return loss, grad


_KIND_FNS = {
    LOGISTIC: (logistic_init, logistic_loss_and_grad, logistic_scores),
    CONVNET: (convnet_init, convnet_loss_and_grad, convnet_scores),
}


def _prepare_inputs(kind: str, tensors: np.ndarray) -> np.ndarray:
    return tensors.reshape(tensors.shape[0], _INPUT_DIM) if kind == LOGISTIC else tensors


def sample_tensors(samples: np.recarray) -> np.ndarray:
    """The records' payloads as (n, 20, 25, 3) float tensors scaled by 1/255."""
    tensors = samples.features.reshape(len(samples), *IMAGE_SHAPE).astype(np.float64)
    tensors /= 255.0
    return tensors


def train_scorer(
    tensors: np.ndarray,
    y: np.ndarray,
    kind: str = LOGISTIC,
    config: Optional[TrainingConfig] = None,
) -> BinaryScorer:
    """Mini-batch SGD on weighted cross-entropy, inverse-frequency weights."""
    if kind not in _KIND_FNS:
        raise GeometryMismatch(f"unknown scorer kind {kind!r}")
    config = config or TrainingConfig.for_kind(kind)
    init, loss_and_grad, _ = _KIND_FNS[kind]

    n = tensors.shape[0]
    n_pos = int(y.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClasses(f"both classes required, got {n_pos} positive / {n_neg} negative")
    weights = np.where(y == 1, n / (2.0 * n_pos), n / (2.0 * n_neg))

    X = _prepare_inputs(kind, tensors)
    params = init(config.seed)
    rng = np.random.default_rng(config.seed)
    losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, grad = loss_and_grad(params, X[idx], y[idx], weights[idx], config.l2)
            params = params - config.learning_rate * grad
        epoch_loss, _ = loss_and_grad(params, X, y, weights, config.l2)
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


def train_base_ensemble(
    d1: np.recarray,
    n: int,
    config: Optional[TrainingConfig] = None,
    kind: str = LOGISTIC,
    threads: int = 1,
) -> BaseEnsemble:
    """Train the N cluster-vs-rest-of-benign scorers on clustered D1
    records; ordering follows cluster ids."""
    present = np.unique(d1.cluster)
    if not np.array_equal(present, np.arange(n)):
        raise MissingCluster(f"cluster ids {present.tolist()} do not cover 0..{n - 1}")

    base = config or TrainingConfig.for_kind(kind)
    # per-cluster seeds fixed up front so threading cannot change results
    seeds = [int(s) for s in np.random.SeedSequence(base.seed).generate_state(n)]
    configs = [
        TrainingConfig(base.epochs, base.batch_size, base.learning_rate, base.l2, seeds[i])
        for i in range(n)
    ]
    tensors = sample_tensors(d1)
    ys = [(d1.cluster == i).astype(np.float64) for i in range(n)]
    for i in range(n):
        n_pos = int(ys[i].sum())
        if n_pos < 10 or len(d1) - n_pos < 10:
            raise DegenerateClasses(f"cluster {i}: need >= 10 samples on each side")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            scorers = list(pool.map(lambda i: train_scorer(tensors, ys[i], kind, configs[i]), range(n)))
    else:
        scorers = [train_scorer(tensors, ys[i], kind, configs[i]) for i in range(n)]
    return BaseEnsemble(scorers=scorers, n_clusters=n)


def meta_feature_matrix(ensemble: BaseEnsemble, samples: np.recarray) -> np.ndarray:
    """The records' N membership probabilities, in cluster order: (n, N).
    A single sample is a one-row slice."""
    if not ensemble.scorers:
        raise UntrainedEnsemble("base ensemble has no trained scorers")
    tensors = sample_tensors(samples)
    cols = []
    for scorer in ensemble.scorers:
        if tuple(scorer.input_geometry) != tensors.shape[1:]:
            raise GeometryMismatch(f"scorer expects {scorer.input_geometry}, inputs are {tensors.shape[1:]}")
        _, _, scores_fn = _KIND_FNS[scorer.kind]
        cols.append(scores_fn(scorer.params, _prepare_inputs(scorer.kind, tensors)))
    return np.stack(cols, axis=1)


def write_training_curves_csv(ensemble: BaseEnsemble, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "epoch", "loss"])
        for i, scorer in enumerate(ensemble.scorers):
            for epoch, loss in enumerate(scorer.training_meta.get("loss_curve", [])):
                writer.writerow([i, epoch, repr(loss)])
