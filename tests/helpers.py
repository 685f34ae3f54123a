"""Shared fixture builders and independent oracles for the test suite.

The oracles here are deliberately written definition-first (plain loops,
exhaustive enumeration) and never call the implementation paths they
check.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np

from osnids import clustering, learners

# --- pcap fixture construction ---

PCAP_MAGIC_USEC = 0xA1B2C3D4
PCAP_MAGIC_NSEC = 0xA1B23C4D


def ipv4_packet(
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    protocol: str,
    payload: bytes,
    frag_offset: int = 0,
) -> bytes:
    """Ethernet II frame carrying an IPv4 TCP or UDP segment."""
    if protocol == "TCP":
        transport = struct.pack(">HHIIBBHHH", src_port, dst_port, 0, 0, 5 << 4, 0x18, 8192, 0, 0)
        transport += payload
        proto_num = 6
    else:
        transport = struct.pack(">HHHH", src_port, dst_port, 8 + len(payload), 0) + payload
        proto_num = 17
    total_len = 20 + len(transport)
    src = bytes(int(b) for b in src_ip.split("."))
    dst = bytes(int(b) for b in dst_ip.split("."))
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        (4 << 4) | 5,
        0,
        total_len,
        0,
        frag_offset & 0x1FFF,
        64,
        proto_num,
        0,
        src,
        dst,
    )
    eth = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", 0x0800)
    return eth + ip + transport


def arp_frame() -> bytes:
    eth = b"\xff" * 6 + b"\xbb" * 6 + struct.pack(">H", 0x0806)
    return eth + b"\x00" * 28


def build_pcap(
    frames,
    timestamps=None,
    magic: int = PCAP_MAGIC_USEC,
    little_endian: bool = True,
    linktype: int = 1,
    snaplen: int = 65535,
) -> bytes:
    endian = "<" if little_endian else ">"
    out = struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, snaplen, linktype)
    frac_scale = 1_000_000 if magic == PCAP_MAGIC_USEC else 1_000_000_000
    for i, frame in enumerate(frames):
        ts = timestamps[i] if timestamps is not None else float(i)
        sec = int(ts)
        frac = int(round((ts - sec) * frac_scale))
        out += struct.pack(endian + "IIII", sec, frac, len(frame), len(frame))
        out += frame
    return out


# --- hostile model bundles ---


def rewrite_parameter_file(path, mutate) -> None:
    """Replace a bundle parameter file's payload by `mutate(payload)`, with
    the length and CRC32 recomputed so only the decoder can object."""
    path = Path(path)
    payload = mutate(path.read_bytes()[4:-4])
    path.write_bytes(struct.pack("<I", len(payload)) + payload + struct.pack("<I", zlib.crc32(payload)))


def _declare_count(payload: bytes, count: int) -> bytes:
    # bytes 1-4 hold a scorer's value count or a forest's tree count
    return payload[:1] + struct.pack("<I", count) + payload[5:]


def _cycle_first_tree(payload: bytes) -> bytes:
    """Point both children of a boosted family's first root back at it."""
    (n,) = struct.unpack_from("<I", payload, 21)  # after tag, base score, rate, tree count
    assert struct.unpack_from("<i", payload, 25)[0] >= 0, "the first root must be a split"
    out = bytearray(payload)
    for offset in (25 + 12 * n, 25 + 16 * n):  # left[0], right[0]
        out[offset : offset + 4] = struct.pack("<i", 0)
    return bytes(out)


def _nan_first_coefficient(payload: bytes) -> bytes:
    # bytes 5-12 hold the first value, after the tag and the value count
    return payload[:5] + struct.pack("<d", float("nan")) + payload[13:]


def _inf_first_threshold(payload: bytes) -> bytes:
    """Set a forest's first root threshold to +inf."""
    (n,) = struct.unpack_from("<I", payload, 5)  # after tag and tree count
    at = 9 + 4 * n  # threshold[0] follows the n features
    return payload[:at] + struct.pack("<d", float("inf")) + payload[at + 8 :]


# name -> (parameter file, payload mutation); each must load as ManifestInvalid
HOSTILE_PARAMETER_FILES = {
    "scorer_declares_1e6_floats": ("base_000.bin", lambda p: _declare_count(p, 10**6)),
    "forest_declares_1e6_trees": ("meta_random_forest.bin", lambda p: _declare_count(p, 10**6)),
    "boosted_tree_cycle": ("meta_boost_depthwise.bin", _cycle_first_tree),
    "meta_logistic_nan_coefficient": ("meta_logistic.bin", _nan_first_coefficient),
    "forest_inf_threshold": ("meta_random_forest.bin", _inf_first_threshold),
}


# --- brute-force oracles ---


def sset_oracle(blob: bytes):
    """Decode a `.sset` file record by record with `struct`, independently
    of the loader. Returns (class_names, features list, labels, clusters)."""
    assert blob[:7] == b"OSNIDS1"
    version, n_classes = struct.unpack_from("<HH", blob, 7)
    assert version == 1
    pos = 11
    names = []
    for _ in range(n_classes):
        (length,) = struct.unpack_from("<H", blob, pos)
        names.append(blob[pos + 2 : pos + 2 + length].decode("utf-8"))
        pos += 2 + length
    (count,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    record = struct.Struct("<1500sHh")
    features, labels, clusters = [], [], []
    for _ in range(count):
        raw, label, cluster = record.unpack_from(blob, pos)
        pos += record.size
        features.append(np.frombuffer(raw, dtype=np.uint8))
        labels.append(label)
        clusters.append(cluster)
    assert pos == len(blob)
    return names, features, labels, clusters


def split_oracle(X, g, h, reg_lambda, feature_ids):
    """Best (gain, feature, threshold) by the second-order gain, on a node's
    own rows: each candidate feature is argsorted afresh, and features are
    scanned one by one. The split finder before the per-fit presort; the
    presorted finder must return exactly the same triple."""
    G, H = g.sum(), h.sum()
    parent = G * G / (H + reg_lambda)
    best = None
    for f in feature_ids:
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        valid = np.flatnonzero(xs[:-1] < xs[1:])
        if valid.size == 0:
            continue
        G_l = np.cumsum(g[order])[valid]
        H_l = np.cumsum(h[order])[valid]
        gain = 0.5 * (
            G_l**2 / (H_l + reg_lambda) + (G - G_l) ** 2 / (H - H_l + reg_lambda) - parent
        )
        j = int(np.argmax(gain))
        if gain[j] > 1e-12 and (best is None or gain[j] > best[0]):
            thr = (xs[valid[j]] + xs[valid[j] + 1]) / 2.0
            best = (float(gain[j]), int(f), float(thr))
    return best


def tsne_oracle(X, params):
    """Exact t-SNE with the optimisation loop as first written: fresh n x n
    temporaries every iteration and the KL trace always computed. Only the
    perplexity bisection comes from `clustering`. Returns (Y, kl_trace)."""

    def sqdist(Z):
        sq = np.sum(Z * Z, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2, 0.0)
        return d2

    def kl(P, Q):
        mask = P > 0
        return float(np.sum(P[mask] * np.log(P[mask] / np.maximum(Q[mask], 1e-12))))

    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    cond = clustering._conditional_affinities(sqdist(X), params.perplexity)
    P = (cond + cond.T) / (2.0 * n)
    rng = np.random.default_rng(params.seed)
    Y = rng.standard_normal((n, 2)) * 1e-4
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    kl_trace = []
    for it in range(params.iterations):
        exaggerating = it < params.exaggeration_iters
        P_eff = P * params.early_exaggeration if exaggerating else P
        momentum = params.momentum_early if it < params.momentum_switch_iter else params.momentum_late
        num = 1.0 / (1.0 + sqdist(Y))
        np.fill_diagonal(num, 0.0)
        Q = num / num.sum()
        PQn = (P_eff - Q) * num
        grad = 4.0 * (PQn.sum(axis=1)[:, None] * Y - PQn @ Y)
        inc = (grad > 0) != (velocity > 0)
        gains[inc] += 0.2
        gains[~inc] *= 0.8
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - params.learning_rate * (gains * grad)
        Y += velocity
        Y -= Y.mean(axis=0)
        if not exaggerating and (it + 1 - params.exaggeration_iters) % 50 == 0:
            num = 1.0 / (1.0 + sqdist(Y))
            np.fill_diagonal(num, 0.0)
            kl_trace.append(kl(P, num / num.sum()))
    return Y, kl_trace


def gini_split_oracle(X, y, feature_ids):
    """Best (impurity decrease, feature, threshold) over candidate features,
    by the Gini impurity formula itself."""
    n = y.shape[0]
    pos = y.sum()
    p1 = pos / n
    parent = 1.0 - p1 * p1 - (1.0 - p1) ** 2
    best = None
    for f in feature_ids:
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        valid = np.flatnonzero(xs[:-1] < xs[1:])
        if valid.size == 0:
            continue
        pos_l = np.cumsum(y[order])[valid]
        n_l = valid + 1.0
        n_r = n - n_l
        pos_r = pos - pos_l
        gini_l = 1.0 - (pos_l / n_l) ** 2 - ((n_l - pos_l) / n_l) ** 2
        gini_r = 1.0 - (pos_r / n_r) ** 2 - ((n_r - pos_r) / n_r) ** 2
        decrease = parent - (n_l * gini_l + n_r * gini_r) / n
        j = int(np.argmax(decrease))
        if decrease[j] > 1e-12 and (best is None or decrease[j] > best[0]):
            thr = (xs[valid[j]] + xs[valid[j] + 1]) / 2.0
            best = (float(decrease[j]), int(f), float(thr))
    return best


def gini_tree_oracle(X, y, max_depth, rng, max_features):
    """Gini CART, depth-first: leaves hold the class-1 fraction, pure nodes
    are leaves, and each split draws its candidate features from `rng`.
    Returns the node arrays (feature, threshold, left, right, value)."""
    n_features = X.shape[1]
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(idx, depth):
        ysub = y[idx]
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(ysub.mean()))
        if depth >= max_depth or idx.size < 2 or value[node] in (0.0, 1.0):
            return node
        if max_features < n_features:
            feats = np.sort(rng.choice(n_features, size=max_features, replace=False))
        else:
            feats = np.arange(n_features)
        best = gini_split_oracle(X[idx], ysub, feats)
        if best is None:
            return node
        _, f, thr = best
        go_left = X[idx, f] <= thr
        feature[node], threshold[node], value[node] = f, thr, 0.0
        left[node] = grow(idx[go_left], depth + 1)
        right[node] = grow(idx[~go_left], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return (
        np.array(feature, dtype=np.int32),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int32),
        np.array(right, dtype=np.int32),
        np.array(value, dtype=np.float64),
    )


def gini_best_splits(X, y, feature_ids) -> set:
    """Every (feature, threshold) whose Gini impurity decrease, in exact
    rational arithmetic, is the largest positive one; empty when no split
    decreases impurity. Thresholds are midpoints of adjacent distinct values."""
    y = y.astype(np.int64)
    n, pos = y.size, int(y.sum())
    best, found = Fraction(pos * pos, n), set()
    for f in feature_ids:
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = float((lo + hi) / 2.0)
            left = X[:, f] <= thr
            n_l, pos_l = int(left.sum()), int(y[left].sum())
            # the decrease is (2 / n) * (score - pos^2 / n)
            score = Fraction(pos_l * pos_l, n_l) + Fraction((pos - pos_l) ** 2, n - n_l)
            if score > best:
                best, found = score, {(int(f), thr)}
            elif score == best and found:
                found.add((int(f), thr))
    return found


def join_oracle(packets, flows, benign_label="BENIGN"):
    """Label every packet by scanning all flows; mirrors the stated rule
    (bidirectional match, window containment, earliest start) with no
    indexing shortcuts. Returns per-packet label names or None."""
    out = []
    for p in packets:
        endpoints = {(p.src_ip, p.src_port), (p.dst_ip, p.dst_port)}
        matches = []
        for i, f in enumerate(flows):
            if f.protocol != p.protocol:
                continue
            fwd = (f.src_ip, f.src_port)
            rev = (f.dst_ip, f.dst_port)
            if {fwd, rev} != endpoints:
                continue
            matches.append((i, f))
        if not matches:
            out.append(None)
            continue
        contained = [
            (i, f) for i, f in matches if f.start_time <= p.timestamp <= f.start_time + f.duration
        ]
        pool = contained if contained else matches
        best = min(pool, key=lambda item: (item[1].start_time, item[0]))
        out.append(best[1].label)
    return out


def dedup_oracle(samples):
    """O(n^2) pairwise scan keeping first occurrences; returns row indices."""
    kept = []
    for i, s in enumerate(samples):
        duplicate = False
        for j in kept:
            t = samples[j]
            if s.label == t.label and np.array_equal(s.features, t.features):
                duplicate = True
                break
        if not duplicate:
            kept.append(i)
    return kept


def kmeans_partition_oracle(P: np.ndarray, k: int) -> float:
    """Exact optimum of the k-means objective by enumerating every
    assignment of points to at most k groups."""
    n = P.shape[0]
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        sse = 0.0
        for c in set(labels):
            members = P[[i for i in range(n) if labels[i] == c]]
            centroid = members.mean(axis=0)
            sse += float(((members - centroid) ** 2).sum())
        best = min(best, sse)
    return best


def silhouette_oracle(P: np.ndarray, assignments) -> float:
    """Definition-level silhouette with explicit loops."""
    n = len(P)
    labels = sorted(set(int(a) for a in assignments))
    total = 0.0
    for i in range(n):
        own = assignments[i]
        same = [j for j in range(n) if assignments[j] == own and j != i]
        if not same:
            continue  # singleton scores 0
        a = sum(float(np.linalg.norm(P[i] - P[j])) for j in same) / len(same)
        b = np.inf
        for c in labels:
            if c == own:
                continue
            others = [j for j in range(n) if assignments[j] == c]
            b = min(b, sum(float(np.linalg.norm(P[i] - P[j])) for j in others) / len(others))
        if max(a, b) > 0:
            total += (b - a) / max(a, b)
    return total / n


# --- finite-difference gradient checking ---


def _convnet_pattern(params, X):
    _, cache = learners._convnet_forward(params, X)
    _, _, z1, _, _, z2, _, idx, _ = cache
    return (z1 > 0).tobytes(), (z2 > 0).tobytes(), idx.tobytes()


def gradient_check(kind: str, seed: int, n_coords: int = 20, h: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients
    over `n_coords` random coordinates.

    Coordinates whose probe interval [theta-h, theta+h] flips a ReLU sign
    or a pool argmax are skipped: central differences are not a derivative
    oracle across a nondifferentiable point.
    """
    init, loss_and_grad, _ = learners._KIND_FNS[kind]
    rng = np.random.default_rng(1000 + seed)
    X = rng.random((8, 20, 25, 3))
    Xp = learners._prepare_inputs(kind, X)
    y = rng.integers(0, 2, 8).astype(float)
    y[0], y[1] = 0, 1
    weights = np.where(y == 1, 1.5, 0.75)
    params = init(seed) + rng.normal(0, 0.05, init(seed).shape)
    l2 = 1e-4
    _, grad = loss_and_grad(params, Xp, y, weights, l2)

    base_pattern = _convnet_pattern(params, X) if kind == learners.CONVNET else None
    worst, checked, tried = 0.0, 0, 0
    while checked < n_coords:
        tried += 1
        assert tried < 500, "could not find enough smooth coordinates"
        c = int(rng.integers(params.size))
        plus = params.copy()
        plus[c] += h
        minus = params.copy()
        minus[c] -= h
        if kind == learners.CONVNET:
            if _convnet_pattern(plus, X) != base_pattern or _convnet_pattern(minus, X) != base_pattern:
                continue
        lp, _ = loss_and_grad(plus, Xp, y, weights, l2)
        lm, _ = loss_and_grad(minus, Xp, y, weights, l2)
        fd = (lp - lm) / (2 * h)
        worst = max(worst, abs(fd - grad[c]) / max(abs(fd), abs(grad[c]), 1e-8))
        checked += 1
    return worst
