"""Shared fixture builders and independent oracles for the test suite.

The oracles here are deliberately written definition-first (plain loops,
exhaustive enumeration) and never call the implementation paths they
check.
"""

from __future__ import annotations

import itertools
import struct

import numpy as np

from osnids import learners

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
