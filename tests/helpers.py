"""Shared fixture builders and independent oracles for the test suite.

The oracles here are deliberately written definition-first (plain loops,
exhaustive enumeration) and never call the implementation paths they
check.
"""

from __future__ import annotations

import csv
import io
import itertools
import struct
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from osnids import clustering, learners, meta, trees
from osnids.capture import (
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    FLOW_COLUMNS,
    IPPROTO_TCP,
    IPPROTO_UDP,
    LINKTYPE_ETHERNET,
    MAGIC_NSEC,
    MAGIC_USEC,
    MAX_SNAPLEN,
    TCP,
    UDP,
    RawPacketRecord,
    read_flow_csv,
)
from osnids.config import DEFAULT_COLUMN_MAP
from osnids.errors import BadMagic, CountMismatch, TruncatedHeader, UnreadableFile
from osnids.samples import IMAGE_SHAPE

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


def vlan_tagged(frame: bytes, tpids) -> bytes:
    """`frame` with one 802.1Q/802.1ad tag per TPID inserted after the MAC
    addresses, outermost first."""
    tags = b"".join(struct.pack(">HH", tpid, 100 + i) for i, tpid in enumerate(tpids))
    return frame[:12] + tags + frame[12:]


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


def tsne_oracle(X, params, dtype=np.float64):
    """Exact t-SNE with fresh n x n temporaries every iteration and the KL
    trace always computed. The affinities are float64; the joint P and the
    descent are in `dtype`, with step size n / early_exaggeration, and KL
    sums in float64. float64 is the loop as first written, the reference
    for the float32 one; float32 forms 1 + |y_i - y_j|^2 from the one product
    [y, |y|^2, 1] @ [-2y, 1, 1 + |y|^2].T and divides each column into its
    own diagonal. Only the perplexity bisection comes from `clustering`.
    Returns (Y, kl_trace), Y in `dtype`."""

    def sqdist(Z):
        sq = np.sum(Z * Z, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2, 0.0)
        return d2

    def student_t(Z):
        if Z.dtype == np.float64:
            num = 1.0 / (1.0 + sqdist(Z))
        else:
            sq = np.sum(Z * Z, axis=1)
            one = np.ones_like(sq)
            one_plus_d2 = np.column_stack([Z, sq, one]) @ np.column_stack([-2.0 * Z, one, one + sq]).T
            diag = one_plus_d2.diagonal().copy()
            num = diag / np.maximum(one_plus_d2, diag)
        np.fill_diagonal(num, 0.0)
        return num

    def kl(P, Q):
        mask = P > 0
        p, q = P[mask].astype(np.float64), Q[mask].astype(np.float64)
        return float(np.sum(p * np.log(p / np.maximum(q, 1e-12))))

    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    cond = clustering._conditional_affinities(sqdist(X), params.perplexity)
    P = ((cond + cond.T) / (2.0 * n)).astype(dtype)
    rng = np.random.default_rng(params.seed)
    Y = (rng.standard_normal((n, 2)) * 1e-4).astype(dtype)
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    kl_trace = []
    for it in range(params.iterations):
        exaggerating = it < clustering.EXAGGERATION_ITERS
        P_eff = P * params.early_exaggeration if exaggerating else P
        momentum = clustering.MOMENTUM_EARLY if it < clustering.MOMENTUM_SWITCH_ITER else clustering.MOMENTUM_LATE
        num = student_t(Y)
        Q = num / num.sum()
        PQn = (P_eff - Q) * num
        grad = 4.0 * (PQn.sum(axis=1)[:, None] * Y - PQn @ Y)
        inc = (grad > 0) != (velocity > 0)
        gains[inc] += 0.2
        gains[~inc] *= 0.8
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - n / params.early_exaggeration * (gains * grad)
        Y += velocity
        Y -= Y.mean(axis=0)
        if not exaggerating and (it + 1 - clustering.EXAGGERATION_ITERS) % 50 == 0:
            num = student_t(Y)
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


@dataclass
class OracleParse:
    packets: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)

    def _skip(self, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + 1


def parse_oracle(path) -> OracleParse:
    """The per-packet pcap decoder that `capture.parse_capture` replaced:
    one record read, one frame decoded and one `RawPacketRecord` built at a
    time. Its records, skip counts and exception classes are the spec."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise UnreadableFile(f"cannot open capture {path}: {exc}") from exc

    with fh:
        head = fh.read(4)
        if len(head) < 4:
            raise TruncatedHeader(f"{path}: global header shorter than 24 bytes")
        (magic_be,) = struct.unpack(">I", head)
        (magic_le,) = struct.unpack("<I", head)
        if magic_be in (MAGIC_USEC, MAGIC_NSEC):
            endian = ">"
            frac_div = 1e6 if magic_be == MAGIC_USEC else 1e9
        elif magic_le in (MAGIC_USEC, MAGIC_NSEC):
            endian = "<"
            frac_div = 1e6 if magic_le == MAGIC_USEC else 1e9
        else:
            raise BadMagic(f"{path}: magic 0x{magic_be:08x} is not a pcap header")

        rest = fh.read(20)
        if len(rest) < 20:
            raise TruncatedHeader(f"{path}: global header shorter than 24 bytes")
        _vmaj, _vmin, _zone, _sigfigs, snaplen, network = struct.unpack(endian + "HHiIII", rest)
        if network != LINKTYPE_ETHERNET:
            raise BadMagic(f"{path}: unsupported link type {network} (only Ethernet is read)")
        if snaplen == 0 or snaplen > MAX_SNAPLEN:
            snaplen = MAX_SNAPLEN

        result = OracleParse()
        rec_hdr = struct.Struct(endian + "IIII")
        while True:
            hdr = fh.read(16)
            if not hdr:
                break
            if len(hdr) < 16:
                raise TruncatedHeader(f"{path}: record header truncated at packet {len(result.packets)}")
            ts_sec, ts_frac, incl_len, _orig_len = rec_hdr.unpack(hdr)
            if incl_len > snaplen:
                raise CountMismatch(
                    f"{path}: packet {len(result.packets)} declares {incl_len} bytes, above snaplen {snaplen}"
                )
            data = fh.read(incl_len)
            if len(data) < incl_len:
                raise TruncatedHeader(f"{path}: record data truncated (declared {incl_len}, got {len(data)})")
            packet = _oracle_ethernet(float(ts_sec) + ts_frac / frac_div, data, result)
            if packet is not None:
                result.packets.append(packet)
        return result


def _oracle_ethernet(timestamp: float, data: bytes, result: OracleParse):
    if len(data) < 14:
        return result._skip("malformed")
    offset = 12
    (ethertype,) = struct.unpack_from(">H", data, offset)
    offset += 2
    while ethertype in ETHERTYPE_VLAN:
        if len(data) < offset + 4:
            return result._skip("malformed")
        (ethertype,) = struct.unpack_from(">H", data, offset + 2)
        offset += 4
    if ethertype != ETHERTYPE_IPV4:
        return result._skip("non_ip")
    return _oracle_ipv4(timestamp, data[offset:], result)


def _oracle_ipv4(timestamp: float, data: bytes, result: OracleParse):
    if len(data) < 20:
        return result._skip("malformed")
    version_ihl = data[0]
    if version_ihl >> 4 != 4:
        return result._skip("malformed")
    ihl = (version_ihl & 0x0F) * 4
    total_len = struct.unpack_from(">H", data, 2)[0]
    flags_frag = struct.unpack_from(">H", data, 6)[0]
    proto = data[9]
    if ihl < 20 or total_len < ihl:
        return result._skip("malformed")
    if len(data) < total_len:
        # snaplen-truncated capture: declared IP length not present
        return result._skip("malformed")
    if flags_frag & 0x1FFF:
        return result._skip("fragment")
    if proto not in (IPPROTO_TCP, IPPROTO_UDP):
        return result._skip("non_tcp_udp")

    src_ip = "%d.%d.%d.%d" % tuple(data[12:16])
    dst_ip = "%d.%d.%d.%d" % tuple(data[16:20])
    segment = data[ihl:total_len]

    if proto == IPPROTO_TCP:
        if len(segment) < 20:
            return result._skip("malformed")
        src_port, dst_port = struct.unpack_from(">HH", segment, 0)
        data_off = (segment[12] >> 4) * 4
        if data_off < 20 or data_off > len(segment):
            return result._skip("malformed")
        return RawPacketRecord(timestamp, src_ip, dst_ip, src_port, dst_port, TCP, segment[data_off:])

    if len(segment) < 8:
        return result._skip("malformed")
    src_port, dst_port, udp_len = struct.unpack_from(">HHH", segment, 0)
    if udp_len < 8 or udp_len != len(segment):
        return result._skip("malformed")
    return RawPacketRecord(timestamp, src_ip, dst_ip, src_port, dst_port, UDP, segment[8:])


def flow_table(directory, flows):
    """Per-flow tuples (src_ip, src_port, dst_ip, dst_port, protocol, start,
    duration, label) written as a flow CSV under the default header, then
    read back as `read_flow_csv`'s record array."""
    path = Path(directory) / "flow_table.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DEFAULT_COLUMN_MAP[c] for c in FLOW_COLUMNS)
        writer.writerows(flows)  # a float prints as its shortest round-trip repr
    return read_flow_csv(path, DEFAULT_COLUMN_MAP)


def join_oracle(packets, flows, benign_label="BENIGN"):
    """Label every packet by scanning all flows, given as `flow_table`'s
    tuples; mirrors the stated rule (bidirectional match, window
    containment, earliest start) with no indexing shortcuts. Returns
    per-packet label names or None."""
    out = []
    for p in packets:
        endpoints = {(p.src_ip, p.src_port), (p.dst_ip, p.dst_port)}
        matches = []
        for i, (src_ip, src_port, dst_ip, dst_port, protocol, start, duration, label) in enumerate(flows):
            if protocol != p.protocol:
                continue
            if {(src_ip, src_port), (dst_ip, dst_port)} != endpoints:
                continue
            matches.append((i, start, duration, label))
        if not matches:
            out.append(None)
            continue
        contained = [m for m in matches if m[1] <= p.timestamp <= m[1] + m[2]]
        pool = contained if contained else matches
        best = min(pool, key=lambda m: (m[1], m[0]))
        out.append(best[3])
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


def lloyd_oracle(P: np.ndarray, centroids: np.ndarray, max_iter: int = 300):
    """Lloyd's algorithm as first written, distances from the full (n, k, dim)
    difference cube, with the same empty-cluster repair. Returns
    (assignments, centroids, sse_trace)."""
    k = centroids.shape[0]
    centroids = centroids.copy()
    assignments = np.full(P.shape[0], -1, dtype=np.int64)
    trace = []
    for _ in range(max_iter):
        d2 = np.sum((P[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(d2, axis=1)
        dist_to_own = d2[np.arange(P.shape[0]), new_assign]
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
    return assignments, centroids, trace


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
    init, grad_of, scores = learners._KIND_FNS[kind]
    rng = np.random.default_rng(1000 + seed)
    X = rng.random((8, 1500))
    y = rng.integers(0, 2, 8).astype(float)
    y[0], y[1] = 0, 1
    weights = np.where(y == 1, 1.5, 0.75)
    params = init(seed) + rng.normal(0, 0.05, init(seed).shape)
    l2 = 1e-4
    grad = grad_of(params, X, y, weights, l2)

    def loss(theta):
        return learners._loss(kind, theta, scores(theta, X), y, weights, l2)

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
        fd = (loss(plus) - loss(minus)) / (2 * h)
        worst = max(worst, abs(fd - grad[c]) / max(abs(fd), abs(grad[c]), 1e-8))
        checked += 1
    return worst


# --- base-scorer training oracles ---
# The training loop as it was before the epoch-end loss became forward-only
# and before the layer-1 input gradient was dropped: every epoch ends with
# a full forward and backward pass over the data, and the backward pass
# of both convolutions computes an input gradient.


def conv_backward_oracle(dout, cols, W, x_shape):
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


def logistic_loss_and_grad_oracle(params, X, y, weights, l2):
    w, b = params[:-1], params[-1]
    p = learners._sigmoid(X @ w + b)
    wsum = weights.sum()
    loss = learners._weighted_bce(p, y, weights) + 0.5 * l2 * float(w @ w)
    dz = weights * (p - y) / wsum
    grad = np.concatenate([X.T @ dz + l2 * w, [dz.sum()]])
    return loss, grad


def convnet_loss_and_grad_oracle(params, X, y, weights, l2):
    p, cache = learners._convnet_forward(params, X)
    t, cols1, z1, a1, cols2, z2, a2, idx, flat = cache
    wsum = weights.sum()
    loss = learners._weighted_bce(p, y, weights)
    for name in ("W1", "W2", "Wd"):
        loss += 0.5 * l2 * float(np.sum(t[name] ** 2))

    dlogit = weights * (p - y) / wsum
    dWd = flat.T @ dlogit + l2 * t["Wd"]
    dbd = np.array([dlogit.sum()])
    dflat = np.outer(dlogit, t["Wd"])
    dpooled = dflat.reshape(X.shape[0], learners._HP, learners._WP, learners._C2_OUT)
    da2 = learners._pool_backward(dpooled, idx, a2.shape)
    dz2 = da2 * (z2 > 0)
    da1, dW2, db2 = conv_backward_oracle(dz2, cols2, t["W2"], a1.shape)
    dW2 += l2 * t["W2"]
    dz1 = da1 * (z1 > 0)
    _, dW1, db1 = conv_backward_oracle(dz1, cols1, t["W1"], (X.shape[0], *IMAGE_SHAPE))
    dW1 += l2 * t["W1"]

    grad = learners._pack({"W1": dW1, "b1": db1, "W2": dW2, "b2": db2, "Wd": dWd, "bd": dbd})
    return loss, grad


LOSS_AND_GRAD_ORACLES = {
    learners.LOGISTIC: logistic_loss_and_grad_oracle,
    learners.CONVNET: convnet_loss_and_grad_oracle,
}


def train_scorer_oracle(X, y, kind, config):
    """(params, loss curve) of the old `train_scorer` loop."""
    init = learners._KIND_FNS[kind][0]
    loss_and_grad = LOSS_AND_GRAD_ORACLES[kind]
    n = X.shape[0]
    n_pos = int(y.sum())
    weights = np.where(y == 1, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
    params = init(config.seed)
    rng = np.random.default_rng(config.seed)
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, grad = loss_and_grad(params, X[idx], y[idx], weights[idx], config.l2)
            params = params - config.learning_rate * grad
        epoch_loss, _ = loss_and_grad(params, X, y, weights, config.l2)
        losses.append(float(epoch_loss))
    return params, losses


# --- serving-path oracles ---
# The serving path as first written: one whole-batch pass of every scorer,
# every row through every tree, and the verdict CSV as `csv.writer` rows of
# `Verdict` objects. Block scoring, distinct-row routing and the column-wise
# CSV must reproduce these bytes exactly.


def pool_forward_oracle(x):
    """2x2 max-pool by `argmax` over the transposed window view."""
    B, H, W, C = x.shape
    Hp, Wp = H // 2, W // 2
    x = x[:, : Hp * 2, : Wp * 2, :]
    win = x.reshape(B, Hp, 2, Wp, 2, C).transpose(0, 1, 3, 2, 4, 5).reshape(B, Hp, Wp, 4, C)
    idx = win.argmax(axis=3)
    out = np.take_along_axis(win, idx[:, :, :, None, :], axis=3).squeeze(axis=3)
    return out, idx


def pool_backward_oracle(dout, idx, x_shape):
    """Scatter each window's gradient to its max slot by `put_along_axis`."""
    B, H, W, C = x_shape
    Hp, Wp = H // 2, W // 2
    dwin = np.zeros((B, Hp, Wp, 4, C))
    np.put_along_axis(dwin, idx[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
    dx = np.zeros(x_shape)
    dx[:, : Hp * 2, : Wp * 2, :] = (
        dwin.reshape(B, Hp, Wp, 2, 2, C).transpose(0, 1, 3, 2, 4, 5).reshape(B, Hp * 2, Wp * 2, C)
    )
    return dx


def image_tensor_oracle(features) -> np.ndarray:
    """One 1500-byte payload as the paper's 20 x 25 RGB image scaled into [0, 1],
    by the index formula itself: channel (r, c, k) holds features[3 * (25 * r + c) + k] / 255."""
    image = np.empty((20, 25, 3))
    for r in range(20):
        for c in range(25):
            for k in range(3):
                image[r, c, k] = float(features[3 * (25 * r + c) + k]) / 255.0
    return image


def meta_feature_oracle(ensemble, samples):
    """Every scorer over the whole batch's tensors in one pass: (n, N)."""
    tensors = learners.sample_tensors(samples)
    cols = []
    for scorer in ensemble.scorers:
        if scorer.kind == learners.LOGISTIC:
            cols.append(learners.logistic_scores(scorer.params, tensors))
        else:
            cols.append(learners._convnet_forward(scorer.params, tensors)[0])
    return np.stack(cols, axis=1)


def predict_tree_oracle(nodes, X):
    """Route every row of X through one tree; returns the leaf values."""
    idx = np.zeros(X.shape[0], dtype=np.int64)
    active = nodes.feature[idx] >= 0
    while active.any():
        rows = np.flatnonzero(active)
        node = idx[rows]
        go_left = X[rows, nodes.feature[node]] <= nodes.threshold[node]
        idx[rows] = np.where(go_left, nodes.left[node], nodes.right[node])
        active = nodes.feature[idx] >= 0
    return nodes.value[idx]


def forest_proba_oracle(forest, X):
    total = np.zeros(X.shape[0])
    for tree in forest.trees:  # tree by tree, for a batch of one row too
        total = total + predict_tree_oracle(tree, X)
    return total / len(forest.trees)


def boost_proba_oracle(model, X):
    F = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        F = F + model.learning_rate * predict_tree_oracle(tree, X)
    return 1.0 / (1.0 + np.exp(-F))


def boost_fit_oracle(model, X, y):
    """`model` fitted with F updated by routing the training rows through
    each new tree, not from the leaf values the grower recorded."""
    prior = float(np.clip(y.mean(), 1e-6, 1.0 - 1e-6))
    model.base_score = float(np.log(prior / (1.0 - prior)))
    F = np.full(X.shape[0], model.base_score)
    grown = []
    for _ in range(model.rounds):
        p = 1.0 / (1.0 + np.exp(-F))
        g, h = p - y, np.maximum(p * (1.0 - p), 1e-12)
        if model.growth == "depthwise":
            tree, _ = trees.build_tree(X, g, h, model.max_depth, trees.BOOST_LAMBDA)
        else:
            tree, _ = trees.build_boost_tree_leafwise(X, g, h, model.max_leaves)
        grown.append(tree)
        F = F + model.learning_rate * predict_tree_oracle(tree, X)
    return model.store(grown)


def verdict_csv_oracle(mf, verdicts) -> bytes:
    """The audit CSV's bytes from `csv.writer`, one `Verdict` at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", *(f"p_{i + 1}" for i in range(mf.shape[1]))]
                    + [f"O_{i + 1}" for i in range(meta.VOTE_ARITY)] + ["v", "decision"])
    for i, (p, v) in enumerate(zip(mf.tolist(), verdicts)):
        writer.writerow([i, *map(repr, p), *v.outputs, repr(v.v), v.decision])
    return buf.getvalue().encode("utf-8")
