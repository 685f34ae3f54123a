"""Seeded corpora for the benchmark, and writers for the files the program reads.

Everything here is written from the file-format descriptions, not from the
program's own code, so the benchmark can check the program against it:

* a classic little-endian pcap with Ethernet frames (IPv4 TCP/UDP carrying
  the payloads, plus ARP, ICMP, unmatched and empty-payload frames that
  ingest must skip or count);
* a flow CSV in the default column naming;
* the `.sset` sample-set format, both ways.

A corpus is a set of byte templates of varying length (zero padded to 1500
bytes). Benign and known-attack templates are random; each unknown-attack
class is a benign template whose rows each have `mutated_share` of its
bytes changed, so unknown attacks sit close to benign traffic. Rows are a
template plus Gaussian byte noise over the template's length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

FEATURE_LEN = 1500
BENIGN_LABEL = "BENIGN"
FLOW_HEADER = ["Src IP", "Src Port", "Dst IP", "Dst Port", "Protocol", "Timestamp", "Flow Duration", "Label"]

PCAP_MAGIC_USEC = 0xA1B2C3D4
T0 = 1_600_000_000  # capture start, seconds since the epoch
SNAPLEN = 65535
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETH_SRC = b"\x02\x00\x00\x00\x00\x01"
ETH_DST = b"\x02\x00\x00\x00\x00\x02"

SSET_MAGIC = b"OSNIDS1"
SSET_RECORD = np.dtype([("f", "u1", FEATURE_LEN), ("label", "<u2"), ("cluster", "<i2")])


@dataclass(frozen=True)
class CorpusSpec:
    benign_templates: int = 7
    known_classes: int = 9
    unknown_classes: int = 7  # one per benign template, so every template is mutated
    benign_per_template: int = 400  # distinct benign rows per template
    attack_per_class: int = 175  # distinct rows per attack class
    mutated_share: float = 0.8  # share of its parent's bytes each unknown-attack row changes
    min_len: int = 700
    max_len: int = 1500
    noise_sigma: float = 8.0
    benign_copies: int = 4  # each benign payload is sent this many times
    attack_dup_every: int = 10  # every n-th attack payload is sent twice
    flow_packets: int = 8  # packets per flow (the last flow of a class may be shorter)
    undersample_ratio: float = 0.5
    non_ip_frames: int = 50
    icmp_frames: int = 30
    unmatched_frames: int = 60
    empty_frames: int = 40

    @property
    def known_names(self) -> list[str]:
        return [f"known_{i:02d}" for i in range(self.known_classes)]

    @property
    def unknown_names(self) -> list[str]:
        return [f"unknown_{i:02d}" for i in range(self.unknown_classes)]

    @property
    def class_names(self) -> list[str]:
        """Class table in the order ingest builds it: benign, then sorted attacks."""
        return [BENIGN_LABEL] + sorted(self.known_names + self.unknown_names)


@dataclass
class Templates:
    benign: np.ndarray  # (B, 1500) uint8, zero beyond each length
    known: np.ndarray
    benign_len: np.ndarray
    known_len: np.ndarray
    unknown_parent: np.ndarray  # the benign template each unknown class mutates


def _random_templates(rng, count, spec):
    """`count` random templates whose lengths are spread evenly over
    [min_len, max_len] in a seeded order, so every seed sees the same lengths."""
    lengths = rng.permutation(np.linspace(spec.min_len, spec.max_len, count).round().astype(np.int64))
    tpl = rng.integers(1, 256, size=(count, FEATURE_LEN), dtype=np.uint8)
    tpl[np.arange(FEATURE_LEN)[None, :] >= lengths[:, None]] = 0
    return tpl, lengths


def make_templates(rng: np.random.Generator, spec: CorpusSpec) -> Templates:
    benign, benign_len = _random_templates(rng, spec.benign_templates, spec)
    known, known_len = _random_templates(rng, spec.known_classes, spec)
    # parents at evenly spread length ranks, so every seed mutates the same share of bytes
    ranks = np.linspace(0, spec.benign_templates - 1, spec.unknown_classes).round().astype(np.int64)
    parent = np.argsort(benign_len, kind="stable")[ranks]
    return Templates(benign, known, benign_len, known_len, parent)


def noisy_rows(rng, template: np.ndarray, length: int, count: int, spec: CorpusSpec) -> np.ndarray:
    """`count` rows of template + N(0, sigma) noise over the template's length.

    A row is never all zero, because its first byte is forced non-zero.
    """
    noise = rng.normal(0.0, spec.noise_sigma, size=(count, FEATURE_LEN))
    rows = np.clip(np.rint(template.astype(np.float64)[None, :] + noise), 0, 255).astype(np.uint8)
    rows[:, length:] = 0
    rows[rows[:, 0] == 0, 0] = 1
    return rows


def mutated_rows(rng, template: np.ndarray, length: int, count: int, spec: CorpusSpec) -> np.ndarray:
    """Noisy rows of a benign template, each with `mutated_share` of the
    template's bytes (drawn afresh per row) changed to another value."""
    rows = noisy_rows(rng, template, length, count, spec)
    k = round(spec.mutated_share * length)
    pos = np.argsort(rng.random((count, length)), axis=1)[:, :k]
    shift = rng.integers(1, 256, size=pos.shape)
    picked = np.take_along_axis(rows, pos, axis=1).astype(np.int64)
    np.put_along_axis(rows, pos, ((picked + shift) % 256).astype(np.uint8), axis=1)
    rows[rows[:, 0] == 0, 0] = 1
    return rows


# --- ingest corpus: pcap + flow CSV ---


@dataclass
class IngestCorpus:
    spec: CorpusSpec
    templates: Templates
    rows: np.ndarray  # distinct payload rows, (n, 1500) uint8
    row_len: np.ndarray
    row_label: np.ndarray  # index into spec.class_names
    expected: dict  # the ingest report the program must write


def build_ingest_corpus(seed: int, spec: CorpusSpec) -> IngestCorpus:
    rng = np.random.default_rng(seed)
    tpl = make_templates(rng, spec)
    names = spec.class_names
    parts, lens, labels = [], [], []
    for t in range(spec.benign_templates):
        parts.append(noisy_rows(rng, tpl.benign[t], int(tpl.benign_len[t]), spec.benign_per_template, spec))
        lens.append(np.full(spec.benign_per_template, tpl.benign_len[t]))
        labels.append(np.zeros(spec.benign_per_template, dtype=np.int64))
    n = spec.attack_per_class
    for t, name in enumerate(spec.known_names):
        parts.append(noisy_rows(rng, tpl.known[t], int(tpl.known_len[t]), n, spec))
        lens.append(np.full(n, tpl.known_len[t]))
        labels.append(np.full(n, names.index(name)))
    for p, name in zip(tpl.unknown_parent, spec.unknown_names):
        parts.append(mutated_rows(rng, tpl.benign[p], int(tpl.benign_len[p]), n, spec))
        lens.append(np.full(n, tpl.benign_len[p]))
        labels.append(np.full(n, names.index(name)))
    rows, row_len, row_label = np.concatenate(parts), np.concatenate(lens), np.concatenate(labels)

    n_benign = int((row_label == 0).sum())
    n_attack = len(row_label) - n_benign
    cap = int(spec.undersample_ratio * n_attack + 1e-9)
    n_dups = spec.benign_copies * n_benign + n_attack + n_attack // spec.attack_dup_every
    expected = {
        "packets": n_dups + spec.unmatched_frames + spec.empty_frames,
        "skipped": {"non_ip": spec.non_ip_frames, "non_tcp_udp": spec.icmp_frames},
        "matched": n_dups,
        "no_match": spec.unmatched_frames,
        "empty_payload": spec.empty_frames,
        "after_dedup": len(np.unique(np.column_stack([rows, row_label.astype(np.uint8)]), axis=0)),
        "after_undersample": n_attack + min(n_benign, cap),
    }
    return IngestCorpus(spec, tpl, rows, row_len, row_label, expected)


def _ip(a: int, b: int, c: int, d: int) -> bytes:
    return bytes((a, b, c, d))


def _ipv4_frame(src: bytes, dst: bytes, sport: int, dport: int, proto: int, payload: bytes) -> bytes:
    if proto == 6:
        transport = struct.pack(">HHIIBBHHH", sport, dport, 1, 1, 5 << 4, 0x18, 65535, 0, 0) + payload
    elif proto == 17:
        transport = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload
    else:  # ICMP echo request
        transport = struct.pack(">BBHHH", 8, 0, 0, 1, 1) + payload
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(transport), 0, 0x4000, 64, proto, 0, src, dst)
    return ETH_DST + ETH_SRC + struct.pack(">H", ETHERTYPE_IPV4) + ip + transport


def _arp_frame(i: int) -> bytes:
    body = struct.pack(">HHBBH", 1, ETHERTYPE_IPV4, 6, 4, 1) + ETH_SRC + _ip(10, 9, 0, i % 250 + 1)
    body += b"\x00" * 6 + _ip(10, 9, 1, 1)
    return b"\xff" * 6 + ETH_SRC + struct.pack(">H", ETHERTYPE_ARP) + body


def pcap_bytes(frames: list[bytes]) -> bytes:
    """Classic little-endian microsecond pcap, Ethernet link type, one frame
    per millisecond from T0."""
    out = [struct.pack("<IHHiIII", PCAP_MAGIC_USEC, 2, 4, 0, 0, SNAPLEN, 1)]
    hdr = struct.Struct("<IIII")
    for i, frame in enumerate(frames):
        out.append(hdr.pack(T0 + i // 1000, (i % 1000) * 1000, len(frame), len(frame)))
        out.append(frame)
    return b"".join(out)


def write_ingest_files(corpus: IngestCorpus, seed: int, pcap_path, flows_path) -> None:
    """Lay the distinct rows out as packets in flows, shuffle them in time,
    and write the pcap and the flow CSV."""
    spec = corpus.spec
    rng = np.random.default_rng([seed, 1])
    payloads = [corpus.rows[i, : corpus.row_len[i]].tobytes() for i in range(len(corpus.rows))]

    # packet list as row indices; copies follow the counts in `expected`
    sends = []
    for i, label in enumerate(corpus.row_label):
        if label == 0:
            sends.extend([i] * spec.benign_copies)
        else:
            sends.append(i)
    attack_rows = np.flatnonzero(corpus.row_label != 0)
    sends.extend(int(i) for i in attack_rows[spec.attack_dup_every - 1 :: spec.attack_dup_every])

    # flows: consecutive sends of one class, `flow_packets` at a time
    sends.sort(key=lambda i: (corpus.row_label[i], i))
    flow_of = np.empty(len(sends), dtype=np.int64)
    flows = []  # (src, dst, sport, dport, proto, label)
    prev_label, in_flow = None, 0
    for k, i in enumerate(sends):
        label = int(corpus.row_label[i])
        if label != prev_label or in_flow == spec.flow_packets:
            n = len(flows)
            proto = 6 if rng.random() < 0.7 else 17
            flows.append((_ip(10, 1, n // 250, n % 250 + 1), _ip(192, 168, n // 250, n % 250 + 1),
                          20000 + n % 40000, 80 if proto == 6 else 53, proto, spec.class_names[label]))
            prev_label, in_flow = label, 0
        flow_of[k] = len(flows) - 1
        in_flow += 1

    # frames: data packets, one in three sent server -> client; then the
    # frames ingest skips or counts; all shuffled together in time
    frames = []
    for k, i in enumerate(sends):
        src, dst, sport, dport, proto, _ = flows[flow_of[k]]
        if k % 3 == 2:
            src, dst, sport, dport = dst, src, dport, sport
        frames.append(_ipv4_frame(src, dst, sport, dport, proto, payloads[i]))
    for j in range(spec.empty_frames):
        src, dst, sport, dport, proto, _ = flows[j * len(flows) // spec.empty_frames]
        frames.append(_ipv4_frame(src, dst, sport, dport, proto, b""))
    for j in range(spec.unmatched_frames):
        junk = rng.integers(1, 256, size=64 + j, dtype=np.uint8).tobytes()
        frames.append(_ipv4_frame(_ip(172, 16, 0, j + 1), _ip(172, 16, 1, 1), 40000 + j, 443, 6, junk))
    for j in range(spec.icmp_frames):
        frames.append(_ipv4_frame(_ip(10, 1, 0, 1), _ip(192, 168, 0, 1), 0, 0, 1, bytes(32)))
    for j in range(spec.non_ip_frames):
        frames.append(_arp_frame(j))
    order = rng.permutation(len(frames))
    with open(pcap_path, "wb") as fh:
        fh.write(pcap_bytes([frames[i] for i in order]))

    # each flow's window spans the whole capture, so time never decides a match
    duration = len(frames) / 1000 + 2
    lines = [",".join(FLOW_HEADER)]
    for src, dst, sport, dport, proto, label in flows:
        lines.append(
            f"{'.'.join(map(str, src))},{sport},{'.'.join(map(str, dst))},{dport},{proto},"
            f"{T0 - 1},{duration},{label}"
        )
    with open(flows_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# --- sample sets ---


def write_sset(path, class_names: list[str], rows: np.ndarray, labels: np.ndarray) -> None:
    records = np.zeros(len(rows), dtype=SSET_RECORD)
    records["f"] = rows
    records["label"] = labels
    records["cluster"] = -1
    head = [SSET_MAGIC, struct.pack("<HH", 1, len(class_names))]
    for name in class_names:
        raw = name.encode("utf-8")
        head.append(struct.pack("<H", len(raw)) + raw)
    head.append(struct.pack("<Q", len(rows)))
    with open(path, "wb") as fh:
        fh.write(b"".join(head))
        fh.write(records.tobytes())


def read_sset(path) -> tuple[list[str], np.ndarray]:
    """Class table and structured records (fields f, label, cluster)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:7] != SSET_MAGIC:
        raise ValueError(f"{path}: not a sample-set file")
    pos = 7
    _version, n_classes = struct.unpack_from("<HH", blob, pos)
    pos += 4
    names = []
    for _ in range(n_classes):
        (n,) = struct.unpack_from("<H", blob, pos)
        names.append(blob[pos + 2 : pos + 2 + n].decode("utf-8"))
        pos += 2 + n
    (count,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    if len(blob) - pos != count * SSET_RECORD.itemsize:
        raise ValueError(f"{path}: declares {count} records but holds {len(blob) - pos} bytes of them")
    return names, np.frombuffer(blob, dtype=SSET_RECORD, offset=pos)


def build_stream(seed: int, corpus: IngestCorpus, n_rows: int, unknown_share: float):
    """Fresh rows from the corpus's own benign templates and unknown-attack
    mutations, shuffled. Returns the rows and a mask of the unknown ones."""
    spec, tpl = corpus.spec, corpus.templates
    rng = np.random.default_rng([seed, 2])
    n_unknown = int(n_rows * unknown_share)
    parts, unknown = [], []
    for t in range(spec.benign_templates):
        count = (n_rows - n_unknown) // spec.benign_templates + (t < (n_rows - n_unknown) % spec.benign_templates)
        parts.append(noisy_rows(rng, tpl.benign[t], int(tpl.benign_len[t]), count, spec))
        unknown.append(np.zeros(count, dtype=bool))
    for u, p in enumerate(tpl.unknown_parent):
        count = n_unknown // spec.unknown_classes + (u < n_unknown % spec.unknown_classes)
        parts.append(mutated_rows(rng, tpl.benign[p], int(tpl.benign_len[p]), count, spec))
        unknown.append(np.ones(count, dtype=bool))
    order = rng.permutation(n_rows)
    return np.concatenate(parts)[order], np.concatenate(unknown)[order]
