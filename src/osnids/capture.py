"""Packet capture ingest: pcap parsing, payload features, flow labeling.

Only classic pcap (both endiannesses, microsecond or nanosecond magic) with
Ethernet link type is read. Decoding stops at IPv4 TCP/UDP; everything else
is counted and skipped so ingest never silently drops data.
"""

from __future__ import annotations

import csv
import math
import struct
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .errors import (
    BadEncoding,
    BadMagic,
    CountMismatch,
    EmptyFlowTable,
    NoAttackSamples,
    TruncatedHeader,
    UnreadableFile,
    ValueOutOfRange,
)
from .samples import BENIGN_CLASS_ID, FEATURE_LEN, NO_CLUSTER, RECORD_DTYPE, SampleSet

TCP = "TCP"
UDP = "UDP"

MAGIC_USEC = 0xA1B2C3D4
MAGIC_NSEC = 0xA1B23C4D
LINKTYPE_ETHERNET = 1
MAX_SNAPLEN = 262144  # libpcap's cap; a header snaplen of 0 or above it means this

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = (0x8100, 0x88A8)
IPPROTO_TCP = 6
IPPROTO_UDP = 17

FLOW_COLUMNS = ("src_ip", "src_port", "dst_ip", "dst_port", "protocol", "start_time", "duration", "label")


@dataclass(frozen=True)
class RawPacketRecord:
    timestamp: float  # seconds since epoch
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: str  # TCP or UDP
    payload: bytes


@dataclass(frozen=True)
class FlowRecord:
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: str
    start_time: float
    duration: float
    label: str

    def __post_init__(self):
        if not (math.isfinite(self.start_time) and math.isfinite(self.duration)):
            raise ValueOutOfRange(f"flow start time {self.start_time} and duration {self.duration} must be finite")
        if self.duration < 0:
            raise ValueOutOfRange(f"flow duration must be >= 0, got {self.duration}")
        if not (0 <= self.src_port <= 0xFFFF and 0 <= self.dst_port <= 0xFFFF):
            raise ValueOutOfRange(f"flow ports must be in 0..65535, got {self.src_port}, {self.dst_port}")
        if not self.label:
            raise ValueOutOfRange("flow label must be non-empty")


@dataclass(eq=False)
class ParseResult(Sequence):
    """Decoded packets as columns over the capture's bytes, in file order,
    and a count per skip reason. Column 0 of `ip` and `port` is the source;
    a payload is `data[payload_start:payload_start + payload_len]`.
    Indexing (and `.packets[i]`) builds one `RawPacketRecord`."""

    data: bytes
    skipped: dict[str, int]
    timestamp: np.ndarray
    ip: np.ndarray  # (n, 2) 32-bit addresses
    port: np.ndarray  # (n, 2)
    tcp: np.ndarray  # TCP, else UDP
    payload_start: np.ndarray
    payload_len: np.ndarray

    @property
    def packets(self) -> "ParseResult":
        return self

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, i: int) -> RawPacketRecord:
        src_ip, dst_ip = map(_ipv4_str, self.ip[i].tolist())
        src_port, dst_port = self.port[i].tolist()
        start = int(self.payload_start[i])
        payload = self.data[start : start + int(self.payload_len[i])]
        protocol = TCP if self.tcp[i] else UDP
        return RawPacketRecord(float(self.timestamp[i]), src_ip, dst_ip, src_port, dst_port, protocol, payload)

    def skip_count(self) -> int:
        return sum(self.skipped.values())


@dataclass
class UnmatchedReport:
    matched: int = 0
    no_match: int = 0
    empty_payload: int = 0


def _ipv4_str(addr: int) -> str:
    return f"{addr >> 24}.{addr >> 16 & 0xFF}.{addr >> 8 & 0xFF}.{addr & 0xFF}"


def parse_capture(path) -> ParseResult:
    """Decode a pcap file into IPv4 TCP/UDP packet columns, in file order."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UnreadableFile(f"cannot open capture {path}: {exc}") from exc

    if len(data) < 4:
        raise TruncatedHeader(f"{path}: global header shorter than 24 bytes")
    for endian in (">", "<"):
        (magic,) = struct.unpack_from(endian + "I", data)
        if magic in (MAGIC_USEC, MAGIC_NSEC):
            break
    else:
        raise BadMagic(f"{path}: magic 0x{data[:4].hex()} is not a pcap header")
    if len(data) < 24:
        raise TruncatedHeader(f"{path}: global header shorter than 24 bytes")
    snaplen, network = struct.unpack_from(endian + "II", data, 16)
    if network != LINKTYPE_ETHERNET:
        raise BadMagic(f"{path}: unsupported link type {network} (only Ethernet is read)")
    if snaplen == 0 or snaplen > MAX_SNAPLEN:
        snaplen = MAX_SNAPLEN

    records = []  # (ts_sec, ts_frac, start, incl_len) per record
    rec_hdr = struct.Struct(endian + "III")
    pos, end = 24, len(data)
    while pos < end:
        if end - pos < 16:
            raise TruncatedHeader(f"{path}: record header truncated at record {len(records)}")
        ts_sec, ts_frac, incl_len = rec_hdr.unpack_from(data, pos)
        if incl_len > snaplen:
            raise CountMismatch(f"{path}: record {len(records)} declares {incl_len} bytes, above snaplen {snaplen}")
        pos += 16 + incl_len
        if pos > end:
            raise TruncatedHeader(f"{path}: record data truncated (declared {incl_len}, got {end - pos + incl_len})")
        records.append((ts_sec, ts_frac, pos - incl_len, incl_len))
    ts_sec, ts_frac, start, length = np.array(records, dtype=np.int64).reshape(-1, 4).T

    # Every frame is decoded at once. Each field is read for all frames,
    # clamped to the file, and a frame leaves at the first check it fails,
    # so what a failed frame's later fields read is never used.
    view = np.frombuffer(data, dtype=np.uint8)

    def at(pos, width=2):  # big-endian unsigned
        value = np.zeros(np.shape(pos), dtype=np.int64)
        for k in range(width):
            value = value << 8 | view[np.minimum(pos + k, len(view) - 1)]
        return value

    ethertype, offset = at(start + 12), np.full(len(start), 14)
    tagged = np.flatnonzero((length >= 14) & np.isin(ethertype, ETHERTYPE_VLAN))
    while tagged.size:  # one pass per VLAN tag depth; a truncated tag leaves -1, malformed
        ethertype[tagged] = np.where(length[tagged] < offset[tagged] + 4, -1, at(start[tagged] + offset[tagged] + 2))
        offset[tagged] += 4
        tagged = tagged[np.isin(ethertype[tagged], ETHERTYPE_VLAN)]
    ip, ip_len = start + offset, length - offset
    version_ihl, total_len, proto = at(ip, 1), at(ip + 2), at(ip + 9, 1)
    ihl, tcp = (version_ihl & 0x0F) * 4, proto == IPPROTO_TCP
    segment, seg_len, udp_len = ip + ihl, total_len - ihl, at(ip + ihl + 4)
    data_off = np.where(tcp, (at(segment + 12, 1) >> 4) * 4, 8)
    reason = np.select(
        [
            (length < 14) | (ethertype == -1),
            ethertype != ETHERTYPE_IPV4,
            # ip_len < total_len: a snaplen-truncated capture
            (ip_len < 20) | (version_ihl >> 4 != 4) | (ihl < 20) | (total_len < ihl) | (ip_len < total_len),
            at(ip + 6) & 0x1FFF != 0,
            ~tcp & (proto != IPPROTO_UDP),
            # with data_off <= seg_len, these imply seg_len >= 20 (TCP) and udp_len >= 8
            (data_off > seg_len) | np.where(tcp, data_off < 20, udp_len != seg_len),
        ],
        ["malformed", "non_ip", "malformed", "fragment", "non_tcp_udp", "malformed"],
        "",
    )
    kept = reason == ""
    ip, segment, data_off = ip[kept, None], segment[kept, None], data_off[kept]
    return ParseResult(
        data,
        dict(Counter(reason[~kept].tolist())),
        timestamp=ts_sec[kept] + ts_frac[kept] / (1e6 if magic == MAGIC_USEC else 1e9),
        ip=at(ip + [12, 16], 4),
        port=at(segment + [0, 2]),
        tcp=tcp[kept],
        payload_start=segment[:, 0] + data_off,
        payload_len=seg_len[kept] - data_off,
    )


def extract_payload_features(packet: RawPacketRecord) -> Optional[np.ndarray]:
    """Map payload bytes to a fixed 1500-entry uint8 vector.

    Empty payloads yield None; longer payloads keep the first 1500 bytes;
    shorter ones are zero padded on the right.
    """
    if not packet.payload:
        return None
    raw = np.frombuffer(packet.payload[:FEATURE_LEN], dtype=np.uint8)
    if raw.size == FEATURE_LEN:
        return raw.copy()
    out = np.zeros(FEATURE_LEN, dtype=np.uint8)
    out[: raw.size] = raw
    return out


def label_packets(
    packets: ParseResult,
    flows: Sequence[FlowRecord],
    benign_label: str = "BENIGN",
) -> tuple[SampleSet, UnmatchedReport]:
    """Join packets against flow metadata on the bidirectional five-tuple.

    Among flows sharing a five-tuple, the one whose time window contains the
    packet timestamp wins; remaining ties go to the earliest start time,
    then to the earlier flow. A flow IP matches only as the exact dotted
    quad a packet address prints as. Unmatched and empty-payload packets
    are dropped and counted.
    """
    if not flows:
        raise EmptyFlowTable("flow table is empty")

    class_names = [benign_label] + sorted({f.label for f in flows if f.label != benign_label})
    class_id = {name: i for i, name in enumerate(class_names)}
    # a flow IP string that no packet address prints as matches nothing (-1)
    addr = defaultdict(lambda: -1, ((_ipv4_str(a), a) for a in np.unique(packets.ip).tolist()))
    table = np.array(
        [(addr[f.src_ip], addr[f.dst_ip], f.src_port, f.dst_port, f.protocol == TCP, class_id[f.label]) for f in flows],
        dtype=np.int64,
    )
    usable = (table[:, :2] >= 0).all(axis=1) & np.isin([f.protocol for f in flows], (TCP, UDP))
    table, window = table[usable], np.array([(f.start_time, f.start_time + f.duration) for f in flows])[usable]

    # One int64 per order-free endpoint pair and protocol, so a packet
    # matches a flow in either direction; dense endpoint ids keep it exact.
    # Each key's flows, sorted by (start, index), form one run of `order`.
    n = len(packets)
    endpoints = np.concatenate([packets.ip, table[:, :2]]) << 16 | np.concatenate([packets.port, table[:, 2:4]])
    ids = np.unique(endpoints, return_inverse=True)[1].reshape(-1, 2)
    key = (ids.min(axis=1) * endpoints.size + ids.max(axis=1)) * 2 + np.concatenate([packets.tcp, table[:, 4]])
    order = np.lexsort((window[:, 0], key[n:]))
    first = np.searchsorted(key[n:][order], key[:n])
    count = np.searchsorted(key[n:][order], key[:n], side="right") - first

    # Candidates rank by rank: the first in-window flow wins, else the first.
    has_payload = packets.payload_len > 0
    live = np.flatnonzero(has_payload & (count > 0))
    choice = np.full(n, -1)
    choice[live] = order[first[live]]
    for rank in range(int(count.max(initial=0))):
        live = live[count[live] > rank]
        flow, ts = order[first[live] + rank], packets.timestamp[live]
        hit = (window[flow, 0] <= ts) & (ts <= window[flow, 1])
        choice[live[hit]] = flow[hit]
        live = live[~hit]
    matched = np.flatnonzero(choice >= 0)
    report = UnmatchedReport(len(matched), int(np.sum(has_payload & (count == 0))), int(np.sum(~has_payload)))

    samples = np.zeros(len(matched), dtype=RECORD_DTYPE).view(np.recarray)
    samples.label = table[choice[matched], 5]
    samples.cluster = NO_CLUSTER
    # row by row from the file's bytes: no (n, 1500) gather index is built
    view, features = np.frombuffer(packets.data, dtype=np.uint8), samples.features
    sizes = np.minimum(packets.payload_len[matched], FEATURE_LEN).tolist()
    for row, (start, size) in enumerate(zip(packets.payload_start[matched].tolist(), sizes)):
        features[row, :size] = view[start : start + size]
    return SampleSet(class_names=class_names, samples=samples), report


_DEDUP_CHUNK = 1024  # rows compared per step, bounding the temporaries


def deduplicate(samples: np.recarray) -> np.recarray:
    """Keep the first occurrence of each distinct (features, label) pair."""
    records = np.ascontiguousarray(samples)
    # Sorting whole records by their bytes puts all rows that share the
    # (features, label) prefix into one run, whatever their cluster ids.
    order = np.argsort(records.view(f"V{RECORD_DTYPE.itemsize}"))
    prefix = records.view(np.uint8).reshape(len(records), -1)[:, : FEATURE_LEN + 2]
    run_starts = np.ones(len(order), dtype=bool)
    for lo in range(1, len(order), _DEDUP_CHUNK):
        hi = min(lo + _DEDUP_CHUNK, len(order))
        run_starts[lo:hi] = np.any(prefix[order[lo:hi]] != prefix[order[lo - 1 : hi - 1]], axis=1)
    first = np.minimum.reduceat(order, np.flatnonzero(run_starts)) if len(order) else order
    return samples[np.sort(first)]


def undersample_benign(samples: np.recarray, target_ratio: float, seed: int) -> np.recarray:
    """Subsample benign records so |benign| <= ratio * |attacks|.

    Selection is uniform without replacement from the seeded generator;
    attack samples and the original ordering are untouched.
    """
    if target_ratio <= 0:
        raise ValueOutOfRange(f"target ratio must be > 0, got {target_ratio}")
    if math.isinf(target_ratio):
        return samples
    keep = samples.label != BENIGN_CLASS_ID
    benign_idx = np.flatnonzero(~keep)
    n_attacks = len(samples) - len(benign_idx)
    if n_attacks == 0:
        raise NoAttackSamples("cannot undersample: no attack samples present")
    cap = int(target_ratio * n_attacks + 1e-9)  # guard fp dust in ratio * count
    if len(benign_idx) <= cap:
        return samples
    rng = np.random.default_rng(seed)
    keep[benign_idx[rng.choice(len(benign_idx), size=cap, replace=False)]] = True
    return samples[keep]


def _parse_number(value: str, kind: type, column: str):
    try:
        return kind(value)
    except ValueError as exc:
        raise ValueOutOfRange(f"{column} {value!r} is not a number") from exc


def _parse_ip(value: str, column: str) -> str:
    """A canonical dotted quad, the only spelling a captured packet's address can match."""
    ip = value.strip()
    parts = ip.split(".")
    if len(parts) != 4 or not all(p.isascii() and p.isdigit() and str(int(p)) == p and int(p) < 256 for p in parts):
        raise ValueOutOfRange(f"{column} {value!r} is not a canonical dotted quad")
    return ip


def _parse_time(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(value)
    except ValueError as exc:
        raise ValueOutOfRange(f"cannot parse start_time {value!r} as seconds or ISO 8601") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _parse_protocol(value: str) -> str:
    v = value.strip().upper()
    if v in (TCP, str(IPPROTO_TCP)):
        return TCP
    if v in (UDP, str(IPPROTO_UDP)):
        return UDP
    raise ValueOutOfRange(f"unsupported protocol {value!r} in flow table (TCP/UDP/6/17)")


def _flow_record(row: dict, column_map: dict[str, str]) -> FlowRecord:
    if None in row.values():
        raise ValueOutOfRange("fewer fields than the header")
    f = {c: row[column_map[c]] for c in FLOW_COLUMNS}
    return FlowRecord(
        src_ip=_parse_ip(f["src_ip"], "src_ip"),
        src_port=_parse_number(f["src_port"], int, "src_port"),
        dst_ip=_parse_ip(f["dst_ip"], "dst_ip"),
        dst_port=_parse_number(f["dst_port"], int, "dst_port"),
        protocol=_parse_protocol(f["protocol"]),
        start_time=_parse_time(f["start_time"]),
        duration=_parse_number(f["duration"], float, "duration"),
        label=f["label"].strip(),
    )


def read_flow_csv(path, column_map: dict[str, str]) -> list[FlowRecord]:
    """Load flow metadata from CSV.

    `column_map` binds the logical columns (src_ip, src_port, dst_ip,
    dst_port, protocol, start_time, duration, label) to the actual header
    names, which differ across flow-meter releases.
    """
    missing = [c for c in FLOW_COLUMNS if c not in column_map]
    if missing:
        raise ValueOutOfRange(f"column map missing logical columns: {', '.join(missing)}")
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise UnreadableFile(f"cannot open flow CSV {path}: {exc}") from exc
    flows = []
    try:
        with fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            absent = [column_map[c] for c in FLOW_COLUMNS if column_map[c] not in header]
            if absent:
                raise ValueOutOfRange(f"flow CSV lacks mapped columns: {', '.join(absent)}")
            for row in reader:
                try:
                    flows.append(_flow_record(row, column_map))
                except ValueOutOfRange as exc:
                    raise ValueOutOfRange(f"flow CSV line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"flow CSV {path} is not valid UTF-8: {exc}") from exc
    return flows
