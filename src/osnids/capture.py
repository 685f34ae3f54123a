"""Packet capture ingest: pcap parsing, payload features, flow labeling.

Only classic pcap (both endiannesses, microsecond or nanosecond magic) with
Ethernet link type is read. Decoding stops at IPv4 TCP/UDP; everything else
is counted and skipped so ingest never silently drops data.
"""

from __future__ import annotations

import csv
import math
import struct
from collections import Counter
from collections.abc import Sequence
from contextlib import suppress
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
# One row per flow CSV row, in file order. Column 0 of `ip` and `port` is the
# source; `window` is (start, start + duration) in seconds.
FLOW_DTYPE = np.dtype([("ip", "i8", (2,)), ("port", "i8", (2,)), ("tcp", "?"), ("window", "f8", (2,)), ("label", "O")])


@dataclass(frozen=True)
class RawPacketRecord:
    timestamp: float  # seconds since epoch
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: str  # TCP or UDP
    payload: bytes


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

    Empty payloads yield None, and so do those whose first 1500 bytes are
    all zero, as `label_packets` counts them; longer payloads keep the first
    1500 bytes; shorter ones are zero padded on the right.
    """
    raw = np.frombuffer(packet.payload[:FEATURE_LEN], dtype=np.uint8)
    if not raw.any():
        return None
    if raw.size == FEATURE_LEN:
        return raw.copy()
    out = np.zeros(FEATURE_LEN, dtype=np.uint8)
    out[: raw.size] = raw
    return out


def _any_nonzero(view: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Whether each slice view[start:start + size] holds a non-zero byte. The
    slices are in file order, so only the last can end at the end of `view`."""
    out = size > 0
    bounds = np.stack([start, start + size], axis=1)[out].ravel()
    if bounds.size and bounds[-1] == view.size:  # reduceat's last slice runs to the end
        bounds = bounds[:-1]
    out[out] = np.maximum.reduceat(view, bounds)[::2] > 0
    return out


def label_packets(
    packets: ParseResult,
    flows: np.ndarray,
    benign_label: str = "BENIGN",
) -> tuple[SampleSet, UnmatchedReport]:
    """Join packets against a `FLOW_DTYPE` flow table on the bidirectional
    five-tuple.

    Among flows sharing a five-tuple, the one whose time window contains the
    packet timestamp wins; remaining ties go to the earliest start time,
    then to the earlier flow. A flow IP matches only as the exact dotted
    quad a packet address prints as. Unmatched and empty-payload packets
    are dropped and counted; a payload whose first 1500 bytes are all zero
    has the feature vector of an empty one, so it counts as empty.
    """
    if not len(flows):
        raise EmptyFlowTable("flow table is empty")

    names, inverse = np.unique(np.append(flows["label"], benign_label), return_inverse=True)
    attack = names != benign_label
    class_names = [benign_label, *names[attack].tolist()]
    flow_class = (np.cumsum(attack) * attack)[inverse[:-1]]  # benign is 0, the rest in sorted order

    # One int64 per order-free endpoint pair and protocol, so a packet
    # matches a flow in either direction; dense endpoint ids keep it exact.
    # Each key's flows, sorted by (start, index), form one run of `order`.
    n, window = len(packets), flows["window"]
    endpoints = np.concatenate([packets.ip, flows["ip"]]) << 16 | np.concatenate([packets.port, flows["port"]])
    ids = np.unique(endpoints, return_inverse=True)[1].reshape(-1, 2)
    key = (ids.min(axis=1) * endpoints.size + ids.max(axis=1)) * 2 + np.concatenate([packets.tcp, flows["tcp"]])
    order = np.lexsort((window[:, 0], key[n:]))
    first = np.searchsorted(key[n:][order], key[:n])
    count = np.searchsorted(key[n:][order], key[:n], side="right") - first

    # Candidates rank by rank: the first in-window flow wins, else the first.
    view, size = np.frombuffer(packets.data, dtype=np.uint8), np.minimum(packets.payload_len, FEATURE_LEN)
    has_payload = _any_nonzero(view, packets.payload_start, size)
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
    samples.label = flow_class[choice[matched]]
    samples.cluster = NO_CLUSTER
    # row by row from the file's bytes: no (n, 1500) gather index is built
    features = samples.features
    for row, (start, length) in enumerate(zip(packets.payload_start[matched].tolist(), size[matched].tolist())):
        features[row, :length] = view[start : start + length]
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


def _parse_ip(value: str, column: str) -> int:
    """A canonical dotted quad, the only spelling a captured packet's address can match."""
    parts = value.strip().split(".")
    if len(parts) != 4 or not all(p.isascii() and p.isdigit() and str(int(p)) == p and int(p) < 256 for p in parts):
        raise ValueOutOfRange(f"{column} {value!r} is not a canonical dotted quad")
    return int.from_bytes(bytes(map(int, parts)), "big")


def _parse_port(value: str, column: str) -> int:
    port = value.strip()
    if not (port.isascii() and port.isdigit() and int(port) <= 0xFFFF):
        raise ValueOutOfRange(f"{column} {value!r} is not an integer in 0..65535")
    return int(port)


def _parse_seconds(value: str, column: str) -> float:
    """A finite number of seconds, in ASCII with no `_`; a start time may
    also be ISO 8601, read as UTC when it names no zone."""
    seconds = math.nan
    if value.isascii() and "_" not in value:
        with suppress(ValueError):
            seconds = float(value)
        with suppress(ValueError):
            if column == "start_time" and math.isnan(seconds):
                dt = datetime.fromisoformat(value)
                seconds = (dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)).timestamp()
    if not math.isfinite(seconds):
        raise ValueOutOfRange(f"{column} {value!r} is not a finite number of seconds")
    return seconds


def _parse_tcp(value: str) -> bool:
    v = value.strip().upper()
    if v not in (TCP, UDP, str(IPPROTO_TCP), str(IPPROTO_UDP)):
        raise ValueOutOfRange(f"unsupported protocol {value!r} in flow table (TCP/UDP/6/17)")
    return v in (TCP, str(IPPROTO_TCP))


def _flow_row(fields: list[str]) -> tuple:
    """One `FLOW_DTYPE` row from the fields in `FLOW_COLUMNS` order."""
    src_ip, src_port, dst_ip, dst_port, protocol, start, duration, label = fields
    ip = (_parse_ip(src_ip, "src_ip"), _parse_ip(dst_ip, "dst_ip"))
    port = (_parse_port(src_port, "src_port"), _parse_port(dst_port, "dst_port"))
    tcp, label = _parse_tcp(protocol), label.strip()
    start, duration = _parse_seconds(start, "start_time"), _parse_seconds(duration, "duration")
    if duration < 0:
        raise ValueOutOfRange(f"duration must be >= 0, got {duration}")
    if not label:
        raise ValueOutOfRange("flow label must be non-empty")
    return ip, port, tcp, (start, start + duration), label


def read_flow_csv(path, column_map: dict[str, str]) -> np.recarray:
    """Load flow metadata from CSV as one `FLOW_DTYPE` record array.

    `column_map` binds the logical columns (src_ip, src_port, dst_ip,
    dst_port, protocol, start_time, duration, label) to the actual header
    names, which differ across flow-meter releases. Every row must have as
    many fields as the header; blank lines are skipped.
    """
    missing = [c for c in FLOW_COLUMNS if c not in column_map]
    if missing:
        raise ValueOutOfRange(f"column map missing logical columns: {', '.join(missing)}")
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise UnreadableFile(f"cannot open flow CSV {path}: {exc}") from exc
    rows = []
    try:
        with fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            index = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
            absent = [column_map[c] for c in FLOW_COLUMNS if column_map[c] not in index]
            if absent:
                raise ValueOutOfRange(f"flow CSV lacks mapped columns: {', '.join(absent)}")
            columns = [index[column_map[c]] for c in FLOW_COLUMNS]
            for row in filter(None, reader):
                try:
                    if len(row) != len(header):
                        raise ValueOutOfRange(f"{len(row)} fields where the header has {len(header)}")
                    rows.append(_flow_row([row[i] for i in columns]))
                except ValueOutOfRange as exc:
                    raise ValueOutOfRange(f"flow CSV line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"flow CSV {path} is not valid UTF-8: {exc}") from exc
    except csv.Error as exc:  # a field above the csv module's size limit, say
        raise ValueOutOfRange(f"flow CSV line {reader.line_num}: {exc}") from exc
    return np.array(rows, dtype=FLOW_DTYPE).view(np.recarray)
