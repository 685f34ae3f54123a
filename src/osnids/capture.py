"""Packet capture ingest: pcap parsing, payload features, flow labeling.

Only classic pcap (both endiannesses, microsecond or nanosecond magic) with
Ethernet link type is read. Decoding stops at IPv4 TCP/UDP; everything else
is counted and skipped so ingest never silently drops data.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional, Sequence

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


@dataclass
class ParseResult:
    """Parsed packets plus counters for everything that was skipped."""

    packets: list[RawPacketRecord] = field(default_factory=list)
    skipped: dict[str, int] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.packets)

    def __len__(self):
        return len(self.packets)

    def skip_count(self) -> int:
        return sum(self.skipped.values())

    def _skip(self, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + 1


@dataclass
class UnmatchedReport:
    matched: int = 0
    no_match: int = 0
    empty_payload: int = 0


def _ipv4_str(raw: bytes) -> str:
    return f"{raw[0]}.{raw[1]}.{raw[2]}.{raw[3]}"


def parse_capture(path) -> ParseResult:
    """Decode a pcap file into IPv4 TCP/UDP packet records, in file order."""
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

        result = ParseResult()
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
            packet = _decode_ethernet(float(ts_sec) + ts_frac / frac_div, data, result)
            if packet is not None:
                result.packets.append(packet)
        return result


def _decode_ethernet(timestamp: float, data: bytes, result: ParseResult) -> Optional[RawPacketRecord]:
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
    return _decode_ipv4(timestamp, data[offset:], result)


def _decode_ipv4(timestamp: float, data: bytes, result: ParseResult) -> Optional[RawPacketRecord]:
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

    src_ip = _ipv4_str(data[12:16])
    dst_ip = _ipv4_str(data[16:20])
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


def _endpoint_key(src_ip: str, src_port: int, dst_ip: str, dst_port: int, protocol: str):
    # Order-free endpoint pair: a packet matches a flow in either direction.
    a = (src_ip, src_port)
    b = (dst_ip, dst_port)
    return (min(a, b), max(a, b), protocol)


def label_packets(
    packets: Sequence[RawPacketRecord],
    flows: Sequence[FlowRecord],
    benign_label: str = "BENIGN",
) -> tuple[SampleSet, UnmatchedReport]:
    """Join packets against flow metadata on the bidirectional five-tuple.

    Among flows sharing a five-tuple, the one whose time window contains the
    packet timestamp wins; remaining ties go to the earliest start time.
    Unmatched and empty-payload packets are dropped and counted.
    """
    if not flows:
        raise EmptyFlowTable("flow table is empty")

    index: dict[tuple, list[tuple[int, FlowRecord]]] = {}
    for i, flow in enumerate(flows):
        key = _endpoint_key(flow.src_ip, flow.src_port, flow.dst_ip, flow.dst_port, flow.protocol)
        index.setdefault(key, []).append((i, flow))

    attack_names = sorted({f.label for f in flows if f.label != benign_label})
    class_names = [benign_label] + attack_names
    class_ids = {name: i for i, name in enumerate(class_names)}

    report = UnmatchedReport()
    matched: list[int] = []
    labels: list[int] = []
    for n, packet in enumerate(packets):
        if not packet.payload:
            report.empty_payload += 1
            continue
        key = _endpoint_key(packet.src_ip, packet.src_port, packet.dst_ip, packet.dst_port, packet.protocol)
        candidates = index.get(key)
        if not candidates:
            report.no_match += 1
            continue
        in_window = [
            (i, f) for i, f in candidates if f.start_time <= packet.timestamp <= f.start_time + f.duration
        ]
        pool = in_window if in_window else candidates
        _, best = min(pool, key=lambda item: (item[1].start_time, item[0]))
        report.matched += 1
        matched.append(n)
        labels.append(class_ids[best.label])
    # payloads go straight into the records; stacking per-row arrays would
    # hold every payload twice at the peak
    samples = np.recarray(len(matched), dtype=RECORD_DTYPE)
    samples.label = labels
    samples.cluster = NO_CLUSTER
    features = samples.features
    for row, n in enumerate(matched):
        features[row] = extract_payload_features(packets[n])
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
        raise ValueOutOfRange(f"flow CSV {column} {value!r} is not a number") from exc


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
                if None in row.values():
                    raise ValueOutOfRange(f"flow CSV line {reader.line_num} has fewer fields than its header")
                f = {c: row[column_map[c]] for c in FLOW_COLUMNS}
                flows.append(
                    FlowRecord(
                        src_ip=f["src_ip"].strip(),
                        src_port=_parse_number(f["src_port"], int, "src_port"),
                        dst_ip=f["dst_ip"].strip(),
                        dst_port=_parse_number(f["dst_port"], int, "dst_port"),
                        protocol=_parse_protocol(f["protocol"]),
                        start_time=_parse_time(f["start_time"]),
                        duration=_parse_number(f["duration"], float, "duration"),
                        label=f["label"].strip(),
                    )
                )
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"flow CSV {path} is not valid UTF-8: {exc}") from exc
    return flows
