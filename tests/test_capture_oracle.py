"""The columnar pcap decoder and flow join against their per-packet oracles.

`parse_oracle` is the decoder that read one record and built one
`RawPacketRecord` at a time; `join_oracle` scans every flow for every
packet. The columnar code must give the same records, skip counts and
exception classes, and the same labels.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnids.capture import (
    FLOW_COLUMNS,
    extract_payload_features,
    label_packets,
    parse_capture,
    read_flow_csv,
)
from osnids.config import DEFAULT_COLUMN_MAP
from osnids.errors import PipelineError, ValueOutOfRange

from helpers import (
    PCAP_MAGIC_NSEC,
    PCAP_MAGIC_USEC,
    arp_frame,
    build_pcap,
    flow_table,
    ipv4_packet,
    join_oracle,
    parse_oracle,
    vlan_tagged,
)

SRC, DST = "10.1.2.3", "192.168.0.77"


def raw_frame(
    proto=6,
    payload=b"data",
    ihl_words=5,
    tcp_words=5,
    tcp_option_bytes=None,
    udp_len=None,
    frag=0,
    version=4,
    total_len=None,
    ethertype=0x0800,
    trailer=b"",
) -> bytes:
    """An Ethernet frame whose IPv4 and transport header fields are all set
    by hand, so each decoder check can be failed on its own."""
    if proto == 6:
        transport = struct.pack(">HHIIBBHHH", 4000, 80, 1, 2, tcp_words << 4, 0x18, 512, 0, 0)
        transport += b"\x01" * (max(4 * tcp_words - 20, 0) if tcp_option_bytes is None else tcp_option_bytes)
    elif proto == 17:
        transport = struct.pack(">HHHH", 5353, 53, 8 + len(payload) if udp_len is None else udp_len, 0)
    else:
        transport = b""
    transport += payload
    options = b"\x01" * (4 * ihl_words - 20) if ihl_words > 5 else b""
    if total_len is None:
        total_len = 20 + len(options) + len(transport)
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        version << 4 | ihl_words,
        0,
        total_len,
        0,
        frag,
        64,
        proto,
        0,
        bytes(int(b) for b in SRC.split(".")),
        bytes(int(b) for b in DST.split(".")),
    )
    return b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", ethertype) + ip + options + transport + trailer


FRAMES = {
    "tcp": ipv4_packet(SRC, DST, 1000, 80, "TCP", b"GET / HTTP/1.1"),
    "udp": ipv4_packet(SRC, DST, 5353, 53, "UDP", b"\x01\x02\x03"),
    "empty_tcp": ipv4_packet(SRC, DST, 40000, 443, "TCP", b""),
    "arp": arp_frame(),
    "q_tag": vlan_tagged(ipv4_packet(SRC, DST, 1, 2, "UDP", b"one tag"), [0x8100]),
    "stacked_tags": vlan_tagged(ipv4_packet(SRC, DST, 3, 4, "TCP", b"two tags"), [0x88A8, 0x8100]),
    "three_tags": vlan_tagged(ipv4_packet(SRC, DST, 5, 6, "UDP", b"three"), [0x88A8, 0x8100, 0x8100]),
    "tagged_arp": vlan_tagged(arp_frame(), [0x8100]),
    "truncated_tag": b"\xaa" * 12 + b"\x81\x00\x00",
    "truncated_second_tag": b"\xaa" * 12 + b"\x88\xa8\x00\x01\x81\x00\x00\x02\x08",
    "short_frame": b"\xaa" * 13,
    "ip_options": raw_frame(ihl_words=7, payload=b"after options"),
    "max_ip_options": raw_frame(proto=17, ihl_words=15, payload=b"after 40 option bytes"),
    "tcp_options": raw_frame(tcp_words=8, payload=b"after tcp options"),
    "tcp_offset_past_segment": raw_frame(tcp_words=15, tcp_option_bytes=8, payload=b""),
    "tcp_offset_below_5": raw_frame(tcp_words=4, payload=b"bad offset"),
    "tcp_offset_exactly_segment": raw_frame(tcp_words=6, payload=b""),
    "udp_length_long": raw_frame(proto=17, udp_len=40, payload=b"abc"),
    "udp_length_short": raw_frame(proto=17, udp_len=9, payload=b"abc"),
    "udp_length_below_8": raw_frame(proto=17, udp_len=4, payload=b""),
    "udp_header_only": raw_frame(proto=17, payload=b""),
    "fragment": raw_frame(frag=3),
    "more_fragments_flag_only": raw_frame(frag=0x2000, payload=b"first fragment"),
    "icmp": raw_frame(proto=1, payload=b"\x08\x00ping"),
    "ipv6_version": raw_frame(version=6),
    "ihl_below_5": raw_frame(ihl_words=4),
    "total_below_ihl": raw_frame(total_len=19),
    "snaplen_cut": raw_frame(payload=b"x" * 40)[:-10],
    "ethernet_trailer": raw_frame(proto=17, payload=b"short", trailer=b"\x00" * 12),
    "ip_header_cut": raw_frame()[:14 + 12],
    "tcp_header_cut": raw_frame(payload=b"", total_len=20 + 12),
}


def _assert_same(path):
    """The columnar decoder and the oracle agree on `path`: records, skip
    counts, or the exception class."""
    try:
        want = parse_oracle(path)
    except PipelineError as exc:
        with pytest.raises(type(exc)):
            parse_capture(path)
        return
    got = parse_capture(path)
    assert len(got) == len(got.packets) == len(want.packets)
    assert list(got) == want.packets
    assert [got.packets[i] for i in range(-len(got), 0)] == want.packets
    assert got.skipped == want.skipped
    assert sum(got.skipped.values()) == sum(want.skipped.values())


class TestHandBuiltCaptures:
    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_each_frame_alone(self, tmp_path, name):
        path = tmp_path / "one.pcap"
        path.write_bytes(build_pcap([FRAMES[name]], timestamps=[7.5]))
        _assert_same(path)

    @pytest.mark.parametrize("little_endian", [True, False])
    @pytest.mark.parametrize("magic", [PCAP_MAGIC_USEC, PCAP_MAGIC_NSEC])
    def test_all_frames_in_every_file_variant(self, tmp_path, little_endian, magic):
        names = sorted(FRAMES)
        stamps = [1_700_000_000 + i + (i % 7) / 8 for i in range(len(names))]
        path = tmp_path / "all.pcap"
        path.write_bytes(build_pcap([FRAMES[n] for n in names], stamps, magic=magic, little_endian=little_endian))
        _assert_same(path)
        result = parse_capture(path)
        assert result.skipped == {"malformed": 14, "non_ip": 2, "fragment": 1, "non_tcp_udp": 1}
        assert [p.payload for p in result if p.src_port == 3] == [b"two tags"]

    def test_stacked_tags_decode(self, tmp_path):
        path = tmp_path / "tags.pcap"
        path.write_bytes(build_pcap([FRAMES["stacked_tags"], FRAMES["three_tags"]]))
        first, second = parse_capture(path)
        assert (first.protocol, first.src_port, first.payload) == ("TCP", 3, b"two tags")
        assert (second.protocol, second.dst_port, second.payload) == ("UDP", 6, b"three")
        assert first.src_ip == SRC and first.dst_ip == DST

    @pytest.mark.parametrize(
        "blob",
        [
            b"",
            b"\xd4\xc3",
            struct.pack("<I", 0xDEADBEEF),
            build_pcap([])[:10],
            build_pcap([], linktype=101),
            build_pcap([FRAMES["tcp"]])[:-len(FRAMES["tcp"]) - 5],
            build_pcap([FRAMES["tcp"]])[:-1],
            build_pcap([FRAMES["udp"]], snaplen=20),
            build_pcap([FRAMES["udp"], FRAMES["arp"]], snaplen=0) + b"\x00" * 9,
        ],
        ids=[
            "empty",
            "short_magic",
            "bad_magic",
            "short_global",
            "linktype",
            "short_record_header",
            "short_record_data",
            "above_snaplen",
            "trailing_bytes",
        ],
    )
    def test_broken_files_raise_the_same_class(self, tmp_path, blob):
        path = tmp_path / "broken.pcap"
        path.write_bytes(blob)
        with pytest.raises(PipelineError):
            parse_oracle(path)
        _assert_same(path)


@pytest.fixture(scope="module")
def mutant_inputs(tmp_path_factory):
    """A capture with a stacked-VLAN frame, options and a skip of each kind."""
    names = ["tcp", "stacked_tags", "arp", "udp", "ip_options", "tcp_options", "fragment", "icmp", "empty_tcp"]
    return tmp_path_factory.mktemp("mutants"), build_pcap([FRAMES[n] for n in names])


class TestMutatedCaptures:
    """One to four bytes changed, or the file cut short: both decoders give
    the same records, skip counts or exception class."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutant_matches_oracle(self, mutant_inputs, data):
        root, pcap = mutant_inputs
        blob = bytearray(pcap)
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        for _ in range(data.draw(st.integers(1, 4), label="edits")):
            if blob:
                blob[data.draw(st.integers(0, len(blob) - 1), label="offset")] = data.draw(st.integers(0, 255))
        path = root / "mutant.pcap"
        path.write_bytes(bytes(blob))
        _assert_same(path)


def _assert_join(path, flows, table=None):
    """`label_packets`, on `table` or else the one `flow_table` reads back
    from the tuples `flows`, gives `join_oracle`'s label to every packet
    with a feature vector, in packet order, with its payload bytes."""
    packets = parse_capture(path).packets
    sample_set, report = label_packets(packets, flow_table(path.parent, flows) if table is None else table)
    labels = join_oracle(packets, flows)
    want = [(p, label) for p, label in zip(packets, labels) if extract_payload_features(p) is not None]
    matched = [(p, label) for p, label in want if label is not None]
    assert [sample_set.name_of(s.label) for s in sample_set.samples] == [label for _, label in matched]
    for row, (p, _) in zip(sample_set.samples, matched):
        assert row.features.tobytes() == extract_payload_features(p).tobytes()
        assert row.cluster == -1
    assert (report.matched, report.no_match) == (len(matched), len(want) - len(matched))
    assert report.empty_payload == len(packets) - len(want)


class TestJoinAgainstOracle:
    def test_repeated_five_tuples_and_window_edges(self, tmp_path):
        a, b = ("10.0.0.1", 1000), ("10.0.0.2", 80)
        flows = [
            (*a, *b, "TCP", 10.0, 0.25, "edge_end"),  # closes at 10.25
            (*b, *a, "TCP", 10.25, 1.0, "edge_start"),  # opens at 10.25, other direction
            (*a, *b, "TCP", 10.25, 0.0, "zero_length"),
            (*a, *b, "TCP", 5.0, 1.0, "early"),
            (*a, *b, "TCP", 5.0, 1.0, "early_twin"),  # same start: the lower index wins
            (*a, *b, "UDP", 0.0, 100.0, "udp_only"),
            (*a, *b, "TCP", 30.0, 5.0, "late"),
        ]
        stamps = [10.25, 10.0, 5.0, 6.0, 6.5, 20.0, 35.0, 35.5, 0.0, 10.5]
        frames = [ipv4_packet(a[0], b[0], a[1], b[1], "TCP", bytes([i + 1])) for i in range(len(stamps))]
        frames += [ipv4_packet(b[0], a[0], b[1], a[1], "UDP", b"u"), ipv4_packet(a[0], b[0], a[1], b[1], "TCP", b"")]
        path = tmp_path / "edges.pcap"
        path.write_bytes(build_pcap(frames, timestamps=stamps + [50.0, 10.25]))
        _assert_join(path, flows)
        labels = join_oracle(parse_capture(path).packets, flows)
        assert labels[:4] == ["edge_end", "edge_end", "early", "early"]
        assert labels[6:8] == ["late", "early"]

    def test_hundreds_of_flows_on_one_key(self, tmp_path):
        rng = np.random.default_rng(21)
        starts, lengths = rng.integers(0, 400, 300), rng.integers(0, 6, 300)
        flows = [
            ("10.0.0.1", 1000, "10.0.0.2", 80, "TCP", float(start), float(length), f"c{i % 5}")
            for i, (start, length) in enumerate(zip(starts, lengths))
        ]
        flows += [("10.0.0.2", 80, "10.0.0.1", 1000, "UDP", 50.0, 10.0, "udp")]
        stamps = [float(t) for t in rng.integers(0, 420, 400)] + [55.0]
        frames = [ipv4_packet("10.0.0.2", "10.0.0.1", 80, 1000, "TCP", b"p") for _ in range(400)]
        frames += [ipv4_packet("10.0.0.1", "10.0.0.2", 1000, 80, "UDP", b"q")]
        path = tmp_path / "one_key.pcap"
        path.write_bytes(build_pcap(frames, timestamps=stamps))
        _assert_join(path, flows)

    @pytest.mark.parametrize("spelling", ["010.0.0.1", "10.0.0.1.", "10.0.0.256", " 10.0.0.1", "10.0.0.01", "10.0.1"])
    def test_non_canonical_flow_ip_matches_nothing(self, tmp_path, spelling):
        """An address that is not a canonical dotted quad can match no packet, so
        `read_flow_csv` refuses the flow table (exit 3), naming the line. Each
        field is stripped first, so " 10.0.0.1" reads as 10.0.0.1 and joins."""
        frames = [
            ipv4_packet("10.0.0.1", "10.0.0.2", 1000, 80, "TCP", b"a"),
            ipv4_packet("10.0.0.3", "10.0.0.4", 2000, 81, "TCP", b"b"),
        ]
        path = tmp_path / "spelling.pcap"
        path.write_bytes(build_pcap(frames, timestamps=[1.0, 1.0]))
        header = ",".join(DEFAULT_COLUMN_MAP[c] for c in FLOW_COLUMNS)
        good = ("10.0.0.3", 2000, "10.0.0.4", 81, "TCP", 0.0, 10.0, "DoS")
        for column, ends in (("src_ip", ("10.0.0.1", 1000, "10.0.0.2", 80)), ("dst_ip", ("10.0.0.4", 81, "10.0.0.1", 2000))):
            flows = [good, (*ends, "TCP", 0.0, 10.0, "odd_spelling")]
            rows = [",".join(map(str, flow)) for flow in flows]
            csv_path = tmp_path / "flows.csv"
            csv_path.write_text(f"{header}\n{rows[0]}\n{rows[1].replace('10.0.0.1', spelling)}\n")
            if spelling.strip() == "10.0.0.1":
                _assert_join(path, flows, read_flow_csv(csv_path, DEFAULT_COLUMN_MAP))
            else:
                with pytest.raises(ValueOutOfRange, match=f"flow CSV line 3: {column} ") as info:
                    read_flow_csv(csv_path, DEFAULT_COLUMN_MAP)
                assert info.value.exit_code == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables(self, tmp_path, seed):
        rng = np.random.default_rng(100 + seed)
        hosts = [("10.0.0.1", 1), ("10.0.0.1", 2), ("10.0.0.2", 1), ("10.0.0.3", 7), ("0.0.0.0", 0)]
        flows = []
        for _ in range(int(rng.integers(1, 120))):
            a, b = rng.choice(len(hosts), 2)
            start = float(rng.integers(0, 40)) / 4
            duration, label = float(rng.integers(0, 12)) / 4, str(rng.choice(["BENIGN", "a", "b", "c"]))
            flows.append((*hosts[a], *hosts[b], str(rng.choice(["TCP", "UDP"])), start, duration, label))
        frames, stamps = [], []
        for _ in range(300):
            a, b = rng.choice(len(hosts), 2)
            payload = b"" if rng.random() < 0.05 else bytes(rng.integers(1, 256, int(rng.integers(1, 1600))).tolist())
            proto = str(rng.choice(["TCP", "UDP"]))
            frames.append(ipv4_packet(hosts[a][0], hosts[b][0], hosts[a][1], hosts[b][1], proto, payload))
            stamps.append(float(rng.integers(0, 50)) / 4)
        path = tmp_path / "random.pcap"
        path.write_bytes(build_pcap(frames, timestamps=stamps))
        _assert_join(path, flows)
