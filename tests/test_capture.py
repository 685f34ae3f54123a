import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnids.capture import (
    FLOW_DTYPE,
    ParseResult,
    deduplicate,
    extract_payload_features,
    label_packets,
    parse_capture,
    read_flow_csv,
    undersample_benign,
)
from osnids.errors import (
    BadEncoding,
    BadMagic,
    CountMismatch,
    EmptyFlowTable,
    NoAttackSamples,
    PipelineError,
    TruncatedHeader,
    UnreadableFile,
    ValueOutOfRange,
)
from osnids.samples import BENIGN_CLASS_ID, make_records

from helpers import PCAP_MAGIC_NSEC, arp_frame, build_pcap, dedup_oracle, flow_table, ipv4_packet, join_oracle


def _write(tmp_path, blob, name="capture.pcap"):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


class TestParseCapture:
    def test_single_udp_packet(self, tmp_path):
        frame = ipv4_packet("10.0.0.1", "10.0.0.2", 1234, 53, "UDP", b"\x01\x02\x03\x04")
        result = parse_capture(_write(tmp_path, build_pcap([frame], timestamps=[12.5])))
        assert len(result.packets) == 1
        p = result.packets[0]
        assert p.protocol == "UDP"
        assert p.src_ip == "10.0.0.1" and p.dst_ip == "10.0.0.2"
        assert p.src_port == 1234 and p.dst_port == 53
        assert p.payload == b"\x01\x02\x03\x04"
        assert p.timestamp == pytest.approx(12.5)
        assert sum(result.skipped.values()) == 0

    def test_arp_frame_skipped(self, tmp_path):
        frames = [arp_frame(), ipv4_packet("10.0.0.1", "10.0.0.2", 1, 2, "TCP", b"hi")]
        result = parse_capture(_write(tmp_path, build_pcap(frames)))
        assert len(result.packets) == 1
        assert result.packets[0].protocol == "TCP"
        assert sum(result.skipped.values()) == 1
        assert result.skipped == {"non_ip": 1}

    def test_bad_magic(self, tmp_path):
        blob = (0xDEADBEEF).to_bytes(4, "big") + b"\x00" * 20
        with pytest.raises(BadMagic):
            parse_capture(_write(tmp_path, blob))

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableFile):
            parse_capture(tmp_path / "missing.pcap")

    def test_truncated_global_header(self, tmp_path):
        blob = build_pcap([])[:10]
        with pytest.raises(TruncatedHeader):
            parse_capture(_write(tmp_path, blob))

    def test_truncated_record_header(self, tmp_path):
        frame = ipv4_packet("1.1.1.1", "2.2.2.2", 1, 2, "TCP", b"x")
        blob = build_pcap([frame])[:-len(frame) - 8]
        with pytest.raises(TruncatedHeader):
            parse_capture(_write(tmp_path, blob))

    def test_truncated_record_data(self, tmp_path):
        frame = ipv4_packet("1.1.1.1", "2.2.2.2", 1, 2, "TCP", b"x")
        blob = build_pcap([frame])[:-3]
        with pytest.raises(TruncatedHeader):
            parse_capture(_write(tmp_path, blob))

    @pytest.mark.parametrize("snaplen, declared", [(64, 200_000), (0, 262_145), (2**32 - 1, 262_145)])
    def test_record_longer_than_snaplen_refused(self, tmp_path, snaplen, declared):
        # only the record header is written; the declared body never exists
        blob = build_pcap([], snaplen=snaplen) + struct.pack("<IIII", 0, 0, declared, declared)
        with pytest.raises(CountMismatch):
            parse_capture(_write(tmp_path, blob))

    def test_record_at_snaplen_accepted(self, tmp_path):
        frame = ipv4_packet("1.1.1.1", "2.2.2.2", 1, 2, "UDP", b"x" * 100)
        assert len(parse_capture(_write(tmp_path, build_pcap([frame], snaplen=len(frame))))) == 1
        assert len(parse_capture(_write(tmp_path, build_pcap([frame], snaplen=0), "zero.pcap"))) == 1
        with pytest.raises(CountMismatch):
            parse_capture(_write(tmp_path, build_pcap([frame], snaplen=len(frame) - 1), "short.pcap"))

    def test_big_endian_and_nanosecond_variants(self, tmp_path):
        frame = ipv4_packet("10.0.0.1", "10.0.0.2", 5, 6, "UDP", b"ab")
        for le in (True, False):
            for magic in (0xA1B2C3D4, PCAP_MAGIC_NSEC):
                blob = build_pcap([frame], timestamps=[1.25], magic=magic, little_endian=le)
                result = parse_capture(_write(tmp_path, blob, f"v_{le}_{magic}.pcap"))
                assert len(result.packets) == 1
                assert result.packets[0].timestamp == pytest.approx(1.25)

    def test_non_ethernet_linktype_rejected(self, tmp_path):
        blob = build_pcap([], linktype=101)
        with pytest.raises(BadMagic):
            parse_capture(_write(tmp_path, blob))

    def test_fragment_skipped(self, tmp_path):
        frame = ipv4_packet("1.1.1.1", "2.2.2.2", 1, 2, "UDP", b"zz", frag_offset=3)
        result = parse_capture(_write(tmp_path, build_pcap([frame])))
        assert len(result.packets) == 0
        assert result.skipped == {"fragment": 1}

    def test_file_order_preserved(self, tmp_path):
        frames = [
            ipv4_packet("1.1.1.1", "2.2.2.2", 10 + i, 80, "TCP", bytes([i + 1]))
            for i in range(5)
        ]
        result = parse_capture(_write(tmp_path, build_pcap(frames)))
        assert [p.src_port for p in result.packets] == [10, 11, 12, 13, 14]


class TestExtractPayloadFeatures:
    def test_byte_mapping_and_padding(self, tmp_path):
        frame = ipv4_packet("1.1.1.1", "2.2.2.2", 1, 2, "UDP", b"\xab\x00\xff")
        packet = parse_capture(_write(tmp_path, build_pcap([frame]))).packets[0]
        vec = extract_payload_features(packet)
        assert vec.shape == (1500,)
        assert list(vec[:3]) == [171, 0, 255]
        assert not vec[3:].any()

    def test_empty_payload_absent(self, tmp_path):
        frame = ipv4_packet("1.1.1.1", "2.2.2.2", 1, 2, "TCP", b"")
        packet = parse_capture(_write(tmp_path, build_pcap([frame]))).packets[0]
        assert extract_payload_features(packet) is None

    def test_all_zero_payload_absent(self, tmp_path):
        frames = [ipv4_packet("1.1.1.1", "2.2.2.2", 1, 2, "TCP", p) for p in (b"\x00", b"\x00" * 1500 + b"\x01")]
        packets = parse_capture(_write(tmp_path, build_pcap(frames))).packets
        assert [extract_payload_features(p) for p in packets] == [None, None]

    def test_truncation_at_1500(self, tmp_path):
        frame = ipv4_packet("1.1.1.1", "2.2.2.2", 1, 2, "UDP", b"\x01" * 1600)
        packet = parse_capture(_write(tmp_path, build_pcap([frame]))).packets[0]
        vec = extract_payload_features(packet)
        assert vec.shape == (1500,)
        assert (vec == 1).all()


class TestLabelPackets:
    def test_unique_join(self, tmp_path):
        frame = ipv4_packet("10.0.0.1", "10.0.0.2", 1000, 80, "TCP", b"abc")
        packets = parse_capture(_write(tmp_path, build_pcap([frame], timestamps=[5.0]))).packets
        flows = [("10.0.0.1", 1000, "10.0.0.2", 80, "TCP", 0.0, 10.0, "DoS")]
        sample_set, report = label_packets(packets, flow_table(tmp_path, flows))
        assert len(sample_set.samples) == 1
        assert sample_set.name_of(sample_set.samples[0].label) == "DoS"
        assert report.matched == 1 and report.no_match == 0

    def test_bidirectional_match(self, tmp_path):
        frame = ipv4_packet("10.0.0.2", "10.0.0.1", 80, 1000, "TCP", b"abc")
        packets = parse_capture(_write(tmp_path, build_pcap([frame], timestamps=[5.0]))).packets
        flows = [("10.0.0.1", 1000, "10.0.0.2", 80, "TCP", 0.0, 10.0, "PortScan")]
        sample_set, report = label_packets(packets, flow_table(tmp_path, flows))
        assert report.matched == 1
        assert sample_set.name_of(sample_set.samples[0].label) == "PortScan"

    def test_window_tiebreak(self, tmp_path):
        frame = ipv4_packet("10.0.0.1", "10.0.0.2", 1000, 80, "TCP", b"abc")
        packets = parse_capture(_write(tmp_path, build_pcap([frame], timestamps=[25.0]))).packets
        flows = [
            ("10.0.0.1", 1000, "10.0.0.2", 80, "TCP", 0.0, 10.0, "first"),
            ("10.0.0.1", 1000, "10.0.0.2", 80, "TCP", 20.0, 10.0, "second"),
        ]
        sample_set, _ = label_packets(packets, flow_table(tmp_path, flows), benign_label="none")
        assert sample_set.name_of(sample_set.samples[0].label) == "second"
        assert join_oracle(packets, flows) == ["second"]

    def test_no_match_counted(self, tmp_path):
        frame = ipv4_packet("9.9.9.9", "8.8.8.8", 1, 2, "UDP", b"xy")
        packets = parse_capture(_write(tmp_path, build_pcap([frame]))).packets
        flows = [("10.0.0.1", 1000, "10.0.0.2", 80, "TCP", 0.0, 10.0, "BENIGN")]
        sample_set, report = label_packets(packets, flow_table(tmp_path, flows))
        assert len(sample_set.samples) == 0
        assert report.no_match == 1

    def test_empty_payload_counted(self, tmp_path):
        frame = ipv4_packet("10.0.0.1", "10.0.0.2", 1000, 80, "TCP", b"")
        packets = parse_capture(_write(tmp_path, build_pcap([frame]))).packets
        flows = [("10.0.0.1", 1000, "10.0.0.2", 80, "TCP", 0.0, 10.0, "BENIGN")]
        sample_set, report = label_packets(packets, flow_table(tmp_path, flows))
        assert len(sample_set.samples) == 0
        assert report.empty_payload == 1

    def test_all_zero_payload_counted_as_empty(self, tmp_path):
        """A payload whose first 1500 bytes are zero, such as a TCP keep-alive
        probe's one 0x00 byte, has the feature vector of an empty payload."""
        payloads = [b"\x00", b"\x00" * 1500 + b"\x07", b"\x00" * 1499 + b"\x07"]
        frames = [ipv4_packet("10.0.0.1", "10.0.0.2", 1000, 80, "TCP", p) for p in payloads]
        frames.append(ipv4_packet("10.0.0.5", "10.0.0.6", 1, 2, "UDP", b"\x00"))  # no flow, and last in the file
        packets = parse_capture(_write(tmp_path, build_pcap(frames, timestamps=[1.0] * 4))).packets
        flows = [("10.0.0.1", 1000, "10.0.0.2", 80, "TCP", 0.0, 10.0, "DoS")]
        sample_set, report = label_packets(packets, flow_table(tmp_path, flows))
        assert (report.matched, report.no_match, report.empty_payload) == (1, 0, 3)
        assert np.argwhere(sample_set.samples.features).tolist() == [[0, 1499]]

    def test_empty_flow_table(self, tmp_path):
        packets = parse_capture(_write(tmp_path, build_pcap([]))).packets
        with pytest.raises(EmptyFlowTable):
            label_packets(packets, flow_table(tmp_path, []))

    def test_benign_is_class_zero(self, tmp_path):
        frames = [
            ipv4_packet("10.0.0.1", "10.0.0.2", 1000, 80, "TCP", b"a"),
            ipv4_packet("10.0.0.3", "10.0.0.4", 1001, 81, "TCP", b"b"),
        ]
        packets = parse_capture(_write(tmp_path, build_pcap(frames, timestamps=[1.0, 1.0]))).packets
        flows = [
            ("10.0.0.1", 1000, "10.0.0.2", 80, "TCP", 0.0, 10.0, "BENIGN"),
            ("10.0.0.3", 1001, "10.0.0.4", 81, "TCP", 0.0, 10.0, "Bot"),
        ]
        sample_set, _ = label_packets(packets, flow_table(tmp_path, flows))
        assert sample_set.class_names[BENIGN_CLASS_ID] == "BENIGN"
        labels = {sample_set.name_of(s.label) for s in sample_set.samples}
        assert labels == {"BENIGN", "Bot"}

    def test_matches_brute_force_oracle_on_random_fixtures(self, tmp_path):
        rng = np.random.default_rng(11)
        ips = [f"10.0.{i}.{j}" for i in range(3) for j in range(3)]
        flows = []
        for _ in range(100):
            a, b = rng.choice(len(ips), 2, replace=True)
            flows.append(
                (
                    ips[a],
                    int(rng.integers(1, 6)) * 100,
                    ips[b],
                    int(rng.integers(1, 6)) * 100,
                    "TCP" if rng.random() < 0.5 else "UDP",
                    float(rng.integers(0, 50)),
                    float(rng.integers(0, 20)),
                    str(rng.choice(["BENIGN", "DoS", "Bot"])),
                )
            )
        frames, stamps = [], []
        for _ in range(1000):
            if rng.random() < 0.7 and flows:
                src_ip, src_port, dst_ip, dst_port, proto = flows[int(rng.integers(len(flows)))][:5]
                src, dst = (src_ip, src_port), (dst_ip, dst_port)
                if rng.random() < 0.5:
                    src, dst = dst, src
            else:
                src = (str(rng.choice(ips)), int(rng.integers(1, 6)) * 100)
                dst = (str(rng.choice(ips)), int(rng.integers(1, 6)) * 100)
                proto = "TCP" if rng.random() < 0.5 else "UDP"
            frames.append(ipv4_packet(src[0], dst[0], src[1], dst[1], proto, bytes([int(rng.integers(1, 256))])))
            stamps.append(float(rng.integers(0, 80)))
        packets = parse_capture(_write(tmp_path, build_pcap(frames, timestamps=stamps))).packets
        assert len(packets) == 1000

        sample_set, report = label_packets(packets, flow_table(tmp_path, flows))
        expected = join_oracle(packets, flows)
        got = iter(sample_set.samples)
        for want in expected:
            if want is None:
                continue
            assert sample_set.name_of(next(got).label) == want
        assert report.no_match == sum(1 for w in expected if w is None)
        assert report.matched == sum(1 for w in expected if w is not None)

    def test_pipeline_deterministic(self, tmp_path):
        rng = np.random.default_rng(3)
        frames = [
            ipv4_packet("10.0.0.1", "10.0.0.2", 1000, 80, "TCP", rng.bytes(40))
            for _ in range(20)
        ]
        path = _write(tmp_path, build_pcap(frames))
        flows = [("10.0.0.1", 1000, "10.0.0.2", 80, "TCP", 0.0, 100.0, "BENIGN")]

        def run():
            packets = parse_capture(path).packets
            sample_set, _ = label_packets(packets, flow_table(tmp_path, flows))
            return b"".join(s.features.tobytes() for s in sample_set.samples)

        assert run() == run()


def _records(rng, labels):
    feats = rng.integers(0, 256, (len(labels), 1500), dtype=np.int64).astype(np.uint8)
    feats[:, 0] = np.maximum(feats[:, 0], 1)
    return make_records(feats, labels)


def _concat(*parts):
    return np.concatenate(parts).view(np.recarray)


class TestDeduplicate:
    def test_exact_duplicates_collapse(self):
        rng = np.random.default_rng(0)
        s = _records(rng, [0])
        assert deduplicate(_concat(s, s.copy())).tobytes() == s.tobytes()

    def test_same_features_different_labels_kept(self):
        rng = np.random.default_rng(1)
        s = _records(rng, [0])
        other = s.copy()
        other.label = 1
        assert len(deduplicate(_concat(s, other))) == 2

    def test_first_occurrence_order(self):
        rng = np.random.default_rng(2)
        ab = _records(rng, [0, 0])
        out = deduplicate(ab[[0, 1, 0, 1, 0]])
        assert out.tobytes() == ab.tobytes()

    def test_cluster_id_is_not_part_of_the_key(self):
        rng = np.random.default_rng(3)
        ab = _records(rng, [0, 0])
        mixed = ab[[0, 1, 0, 0]]
        mixed.cluster = [-1, -1, 3, 1]
        assert deduplicate(mixed).tobytes() == ab.tobytes()

    def test_planted_duplicates_match_oracle(self):
        rng = np.random.default_rng(4)
        base = _records(rng, rng.integers(0, 3, 900))
        planted = base[rng.choice(900, 100, replace=False)]
        mixed = _concat(base, planted)[rng.permutation(1000)]
        out = deduplicate(mixed)
        assert len(out) == 900
        # definition-level O(n^2) oracle on a subset (full scan is slow)
        subset = mixed[:250]
        assert deduplicate(subset).tobytes() == subset[dedup_oracle(subset)].tobytes()

    def test_count_equals_distinct_keys(self):
        rng = np.random.default_rng(5)
        samples = _records(rng, rng.integers(0, 2, 50))
        samples = _concat(samples, samples[:10])
        keys = {(s.features.tobytes(), int(s.label)) for s in samples}
        assert len(deduplicate(samples)) == len(keys)


class TestUndersampleBenign:
    def _corpus(self, n_benign, n_attack, seed=0):
        rng = np.random.default_rng(seed)
        return _records(rng, [0] * n_benign + [1] * n_attack)

    def test_exact_cap(self):
        samples = self._corpus(1000, 100)
        out = undersample_benign(samples, 1.0, seed=7)
        assert sum(1 for s in out if s.label == 0) == 100
        assert sum(1 for s in out if s.label != 0) == 100

    def test_noop_below_cap(self):
        samples = self._corpus(50, 100)
        assert undersample_benign(samples, 1.0, seed=7).tobytes() == samples.tobytes()

    def test_deterministic(self):
        samples = self._corpus(500, 50)
        a = undersample_benign(samples, 1.0, seed=9)
        b = undersample_benign(samples, 1.0, seed=9)
        assert a.tobytes() == b.tobytes()

    def test_no_attacks_error(self):
        samples = self._corpus(10, 0)
        with pytest.raises(NoAttackSamples):
            undersample_benign(samples, 1.0, seed=0)

    def test_infinite_ratio_noop(self):
        samples = self._corpus(10, 0)
        assert undersample_benign(samples, float("inf"), seed=0).tobytes() == samples.tobytes()

    def test_attacks_untouched_order_preserved(self):
        samples = self._corpus(30, 10)
        out = undersample_benign(samples, 1.0, seed=1)
        assert out[out.label != 0].tobytes() == samples[samples.label != 0].tobytes()
        position = {row.tobytes(): i for i, row in enumerate(samples)}
        positions = [position[row.tobytes()] for row in out[out.label == 0]]
        assert positions == sorted(positions)


_FLOW_HEADER = "Src IP,Src Port,Dst IP,Dst Port,Protocol,Timestamp,Flow Duration,Label\n"
_FLOW_COLUMN_MAP = {
    "src_ip": "Src IP",
    "src_port": "Src Port",
    "dst_ip": "Dst IP",
    "dst_port": "Dst Port",
    "protocol": "Protocol",
    "start_time": "Timestamp",
    "duration": "Flow Duration",
    "label": "Label",
}
_GOOD_FLOW_ROW = b"10.0.0.1,1000,10.0.0.2,80,6,100.5,3.5,BENIGN\n"

# case -> a second data row with a number that is not in ASCII digits or
# that Python's int() and float() read past (a sign, an underscore)
NUMBER_SPELLINGS = {
    "arabic_indic_port": "10.0.0.3,1001,10.0.0.4,٨٠,UDP,200.0,1.0,DoS\n".encode(),
    "fullwidth_port": "10.0.0.3,８０,10.0.0.4,81,UDP,200.0,1.0,DoS\n".encode(),
    "plus_sign_port": b"10.0.0.3,1001,10.0.0.4,+80,UDP,200.0,1.0,DoS\n",
    "underscore_port": b"10.0.0.3,8_0,10.0.0.4,81,UDP,200.0,1.0,DoS\n",
    "arabic_indic_start_time": "10.0.0.3,1001,10.0.0.4,81,UDP,٣,1.0,DoS\n".encode(),
    "underscore_duration": b"10.0.0.3,1001,10.0.0.4,81,UDP,200.0,1_0,DoS\n",
}

# case -> (second data row, expected error); the first row is always good
HOSTILE_FLOW_ROWS = {
    "non_integer_src_port": (b"10.0.0.3,10x1,10.0.0.4,81,UDP,200.0,1.0,DoS\n", ValueOutOfRange),
    "non_integer_dst_port": (b"10.0.0.3,1001,10.0.0.4,8.1,UDP,200.0,1.0,DoS\n", ValueOutOfRange),
    "empty_port": (b"10.0.0.3,,10.0.0.4,81,UDP,200.0,1.0,DoS\n", ValueOutOfRange),
    "short_row": (b"10.0.0.3,1001,10.0.0.4\n", ValueOutOfRange),
    "non_utf8_label": (b"10.0.0.3,1001,10.0.0.4,81,UDP,200.0,1.0,Do\xffS\n", BadEncoding),
    "nan_duration": (b"10.0.0.3,1001,10.0.0.4,81,UDP,200.0,nan,DoS\n", ValueOutOfRange),
    "inf_duration": (b"10.0.0.3,1001,10.0.0.4,81,UDP,200.0,inf,DoS\n", ValueOutOfRange),
    "overflowing_duration": (b"10.0.0.3,1001,10.0.0.4,81,UDP,200.0,1e999,DoS\n", ValueOutOfRange),
    "non_numeric_duration": (b"10.0.0.3,1001,10.0.0.4,81,UDP,200.0,long,DoS\n", ValueOutOfRange),
    "nan_start_time": (b"10.0.0.3,1001,10.0.0.4,81,UDP,NaN,1.0,DoS\n", ValueOutOfRange),
    "inf_start_time": (b"10.0.0.3,1001,10.0.0.4,81,UDP,-inf,1.0,DoS\n", ValueOutOfRange),
    "src_port_above_65535": (b"10.0.0.3,65536,10.0.0.4,81,UDP,200.0,1.0,DoS\n", ValueOutOfRange),
    "negative_dst_port": (b"10.0.0.3,1001,10.0.0.4,-1,UDP,200.0,1.0,DoS\n", ValueOutOfRange),
    **{case: (row, ValueOutOfRange) for case, row in NUMBER_SPELLINGS.items()},
}

# case -> a second data row whose one bad field the reader refuses, naming line 3
LINE_NAMED_FLOW_ROWS = {
    "port_70000": b"10.0.0.3,70000,10.0.0.4,80,UDP,200.0,1.0,DoS\n",
    "port_x": b"10.0.0.3,x,10.0.0.4,81,UDP,200.0,1.0,DoS\n",
    "negative_duration": b"10.0.0.3,1001,10.0.0.4,81,UDP,200.0,-1.0,DoS\n",
    "nan_start_time": b"10.0.0.3,1001,10.0.0.4,81,UDP,nan,1.0,DoS\n",
    "start_time_yesterday": b"10.0.0.3,1001,10.0.0.4,81,UDP,yesterday,1.0,DoS\n",
    "protocol_icmp": b"10.0.0.3,1001,10.0.0.4,81,ICMP,200.0,1.0,DoS\n",
    "empty_label": b"10.0.0.3,1001,10.0.0.4,81,UDP,200.0,1.0,\n",
    "address": b"10.0.0.03,1001,10.0.0.4,81,UDP,200.0,1.0,DoS\n",
    "short_row": b"10.0.0.3,1001,10.0.0.4\n",
    "long_row": b"10.0.0.3,1001,10.0.0.4,81,UDP,200.0,1.0,DoS,extra\n",
    "field_above_csv_limit": b"10.0.0.3,1001,10.0.0.4,81,UDP,200.0,1.0," + b"D" * 200_000 + b"\n",
    **NUMBER_SPELLINGS,
}


class TestFlowCsv:
    def test_column_mapping(self, tmp_path):
        csv_path = tmp_path / "flows.csv"
        csv_path.write_text(
            "Src IP,Src Port,Dst IP,Dst Port,Protocol,Timestamp,Flow Duration,Label\n"
            "10.0.0.1,1000,10.0.0.2,80,6,100.5,3.5,BENIGN\n"
            "10.0.0.3,1001,10.0.0.4,81,UDP,200.0,1.0,DoS\n"
        )
        column_map = {
            "src_ip": "Src IP",
            "src_port": "Src Port",
            "dst_ip": "Dst IP",
            "dst_port": "Dst Port",
            "protocol": "Protocol",
            "start_time": "Timestamp",
            "duration": "Flow Duration",
            "label": "Label",
        }
        flows = read_flow_csv(csv_path, column_map)
        assert flows.dtype == FLOW_DTYPE and len(flows) == 2
        assert flows.ip.tolist() == [[0x0A000001, 0x0A000002], [0x0A000003, 0x0A000004]]
        assert flows.port.tolist() == [[1000, 80], [1001, 81]]
        assert flows.tcp.tolist() == [True, False]
        assert flows.window.tolist() == [[100.5, 104.0], [200.0, 201.0]]
        assert flows.label.tolist() == ["BENIGN", "DoS"]

    def test_missing_mapped_column(self, tmp_path):
        csv_path = tmp_path / "flows.csv"
        csv_path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueOutOfRange):
            read_flow_csv(csv_path, {c: c for c in ("src_ip", "src_port", "dst_ip", "dst_port", "protocol", "start_time", "duration", "label")})

    @pytest.mark.parametrize("case", sorted(HOSTILE_FLOW_ROWS))
    def test_hostile_row_is_pipeline_error(self, tmp_path, case):
        row, error = HOSTILE_FLOW_ROWS[case]
        csv_path = tmp_path / "flows.csv"
        csv_path.write_bytes(_FLOW_HEADER.encode() + _GOOD_FLOW_ROW + row)
        with pytest.raises(error) as info:
            read_flow_csv(csv_path, _FLOW_COLUMN_MAP)
        assert info.value.exit_code == (2 if error is BadEncoding else 3)

    @pytest.mark.parametrize("case", sorted(LINE_NAMED_FLOW_ROWS))
    def test_row_error_names_its_line_once(self, tmp_path, case):
        csv_path = tmp_path / "flows.csv"
        csv_path.write_bytes(_FLOW_HEADER.encode() + _GOOD_FLOW_ROW + LINE_NAMED_FLOW_ROWS[case])
        with pytest.raises(ValueOutOfRange) as info:
            read_flow_csv(csv_path, _FLOW_COLUMN_MAP)
        message = str(info.value)
        assert message.startswith("flow CSV line 3: ") and message.count("flow CSV line") == 1, message

    def test_port_range_ends_accepted(self, tmp_path):
        csv_path = tmp_path / "flows.csv"
        csv_path.write_bytes(_FLOW_HEADER.encode() + b"10.0.0.1,0,10.0.0.2,65535,TCP,0,0,BENIGN\n")
        (flow,) = read_flow_csv(csv_path, _FLOW_COLUMN_MAP)
        assert (flow.port.tolist(), flow.window.tolist()) == ([0, 65535], [0.0, 0.0])


def _mutate(data, blob: bytes) -> bytes:
    """One byte of `blob` changed to another value, or `blob` cut short."""
    blob = bytearray(blob)
    if data.draw(st.booleans(), label="truncate"):
        return bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="length")])
    pos = data.draw(st.integers(0, len(blob) - 1), label="offset")
    blob[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]), label="byte")
    return bytes(blob)


@pytest.fixture(scope="module")
def decoder_inputs(tmp_path_factory):
    """A small valid capture and flow CSV, plus a directory for mutants."""
    frames = [
        ipv4_packet("10.0.0.1", "10.0.0.2", 1234, 80, "TCP", b"GET / HTTP/1.1"),
        arp_frame(),
        ipv4_packet("10.0.0.3", "10.0.0.4", 5353, 53, "UDP", b"\x01\x02\x03"),
        ipv4_packet("10.0.0.5", "10.0.0.6", 40000, 443, "TCP", b""),
    ]
    flows = _FLOW_HEADER.encode() + _GOOD_FLOW_ROW + b"10.0.0.3,5353,10.0.0.4,53,UDP,2024-01-02T03:04:05,0.25,DNS\n"
    return tmp_path_factory.mktemp("decoders"), build_pcap(frames, timestamps=[0.5, 1.0, 1.5, 2.0]), flows


class TestDecoderMutations:
    """A single-byte mutation or a truncation of a valid input decodes, or
    fails with a PipelineError and its documented exit code."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_capture_is_result_or_format_error(self, decoder_inputs, data):
        root, pcap, _ = decoder_inputs
        path = root / "mutated.pcap"
        path.write_bytes(_mutate(data, pcap))
        try:
            result = parse_capture(path)
        except PipelineError as exc:
            assert exc.exit_code == 2  # every capture error is a format error
            return
        assert isinstance(result, ParseResult)
        assert all(packet.protocol in ("TCP", "UDP") for packet in result)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_flow_csv_is_flows_or_pipeline_error(self, decoder_inputs, data):
        root, _, flows = decoder_inputs
        path = root / "mutated.csv"
        path.write_bytes(_mutate(data, flows))
        try:
            records = read_flow_csv(path, _FLOW_COLUMN_MAP)
        except (BadEncoding, ValueOutOfRange) as exc:
            assert exc.exit_code == (2 if isinstance(exc, BadEncoding) else 3)
            return
        assert records.dtype == FLOW_DTYPE and all(records.label)
        assert ((0 <= records.port) & (records.port <= 0xFFFF)).all()
        assert np.isfinite(records.window).all() and (records.window[:, 0] <= records.window[:, 1]).all()
