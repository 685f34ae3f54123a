"""The generators write what the program reads, with the counts they promise."""

import numpy as np
import pytest

import corpus
from osnids import capture, persistence
from osnids.config import DEFAULT_COLUMN_MAP

SMALL = corpus.CorpusSpec(
    benign_templates=3,
    known_classes=2,
    unknown_classes=2,
    benign_per_template=12,
    attack_per_class=10,
    non_ip_frames=4,
    icmp_frames=3,
    unmatched_frames=5,
    empty_frames=2,
)


@pytest.fixture
def written(tmp_path):
    corp = corpus.build_ingest_corpus(5, SMALL)
    corpus.write_ingest_files(corp, 5, tmp_path / "c.pcap", tmp_path / "f.csv")
    return corp, tmp_path / "c.pcap", tmp_path / "f.csv"


def test_pcap_reads_back_with_the_intended_counts(written):
    corp, pcap, flows = written
    parsed = capture.parse_capture(pcap)
    assert len(parsed.packets) == corp.expected["packets"]
    assert parsed.skipped == corp.expected["skipped"]

    labeled, report = capture.label_packets(parsed.packets, capture.read_flow_csv(flows, DEFAULT_COLUMN_MAP))
    assert (report.matched, report.no_match, report.empty_payload) == (
        corp.expected["matched"], corp.expected["no_match"], corp.expected["empty_payload"])
    assert labeled.class_names == SMALL.class_names
    deduped = capture.deduplicate(labeled.samples)
    assert len(deduped) == corp.expected["after_dedup"]
    assert len(capture.undersample_benign(deduped, SMALL.undersample_ratio, 0)) == corp.expected["after_undersample"]


def test_payloads_arrive_with_their_class(written):
    corp, pcap, flows = written
    parsed = capture.parse_capture(pcap)
    labeled, _ = capture.label_packets(parsed.packets, capture.read_flow_csv(flows, DEFAULT_COLUMN_MAP))
    want = {(corp.rows[i].tobytes(), int(corp.row_label[i])) for i in range(len(corp.rows))}
    assert {(s.features.tobytes(), s.label) for s in labeled.samples} == want


def test_same_seed_same_bytes(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        corp = corpus.build_ingest_corpus(seed, SMALL)
        corpus.write_ingest_files(corp, seed, tmp_path / f"{name}.pcap", tmp_path / f"{name}.csv")
    read = lambda n: (tmp_path / n).read_bytes()
    assert read("a.pcap") == read("b.pcap") and read("a.csv") == read("b.csv")
    assert read("a.pcap") != read("c.pcap")


def test_sset_writer_and_reader_agree_with_the_program(tmp_path):
    corp = corpus.build_ingest_corpus(1, SMALL)
    corpus.write_sset(tmp_path / "x.sset", SMALL.class_names, corp.rows, corp.row_label)
    loaded = persistence.load_sample_set(tmp_path / "x.sset")
    assert loaded.class_names == SMALL.class_names
    assert np.array_equal(np.stack([s.features for s in loaded.samples]), corp.rows)
    assert [s.label for s in loaded.samples] == corp.row_label.tolist()

    persistence.save_sample_set(loaded, tmp_path / "y.sset")
    names, records = corpus.read_sset(tmp_path / "y.sset")
    assert names == SMALL.class_names
    assert np.array_equal(records["f"], corp.rows) and np.all(records["cluster"] == -1)


def test_unknown_rows_mutate_their_parent_template():
    corp = corpus.build_ingest_corpus(2, SMALL)
    tpl = corp.templates
    for u, parent in enumerate(tpl.unknown_parent):
        label = SMALL.class_names.index(SMALL.unknown_names[u])
        rows = corp.rows[corp.row_label == label].astype(np.int64)
        far = np.abs(rows - tpl.benign[parent].astype(np.int64)) > 4 * SMALL.noise_sigma
        # only mutated bytes stand out from the parent; a mutation that wraps
        # round to a nearby value can hide among the noise
        k = round(SMALL.mutated_share * tpl.benign_len[parent])
        assert np.all(far.sum(axis=1) <= k)
        assert np.all(far.sum(axis=1) >= k // 2)


def test_stream_rows_come_from_the_corpus_templates():
    corp = corpus.build_ingest_corpus(2, SMALL)
    rows, unknown = corpus.build_stream(2, corp, 400, 0.25)
    assert rows.shape == (400, corpus.FEATURE_LEN) and unknown.sum() == 100
    benign = rows[~unknown].astype(np.int64)
    nearest = np.abs(benign[:, None, :] - corp.templates.benign[None].astype(np.int64)).max(axis=2).min(axis=1)
    assert np.all(nearest <= 8 * SMALL.noise_sigma)
