"""Each correctness check passes consistent outputs and rejects corrupted ones."""

import copy

import numpy as np
import pytest

import checks
import corpus
from checks import CheckFailed

HEADER = ["index", "p_1", "p_2", "O_1", "O_2", "O_3", "O_4", "v", "decision"]


def verdict_row(i, bits, p=(0.25, 0.75)):
    v = sum(bits) / 4
    return [str(i), repr(p[0]), repr(p[1]), *map(str, bits), repr(v), "unknown_attack" if v >= 0.5 else "benign"]


# d3: two benign rows, then three rows of class 2 (held out)
D3_LABELS = np.array([0, 0, 2, 2, 2])
CLASS_NAMES = ["BENIGN", "known_00", "unknown_00"]
ROWS = [verdict_row(0, (0, 0, 0, 0)), verdict_row(1, (1, 1, 0, 0)), verdict_row(2, (1, 1, 1, 1)),
        verdict_row(3, (0, 1, 1, 0)), verdict_row(4, (0, 0, 0, 1))]
REPORT = {"tp": 2, "tn": 1, "fp": 1, "fn": 1, "sensitivity": 2 / 3, "specificity": 0.5,
          "per_class": {"BENIGN": 0.5, "unknown_00": 2 / 3}}


def corrupted(rows, i, col, value):
    out = copy.deepcopy(rows)
    out[i][col] = value
    return out


def test_verdict_check():
    checks.check_verdicts(HEADER, ROWS, 5)
    for bad in (corrupted(ROWS, 1, 7, "0.25"),  # v is not the mean of the bits
                corrupted(ROWS, 0, 8, "unknown_attack"),  # decision disagrees with v
                corrupted(ROWS, 1, 8, "benign"),  # v = 0.5 is an attack
                corrupted(ROWS, 2, 3, "2"),  # not a bit
                corrupted(ROWS, 3, 0, "7"),  # out of order
                corrupted(ROWS, 4, 1, "1.5")):  # not a probability
        with pytest.raises(CheckFailed):
            checks.check_verdicts(HEADER, bad, 5)
    with pytest.raises(CheckFailed):
        checks.check_verdicts(HEADER, ROWS[:4], 5)
    with pytest.raises(CheckFailed):
        checks.check_verdicts(HEADER[:-1] + ["verdict"], ROWS, 5)


def test_eval_report_check():
    checks.check_eval_report(REPORT, ROWS, D3_LABELS, CLASS_NAMES)
    for key, value in (("tp", 3), ("fn", 0), ("sensitivity", 0.5), ("specificity", 1.0)):
        with pytest.raises(CheckFailed):
            checks.check_eval_report({**REPORT, key: value}, ROWS, D3_LABELS, CLASS_NAMES)
    with pytest.raises(CheckFailed):
        checks.check_eval_report({**REPORT, "per_class": {"BENIGN": 0.5, "unknown_00": 1.0}}, ROWS, D3_LABELS, CLASS_NAMES)
    with pytest.raises(CheckFailed):  # the verdict file, not the report, was corrupted
        checks.check_eval_report(REPORT, corrupted(ROWS, 4, 8, "unknown_attack"), D3_LABELS, CLASS_NAMES)


def test_ingest_report_check():
    expected = {"packets": 10, "skipped": {"non_ip": 2}, "matched": 7, "no_match": 1,
                "empty_payload": 2, "after_dedup": 6, "after_undersample": 5}
    checks.check_ingest_report(dict(expected, extra=1), expected)
    for key, value in (("packets", 11), ("skipped", {"non_ip": 3}), ("after_dedup", 7), ("after_undersample", 6)):
        with pytest.raises(CheckFailed):
            checks.check_ingest_report({**expected, key: value}, expected)
    with pytest.raises(CheckFailed):
        checks.check_ingest_report({k: v for k, v in expected.items() if k != "no_match"}, expected)


def records(features, labels, cluster=None):
    out = np.zeros(len(labels), dtype=corpus.SSET_RECORD)
    out["f"] = features
    out["label"] = labels
    out["cluster"] = -1 if cluster is None else cluster
    return out


def small_split():
    rng = np.random.default_rng(0)
    feats = rng.integers(1, 256, size=(8, corpus.FEATURE_LEN), dtype=np.uint8)
    labels = np.array([0, 0, 0, 0, 1, 1, 2, 2])
    samples = records(feats, labels)
    return samples, samples[[0, 1]], samples[[2, 4, 5]], samples[[3, 6, 7]]


def test_split_check():
    samples, d1, d2, d3 = small_split()
    checks.check_split(samples, d1, d2, d3, CLASS_NAMES, ["unknown_00"])
    with pytest.raises(CheckFailed):  # a row lost
        checks.check_split(samples, d1, d2[:2], d3, CLASS_NAMES, ["unknown_00"])
    with pytest.raises(CheckFailed):  # a row twice
        checks.check_split(samples, d1, np.concatenate([d2, d1[:1]]), d3, CLASS_NAMES, ["unknown_00"])
    with pytest.raises(CheckFailed):  # an attack in d1
        checks.check_split(samples, samples[[0, 4]], samples[[1, 2, 5]], d3, CLASS_NAMES, ["unknown_00"])
    with pytest.raises(CheckFailed):  # a held-out row in d2
        checks.check_split(samples, d1, samples[[2, 4, 6]], samples[[3, 5, 7]], CLASS_NAMES, ["unknown_00"])


def test_ingested_rows_check():
    samples, *_ = small_split()
    checks.check_ingested_rows(samples, samples["f"], samples["label"])
    with pytest.raises(CheckFailed):  # a row never written
        checks.check_ingested_rows(samples, samples["f"][1:], samples["label"][1:])
    with pytest.raises(CheckFailed):  # a duplicate survived
        checks.check_ingested_rows(samples[[0, 0, 1]], samples["f"], samples["label"])
    with pytest.raises(CheckFailed):  # a row under another class
        checks.check_ingested_rows(records(samples["f"][:1], [1]), samples["f"], samples["label"])


def test_cluster_check():
    rng = np.random.default_rng(1)
    templates = rng.integers(1, 256, size=(3, corpus.FEATURE_LEN), dtype=np.uint8)
    tid = np.repeat(np.arange(3), 4)
    feats = np.clip(templates[tid].astype(int) + rng.integers(-3, 4, size=(12, corpus.FEATURE_LEN)), 0, 255)
    cluster = np.array([2, 0, 1])[tid]  # cluster ids are a relabelling of templates
    checks.check_clusters(records(feats, np.zeros(12), cluster), 3, templates)
    with pytest.raises(CheckFailed):  # N differs from the template count
        checks.check_clusters(records(feats, np.zeros(12), cluster), 4, templates)
    impure = cluster.copy()
    impure[0] = impure[5]
    with pytest.raises(CheckFailed):
        checks.check_clusters(records(feats, np.zeros(12), impure), 3, templates)
    merged = np.where(cluster == 2, 1, cluster)  # two templates in one cluster, one cluster empty
    with pytest.raises(CheckFailed):
        checks.check_clusters(records(feats, np.zeros(12), merged), 3, templates)


def test_single_verdict_check():
    singles = [((1, 1, 1, 1), 1.0, "unknown_attack", np.array([0.25, 0.75])),
               ((0, 0, 0, 0), 0.0, "benign", np.array([0.25, 0.75]))]
    checks.check_single_verdicts(singles, ROWS, [2, 0])
    with pytest.raises(CheckFailed):  # a flipped bit
        checks.check_single_verdicts([((1, 1, 1, 0), 1.0, "unknown_attack", singles[0][3])], ROWS, [2])
    with pytest.raises(CheckFailed):  # another row's verdict
        checks.check_single_verdicts(singles, ROWS, [0, 2])
    with pytest.raises(CheckFailed):  # membership probabilities apart
        checks.check_single_verdicts([(*singles[0][:3], np.array([0.25, 0.7]))], ROWS, [2])


def test_stream_rate_check():
    unknown = np.array([False, False, True, True, True])
    assert checks.check_stream_rates(ROWS, unknown, 0.5, 0.5) == (2 / 3, 0.5)
    with pytest.raises(CheckFailed):
        checks.check_stream_rates(ROWS, unknown, 0.9, 0.5)
    with pytest.raises(CheckFailed):
        checks.check_stream_rates(ROWS, unknown, 0.5, 0.9)
