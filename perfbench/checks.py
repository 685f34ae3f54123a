"""Correctness checks on the program's outputs.

Each check recomputes what it can from the benchmark's own inputs, or tests a
property the method must have, and raises `CheckFailed` naming the first
difference. None compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
from collections import Counter

import numpy as np

BENIGN = "benign"
UNKNOWN_ATTACK = "unknown_attack"
VOTE_ARITY = 4


class CheckFailed(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_ingest_report(report: dict, expected: dict) -> None:
    """Every count in the ingest report equals what the benchmark wrote."""
    for key, want in expected.items():
        _expect(report.get(key) == want, f"ingest_report {key}: program says {report.get(key)!r}, wrote {want!r}")


def _keys(features: np.ndarray, labels) -> Counter:
    return Counter(f.tobytes() + int(label).to_bytes(2, "little") for f, label in zip(features, labels))


def _row_keys(records) -> Counter:
    return _keys(records["f"], records["label"])


def check_ingested_rows(samples, rows: np.ndarray, labels: np.ndarray) -> None:
    """Every ingested row is one the benchmark wrote, with its class, and
    appears once."""
    got = _row_keys(samples)
    _expect(max(got.values()) == 1, "a payload survived deduplication twice")
    _expect(set(got) <= set(_keys(rows, labels)), "samples.sset holds a row the benchmark never wrote")


def check_split(samples, d1, d2, d3, class_names: list[str], heldout: list[str]) -> None:
    """The split keeps every input row exactly once, D1 is benign only and D3
    holds every held-out-class row (records as read by `corpus.read_sset`)."""
    _expect(_row_keys(samples) == _row_keys(d1) + _row_keys(d2) + _row_keys(d3),
            "d1 + d2 + d3 is not the input sample set, row for row")
    _expect(len(d1) > 0 and bool(np.all(d1["label"] == 0)), "d1 holds a non-benign row")
    held_ids = [class_names.index(name) for name in heldout]
    n_held = int(np.isin(samples["label"], held_ids).sum())
    _expect(int(np.isin(d3["label"], held_ids).sum()) == n_held, "d3 lacks some held-out-class rows")
    _expect(not np.isin(d2["label"], held_ids).any(), "d2 holds a held-out-class row")


def nearest_template(rows: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """Index of the template nearest to each row, in squared byte distance."""
    X = rows.astype(np.float64)
    T = templates.astype(np.float64)
    d2 = (X * X).sum(1)[:, None] + (T * T).sum(1)[None, :] - 2.0 * X @ T.T
    return d2.argmin(axis=1)


def check_clusters(d1_clustered, selected_n: int, templates: np.ndarray) -> None:
    """N equals the number of benign templates, and the clusters and the
    generating templates match one to one."""
    _expect(selected_n == len(templates), f"selected N={selected_n}, but the corpus has {len(templates)} benign templates")
    cluster = d1_clustered["cluster"].astype(np.int64)
    _expect(bool(np.all((cluster >= 0) & (cluster < selected_n))), "a d1 row has no cluster id in 0..N-1")
    pairs = set(zip(cluster.tolist(), nearest_template(d1_clustered["f"], templates).tolist()))
    _expect(len(pairs) == selected_n and len({c for c, _ in pairs}) == len({t for _, t in pairs}) == selected_n,
            f"clusters and templates do not match one to one: {sorted(pairs)}")


def read_verdicts(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_verdicts(header: list[str], rows: list[list[str]], n_expected: int) -> None:
    """One row per sample, in order; v is the mean of the four O bits and the
    decision is unknown_attack exactly when v >= 0.5."""
    n_p = len(header) - VOTE_ARITY - 3
    want = ["index"] + [f"p_{i + 1}" for i in range(n_p)] + [f"O_{i + 1}" for i in range(VOTE_ARITY)] + ["v", "decision"]
    _expect(header == want, f"verdict header {header}")
    _expect(len(rows) == n_expected, f"{len(rows)} verdict rows for {n_expected} samples")
    for i, row in enumerate(rows):
        _expect(len(row) == len(header) and row[0] == str(i), f"verdict row {i} malformed: {row[:2]}")
        p = [float(x) for x in row[1 : 1 + n_p]]
        _expect(all(0.0 <= x <= 1.0 for x in p), f"verdict row {i}: a membership probability is outside [0, 1]")
        bits = row[1 + n_p : 1 + n_p + VOTE_ARITY]
        _expect(all(b in ("0", "1") for b in bits), f"verdict row {i}: O bits {bits}")
        v = sum(int(b) for b in bits) / VOTE_ARITY
        _expect(float(row[-2]) == v, f"verdict row {i}: v={row[-2]} but the O bits average {v}")
        _expect(row[-1] == (UNKNOWN_ATTACK if v >= 0.5 else BENIGN), f"verdict row {i}: decision {row[-1]} for v={v}")


def flagged(rows: list[list[str]]) -> np.ndarray:
    return np.array([row[-1] == UNKNOWN_ATTACK for row in rows])


def confusion(is_attack: np.ndarray, predicted: np.ndarray) -> dict:
    return {
        "tp": int((is_attack & predicted).sum()),
        "tn": int((~is_attack & ~predicted).sum()),
        "fp": int((~is_attack & predicted).sum()),
        "fn": int((is_attack & ~predicted).sum()),
    }


def check_eval_report(report: dict, rows: list[list[str]], d3_labels: np.ndarray, class_names: list[str]) -> None:
    """Confusion counts, both rates and the per-class rates match what the
    verdict file and the known class of each D3 row give."""
    is_attack = np.asarray(d3_labels) != 0
    predicted = flagged(rows)
    _expect(len(predicted) == len(is_attack), "verdict rows and d3 rows differ in number")
    counts = confusion(is_attack, predicted)
    for key, want in counts.items():
        _expect(report.get(key) == want, f"eval_report {key}={report.get(key)!r}, verdicts give {want}")
    pos, neg = counts["tp"] + counts["fn"], counts["tn"] + counts["fp"]
    _expect(report.get("sensitivity") == (counts["tp"] / pos if pos else None), "eval_report sensitivity")
    _expect(report.get("specificity") == (counts["tn"] / neg if neg else None), "eval_report specificity")
    for label in np.unique(d3_labels):
        mask = np.asarray(d3_labels) == label
        hits = predicted[mask] if label != 0 else ~predicted[mask]
        want = int(hits.sum()) / int(mask.sum())
        name = class_names[int(label)]
        _expect(report.get("per_class", {}).get(name) == want, f"eval_report per_class[{name}]")


def check_single_verdicts(singles: list[tuple], rows: list[list[str]], indices, p_tol: float = 1e-9) -> None:
    """Each single-row verdict (O bits, v, decision) equals the batch verdict
    for its row exactly; membership probabilities agree within `p_tol`,
    since a one-row product may round differently from a batched one."""
    for (bits, v, decision, p), i in zip(singles, indices):
        row = rows[i]
        n_p = len(row) - VOTE_ARITY - 3
        batch_bits = tuple(int(b) for b in row[1 + n_p : 1 + n_p + VOTE_ARITY])
        _expect(tuple(bits) == batch_bits and repr(v) == row[-2] and decision == row[-1],
                f"row {i}: single verdict {bits, v, decision} differs from batch {batch_bits, row[-2], row[-1]}")
        batch_p = np.array([float(x) for x in row[1 : 1 + n_p]])
        _expect(bool(np.all(np.abs(np.asarray(p) - batch_p) <= p_tol)), f"row {i}: single p differs from batch p")


def check_stream_rates(rows: list[list[str]], is_unknown: np.ndarray, min_detect: float, min_benign: float) -> tuple[float, float]:
    """Share of unknown-template rows flagged and of benign rows passed, each
    at least its floor. Returns the two shares."""
    predicted = flagged(rows)
    _expect(len(predicted) == len(is_unknown), "verdict rows and stream rows differ in number")
    detect = float(predicted[is_unknown].mean())
    benign = float((~predicted[~is_unknown]).mean())
    _expect(detect >= min_detect, f"only {detect:.3f} of unknown-template stream rows flagged (floor {min_detect})")
    _expect(benign >= min_benign, f"only {benign:.3f} of benign stream rows passed (floor {min_benign})")
    return detect, benign
