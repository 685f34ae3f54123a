"""Acceptance gate: ten criteria, one test each, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from osnids.capture import extract_payload_features, parse_capture
from osnids.clustering import EmbeddingParams, kmeans, select_cluster_count, silhouette_score, tsne_embed
from osnids.config import default_config
from osnids.evaluation import naive_baseline
from osnids.learners import CONVNET, LOGISTIC
from osnids.meta import UNKNOWN_ATTACK, BENIGN, vote
from osnids.persistence import load_sample_set
from osnids import pipeline
from osnids.splits import SplitSpec, build_splits
from osnids.samples import SampleSet, make_records

from helpers import (
    arp_frame,
    build_pcap,
    gradient_check,
    ipv4_packet,
    kmeans_partition_oracle,
    silhouette_oracle,
)


@contextmanager
def _criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:02d}] {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s budget"


def test_criterion_01_voting_rule():
    with _criterion(1, "voting rule, 16-case enumeration", 1.0):
        for bits in itertools.product((0, 1), repeat=4):
            verdict = vote(bits)
            v = sum(bits) / 4
            assert verdict.v == v
            assert verdict.decision == (UNKNOWN_ATTACK if v >= 0.5 else BENIGN)
        assert vote((1, 1, 0, 0)).decision == UNKNOWN_ATTACK  # tie goes to attack


def test_criterion_02_payload_extraction(tmp_path):
    with _criterion(2, "payload extraction on hand-built pcap fixtures", 1.0):
        frames = [
            ipv4_packet("10.0.0.1", "10.0.0.2", 1000, 80, "TCP", b"\x01\x02\x03"),
            ipv4_packet("10.0.0.1", "10.0.0.2", 1001, 53, "UDP", bytes(range(256)) * 6 + b"\xee" * 64),
            ipv4_packet("10.0.0.1", "10.0.0.2", 1002, 80, "TCP", b""),
            arp_frame(),
        ]
        path = tmp_path / "fixtures.pcap"
        path.write_bytes(build_pcap(frames))
        result = parse_capture(path)

        assert len(result.packets) == 3  # the ARP frame is skipped
        assert result.skipped == {"non_ip": 1}

        tcp_vec = extract_payload_features(result.packets[0])
        assert list(tcp_vec[:3]) == [1, 2, 3]
        assert not tcp_vec[3:].any()

        udp_payload = bytes(range(256)) * 6 + b"\xee" * 64  # 1600 bytes
        udp_vec = extract_payload_features(result.packets[1])
        assert udp_vec.shape == (1500,)
        assert bytes(udp_vec) == udp_payload[:1500]  # truncated, byte exact

        assert extract_payload_features(result.packets[2]) is None  # empty payload


def test_criterion_03_kmeans_exhaustive_oracle():
    with _criterion(3, "k-means vs exhaustive-partition oracle (20 instances)", 10.0):
        rng = np.random.default_rng(303)
        for _ in range(20):
            P = rng.uniform(0, 10, (8, 2))
            result = kmeans(P, 3, restarts=50, seed=int(rng.integers(2**31)))
            optimum = kmeans_partition_oracle(P, 3)
            assert result.sse <= optimum + 1e-9


def test_criterion_04_silhouette_oracle():
    with _criterion(4, "silhouette vs definition-level oracle (20 instances)", 5.0):
        rng = np.random.default_rng(404)
        for _ in range(20):
            P = rng.uniform(0, 10, (50, 2))
            labels = rng.integers(0, 4, 50)
            labels[:4] = [0, 1, 2, 3]
            assert abs(silhouette_score(P, labels) - silhouette_oracle(P, labels)) <= 1e-9


def _gaussian_blobs(rng, n_centers=7, n_per=100, sigma=0.5, min_sep=10.0):
    centers = []
    while len(centers) < n_centers:
        c = rng.uniform(0, 60, 2)
        if all(np.linalg.norm(c - o) >= min_sep for o in centers):
            centers.append(c)
    return np.vstack([c + rng.normal(0, sigma, (n_per, 2)) for c in centers])


def test_criterion_05_cluster_count_selection():
    with _criterion(5, "cluster-count selection finds 7 in >= 9 of 10 seeds", 120.0):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(5000 + seed)
            P = _gaussian_blobs(rng)
            report = select_cluster_count(P, 2, 15, restarts=10, seed=seed)
            hits += int(report.selected_n == 7)
        assert hits >= 9, f"selected 7 clusters in only {hits} of 10 seeds"


def test_criterion_06_tsne_sanity():
    with _criterion(6, "t-SNE finiteness, determinism, KL windows", 60.0):
        rng = np.random.default_rng(606)
        X = np.vstack([rng.normal(0, 0.5, (100, 10)), rng.normal(5, 0.5, (100, 10))])
        params = EmbeddingParams(seed=6)
        Y1, trace = tsne_embed(X, params, return_trace=True)
        assert np.all(np.isfinite(Y1))
        Y2 = tsne_embed(X, params)
        assert Y1.tobytes() == Y2.tobytes()
        assert len(trace) >= 2
        assert all(trace[i + 1] <= trace[i] + 1e-6 for i in range(len(trace) - 1))


def test_criterion_07_gradient_checks():
    with _criterion(7, "analytic vs finite-difference gradients (both kinds)", 30.0):
        for kind in (LOGISTIC, CONVNET):
            for seed in range(5):
                err = gradient_check(kind, seed, n_coords=20, h=1e-4)
                assert err <= 1e-4, f"{kind} seed {seed}: max rel err {err}"


def test_criterion_08_split_integrity():
    with _criterion(8, "split ratios exact and zero held-out leakage (10 seeds)", 5.0):
        rng = np.random.default_rng(808)

        names = ["benign", "known_a", "known_b", "held_a", "held_b"]
        for n_benign in (1000, 137):
            labels = [0] * n_benign + [1 + i % 2 for i in range(60)] + [3 + i % 2 for i in range(40)]
            feats = rng.integers(0, 256, (len(labels), 1500)).astype(np.uint8)
            feats[:, 0] = np.maximum(feats[:, 0], 1)
            corpus = SampleSet(class_names=names, samples=make_records(feats, labels))
            for seed in range(10):
                result = build_splits(
                    corpus, SplitSpec(heldout_classes=frozenset({"held_a", "held_b"}), seed=seed)
                )
                benign = lambda part: sum(1 for s in part if s.label == 0)
                cut1 = int(0.5 * n_benign + 1e-9)
                cut2 = int(0.8 * n_benign + 1e-9)
                assert benign(result.d1) == cut1
                assert benign(result.d2) == cut2 - cut1
                assert benign(result.d3) == n_benign - cut2
                assert not any(s.label in (3, 4) for part in (result.d1, result.d2) for s in part)
                assert sum(1 for s in result.d3 if s.label in (3, 4)) == 40


def test_criterion_09_end_to_end_synthetic(tmp_path):
    with _criterion(9, "end-to-end synthetic open-set run", 300.0):
        cfg = default_config()
        cfg["workdir"] = str(tmp_path / "run")
        cfg["seed"] = 7
        report = pipeline.run_pipeline(cfg)

        assert report.sensitivity is not None and report.sensitivity >= 0.90
        assert report.specificity is not None and report.specificity >= 0.90

        # naive baseline at matched specificity (quantile picked to bring its
        # specificity within 0.02 of the pipeline's)
        d1 = load_sample_set(tmp_path / "run" / pipeline.D1_CLUSTERED)
        d3 = load_sample_set(tmp_path / "run" / pipeline.D3)
        candidates = []
        for quantile in (0.90, 0.95, 0.99, 1.0):
            b = naive_baseline(d1.samples, d3.samples, d3.class_names, threshold_quantile=quantile)
            candidates.append((abs(b.specificity - report.specificity), quantile, b))
        gap, quantile, matched = min(candidates, key=lambda t: t[0])
        assert gap <= 0.02, f"no baseline quantile matches specificity within 0.02 (best {gap})"
        assert report.sensitivity >= matched.sensitivity, (
            f"stacked sensitivity {report.sensitivity} < baseline {matched.sensitivity} "
            f"at matched specificity (quantile {quantile})"
        )


def test_criterion_10_persistence_round_trips(tmp_path):
    with _criterion(10, "sample-set and bundle round-trips bit-identical", 10.0):
        from osnids.learners import TrainingConfig, meta_feature_matrix, train_base_ensemble
        from osnids.meta import MetaConfig, predict_batch, train_meta_classifiers
        from osnids.persistence import load_bundle, save_bundle, save_sample_set

        rng = np.random.default_rng(1010)

        def noisy(template):
            vec = np.clip(np.rint(template + rng.normal(0, 5, 1500)), 0, 255).astype(np.uint8)
            vec[0] = max(int(vec[0]), 1)
            return vec

        templates = rng.integers(0, 256, (4, 1500))
        benign_rows = np.stack([noisy(templates[c]) for c in range(2) for _ in range(25)])
        benign = make_records(benign_rows, 0, np.repeat([0, 1], 25))
        sample_set = SampleSet(class_names=["benign", "atk"], samples=make_records(benign_rows, 0))
        path = tmp_path / "corpus.sset"
        save_sample_set(sample_set, path)
        assert load_sample_set(path) == sample_set
        save_sample_set(load_sample_set(path), tmp_path / "again.sset")
        assert (tmp_path / "again.sset").read_bytes() == path.read_bytes()

        base = train_base_ensemble(benign, 2, config=TrainingConfig(epochs=5, seed=0))
        attack_rows = np.stack([noisy(templates[c]) for c in (2, 3) for _ in range(25)])
        d2 = make_records(np.concatenate([benign_rows, attack_rows]), [0] * 50 + [1] * 50)
        mf = meta_feature_matrix(base, d2)
        labels = (d2.label != 0).astype(np.float64)
        meta_ens = train_meta_classifiers(
            mf, labels, config=MetaConfig(forest_trees=10, boost_rounds=10), seed=0
        )

        save_bundle(base, meta_ens, tmp_path / "bundle")
        base2, meta2 = load_bundle(tmp_path / "bundle")
        probe_rows = rng.integers(0, 256, (100, 1500)).astype(np.uint8)
        probe_rows[:, 0] = np.maximum(probe_rows[:, 0], 1)
        probe = make_records(probe_rows, 0)
        v1, mf1 = predict_batch(base, meta_ens, probe)
        v2, mf2 = predict_batch(base2, meta2, probe)
        assert mf1.tobytes() == mf2.tobytes()
        assert [(v.decision, v.v, v.outputs) for v in v1] == [
            (v.decision, v.v, v.outputs) for v in v2
        ]
