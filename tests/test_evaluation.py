import numpy as np
import pytest

from osnids.errors import EmptyDataset, InvalidRange, SeparationUnsatisfiable
from osnids.evaluation import (
    EvalReport,
    SyntheticConfig,
    _report_from_predictions,
    generate_synthetic,
    naive_baseline,
)
from osnids.samples import make_records


class TestEvalReport:
    def test_headline_arithmetic(self):
        report = EvalReport(tp=88, tn=90, fp=10, fn=12)
        assert report.sensitivity == pytest.approx(0.88)
        assert report.specificity == pytest.approx(0.90)
        assert report.total() == 200

    def test_all_correct(self):
        report = EvalReport(tp=5, tn=5, fp=0, fn=0)
        assert report.sensitivity == 1.0 and report.specificity == 1.0

    def test_everything_predicted_benign(self):
        report = EvalReport(tp=0, tn=7, fp=0, fn=3)
        assert report.sensitivity == 0.0 and report.specificity == 1.0

    def test_absent_rates_when_denominator_zero(self):
        report = EvalReport(tp=0, tn=4, fp=1, fn=0)
        assert report.sensitivity is None
        d = report.to_dict()
        assert d["sensitivity"] is None


def _records(rng, labels):
    vecs = rng.integers(0, 256, (len(labels), 1500)).astype(np.uint8)
    vecs[:, 0] = np.maximum(vecs[:, 0], 1)
    return make_records(vecs, labels)


class TestReportFromPredictions:
    def test_counts_and_per_class(self):
        rng = np.random.default_rng(0)
        names = ["benign", "atk_a", "atk_b"]
        samples = _records(rng, [0, 1, 2])[[0] * 4 + [1] * 3 + [2] * 3]
        preds = [False, False, True, False, True, True, False, True, True, True]
        report = _report_from_predictions(samples, preds, names)
        assert (report.tn, report.fp) == (3, 1)
        assert (report.tp, report.fn) == (5, 1)
        assert report.total() == len(samples)
        assert report.per_class["benign"] == pytest.approx(3 / 4)
        assert report.per_class["atk_a"] == pytest.approx(2 / 3)
        assert report.per_class["atk_b"] == pytest.approx(1.0)


class TestGenerateSynthetic:
    def test_deterministic(self):
        cfg = SyntheticConfig(samples_per_class=5, seed=42)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert a.sample_set == b.sample_set
        assert np.array_equal(a.benign_templates, b.benign_templates)

    def test_counts(self):
        cfg = SyntheticConfig(samples_per_class=10, seed=1)
        corpus = generate_synthetic(cfg)
        labels = np.bincount(corpus.sample_set.samples.label, minlength=len(corpus.sample_set.class_names))
        counts = dict(zip(corpus.sample_set.class_names, labels.tolist()))
        assert counts["benign"] == 7 * 10
        assert sum(v for k, v in counts.items() if k.startswith("known_attack")) == 9 * 10
        assert sum(v for k, v in counts.items() if k.startswith("unknown_attack")) == 5 * 10
        assert corpus.heldout_classes == [f"unknown_attack_{i}" for i in range(5)]

    def test_pairwise_hamming_separation(self):
        cfg = SyntheticConfig(samples_per_class=1, min_hamming_separation=1200, seed=2)
        corpus = generate_synthetic(cfg)
        templates = np.vstack(
            [corpus.benign_templates, corpus.known_templates, corpus.unknown_templates]
        )
        n = templates.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                assert int((templates[i] != templates[j]).sum()) >= 1200

    def test_unsatisfiable_separation(self):
        cfg = SyntheticConfig(
            n_benign_clusters=3,
            n_known_attack_classes=3,
            n_unknown_attack_classes=3,
            samples_per_class=1,
            min_hamming_separation=1500,
            seed=3,
        )
        with pytest.raises(SeparationUnsatisfiable):
            generate_synthetic(cfg)

    def test_separation_larger_than_vector_rejected(self):
        with pytest.raises(InvalidRange):
            SyntheticConfig(min_hamming_separation=1501)

    def test_cluster_ids_unset(self):
        corpus = generate_synthetic(SyntheticConfig(samples_per_class=2, seed=4))
        assert all(s.cluster == -1 for s in corpus.sample_set.samples)


class TestNaiveBaseline:
    def _clustered_benign(self, rng, templates, per=20, sigma=4.0):
        vecs, clusters = [], []
        for c, tpl in enumerate(templates):
            for _ in range(per):
                vec = np.clip(np.rint(tpl + rng.normal(0, sigma, 1500)), 0, 255).astype(np.uint8)
                vec[0] = max(int(vec[0]), 1)
                vecs.append(vec)
                clusters.append(c)
        return make_records(np.stack(vecs), 0, clusters)

    def test_centroid_sample_is_benign(self):
        rng = np.random.default_rng(5)
        templates = rng.integers(0, 256, (2, 1500))
        d1 = self._clustered_benign(rng, templates)
        centroid = np.rint(
            np.mean([s.features for s in d1 if s.cluster == 0], axis=0)
        ).astype(np.uint8)
        centroid[0] = max(int(centroid[0]), 1)
        d3 = make_records(centroid[None, :], 0)
        report = naive_baseline(d1, d3, ["benign"], threshold_quantile=0.5)
        assert report.tn == 1 and report.fp == 0

    def test_quantile_one_full_specificity_on_resampled_benign(self):
        rng = np.random.default_rng(6)
        templates = rng.integers(0, 256, (3, 1500))
        d1 = self._clustered_benign(rng, templates)
        d3 = make_records(d1.features, 0)
        report = naive_baseline(d1, d3, ["benign"], threshold_quantile=1.0)
        assert report.specificity == 1.0

    def test_far_samples_flagged(self):
        rng = np.random.default_rng(7)
        templates = rng.integers(0, 256, (2, 1500))
        d1 = self._clustered_benign(rng, templates)
        attacks = _records(rng, [1] * 20)
        names = ["benign", "attack"]
        report = naive_baseline(d1, attacks, names, threshold_quantile=0.99)
        assert report.sensitivity == 1.0

    def test_empty_inputs(self):
        rng = np.random.default_rng(8)
        with pytest.raises(EmptyDataset):
            naive_baseline(_records(rng, []), _records(rng, [0]), ["benign"])
        with pytest.raises(EmptyDataset):
            naive_baseline(_records(rng, [0]), _records(rng, []), ["benign"])
