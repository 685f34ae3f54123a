import itertools

import numpy as np
import pytest

from osnids.errors import InvalidRange, LengthMismatch, SingleClassLabels, UntrainedModel, WrongArity
from osnids.learners import TrainingConfig, meta_feature_matrix, train_base_ensemble
from osnids.meta import (
    BENIGN,
    META_FAMILIES,
    UNKNOWN_ATTACK,
    LogisticMetaClassifier,
    MetaConfig,
    MetaEnsemble,
    Verdict,
    Verdicts,
    classifier_outputs,
    predict_batch,
    train_meta_classifiers,
    vote,
)
from osnids.persistence import write_verdict_csv
from osnids.samples import make_records

from helpers import verdict_csv_oracle


class _StubClassifier:
    """Forces a fixed bit, regardless of input."""

    def __init__(self, bit: int):
        self.bit = bit

    def predict_proba(self, X):
        return np.full(X.shape[0], 1.0 if self.bit else 0.0)


def _stub_ensemble(bits):
    return MetaEnsemble(classifiers=[_StubClassifier(b) for b in bits])


class TestVote:
    def test_exhaustive_sixteen_cases(self):
        for bits in itertools.product((0, 1), repeat=4):
            verdict = vote(bits)
            v = sum(bits) / 4
            assert verdict.v == v
            expected = UNKNOWN_ATTACK if v >= 0.5 else BENIGN
            assert verdict.decision == expected

    def test_tie_goes_to_attack(self):
        assert vote([1, 1, 0, 0]).decision == UNKNOWN_ATTACK
        assert vote([1, 1, 0, 0]).v == 0.5

    def test_all_benign(self):
        verdict = vote([0, 0, 0, 0])
        assert verdict.v == 0.0 and verdict.decision == BENIGN

    def test_all_attack(self):
        verdict = vote([1, 1, 1, 1])
        assert verdict.v == 1.0 and verdict.decision == UNKNOWN_ATTACK

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            vote([1, 0, 1])
        with pytest.raises(WrongArity):
            vote([1, 0, 1, 0, 1])

    def test_non_bit_rejected(self):
        with pytest.raises(WrongArity):
            vote([2, 0, 0, 0])

    def test_permutation_symmetry(self):
        for bits in itertools.product((0, 1), repeat=4):
            base = vote(bits)
            for perm in itertools.permutations(bits):
                other = vote(perm)
                assert other.decision == base.decision and other.v == base.v

    def test_monotone_in_flips(self):
        for bits in itertools.product((0, 1), repeat=4):
            if vote(bits).decision == UNKNOWN_ATTACK:
                for i in range(4):
                    flipped = list(bits)
                    flipped[i] = 1
                    assert vote(flipped).decision == UNKNOWN_ATTACK


def _separable_meta_data(rng, n=400, dim=5):
    """Benign rows look one-hot-ish; attack rows look flat."""
    X = np.empty((n, dim))
    y = np.empty(n)
    for i in range(n):
        if rng.random() < 0.5:
            row = rng.uniform(0.0, 0.15, dim)
            row[rng.integers(dim)] = rng.uniform(0.85, 1.0)
            y[i] = 0.0
        else:
            row = rng.uniform(0.2, 0.45, dim)
            y[i] = 1.0
        X[i] = row
    return X, y


class TestTrainMetaClassifiers:
    def test_four_distinct_families(self):
        rng = np.random.default_rng(0)
        X, y = _separable_meta_data(rng)
        ensemble = train_meta_classifiers(X, y, seed=0)
        assert len(ensemble.classifiers) == 4
        assert len(set(type(c).__name__ for c in ensemble.classifiers)) >= 3  # two boost variants share a class

    def test_holdout_accuracy_recorded_and_high(self):
        rng = np.random.default_rng(1)
        X, y = _separable_meta_data(rng)
        ensemble = train_meta_classifiers(X, y, seed=1)
        assert set(ensemble.holdout_accuracy) == set(META_FAMILIES)
        for family, acc in ensemble.holdout_accuracy.items():
            assert acc >= 0.95, f"{family} holdout accuracy {acc}"

    def test_single_class_labels(self):
        rng = np.random.default_rng(2)
        X = rng.random((30, 4))
        with pytest.raises(SingleClassLabels):
            train_meta_classifiers(X, np.zeros(30), seed=0)

    def test_length_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(LengthMismatch):
            train_meta_classifiers(rng.random((10, 4)), np.zeros(9), seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X, y = _separable_meta_data(rng, n=200)
        probe = np.random.default_rng(5).random((20, 5))
        a = classifier_outputs(train_meta_classifiers(X, y, seed=9), probe)
        b = classifier_outputs(train_meta_classifiers(X, y, seed=9), probe)
        assert np.array_equal(a, b)


class TestMetaConfigRanges:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("forest_trees", 0),
            ("forest_depth", 0),
            ("boost_rounds", 0),
            ("boost_depth", -1),
            ("boost_leaves", 1),
            ("boost_learning_rate", float("inf")),
            ("boost_learning_rate", float("nan")),
            ("boost_learning_rate", 0.0),
            ("boost_learning_rate", -0.5),
            ("holdout_fraction", float("nan")),
            ("holdout_fraction", -1.0),
            ("holdout_fraction", -1e-9),
            ("holdout_fraction", 1.0),
        ],
    )
    def test_out_of_range_is_refused(self, field, value):
        with pytest.raises(InvalidRange, match=field):
            MetaConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("boost_learning_rate", 1e-12), ("boost_learning_rate", 5.0), ("holdout_fraction", 0.0),
         ("holdout_fraction", 0.999), ("forest_depth", 1), ("boost_depth", 1), ("boost_leaves", 2)],
    )
    def test_edge_values_in_range_are_kept(self, field, value):
        assert getattr(MetaConfig(**{field: value}), field) == value

    def test_empty_holdout_records_no_accuracy(self):
        X, y = _separable_meta_data(np.random.default_rng(6), n=60)
        config = MetaConfig(forest_trees=3, boost_rounds=3, holdout_fraction=0.0)
        assert train_meta_classifiers(X, y, config=config, seed=0).holdout_accuracy == {}

    @pytest.mark.parametrize("fraction, side", [(1e-4, "holdout"), (0.9999, "training")])
    def test_fraction_that_empties_a_side_is_refused(self, fraction, side):
        """In [0, 1), but 1,995 rows round to an empty holdout or training side."""
        X = np.random.default_rng(7).random((1995, 7))
        config = MetaConfig(forest_trees=3, boost_rounds=3, holdout_fraction=fraction)
        with pytest.raises(InvalidRange, match=f"holdout_fraction {fraction} leaves no {side} row of 1995 rows"):
            train_meta_classifiers(X, (X[:, 0] > 0.5).astype(np.float64), config=config, seed=0)

    @pytest.mark.parametrize("fraction, probed", [(1 / 1995, META_FAMILIES), (1994 / 1995, ())])
    def test_one_row_on_a_side_is_kept(self, fraction, probed):
        """One holdout row is probed; one training row holds one class, so
        it trains no probe, as before."""
        X, y = _separable_meta_data(np.random.default_rng(8), n=1995, dim=3)
        config = MetaConfig(forest_trees=1, boost_rounds=1, holdout_fraction=fraction)
        assert tuple(train_meta_classifiers(X, y, config=config, seed=0).holdout_accuracy) == probed


class TestLogisticMetaClassifier:
    def test_separable_rows_fit_without_overflow(self):
        """x0 > 0.5 separates these rows, so the weights grow until exp(-z)
        overflows; the probabilities still reach their limits 0 and 1."""
        X = np.random.default_rng(0).random((1995, 7))
        y = (X[:, 0] > 0.5).astype(np.float64)
        clf = LogisticMetaClassifier().fit(X, y)
        assert np.all(np.isfinite(clf.coef))
        p = clf.predict_proba(np.vstack([X, [[-50.0] + [0.5] * 6], [[50.0] + [0.5] * 6]]))
        assert np.array_equal(p[:-2] >= 0.5, y == 1.0)
        assert (p[-2], p[-1]) == (0.0, 1.0)


def _mini_pipeline(rng):
    """Tiny trained base + meta pair over 2 benign byte templates."""
    templates = rng.integers(0, 256, (4, 1500))

    def noisy(c, count):
        vecs = []
        for _ in range(count):
            vec = np.clip(np.rint(templates[c] + rng.normal(0, 5, 1500)), 0, 255).astype(np.uint8)
            vec[0] = max(int(vec[0]), 1)
            vecs.append(vec)
        return vecs

    benign = make_records(np.stack(noisy(0, 30) + noisy(1, 30)), 0, np.repeat([0, 1], 30))
    base = train_base_ensemble(benign, 2, config=TrainingConfig(epochs=10, seed=0))

    attacks = make_records(np.stack(noisy(2, 20) + noisy(3, 20)), 1)
    d2_all = make_records(np.concatenate([benign.features, attacks.features]), [0] * 60 + [1] * 40)
    mf = meta_feature_matrix(base, d2_all)
    labels = (d2_all.label != 0).astype(np.float64)
    meta = train_meta_classifiers(mf, labels, config=MetaConfig(forest_trees=20, boost_rounds=20), seed=0)
    return base, meta, benign, attacks


class TestPredict:
    def test_sixteen_forced_outputs_match_voting_rule(self):
        rng = np.random.default_rng(6)
        vec = rng.integers(0, 256, (1, 1500)).astype(np.uint8)
        vec[0, 0] = max(int(vec[0, 0]), 1)
        sample = make_records(vec, 0)

        from osnids.learners import BaseEnsemble, BinaryScorer

        base = BaseEnsemble(
            scorers=[BinaryScorer(kind="logistic", params=np.zeros(1501)) for _ in range(2)],
        )
        for bits in itertools.product((0, 1), repeat=4):
            (verdict,), _ = predict_batch(base, _stub_ensemble(bits), sample)
            v = sum(bits) / 4
            assert verdict.v == v
            assert verdict.decision == (UNKNOWN_ATTACK if v >= 0.5 else BENIGN)
            assert verdict.outputs == bits

    def test_end_to_end_synthetic_detection(self):
        rng = np.random.default_rng(7)
        base, meta, benign, _ = _mini_pipeline(rng)
        # unseen attack template, far from the benign ones
        unknown_template = rng.integers(0, 256, 1500)
        vecs = np.clip(np.rint(unknown_template + rng.normal(0, 5, (100, 1500))), 0, 255).astype(np.uint8)
        vecs[:, 0] = np.maximum(vecs[:, 0], 1)
        unknown = make_records(vecs, 0)
        hits = 0
        for i in range(len(unknown)):  # one verdict per one-row slice
            (verdict,), _ = predict_batch(base, meta, unknown[i : i + 1])
            hits += int(verdict.decision == UNKNOWN_ATTACK)
        assert hits >= 90

        plain = make_records(benign.features, 0)
        verdicts, _ = predict_batch(base, meta, plain)
        benign_ok = sum(v.decision == BENIGN for v in verdicts)
        assert benign_ok >= int(0.9 * len(benign))

    def test_untrained_model(self):
        rng = np.random.default_rng(8)
        sample = make_records(rng.integers(1, 256, (1, 1500)).astype(np.uint8), 0)
        ensemble = _stub_ensemble([0, 0, 0, 0])
        from osnids.learners import BaseEnsemble

        hollow = BaseEnsemble.__new__(BaseEnsemble)
        hollow.scorers = []
        with pytest.raises(UntrainedModel):
            predict_batch(hollow, ensemble, sample)

    def test_missing_meta_ensemble(self):
        """A `train-base` bundle loads with no meta ensemble (None)."""
        from osnids.learners import BaseEnsemble, BinaryScorer

        base = BaseEnsemble(scorers=[BinaryScorer(kind="logistic", params=np.zeros(1501)) for _ in range(2)])
        sample = make_records(np.ones((1, 1500), dtype=np.uint8), 0)
        with pytest.raises(UntrainedModel):
            predict_batch(base, None, sample)


class TestVerdictCsv:
    def test_audit_columns(self, tmp_path):
        rng = np.random.default_rng(9)
        base, meta, benign, attacks = _mini_pipeline(rng)
        samples = make_records(np.concatenate([benign.features[:5], attacks.features[:5]]), [0] * 5 + [1] * 5)
        verdicts, mf = predict_batch(base, meta, samples)
        path = tmp_path / "verdicts.csv"
        write_verdict_csv(path, mf, verdicts)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,p_1,p_2,O_1,O_2,O_3,O_4,v,decision"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[-1] in (BENIGN, UNKNOWN_ATTACK)

    @pytest.mark.parametrize("n", [0, 1, 4096, 4097, 9000])
    def test_equals_csv_writer_rows(self, tmp_path, n):
        rng = np.random.default_rng(n)
        mf = rng.random((n, 3))
        special = np.array([5e-324, 1e-17, 0.0, 1.0, 2.5e-8, 1.0 - 1e-16])  # exponents, and the bounds
        mf.ravel()[: min(mf.size, special.size)] = special[: mf.size]
        verdicts = Verdicts(rng.integers(0, 2, (n, 4)))
        path = tmp_path / "verdicts.csv"
        write_verdict_csv(path, mf, verdicts)
        assert path.read_bytes() == verdict_csv_oracle(mf, verdicts)


class TestVerdicts:
    def test_indexing_builds_the_vote_verdict(self):
        bits = np.array(list(itertools.product((0, 1), repeat=4)))
        verdicts = Verdicts(bits)
        assert len(verdicts) == 16 and len(list(verdicts)) == 16
        for i, row in enumerate(bits.tolist()):
            verdict = verdicts[i]
            assert verdict == vote(row) and verdict == verdicts[i - 16]
            assert type(verdict.v) is float and all(type(o) is int for o in verdict.outputs)
            assert verdicts.attack[i] == (verdict.decision == UNKNOWN_ATTACK)
        with pytest.raises(IndexError):
            verdicts[16]

    def test_predict_batch_returns_arrays(self):
        rng = np.random.default_rng(10)
        base, meta, benign, attacks = _mini_pipeline(rng)
        samples = make_records(np.concatenate([benign.features[:7], attacks.features[:7]]), 0)
        verdicts, mf = predict_batch(base, meta, samples)
        assert isinstance(verdicts, Verdicts) and isinstance(verdicts[0], Verdict)
        assert verdicts.bits.tobytes() == classifier_outputs(meta, mf).tobytes()
        assert verdicts.attack.any() and not verdicts.attack.all()
