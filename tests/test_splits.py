import numpy as np
import pytest

from osnids.errors import EmptyBenign, InvalidRange, NoKnownAttacks, UnknownHeldoutClass
from osnids.samples import SampleSet, make_records
from osnids.splits import SplitSpec, build_splits, split_manifest


def _corpus(n_benign=1000, n_known=300, n_heldout=200, seed=0):
    rng = np.random.default_rng(seed)
    names = ["benign", "known_a", "known_b", "heldout_a", "heldout_b"]
    labels = [0] * n_benign + [1 + i % 2 for i in range(n_known)] + [3 + i % 2 for i in range(n_heldout)]
    feats = rng.integers(0, 256, (len(labels), 1500)).astype(np.uint8)
    feats[:, 0] = np.maximum(feats[:, 0], 1)
    return SampleSet(class_names=names, samples=make_records(feats, labels))


HELDOUT = frozenset({"heldout_a", "heldout_b"})


class TestBuildSplits:
    def test_benign_ratio_counts(self):
        result = build_splits(_corpus(), SplitSpec(heldout_classes=HELDOUT, seed=1))
        benign = lambda part: sum(1 for s in part if s.label == 0)
        assert benign(result.d1) == 500
        assert benign(result.d2) == 300
        assert benign(result.d3) == 200
        assert len(result.d1) == 500  # d1 is benign only

    def test_floor_cuts_remainder_to_d3(self):
        result = build_splits(_corpus(n_benign=7), SplitSpec(heldout_classes=HELDOUT, seed=1))
        benign = lambda part: sum(1 for s in part if s.label == 0)
        # floor(0.5 * 7) = 3, floor(0.8 * 7) = 5, remainder 2
        assert (benign(result.d1), benign(result.d2), benign(result.d3)) == (3, 2, 2)

    def test_heldout_never_in_d1_d2(self):
        corpus = _corpus()
        heldout_ids = {3, 4}
        for seed in range(10):
            result = build_splits(corpus, SplitSpec(heldout_classes=HELDOUT, seed=seed))
            assert not any(s.label in heldout_ids for part in (result.d1, result.d2) for s in part)
            n_heldout_d3 = sum(1 for s in result.d3 if s.label in heldout_ids)
            assert n_heldout_d3 == 200

    def test_known_attacks_all_in_d2(self):
        result = build_splits(_corpus(), SplitSpec(heldout_classes=HELDOUT, seed=2))
        assert sum(1 for s in result.d2 if s.label in (1, 2)) == 300
        assert not any(s.label in (1, 2) for part in (result.d1, result.d3) for s in part)

    def test_benign_partition_disjoint_exhaustive(self):
        corpus = _corpus(n_benign=101)
        result = build_splits(corpus, SplitSpec(heldout_classes=HELDOUT, seed=3))
        parts = [
            {s.features.tobytes() for s in part if s.label == 0}
            for part in (result.d1, result.d2, result.d3)
        ]
        assert not (parts[0] & parts[1]) and not (parts[0] & parts[2]) and not (parts[1] & parts[2])
        assert parts[0] | parts[1] | parts[2] == {
            s.features.tobytes() for s in corpus.samples if s.label == 0
        }

    def test_deterministic(self):
        corpus = _corpus()
        a = build_splits(corpus, SplitSpec(heldout_classes=HELDOUT, seed=9))
        b = build_splits(corpus, SplitSpec(heldout_classes=HELDOUT, seed=9))
        for part in ("d1", "d2", "d3"):
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes()

    def test_unknown_heldout_class(self):
        with pytest.raises(UnknownHeldoutClass):
            build_splits(_corpus(), SplitSpec(heldout_classes=frozenset({"nope"}), seed=0))

    def test_no_known_attacks(self):
        with pytest.raises(NoKnownAttacks):
            build_splits(
                _corpus(n_known=0),
                SplitSpec(heldout_classes=HELDOUT, seed=0),
            )

    def test_empty_benign(self):
        with pytest.raises(EmptyBenign):
            build_splits(_corpus(n_benign=0), SplitSpec(heldout_classes=HELDOUT, seed=0))

    def test_custom_ratios(self):
        result = build_splits(
            _corpus(n_benign=100),
            SplitSpec(heldout_classes=HELDOUT, benign_ratios=(0.6, 0.2, 0.2), seed=0),
        )
        benign = lambda part: sum(1 for s in part if s.label == 0)
        assert (benign(result.d1), benign(result.d2), benign(result.d3)) == (60, 20, 20)


class TestSplitSpec:
    def test_ratios_must_sum_to_one(self):
        with pytest.raises(InvalidRange):
            SplitSpec(heldout_classes=HELDOUT, benign_ratios=(0.5, 0.3, 0.3))

    def test_ratios_must_be_positive(self):
        with pytest.raises(InvalidRange):
            SplitSpec(heldout_classes=HELDOUT, benign_ratios=(1.0, 0.0, 0.0))

    def test_heldout_non_empty(self):
        with pytest.raises(InvalidRange):
            SplitSpec(heldout_classes=frozenset())


class TestManifest:
    def test_rows_and_conservation(self):
        corpus = _corpus()
        result = build_splits(corpus, SplitSpec(heldout_classes=HELDOUT, seed=4))
        rows = split_manifest(result)
        assert ("d1", "benign", 500) in rows
        assert sum(count for _, _, count in rows) == len(corpus.samples)

    def test_sparse_table(self):
        result = build_splits(_corpus(), SplitSpec(heldout_classes=HELDOUT, seed=5))
        rows = split_manifest(result)
        assert not any(split == "d1" and cls != "benign" for split, cls, _ in rows)
        assert not any(split == "d3" and cls in ("known_a", "known_b") for split, cls, _ in rows)
