"""The arithmetic of scripts/quality_gate.py: its adjusted Rand index and its per-seed verdict."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

GATE = Path(__file__).resolve().parent.parent / "scripts" / "quality_gate.py"


@pytest.fixture(scope="module")
def gate():
    saved = sys.dont_write_bytecode, list(sys.path)  # the script sets both on import
    spec = importlib.util.spec_from_file_location("quality_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return module


class TestAdjustedRandIndex:
    def test_relabelled_partition_scores_one(self, gate):
        a = np.random.default_rng(0).integers(0, 7, 700)
        relabel = np.array([5, 3, 0, 6, 1, 4, 2]) * 10 + 100  # any other ids, in any order
        assert gate.adjusted_rand_index(a, relabel[a]) == 1.0
        assert gate.adjusted_rand_index(a.tolist(), a.tolist()) == 1.0

    def test_contingency_table_worked_by_hand(self, gate):
        # rows of the table are a's clusters, columns b's: [[2, 1, 0], [0, 1, 2]]
        # sum C(n_ij, 2) = 1 + 1 = 2; rows: 2 * C(3, 2) = 6; columns: 3 * C(2, 2) = 3; C(6, 2) = 15
        # expected = 6 * 3 / 15 = 1.2; max = (6 + 3) / 2 = 4.5; ARI = (2 - 1.2) / (4.5 - 1.2) = 8 / 33
        assert gate.adjusted_rand_index([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 2, 2]) == pytest.approx(8 / 33, abs=1e-15)

    def test_split_cluster_and_crossed_partitions(self, gate):
        # [[2, 0, 0], [0, 1, 1]]: index 1, rows 2, columns 1, C(4, 2) = 6, so (1 - 1/3) / (1.5 - 1/3) = 4/7
        assert gate.adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(4 / 7, abs=1e-15)
        # [[1, 1], [1, 1]]: index 0, expected 2/3, max 2: worse than chance, -1/2
        assert gate.adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5, abs=1e-15)

    def test_symmetric(self, gate):
        rng = np.random.default_rng(1)
        a, b = rng.integers(0, 5, 300), rng.integers(0, 8, 300)
        assert gate.adjusted_rand_index(a, b) == pytest.approx(gate.adjusted_rand_index(b, a), abs=1e-15)


def _side(n=7, clusters=(0, 0, 1, 1, 2, 2), benign=1.0, d1="d1", verdicts=("0,0,0,0,benign",) * 200, d3="d3"):
    return {"correct": True, "detect_rate": 0.9, "benign_rate": benign, "selected_n": n,
            "d1": d1, "d2": "d2", "d3": d3, "clusters": list(clusters), "verdicts": list(verdicts)}


class TestJudge:
    def test_same_partition_passes(self, gate):
        assert gate.judge(_side(), _side(clusters=(4, 4, 0, 0, 1, 1))) == (1.0, [])

    @pytest.mark.parametrize(
        "change, fault",
        [
            (_side(n=8), "N differs"),
            (_side(clusters=(0, 0, 1, 1, 2, 0)), "ARI below 0.99"),
            (_side(benign=0.99), "benign_rate fell"),
            ({**_side(), "correct": False}, "the change run failed its checks"),
        ],
    )
    def test_each_fault_fails(self, gate, change, fault):
        assert fault in gate.judge(_side(), change)[1]

    def test_different_d1_has_no_ari(self, gate):
        ari, faults = gate.judge(_side(), _side(d1="other"))
        assert ari is None and faults == ["D1 differs, so its partitions cannot be compared"]


class TestSeeds:
    def test_default_is_seeds_one_to_eight(self, gate):
        assert gate.parse_args(["--parent", "HEAD"]).seeds == gate.SEEDS == tuple(range(1, 9))

    def test_each_seed_flag_adds_a_seed(self, gate):
        args = gate.parse_args(["--parent", "HEAD", "--seed", "26", "--seed", "7", "--seed", "59"])
        assert args.seeds == (26, 7, 59)

    def test_parent_is_required(self, gate):
        with pytest.raises(SystemExit):
            gate.parse_args(["--seed", "26"])


class TestVerdictShare:
    ROWS = ["0,0,0,0,benign", "1,1,1,1,unknown_attack", "0,0,1,1,unknown_attack", "1,0,0,0,benign"] * 50

    def test_identical_rows_share_nothing(self, gate):
        parent, change = _side(verdicts=self.ROWS), _side(verdicts=list(self.ROWS))
        assert gate.verdict_share(parent, change) == 0.0
        assert gate.judge(parent, change) == (1.0, [])

    def test_one_flipped_bit_counts_its_row(self, gate):
        flipped = list(self.ROWS)
        flipped[5] = "1,1,0,1,unknown_attack"  # O_3 only; the decision holds
        share = gate.verdict_share(_side(verdicts=self.ROWS), _side(verdicts=flipped))
        assert share == 1 / 200 <= gate.VERDICT_MARGIN
        assert gate.judge(_side(verdicts=self.ROWS), _side(verdicts=flipped))[1] == []

    def test_share_above_the_margin_fails(self, gate):
        flipped = list(self.ROWS)
        for i in range(0, 6):  # a decision flips on 3 rows, a bit alone on 3: 6 of 200
            flipped[i] = "1,1,1,1,unknown_attack" if i % 4 != 1 else "1,1,1,0,unknown_attack"
        share = gate.verdict_share(_side(verdicts=self.ROWS), _side(verdicts=flipped))
        assert share == 6 / 200 > gate.VERDICT_MARGIN
        assert f"verdicts differ on more than {gate.VERDICT_MARGIN} of D3" in gate.judge(
            _side(verdicts=self.ROWS), _side(verdicts=flipped))[1]

    def test_other_d3_is_not_compared(self, gate):
        assert gate.verdict_share(_side(verdicts=self.ROWS), _side(verdicts=self.ROWS[::-1], d3="other")) is None
        assert gate.verdict_share(_side(), {k: v for k, v in _side().items() if k != "verdicts"}) is None
