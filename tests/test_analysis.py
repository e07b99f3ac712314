import json

import pytest

from sasoftmax.analysis import (
    EQ3_SCALE_GRID,
    EQ3_THETA_GRID,
    check_eq3_grid,
    check_fm_ambiguity,
    check_softmax_failure_mode,
    verify_failure_witness,
)
from sasoftmax.core import save_json, save_rows_csv
from sasoftmax.errors import SearchBudgetExhausted


class TestFailureWitness:
    def test_witness_found_within_budget(self):
        report = check_softmax_failure_mode(seed=0, budget=1_000_000)
        assert report["found"]
        assert report["checks"]["all_hold"]
        # the retrieval really is wrong: the cross-identity neighbour wins
        assert report["cosines"]["v1_n2"] > report["cosines"]["v1_n1"]

    def test_witness_reverifies_from_raw_vectors(self):
        report = check_softmax_failure_mode(seed=0)
        checks = verify_failure_witness(report["witness"])
        assert checks == report["checks"]

    def test_witness_roundtrip_identical_verdict(self, tmp_path):
        report = check_softmax_failure_mode(seed=0)
        path = tmp_path / "witness.json"
        save_json(report, path)
        loaded = json.loads(path.read_text())
        assert verify_failure_witness(loaded["witness"])["all_hold"]

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchBudgetExhausted):
            check_softmax_failure_mode(seed=0, budget=0)

    def test_non_witness_rejected(self):
        # aligned everything: classification holds but retrieval also succeeds
        witness = {
            "v1": [1.0, 0.0],
            "n1": [1.0, 0.0],
            "n2": [0.0, 1.0],
            "W1": [1.0, 0.0],
            "W2": [0.0, 1.0],
        }
        assert not verify_failure_witness(witness)["all_hold"]


class TestFmAmbiguity:
    def test_ambiguous_seed_exists(self):
        report = check_fm_ambiguity(range(40))
        assert report["num_ambiguous"] >= 1
        flagged = [r for r in report["per_seed"] if r["ambiguous"]]
        for r in flagged:
            assert r["pair_distance_after"] > r["pair_distance_before"]
            assert r["loss_after"] < r["loss_before"]

    def test_masked_own_column_weight_always_zero(self):
        report = check_fm_ambiguity(range(40))
        assert all(r["masked_own_column_weight"] == 0.0 for r in report["per_seed"])

    def test_roundtrip(self, tmp_path):
        report = check_fm_ambiguity(range(5))
        path = tmp_path / "ambiguity.json"
        save_json(report, path)
        assert json.loads(path.read_text()) == report


class TestEq3Grid:
    def test_grid_definition(self):
        assert EQ3_THETA_GRID[0] == pytest.approx(0.2)
        assert EQ3_THETA_GRID[-1] == pytest.approx(2.8)
        assert len(EQ3_THETA_GRID) == 14
        assert EQ3_SCALE_GRID == [1.0, 8.0, 16.0]

    def test_all_signs_correct(self):
        rows, ok = check_eq3_grid()
        assert ok
        assert len(rows) == 3 * 14 * 14
        assert all(r["signs_ok"] for r in rows)
        assert all(r["d_loss_d_theta_i"] > 0 for r in rows)
        assert all(r["d2_loss_d_theta_i_d_theta_j"] < 0 for r in rows)

    def test_csv_export(self, tmp_path):
        rows, _ = check_eq3_grid()
        path = tmp_path / "grid.csv"
        save_rows_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(rows) + 1
