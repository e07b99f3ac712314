import csv

import numpy as np

from sasoftmax import gradcheck
from sasoftmax.gradcheck import (
    central_difference,
    check_all_losses,
    check_pipeline,
    relative_error,
    save_rows_csv,
)

# the contract's bounds, which `sas gradcheck` takes as its flag defaults
TOL, PIPELINE_TOL = 1e-6, 1e-5
SOFTMAX_FAMILY = {
    "softmax_ce",
    "sas_w_loss",
    "sas_f_loss[unmasked]",
    "sas_f_loss[masked]",
    "sas_w_loss_weight_masked",
}


class TestCentralDifference:
    def test_quadratic_exact(self):
        x = np.array([1.0, -2.0, 3.0])
        fd = central_difference(lambda a: float((a**2).sum()), x)
        np.testing.assert_allclose(fd, 2 * x, atol=1e-8)

    def test_matrix_argument(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        c = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        fd = central_difference(lambda a: float((c * a).sum()), x)
        np.testing.assert_allclose(fd, c, atol=1e-8)


class TestRelativeError:
    def test_identical_is_zero(self):
        a = np.array([1.0, 2.0])
        assert relative_error(a, a.copy()) == 0.0

    def test_scale_free(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.01, 0.0])
        assert relative_error(a, b) < 0.011


class TestCheckAllLosses:
    def test_all_pass_over_20_seeds(self):
        rows = check_all_losses(range(20), TOL)
        assert rows
        failures = [r for r in rows if not r.passed]
        assert failures == []
        names = {r.loss for r in rows}
        assert SOFTMAX_FAMILY | {"ast_loss", "am_softmax_loss", "circle_loss", "combined_loss"} <= names

    def test_corruption_is_detected(self, wrong_softmax_gradient):
        rows = check_all_losses(range(2), TOL)
        assert {r.loss for r in rows if not r.passed} == SOFTMAX_FAMILY
        assert all(not r.passed for r in rows if r.loss in SOFTMAX_FAMILY)

    def test_impossible_tolerance_fails(self):
        rows = check_all_losses(range(2), tolerance=1e-15)
        assert any(not r.passed for r in rows)


class TestCheckPipeline:
    def test_composed_map_passes(self):
        rows = check_pipeline(range(5), PIPELINE_TOL)
        assert rows
        assert all(r.passed for r in rows)

    def test_corruption_is_detected(self, monkeypatch):
        backward = gradcheck.encoder_backward

        def off(*args):
            grad_w, grad_b = backward(*args)
            return [g + 1e-3 for g in grad_w], [g + 1e-3 for g in grad_b]

        monkeypatch.setattr(gradcheck, "encoder_backward", off)
        rows = check_pipeline(range(1), PIPELINE_TOL)
        assert rows
        assert all(r.loss == "encoder_pipeline" and not r.passed for r in rows)


def test_rows_csv(tmp_path):
    rows = check_all_losses(range(1), TOL)
    path = tmp_path / "gradcheck.csv"
    save_rows_csv(rows, path)
    with open(path) as fh:
        data = list(csv.reader(fh))
    assert data[0] == ["loss", "seed", "target", "rel_error", "passed"]
    assert len(data) == len(rows) + 1
