import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasoftmax import losses
from sasoftmax.core import IdentityPrototypeMatrix, ModalityPrototypeMatrix, rewrite_labels_batch
from sasoftmax.errors import ContractViolation, DegenerateNormError, NumericError
from sasoftmax.gradcheck import central_difference, relative_error
from sasoftmax.losses import (
    CombinedLossConfig,
    LossWorkspace,
    am_softmax_loss,
    ast_loss,
    circle_loss,
    combined_loss,
    masked_ce,
    theta_derivative_probe,
)
from sasoftmax.trainer import TrainConfig

from conftest import random_instance

FD_TOL = 1e-6
# the head-only losses' hyper-parameters as training runs them by default
AM = (TrainConfig().am_margin, TrainConfig().am_scale)
CIRCLE = (TrainConfig().circle_gamma, TrainConfig().circle_margin)


def id_head(arr):
    return IdentityPrototypeMatrix(np.asarray(arr, dtype=float))


def mod_head(arr):
    return ModalityPrototypeMatrix(np.asarray(arr, dtype=float))


def ce(x, head, labels, drop=None):
    """masked_ce on the logits x @ W, chained to (value, dL/dx, dL/dW)."""
    w = head.W
    value, g = masked_ce(x @ w, labels, drop)
    return value, g @ w.T, x.T @ g


def ce_value(x, head, labels, drop=None):
    return masked_ce(x @ head.W, labels, drop)[0]


class TestMaskedCE:
    @pytest.mark.parametrize(
        "labels, drop",
        [("ids", None), ("y_w", None), ("y_f", None), ("y_f", "y_w"), ("y_w", "y_f")],
        ids=["softmax", "L_W", "L_F", "L_F[feature mask]", "L_W[weight mask]"],
    )
    def test_finite_difference_on_logits(self, labels, drop):
        for seed in range(5):
            x, w_mod, w_id, ids, _, y_w, y_f = random_instance(seed)
            named = {"ids": ids, "y_w": y_w, "y_f": y_f}
            head = w_id if labels == "ids" else w_mod
            logits = x @ head.W
            lab, dr = named[labels], named.get(drop)
            _, g = masked_ce(logits, lab, dr)
            fd = central_difference(lambda z: masked_ce(z, lab, dr)[0], logits)
            assert relative_error(g, fd) <= FD_TOL
            if dr is not None:
                assert np.all(g[np.arange(len(dr)), dr] == 0.0)

    @pytest.mark.parametrize("masked", [False, True])
    def test_holds_one_logits_sized_buffer(self, masked):
        b, c = 256, 1200
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(b, c))
        labels = rng.integers(0, c // 2, size=b)
        drop = labels + c // 2 if masked else None
        tracemalloc.start()
        try:
            masked_ce(logits, labels, drop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * b * c * 8

    @pytest.mark.parametrize("masked", [False, True])
    def test_out_receives_g_and_matches_the_fresh_path(self, masked):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(16, 10))
        labels = rng.integers(0, 5, size=16)
        drop = labels + 5 if masked else None
        before = logits.copy()
        value, g = masked_ce(logits, labels, drop)
        out = np.full_like(logits, np.nan)
        out_value, out_g = masked_ce(logits, labels, drop, out=out)
        assert out_g is out
        assert out_value == value
        np.testing.assert_array_equal(out, g)
        np.testing.assert_array_equal(logits, before)

    @pytest.mark.parametrize("masked", [False, True])
    def test_with_out_allocates_no_logits_sized_buffer(self, masked):
        b, c = 256, 1200
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(b, c))
        labels = rng.integers(0, c // 2, size=b)
        drop = labels + c // 2 if masked else None
        out = np.empty_like(logits)
        tracemalloc.start()
        try:
            masked_ce(logits, labels, drop, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no B x C array of any dtype, the finiteness check's bools included
        assert peak < b * c

    @pytest.mark.parametrize(
        "make_out",
        [
            lambda z: np.empty((4, 6), dtype=np.float32),
            lambda z: [[0.0] * 6] * 4,
            lambda z: np.empty((4, 5)),
            lambda z: np.empty((6, 4)).T,
            lambda z: np.empty((4, 12))[:, ::2],
            lambda z: z.base[1:5],
        ],
        ids=["float32", "list", "wrong-shape", "fortran", "strided", "overlapping-view"],
    )
    def test_bad_out_rejected(self, make_out):
        logits = np.random.default_rng(2).normal(size=(5, 6))[:4]
        before = logits.copy()
        with pytest.raises(ContractViolation, match="out must be a C-contiguous float64 array"):
            masked_ce(logits, np.arange(4), out=make_out(logits))
        np.testing.assert_array_equal(logits, before)

    @pytest.mark.parametrize("masked", [False, True], ids=["plain", "masked"])
    def test_out_may_be_the_logits(self, masked):
        # the logits' last reader writes G over them: the same value and G
        # bits as with a separate out
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(16, 10))
        labels = rng.integers(0, 5, size=16)
        drop = labels + 5 if masked else None
        value, g = masked_ce(logits, labels, drop, out=np.empty_like(logits))
        in_place_value, in_place_g = masked_ce(logits, labels, drop, out=logits)
        assert in_place_g is logits
        assert in_place_value == value
        np.testing.assert_array_equal(in_place_g.view(np.uint64), g.view(np.uint64))

    @pytest.mark.parametrize("b", [1, 2, 3, 5, 6, 7, 12, 100, 128, 256])
    @pytest.mark.parametrize("masked", [False, True])
    def test_bits_of_the_division_reference_at_every_batch_size(self, b, masked):
        rng = np.random.default_rng(b)
        logits = rng.normal(scale=4.0, size=(b, 40))
        labels = rng.integers(0, 20, size=b)
        drop = labels + 20 if masked else None
        want_value, want_g = reference_masked_ce(logits, labels, drop)
        value, g = masked_ce(logits, labels, drop)
        assert value == want_value
        np.testing.assert_array_equal(g.view(np.uint64), want_g.view(np.uint64))
        if b & (b - 1):
            # for this b, x * (1/b) and x / b differ on values like these, so
            # the comparison above would catch a kernel that multiplied
            unscaled = want_g * b
            assert np.any(unscaled * (1.0 / b) != unscaled / b)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(NumericError):
            masked_ce(np.array([[0.0, np.inf]]), np.array([0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["label", "dropped", "elsewhere"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_every_non_finite_logit_rejected(self, value, where, masked):
        logits = np.random.default_rng(3).normal(size=(4, 6))
        labels, drop = np.array([0, 1, 2, 0]), np.array([3, 4, 5, 3])
        column = {"label": labels[2], "dropped": drop[2], "elsewhere": 1}[where]
        logits[2, column] = value
        with pytest.raises(NumericError, match="non-finite logits"):
            masked_ce(logits, labels, drop if masked else None)
        with pytest.raises(NumericError, match="non-finite logits"):
            masked_ce(logits, labels, drop if masked else None, out=np.empty_like(logits))

    def test_finite_logits_whose_sum_overflows_accepted(self):
        logits = np.array([[1e308, 1e308, 0.0], [0.0, 1.0, 2.0]])
        value, g = masked_ce(logits, np.array([0, 2]))
        assert np.isfinite(value) and np.all(np.isfinite(g))

    def test_dropped_column_out_of_range(self):
        with pytest.raises(ContractViolation):
            masked_ce(np.zeros((1, 3)), np.array([0]), np.array([3]))


def reference_masked_ce(logits, labels, drop=None):
    """masked_ce written out of place, dividing by the batch size."""
    b = len(logits)
    rows = np.arange(b)
    z = logits.copy()
    if drop is not None:
        z[rows, drop] = -np.inf
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    denom = e.sum(axis=1, keepdims=True)
    p = e / denom
    p[rows, labels] -= 1.0
    return float(-(z[rows, labels] - np.log(denom[:, 0])).mean()), p / b


FLOAT64_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from(
        [float(v) for v in (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1.7976931348623157e308)]
    ).map(lambda v: int(np.float64(v).view(np.uint64))),
    st.integers(0, 2**52 - 1),  # subnormals
    st.integers(0, 2**52 - 1).map(lambda m: m | 1 << 63),  # negative subnormals
)


class TestPowerOfTwoScale:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12), st.lists(FLOAT64_BITS, min_size=1, max_size=64))
    def test_multiply_by_the_reciprocal_is_the_division(self, k, bits):
        # for b = 2**k, 1/b is exact, so x * (1/b) and x / b round the same
        # real number: the same bits for every float64, subnormal results,
        # signed zeros, infinities and NaNs included
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        b = 2**k
        with np.errstate(all="ignore"):
            by_multiply = x * (1.0 / b)
            by_division = x / b
        np.testing.assert_array_equal(by_multiply.view(np.uint64), by_division.view(np.uint64))


class TestSoftmaxCE:
    def test_uniform_logits_value(self):
        x = np.zeros((3, 4))
        w = id_head(np.random.default_rng(0).normal(size=(4, 5)))
        value = ce_value(x, w, np.array([0, 2, 4]))
        assert value == pytest.approx(np.log(5), abs=1e-12)

    def test_saturated_correct_class(self):
        # logit 40 at the target, 0 elsewhere
        x = np.array([[40.0]])
        w = id_head(np.array([[0.0, 1.0, 0.0]]))
        value = ce_value(x, w, np.array([1]))
        assert value < 1e-12

    def test_finite_difference(self):
        for seed in range(5):
            x, _, w_id, ids, _, _, _ = random_instance(seed, b=4, d=3, n=5)
            _, grad_x, grad_w = ce(x, w_id, ids)
            fd_x = central_difference(lambda a: ce_value(a, w_id, ids), x)
            assert relative_error(grad_x, fd_x) <= FD_TOL
            fd_w = central_difference(
                lambda a: ce_value(x, id_head(a), ids), w_id.W
            )
            assert relative_error(grad_w, fd_w) <= FD_TOL

    def test_label_out_of_range(self):
        with pytest.raises(ContractViolation):
            ce_value(np.zeros((1, 2)), id_head(np.zeros((2, 3))), np.array([3]))


class TestSasWLoss:
    def test_uniform_logits_value(self):
        x = np.zeros((2, 3))
        w = mod_head(np.random.default_rng(1).normal(size=(3, 6)))
        value = ce_value(x, w, np.array([0, 5]))
        assert value == pytest.approx(np.log(6), abs=1e-12)

    def test_saturated(self):
        # x aligned with its own column at a large scale, other columns orthogonal
        d = 4
        w = np.zeros((d, 2))
        w[0, 0] = 50.0
        w[1, 1] = 50.0
        x = np.zeros((1, d))
        x[0, 0] = 1.0
        value, _, grad_w = ce(x, mod_head(w), np.array([0]))
        assert value < 1e-12
        assert np.abs(grad_w).max() < 1e-12

    def test_routing_no_embedding_grad(self):
        """L_W reaches only the modality prototypes: with alpha = 1 and no
        AST term, the embedding gradient is L_F's alone and the prototype
        gradient L_W's alone."""
        x, w_mod, w_id, ids, mods, y_w, y_f = random_instance(0)
        res = combined_loss(x, w_mod, w_id, ids, mods, CombinedLossConfig(alpha=1.0, beta=0.0))
        _, _, grad_w = ce(x, w_mod, y_w)
        _, grad_x, _ = ce(x, w_mod, y_f)
        np.testing.assert_array_equal(res.grad_modality_prototypes, grad_w)
        np.testing.assert_array_equal(res.grad_embeddings, grad_x)
        assert res.grad_identity_prototypes is None

    def test_finite_difference(self):
        for seed in range(5):
            x, w_mod, _, _, _, y_w, _ = random_instance(seed)
            _, _, grad_w = ce(x, w_mod, y_w)
            fd = central_difference(
                lambda a: ce_value(x, mod_head(a), y_w), w_mod.W
            )
            assert relative_error(grad_w, fd) <= FD_TOL


class TestSasFLoss:
    def test_masked_single_identity_collapses(self):
        # N=1: after masking only the target column remains -> loss is 0
        x = np.random.default_rng(2).normal(size=(2, 3))
        w = mod_head(np.random.default_rng(3).normal(size=(3, 2)))
        y_w = np.array([0, 1])
        y_f = np.array([1, 0])
        value, grad_x, _ = ce(x, w, y_f, drop=y_w)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.abs(grad_x).max() < 1e-12

    def test_masked_uniform_logits_value(self):
        x = np.zeros((2, 3))
        w = mod_head(np.random.default_rng(4).normal(size=(3, 6)))
        y_w = np.array([0, 4])
        y_f = np.array([3, 1])
        value = ce_value(x, w, y_f, drop=y_w)
        assert value == pytest.approx(np.log(5), abs=1e-12)

    def test_routing_no_prototype_grad(self):
        """L_F reaches only the embeddings, masked or not: the modality
        prototype gradient is L_W's alone."""
        x, w_mod, w_id, ids, mods, y_w, y_f = random_instance(0)
        for masked in (False, True):
            cfg = CombinedLossConfig(alpha=1.0, beta=0.0, use_feature_mask=masked)
            res = combined_loss(x, w_mod, w_id, ids, mods, cfg)
            _, _, grad_w = ce(x, w_mod, y_w)
            _, grad_x, _ = ce(x, w_mod, y_f, drop=y_w if masked else None)
            np.testing.assert_array_equal(res.grad_modality_prototypes, grad_w)
            np.testing.assert_array_equal(res.grad_embeddings, grad_x)

    def test_equal_labels_rejected(self):
        x = np.zeros((1, 2))
        w = mod_head(np.zeros((2, 4)))
        with pytest.raises(ContractViolation):
            ce_value(x, w, np.array([1]), drop=np.array([1]))

    def test_finite_difference_both_forms(self):
        for seed in range(5):
            x, w_mod, _, _, _, y_w, y_f = random_instance(seed)
            for masked in (False, True):
                drop = y_w if masked else None
                _, grad_x, _ = ce(x, w_mod, y_f, drop)
                fd = central_difference(
                    lambda a: ce_value(a, w_mod, y_f, drop), x
                )
                assert relative_error(grad_x, fd) <= FD_TOL

    def test_masked_own_column_coefficient_is_zero(self):
        x, w_mod, _, _, _, y_w, y_f = random_instance(7)
        _, coeffs = masked_ce(x @ w_mod.W, y_f, drop=y_w)
        assert np.abs(coeffs[np.arange(len(y_w)), y_w]).max() == 0.0

    def test_mask_difference_identity(self):
        """The unmasked and masked gradients differ exactly by the excluded
        own-column term: per sample, g_u - g_m = p_u[yW] * (e_{yW} - p_m),
        where p_u / p_m are the unmasked / masked softmax vectors. Verified
        on the gap-free case (identical visible/infrared columns) and on a
        generic instance."""
        rng = np.random.default_rng(11)
        for gap_free in (True, False):
            d, n, b = 3, 3, 4
            half = rng.normal(size=(d, n))
            w = np.concatenate([half, half if gap_free else rng.normal(size=(d, n))], axis=1)
            x = rng.normal(size=(b, d))
            ids = rng.integers(0, n, size=b)
            mods = rng.integers(0, 2, size=b)
            y_w = ids + mods * n
            y_f = ids + (1 - mods) * n

            _, grad_u, _ = ce(x, ModalityPrototypeMatrix(w), y_f)
            _, grad_m, _ = ce(x, ModalityPrototypeMatrix(w), y_f, drop=y_w)
            logits = x @ w
            p_u = np.exp(logits - logits.max(axis=1, keepdims=True))
            p_u /= p_u.sum(axis=1, keepdims=True)
            rows = np.arange(b)
            masked_logits = logits.copy()
            masked_logits[rows, y_w] = -np.inf
            p_m = np.exp(masked_logits - masked_logits.max(axis=1, keepdims=True))
            p_m /= p_m.sum(axis=1, keepdims=True)

            expected_diff = np.zeros((b, 2 * n))
            expected_diff[rows, y_w] = p_u[rows, y_w]
            expected_diff -= p_u[rows, y_w][:, None] * p_m
            grad_diff_expected = (expected_diff @ w.T) / b
            np.testing.assert_allclose(
                grad_u - grad_m,
                grad_diff_expected,
                atol=1e-12,
            )


class TestWeightMaskedWLoss:
    def test_single_identity_collapses(self):
        x = np.random.default_rng(5).normal(size=(2, 3))
        w = mod_head(np.random.default_rng(6).normal(size=(3, 2)))
        y_w = np.array([0, 1])
        y_f = np.array([1, 0])
        value = ce_value(x, w, y_w, drop=y_f)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_value(self):
        x = np.zeros((2, 3))
        w = mod_head(np.random.default_rng(7).normal(size=(3, 6)))
        value = ce_value(x, w, np.array([0, 4]), drop=np.array([3, 1]))
        assert value == pytest.approx(np.log(5), abs=1e-12)

    def test_finite_difference(self):
        for seed in range(5):
            x, w_mod, _, _, _, y_w, y_f = random_instance(seed)
            _, _, grad_w = ce(x, w_mod, y_w, drop=y_f)
            fd = central_difference(
                lambda a: ce_value(x, mod_head(a), y_w, drop=y_f),
                w_mod.W,
            )
            assert relative_error(grad_w, fd) <= FD_TOL


class TestAstLoss:
    def test_perfect_alignment(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([[3.0, 0.0]])  # positive multiple of column 0
        value, _ = ast_loss(x, mod_head(w), np.array([0]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_contribution(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([[0.0, 2.0]])  # orthogonal to column 0
        value, _ = ast_loss(x, mod_head(w), np.array([0]))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_norm(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateNormError):
            ast_loss(np.zeros((1, 2)), mod_head(w), np.array([0]))

    def test_finite_difference(self):
        for seed in range(5):
            x, w_mod, _, _, _, _, y_f = random_instance(seed, b=5, d=6, n=3)
            _, grad_x = ast_loss(x, w_mod, y_f)
            fd = central_difference(lambda a: ast_loss(a, w_mod, y_f)[0], x)
            assert relative_error(grad_x, fd) <= FD_TOL

    def test_routing_no_prototype_grad(self):
        x, w_mod, _, _, _, _, y_f = random_instance(1)
        # the term is (value, dL/dembeddings): no prototype gradient to return
        value, grad = ast_loss(x, w_mod, y_f)
        assert isinstance(value, float)
        assert grad.shape == x.shape


class TestCombinedLoss:
    def test_alpha_one_value(self):
        x, w_mod, w_id, ids, mods, y_w, y_f = random_instance(3)
        cfg = CombinedLossConfig(alpha=1.0, beta=0.0)
        res = combined_loss(x, w_mod, w_id, ids, mods, cfg)
        expected = ce_value(x, w_mod, y_w) + ce_value(x, w_mod, y_f)
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert res.grad_identity_prototypes is None

    def test_alpha_zero_reduces_to_softmax(self):
        x, w_mod, w_id, ids, mods, _, _ = random_instance(4)
        cfg = CombinedLossConfig(alpha=0.0, beta=0.0)
        res = combined_loss(x, w_mod, w_id, ids, mods, cfg)
        ref_value, ref_grad_x, ref_grad_w = ce(x, w_id, ids)
        assert res.value == pytest.approx(ref_value, abs=1e-12)
        np.testing.assert_allclose(res.grad_embeddings, ref_grad_x, atol=1e-15)
        np.testing.assert_allclose(
            res.grad_identity_prototypes, ref_grad_w, atol=1e-15
        )
        assert res.grad_modality_prototypes is None

    def test_component_sum_oracle(self):
        x, w_mod, w_id, ids, mods, y_w, y_f = random_instance(5)
        cfg = CombinedLossConfig(alpha=0.7, beta=1.0, use_feature_mask=True)
        res = combined_loss(x, w_mod, w_id, ids, mods, cfg)
        f_value, f_grad_x, _ = ce(x, w_mod, y_f, drop=y_w)
        w_value, _, w_grad_w = ce(x, w_mod, y_w)
        s_value, s_grad_x, s_grad_w = ce(x, w_id, ids)
        a_value, a_grad_x = ast_loss(x, w_mod, y_f)
        np.testing.assert_allclose(
            res.grad_embeddings,
            0.7 * f_grad_x + 0.3 * s_grad_x + 1.0 * a_grad_x,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            res.grad_modality_prototypes, 0.7 * w_grad_w, atol=1e-12
        )
        np.testing.assert_allclose(
            res.grad_identity_prototypes, 0.3 * s_grad_w, atol=1e-12
        )
        assert res.value == pytest.approx(
            0.7 * (w_value + f_value) + 0.3 * s_value + a_value, abs=1e-12
        )

    def test_weight_mask_switch(self):
        x, w_mod, w_id, ids, mods, y_w, y_f = random_instance(6)
        cfg = CombinedLossConfig(alpha=0.7, beta=0.0, use_feature_mask=True, use_weight_mask=True)
        res = combined_loss(x, w_mod, w_id, ids, mods, cfg)
        _, _, wm_grad_w = ce(x, w_mod, y_w, drop=y_f)
        np.testing.assert_allclose(
            res.grad_modality_prototypes, 0.7 * wm_grad_w, atol=1e-12
        )

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            CombinedLossConfig(alpha=1.5)
        with pytest.raises(ContractViolation):
            CombinedLossConfig(beta=-0.1)

    @pytest.mark.parametrize(
        "weights, message",
        [
            (dict(alpha=float("nan")), "alpha must lie in [0, 1], got nan"),
            (dict(beta=float("nan")), "beta must be finite, got nan"),
            (dict(beta=float("inf")), "beta must be finite, got inf"),
            (dict(beta=float("-inf")), "beta must be finite, got -inf"),
            (dict(beta=-0.1), "beta must be non-negative, got -0.1"),
        ],
    )
    def test_non_finite_or_negative_weight_rejected(self, weights, message):
        """A NaN beta would otherwise switch the AST term off (nan > 0 is
        false) and return a NaN value beside finite gradients."""
        with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
            CombinedLossConfig(**{"alpha": 0.5, "beta": 1.0, **weights})


COMBINED_VARIANTS = ("SOFTMAX", "SAS", "SAS_FM", "SAS_FM_AST", "SAS_FM_WM")
# (B, N, d): the desk protocol's 128 x 80 modality logits, and wide_train's
# 256 x 1,200
SHAPES = {"desk": (128, 40, 16), "wide": (256, 600, 16)}


def loss_inputs(seed, b, n, d):
    r = np.random.default_rng(seed)
    return (
        r.normal(size=(b, d)),
        ModalityPrototypeMatrix(r.normal(size=(d, 2 * n))),
        IdentityPrototypeMatrix(r.normal(size=(d, n))),
        r.integers(0, n, size=b),
        r.integers(0, 2, size=b),
    )


def result_arrays(res):
    return [
        g.copy()
        for g in (res.grad_embeddings, res.grad_modality_prototypes, res.grad_identity_prototypes)
        if g is not None
    ]


class TestLossWorkspace:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("variant", COMBINED_VARIANTS)
    def test_reused_workspace_matches_the_fresh_path(self, variant, shape):
        cfg = TrainConfig(variant=variant).loss_config()
        ws = LossWorkspace()
        kept = []
        for seed in range(3):
            inputs = loss_inputs(seed, *SHAPES[shape])
            fresh = combined_loss(*inputs, cfg)
            reused = combined_loss(*inputs, cfg, workspace=ws)
            assert reused.value == fresh.value
            assert reused.components == fresh.components
            for name in ("grad_embeddings", "grad_modality_prototypes", "grad_identity_prototypes"):
                got, want = getattr(reused, name), getattr(fresh, name)
                assert (got is None) == (want is None)
                if want is not None:
                    np.testing.assert_array_equal(got, want)
            kept.append((reused, result_arrays(reused)))
        # later calls and direct writes into the buffers leave every
        # returned gradient as it was
        for buffer in ws.buffers.values():
            buffer.fill(np.nan)
        for res, arrays in kept:
            for got, want in zip(result_arrays(res), arrays):
                np.testing.assert_array_equal(got, want)

    def test_buffers_reallocated_only_when_the_shape_changes(self):
        cfg = TrainConfig(variant="SAS_FM_AST").loss_config()
        ws = LossWorkspace()

        def buffers():
            return list(ws.buffers.values())

        combined_loss(*loss_inputs(0, 32, 10, 4), cfg, workspace=ws)
        first = buffers()
        assert [a.shape for a in first] == [(32, 20), (32, 20), (32, 10)]
        combined_loss(*loss_inputs(1, 32, 10, 4), cfg, workspace=ws)
        assert all(a is b for a, b in zip(buffers(), first))
        combined_loss(*loss_inputs(2, 24, 10, 4), cfg, workspace=ws)
        assert [a.shape for a in buffers()] == [(24, 20), (24, 20), (24, 10)]

    def test_warm_call_at_wide_shape_holds_no_logits_sized_buffer(self):
        b, n, d = SHAPES["wide"]
        cfg = TrainConfig(variant="SAS_FM_AST").loss_config()
        inputs = loss_inputs(0, b, n, d)
        ws = LossWorkspace()
        combined_loss(*inputs, cfg, workspace=ws)
        tracemalloc.start()
        try:
            combined_loss(*inputs, cfg, workspace=ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b * 2 * n * 2

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("variant", COMBINED_VARIANTS)
    def test_bits_of_the_two_buffer_reference(self, variant, shape):
        # every term on its own copy of the logits, divided by the batch size
        cfg = TrainConfig(variant=variant).loss_config()
        x, w_mod, w_id, ids, mods = inputs = loss_inputs(7, *SHAPES[shape])
        res = combined_loss(*inputs, cfg, workspace=LossWorkspace())
        a, n = cfg.alpha, w_id.num_identities
        y_w, y_f = rewrite_labels_batch(ids, mods, n)
        want = {"loss_w": 0.0, "loss_f": 0.0, "loss_softmax": 0.0, "loss_ast": 0.0}
        grad_x = np.zeros_like(x)
        if a > 0.0:
            logits = x @ w_mod.W
            w_drop = y_f if cfg.use_weight_mask else None
            f_drop = y_w if cfg.use_feature_mask else None
            want["loss_w"], g_w = reference_masked_ce(logits, y_w, w_drop)
            want["loss_f"], g_f = reference_masked_ce(logits, y_f, f_drop)
            np.testing.assert_array_equal(res.grad_modality_prototypes, a * (x.T @ g_w))
            grad_x += a * (g_f @ w_mod.W.T)
        if a < 1.0:
            want["loss_softmax"], g_s = reference_masked_ce(x @ w_id.W, ids)
            np.testing.assert_array_equal(res.grad_identity_prototypes, (1.0 - a) * (x.T @ g_s))
            grad_x += (1.0 - a) * (g_s @ w_id.W.T)
        if cfg.beta > 0.0:
            want["loss_ast"], g_ast = ast_loss(x, w_mod, y_f)
            grad_x += cfg.beta * g_ast
        assert res.components == want
        np.testing.assert_array_equal(res.grad_embeddings, grad_x)

    def test_warm_workspace_holds_three_logits_sized_arrays(self):
        b, n, d = SHAPES["wide"]
        cfg = TrainConfig(variant="SAS_FM_AST").loss_config()
        inputs = loss_inputs(0, b, n, d)
        tracemalloc.start()
        try:
            ws = LossWorkspace()
            combined_loss(*inputs, cfg, workspace=ws)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        shapes = [a.shape for a in ws.buffers.values()]
        assert sorted(shapes) == [(b, n), (b, 2 * n), (b, 2 * n)]
        # the three, and nothing else logits-sized outlives the call
        three = 8 * b * (2 * n + 2 * n + n)
        assert three <= held < three + 8 * b * n

    @pytest.mark.parametrize("columns", [39, 41])
    def test_heads_must_agree_on_identity_count(self, columns):
        x, w_mod, _, ids, mods = loss_inputs(0, *SHAPES["desk"])
        w_id = IdentityPrototypeMatrix(np.ones((x.shape[1], columns)))
        with pytest.raises(ContractViolation, match="disagree on identity count"):
            combined_loss(x, w_mod, w_id, ids, mods, TrainConfig(variant="SAS").loss_config())

    @pytest.mark.parametrize("variant", COMBINED_VARIANTS)
    def test_kernel_calls_trust_the_rewritten_labels(self, variant, monkeypatch):
        # rewrite_labels_batch range-checks every label the kernel gets, so
        # only ast_loss, a kernel of its own, checks labels again
        cfg = TrainConfig(variant=variant).loss_config()
        seen = []
        check = losses._check_labels
        monkeypatch.setattr(losses, "_check_labels", lambda *a: seen.append(a[2:]) or check(*a))
        combined_loss(*loss_inputs(0, *SHAPES["desk"]), cfg)
        assert seen == [("yF",)] * (cfg.beta > 0.0)

    @pytest.mark.parametrize("variant", COMBINED_VARIANTS)
    def test_each_head_checks_its_logits_once(self, variant, monkeypatch):
        cfg = TrainConfig(variant=variant).loss_config()
        seen = []
        check = losses._check_finite_logits
        monkeypatch.setattr(losses, "_check_finite_logits", lambda z: seen.append(z.shape) or check(z))
        inputs = loss_inputs(0, *SHAPES["desk"])
        combined_loss(*inputs, cfg)
        heads = [(128, 80)] * (cfg.alpha > 0.0) + [(128, 40)] * (cfg.alpha < 1.0)
        assert seen == heads
        inputs[0][5, 2] = np.nan
        with pytest.raises(NumericError, match="non-finite logits"):
            combined_loss(*inputs, cfg, workspace=LossWorkspace())


class TestAmSoftmax:
    def test_margin_free_reduction(self):
        # with m=0, s=1 and unit-norm inputs, logits equal the raw inner
        # products of the normalized vectors, so the value matches plain
        # softmax cross-entropy
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        w = rng.normal(size=(3, 5))
        w /= np.linalg.norm(w, axis=0, keepdims=True)
        ids = np.array([0, 1, 2, 4])
        res = am_softmax_loss(x, id_head(w), ids, margin=0.0, scale=1.0)
        ref_value = ce_value(x, id_head(w), ids)
        assert res.value == pytest.approx(ref_value, abs=1e-12)

    def test_symmetric_instance_closed_form(self):
        # both prototype columns identical and aligned with x: cos = 1 for
        # target and non-target alike, so the per-sample loss is
        # -log(e^{s(1-m)} / (e^{s(1-m)} + e^{s})) = log(1 + e^{s m})
        s, m = 15.0, 0.3
        w = np.array([[1.0, 1.0], [0.0, 0.0]])
        x = np.array([[2.0, 0.0]])
        res = am_softmax_loss(x, id_head(w), np.array([0]), margin=m, scale=s)
        assert res.value == pytest.approx(np.logaddexp(0.0, s * m), rel=1e-12)

    def test_finite_difference(self):
        for seed in range(5):
            x, _, w_id, ids, _, _, _ = random_instance(seed)
            res = am_softmax_loss(x, w_id, ids, *AM)
            fd_x = central_difference(
                lambda a: am_softmax_loss(a, w_id, ids, *AM).value, x
            )
            assert relative_error(res.grad_embeddings, fd_x) <= FD_TOL
            fd_w = central_difference(
                lambda a: am_softmax_loss(x, id_head(a), ids, *AM).value, w_id.W
            )
            assert relative_error(res.grad_identity_prototypes, fd_w) <= FD_TOL

    def test_parameter_validation(self):
        x = np.ones((1, 2))
        w = id_head(np.ones((2, 2)))
        with pytest.raises(ContractViolation):
            am_softmax_loss(x, w, np.array([0]), margin=-0.1, scale=AM[1])
        with pytest.raises(ContractViolation):
            am_softmax_loss(x, w, np.array([0]), margin=AM[0], scale=0.0)


class TestCircleLoss:
    def _saturated_instance(self, n):
        # sample at the optimum of the similarity geometry: cos to own
        # column 1, cos to every other column 0
        d = n + 1
        w = np.eye(d)[:, :n]
        x = np.zeros((1, d))
        x[0, 0] = 1.0
        return x, id_head(w), np.array([0])

    def test_saturated_optimum_closed_form(self):
        # at sp=1, sn=0 both logits reduce to -gamma*m^2, so the value is
        # log(1 + (N-1) * exp(-2*gamma*m^2)) exactly
        gamma, m = 32.0, 0.25
        for n in (2, 4):
            x, w, labels = self._saturated_instance(n)
            res = circle_loss(x, w, labels, gamma=gamma, margin=m)
            expected = np.log1p((n - 1) * np.exp(-2.0 * gamma * m**2))
            assert res.value == pytest.approx(expected, rel=1e-12)

    def test_gamma_monotone_on_suboptimal_instance(self):
        x, _, w_id, ids, _, _, _ = random_instance(9)
        values = [circle_loss(x, w_id, ids, g, CIRCLE[1]).value for g in (32.0, 64.0, 128.0)]
        diffs = np.diff(values)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_finite_difference(self):
        for seed in range(5):
            x, _, w_id, ids, _, _, _ = random_instance(seed)
            res = circle_loss(x, w_id, ids, *CIRCLE)
            fd_x = central_difference(lambda a: circle_loss(a, w_id, ids, *CIRCLE).value, x)
            assert relative_error(res.grad_embeddings, fd_x) <= FD_TOL
            fd_w = central_difference(
                lambda a: circle_loss(x, id_head(a), ids, *CIRCLE).value, w_id.W
            )
            assert relative_error(res.grad_identity_prototypes, fd_w) <= FD_TOL

    def test_needs_two_classes(self):
        with pytest.raises(ContractViolation):
            circle_loss(np.ones((1, 2)), id_head(np.ones((2, 1))), np.array([0]), *CIRCLE)


class TestHeadOnlyLossResult:
    @pytest.mark.parametrize("loss", [am_softmax_loss, circle_loss])
    def test_value_is_loss_softmax_and_flows_to_the_identity_head(self, loss):
        x, _, w_id, ids, _, _, _ = random_instance(2)
        res = loss(x, w_id, ids, *(AM if loss is am_softmax_loss else CIRCLE))
        assert res.components == {"loss_softmax": res.value}
        assert res.grad_modality_prototypes is None
        assert res.grad_identity_prototypes.shape == w_id.W.shape
        assert res.grad_embeddings.shape == x.shape


class TestThetaProbe:
    def test_grid_signs(self):
        for s in (1.0, 8.0, 16.0):
            for ti in np.arange(0.2, 2.81, 0.2):
                for tj in np.arange(0.2, 2.81, 0.2):
                    d1, d2 = theta_derivative_probe(float(ti), float(tj), s)
                    assert d1 > 0.0
                    assert d2 < 0.0

    def test_equal_angle_closed_form(self):
        for ti in (0.4, 1.2, 2.6):
            d1, _ = theta_derivative_probe(ti, ti, 1.0)
            assert d1 == pytest.approx(0.5 * np.sin(ti), abs=1e-12)

    def test_matches_finite_difference(self):
        # log1p form keeps full relative precision where the loss saturates
        def loss(ti, tj, s):
            zi, zj = s * np.cos(ti), s * np.cos(tj)
            return np.log1p(np.exp(zj - zi))

        h1 = 1e-6
        h2 = 1e-4  # second-order stencil needs a larger step for conditioning
        for ti, tj, s in ((0.7, 1.9, 8.0), (2.2, 0.4, 16.0), (1.0, 1.0, 1.0)):
            d1, _ = theta_derivative_probe(ti, tj, s)
            fd1 = (loss(ti + h1, tj, s) - loss(ti - h1, tj, s)) / (2 * h1)
            assert abs(d1 - fd1) / max(abs(d1), 1e-9) <= 1e-6
        # mixed partial checked away from saturation, where the FD stencil
        # itself is well conditioned
        for ti, tj, s in ((0.7, 1.9, 8.0), (1.2, 0.8, 1.0), (1.0, 1.0, 1.0)):
            _, d2 = theta_derivative_probe(ti, tj, s)
            fd2 = (
                loss(ti + h2, tj + h2, s)
                - loss(ti + h2, tj - h2, s)
                - loss(ti - h2, tj + h2, s)
                + loss(ti - h2, tj - h2, s)
            ) / (4 * h2 * h2)
            assert abs(d2 - fd2) / max(abs(d2), 1e-9) <= 1e-4

    def test_boundary_rejected(self):
        with pytest.raises(ContractViolation):
            theta_derivative_probe(0.0, 1.0, 1.0)
        with pytest.raises(ContractViolation):
            theta_derivative_probe(1.0, np.pi, 1.0)
        with pytest.raises(ContractViolation):
            theta_derivative_probe(1.0, 1.0, 0.0)


class TestSoftmaxFamilyProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-50.0, 50.0))
    def test_shift_invariance(self, seed, shift):
        """Adding a per-sample constant to all logits (via an extra input
        coordinate shared by every prototype column) changes nothing."""
        x, w_mod, w_id, ids, mods, y_w, y_f = random_instance(seed, b=4, d=3, n=3)
        x_aug = np.concatenate([x, np.full((4, 1), 1.0)], axis=1)
        w_id_aug = np.concatenate([w_id.W, np.zeros((1, 3))], axis=0)
        w_id_shift = w_id_aug.copy()
        w_id_shift[-1, :] = shift

        base_value, base_grad_x, _ = ce(x_aug, id_head(w_id_aug), ids)
        shifted_value, shifted_grad_x, _ = ce(x_aug, id_head(w_id_shift), ids)
        assert abs(base_value - shifted_value) <= 1e-12
        np.testing.assert_allclose(
            base_grad_x[:, :-1], shifted_grad_x[:, :-1], atol=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_values_nonnegative_and_finite(self, seed):
        x, w_mod, w_id, ids, mods, y_w, y_f = random_instance(seed)
        cfg = CombinedLossConfig(alpha=0.7, beta=1.0, use_feature_mask=True)
        for value in (
            ce_value(x, w_id, ids),
            ce_value(x, w_mod, y_w),
            ce_value(x, w_mod, y_f, drop=y_w),
            ce_value(x, w_mod, y_w, drop=y_f),
            am_softmax_loss(x, w_id, ids, *AM).value,
            circle_loss(x, w_id, ids, *CIRCLE).value,
            combined_loss(x, w_mod, w_id, ids, mods, cfg).value,
        ):
            assert np.isfinite(value)
            assert value >= 0.0
        assert ast_loss(x, w_mod, y_f)[0] >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_uniform_logits_are_the_maximum_entropy_bound(self, seed):
        """With uniform logits every softmax-family value equals ln(#active
        classes); generic logits at the same label never exceed the uniform
        value by construction of the softmax bound."""
        x0 = np.zeros((3, 4))
        _, w_mod, w_id, ids, _, y_w, y_f = random_instance(seed, b=3, d=4, n=3)
        assert ce_value(x0, w_id, ids) == pytest.approx(np.log(3), abs=1e-12)
        assert ce_value(x0, w_mod, y_w) == pytest.approx(np.log(6), abs=1e-12)
        assert ce_value(x0, w_mod, y_f, drop=y_w) == pytest.approx(
            np.log(5), abs=1e-12
        )
