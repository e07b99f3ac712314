import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sasoftmax.core import IdentityPrototypeMatrix, ModalityPrototypeMatrix
from sasoftmax.encoder import (
    EncoderParams,
    SGDState,
    encoder_backward,
    encoder_forward,
    init_encoder,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    sgd_step,
)
from sasoftmax.errors import ContractViolation
from sasoftmax.gradcheck import central_difference, relative_error


class TestInitEncoder:
    def test_deterministic(self):
        a = init_encoder([4, 3], 7)
        b = init_encoder([4, 3], 7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_shapes(self):
        p = init_encoder([4, 8, 3], 0)
        assert len(p.weights) == 2
        assert p.weights[0].shape == (4, 8)
        assert p.weights[1].shape == (8, 3)
        assert p.layer_dims == [4, 8, 3]
        assert all(np.all(b == 0) for b in p.biases)

    def test_seed_sensitivity(self):
        a = init_encoder([4, 3], 7)
        b = init_encoder([4, 3], 8)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_rejects_bad_dims(self):
        with pytest.raises(ContractViolation):
            init_encoder([4], 0)
        with pytest.raises(ContractViolation):
            init_encoder([4, 0, 3], 0)


class TestForward:
    def test_zero_params_zero_output(self):
        p = EncoderParams([np.zeros((3, 2))], [np.zeros(2)])
        out, _ = encoder_forward(p, np.random.default_rng(0).normal(size=(4, 3)))
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_identity_layer(self):
        p = EncoderParams([np.eye(3)], [np.zeros(3)])
        x = np.random.default_rng(1).normal(size=(5, 3))
        out, _ = encoder_forward(p, x)
        np.testing.assert_array_equal(out, x)

    def test_matches_brute_force(self, rng):
        p = init_encoder([4, 6, 5, 3], 2)
        x = rng.normal(size=(7, 4))
        out, _ = encoder_forward(p, x)
        # independent recomputation with explicit loops over layers
        a = x
        for l in range(3):
            z = a @ p.weights[l] + p.biases[l]
            a = z if l == 2 else np.maximum(z, 0.0)
        np.testing.assert_allclose(out, a, atol=1e-12)

    def test_shape_mismatch(self):
        p = init_encoder([4, 3], 0)
        with pytest.raises(ContractViolation):
            encoder_forward(p, np.zeros((2, 5)))


class TestBackward:
    def test_zero_upstream_grad(self, rng):
        p = init_encoder([3, 4, 2], 3)
        _, cache = encoder_forward(p, rng.normal(size=(5, 3)))
        gw, gb = encoder_backward(p, cache, np.zeros((5, 2)))
        assert all(np.all(g == 0) for g in gw + gb)

    def test_linear_layer_closed_form(self, rng):
        # single linear layer, upstream grad all-ones (loss = sum of outputs):
        # dL/dW = X^T 1, dL/db = B
        x = rng.normal(size=(6, 3))
        p = EncoderParams([rng.normal(size=(3, 2))], [np.zeros(2)])
        _, cache = encoder_forward(p, x)
        gw, gb = encoder_backward(p, cache, np.ones((6, 2)))
        np.testing.assert_allclose(gw[0], x.T @ np.ones((6, 2)), atol=1e-12)
        np.testing.assert_allclose(gb[0], np.full(2, 6.0), atol=1e-12)

    def test_finite_difference_fixed_projection(self, rng):
        p = init_encoder([4, 5, 3], 4)
        x = rng.normal(size=(6, 4))
        proj = rng.normal(size=(6, 3))

        def scalarize() -> float:
            out, _ = encoder_forward(p, x)
            return float((out * proj).sum())

        _, cache = encoder_forward(p, x)
        gw, gb = encoder_backward(p, cache, proj)
        for analytic, arr in zip(gw + gb, p.weights + p.biases):
            fd = central_difference(lambda _a: scalarize(), arr)
            assert relative_error(analytic, fd) <= 1e-6

    def test_stale_cache_rejected(self, rng):
        p = init_encoder([3, 2], 5)
        _, cache = encoder_forward(p, rng.normal(size=(4, 3)))
        with pytest.raises(ContractViolation):
            encoder_backward(p, cache, np.zeros((3, 2)))


class TestSGD:
    def test_plain_step(self):
        p = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        state = SGDState([p])
        sgd_step(state, [g], lr=1.0, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(p, [0.5, 2.5], atol=1e-15)

    def test_zero_grad_no_motion(self):
        p = np.array([1.0, 2.0])
        state = SGDState([p])
        sgd_step(state, [np.zeros(2)], lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_momentum_hand_unrolled(self):
        # v1 = g, v2 = 0.9 g + g = 1.9 g; displacement = lr (1 + 1.9) g
        p = np.array([0.0])
        g = np.array([1.0])
        lr = 0.1
        state = SGDState([p])
        sgd_step(state, [g], lr, momentum=0.9, weight_decay=0.0)
        sgd_step(state, [g], lr, momentum=0.9, weight_decay=0.0)
        assert p[0] == pytest.approx(-lr * (1.0 + 1.9), abs=1e-15)

    def test_weight_decay_oracle(self):
        # one step: v = g + wd*p0; p1 = p0 - lr*v
        p0, g, wd, lr = 2.0, 0.5, 0.01, 0.1
        p = np.array([p0])
        state = SGDState([p])
        sgd_step(state, [np.array([g])], lr, momentum=0.0, weight_decay=wd)
        assert p[0] == pytest.approx(p0 - lr * (g + wd * p0), abs=1e-15)

    def test_none_gradient_leaves_its_array_and_velocity(self):
        """A None gradient skips its array; the others move exactly as in a
        call without that array."""
        rng = np.random.default_rng(3)
        arrays = [rng.normal(size=s) for s in ((2, 3), (4,), (3,))]
        grads = [rng.normal(size=(2, 3)), None, rng.normal(size=3)]
        state = SGDState(arrays)
        for v in state.velocities:
            v[...] = rng.normal(size=v.shape)
        ref_arrays = [arrays[0].copy(), arrays[2].copy()]
        ref = SGDState(ref_arrays)
        ref.velocities = [state.velocities[0].copy(), state.velocities[2].copy()]
        held = arrays[1].copy(), state.velocities[1].copy()
        for _ in range(2):
            sgd_step(state, grads, 0.1, momentum=0.9, weight_decay=0.01)
            sgd_step(ref, [grads[0], grads[2]], 0.1, momentum=0.9, weight_decay=0.01)
        np.testing.assert_array_equal(arrays[1], held[0])
        np.testing.assert_array_equal(state.velocities[1], held[1])
        for got, want in zip(
            [arrays[0], arrays[2], state.velocities[0], state.velocities[2]],
            ref_arrays + ref.velocities,
        ):
            np.testing.assert_array_equal(got, want)

    def test_rejects_bad_lr_and_shapes(self):
        p = np.zeros(2)
        state = SGDState([p])
        with pytest.raises(ContractViolation):
            sgd_step(state, [np.zeros(2)], lr=0.0, momentum=0.9, weight_decay=5e-4)
        with pytest.raises(ContractViolation):
            sgd_step(state, [np.zeros(3)], lr=0.1, momentum=0.9, weight_decay=5e-4)
        with pytest.raises(ContractViolation):
            sgd_step(state, [np.zeros(2)] * 2, lr=0.1, momentum=0.9, weight_decay=5e-4)


class TestLrSchedule:
    def test_paper_schedule(self):
        assert lr_schedule(0.01, 0, [40, 80], 0.1) == pytest.approx(0.01)
        assert lr_schedule(0.01, 40, [40, 80], 0.1) == pytest.approx(0.001)
        assert lr_schedule(0.01, 80, [40, 80], 0.1) == pytest.approx(0.0001)

    def test_between_milestones(self):
        assert lr_schedule(0.01, 39, [40, 80], 0.1) == pytest.approx(0.01)
        assert lr_schedule(0.01, 79, [40, 80], 0.1) == pytest.approx(0.001)

    def test_unsorted_milestones_rejected(self):
        with pytest.raises(ContractViolation):
            lr_schedule(0.01, 0, [80, 40], 0.1)


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path, rng):
        params = init_encoder([4, 6, 3], 11)
        w_mod = ModalityPrototypeMatrix(rng.normal(size=(3, 8)))
        w_id = IdentityPrototypeMatrix(rng.normal(size=(3, 4)))
        path = tmp_path / "model.txt"
        save_checkpoint(path, params, w_mod, w_id)
        p2, m2, i2 = load_checkpoint(path)
        assert p2.layer_dims == params.layer_dims
        for a, b in zip(params.weights + params.biases, p2.weights + p2.biases):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(m2.W, w_mod.W)
        np.testing.assert_array_equal(i2.W, w_id.W)

    def test_magic_header_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOTAMODEL\n")
        with pytest.raises(ContractViolation):
            load_checkpoint(path)

    def _saved(self, tmp_path):
        params = init_encoder([4, 6, 3], 11)
        w_mod = ModalityPrototypeMatrix(np.ones((3, 8)))
        w_id = IdentityPrototypeMatrix(np.ones((3, 4)))
        path = tmp_path / "model.txt"
        save_checkpoint(path, params, w_mod, w_id)
        return path

    def test_every_truncation_is_a_contract_violation(self, tmp_path):
        text = self._saved(tmp_path).read_text()
        cut = tmp_path / "cut.txt"
        for size in range(len("SASMODEL1\n"), len(text) - 1, 7):
            cut.write_text(text[:size])
            with pytest.raises(ContractViolation, match="cut.txt"):
                load_checkpoint(cut)

    @pytest.mark.parametrize(
        "line, bad, what",
        [(1, "4 six 3", "layer dims"), (3, "0.5 abc", "W0"), (2, "W0 4 x", "W0"), (7, "1.0", "W1")],
    )
    def test_unparsable_line_names_path_and_array(self, tmp_path, line, bad, what):
        path = self._saved(tmp_path)
        lines = path.read_text().split("\n")
        lines[line] = bad
        path.write_text("\n".join(lines))
        with pytest.raises(ContractViolation, match="model.txt") as err:
            load_checkpoint(path)
        assert what in str(err.value)

    # Lines of the _saved checkpoint: 1 dims "4 6 3", 2/3 W0, 4/5 b0, 6/7 W1,
    # 8/9 b1, 10/11 modality_prototypes (3 x 8), 12/13 identity_prototypes (3 x 4).
    @pytest.mark.parametrize(
        "edits, what",
        [
            ({1: "4 5 3"}, "W0"),
            ({4: "b0 2", 5: "0.0 0.0"}, "b0"),
            ({8: "b1 4", 9: "0.0 0.0 0.0 0.0"}, "b1"),
            ({10: "modality_prototypes 3 6", 11: " ".join(["1.0"] * 18)}, "modality_prototypes"),
            ({10: "modality_prototypes 2 8", 11: " ".join(["1.0"] * 16)}, "modality_prototypes"),
            ({10: "modality_prototypes 24", 11: " ".join(["1.0"] * 24)}, "modality_prototypes"),
            ({12: "identity_prototypes 2 4", 13: " ".join(["1.0"] * 8)}, "identity_prototypes"),
            ({12: "identity_prototypes 12", 13: " ".join(["1.0"] * 12)}, "identity_prototypes"),
        ],
    )
    def test_shape_disagreement_names_path_and_array(self, tmp_path, edits, what):
        path = self._saved(tmp_path)
        lines = path.read_text().split("\n")
        for i, text in edits.items():
            lines[i] = text
        path.write_text("\n".join(lines))
        with pytest.raises(ContractViolation, match="model.txt") as err:
            load_checkpoint(path)
        assert f"array {what} has shape" in str(err.value)

    @pytest.mark.parametrize(
        "edits",
        [
            # too big for NumPy to shape, though it holds no values
            {10: "modality_prototypes 100000000000000000000 0", 11: ""},
            # no identities: the heads' diagnostics would be means of nothing
            {10: "modality_prototypes 3 0", 11: "", 12: "identity_prototypes 3 0", 13: ""},
        ],
    )
    def test_empty_array_names_path_and_array(self, tmp_path, edits):
        path = self._saved(tmp_path)
        lines = path.read_text().split("\n")
        for i, text in edits.items():
            lines[i] = text
        path.write_text("\n".join(lines))
        with pytest.raises(
            ContractViolation, match=r"model.txt corrupt: array modality_prototypes has shape \("
        ) as err:
            load_checkpoint(path)
        assert str(err.value).endswith("a dimension below 1")

    @pytest.mark.parametrize("line, what", [(3, "W0"), (9, "b1"), (13, "identity_prototypes")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_path_and_array(self, tmp_path, line, what, value):
        path = self._saved(tmp_path)
        lines = path.read_text().split("\n")
        lines[line] = " ".join([value] + lines[line].split()[1:])
        path.write_text("\n".join(lines))
        with pytest.raises(ContractViolation, match=f"model.txt corrupt: array {what} has non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", ["4", "4 0 3", ""])
    def test_degenerate_layer_dims_rejected(self, tmp_path, dims):
        path = self._saved(tmp_path)
        lines = path.read_text().split("\n")
        lines[1] = dims
        path.write_text("\n".join(lines))
        with pytest.raises(ContractViolation, match="model.txt corrupt: layer dims"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tail", [b"\xff\xfe", b"4 6 3\nW0 4 6\n\xff\xfe\n"])
    def test_non_utf8_names_path(self, tmp_path, tail):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"SASMODEL1\n" + tail)
        with pytest.raises(ContractViolation, match="bin.txt is not UTF-8"):
            load_checkpoint(path)


_CHECKPOINT_TOKENS = st.one_of(
    st.sampled_from(
        ["SASMODEL1", "W0", "b1", "modality_prototypes", "identity_prototypes", "nan", "-inf",
         "1e999", "abc", "", "9" * 30, "100000000000000000000", "\u0663", "1_0"]
    ),
    st.integers(-2, 9).map(str),
    st.floats().map(repr),
)
# (kind, where, what): a line replaced by tokens; bytes replaced, inserted or
# deleted; or the file cut. Positions wrap around the file's length.
_CHECKPOINT_EDITS = st.lists(
    st.one_of(
        st.tuples(
            st.just("line"),
            st.integers(0, 20),
            st.lists(_CHECKPOINT_TOKENS, max_size=5).map(lambda t: " ".join(t).encode()),
        ),
        st.tuples(
            st.sampled_from(["replace", "insert"]),
            st.integers(0, 10_000),
            st.binary(min_size=1, max_size=3),
        ),
        st.tuples(st.sampled_from(["delete", "cut"]), st.integers(0, 10_000), st.just(b"")),
    ),
    min_size=1,
    max_size=4,
)


def _edited(data: bytes, edits) -> bytes:
    for kind, at, piece in edits:
        if kind == "line":
            lines = data.split(b"\n")
            lines[at % len(lines)] = piece
            data = b"\n".join(lines)
            continue
        at %= len(data) + 1
        if kind == "cut":
            data = data[:at]
        elif kind == "delete":
            data = data[:at] + data[at + 1 :]
        elif kind == "replace":
            data = data[:at] + piece + data[at + len(piece) :]
        else:
            data = data[:at] + piece + data[at:]
    return data


class TestLoadCheckpointFuzz:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        """A two-layer checkpoint with 2 identities. Lines: 1 dims "3 4 2",
        2/3 W0, 4/5 b0, 6/7 W1, 8/9 b1, 10/11 modality_prototypes (2 x 4),
        12/13 identity_prototypes (2 x 2)."""
        path = tmp_path_factory.mktemp("ckpt") / "model.txt"
        rng = np.random.default_rng(3)
        save_checkpoint(
            path,
            init_encoder([3, 4, 2], 5),
            ModalityPrototypeMatrix(rng.normal(size=(2, 4))),
            IdentityPrototypeMatrix(rng.normal(size=(2, 2))),
        )
        return path.read_bytes()

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_CHECKPOINT_EDITS)
    @example([("line", 10, b"modality_prototypes 100000000000000000000 0"), ("line", 11, b"")])
    @example([("line", 10, b"modality_prototypes 2 0"), ("line", 11, b""),
              ("line", 12, b"identity_prototypes 2 0"), ("line", 13, b"")])
    @example([("insert", 40, b"\xff")])
    @example([("cut", 0, b"")])
    def test_checkpoint_or_one_line_contract_violation(self, tmp_path_factory, saved, edits):
        """Truncated, mutated or non-UTF-8 bytes give a checkpoint whose
        arrays have the shapes its dims line and identity count give them,
        or a one-line ContractViolation naming the file, never another
        exception."""
        path = tmp_path_factory.getbasetemp() / "fuzz-ckpt.txt"
        path.write_bytes(_edited(saved, edits))
        try:
            params, w_mod, w_id = load_checkpoint(path)
        except ContractViolation as exc:
            message = str(exc)
            assert "\n" not in message and str(path) in message
            return
        dims = params.layer_dims
        assert [w.shape for w in params.weights] == list(zip(dims[:-1], dims[1:]))
        assert [b.shape for b in params.biases] == [(d,) for d in dims[1:]]
        n = w_id.num_identities
        assert n >= 1 and w_id.W.shape == (dims[-1], n)
        assert w_mod.W.shape == (dims[-1], 2 * n)
        for arr in params.weights + params.biases + [w_mod.W, w_id.W]:
            assert np.isfinite(arr).all()
