import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sasoftmax.core import (
    Dataset,
    IdentityPrototypeMatrix,
    Modality,
    ModalityPrototypeMatrix,
    load_dataset_csv,
    atomic_write,
    rewrite_labels_batch,
    save_dataset_csv,
)
from sasoftmax.encoder import EncoderParams
from sasoftmax.errors import ContractViolation, DegenerateNormError
from sasoftmax.evaluation import (
    Direction,
    cosine_matrix,
    cross_modal_eval,
    intra_cross_plan,
    mean_intra_cross_cosine,
    prototype_diagnostics,
)
from sasoftmax.losses import am_softmax_loss, ast_loss, circle_loss
from sasoftmax.trainer import TrainConfig, init_train_state, train_step

from conftest import csv_writer_bytes


def rewrite_one(identity, modality, n):
    """rewrite_labels_batch on a length-1 batch, as a pair of ints."""
    y_w, y_f = rewrite_labels_batch(np.array([identity]), np.array([int(modality)]), n)
    return int(y_w[0]), int(y_f[0])


class TestRewriteLabels:
    def test_vis_branch(self):
        assert rewrite_one(2, Modality.VIS, 4) == (2, 6)

    def test_nir_branch(self):
        assert rewrite_one(2, Modality.NIR, 4) == (6, 2)

    def test_smallest_instance(self):
        assert rewrite_one(0, Modality.VIS, 1) == (0, 1)

    def test_out_of_range_identity(self):
        with pytest.raises(ContractViolation):
            rewrite_one(4, Modality.VIS, 4)

    @given(st.integers(1, 50), st.data())
    def test_properties(self, n, data):
        ident = data.draw(st.integers(0, n - 1))
        for mod in (Modality.VIS, Modality.NIR):
            y_w, y_f = rewrite_one(ident, mod, n)
            assert y_w != y_f
            assert abs(y_w - y_f) == n
            assert {y_w % n, y_f % n} == {ident}
            # exactly one of the pair lies in the visible half
            assert (y_w < n) != (y_f < n)

    @given(st.integers(1, 50), st.data())
    def test_modality_swap_is_involution(self, n, data):
        ident = data.draw(st.integers(0, n - 1))
        y_w, y_f = rewrite_one(ident, Modality.VIS, n)
        assert rewrite_one(ident, Modality.NIR, n) == (y_f, y_w)

    def test_batch_matches_scalar(self):
        n = 5
        ids = np.array([0, 2, 4, 1])
        mods = np.array([0, 1, 0, 1])
        y_w, y_f = rewrite_labels_batch(ids, mods, n)
        for i in range(len(ids)):
            sw, sf = rewrite_one(int(ids[i]), Modality(int(mods[i])), n)
            assert (y_w[i], y_f[i]) == (sw, sf)

    def test_batch_rejects_out_of_range(self):
        with pytest.raises(ContractViolation):
            rewrite_labels_batch(np.array([3]), np.array([0]), 3)


class TestPrototypeMatrices:
    def test_modality_layout(self):
        w = np.arange(12, dtype=float).reshape(2, 6)
        m = ModalityPrototypeMatrix(w)
        assert m.num_identities == 3
        np.testing.assert_array_equal(m.visible(), w[:, :3])
        np.testing.assert_array_equal(m.infrared(), w[:, 3:])

    def test_odd_column_count_rejected(self):
        with pytest.raises(ContractViolation):
            ModalityPrototypeMatrix(np.zeros((2, 5)))

    def test_nonfinite_rejected(self):
        bad = np.zeros((2, 4))
        bad[0, 0] = np.nan
        with pytest.raises(ContractViolation):
            ModalityPrototypeMatrix(bad)
        with pytest.raises(ContractViolation):
            IdentityPrototypeMatrix(np.full((2, 3), np.inf))

    def test_identity_matrix_shape(self):
        m = IdentityPrototypeMatrix(np.zeros((3, 7)))
        assert m.num_identities == 7


def _labelled_samples(n):
    return st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([0, 1])), max_size=40),
    )


class TestIndicesOf:
    @given(st.integers(1, 6).flatmap(_labelled_samples))
    @example((3, [(0, 0), (2, 1), (0, 1), (1, 0), (0, 0), (2, 1)]))  # 1 has no NIR, 2 no VIS
    def test_matches_brute_force_scan(self, case):
        n, samples = case
        ids = np.array([i for i, _ in samples], dtype=int)
        mods = np.array([m for _, m in samples], dtype=int)
        ds = Dataset(np.zeros((len(samples), 1)), ids, mods, n, 1)
        for ident in range(-2, n + 2):  # out-of-range identities must not wrap around
            for mod in Modality:
                got = ds.indices_of(ident, mod)
                want = np.nonzero((ids == ident) & (mods == int(mod)))[0]
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
                assert not got.flags.writeable

    def test_pool_cannot_be_mutated(self):
        ds = Dataset(np.zeros((3, 1)), np.array([0, 0, 1]), np.array([0, 0, 1]), 2, 1)
        pool = ds.indices_of(0, Modality.VIS)
        with pytest.raises(ValueError):
            pool[0] = 2
        np.testing.assert_array_equal(ds.indices_of(0, Modality.VIS), [0, 1])

    def test_unknown_modality_code_rejected(self):
        with pytest.raises(ContractViolation, match="modality codes"):
            Dataset(np.zeros((2, 1)), np.array([0, 0]), np.array([0, 2]), 1, 1)


class TestSampleAndDataset:
    def test_csv_roundtrip_exact(self, tmp_path, rng):
        feats = rng.normal(size=(8, 3))
        ids = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        mods = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        ds = Dataset(feats, ids, mods, 4, 3)
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        # repr-based float serialization is lossless
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.identities, ds.identities)
        np.testing.assert_array_equal(back.modalities, ds.modalities)

    @pytest.mark.parametrize(
        "features",
        [
            np.array([[-0.0, 5e-324, 1e308], [0.1 + 0.2, -1e-300, 7.0], [np.pi, -2.5, 1e16]]),
            np.zeros((0, 3)),
        ],
        ids=["edge-floats", "no-rows"],
    )
    def test_csv_bytes_match_csv_writer(self, tmp_path, features):
        ids = np.array([0, 12, 123456789])[: len(features)]
        mods = np.array([0, 1, 1])[: len(features)]
        path = tmp_path / "data.csv"
        save_dataset_csv(Dataset(features, ids, mods, 123456790, 3), path)
        assert path.read_bytes() == csv_writer_bytes(ids, mods, features, "f")

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar,f0\n0,V,1.0\n")
        with pytest.raises(ContractViolation):
            load_dataset_csv(path)

    def test_csv_rejects_unknown_modality_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,modality,f0\n0,X,1.0\n")
        with pytest.raises(ContractViolation):
            load_dataset_csv(path)

    @pytest.mark.parametrize(
        "body, line, what",
        [
            ("0,V,1.0\n0,N,abc\n", 3, "abc"),
            ("0,V,1.0\nx,N,2.0\n", 3, "'x'"),
            ("0,V,1.0\n1,V,2.0\n0,X,1.0\n", 4, "'X'"),
            ("0\n", 2, "missing id or modality"),
        ],
    )
    def test_csv_malformed_row_names_path_and_line(self, tmp_path, body, line, what):
        path = tmp_path / "bad.csv"
        path.write_text("id,modality,f0\n" + body)
        with pytest.raises(ContractViolation, match=f"bad.csv:{line}: ") as err:
            load_dataset_csv(path)
        assert what in str(err.value)

    @pytest.mark.parametrize("text", ["", "id,modality,f0,f1\n0,V,1.0,2.0\n1,N,1.0\n"])
    def test_csv_empty_or_ragged_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ContractViolation):
            load_dataset_csv(path)

    @pytest.mark.parametrize(
        "data", [b"\xff\xfe", b"id,modality,f0\n0,V,1.0\n0,N,\xff\xfe\n"]
    )
    def test_csv_non_utf8_names_path(self, tmp_path, data):
        path = tmp_path / "bin.csv"
        path.write_bytes(data)
        with pytest.raises(ContractViolation, match="bin.csv is not UTF-8"):
            load_dataset_csv(path)


_CSV_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["V", "N", "X", "", "nan", "-inf", "1e999", "abc", " 1", "1_0", "2" * 25]),
    st.text(max_size=4),
)
_CSV_FILES = st.one_of(
    # near-valid files: the right header over rows of mixed tokens
    st.tuples(
        st.integers(0, 3),
        st.lists(st.lists(_CSV_TOKENS, max_size=6).map(",".join), max_size=6),
    ).map(
        lambda hr: "\n".join(
            [",".join(["id", "modality"] + [f"f{i}" for i in range(hr[0])]), *hr[1]]
        ).encode()
    ),
    st.text().map(str.encode),
    st.binary(max_size=64),
)


class TestLoadDatasetCsvFuzz:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_CSV_FILES)
    @example(b"id,modality,f0\n0,V,1.0\n0,N,nan\n")
    @example(b"id,modality,f0\n99999999999999999999999,V,1.0\n")
    @example(b"id," + b"x" * 200_000 + b"\n")
    def test_valid_dataset_or_contract_violation(self, tmp_path_factory, data):
        """Any bytes give a Dataset with finite features or a
        ContractViolation, never another exception."""
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(data)
        try:
            ds = load_dataset_csv(path)
        except ContractViolation:
            return
        assert ds.features.shape == (len(ds), ds.input_dim)
        assert np.isfinite(ds.features).all()


class TestAtomicWrite:
    def test_completed_write_replaces_target(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"old\n")
        with atomic_write(path) as fh:
            fh.write("caf\u00e9\r\nnew\n")
            assert path.read_bytes() == b"old\n"
        assert path.read_bytes() == "caf\u00e9\r\nnew\n".encode("utf-8")
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_leaves_nothing(self, tmp_path):
        path = tmp_path / "a.txt"
        with pytest.raises(RuntimeError, match="partway"):
            with atomic_write(path) as fh:
                fh.write("half a row")
                fh.flush()
                assert not path.exists()
                raise RuntimeError("partway")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_old_bytes(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"old\n")
        with pytest.raises(KeyboardInterrupt):
            with atomic_write(path) as fh:
                fh.write("new")
                raise KeyboardInterrupt
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]


# Four identities, each with two VIS rows and then two NIR rows; yF, the
# cross-modality column of each row, is [4, 5, 6, 7, 4, 5, 6, 7, 0, 1, 2, 3, 0, 1, 2, 3]
IDS = np.tile(np.arange(4), 4)
MODS = np.repeat([int(Modality.VIS), int(Modality.NIR)], 8)
Y_F = IDS + (1 - MODS) * 4
_rng = np.random.default_rng(0)
ROWS, W_MOD, W_ID = _rng.normal(size=(16, 3)), _rng.normal(size=(3, 8)), _rng.normal(size=(3, 4))


def zeroed(x, axis, i):
    """A copy of `x` with its row (axis 1) or column (axis 0) `i` zero."""
    x = x.copy()
    if axis:
        x[i] = 0.0
    else:
        x[:, i] = 0.0
    return x


def diagnostics(w_mod, w_id):
    return prototype_diagnostics(ModalityPrototypeMatrix(w_mod), IdentityPrototypeMatrix(w_id))


def head_loss(loss, rows, w_id, *hyper):
    """An identity-head-only loss of `rows`, labelled IDS, on the head `w_id`."""
    return loss(rows, IdentityPrototypeMatrix(w_id), IDS, *hyper)


def evaluate(rows):
    identity = EncoderParams([np.eye(3)], [np.zeros(3)])
    return cross_modal_eval(identity, Dataset(rows, IDS, MODS, 4, 3), list(Direction))


def step(rows, batch):
    """One SAS_FM_AST step of a linear encoder, whose biases start at zero:
    a zero feature row is a zero embedding."""
    cfg = TrainConfig(hidden_dims=(), embed_dim=3, seed=0)
    ds = Dataset(rows, IDS, MODS, 4, 3)
    train_step(init_train_state(ds, cfg), ds, batch, cfg, lr=0.1)


class TestNearZeroNormNamedAtEverySite:
    """Every cosine checks its norms with core._checked_norms, which names
    what it checked and the index of the first row or column of near-zero
    norm, whether or not a pair would use it."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: cosine_matrix(zeroed(ROWS, 1, 2), ROWS), "query row 2 has near-zero norm"),
            (lambda: cosine_matrix(ROWS, zeroed(ROWS, 1, 4)), "gallery row 4 has near-zero norm"),
            # rows counted within their modality: VIS row 5 is row 5, NIR row 2 is row 10
            (lambda: evaluate(zeroed(ROWS, 1, 5)), "query row 5 has near-zero norm"),
            (lambda: evaluate(zeroed(ROWS, 1, 10)), "gallery row 2 has near-zero norm"),
            (lambda: mean_intra_cross_cosine(zeroed(ROWS, 1, 11), intra_cross_plan(IDS, MODS)),
             "gallery row 3 has near-zero norm"),
            (lambda: diagnostics(zeroed(W_MOD, 0, 1), W_ID),
             "visible modality prototype column 1 has near-zero norm"),
            (lambda: diagnostics(zeroed(W_MOD, 0, 6), W_ID),
             "infrared modality prototype column 2 has near-zero norm"),
            (lambda: diagnostics(W_MOD, zeroed(W_ID, 0, 3)),
             "identity prototype column 3 has near-zero norm"),
            (lambda: ast_loss(zeroed(ROWS, 1, 7), ModalityPrototypeMatrix(W_MOD), Y_F),
             "embeddings row 7 has near-zero norm"),
            # column 2 is the target of rows 10 and 14: the first is named
            (lambda: ast_loss(ROWS, ModalityPrototypeMatrix(zeroed(W_MOD, 0, 2)), Y_F),
             "target prototypes row 10 has near-zero norm"),
            (lambda: head_loss(am_softmax_loss, zeroed(ROWS, 1, 3), W_ID, 0.3, 15.0),
             "embeddings row 3 has near-zero norm"),
            (lambda: head_loss(am_softmax_loss, ROWS, zeroed(W_ID, 0, 1), 0.3, 15.0),
             "identity prototype column 1 has near-zero norm"),
            (lambda: head_loss(circle_loss, zeroed(ROWS, 1, 9), W_ID, 32.0, 0.25),
             "embeddings row 9 has near-zero norm"),
            (lambda: head_loss(circle_loss, ROWS, zeroed(W_ID, 0, 2), 32.0, 0.25),
             "identity prototype column 2 has near-zero norm"),
            # the batch's row, then the batch itself
            (lambda: step(zeroed(ROWS, 1, 6), np.array([5, 2, 6, 0])),
             "embeddings row 2 has near-zero norm; offending batch indices: [5, 2, 6, 0]"),
        ],
        ids=[
            "cosine_matrix-query", "cosine_matrix-gallery", "cross_modal_eval-vis",
            "cross_modal_eval-nir", "mean_intra_cross_cosine", "prototype_diagnostics-visible",
            "prototype_diagnostics-infrared", "prototype_diagnostics-identity",
            "ast_loss-embeddings", "ast_loss-targets", "am_softmax_loss-embeddings",
            "am_softmax_loss-columns", "circle_loss-embeddings", "circle_loss-columns",
            "train_step",
        ],
    )
    def test_message_names_the_first_bad_index(self, call, message):
        with pytest.raises(DegenerateNormError, match=f"^{re.escape(message)}$"):
            call()


def test_every_public_name_resolves():
    import sasoftmax

    assert len(set(sasoftmax.__all__)) == len(sasoftmax.__all__)
    for name in sasoftmax.__all__:
        assert getattr(sasoftmax, name) is not None, name
