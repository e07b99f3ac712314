import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sasoftmax.core import (
    Dataset,
    IdentityPrototypeMatrix,
    Modality,
    ModalityPrototypeMatrix,
    load_dataset_csv,
    rewrite_labels,
    rewrite_labels_batch,
    save_dataset_csv,
)
from sasoftmax.errors import ContractViolation


class TestRewriteLabels:
    def test_vis_branch(self):
        assert rewrite_labels(2, Modality.VIS, 4) == (2, 6)

    def test_nir_branch(self):
        assert rewrite_labels(2, Modality.NIR, 4) == (6, 2)

    def test_smallest_instance(self):
        assert rewrite_labels(0, Modality.VIS, 1) == (0, 1)

    def test_out_of_range_identity(self):
        with pytest.raises(ContractViolation):
            rewrite_labels(4, Modality.VIS, 4)

    @given(st.integers(1, 50), st.data())
    def test_properties(self, n, data):
        ident = data.draw(st.integers(0, n - 1))
        for mod in (Modality.VIS, Modality.NIR):
            y_w, y_f = rewrite_labels(ident, mod, n)
            assert y_w != y_f
            assert abs(y_w - y_f) == n
            assert {y_w % n, y_f % n} == {ident}
            # exactly one of the pair lies in the visible half
            assert (y_w < n) != (y_f < n)

    @given(st.integers(1, 50), st.data())
    def test_modality_swap_is_involution(self, n, data):
        ident = data.draw(st.integers(0, n - 1))
        y_w, y_f = rewrite_labels(ident, Modality.VIS, n)
        assert rewrite_labels(ident, Modality.NIR, n) == (y_f, y_w)

    def test_batch_matches_scalar(self):
        n = 5
        ids = np.array([0, 2, 4, 1])
        mods = np.array([0, 1, 0, 1])
        y_w, y_f = rewrite_labels_batch(ids, mods, n)
        for i in range(len(ids)):
            sw, sf = rewrite_labels(int(ids[i]), Modality(int(mods[i])), n)
            assert (y_w[i], y_f[i]) == (sw, sf)

    def test_batch_rejects_out_of_range(self):
        with pytest.raises(ContractViolation):
            rewrite_labels_batch(np.array([3]), np.array([0]), 3)


class TestPrototypeMatrices:
    def test_modality_layout(self):
        w = np.arange(12, dtype=float).reshape(2, 6)
        m = ModalityPrototypeMatrix(w)
        assert m.num_identities == 3
        assert m.dim == 2
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
        assert m.dim == 3


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


def test_every_public_name_resolves():
    import sasoftmax

    assert len(set(sasoftmax.__all__)) == len(sasoftmax.__all__)
    for name in sasoftmax.__all__:
        assert getattr(sasoftmax, name) is not None, name
