import numpy as np
import pytest

from sasoftmax.core import Modality
from sasoftmax.data import SynthConfig, generate_synthetic, pk_sample, split_by_identity
from sasoftmax.errors import ContractViolation
from sasoftmax.evaluation import cosine_matrix


def small_config(**kw):
    base = dict(
        num_identities=6,
        samples_per_identity_per_modality=4,
        input_dim=5,
        modality_gap=1.2,
        noise_sigma=0.25,
        seed=3,
    )
    base.update(kw)
    return SynthConfig(**base)


class TestGenerate:
    def test_gap_free_noiseless_limit(self):
        ds = generate_synthetic(small_config(modality_gap=0.0, noise_sigma=0.0))
        for ident in range(ds.num_identities):
            rows = ds.features[ds.identities == ident]
            assert np.abs(rows - rows[0]).max() < 1e-15

    def test_pair_difference_norm_closed_form(self):
        ds = generate_synthetic(small_config(modality_gap=2.0, noise_sigma=0.0))
        for ident in range(ds.num_identities):
            v = ds.features[ds.indices_of(ident, Modality.VIS)[0]]
            n = ds.features[ds.indices_of(ident, Modality.NIR)[0]]
            assert np.linalg.norm(v - n) == pytest.approx(2.0, abs=1e-12)

    def test_unit_centers(self):
        ds = generate_synthetic(small_config(modality_gap=0.0, noise_sigma=0.0))
        norms = np.linalg.norm(ds.features, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_default_config_cross_modality_gap_visible(self):
        ds = generate_synthetic(SynthConfig())
        emb, ids, mods = ds.features, ds.identities, ds.modalities
        vis = mods == int(Modality.VIS)
        nir = mods == int(Modality.NIR)
        cross = cosine_matrix(emb[vis], emb[nir])
        same_vis = cosine_matrix(emb[vis], emb[vis])
        same_ids_cross = ids[vis][:, None] == ids[nir][None, :]
        same_ids_vis = ids[vis][:, None] == ids[vis][None, :]
        off_diag = ~np.eye(vis.sum(), dtype=bool)
        mean_cross = cross[same_ids_cross].mean()
        mean_same = same_vis[same_ids_vis & off_diag].mean()
        assert mean_cross < mean_same

    def test_orthogonal_center_offset_cosine_formula(self):
        # with c unit, u unit, c ⟂ u: cos(c + g/2 u, c - g/2 u)
        # = (1 - g^2/4) / (1 + g^2/4)
        d = 6
        c = np.zeros(d)
        c[0] = 1.0
        u = np.zeros(d)
        u[1] = 1.0
        for g in (0.5, 1.2, 2.0):
            v = c + 0.5 * g * u
            n = c - 0.5 * g * u
            expected = (1.0 - g**2 / 4.0) / (1.0 + g**2 / 4.0)
            got = float(v @ n / (np.linalg.norm(v) * np.linalg.norm(n)))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_shared_offset_gives_single_direction(self):
        ds = generate_synthetic(small_config(shared_offset=True, noise_sigma=0.0))
        diffs = []
        for ident in range(ds.num_identities):
            v = ds.features[ds.indices_of(ident, Modality.VIS)[0]]
            n = ds.features[ds.indices_of(ident, Modality.NIR)[0]]
            diffs.append(v - n)
        diffs = np.stack(diffs)
        diffs /= np.linalg.norm(diffs, axis=1, keepdims=True)
        assert np.abs(diffs - diffs[0]).max() < 1e-12

    def test_deterministic_per_seed(self):
        a = generate_synthetic(small_config())
        b = generate_synthetic(small_config())
        np.testing.assert_array_equal(a.features, b.features)

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            SynthConfig(num_identities=0)
        with pytest.raises(ContractViolation):
            SynthConfig(modality_gap=-1.0)
        with pytest.raises(ContractViolation, match="modality_gap must be finite .* got inf"):
            SynthConfig(modality_gap=float("inf"))
        with pytest.raises(ContractViolation, match="noise_sigma must be finite .* got nan"):
            SynthConfig(noise_sigma=float("nan"))
        with pytest.raises(ContractViolation, match="seed must be non-negative, got -1"):
            SynthConfig(seed=-1)
        SynthConfig(seed=0)


class TestSplit:
    def test_half_split_disjoint(self):
        ds = generate_synthetic(small_config(num_identities=10))
        tr, te = split_by_identity(ds, 0.5, 1)
        assert tr.num_identities == 5
        assert te.num_identities == 5
        assert len(tr) + len(te) == len(ds)
        # re-densified labels
        assert set(tr.identities.tolist()) == set(range(5))
        assert set(te.identities.tolist()) == set(range(5))
        # disjoint original feature rows
        tr_rows = {tuple(r) for r in tr.features}
        te_rows = {tuple(r) for r in te.features}
        assert not tr_rows & te_rows

    def test_deterministic(self):
        ds = generate_synthetic(small_config(num_identities=10))
        a = split_by_identity(ds, 0.5, 42)
        b = split_by_identity(ds, 0.5, 42)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_empty_side_rejected(self):
        ds = generate_synthetic(small_config(num_identities=4))
        with pytest.raises(ContractViolation):
            split_by_identity(ds, 0.01, 0)
        with pytest.raises(ContractViolation):
            split_by_identity(ds, 0.99, 0)


class TestPkSample:
    def test_batch_size_contract(self):
        ds = generate_synthetic(small_config(num_identities=10, samples_per_identity_per_modality=8))
        idx = pk_sample(ds, 8, 8, 0)
        assert len(idx) == 128

    def test_minimal_batch(self):
        ds = generate_synthetic(small_config())
        idx = pk_sample(ds, 1, 1, 0)
        assert len(idx) == 2
        ids = ds.identities[idx]
        mods = ds.modalities[idx]
        assert ids[0] == ids[1]
        assert set(mods.tolist()) == {0, 1}

    def test_equal_modality_counts_per_identity(self):
        ds = generate_synthetic(small_config(num_identities=6))
        idx = pk_sample(ds, 3, 2, 7)
        ids = ds.identities[idx]
        mods = ds.modalities[idx]
        for ident in np.unique(ids):
            sel = ids == ident
            assert (mods[sel] == 0).sum() == 2
            assert (mods[sel] == 1).sum() == 2

    def test_deterministic_replay(self):
        ds = generate_synthetic(small_config(num_identities=4))
        a = pk_sample(ds, 2, 3, 99)
        b = pk_sample(ds, 2, 3, 99)
        np.testing.assert_array_equal(a, b)

    def test_replacement_when_short(self):
        ds = generate_synthetic(small_config(samples_per_identity_per_modality=2))
        idx = pk_sample(ds, 2, 5, 0)  # K exceeds per-modality supply
        assert len(idx) == 20

    def test_p_too_large_rejected(self):
        ds = generate_synthetic(small_config(num_identities=4))
        with pytest.raises(ContractViolation):
            pk_sample(ds, 5, 1, 0)
