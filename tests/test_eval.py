import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasoftmax import evaluation
from sasoftmax.core import Dataset, IdentityPrototypeMatrix, Modality, ModalityPrototypeMatrix
from sasoftmax.data import SynthConfig, generate_synthetic
from sasoftmax.encoder import EncoderParams, encoder_forward, init_encoder
from sasoftmax.errors import ContractViolation, DegenerateNormError
from sasoftmax.evaluation import (
    _RANK_BLOCK,
    HIST_BINS,
    Direction,
    cmc_map,
    cosine_matrix,
    cross_modal_eval,
    export_embeddings,
    histogram_overlap,
    mean_intra_cross_cosine,
    prototype_diagnostics,
    save_histogram_csv,
)


def brute_force_cmc_map(sim, q_ids, g_ids):
    """Independent O(Q*G^2) reference: the rank of gallery item j for query q
    is 1 + #(strictly more similar) + #(equally similar with lower index)."""
    n_q, n_g = sim.shape
    cmc = np.zeros(n_g)
    aps = []
    for q in range(n_q):
        ranks = np.empty(n_g, dtype=int)
        for j in range(n_g):
            better = sum(
                1
                for k in range(n_g)
                if sim[q, k] > sim[q, j] or (sim[q, k] == sim[q, j] and k < j)
            )
            ranks[j] = better + 1
        rel_ranks = sorted(int(ranks[j]) for j in range(n_g) if g_ids[j] == q_ids[q])
        assert rel_ranks, "query without relevant items"
        cmc[rel_ranks[0] - 1 :] += 1.0
        precisions = [
            (i + 1) / r for i, r in enumerate(rel_ranks)
        ]  # i+1 relevant items retrieved at rank r
        aps.append(sum(precisions) / len(rel_ranks))
    return cmc / n_q, float(np.mean(aps))


class TestCosineMatrix:
    def test_identical_unit_vectors(self):
        v = np.array([[1.0, 0.0]])
        assert cosine_matrix(v, v)[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        q = np.array([[1.0, 0.0]])
        g = np.array([[0.0, 2.0]])
        assert cosine_matrix(q, g)[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_scalar_loop(self, rng):
        q = rng.normal(size=(3, 2))
        g = rng.normal(size=(4, 2))
        m = cosine_matrix(q, g)
        for i in range(3):
            for j in range(4):
                ref = q[i] @ g[j] / (np.linalg.norm(q[i]) * np.linalg.norm(g[j]))
                assert m[i, j] == pytest.approx(ref, abs=1e-12)

    def test_degenerate_norm_names_row(self):
        with pytest.raises(DegenerateNormError, match="gallery row 1"):
            cosine_matrix(np.ones((1, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestCmcMap:
    def test_perfect_ranking(self):
        sim = np.array([[0.9, 0.1], [0.1, 0.9]])
        cmc, mean_ap = cmc_map(sim, np.array([0, 1]), np.array([0, 1]))
        assert cmc[0] == 1.0
        assert mean_ap == 1.0

    def test_hand_computed_ap(self):
        # relevant items land at ranks 1 and 3 of 4: AP = (1/1 + 2/3)/2 = 5/6
        sim = np.array([[0.9, 0.7, 0.5, 0.1]])
        cmc, mean_ap = cmc_map(sim, np.array([1]), np.array([1, 0, 1, 0]))
        assert mean_ap == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert cmc[0] == 1.0

    def test_tie_break_lower_gallery_index_first(self):
        sim = np.array([[0.5, 0.5]])
        # the relevant item is at index 1; the tie is resolved toward index 0,
        # so the first hit lands at rank 2
        cmc, mean_ap = cmc_map(sim, np.array([1]), np.array([0, 1]))
        assert cmc[0] == 0.0
        assert cmc[1] == 1.0
        assert mean_ap == pytest.approx(0.5)

    def test_no_relevant_item_rejected(self):
        with pytest.raises(ContractViolation):
            cmc_map(np.ones((1, 2)), np.array([5]), np.array([0, 1]))

    def test_brute_force_oracle_100_instances(self):
        rng = np.random.default_rng(2024)
        for case in range(100):
            n_q = int(rng.integers(1, 7))
            n_g = int(rng.integers(2, 11))
            g_ids = rng.integers(0, 3, size=n_g)
            # ensure every query id appears in the gallery
            q_ids = g_ids[rng.integers(0, n_g, size=n_q)]
            sim = rng.normal(size=(n_q, n_g))
            if case % 3 == 0:
                # constructed ties: quantize similarities onto a tiny grid
                sim = np.round(sim)
            cmc, mean_ap = cmc_map(sim, q_ids, g_ids)
            ref_cmc, ref_map = brute_force_cmc_map(sim, q_ids, g_ids)
            np.testing.assert_allclose(cmc, ref_cmc, atol=1e-12)
            assert mean_ap == pytest.approx(ref_map, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        n_q=st.integers(1, 2 * _RANK_BLOCK + 3),
        n_g=st.integers(2, 9),
        grid=st.sampled_from([None, 1.0, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_brute_force_oracle_across_blocks(self, n_q, n_g, grid, seed):
        """Query counts up to past the second block boundary, ties quantised
        onto a grid, and gallery identities that no query asks for."""
        rng = np.random.default_rng(seed)
        g_ids = rng.integers(0, 4, size=n_g)
        present = np.unique(g_ids)
        # with two or more gallery identities, the last one is never asked for
        q_ids = rng.choice(present[: max(1, len(present) - 1)], size=n_q)
        sim = rng.normal(size=(n_q, n_g))
        if grid is not None:
            sim = np.round(sim * grid) / grid
        cmc, mean_ap = cmc_map(sim, q_ids, g_ids)
        ref_cmc, ref_map = brute_force_cmc_map(sim, q_ids, g_ids)
        np.testing.assert_allclose(cmc, ref_cmc, atol=1e-12)
        assert mean_ap == pytest.approx(ref_map, abs=1e-12)

    def test_transposed_view_matches_copy(self, rng):
        sim = np.round(rng.normal(size=(7, 300)), 1)
        ids = rng.integers(0, 3, size=300)
        ids[:3] = [0, 1, 2]
        q_ids = np.array([0, 1, 2, 0, 1, 2, 0])
        view = cmc_map(sim.T, ids, q_ids)
        copy = cmc_map(np.ascontiguousarray(sim.T), ids, q_ids)
        np.testing.assert_array_equal(view[0], copy[0])
        assert view[1] == copy[1]

    def test_cmc_monotone(self, rng):
        sim = rng.normal(size=(6, 9))
        g_ids = rng.integers(0, 3, size=9)
        q_ids = g_ids[rng.integers(0, 9, size=6)]
        cmc, _ = cmc_map(sim, q_ids, g_ids)
        assert np.all(np.diff(cmc) >= 0)
        assert cmc[-1] == 1.0

    def test_rank_invariance_under_monotone_transform(self, rng):
        sim = rng.normal(size=(5, 8))
        g_ids = rng.integers(0, 3, size=8)
        q_ids = g_ids[rng.integers(0, 8, size=5)]
        base = cmc_map(sim, q_ids, g_ids)
        for f in (lambda s: 2.0 * s + 1.0, np.tanh, lambda s: s**3):
            cmc, mean_ap = cmc_map(f(sim), q_ids, g_ids)
            np.testing.assert_allclose(cmc, base[0], atol=1e-12)
            assert mean_ap == pytest.approx(base[1], abs=1e-12)


class TestHistograms:
    def test_partition_all_cross_pairs(self):
        ds = generate_synthetic(
            SynthConfig(num_identities=5, samples_per_identity_per_modality=3, input_dim=4, seed=2)
        )
        params = init_encoder([4, 4], 0)
        reps = cross_modal_eval(params, ds, list(Direction))
        rep = reps[Direction.VIS_TO_NIR]
        n_vis = int((ds.modalities == int(Modality.VIS)).sum())
        n_nir = int((ds.modalities == int(Modality.NIR)).sum())
        assert rep.intra_hist.sum() + rep.inter_hist.sum() == n_vis * n_nir
        assert len(rep.intra_hist) == len(HIST_BINS) - 1 == 60
        other = reps[Direction.NIR_TO_VIS]
        np.testing.assert_array_equal(other.intra_hist, rep.intra_hist)
        np.testing.assert_array_equal(other.inter_hist, rep.inter_hist)

    def test_counts_match_an_explicit_split(self):
        """Each part, computed as all pairs minus the intra pairs, is the
        histogram of its own pairs."""
        ds = generate_synthetic(
            SynthConfig(num_identities=6, samples_per_identity_per_modality=4, input_dim=4, seed=3)
        )
        params = init_encoder([4, 4], 1)
        rep = cross_modal_eval(params, ds, [Direction.NIR_TO_VIS])[Direction.NIR_TO_VIS]
        emb, _ = encoder_forward(params, ds.features)
        vis = ds.modalities == int(Modality.VIS)
        sim = cosine_matrix(emb[vis], emb[~vis])
        same = ds.identities[vis][:, None] == ds.identities[~vis][None, :]
        np.testing.assert_array_equal(rep.intra_hist, np.histogram(sim[same], bins=HIST_BINS)[0])
        np.testing.assert_array_equal(rep.inter_hist, np.histogram(sim[~same], bins=HIST_BINS)[0])
        assert rep.intra_cosine_mean == mean_intra_cross_cosine(emb, ds.identities, ds.modalities)

    def test_overlap_bounds(self):
        a = np.zeros(60)
        b = np.zeros(60)
        a[0] = 10
        b[59] = 10
        assert histogram_overlap(a, b) == 0.0
        assert histogram_overlap(a, a) == pytest.approx(1.0)

    def test_histogram_csv(self, tmp_path):
        h = np.arange(60)
        path = tmp_path / "hist.csv"
        save_histogram_csv(h, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 61
        assert rows[0] == ["bin_low", "bin_high", "count"]
        assert float(rows[1][0]) == -1.0
        assert float(rows[-1][1]) == 1.0


class TestCrossModalEval:
    def test_degenerate_perfect_data(self):
        ds = generate_synthetic(
            SynthConfig(
                num_identities=4,
                samples_per_identity_per_modality=3,
                input_dim=4,
                modality_gap=0.0,
                noise_sigma=0.0,
                seed=0,
            )
        )
        params = EncoderParams([np.eye(4)], [np.zeros(4)])
        for rep in cross_modal_eval(params, ds, list(Direction)).values():
            assert rep.rank1 == 1.0
            assert rep.map == 1.0

    @pytest.mark.parametrize(
        "direction, lone_modality, message",
        [
            (Direction.VIS_TO_NIR, 0, "identity 1 has no nir gallery item (vis2nir)"),
            (Direction.NIR_TO_VIS, 1, "identity 1 has no vis gallery item (nir2vis)"),
        ],
    )
    def test_one_modality_identity_named(self, direction, lone_modality, message):
        """An identity with samples in the query modality only has nothing to
        retrieve; the error names it and the direction."""
        ids = np.array([0, 0, 1, 2, 2])
        mods = np.array([0, 1, lone_modality, 0, 1])
        ds = Dataset(np.eye(5, 4) + 1.0, ids, mods, 3, 4)
        params = EncoderParams([np.eye(4)], [np.zeros(4)])
        with pytest.raises(ContractViolation, match=re.escape(message)):
            cross_modal_eval(params, ds, [direction])
        # the other direction never queries identity 1, so it evaluates
        other = next(d for d in Direction if d != direction)
        assert set(cross_modal_eval(params, ds, [other])) == {other}

    def test_random_embeddings_match_permutation_baseline(self):
        """Identity-free embeddings score like the shuffled-label baseline."""
        rng = np.random.default_rng(6)
        n = 8
        per = 5
        feats = rng.normal(size=(n * per * 2, 6))
        ids = np.repeat(np.arange(n), per * 2)
        mods = np.tile(np.repeat([0, 1], per), n)
        ds = Dataset(feats, ids, mods, n, 6)
        params = EncoderParams([np.eye(6)], [np.zeros(6)])
        rep = cross_modal_eval(params, ds, [Direction.VIS_TO_NIR])[Direction.VIS_TO_NIR]

        emb = feats
        q_mask = mods == 0
        g_mask = mods == 1
        sim = cosine_matrix(emb[q_mask], emb[g_mask])
        baseline = []
        for _ in range(30):
            g_perm = rng.permutation(ids[g_mask])
            _, m = cmc_map(sim, ids[q_mask], g_perm)
            baseline.append(m)
        lo, hi = np.quantile(baseline, [0.0, 1.0])
        spread = hi - lo
        assert lo - spread <= rep.map <= hi + spread

    def test_directions_roughly_symmetric(self):
        ds = generate_synthetic(
            SynthConfig(num_identities=10, samples_per_identity_per_modality=6, input_dim=8, seed=4)
        )
        params = init_encoder([8, 6], 1)
        reps = cross_modal_eval(params, ds, list(Direction))
        vn, nv = reps[Direction.VIS_TO_NIR], reps[Direction.NIR_TO_VIS]
        assert abs(vn.map - nv.map) < 0.2

    def test_one_forward_and_one_similarity_matrix(self, monkeypatch):
        calls = {"encoder_forward": 0, "cosine_matrix": 0}

        def counted(name):
            original = getattr(evaluation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(evaluation, name, counted(name))
        ds = generate_synthetic(
            SynthConfig(num_identities=6, samples_per_identity_per_modality=3, input_dim=4, seed=5)
        )
        reps = cross_modal_eval(init_encoder([4, 3], 2), ds, list(Direction))
        assert set(reps) == set(Direction)
        assert calls == {"encoder_forward": 1, "cosine_matrix": 1}

    def test_reverse_direction_equals_its_own_product(self):
        """NIR -> VIS ranks the transposed VIS x NIR matrix; the result is
        the one a NIR x VIS product gives."""
        ds = generate_synthetic(
            SynthConfig(num_identities=8, samples_per_identity_per_modality=5, input_dim=6, seed=7)
        )
        params = init_encoder([6, 5, 4], 3)
        rep = cross_modal_eval(params, ds, [Direction.NIR_TO_VIS])[Direction.NIR_TO_VIS]
        emb, _ = encoder_forward(params, ds.features)
        nir = ds.modalities == int(Modality.NIR)
        cmc, mean_ap = cmc_map(
            cosine_matrix(emb[nir], emb[~nir]), ds.identities[nir], ds.identities[~nir]
        )
        np.testing.assert_array_equal(rep.cmc, cmc)
        assert rep.map == mean_ap

    def test_mean_intra_cross_cosine_closed_case(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        ids = np.array([0, 0, 1])
        mods = np.array([0, 1, 1])
        # single intra pair: (row0 VIS, row1 NIR) -> cos 0
        assert mean_intra_cross_cosine(emb, ids, mods) == pytest.approx(0.0, abs=1e-15)


def full_matrix_probe(emb, ids, mods) -> float:
    """The probe as the whole VIS x NIR cosine matrix gives it."""
    vis, nir = mods == int(Modality.VIS), mods == int(Modality.NIR)
    sim = cosine_matrix(emb[vis], emb[nir])
    return float(sim[ids[vis][:, None] == ids[nir][None, :]].mean())


def interleaved_set(seed, n_ids, per, d):
    """`per` samples per identity and modality, rows in random order."""
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.arange(n_ids), 2 * per)
    mods = np.tile(np.repeat([int(Modality.VIS), int(Modality.NIR)], per), n_ids)
    perm = rng.permutation(len(ids))
    return rng.normal(size=(len(ids), d)), ids[perm], mods[perm]


class TestMeanIntraCrossCosine:
    # Equal counts whose VIS and NIR totals are multiples of 8, like desk
    # (40 x 20 at d = 4) and wide_train (600 x 4 at d = 16): the full product
    # then has no BLAS edge tiles, and each entry is the same multiply-add
    # chain in one identity's block as in the whole matrix.
    @pytest.mark.parametrize(
        "d, n_ids, per", [(4, 40, 20), (4, 16, 6), (4, 8, 3), (16, 24, 4), (16, 8, 2)]
    )
    def test_bit_identical_to_full_matrix(self, d, n_ids, per):
        for seed in range(5):
            emb, ids, mods = interleaved_set(seed, n_ids, per, d)
            assert mean_intra_cross_cosine(emb, ids, mods) == full_matrix_probe(emb, ids, mods)

    def test_ragged_counts_and_one_modality_identities_agree(self):
        # Not exact: a ragged block's tail tiles, the full matrix's own tail
        # tiles and a 1 x 1 block (a dot product, not a gemm) may each take
        # another BLAS kernel, which can round an entry differently by about
        # one ulp. The pairs and their order are the same.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(20, 300))
            ids = np.concatenate([rng.integers(0, 25, m), [0, 0, 90, 91, 91]])
            mods = np.concatenate([rng.integers(0, 2, m), [0, 1, 0, 1, 1]])
            emb = rng.normal(size=(len(ids), (4, 16)[seed % 2]))
            got = mean_intra_cross_cosine(emb, ids, mods)
            assert got == pytest.approx(full_matrix_probe(emb, ids, mods), rel=0, abs=1e-15)

    @pytest.mark.parametrize("modality", [Modality.VIS, Modality.NIR])
    def test_zero_row_without_partner_raises(self, modality):
        emb, ids, mods = interleaved_set(0, 4, 2, 4)
        emb = np.vstack([emb, np.zeros((1, 4))])
        ids, mods = np.append(ids, 99), np.append(mods, int(modality))
        with pytest.raises(DegenerateNormError, match="has near-zero norm"):
            mean_intra_cross_cosine(emb, ids, mods)

    def test_memory_stays_far_below_the_full_matrix(self):
        emb, ids, mods = interleaved_set(0, 600, 4, 16)  # wide_train: 2,400 x 2,400
        full_bytes = 2400 * 2400 * 8
        tracemalloc.start()
        try:
            mean_intra_cross_cosine(emb, ids, mods)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_bytes / 10


class TestPrototypeDiagnostics:
    def test_all_equal(self):
        w = np.array([[1.0], [1.0]])
        diag = prototype_diagnostics(
            ModalityPrototypeMatrix(np.concatenate([w, w], axis=1)),
            IdentityPrototypeMatrix(w),
        )
        assert diag["mean_cos_vis_id"] == pytest.approx(1.0)
        assert diag["mean_cos_nir_id"] == pytest.approx(1.0)
        assert diag["mean_cos_vis_nir"] == pytest.approx(1.0)

    def test_orthogonal_halves_closed_form(self):
        pv = np.array([[1.0], [0.0]])
        pn = np.array([[0.0], [1.0]])
        ps = (pv + pn) / np.linalg.norm(pv + pn)
        diag = prototype_diagnostics(
            ModalityPrototypeMatrix(np.concatenate([pv, pn], axis=1)),
            IdentityPrototypeMatrix(ps),
        )
        assert diag["mean_cos_vis_id"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert diag["mean_cos_nir_id"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert diag["mean_cos_vis_nir"] == pytest.approx(0.0, abs=1e-12)

    def test_head_size_mismatch(self):
        with pytest.raises(ContractViolation):
            prototype_diagnostics(
                ModalityPrototypeMatrix(np.ones((2, 4))),
                IdentityPrototypeMatrix(np.ones((2, 3))),
            )


class TestExportEmbeddings:
    def test_header_only_for_empty_dataset(self, tmp_path):
        ds = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros(0, dtype=int), 1, 3)
        params = EncoderParams([np.eye(3)], [np.zeros(3)])
        path = tmp_path / "emb.csv"
        export_embeddings(params, ds, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("id,modality,e0")

    def test_row_count_and_roundtrip(self, tmp_path, rng):
        feats = rng.normal(size=(6, 3))
        ids = np.array([0, 0, 1, 1, 2, 2])
        mods = np.array([0, 1, 0, 1, 0, 1])
        ds = Dataset(feats, ids, mods, 3, 3)
        params = init_encoder([3, 2], 9)
        path = tmp_path / "emb.csv"
        export_embeddings(params, ds, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 7
        emb, _ = encoder_forward(params, feats)
        back = np.array([[float(v) for v in row[2:]] for row in rows[1:]])
        np.testing.assert_allclose(back, emb, atol=1e-9)
