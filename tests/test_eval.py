import csv
import inspect
import io
import re
import sys
import threading
import tracemalloc
from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasoftmax import core, evaluation
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
    intra_cross_plan,
    mean_intra_cross_cosine,
    prototype_diagnostics,
    save_histogram_csv,
)

from conftest import csv_writer_bytes


def probe(emb, ids, mods) -> float:
    """The per-epoch probe on a plan built for these labels alone."""
    return mean_intra_cross_cosine(emb, intra_cross_plan(ids, mods))


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


def edge_case_similarities(n_vis, n_nir, n_ids=23, extra=()):
    """(ids, mods, VIS x NIR similarities) over ragged identity counts, every
    identity in both modalities. Values come from the bin edges, exactly
    +-1, one ulp beyond +-1, +-0, `extra` and random values, with ties in
    every row and across the rows and columns either side of each
    _RANK_BLOCK boundary."""
    rng = np.random.default_rng(11)
    ids = np.concatenate(
        [np.arange(n_ids), np.arange(n_ids), rng.integers(0, n_ids, n_vis + n_nir - 2 * n_ids)]
    )
    mods = np.concatenate([np.zeros(n_ids, int), np.ones(n_ids, int)])
    mods = np.concatenate([mods, rng.permutation([0] * (n_vis - n_ids) + [1] * (n_nir - n_ids))])
    order = rng.permutation(len(ids))
    ids, mods = ids[order], mods[order]
    pool = np.concatenate(
        [HIST_BINS, [1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), -0.0, 0.0], extra]
    )
    sim = np.where(
        rng.random((n_vis, n_nir)) < 0.6,
        rng.choice(pool, (n_vis, n_nir)),
        rng.uniform(-1.05, 1.05, (n_vis, n_nir)),
    )
    for b in range(_RANK_BLOCK, max(n_vis, n_nir), _RANK_BLOCK):
        sim[b - 1 : b + 1] = sim[b - 2]  # ties across the boundary
        sim[:, b - 1 : b + 1] = sim[:, [b - 2]]
    return ids, mods, sim


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
        with_counts=st.booleans(),
    )
    def test_brute_force_oracle_across_blocks(self, n_q, n_g, grid, seed, with_counts):
        """Query counts up to past the second block boundary, ties quantised
        onto a grid (and onto histogram edges), and gallery identities that
        no query asks for; with `counts`, the edge counts besides."""
        rng = np.random.default_rng(seed)
        g_ids = rng.integers(0, 4, size=n_g)
        present = np.unique(g_ids)
        # with two or more gallery identities, the last one is never asked for
        q_ids = rng.choice(present[: max(1, len(present) - 1)], size=n_q)
        sim = rng.normal(size=(n_q, n_g))
        if grid is not None:
            sim = np.round(sim * grid) / grid
        counts = np.full(len(HIST_BINS), -7, dtype=np.int64) if with_counts else None
        cmc, mean_ap = cmc_map(sim, q_ids, g_ids, counts=counts)
        ref_cmc, ref_map = brute_force_cmc_map(sim, q_ids, g_ids)
        np.testing.assert_allclose(cmc, ref_cmc, atol=1e-12)
        assert mean_ap == pytest.approx(ref_map, abs=1e-12)
        if with_counts:
            np.testing.assert_array_equal(np.diff(counts), np.histogram(sim, HIST_BINS)[0])

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


# each direction alone, both, and both with NIR -> VIS first
DIRECTION_LISTS = pytest.mark.parametrize(
    "directions",
    [
        [Direction.VIS_TO_NIR],
        [Direction.NIR_TO_VIS],
        [Direction.VIS_TO_NIR, Direction.NIR_TO_VIS],
        [Direction.NIR_TO_VIS, Direction.VIS_TO_NIR],
    ],
    ids=["vis2nir", "nir2vis", "both", "both-nir-first"],
)


def assert_whole_products_bits(rep, directions, sim, same, whole):
    """`rep` ranked `directions` as cmc_map ranks the whole products
    (`whole`, by direction), and its histograms and intra mean are those of
    the VIS x NIR similarities `sim` over the explicit same-identity mask
    `same`, bit for bit."""
    assert list(rep.ranked) == directions
    for direction, (cmc, mean_ap) in rep.ranked.items():
        np.testing.assert_array_equal(cmc, whole[direction][0])
        assert mean_ap == whole[direction][1]
    np.testing.assert_array_equal(rep.intra_hist, np.histogram(sim[same], bins=HIST_BINS)[0])
    np.testing.assert_array_equal(rep.inter_hist, np.histogram(sim[~same], bins=HIST_BINS)[0])
    assert rep.intra_cosine_mean == float(sim[same].mean())


def force_pool(monkeypatch, workers):
    """Rank every matrix on a pool of `workers` threads, and hand cmc_map
    each direction of cross_modal_eval as a _Product."""
    monkeypatch.setattr(evaluation, "_POOL_MIN_SIMS", 0)
    monkeypatch.setattr(core, "_cpu_count", lambda: workers)


def traced_peak(run) -> int:
    """Bytes `run()` allocated at its peak beyond what was held before it,
    as tracemalloc counts them (NumPy reports its arrays' data to it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def ranked_twice(sim, q_ids, g_ids):
    """cmc_map's (cmc, map, counts), inline and then on a 3-thread pool.
    Both times `pairs` receives the bits of sim[same-identity mask], in the
    mask's row-major order."""
    same = q_ids[:, None] == g_ids[None, :]
    results = []
    for workers in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            force_pool(mp, workers)
            counts = np.full(len(HIST_BINS), -7, dtype=np.int64)
            pairs = np.full(np.count_nonzero(same), -7.0)
            results.append((*cmc_map(sim, q_ids, g_ids, counts=counts, pairs=pairs), counts))
        assert pairs.tobytes() == sim[same].tobytes()
    return results


class TestRankingPool:
    """Blocks ranked on the thread pool give the inline loop's bits, keep
    every public function on the calling thread, let a block's exception
    through and hold at most a few blocks' copies at once."""

    @pytest.mark.parametrize("transposed", [False, True], ids=["vis2nir", "nir2vis"])
    def test_pool_equals_inline_on_edge_cases(self, transposed):
        # both query sets span at least 3 blocks; NaN joins the ties
        ids, mods, sim = edge_case_similarities(
            3 * _RANK_BLOCK + 5, 3 * _RANK_BLOCK + 9, extra=[np.nan]
        )
        vis_ids, nir_ids = ids[mods == int(Modality.VIS)], ids[mods == int(Modality.NIR)]
        args = (sim.T, nir_ids, vis_ids) if transposed else (sim, vis_ids, nir_ids)
        assert np.isnan(sim).any()
        (cmc, mean_ap, counts), (pool_cmc, pool_map, pool_counts) = ranked_twice(*args)
        np.testing.assert_array_equal(pool_cmc, cmc)
        assert pool_map == mean_ap
        np.testing.assert_array_equal(pool_counts, counts)

    @settings(max_examples=25, deadline=None)
    @given(
        n_q=st.integers(2 * _RANK_BLOCK + 1, 4 * _RANK_BLOCK + 3),
        n_g=st.integers(2, 12),
        grid=st.sampled_from([None, 1.0, 4.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pool_matches_brute_force(self, n_q, n_g, grid, seed):
        """Many queries over a small gallery, as in the gallery's blocks:
        both paths equal each other bit for bit and the oracle."""
        rng = np.random.default_rng(seed)
        g_ids = rng.integers(0, 4, size=n_g)
        q_ids = rng.choice(np.unique(g_ids), size=n_q)
        sim = rng.normal(size=(n_q, n_g))
        if grid is not None:
            sim = np.round(sim * grid) / grid
        (cmc, mean_ap, counts), (pool_cmc, pool_map, pool_counts) = ranked_twice(
            sim, q_ids, g_ids
        )
        np.testing.assert_array_equal(pool_cmc, cmc)
        assert pool_map == mean_ap
        np.testing.assert_array_equal(pool_counts, counts)
        ref_cmc, ref_map = brute_force_cmc_map(sim, q_ids, g_ids)
        np.testing.assert_allclose(pool_cmc, ref_cmc, atol=1e-12)
        assert pool_map == pytest.approx(ref_map, abs=1e-12)
        np.testing.assert_array_equal(np.diff(pool_counts), np.histogram(sim, HIST_BINS)[0])

    def test_more_workers_than_cores_at_a_short_switch_interval(self, monkeypatch):
        """8 workers, 12 blocks and a thread switch every microsecond: a lost
        or misplaced block write would show in the bits."""
        rng = np.random.default_rng(5)
        n_q, n_g = 12 * _RANK_BLOCK - 3, 200
        g_ids = rng.integers(0, 40, size=n_g)
        q_ids = rng.choice(np.unique(g_ids), size=n_q)
        sim = np.round(rng.normal(size=(n_q, n_g)), 2)
        inline = ranked_twice(sim, q_ids, g_ids)[0]
        force_pool(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts = np.zeros(len(HIST_BINS), dtype=np.int64)
            cmc, mean_ap = cmc_map(sim, q_ids, g_ids, counts=counts)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(cmc, inline[0])
        assert mean_ap == inline[1]
        np.testing.assert_array_equal(counts, inline[2])

    @pytest.mark.parametrize("transposed", [False, True], ids=["matrix", "transposed-view"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_callers_matrix_is_left_as_it_was(self, monkeypatch, workers, transposed):
        """Blocks of an ndarray `sim` are views of it, sorted as copies: its
        bytes, ties and NaN included, are the same after ranking."""
        ids, mods, sim = edge_case_similarities(
            2 * _RANK_BLOCK + 5, 2 * _RANK_BLOCK + 9, extra=[np.nan]
        )
        vis_ids, nir_ids = ids[mods == int(Modality.VIS)], ids[mods == int(Modality.NIR)]
        args = (sim.T, nir_ids, vis_ids) if transposed else (sim, vis_ids, nir_ids)
        before = sim.tobytes()
        force_pool(monkeypatch, workers)
        cmc_map(*args, counts=np.zeros(len(HIST_BINS), dtype=np.int64))
        assert sim.tobytes() == before

    @pytest.mark.parametrize("workers", [1, 3])
    def test_ties_in_a_computed_block_rank_as_in_the_whole_product(self, monkeypatch, workers):
        """Duplicated VIS rows either side of a block boundary and duplicated
        NIR rows, of the same and of other identities, tie relevant items in
        every block of both directions. Each such block is sorted in place
        and computed again for its ties; the ranking is the whole products'
        bits and the oracle's."""
        rng = np.random.default_rng(3)
        n_vis, n_nir = _RANK_BLOCK + 2, 24
        ids = np.concatenate([np.arange(n_vis) % 12, np.arange(n_nir) % 12])
        mods = np.repeat([int(Modality.VIS), int(Modality.NIR)], [n_vis, n_nir])
        feats = rng.normal(size=(n_vis + n_nir, 8))
        feats[[_RANK_BLOCK, _RANK_BLOCK + 1]] = feats[_RANK_BLOCK - 1]  # identities 8, 9 and 7
        nir = n_vis + np.array([3, 4, 5, 17, 8, 9])  # pairs of identities 3|4, 5|5 and 8|9
        feats[nir[1::2]] = feats[nir[::2]]
        params, ds = init_encoder([8, 6], 4), Dataset(feats, ids, mods, 12, 8)
        emb = encoder_forward(params, feats)[0]
        vis = mods == int(Modality.VIS)
        v, n, vis_ids, nir_ids = emb[vis], emb[~vis], ids[vis], ids[~vis]
        whole = {Direction.VIS_TO_NIR: (cosine_matrix(v, n), vis_ids, nir_ids),
                 Direction.NIR_TO_VIS: (cosine_matrix(n, v), nir_ids, vis_ids)}
        force_pool(monkeypatch, workers)
        computed = []
        product_rows = evaluation._Product.__getitem__
        monkeypatch.setattr(
            evaluation._Product, "__getitem__",
            lambda self, rows: computed.append(rows) or product_rows(self, rows),
        )
        ranked = cross_modal_eval(params, ds, list(Direction)).ranked
        # every block (two VIS queries' and one NIR queries') computed twice
        assert sorted((r.start, r.stop) for r in computed) == sorted(
            2 * [(0, _RANK_BLOCK), (_RANK_BLOCK, 2 * _RANK_BLOCK), (0, _RANK_BLOCK)]
        )
        for direction, (sim, q_ids, g_ids) in whole.items():
            assert np.unique(sim, axis=1).shape[1] < sim.shape[1]  # tied columns
            cmc, mean_ap = ranked[direction]
            ref_cmc, ref_map = cmc_map(sim, q_ids, g_ids)
            np.testing.assert_array_equal(cmc, ref_cmc)
            assert mean_ap == ref_map
            oracle_cmc, oracle_map = brute_force_cmc_map(sim, q_ids, g_ids)
            np.testing.assert_allclose(cmc, oracle_cmc, atol=1e-12)
            assert mean_ap == pytest.approx(oracle_map, abs=1e-12)

    @pytest.mark.parametrize(
        "n_q, n_g, workers, pooled",
        [(300, 2, 2, True), (299, 2, 2, False), (300, 2, 1, False), (_RANK_BLOCK, 5, 2, False)],
    )
    def test_pool_from_the_threshold_on(self, monkeypatch, n_q, n_g, workers, pooled):
        """A pool only for a matrix of at least _POOL_MIN_SIMS similarities,
        more than one CPU and more than one block."""
        monkeypatch.setattr(evaluation, "_POOL_MIN_SIMS", 600)
        monkeypatch.setattr(core, "_cpu_count", lambda: workers)
        made = []
        pool_class = futures.ThreadPoolExecutor
        monkeypatch.setattr(
            futures, "ThreadPoolExecutor", lambda n: made.append(n) or pool_class(n)
        )
        cmc_map(np.random.default_rng(0).normal(size=(n_q, n_g)), np.zeros(n_q), np.zeros(n_g))
        assert made == ([min(workers, -(-n_q // _RANK_BLOCK))] if pooled else [])

    def test_cpu_count_is_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert core._cpu_count() == 3
        monkeypatch.delattr(core.os, "sched_getaffinity")
        monkeypatch.setattr(core.os, "cpu_count", lambda: None)
        assert core._cpu_count() == 1

    @staticmethod
    def gallery(n_per_modality=3 * _RANK_BLOCK + 7, hidden=None):
        ds = generate_synthetic(
            SynthConfig(
                num_identities=n_per_modality // 3,
                samples_per_identity_per_modality=3,
                input_dim=8,
                seed=9,
            )
        )
        return init_encoder([8, *([hidden] if hidden else []), 6], 4), ds

    def test_public_functions_stay_on_the_calling_thread(self, monkeypatch):
        """Every public package function, wrapped at each lookup site as a
        tracer wraps it, runs on the main thread; the blocks do not."""
        force_pool(monkeypatch, 3)
        public, private = set(), set()

        def recorded(fn, seen):
            def wrapper(*args, **kwargs):
                seen.add(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapper

        wrapped = {}
        for name, module in list(sys.modules.items()):
            if not (name == "sasoftmax" or name.startswith("sasoftmax.")):
                continue
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("sasoftmax")
                    and not obj.__name__.startswith("_")
                ):
                    wrapped.setdefault(id(obj), recorded(obj, public))
                    monkeypatch.setattr(module, attr, wrapped[id(obj)])
        monkeypatch.setattr(
            evaluation, "_pair_columns", recorded(evaluation._pair_columns, private)
        )
        params, ds = self.gallery()
        ranked = evaluation.cross_modal_eval(params, ds, list(Direction)).ranked
        assert set(ranked) == set(Direction)
        assert public == {threading.get_ident()}
        assert private - public, "no block ran on a pool thread"

    def test_block_exception_reaches_the_caller(self, monkeypatch):
        force_pool(monkeypatch, 3)
        boom = RuntimeError("block failed")
        calls = []
        lock = threading.Lock()
        pair_columns = evaluation._pair_columns

        def failing(*args):
            with lock:
                calls.append(1)
                if len(calls) == 3:
                    raise boom
            return pair_columns(*args)

        monkeypatch.setattr(evaluation, "_pair_columns", failing)
        params, ds = self.gallery()
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as err:
            cross_modal_eval(params, ds, list(Direction))
        assert err.value is boom
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [2, 3])
    def test_memory_is_one_block_per_worker(self, monkeypatch, workers):
        """Beyond its inputs, cross_modal_eval holds the forward pass's
        embeddings three times over (as computed, split by modality, and as
        unit rows) and, per worker, one block of the product, sorted in
        place, and a few arrays of the block's histogram-edge search: under
        a quarter of the dense VIS x NIR matrix, which it never builds."""
        monkeypatch.setattr(core, "_cpu_count", lambda: workers)
        params, ds = self.gallery(3600)
        n = self.pooled_size(ds)
        extra = traced_peak(lambda: cross_modal_eval(params, ds, list(Direction)))
        assert extra <= self.one_block_per_worker(workers, n, params, ds)
        assert extra < n * n * 8 / 4

    @pytest.mark.parametrize("workers", [2, 3])
    def test_memory_while_ranking_holds_no_hidden_activations(self, monkeypatch, workers):
        """The forward pass's cache is let go before ranking: from the first
        cmc_map call on, a 256-wide hidden layer's activations (15 MB here)
        are not held, and the budget counts none."""
        monkeypatch.setattr(core, "_cpu_count", lambda: workers)
        params, ds = self.gallery(3600, hidden=256)
        n = self.pooled_size(ds)
        calls = []

        def first_call_resets_the_peak(*args, **kwargs):
            if not calls:
                tracemalloc.reset_peak()
            calls.append(1)
            return cmc_map(*args, **kwargs)

        monkeypatch.setattr(evaluation, "cmc_map", first_call_resets_the_peak)
        extra = traced_peak(lambda: cross_modal_eval(params, ds, list(Direction)))
        budget = self.one_block_per_worker(workers, n, params, ds)
        assert len(calls) == 2 and len(ds.features) * 256 * 8 > budget
        assert extra <= budget

    @staticmethod
    def pooled_size(ds) -> int:
        """Rows per modality, equal in both, with each direction a _Product."""
        n = int(np.count_nonzero(ds.modalities == int(Modality.VIS)))
        assert n == int(np.count_nonzero(ds.modalities == int(Modality.NIR)))
        assert n * n >= evaluation._POOL_MIN_SIMS
        return n

    @staticmethod
    def one_block_per_worker(workers, n, params, ds) -> int:
        """Per worker one n-wide block and its edge search, three copies of
        the embeddings, and 1 MB."""
        forward = 3 * len(ds.features) * params.weights[-1].shape[1] * 8
        return workers * _RANK_BLOCK * (n + 4 * len(HIST_BINS)) * 8 + forward + 1_000_000

    def test_memory_is_one_product_below_the_pool_size(self):
        """A direction below _POOL_MIN_SIMS is one cosine_matrix product,
        let go before the next direction computes its own."""
        params, ds = self.gallery(1200)
        n = int(np.count_nonzero(ds.modalities == int(Modality.VIS)))
        assert n * n < evaluation._POOL_MIN_SIMS
        forward = 3 * len(ds.features) * params.weights[-1].shape[1] * 8
        extra = traced_peak(lambda: cross_modal_eval(params, ds, list(Direction)))
        assert n * n * 8 < extra <= (n + 2 * _RANK_BLOCK) * n * 8 + forward + 1_000_000

    def test_memory_below_the_pool_size_holds_no_unit_rows_beside_a_product(self):
        """Below _POOL_MIN_SIMS only cosine_matrix builds unit rows, so at
        its peak the embeddings are held three times over (as computed,
        split by modality, and as the product's unit rows), not four. Wide
        embeddings make a copy outweigh the product and its blocks."""
        ds = generate_synthetic(
            SynthConfig(num_identities=100, samples_per_identity_per_modality=3, input_dim=8, seed=9)
        )
        params = init_encoder([8, 512], 0)
        n = len(ds) // 2
        copy = len(ds) * 512 * 8
        extra = traced_peak(lambda: cross_modal_eval(params, ds, list(Direction)))
        assert copy > (n + 2 * _RANK_BLOCK) * n * 8
        assert extra <= 3 * copy + (n + 2 * _RANK_BLOCK) * n * 8


class TestHistograms:
    def test_partition_all_cross_pairs(self):
        ds = generate_synthetic(
            SynthConfig(num_identities=5, samples_per_identity_per_modality=3, input_dim=4, seed=2)
        )
        params = init_encoder([4, 4], 0)
        rep = cross_modal_eval(params, ds, list(Direction))
        n_vis = int((ds.modalities == int(Modality.VIS)).sum())
        n_nir = int((ds.modalities == int(Modality.NIR)).sum())
        assert rep.intra_hist.sum() + rep.inter_hist.sum() == n_vis * n_nir
        assert len(rep.intra_hist) == len(HIST_BINS) - 1 == 60
        other = cross_modal_eval(params, ds, [Direction.NIR_TO_VIS])
        np.testing.assert_array_equal(other.intra_hist, rep.intra_hist)
        np.testing.assert_array_equal(other.inter_hist, rep.inter_hist)

    def test_counts_match_an_explicit_split(self):
        """Each part, computed as all pairs minus the intra pairs, is the
        histogram of its own pairs."""
        ds = generate_synthetic(
            SynthConfig(num_identities=6, samples_per_identity_per_modality=4, input_dim=4, seed=3)
        )
        params = init_encoder([4, 4], 1)
        rep = cross_modal_eval(params, ds, [Direction.NIR_TO_VIS])
        emb, _ = encoder_forward(params, ds.features)
        vis = ds.modalities == int(Modality.VIS)
        sim = cosine_matrix(emb[vis], emb[~vis])
        same = ds.identities[vis][:, None] == ds.identities[~vis][None, :]
        np.testing.assert_array_equal(rep.intra_hist, np.histogram(sim[same], bins=HIST_BINS)[0])
        np.testing.assert_array_equal(rep.inter_hist, np.histogram(sim[~same], bins=HIST_BINS)[0])
        assert rep.intra_cosine_mean == probe(emb, ds.identities, ds.modalities)

    @DIRECTION_LISTS
    def test_match_np_histogram_and_an_explicit_mask(self, monkeypatch, directions):
        """Similarities drawn from the bin edges, exactly +-1, one ulp
        beyond +-1, +-0 and random values, with ties in every row and across
        the rows either side of a _RANK_BLOCK boundary, over ragged identity
        counts; both galleries span more than one block, ranked inline and
        on the pool."""
        ids, mods, sim = edge_case_similarities(_RANK_BLOCK + 5, _RANK_BLOCK + 9)
        # each row's features name its modality and its index there, so a
        # product returns the rows and columns of `sim` that it is asked for
        vis = mods == int(Modality.VIS)
        feats = np.ones((len(ids), 3))
        feats[vis, 0] = np.arange(np.count_nonzero(vis))
        feats[~vis, 0] = np.arange(np.count_nonzero(~vis))
        feats[:, 1] = np.where(vis, 1.0, 2.0)

        class Lookup:
            """In place of a _Product: the rows and columns of `sim` (or
            its transpose) that the unit rows name."""

            def __init__(self, q, g):
                self.q, self.g = (np.rint(u[:, :2] / u[:, 2:]).astype(int) for u in (q, g))
                self.shape = (len(q), len(g))

            def __getitem__(self, rows):
                q = self.q[rows]
                return (sim if q[0, 1] == 1 else sim.T)[q[:, :1], self.g[:, 0]]

        monkeypatch.setattr(evaluation, "_Product", Lookup)
        monkeypatch.setattr(evaluation, "cosine_matrix", lambda *a: pytest.fail("whole product"))
        ds = Dataset(feats, ids, mods, 23, 3)
        vis_ids, nir_ids = ids[vis], ids[~vis]
        same = vis_ids[:, None] == nir_ids[None, :]
        whole = {
            Direction.VIS_TO_NIR: cmc_map(sim, vis_ids, nir_ids),
            Direction.NIR_TO_VIS: cmc_map(sim.T, nir_ids, vis_ids),
        }
        # the beyond-range values fall in no bin, and +-1 in the closed end bins
        outside = np.count_nonzero(np.abs(sim) > 1.0)
        assert outside > 0
        for workers in (1, 3):
            force_pool(monkeypatch, workers)
            rep = cross_modal_eval(EncoderParams([np.eye(3)], [np.zeros(3)]), ds, directions)
            assert_whole_products_bits(rep, directions, sim, same, whole)
            assert rep.intra_hist.sum() + rep.inter_hist.sum() == sim.size - outside

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
        # byte for byte the csv.writer rows of float reprs the format was defined by
        counts = np.random.default_rng(0).integers(0, 10**6, size=60)
        save_histogram_csv(counts, path)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["bin_low", "bin_high", "count"])
        for lo, hi, c in zip(HIST_BINS[:-1], HIST_BINS[1:], counts):
            writer.writerow([repr(float(lo)), repr(float(hi)), int(c)])
        assert path.read_bytes() == buf.getvalue().encode()


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
        for cmc, mean_ap in cross_modal_eval(params, ds, list(Direction)).ranked.values():
            assert cmc[0] == 1.0
            assert mean_ap == 1.0

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
        assert set(cross_modal_eval(params, ds, [other]).ranked) == {other}

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
        _, rep_map = cross_modal_eval(params, ds, [Direction.VIS_TO_NIR]).ranked[Direction.VIS_TO_NIR]

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
        assert lo - spread <= rep_map <= hi + spread

    def test_directions_roughly_symmetric(self):
        ds = generate_synthetic(
            SynthConfig(num_identities=10, samples_per_identity_per_modality=6, input_dim=8, seed=4)
        )
        params = init_encoder([8, 6], 1)
        ranked = cross_modal_eval(params, ds, list(Direction)).ranked
        (_, vn_map), (_, nv_map) = ranked[Direction.VIS_TO_NIR], ranked[Direction.NIR_TO_VIS]
        assert abs(vn_map - nv_map) < 0.2

    def test_one_forward_and_a_product_only_below_the_pool_size(self, monkeypatch):
        """Each direction is one cmc_map call. Below _POOL_MIN_SIMS it ranks
        one cosine_matrix product; from there on, its blocks compute theirs.
        Every row's norm is checked once up front, and again only inside a
        cosine_matrix product."""
        ds = generate_synthetic(
            SynthConfig(num_identities=6, samples_per_identity_per_modality=3, input_dim=4, seed=5)
        )
        calls = {}

        def counted(name):
            original = getattr(evaluation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        names = ("encoder_forward", "cosine_matrix", "cmc_map", "_checked_norms")
        for name in names:
            monkeypatch.setattr(evaluation, name, counted(name))
        # 18 x 18 similarities per direction
        for min_sims, products in ((18 * 18 + 1, 2), (18 * 18, 0)):
            monkeypatch.setattr(evaluation, "_POOL_MIN_SIMS", min_sims)
            calls.update(dict.fromkeys(names, 0))
            rep = cross_modal_eval(init_encoder([4, 3], 2), ds, list(Direction))
            assert set(rep.ranked) == set(Direction)
            assert calls == {
                "encoder_forward": 1, "cosine_matrix": products, "cmc_map": 2,
                "_checked_norms": 2 + 2 * products,
            }

    def test_reverse_direction_equals_its_own_product(self):
        """NIR -> VIS ranks its own NIR x VIS product; the result is the one
        cmc_map gives on that whole product."""
        ds = generate_synthetic(
            SynthConfig(num_identities=8, samples_per_identity_per_modality=5, input_dim=6, seed=7)
        )
        params = init_encoder([6, 5, 4], 3)
        got_cmc, got_map = cross_modal_eval(params, ds, [Direction.NIR_TO_VIS]).ranked[
            Direction.NIR_TO_VIS
        ]
        emb, _ = encoder_forward(params, ds.features)
        nir = ds.modalities == int(Modality.NIR)
        cmc, mean_ap = cmc_map(
            cosine_matrix(emb[nir], emb[~nir]), ds.identities[nir], ds.identities[~nir]
        )
        np.testing.assert_array_equal(got_cmc, cmc)
        assert got_map == mean_ap

    def test_mean_intra_cross_cosine_closed_case(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        ids = np.array([0, 0, 1])
        mods = np.array([0, 1, 1])
        # single intra pair: (row0 VIS, row1 NIR) -> cos 0
        assert probe(emb, ids, mods) == pytest.approx(0.0, abs=1e-15)


# Query rows per block in these tests, in place of _RANK_BLOCK: the panel
# of a direction's product that one block computes and ranks
PANEL = 4


def panel_case(n_vis, n_nir, seed=0):
    """(params, dataset) of n_vis VIS and n_nir NIR rows, in random order,
    over min(n_vis, n_nir, 3) identities that each modality holds. Each row
    is a scaled sign vector or axis, so its unit row holds +-0.5 or 0 and 1
    and every product is exact, and tied, whatever kernel computes it: a
    one-row block goes through a matrix-vector product, which can round
    differently from the whole matrix's."""
    rng = np.random.default_rng(seed)
    n_ids = min(n_vis, n_nir, 3)
    ids = np.concatenate([np.arange(n_vis) % n_ids, np.arange(n_nir) % n_ids])
    mods = np.repeat([int(Modality.VIS), int(Modality.NIR)], [n_vis, n_nir])
    order = rng.permutation(len(ids))
    feats = rng.choice([-1.0, 1.0], size=(len(ids), 4))
    feats[::3] = 2.0 * np.eye(4)[rng.integers(0, 4, size=len(feats[::3]))]
    feats *= rng.choice([0.25, 1.0, 3.0], size=(len(ids), 1))
    params = EncoderParams([np.eye(4)], [np.zeros(4)])
    return params, Dataset(feats, ids[order], mods[order], n_ids, 4)


def stream_panels(monkeypatch, workers):
    """Hand cmc_map every direction as a _Product, ranked in blocks of PANEL
    rows on `workers` threads, and fail on a whole cosine_matrix product."""
    force_pool(monkeypatch, workers)
    monkeypatch.setattr(evaluation, "_RANK_BLOCK", PANEL)
    monkeypatch.setattr(evaluation, "cosine_matrix", lambda *a: pytest.fail("whole product"))


class TestStreamedPanels:
    """From _POOL_MIN_SIMS similarities on, each block of a direction
    computes its own panel of the product as it ranks it; the outputs are
    the bits the whole products give."""

    @pytest.mark.parametrize(
        "n_vis, n_nir",
        [(1, 3), (4, 5), (14, 4), (5, 13)],
        ids=["one-query|under-a-panel", "one-panel|panel-plus-one",
             "three-panels-plus-two|one-panel", "panel-plus-one|three-panels-plus-one"],
    )
    @DIRECTION_LISTS
    def test_panels_give_the_whole_products_bits(self, monkeypatch, n_vis, n_nir, directions):
        params, ds = panel_case(n_vis, n_nir)
        emb, _ = encoder_forward(params, ds.features)
        vis = ds.modalities == int(Modality.VIS)
        v, n, vis_ids, nir_ids = emb[vis], emb[~vis], ds.identities[vis], ds.identities[~vis]
        sim = cosine_matrix(v, n)
        # at this shape each panel is its rows of the whole product, and the
        # NIR x VIS product is the VIS x NIR one transposed
        unit_v = v / evaluation._checked_norms(v, 1, "query")[:, None]
        unit_n = n / evaluation._checked_norms(n, 1, "gallery")[:, None]
        for product, whole in ((evaluation._Product(unit_v, unit_n), sim),
                               (evaluation._Product(unit_n, unit_v), sim.T)):
            assert product.shape == whole.shape
            for lo in range(0, len(whole), PANEL):
                np.testing.assert_array_equal(product[lo : lo + PANEL], whole[lo : lo + PANEL])
        whole = {
            Direction.VIS_TO_NIR: cmc_map(sim, vis_ids, nir_ids),
            Direction.NIR_TO_VIS: cmc_map(cosine_matrix(n, v), nir_ids, vis_ids),
        }
        same = vis_ids[:, None] == nir_ids[None, :]
        for workers in (1, 3):
            stream_panels(monkeypatch, workers)
            rep = cross_modal_eval(params, ds, directions)
            assert_whole_products_bits(rep, directions, sim, same, whole)

    def test_no_direction_rejected_before_any_work(self, monkeypatch):
        """With no direction the edges would never be counted, and the inter
        histogram would come out negative."""
        monkeypatch.setattr(evaluation, "encoder_forward", lambda *args: pytest.fail("forward ran"))
        params, ds = panel_case(5, 5)
        with pytest.raises(ContractViolation, match="no direction to evaluate"):
            cross_modal_eval(params, ds, [])

    @pytest.mark.parametrize(
        "modality, message",
        [(Modality.VIS, "query row 4 has near-zero norm"),
         (Modality.NIR, "gallery row 9 has near-zero norm")],
    )
    @DIRECTION_LISTS
    def test_zero_row_named_by_its_modality_before_any_panel(
        self, monkeypatch, modality, message, directions
    ):
        """VIS rows are named "query" and NIR rows "gallery", with the row's
        index within its modality, whichever direction ranks first."""
        params, ds = panel_case(5, 13)
        k = int(message.split()[2])
        ds.features[np.flatnonzero(ds.modalities == int(modality))[k]] = 0.0
        stream_panels(monkeypatch, 3)
        monkeypatch.setattr(evaluation, "_Product", lambda *a: pytest.fail("panel computed"))
        with pytest.raises(DegenerateNormError, match=f"^{message}$"):
            cross_modal_eval(params, ds, directions)

    @pytest.mark.parametrize(
        "modality, message",
        [(Modality.VIS, "query row 4 has near-zero norm"),
         (Modality.NIR, "gallery row 9 has near-zero norm")],
    )
    @DIRECTION_LISTS
    def test_zero_row_named_by_its_modality_below_the_pool_size(
        self, monkeypatch, modality, message, directions
    ):
        """Named as from _POOL_MIN_SIMS on, before any cosine_matrix
        product, which would name the rows by their role in a direction."""
        params, ds = panel_case(5, 13)
        ds.features[np.flatnonzero(ds.modalities == int(modality))[int(message.split()[2])]] = 0.0
        monkeypatch.setattr(evaluation, "cosine_matrix", lambda *a: pytest.fail("product computed"))
        with pytest.raises(DegenerateNormError, match=f"^{message}$"):
            cross_modal_eval(params, ds, directions)


class TestOneBlasThread:
    """A pooled direction holds OpenBLAS to one thread while it ranks, and
    gives the count back on every exit."""

    @staticmethod
    def fake_blas(monkeypatch):
        threads = [2]
        monkeypatch.setattr(
            core, "_openblas",
            lambda: ("fake", lambda: threads[0], lambda n: threads.__setitem__(0, n)),
        )
        return threads

    def test_restored_after_a_normal_block(self, monkeypatch):
        threads = self.fake_blas(monkeypatch)
        with core._one_blas_thread():
            assert threads == [1]
        assert threads == [2]

    def test_restored_after_a_block_that_raises(self, monkeypatch):
        threads = self.fake_blas(monkeypatch)
        with pytest.raises(KeyError):
            with core._one_blas_thread():
                assert threads == [1]
                raise KeyError("boom")
        assert threads == [2]

    def test_pins_the_library_numpy_loaded(self):
        blas = core._openblas()
        if blas is None:  # NumPy bundles no OpenBLAS here: nothing to pin
            with core._one_blas_thread():
                pass
            return
        _, get, _ = blas
        before = get()
        with core._one_blas_thread():
            assert get() == 1
        assert get() == before

    def test_outputs_unchanged_where_no_openblas_is_found(self, monkeypatch):
        force_pool(monkeypatch, 2)
        params, ds = TestRankingPool.gallery()
        blas = core._openblas()
        pinned = []
        if blas is not None:
            name, get, put = blas
            recorded = (name, get, lambda n: pinned.append(n) or put(n))
            monkeypatch.setattr(core, "_openblas", lambda: recorded)
        rep = cross_modal_eval(params, ds, list(Direction))
        assert pinned == ([] if blas is None else [1, get()] * 2)  # per direction
        monkeypatch.setattr(core, "_openblas", lambda: None)
        bare = cross_modal_eval(params, ds, list(Direction))
        for direction in Direction:
            np.testing.assert_array_equal(rep.ranked[direction][0], bare.ranked[direction][0])
            assert rep.ranked[direction][1] == bare.ranked[direction][1]
        np.testing.assert_array_equal(rep.intra_hist, bare.intra_hist)
        np.testing.assert_array_equal(rep.inter_hist, bare.inter_hist)
        assert rep.intra_cosine_mean == bare.intra_cosine_mean


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
            assert probe(emb, ids, mods) == full_matrix_probe(emb, ids, mods)

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
            got = probe(emb, ids, mods)
            assert got == pytest.approx(full_matrix_probe(emb, ids, mods), rel=0, abs=1e-15)

    @pytest.mark.parametrize("modality", [Modality.VIS, Modality.NIR])
    def test_zero_row_without_partner_raises(self, modality):
        emb, ids, mods = interleaved_set(0, 4, 2, 4)
        emb = np.vstack([emb, np.zeros((1, 4))])
        ids, mods = np.append(ids, 99), np.append(mods, int(modality))
        with pytest.raises(DegenerateNormError, match="has near-zero norm"):
            probe(emb, ids, mods)

    def test_one_plan_serves_every_embedding_of_its_labels(self):
        # a run builds the plan once and probes every epoch's embeddings with it
        _, ids, mods = interleaved_set(0, 40, 20, 4)
        plan = intra_cross_plan(ids, mods)
        for seed in range(5):
            emb = np.random.default_rng(seed).normal(size=(len(ids), 4))
            assert mean_intra_cross_cosine(emb, plan) == full_matrix_probe(emb, ids, mods)

    def test_memory_stays_far_below_the_full_matrix(self):
        emb, ids, mods = interleaved_set(0, 600, 4, 16)  # wide_train: 2,400 x 2,400
        full_bytes = 2400 * 2400 * 8
        tracemalloc.start()
        try:
            probe(emb, ids, mods)
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
    def test_converts_rows_in_chunks_with_csv_writer_bytes(self, tmp_path):
        """20,000 x 16 embeddings: the writer's peak stays under what the
        whole matrix takes as Python floats, and its bytes are csv.writer's."""
        emb = np.random.default_rng(2).normal(size=(20_000, 16))
        ids, mods = np.arange(20_000) // 4, np.arange(20_000) % 2
        ds = Dataset(emb, ids, mods, 5_000, 16)
        path = tmp_path / "emb.csv"
        as_floats = traced_peak(emb.tolist)
        assert traced_peak(lambda: export_embeddings(emb, ds, path)) < as_floats
        assert path.read_bytes() == csv_writer_bytes(ids, mods, emb, "e")

    def test_header_only_for_empty_dataset(self, tmp_path):
        ds = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros(0, dtype=int), 1, 3)
        path = tmp_path / "emb.csv"
        export_embeddings(np.zeros((0, 3)), ds, path)
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
        emb, _ = encoder_forward(params, feats)
        export_embeddings(emb, ds, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 7
        back = np.array([[float(v) for v in row[2:]] for row in rows[1:]])
        np.testing.assert_allclose(back, emb, atol=1e-9)
