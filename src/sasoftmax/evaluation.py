"""Cross-modality retrieval metrics (CMC / mAP), cosine-similarity
histograms over cross-modality pairs, and prototype-geometry diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import core
from .core import Dataset, IdentityPrototypeMatrix, Modality, ModalityPrototypeMatrix
from .core import _checked_norms, _key_groups, _save_samples_csv, save_rows_csv
from .encoder import EncoderParams, encoder_forward
from .errors import ContractViolation

HIST_BINS = np.linspace(-1.0, 1.0, 61)  # 60 fixed bins, comparable across runs
# Query rows cmc_map ranks as one block of _RANK_BLOCK x gallery floats,
# sorted in place when a _Product computed it.
_RANK_BLOCK = 128
# Similarities from which cmc_map ranks its blocks on a thread pool, one
# worker per CPU; the blocks in flight then hold up to workers x _RANK_BLOCK
# x gallery floats. Smaller matrices rank inline.
_POOL_MIN_SIMS = 4_000_000
# HIST_BINS as searchsorted keys counting the values below each edge: the
# last edge one ulp up, so that its bin is closed as in np.histogram
_EDGE_KEYS = HIST_BINS.copy()
_EDGE_KEYS[-1] = np.nextafter(HIST_BINS[-1], np.inf)


class Direction(Enum):
    VIS_TO_NIR = "vis2nir"
    NIR_TO_VIS = "nir2vis"


@dataclass
class EvalReport:
    """One evaluation of a test set: per requested direction, cmc_map's
    (cmc, map), cmc[r - 1] being the hit rate at rank r; and once, the parts
    that belong to the test set rather than to a direction."""

    ranked: dict[Direction, tuple[np.ndarray, float]]
    intra_hist: np.ndarray  # counts over the same-identity (VIS, NIR) pairs
    inter_hist: np.ndarray  # counts over the other (VIS, NIR) pairs
    intra_cosine_mean: float  # mean cosine of the same-identity (VIS, NIR) pairs
    embeddings: np.ndarray  # the forward pass that was ranked, every sample in order


def cosine_matrix(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Cosines of every (query, gallery) row pair; every row's norm is checked."""
    q, g = _checked_norms(queries, 1, "query"), _checked_norms(gallery, 1, "gallery")
    return (queries / q[:, None]) @ (gallery / g[:, None]).T


class _Product:
    """The cosines of unit query rows `q` and unit gallery rows `g`, computed
    only as rows are asked for: [lo:hi] is q[lo:hi] @ g.T."""

    def __init__(self, q: np.ndarray, g: np.ndarray):
        self.q, self.g = q, g
        self.shape = (len(q), len(g))

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.q[rows] @ self.g.T


def _pair_columns(order: np.ndarray, start: np.ndarray, size: np.ndarray):
    """Query rows and gallery columns of every same-identity pair of the
    queries described by (`start`, `size`), row-major with columns ascending:
    the order in which a boolean mask over the query x gallery matrix lists
    them."""
    rows = np.repeat(np.arange(len(size)), size)
    first = np.cumsum(size) - size
    within = np.arange(len(rows)) - np.repeat(first, size)
    return rows, order[np.repeat(start, size) + within]


def _pool_workers(n_q: int, n_g: int) -> int:
    """Threads cmc_map ranks an n_q x n_g matrix on: one per CPU and block,
    from _POOL_MIN_SIMS similarities on; 1 means inline."""
    if n_q * n_g < _POOL_MIN_SIMS:
        return 1
    return min(core._cpu_count(), -(-n_q // _RANK_BLOCK))


def cmc_map(sim, q_ids: np.ndarray, g_ids: np.ndarray, counts=None, pairs=None):
    """Rank-based CMC and interpolation-free mAP.

    Only each query's relevant gallery items are ranked. Ties are broken
    deterministically, lower gallery index first: the rank of item g is
    1 + #(items strictly more similar) + #(equally similar items at a lower
    index). AP = mean over relevant items of precision at their ranks.

    `sim` is the query x gallery matrix, or a _Product, whose rows each
    block computes as it ranks them. Each block of _RANK_BLOCK query rows is
    sorted once: a computed block in place, a block of the caller's matrix
    as a copy, so `sim` is never written. Only a tie reads the unsorted
    rows, and they are then fetched again: a _Product recomputes the block
    by the same call, so with the same bits. One searchsorted per row then
    locates the row's relevant values, and, when `counts` is given (an int64
    array of len(HIST_BINS)), the histogram edges too: `counts` receives,
    per edge, how many similarities of the whole matrix lie below it (the
    last edge closed), so np.diff(counts) equals np.histogram(sim,
    HIST_BINS)[0]. When `pairs` is given (a float array with one entry per
    same-identity pair), it receives their similarities row-major, columns
    ascending: the order in which a boolean same-identity mask lists them.

    From _POOL_MIN_SIMS similarities on, the blocks are ranked on a thread
    pool of one worker per CPU (NumPy's sort, search and product release the
    GIL), with OpenBLAS held to one thread, so one block per worker is held
    at once. Each block writes its own queries' results and pairs and
    returns its edge counts, which are added in block order: every output
    is the bits the inline loop gives.
    """
    n_q, n_g = sim.shape
    order, start, size = _key_groups(q_ids, g_ids)
    missing = np.flatnonzero(size == 0)
    if missing.size:
        raise ContractViolation(f"query {missing[0]} has no relevant gallery item")
    n_edges = len(_EDGE_KEYS) if counts is not None else 0
    first_hits, aps = np.empty(n_q, dtype=np.intp), np.empty(n_q)
    pair_at = np.cumsum(size) - size  # each query's first pair

    # Runs on the pool's threads, so it calls only NumPy and private helpers:
    # a tracer that wraps the public functions keeps one call stack
    def rank_block(lo: int) -> np.ndarray:
        """Rank queries lo.. of one block into first_hits and aps; return
        the block's edge counts."""
        block = sim[lo : lo + _RANK_BLOCK]
        n_b = len(block)
        m = size[lo : lo + n_b]
        first = np.cumsum(m) - m  # each row's first pair
        rows, cols = _pair_columns(order, start[lo : lo + n_b], m)
        vals = block[rows, cols]
        # rows a _Product computed belong to this block and are sorted in
        # place; a view of the caller's matrix is sorted as a copy
        if isinstance(sim, _Product):
            block.sort(axis=1)
            ascending = block
        else:
            ascending = np.sort(block, axis=1)
        del block  # the tie loop fetches the unsorted rows again
        if pairs is not None:
            pairs[pair_at[lo] : pair_at[lo] + len(vals)] = vals
        # row r's search keys: its relevant values, then the edges
        val_at = np.arange(len(rows)) + rows * n_edges
        seg_end = np.cumsum(m + n_edges)
        keys = np.empty(seg_end[-1])
        keys[val_at] = vals
        edge_at = (seg_end - n_edges)[:, None] + np.arange(n_edges)
        keys[edge_at] = _EDGE_KEYS[:n_edges]
        below = np.empty(len(keys), dtype=np.intp)
        for r, (s, e) in enumerate(zip((seg_end - m - n_edges).tolist(), seg_end.tolist())):
            below[s:e] = np.searchsorted(ascending[r], keys[s:e])
        edge_counts = below[edge_at].sum(axis=0)
        # 1 + #(items strictly more similar), unless the next sorted value
        # equals this one (or is NaN): then the tie is counted the slow way
        below = below[val_at]
        ranks = n_g - below
        upper = ascending[rows, np.minimum(below + 1, n_g - 1)]
        tied = np.flatnonzero((below + 1 < n_g) & ~(upper > vals))
        if tied.size:
            # a view again, or the product's rows recomputed by the same call
            # at the same BLAS thread count: the bits sorted above
            block = sim[lo : lo + _RANK_BLOCK]
        for t in tied.tolist():
            r, v = rows[t], vals[t]
            right = np.searchsorted(ascending[r], v, "right")
            ranks[t] = n_g + 1 - right + np.count_nonzero(block[r, : cols[t]] == v)
        # each row's ranks in ascending order
        ranks = np.sort(rows * (n_g + 1) + ranks) - rows * (n_g + 1)
        first_hits[lo : lo + n_b] = ranks[first] - 1
        # precision j / rank_j at each hit and zero elsewhere; summing each
        # whole row keeps a full ranking's summation order, and bits
        ascending[:] = 0.0
        ascending[rows, ranks - 1] = (np.arange(len(rows)) - first[rows] + 1) / ranks
        aps[lo : lo + n_b] = ascending.sum(axis=1) / m
        return edge_counts

    blocks = range(0, n_q, _RANK_BLOCK)
    workers = _pool_workers(n_q, n_g)
    if workers > 1:
        # imported here, as it imports logging: no cost to a start-up that never pools
        from concurrent.futures import ThreadPoolExecutor

        with core._one_blas_thread(), ThreadPoolExecutor(workers) as pool:
            per_block = list(pool.map(rank_block, blocks))
    else:
        per_block = [rank_block(lo) for lo in blocks]
    if counts is not None:
        counts[:] = 0
        for edge_counts in per_block:
            counts += edge_counts
    cmc = np.cumsum(np.bincount(first_hits, minlength=n_g)) / n_q
    return cmc, float(aps.mean())


def histogram_overlap(intra: np.ndarray, inter: np.ndarray) -> float:
    """Shared mass of the two normalized histograms, in [0, 1]."""
    p = intra / max(intra.sum(), 1)
    q = inter / max(inter.sum(), 1)
    return float(np.minimum(p, q).sum())


def intra_cross_plan(ids: np.ndarray, mods: np.ndarray) -> tuple:
    """Where `mean_intra_cross_cosine` finds the same-identity (VIS, NIR)
    pairs of rows labelled `ids` and `mods`. It depends on the labels alone,
    so a run builds it once: (VIS mask, NIR mask, pair count, groups)."""
    vis = mods == int(Modality.VIS)
    nir = mods == int(Modality.NIR)
    v_ids = ids[vis]
    # for each VIS row, its NIR partners and its identity's VIS rows, each
    # group ascending; the rows count within their modality
    n_rows, n_start, nn = _key_groups(v_ids, ids[nir])
    v_rows, v_start, nv = _key_groups(v_ids, v_ids)
    # a VIS row's pairs are one run of the flat order, one per NIR partner
    offset = np.cumsum(nn) - nn
    # one lead row per paired identity, identity by identity: its first VIS row
    lead = v_rows[np.unique(v_start)]
    lead = lead[nn[lead] > 0]
    shape_key = nv[lead] * (nn.max(initial=0) + 1) + nn[lead]
    groups = []  # per (#VIS, #NIR) shape: VIS rows, NIR rows, pair positions
    for key in np.unique(shape_key):
        group = lead[shape_key == key]
        a, b = int(nv[group[0]]), int(nn[group[0]])
        rows_v = v_rows[v_start[group, None] + np.arange(a)]
        rows_n = n_rows[n_start[group, None] + np.arange(b)]
        groups.append((rows_v, rows_n, offset[rows_v][..., None] + np.arange(b)))
    return vis, nir, int(nn.sum()), groups


def mean_intra_cross_cosine(emb: np.ndarray, plan: tuple) -> float:
    """Mean cosine of the same-identity (VIS, NIR) pairs `plan` locates,
    without the VIS x NIR matrix: one batched matmul of unit rows per
    (#VIS, #NIR) shape, scattered into that matrix's row-major order, so the
    mean sums what `cosine_matrix(vis, nir)[same].mean()` sums, in the same
    order. Every row's norm is checked, paired or not."""
    vis, nir, count, groups = plan
    v, n = emb[vis], emb[nir]
    v, n = v / _checked_norms(v, 1, "query")[:, None], n / _checked_norms(n, 1, "gallery")[:, None]
    pairs = np.empty(count, dtype=np.result_type(v, n))
    for rows_v, rows_n, at in groups:
        pairs[at] = np.matmul(v[rows_v], n[rows_n].transpose(0, 2, 1))
    return float(pairs.mean())


def cross_modal_eval(params: EncoderParams, dataset: Dataset, directions) -> EvalReport:
    """Retrieval evaluation: in each direction, source-modality samples query
    the full target-modality gallery. One forward pass serves every
    direction and the histograms, and the report carries its embeddings.
    A direction of _POOL_MIN_SIMS similarities or more hands cmc_map its
    product as a _Product of unit rows normalized once, so that each block
    computes its own rows as it ranks them and the whole matrix is never
    held; a smaller direction is one cosine_matrix product. The first
    direction also counts the histogram edges and gathers the same-identity
    pairs. No direction, or an identity with no item in a direction's
    gallery (named, with the direction), raises ContractViolation before any
    work."""
    if not directions:
        raise ContractViolation("no direction to evaluate")
    ids, mods = dataset.identities, dataset.modalities
    vis, nir = mods == int(Modality.VIS), mods == int(Modality.NIR)
    if not vis.any() or not nir.any():
        raise ContractViolation("both modalities must be present in the test set")
    for direction in directions:
        query, gallery = (vis, nir) if direction == Direction.VIS_TO_NIR else (nir, vis)
        # sets, not np.setdiff1d, which imports numpy.ma (about 1 MiB)
        missing = set(ids[query].tolist()) - set(ids[gallery].tolist())
        if missing:
            target = "nir" if direction == Direction.VIS_TO_NIR else "vis"
            raise ContractViolation(
                f"identity {min(missing)} has no {target} gallery item ({direction.value})"
            )
    emb = encoder_forward(params, dataset.features)[0]  # the cache is let go before ranking
    v, n = emb[vis], emb[nir]
    # every row checked once, named as in a VIS x NIR product, before any product;
    # both directions hold n_vis x n_nir similarities, so both pool or neither
    vis_norms, nir_norms = _checked_norms(v, 1, "query"), _checked_norms(n, 1, "gallery")
    pooled = len(v) * len(n) >= _POOL_MIN_SIMS
    if pooled:
        v, n = v / vis_norms[:, None], n / nir_norms[:, None]
    vis_side, nir_side = (v, ids[vis]), (n, ids[nir])
    # Over all (VIS, NIR) pairs, counted while the first direction ranks
    # them; same-modality pairs are ignored
    counts = np.zeros(len(HIST_BINS), dtype=np.int64)
    ranked = {}
    for direction in directions:
        to_nir = direction == Direction.VIS_TO_NIR
        (q, q_ids), (g, g_ids) = (vis_side, nir_side) if to_nir else (nir_side, vis_side)
        sim = _Product(q, g) if pooled else cosine_matrix(q, g)
        first = not ranked
        if first:  # the same-identity pairs, row-major in this direction
            groups = _key_groups(q_ids, g_ids)
            intra_sims = np.empty(int(groups[2].sum()))
        ranked[direction] = cmc_map(sim, q_ids, g_ids, counts=counts if first else None,
                                    pairs=intra_sims if first else None)
        del sim  # so that no two directions' products are held at once
        if first and not to_nir:  # to the order a VIS x NIR mask lists them
            rows, cols = _pair_columns(*groups)
            intra_sims = intra_sims[np.lexsort((rows, cols))]
    # Counts are integers, so the subtraction is exact.
    intra, _ = np.histogram(intra_sims, bins=HIST_BINS)
    inter = np.diff(counts) - intra
    return EvalReport(ranked, intra, inter, float(intra_sims.mean()), emb)


def prototype_diagnostics(
    modality_prototypes: ModalityPrototypeMatrix,
    identity_prototypes: IdentityPrototypeMatrix,
) -> dict:
    """Per-identity cosines between the two modality prototypes and the
    identity prototype, plus their means. A column of near-zero norm raises
    DegenerateNormError naming its head and its identity."""
    n = modality_prototypes.num_identities
    if identity_prototypes.num_identities != n:
        raise ContractViolation("prototype heads disagree on identity count")
    heads = {"visible modality": modality_prototypes.visible(),
             "infrared modality": modality_prototypes.infrared(), "identity": identity_prototypes.W}
    pv, pn, ps = (m / _checked_norms(m, 0, f"{head} prototype") for head, m in heads.items())
    cos_vs = np.einsum("di,di->i", pv, ps)
    cos_ns = np.einsum("di,di->i", pn, ps)
    cos_vn = np.einsum("di,di->i", pv, pn)
    return {
        "cos_vis_id": cos_vs,
        "cos_nir_id": cos_ns,
        "cos_vis_nir": cos_vn,
        "mean_cos_vis_id": float(cos_vs.mean()),
        "mean_cos_nir_id": float(cos_ns.mean()),
        "mean_cos_vis_nir": float(cos_vn.mean()),
    }


def export_embeddings(emb: np.ndarray, dataset: Dataset, path) -> None:
    """CSV `id,modality,e0..` of `dataset`'s embeddings `emb` (one row per
    sample, in order), for external projection/plotting."""
    _save_samples_csv(path, dataset.identities, dataset.modalities, emb, "e")


def save_histogram_csv(hist: np.ndarray, path) -> None:
    save_rows_csv([
        {"bin_low": float(HIST_BINS[i]), "bin_high": float(HIST_BINS[i + 1]), "count": int(c)}
        for i, c in enumerate(hist)
    ], path)
