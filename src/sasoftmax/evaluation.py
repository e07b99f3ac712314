"""Cross-modality retrieval metrics (CMC / mAP), cosine-similarity
histograms over cross-modality pairs, and prototype-geometry diagnostics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Dataset, IdentityPrototypeMatrix, Modality, ModalityPrototypeMatrix
from .core import _save_samples_csv, atomic_write
from .encoder import EncoderParams, encoder_forward
from .errors import ContractViolation, DegenerateNormError
from .losses import NORM_EPS

HIST_BINS = np.linspace(-1.0, 1.0, 61)  # 60 fixed bins, comparable across runs
# Query rows cmc_map sorts per call, which bounds its sorted copy to
# _RANK_BLOCK x gallery floats.
_RANK_BLOCK = 256


class Direction(Enum):
    VIS_TO_NIR = "vis2nir"
    NIR_TO_VIS = "nir2vis"


@dataclass
class EvalReport:
    cmc: np.ndarray  # hit rate at ranks 1..R
    map: float
    intra_hist: np.ndarray  # cross-modality pair counts; shared by both directions
    inter_hist: np.ndarray
    intra_cosine_mean: float  # mean cosine of the same-identity (VIS, NIR) pairs

    @property
    def rank1(self) -> float:
        return float(self.cmc[0])


def _unit_rows(rows: np.ndarray, name: str) -> np.ndarray:
    """`rows` scaled to unit norm. A row of near-zero norm raises
    DegenerateNormError naming `name` and the row, whether or not any pair
    would use it."""
    norms = np.linalg.norm(rows, axis=1)
    bad = np.nonzero(norms < NORM_EPS)[0]
    if bad.size:
        raise DegenerateNormError(f"{name} row {bad[0]} has near-zero norm")
    return rows / norms[:, None]


def cosine_matrix(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    return _unit_rows(queries, "query") @ _unit_rows(gallery, "gallery").T


def _c_ordered(rows: np.ndarray) -> np.ndarray:
    """`rows` as a C-ordered array. A block of a transposed matrix is copied
    tile by tile: copied whole, its strided reads miss the cache."""
    if rows.flags.c_contiguous:
        return rows
    out = np.empty(rows.shape, dtype=rows.dtype)
    for c in range(0, rows.shape[1], _RANK_BLOCK):
        out[:, c : c + _RANK_BLOCK] = rows[:, c : c + _RANK_BLOCK]
    return out


def cmc_map(sim: np.ndarray, q_ids: np.ndarray, g_ids: np.ndarray):
    """Rank-based CMC and interpolation-free mAP.

    Only each query's relevant gallery items are ranked. Ties are broken
    deterministically, lower gallery index first: the rank of item g is
    1 + #(items strictly more similar) + #(equally similar items at a lower
    index). AP = mean over relevant items of precision at their ranks.
    """
    n_q, n_g = sim.shape
    order = np.argsort(g_ids, kind="stable")
    keys, starts = np.unique(g_ids[order], return_index=True)
    relevant = dict(zip(keys.tolist(), np.split(order, starts[1:])))
    queries = np.asarray(q_ids).tolist()
    for qi, q in enumerate(queries):
        if q not in relevant:
            raise ContractViolation(f"query {qi} has no relevant gallery item")
    first_hits = np.empty(n_q, dtype=np.intp)
    aps = np.empty(n_q)
    ap_terms = np.zeros(n_g)
    for lo in range(0, n_q, _RANK_BLOCK):
        block = _c_ordered(sim[lo : lo + _RANK_BLOCK])
        for qi, row, ascending in zip(range(lo, n_q), block, np.sort(block, axis=1)):
            rel = relevant[queries[qi]]
            vals = row[rel]
            right = np.searchsorted(ascending, vals, "right")
            ranks = n_g + 1 - right
            ties = right - np.searchsorted(ascending, vals, "left") > 1
            for t in np.flatnonzero(ties):
                ranks[t] += np.count_nonzero(row[: rel[t]] == vals[t])
            ranks.sort()
            first_hits[qi] = ranks[0] - 1
            # precision j / rank_j at each hit and zero elsewhere; summing
            # the whole row keeps a full ranking's summation order, and bits
            ap_terms[ranks - 1] = np.arange(1, len(ranks) + 1) / ranks
            aps[qi] = ap_terms.sum() / len(ranks)
            ap_terms[ranks - 1] = 0.0
    cmc = np.cumsum(np.bincount(first_hits, minlength=n_g)) / n_q
    return cmc, float(aps.mean())


def histogram_overlap(intra: np.ndarray, inter: np.ndarray) -> float:
    """Shared mass of the two normalized histograms, in [0, 1]."""
    p = intra / max(intra.sum(), 1)
    q = inter / max(inter.sum(), 1)
    return float(np.minimum(p, q).sum())


def mean_intra_cross_cosine(emb: np.ndarray, ids: np.ndarray, mods: np.ndarray) -> float:
    """Mean cosine of the same-identity (VIS, NIR) pairs, without the VIS x NIR
    matrix. Each identity's pairs are one block product of its unit VIS rows
    and unit NIR rows, one batched matmul per distinct (#VIS, #NIR) shape.
    The blocks are scattered into the pairs' row-major order in that matrix,
    so the mean sums what `cosine_matrix(vis, nir)[same].mean()` sums, in the
    same order. Every row's norm is checked, paired or not."""
    vis = mods == int(Modality.VIS)
    nir = mods == int(Modality.NIR)
    v = _unit_rows(emb[vis], "query")
    n = _unit_rows(emb[nir], "gallery")
    keys, codes = np.unique(np.concatenate([ids[vis], ids[nir]]), return_inverse=True)
    v_code, n_code = codes[: len(v)], codes[len(v) :]
    # rows of each identity, identity by identity, in their original order
    v_rows, n_rows = np.argsort(v_code, kind="stable"), np.argsort(n_code, kind="stable")
    nv = np.bincount(v_code, minlength=len(keys))
    nn = np.bincount(n_code, minlength=len(keys))
    v_start, n_start = np.cumsum(nv) - nv, np.cumsum(nn) - nn
    # a VIS row's pairs are one run of the flat order, one per NIR partner
    width = nn[v_code]
    offset = np.cumsum(width) - width
    pairs = np.empty(int(width.sum()), dtype=np.result_type(v, n))
    paired = (nv > 0) & (nn > 0)
    shape_key = nv * (nn.max(initial=0) + 1) + nn
    for key in np.unique(shape_key[paired]):
        group = np.flatnonzero(paired & (shape_key == key))
        a, b = int(nv[group[0]]), int(nn[group[0]])
        rows_v = v_rows[v_start[group, None] + np.arange(a)]
        rows_n = n_rows[n_start[group, None] + np.arange(b)]
        blocks = np.matmul(v[rows_v], n[rows_n].transpose(0, 2, 1))
        pairs[offset[rows_v][..., None] + np.arange(b)] = blocks
    return float(pairs.mean())


def cross_modal_eval(
    params: EncoderParams, dataset: Dataset, directions
) -> dict[Direction, EvalReport]:
    """Retrieval evaluation: in each direction, source-modality samples query
    the full target-modality gallery. One forward pass and one VIS x NIR
    similarity matrix serve every direction and the histograms; NIR -> VIS
    ranks the transpose. An identity with no item in a direction's gallery
    raises ContractViolation naming it and the direction, before any work."""
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
    emb, _ = encoder_forward(params, dataset.features)
    sim = cosine_matrix(emb[vis], emb[nir])
    vis_ids, nir_ids = ids[vis], ids[nir]
    ranked = {}
    for direction in directions:
        if direction == Direction.VIS_TO_NIR:
            ranked[direction] = cmc_map(sim, vis_ids, nir_ids)
        else:
            ranked[direction] = cmc_map(sim.T, nir_ids, vis_ids)
    # Over all (VIS, NIR) pairs; same-modality pairs are ignored. Counts are
    # integers, so the subtraction is exact.
    intra_sims = sim[vis_ids[:, None] == nir_ids[None, :]]
    intra, _ = np.histogram(intra_sims, bins=HIST_BINS)
    inter = np.histogram(sim, bins=HIST_BINS)[0] - intra
    intra_mean = float(intra_sims.mean())
    return {
        d: EvalReport(cmc, mean_ap, intra, inter, intra_mean)
        for d, (cmc, mean_ap) in ranked.items()
    }


def prototype_diagnostics(
    modality_prototypes: ModalityPrototypeMatrix,
    identity_prototypes: IdentityPrototypeMatrix,
) -> dict:
    """Per-identity cosines between the two modality prototypes and the
    identity prototype, plus their means."""
    n = modality_prototypes.num_identities
    if identity_prototypes.num_identities != n:
        raise ContractViolation("prototype heads disagree on identity count")

    def unit_cols(m: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(m, axis=0)
        if np.any(norms < NORM_EPS):
            raise DegenerateNormError("prototype column with near-zero norm")
        return m / norms

    pv = unit_cols(modality_prototypes.visible())
    pn = unit_cols(modality_prototypes.infrared())
    ps = unit_cols(identity_prototypes.W)
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


def export_embeddings(params: EncoderParams, dataset: Dataset, path) -> None:
    """CSV `id,modality,e0..` for external projection/plotting."""
    emb, _ = encoder_forward(params, dataset.features)
    _save_samples_csv(path, dataset.identities, dataset.modalities, emb, "e")


def save_histogram_csv(hist: np.ndarray, path) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_low", "bin_high", "count"])
        for i, c in enumerate(hist):
            writer.writerow([repr(float(HIST_BINS[i])), repr(float(HIST_BINS[i + 1])), int(c)])
