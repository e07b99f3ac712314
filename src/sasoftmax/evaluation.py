"""Cross-modality retrieval metrics (CMC / mAP), cosine-similarity
histograms over cross-modality pairs, and prototype-geometry diagnostics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Dataset, IdentityPrototypeMatrix, Modality, ModalityPrototypeMatrix
from .encoder import EncoderParams, encoder_forward
from .errors import ContractViolation, DegenerateNormError
from .losses import NORM_EPS

HIST_BINS = np.linspace(-1.0, 1.0, 61)  # 60 fixed bins, comparable across runs


class Direction(Enum):
    VIS_TO_NIR = "vis2nir"
    NIR_TO_VIS = "nir2vis"


@dataclass
class EvalReport:
    cmc: np.ndarray  # hit rate at ranks 1..R
    map: float
    intra_hist: np.ndarray
    inter_hist: np.ndarray

    @property
    def rank1(self) -> float:
        return float(self.cmc[0])


def cosine_matrix(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    qn = np.linalg.norm(queries, axis=1)
    gn = np.linalg.norm(gallery, axis=1)
    for name, norms in (("query", qn), ("gallery", gn)):
        bad = np.nonzero(norms < NORM_EPS)[0]
        if bad.size:
            raise DegenerateNormError(f"{name} row {bad[0]} has near-zero norm")
    return (queries / qn[:, None]) @ (gallery / gn[:, None]).T


def cmc_map(sim: np.ndarray, q_ids: np.ndarray, g_ids: np.ndarray):
    """Rank-based CMC and interpolation-free mAP.

    Ties are broken deterministically: lower gallery index first.
    AP = mean over relevant positions of precision at that position.
    """
    n_q, n_g = sim.shape
    cmc = np.zeros(n_g)
    aps = np.zeros(n_q)
    gallery_idx = np.arange(n_g)
    for qi in range(n_q):
        order = np.lexsort((gallery_idx, -sim[qi]))
        rel = (g_ids[order] == q_ids[qi]).astype(float)
        n_rel = rel.sum()
        if n_rel == 0:
            raise ContractViolation(f"query {qi} has no relevant gallery item")
        first_hit = int(np.argmax(rel))
        cmc[first_hit:] += 1.0
        precision = np.cumsum(rel) / (gallery_idx + 1.0)
        aps[qi] = float((precision * rel).sum() / n_rel)
    return cmc / n_q, float(aps.mean())


def _cross_modality_histograms(emb: np.ndarray, ids: np.ndarray, mods: np.ndarray):
    """Intra/inter histograms over all (VIS, NIR) pairs; same-modality pairs
    are ignored. Returns raw counts over the fixed bin grid."""
    vis = mods == int(Modality.VIS)
    nir = mods == int(Modality.NIR)
    sims = cosine_matrix(emb[vis], emb[nir])
    same = ids[vis][:, None] == ids[nir][None, :]
    intra, _ = np.histogram(sims[same], bins=HIST_BINS)
    inter, _ = np.histogram(sims[~same], bins=HIST_BINS)
    return intra, inter


def histogram_overlap(intra: np.ndarray, inter: np.ndarray) -> float:
    """Shared mass of the two normalized histograms, in [0, 1]."""
    p = intra / max(intra.sum(), 1)
    q = inter / max(inter.sum(), 1)
    return float(np.minimum(p, q).sum())


def mean_intra_cross_cosine(emb: np.ndarray, ids: np.ndarray, mods: np.ndarray) -> float:
    vis = mods == int(Modality.VIS)
    nir = mods == int(Modality.NIR)
    sims = cosine_matrix(emb[vis], emb[nir])
    same = ids[vis][:, None] == ids[nir][None, :]
    return float(sims[same].mean())


def cross_modal_eval(
    params: EncoderParams, dataset: Dataset, direction: Direction
) -> EvalReport:
    """Retrieval evaluation: source-modality samples query the full
    target-modality gallery."""
    emb, _ = encoder_forward(params, dataset.features)
    if direction == Direction.VIS_TO_NIR:
        src, tgt = Modality.VIS, Modality.NIR
    else:
        src, tgt = Modality.NIR, Modality.VIS
    q_mask = dataset.modalities == int(src)
    g_mask = dataset.modalities == int(tgt)
    if not q_mask.any() or not g_mask.any():
        raise ContractViolation("both modalities must be present in the test set")
    sim = cosine_matrix(emb[q_mask], emb[g_mask])
    cmc, mean_ap = cmc_map(sim, dataset.identities[q_mask], dataset.identities[g_mask])
    intra, inter = _cross_modality_histograms(emb, dataset.identities, dataset.modalities)
    return EvalReport(cmc=cmc, map=mean_ap, intra_hist=intra, inter_hist=inter)


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
    d = emb.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "modality"] + [f"e{i}" for i in range(d)])
        code = {int(Modality.VIS): "V", int(Modality.NIR): "N"}
        for i in range(len(dataset)):
            writer.writerow(
                [int(dataset.identities[i]), code[int(dataset.modalities[i])]]
                + [repr(float(v)) for v in emb[i]]
            )


def save_histogram_csv(hist: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_low", "bin_high", "count"])
        for i, c in enumerate(hist):
            writer.writerow([repr(float(HIST_BINS[i])), repr(float(HIST_BINS[i + 1])), int(c)])
