"""Synthetic two-modality data: generation, identity-disjoint splitting and
PK batch sampling.

Each identity k gets a unit center c_k and a unit offset u_k; visible samples
sit at c_k + (gap/2) u_k and infrared ones at c_k - (gap/2) u_k, plus Gaussian
noise. Per-identity offsets keep the modality structure from being removable
by one linear projection; `shared_offset` switches to a single global
direction for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Modality, _check_bytes
from .errors import ContractViolation


@dataclass
class SynthConfig:
    num_identities: int = 60
    samples_per_identity_per_modality: int = 20
    input_dim: int = 32
    modality_gap: float = 1.2
    noise_sigma: float = 0.25
    seed: int = 1
    shared_offset: bool = False

    def __post_init__(self):
        if (
            self.num_identities <= 0
            or self.samples_per_identity_per_modality <= 0
            or self.input_dim <= 0
        ):
            raise ContractViolation("counts must be positive")
        if self.seed < 0:
            raise ContractViolation(f"seed must be non-negative, got {self.seed}")
        for name in ("modality_gap", "noise_sigma"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ContractViolation(f"{name} must be finite and non-negative, got {value}")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generate_synthetic(config: SynthConfig) -> Dataset:
    n, k, dim = (
        config.num_identities,
        config.samples_per_identity_per_modality,
        config.input_dim,
    )
    _check_bytes(
        f"num_identities x 2 x samples_per_identity_per_modality x input_dim = "
        f"{n} x 2 x {k} x {dim} features",
        n * 2 * k * dim * np.dtype(float).itemsize,
    )
    rng = np.random.default_rng(config.seed)
    centers = rng.normal(size=(n, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    if config.shared_offset:
        offsets = np.tile(_unit(rng.normal(size=dim)), (n, 1))
    else:
        offsets = rng.normal(size=(n, dim))
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)

    half = 0.5 * config.modality_gap
    feats, ids, mods = [], [], []
    for ident in range(n):
        for mod, sign in ((Modality.VIS, +1.0), (Modality.NIR, -1.0)):
            mean = centers[ident] + sign * half * offsets[ident]
            # at noise_sigma 0 each draw is +0.0, which leaves the mean's bits
            feats.append(mean + rng.normal(0.0, config.noise_sigma, size=(k, dim)))
            ids.extend([ident] * k)
            mods.extend([int(mod)] * k)
    return Dataset(
        np.concatenate(feats), np.array(ids), np.array(mods), n, dim
    )


def split_by_identity(dataset: Dataset, train_fraction: float, seed: int):
    """Identity-disjoint split with labels re-densified inside each part."""
    if dataset.num_identities < 2:
        raise ContractViolation("need at least 2 identities to split")
    if not 0.0 < train_fraction < 1.0:
        raise ContractViolation("train_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.num_identities)
    n_train = round(train_fraction * dataset.num_identities)
    if n_train == 0 or n_train == dataset.num_identities:
        raise ContractViolation("split would leave one side empty")
    train_ids = set(perm[:n_train].tolist())

    def subset(keep: set[int]) -> Dataset:
        mask = np.isin(dataset.identities, list(keep))
        remap = {old: new for new, old in enumerate(sorted(keep))}
        ids = np.array([remap[i] for i in dataset.identities[mask]])
        return Dataset(
            dataset.features[mask],
            ids,
            dataset.modalities[mask],
            len(keep),
            dataset.input_dim,
        )

    test_ids = set(range(dataset.num_identities)) - train_ids
    return subset(train_ids), subset(test_ids)


def pk_sample(dataset: Dataset, p: int, k: int, seed: int) -> np.ndarray:
    """Indices for one PK batch: p identities, k samples per modality each.

    Identities short on samples are drawn with replacement. The seed is
    consumed per call so parallel runs stay deterministic.
    """
    if p > dataset.num_identities:
        raise ContractViolation("P exceeds the number of identities")
    if p <= 0 or k <= 0:
        raise ContractViolation("P and K must be positive")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(dataset.num_identities, size=p, replace=False)
    out = []
    for ident in chosen:
        for mod in (Modality.VIS, Modality.NIR):
            pool = dataset.indices_of(int(ident), mod)
            if len(pool) == 0:
                raise ContractViolation(
                    f"identity {ident} has no samples of modality {mod.name}"
                )
            replace = len(pool) < k
            out.append(rng.choice(pool, size=k, replace=replace))
    return np.concatenate(out)

