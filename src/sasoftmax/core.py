"""Shared data model: datasets, prototype matrices, loss results.

Column layout of the modality prototype matrix is fixed as visible-first:
columns [0, N) are visible prototypes, columns [N, 2N) are infrared ones.
All label arithmetic in the package relies on this layout.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import ContractViolation


class Modality(IntEnum):
    VIS = 0
    NIR = 1


_MODALITY_CODE = {Modality.VIS: "V", Modality.NIR: "N"}
_CODE_MODALITY = {"V": Modality.VIS, "N": Modality.NIR}

_NO_INDICES = np.empty(0, dtype=np.intp)
_NO_INDICES.flags.writeable = False


@dataclass(frozen=True)
class Dataset:
    """Column-oriented sample store.

    features: M x D_in, identities: length M ints in [0, N), modalities:
    length M ints (Modality values). Identity labels must be dense. The
    arrays are treated as immutable: the per-pool index table is built from
    them on first use and never rebuilt.
    """

    features: np.ndarray
    identities: np.ndarray
    modalities: np.ndarray
    num_identities: int
    input_dim: int

    def __post_init__(self):
        if self.features.shape != (len(self.identities), self.input_dim):
            raise ContractViolation("feature matrix shape mismatch")
        if len(self.identities) != len(self.modalities):
            raise ContractViolation("identity / modality length mismatch")
        if len(self.identities) and (
            self.identities.min() < 0 or self.identities.max() >= self.num_identities
        ):
            raise ContractViolation("identity labels out of range")
        if len(self.modalities) and not np.all(
            (self.modalities == Modality.VIS) | (self.modalities == Modality.NIR)
        ):
            raise ContractViolation("modality codes must be 0 (VIS) or 1 (NIR)")

    def __len__(self) -> int:
        return len(self.identities)

    @cached_property
    def _pools(self) -> list[np.ndarray]:
        """Sample indices per (identity, modality), at slot 2 * identity +
        modality, each ascending and read-only."""
        keys = 2 * np.asarray(self.identities, dtype=np.intp) + self.modalities
        order = np.argsort(keys, kind="stable")
        order.flags.writeable = False
        bounds = np.searchsorted(keys[order], np.arange(2 * self.num_identities + 1))
        return [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def indices_of(self, identity: int, modality: Modality) -> np.ndarray:
        """Read-only ascending indices of the samples of one identity in one
        modality; empty for an identity outside [0, N) or an unknown code."""
        m = int(modality)
        if 0 <= identity < self.num_identities and m in (Modality.VIS, Modality.NIR):
            return self._pools[2 * identity + m]
        return _NO_INDICES


@dataclass
class ModalityPrototypeMatrix:
    """d x 2N matrix [W^v | W^n]; column j < N is visible, j >= N infrared."""

    W: np.ndarray

    def __post_init__(self):
        if self.W.ndim != 2 or self.W.shape[1] % 2 != 0:
            raise ContractViolation("modality prototypes need an even column count")
        if not np.all(np.isfinite(self.W)):
            raise ContractViolation("prototype entries must be finite")

    @property
    def num_identities(self) -> int:
        return self.W.shape[1] // 2

    @property
    def dim(self) -> int:
        return self.W.shape[0]

    def visible(self) -> np.ndarray:
        return self.W[:, : self.num_identities]

    def infrared(self) -> np.ndarray:
        return self.W[:, self.num_identities :]


@dataclass
class IdentityPrototypeMatrix:
    """d x N matrix, one column per identity."""

    W: np.ndarray

    def __post_init__(self):
        if self.W.ndim != 2:
            raise ContractViolation("identity prototypes must be a 2-d matrix")
        if not np.all(np.isfinite(self.W)):
            raise ContractViolation("prototype entries must be finite")

    @property
    def num_identities(self) -> int:
        return self.W.shape[1]

    @property
    def dim(self) -> int:
        return self.W.shape[0]


@dataclass
class LossResult:
    """Loss value plus gradients, with absent gradients encoding routing.

    grad_embeddings / grad_prototypes are None exactly when the loss does
    not flow to that target.
    """

    value: float
    grad_embeddings: np.ndarray | None = None
    grad_prototypes: np.ndarray | None = None


def rewrite_labels(identity: int, modality: Modality, num_identities: int):
    """Spectral label rewriting: prototype-side target keeps the sample's own
    modality column, feature-side target is the cross-modality column.

    Returns (yW, yF), both in [0, 2N)."""
    if not 0 <= identity < num_identities:
        raise ContractViolation(
            f"identity {identity} out of range [0, {num_identities})"
        )
    if modality == Modality.VIS:
        return identity, identity + num_identities
    return identity + num_identities, identity


def rewrite_labels_batch(
    identities: np.ndarray, modalities: np.ndarray, num_identities: int
):
    """Vectorized rewrite_labels. Returns (yW, yF) integer arrays."""
    ids = np.asarray(identities, dtype=int)
    mods = np.asarray(modalities, dtype=int)
    if ids.size and (ids.min() < 0 or ids.max() >= num_identities):
        raise ContractViolation("identity out of range")
    own = ids + mods * num_identities
    cross = ids + (1 - mods) * num_identities
    return own, cross


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write the `id,modality,f0..` CSV format (modality coded V/N)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["id", "modality"] + [f"f{i}" for i in range(dataset.input_dim)]
        )
        for i in range(len(dataset)):
            writer.writerow(
                [int(dataset.identities[i]), _MODALITY_CODE[Modality(dataset.modalities[i])]]
                + [repr(float(v)) for v in dataset.features[i]]
            )


def load_dataset_csv(path) -> Dataset:
    """Read the `id,modality,f0..` CSV format; a malformed row raises
    ContractViolation naming `path:line`, and non-UTF-8 text one naming
    the path."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, ids, mods, rows = _read_dataset_rows(csv.reader(fh), path)
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{path} is not UTF-8 text: {exc}") from None
    dim = len(header) - 2
    if not rows:
        raise ContractViolation(f"empty dataset file {path}")
    try:
        feats = np.array(rows, dtype=float)
    except ValueError:
        raise ContractViolation(f"ragged feature rows in {path}") from None
    if feats.shape[1] != dim:
        raise ContractViolation(f"ragged feature rows in {path}")
    ids_arr = np.array(ids, dtype=int)
    return Dataset(feats, ids_arr, np.array(mods, dtype=int), int(ids_arr.max()) + 1, dim)


def _read_dataset_rows(reader, path):
    header = next(reader, [])
    if header[:2] != ["id", "modality"]:
        raise ContractViolation(f"unexpected dataset header in {path}")
    ids, mods, rows = [], [], []
    try:
        for row in reader:
            ids.append(int(row[0]))
            mods.append(int(_CODE_MODALITY[row[1]]))
            rows.append([float(v) for v in row[2:]])
    except KeyError:
        raise ContractViolation(
            f"{path}:{reader.line_num}: unknown modality code {row[1]!r}"
        ) from None
    except IndexError:
        raise ContractViolation(f"{path}:{reader.line_num}: missing id or modality") from None
    except UnicodeDecodeError:
        raise  # reported for the whole file by load_dataset_csv
    except (ValueError, csv.Error) as exc:
        raise ContractViolation(f"{path}:{reader.line_num}: {exc}") from None
    return header, ids, mods, rows
