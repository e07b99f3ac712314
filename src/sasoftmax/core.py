"""Shared data model: datasets, prototype matrices, label rewriting.

Column layout of the modality prototype matrix is fixed as visible-first:
columns [0, N) are visible prototypes, columns [N, 2N) are infrared ones.
All label arithmetic in the package relies on this layout.

Every artifact the package writes goes through `atomic_write`, so the
encoding, newlines, float and JSON layout are decided here once. The CPU
count and the OpenBLAS thread pin, which cmc_map's thread pool and the
job runner's processes share, are here too.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cache, cached_property
from pathlib import Path

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
    # trainer.batch_schedule's memo: the schedules drawn on these arrays, by (P, K, seed, steps)
    _schedules: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def rewrite_labels_batch(
    identities: np.ndarray, modalities: np.ndarray, num_identities: int
):
    """Spectral label rewriting over the modality prototype columns. Sample
    i of identity k keeps its own-modality column as the prototype-side
    target yW and takes the cross-modality column as the feature-side
    target yF: (k, N + k) for a visible sample, (N + k, k) for an infrared
    one. Returns (yW, yF) integer arrays in [0, 2N); an identity outside
    [0, N) raises ContractViolation."""
    ids = np.asarray(identities, dtype=int)
    mods = np.asarray(modalities, dtype=int)
    if ids.size and (ids.min() < 0 or ids.max() >= num_identities):
        raise ContractViolation("identity out of range")
    own = ids + mods * num_identities
    cross = ids + (1 - mods) * num_identities
    return own, cross


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


@cache
def _openblas():
    """(library file, get_num_threads, set_num_threads) of the OpenBLAS that
    NumPy's wheel bundles, or None where there is none. Looked up on first
    use, so importing the package loads nothing."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return lib.name, get, put
    return None


@contextmanager
def _one_blas_thread():
    """OpenBLAS held to one thread inside the block, and its thread count
    restored on every exit. Between threaded calls its worker thread spins,
    competing for the CPUs with cmc_map's threads or the job runner's
    processes, and a product's bits can depend on the thread count. Does
    nothing where no OpenBLAS is found."""
    blas = _openblas()
    if blas is None:
        yield
        return
    _, get, put = blas
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _check_bytes(what: str, nbytes: int) -> None:
    """MemoryError naming `what` when `nbytes`, counted before allocating,
    exceed what an array can address: NumPy would raise a bare ValueError."""
    if nbytes > sys.maxsize:
        raise MemoryError(f"{what} need {nbytes} bytes, more than an array can address")


@contextmanager
def atomic_write(path):
    """Text handle for writing `path`: UTF-8 with newlines untranslated, on a
    temporary file in the same directory that replaces `path` only when the
    block completes. On any error the temporary file is removed and `path`
    keeps what it held, so no file at an artifact's name is ever partial."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_json(obj, path) -> None:
    """`obj` as JSON: indent 2, sorted keys, trailing newline."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_rows_csv(rows: list[dict], path, fieldnames=None) -> None:
    """Dict rows under a header of `fieldnames` (default: the first row's
    keys), floats written by repr so they read back exactly."""
    if not rows and fieldnames is None:
        raise ContractViolation("no rows to write")
    names = list(rows[0]) if fieldnames is None else fieldnames
    with atomic_write(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=names)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def _save_samples_csv(path, identities, modalities, values: np.ndarray, prefix: str) -> None:
    """The `id,modality,<prefix>0..` CSV format: one row per sample, the
    modality coded V/N, floats written by repr."""
    # every field is an int, a modality code or a float repr, none of which
    # csv quotes, so each row is one join, in csv.writer's bytes
    header = ",".join(["id", "modality"] + [f"{prefix}{i}" for i in range(values.shape[1])])
    with atomic_write(path) as fh:
        fh.write(header + "\r\n")
        # 1,024 rows at a time, so that only a chunk is ever held as Python floats
        for lo in range(0, len(values), 1024):
            chunk = slice(lo, lo + 1024)
            fh.writelines(
                f"{ident},{_MODALITY_CODE[mod]},{','.join(map(repr, row))}\r\n"
                for ident, mod, row in zip(
                    identities[chunk].tolist(), modalities[chunk].tolist(), values[chunk].tolist()
                )
            )


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write the `id,modality,f0..` CSV format (modality coded V/N)."""
    _save_samples_csv(path, dataset.identities, dataset.modalities, dataset.features, "f")


def load_dataset_csv(path) -> Dataset:
    """Read the `id,modality,f0..` CSV format; a malformed row or a
    non-finite feature raises ContractViolation naming `path:line`, and
    non-UTF-8 text one naming the path."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, ids, mods, rows, line_nums = _read_dataset_rows(csv.reader(fh), path)
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
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        value = feats[bad][~np.isfinite(feats[bad])][0]
        raise ContractViolation(f"{path}:{line_nums[bad]}: non-finite feature {value}")
    try:
        ids_arr = np.array(ids, dtype=int)
    except OverflowError:
        raise ContractViolation(f"{path}: identity label out of range") from None
    return Dataset(feats, ids_arr, np.array(mods, dtype=int), int(ids_arr.max()) + 1, dim)


def _read_dataset_rows(reader, path):
    """(header, ids, modality codes, feature rows, each row's line number)."""
    ids, mods, rows, line_nums = [], [], [], []
    try:
        header = next(reader, [])
        if header[:2] != ["id", "modality"]:
            raise ContractViolation(f"unexpected dataset header in {path}")
        for row in reader:
            ids.append(int(row[0]))
            mods.append(int(_CODE_MODALITY[row[1]]))
            rows.append([float(v) for v in row[2:]])
            line_nums.append(reader.line_num)
    except KeyError:
        raise ContractViolation(
            f"{path}:{reader.line_num}: unknown modality code {row[1]!r}"
        ) from None
    except IndexError:
        raise ContractViolation(f"{path}:{reader.line_num}: missing id or modality") from None
    except (ContractViolation, UnicodeDecodeError):
        raise  # the header's own message; non-UTF-8 is reported for the whole file
    except (ValueError, csv.Error) as exc:
        raise ContractViolation(f"{path}:{reader.line_num}: {exc}") from None
    return header, ids, mods, rows, line_nums
