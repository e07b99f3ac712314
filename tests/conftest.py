import csv
import io

import numpy as np
import pytest

from sasoftmax import gradcheck
from sasoftmax.core import IdentityPrototypeMatrix, ModalityPrototypeMatrix, rewrite_labels_batch


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def wrong_softmax_gradient(monkeypatch):
    """The gradient checker's analytic logit gradient G, off by 1e-3. The
    loss values and every other kernel are untouched, so exactly the five
    softmax-family rows of `check_all_losses` must fail."""
    masked_ce = gradcheck.masked_ce

    def off(*args):
        value, g = masked_ce(*args)
        return value, g + 1e-3

    monkeypatch.setattr(gradcheck, "masked_ce", off)


def random_instance(seed, b=6, d=4, n=3):
    """Random embeddings, prototype heads and rewritten labels for loss tests."""
    r = np.random.default_rng(seed)
    x = r.normal(size=(b, d))
    w_mod = ModalityPrototypeMatrix(r.normal(size=(d, 2 * n)))
    w_id = IdentityPrototypeMatrix(r.normal(size=(d, n)))
    ids = r.integers(0, n, size=b)
    mods = r.integers(0, 2, size=b)
    y_w, y_f = rewrite_labels_batch(ids, mods, n)
    return x, w_mod, w_id, ids, mods, y_w, y_f


def csv_writer_bytes(identities, modalities, values, prefix) -> bytes:
    """The `id,modality,<prefix>0..` sample CSV as csv.writer renders it,
    floats by repr: the reference for the sample writer's bytes."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["id", "modality"] + [f"{prefix}{i}" for i in range(values.shape[1])])
    for ident, mod, row in zip(identities.tolist(), modalities.tolist(), values):
        writer.writerow([ident, "VN"[mod], *map(repr, row.tolist())])
    return buf.getvalue().encode()
