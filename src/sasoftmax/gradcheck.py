"""Central finite-difference verification of every analytic gradient.

The checker compares each loss's hand-derived gradient against a central
difference (h = 1e-5) on random small instances and reports one row per
(loss, seed). Relative error is measured as ||a - f|| / max(||a||, ||f||, h).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import IdentityPrototypeMatrix, ModalityPrototypeMatrix, rewrite_labels_batch
from .encoder import encoder_backward, encoder_forward, init_encoder
from .losses import (
    am_softmax_loss,
    ast_loss,
    circle_loss,
    combined_loss,
    masked_ce,
    CombinedLossConfig,
)

FD_STEP = 1e-5


def central_difference(fn, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = fn(x)
        x[idx] = orig - h
        fm = fn(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), FD_STEP)
    return float(np.linalg.norm(analytic - numeric) / denom)


def _random_instance(seed: int, b: int = 6, d: int = 4, n: int = 3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, d))
    w_mod = rng.normal(size=(d, 2 * n))
    w_id = rng.normal(size=(d, n))
    ids = rng.integers(0, n, size=b)
    mods = rng.integers(0, 2, size=b)
    y_w, y_f = rewrite_labels_batch(ids, mods, n)
    return x, w_mod, w_id, ids, mods, y_w, y_f


def feature_routed_value(emb, w_mod, w_id, ids, mods, cfg) -> float:
    """The part of the combined objective whose gradient flows to the
    embeddings: alpha * L_F + (1 - alpha) * L_softmax + beta * L_AST."""
    res = combined_loss(emb, w_mod, w_id, ids, mods, cfg)
    c = res.components
    return (
        cfg.alpha * c["loss_f"]
        + (1.0 - cfg.alpha) * c["loss_softmax"]
        + cfg.beta * c["loss_ast"]
    )


@dataclass
class CheckRow:
    loss: str
    seed: int
    target: str
    rel_error: float
    passed: bool


def _check_pair(name, seed, rows, tol, x, analytic_x, analytic_w, value_fn_x, value_fn_w, w, corrupt=False):
    if analytic_x is not None:
        a = analytic_x + (1e-3 if corrupt else 0.0)
        err = relative_error(a, central_difference(value_fn_x, x))
        rows.append(CheckRow(name, seed, "embeddings", err, err <= tol))
    if analytic_w is not None:
        a = analytic_w + (1e-3 if corrupt else 0.0)
        err = relative_error(a, central_difference(value_fn_w, w))
        rows.append(CheckRow(name, seed, "prototypes", err, err <= tol))


def check_all_losses(seeds, tolerance: float = 1e-6, corrupt: bool = False) -> list[CheckRow]:
    """FD-check every loss on one random instance per seed.

    `corrupt` deliberately perturbs the analytic gradients; it exists so the
    harness can prove the check reports failures.
    """
    rows: list[CheckRow] = []
    for seed in seeds:
        x, w_mod, w_id, ids, mods, y_w, y_f = _random_instance(seed)

        # the softmax family is one kernel on the logits x @ W, told apart by
        # its label, its dropped column and the targets its gradient reaches
        for name, w, labels, drop, to_x, to_w in (
            ("softmax_ce", w_id, ids, None, True, True),
            ("sas_w_loss", w_mod, y_w, None, False, True),
            ("sas_f_loss[unmasked]", w_mod, y_f, None, True, False),
            ("sas_f_loss[masked]", w_mod, y_f, y_w, True, False),
            ("sas_w_loss_weight_masked", w_mod, y_w, y_f, False, True),
        ):
            _, g = masked_ce(x @ w, labels, drop)
            _check_pair(
                name, seed, rows, tolerance, x,
                g @ w.T if to_x else None, x.T @ g if to_w else None,
                lambda a: masked_ce(a @ w, labels, drop)[0],
                lambda a: masked_ce(x @ a, labels, drop)[0],
                w, corrupt,
            )

        res = ast_loss(x, ModalityPrototypeMatrix(w_mod), y_f)
        _check_pair(
            "ast_loss", seed, rows, tolerance, x,
            res.grad_embeddings, None,
            lambda a: ast_loss(a, ModalityPrototypeMatrix(w_mod), y_f).value,
            None, None, corrupt,
        )

        res = am_softmax_loss(x, IdentityPrototypeMatrix(w_id), ids)
        _check_pair(
            "am_softmax_loss", seed, rows, tolerance, x,
            res.grad_embeddings, res.grad_prototypes,
            lambda a: am_softmax_loss(a, IdentityPrototypeMatrix(w_id), ids).value,
            lambda a: am_softmax_loss(x, IdentityPrototypeMatrix(a), ids).value,
            w_id, corrupt,
        )

        res = circle_loss(x, IdentityPrototypeMatrix(w_id), ids)
        _check_pair(
            "circle_loss", seed, rows, tolerance, x,
            res.grad_embeddings, res.grad_prototypes,
            lambda a: circle_loss(a, IdentityPrototypeMatrix(w_id), ids).value,
            lambda a: circle_loss(x, IdentityPrototypeMatrix(a), ids).value,
            w_id, corrupt,
        )

        # the prototype-side term is routed away from the embeddings, so the
        # FD target is the feature-routed portion of the objective
        cfg = CombinedLossConfig(alpha=0.7, beta=1.0, use_feature_mask=True)
        res = combined_loss(x, ModalityPrototypeMatrix(w_mod), IdentityPrototypeMatrix(w_id), ids, mods, cfg)
        err = relative_error(
            res.grad_embeddings + (1e-3 if corrupt else 0.0),
            central_difference(
                lambda a: feature_routed_value(
                    a, ModalityPrototypeMatrix(w_mod), IdentityPrototypeMatrix(w_id), ids, mods, cfg
                ),
                x,
            ),
        )
        rows.append(CheckRow("combined_loss", seed, "embeddings", err, err <= tolerance))

    return rows


def check_pipeline(seeds, tolerance: float = 1e-5, corrupt: bool = False) -> list[CheckRow]:
    """FD-check encoder parameter gradients through the composed map
    combined_loss(encoder(inputs))."""
    rows: list[CheckRow] = []
    for seed in seeds:
        b, d_in, d, n = 5, 4, 3, 3
        # resample (deterministically) if a dead rectifier row yields an
        # all-zero embedding, which the cosine-based term rightly rejects
        for salt in range(100):
            rng = np.random.default_rng(seed + 10_000 + salt * 1_000_000)
            params = init_encoder([d_in, 5, d], seed + salt * 1_000_000)
            x_in = rng.normal(size=(b, d_in))
            probe_emb, _ = encoder_forward(params, x_in)
            if np.linalg.norm(probe_emb, axis=1).min() > 1e-6:
                break
        w_mod = rng.normal(size=(d, 2 * n))
        w_id = rng.normal(size=(d, n))
        ids = rng.integers(0, n, size=b)
        mods = rng.integers(0, 2, size=b)
        cfg = CombinedLossConfig(alpha=0.7, beta=1.0, use_feature_mask=True)

        def loss_of_params() -> float:
            emb, _ = encoder_forward(params, x_in)
            return feature_routed_value(
                emb, ModalityPrototypeMatrix(w_mod), IdentityPrototypeMatrix(w_id), ids, mods, cfg
            )

        emb, cache = encoder_forward(params, x_in)
        res = combined_loss(
            emb, ModalityPrototypeMatrix(w_mod), IdentityPrototypeMatrix(w_id), ids, mods, cfg
        )
        grad_w, grad_b = encoder_backward(params, cache, res.grad_embeddings)
        for l, (gw, gb) in enumerate(zip(grad_w, grad_b)):
            for tag, arr, analytic in ((f"W{l}", params.weights[l], gw), (f"b{l}", params.biases[l], gb)):
                numeric = central_difference(lambda _a: loss_of_params(), arr)
                err = relative_error(analytic + (1e-3 if corrupt else 0.0), numeric)
                rows.append(CheckRow("encoder_pipeline", seed, tag, err, err <= tolerance))
    return rows


def save_rows_csv(rows: list[CheckRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["loss", "seed", "target", "rel_error", "passed"])
        for r in rows:
            writer.writerow([r.loss, r.seed, r.target, repr(r.rel_error), int(r.passed)])
