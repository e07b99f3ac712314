"""Central finite-difference verification of every analytic gradient.

The checker compares each loss's hand-derived gradient against a central
difference (h = 1e-5) on random small instances and reports one row per
(loss, seed). Relative error is measured as ||a - f|| / max(||a||, ||f||, h).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import core
from .core import IdentityPrototypeMatrix, ModalityPrototypeMatrix, rewrite_labels_batch
from .encoder import encoder_backward, encoder_forward, init_encoder
from .losses import (
    am_softmax_loss,
    ast_loss,
    circle_loss,
    combined_loss,
    masked_ce,
)
from .trainer import TrainConfig

FD_STEP = 1e-5


def central_difference(fn, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + FD_STEP
        fp = fn(x)
        x[idx] = orig - FD_STEP
        fm = fn(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * FD_STEP)
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


def _check_pair(name, seed, rows, tol, x, analytic_x, analytic_w, value_fn_x, value_fn_w, w):
    if analytic_x is not None:
        err = relative_error(analytic_x, central_difference(value_fn_x, x))
        rows.append(CheckRow(name, seed, "embeddings", err, err <= tol))
    if analytic_w is not None:
        err = relative_error(analytic_w, central_difference(value_fn_w, w))
        rows.append(CheckRow(name, seed, "prototypes", err, err <= tol))


def check_all_losses(seeds, tolerance: float) -> list[CheckRow]:
    """FD-check every loss on one random instance per seed."""
    rows: list[CheckRow] = []
    d = TrainConfig()  # the head-only losses at training's default hyper-parameters
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
                w,
            )

        _, grad_x = ast_loss(x, ModalityPrototypeMatrix(w_mod), y_f)
        _check_pair(
            "ast_loss", seed, rows, tolerance, x,
            grad_x, None,
            lambda a: ast_loss(a, ModalityPrototypeMatrix(w_mod), y_f)[0],
            None, None,
        )

        for name, loss, hyper in (("am_softmax_loss", am_softmax_loss, (d.am_margin, d.am_scale)),
                                  ("circle_loss", circle_loss, (d.circle_gamma, d.circle_margin))):
            res = loss(x, IdentityPrototypeMatrix(w_id), ids, *hyper)
            _check_pair(
                name, seed, rows, tolerance, x,
                res.grad_embeddings, res.grad_identity_prototypes,
                lambda a: loss(a, IdentityPrototypeMatrix(w_id), ids, *hyper).value,
                lambda a: loss(x, IdentityPrototypeMatrix(a), ids, *hyper).value,
                w_id,
            )

        # the prototype-side term is routed away from the embeddings, so the
        # FD target is the feature-routed portion of the objective
        cfg = TrainConfig(variant="SAS_FM_AST").loss_config()
        res = combined_loss(x, ModalityPrototypeMatrix(w_mod), IdentityPrototypeMatrix(w_id), ids, mods, cfg)
        _check_pair(
            "combined_loss", seed, rows, tolerance, x,
            res.grad_embeddings, None,
            lambda a: feature_routed_value(
                a, ModalityPrototypeMatrix(w_mod), IdentityPrototypeMatrix(w_id), ids, mods, cfg
            ),
            None, None,
        )

    return rows


def check_pipeline(seeds, tolerance: float) -> list[CheckRow]:
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
        cfg = TrainConfig(variant="SAS_FM_AST").loss_config()

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
                err = relative_error(analytic, numeric)
                rows.append(CheckRow("encoder_pipeline", seed, tag, err, err <= tolerance))
    return rows


def save_rows_csv(rows: list[CheckRow], path) -> None:
    core.save_rows_csv([{**asdict(r), "passed": int(r.passed)} for r in rows], path)
