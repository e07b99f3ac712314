"""Executable versions of the analytic claims behind the loss design:

- the synchronous-softmax failure mode (a training-consistent configuration
  that still retrieves the wrong identity across modalities),
- the ambiguity that the feature mask removes (a loss-decreasing step that
  pushes an intra-identity cross-modality pair apart),
- the sign structure of the two-class angular derivative probe.

All witnesses are self-verifying: reports embed the raw vectors together
with the recomputed inequalities.
"""

from __future__ import annotations

import numpy as np

from .core import rewrite_labels_batch
from .errors import SearchBudgetExhausted
from .losses import masked_ce, theta_derivative_probe

EQ3_THETA_GRID = [round(0.2 * i, 10) for i in range(1, 15)]  # 0.2 .. 2.8
EQ3_SCALE_GRID = [1.0, 8.0, 16.0]


def _cos(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def verify_failure_witness(witness: dict) -> dict:
    """Recompute the four inequalities from the raw vectors in a witness."""
    v1 = np.array(witness["v1"])
    n1 = np.array(witness["n1"])
    n2 = np.array(witness["n2"])
    w1 = np.array(witness["W1"])
    w2 = np.array(witness["W2"])
    checks = {
        "v1_prefers_W1": _cos(v1, w1) > _cos(v1, w2),
        "n1_prefers_W1": _cos(n1, w1) > _cos(n1, w2),
        "n2_prefers_W2": _cos(n2, w2) > _cos(n2, w1),
        "retrieval_fails": _cos(v1, n2) > _cos(v1, n1),
    }
    checks["all_hold"] = all(checks.values())
    return checks


def check_softmax_failure_mode(seed: int = 0, budget: int = 1_000_000) -> dict:
    """Random search in the plane for a configuration where both identities
    are correctly classified against their prototypes yet cross-modality
    retrieval fails.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(budget):
        vecs = rng.normal(size=(5, 2))
        v1, n1, n2, w1, w2 = vecs
        witness = {
            "v1": v1.tolist(),
            "n1": n1.tolist(),
            "n2": n2.tolist(),
            "W1": w1.tolist(),
            "W2": w2.tolist(),
        }
        checks = verify_failure_witness(witness)
        if checks["all_hold"]:
            return {
                "found": True,
                "attempts": attempt + 1,
                "seed": seed,
                "witness": witness,
                "checks": checks,
                "cosines": {
                    "v1_n1": _cos(v1, n1),
                    "v1_n2": _cos(v1, n2),
                },
            }
    raise SearchBudgetExhausted(
        f"no failure witness within {budget} attempts (seed {seed}); raise the budget"
    )


def check_fm_ambiguity(seeds) -> dict:
    """Compare one unmasked vs masked feature-side gradient step on a
    two-identity instance holding one visible and one infrared sample of
    identity 0.

    For each seed, reports whether the UNMASKED step increased the pair
    distance while decreasing the loss (the ambiguous case), and verifies the
    masked gradient carries exactly zero weight on the own-modality column.
    """
    results = []
    n = 2
    step_size = 0.5
    for seed in seeds:
        rng = np.random.default_rng(seed)
        d = 3
        w = rng.normal(size=(d, 2 * n))  # [visible | infrared] prototypes
        x = rng.normal(size=(2, d))
        ids = np.array([0, 0])
        mods = np.array([0, 1])  # one VIS, one NIR
        y_w, y_f = rewrite_labels_batch(ids, mods, n)

        loss_u, g_u = masked_ce(x @ w, y_f)
        _, g_m = masked_ce(x @ w, y_f, drop=y_w)
        # masked coefficient on the own-modality column must vanish exactly
        masked_own_weight = float(np.abs(g_m[np.arange(2), y_w]).max())

        x_after = x - step_size * (g_u @ w.T)
        d1 = float(np.linalg.norm(x[0] - x[1]))
        d2 = float(np.linalg.norm(x_after[0] - x_after[1]))
        loss_after = masked_ce(x_after @ w, y_f)[0]
        results.append(
            {
                "seed": int(seed),
                "pair_distance_before": d1,
                "pair_distance_after": d2,
                "loss_before": loss_u,
                "loss_after": loss_after,
                "ambiguous": d2 > d1 and loss_after < loss_u,
                "masked_own_column_weight": masked_own_weight,
            }
        )
    return {
        "step_size": step_size,
        "per_seed": results,
        "num_ambiguous": sum(r["ambiguous"] for r in results),
    }


def check_eq3_grid():
    """Evaluate the angular probe over the declared grid; both derivative
    signs must be strict everywhere. Returns (rows, all_signs_ok)."""
    rows = []
    ok = True
    for s in EQ3_SCALE_GRID:
        for ti in EQ3_THETA_GRID:
            for tj in EQ3_THETA_GRID:
                d1, d2 = theta_derivative_probe(ti, tj, s)
                good = d1 > 0.0 and d2 < 0.0
                ok = ok and good
                rows.append(
                    {
                        "s": s,
                        "theta_i": ti,
                        "theta_j": tj,
                        "d_loss_d_theta_i": d1,
                        "d2_loss_d_theta_i_d_theta_j": d2,
                        "signs_ok": good,
                    }
                )
    return rows, ok

