"""Loss kernels with hand-derived gradients.

All softmax-family logits are raw inner products z_ij = W_j . x_i (no L2
normalization), which matches the derivative structure used throughout the
asynchronous training protocol. Every loss is mean-reduced over the batch so
the mixing weights keep their meaning across batch sizes.

The softmax family (plain softmax, L_W, L_F and their masked forms) is one
kernel, `masked_ce`, returning dL/dlogits. `combined_loss` computes the
modality logits once, applies the chain rule itself and owns the routing
contract: L_W flows only to the modality prototypes, L_F only to the
embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IdentityPrototypeMatrix, LossResult, ModalityPrototypeMatrix
from .errors import ContractViolation, DegenerateNormError, NumericError

NORM_EPS = 1e-12


@dataclass
class CombinedLossConfig:
    """Mixing weights and mask switches for the full objective."""

    alpha: float = 0.7
    beta: float = 1.0
    use_feature_mask: bool = False
    use_weight_mask: bool = False
    squared_ast: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ContractViolation("alpha must lie in [0, 1]")
        if self.beta < 0.0:
            raise ContractViolation("beta must be non-negative")


@dataclass
class CombinedLossResult:
    value: float
    components: dict
    grad_embeddings: np.ndarray
    grad_modality_prototypes: np.ndarray | None
    grad_identity_prototypes: np.ndarray | None


def _check_labels(labels: np.ndarray, num_classes: int, name: str = "label") -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractViolation(f"{name} out of range [0, {num_classes})")
    return labels


def masked_ce(logits: np.ndarray, labels: np.ndarray, drop: np.ndarray | None = None):
    """Stabilized mean cross-entropy over the columns of `logits`, with
    column drop[i] removed from row i's softmax (numerator candidates and
    denominator). The whole softmax family is this one kernel: it differs only
    in the label and the dropped column.

    Returns (value, G) with G = dL/dlogits. G is the only B x C buffer the
    kernel allocates; every step after it runs in place.
    """
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits")
    b, c = logits.shape
    labels = _check_labels(labels, c)
    rows = np.arange(b)
    if drop is None:
        zmax = logits.max(axis=1, keepdims=True)
        g = logits - zmax
    else:
        drop = _check_labels(drop, c, "dropped column")
        if np.any(drop == labels):
            raise ContractViolation("the dropped column must differ from the label in every row")
        g = logits.copy()
        g[rows, drop] = -np.inf
        zmax = g.max(axis=1, keepdims=True)
        g -= zmax
    target = g[rows, labels]
    np.exp(g, out=g)
    denom = g.sum(axis=1, keepdims=True)
    g /= denom
    value = float(-(target - np.log(denom[:, 0])).mean())
    g[rows, labels] -= 1.0
    g /= b
    return value, g


# The objective's softmax terms, each the one kernel at its label and
# dropped column. They add no computation: they exist so the benchmark's
# per-layer spans (losses.<name>.self_s) still see each term by name.
def softmax_ce(logits, labels):
    return masked_ce(logits, labels)


def sas_w_loss(logits, y_w):
    return masked_ce(logits, y_w)


def sas_w_loss_weight_masked(logits, y_w, y_f):
    return masked_ce(logits, y_w, y_f)


def sas_f_loss(logits, y_f, y_w=None):
    return masked_ce(logits, y_f, y_w)


def _safe_norms(x: np.ndarray, axis: int, what: str) -> np.ndarray:
    norms = np.linalg.norm(x, axis=axis)
    if np.any(norms < NORM_EPS):
        raise DegenerateNormError(f"near-zero norm in {what}")
    return norms


def ast_loss(
    embeddings: np.ndarray,
    prototypes: ModalityPrototypeMatrix,
    y_f: np.ndarray,
    squared: bool = False,
) -> LossResult:
    """Absolute-similarity penalty: mean of (1 - cos) between each embedding
    and its cross-modality target column. `squared` switches to (1 - cos)^2.
    """
    w = prototypes.W
    y_f = _check_labels(y_f, w.shape[1], "yF")
    b = embeddings.shape[0]
    targets = w[:, y_f].T  # B x d
    xn = _safe_norms(embeddings, 1, "embeddings")
    wn = _safe_norms(targets, 1, "target prototypes")
    dots = np.einsum("ij,ij->i", embeddings, targets)
    cos = dots / (xn * wn)
    per = 1.0 - cos
    # d cos / dx_i = W/( |W||x| ) - cos * x / |x|^2
    dcos_dx = targets / (xn * wn)[:, None] - cos[:, None] * embeddings / (xn**2)[:, None]
    if squared:
        value = float(np.mean(per**2))
        grad = (-2.0 * per)[:, None] * dcos_dx / b
    else:
        value = float(np.mean(per))
        grad = -dcos_dx / b
    return LossResult(value=value, grad_embeddings=grad)


def _cosine_backprop(dcos, cos, xhat, what, xn, wn):
    """Chain dL/dcos through cos_ij = xhat_i . what_j, with xhat = x / |x|
    and what = w / |w|, to the raw embeddings and prototype columns."""
    row_dot = np.einsum("ij,ij->i", dcos, cos)
    grad_x = (dcos @ what.T - row_dot[:, None] * xhat) / xn[:, None]
    col_dot = np.einsum("ij,ij->j", dcos, cos)
    grad_w = (xhat.T @ dcos - what * col_dot[None, :]) / wn[None, :]
    return grad_x, grad_w


def am_softmax_loss(
    embeddings: np.ndarray,
    prototypes: IdentityPrototypeMatrix,
    labels: np.ndarray,
    margin: float = 0.3,
    scale: float = 15.0,
) -> LossResult:
    """Additive-margin softmax on L2-normalized logits: s * (cos - m) at the
    target class, s * cos elsewhere. Gradients flow to both targets through
    the normalization.
    """
    if margin < 0.0 or scale <= 0.0:
        raise ContractViolation("require margin >= 0 and scale > 0")
    w = prototypes.W
    labels = _check_labels(labels, w.shape[1])
    b = embeddings.shape[0]
    xn = _safe_norms(embeddings, 1, "embeddings")
    wn = _safe_norms(w, 0, "prototype columns")
    xhat = embeddings / xn[:, None]
    what = w / wn[None, :]
    cos = xhat @ what
    logits = scale * cos
    logits[np.arange(b), labels] -= scale * margin
    value, g = masked_ce(logits, labels)
    g *= scale  # dL/dcos
    grad_x, grad_w = _cosine_backprop(g, cos, xhat, what, xn, wn)
    return LossResult(value=value, grad_embeddings=grad_x, grad_prototypes=grad_w)


def circle_loss(
    embeddings: np.ndarray,
    prototypes: IdentityPrototypeMatrix,
    labels: np.ndarray,
    gamma: float = 32.0,
    margin: float = 0.25,
) -> LossResult:
    """Classification-form circle loss on cosine similarities.

    Per sample: sp = cos to the own column, sn_j = cos to every other column;
    ap = relu(1 + m - sp), an = relu(sn + m); loss =
    log(1 + sum_j exp(gamma * an_j * (sn_j - m)) * exp(-gamma * ap * (sp - (1 - m)))).
    The gradient differentiates the full expression (relu weights included),
    with subgradient zero at clipped terms.
    """
    if gamma <= 0.0:
        raise ContractViolation("gamma must be positive")
    w = prototypes.W
    if w.shape[1] < 2:
        raise ContractViolation("circle loss needs at least 2 classes")
    labels = _check_labels(labels, w.shape[1])
    b, n = embeddings.shape[0], w.shape[1]
    xn = _safe_norms(embeddings, 1, "embeddings")
    wn = _safe_norms(w, 0, "prototype columns")
    xhat = embeddings / xn[:, None]
    what = w / wn[None, :]
    cos = xhat @ what
    rows = np.arange(b)
    op, on = 1.0 + margin, -margin
    dp, dn = 1.0 - margin, margin

    sp = cos[rows, labels]
    ap = np.maximum(op - sp, 0.0)
    logit_p = -gamma * ap * (sp - dp)

    neg_mask = np.ones((b, n), dtype=bool)
    neg_mask[rows, labels] = False
    an = np.maximum(cos - on, 0.0)
    logit_n = gamma * an * (cos - dn)
    logit_n = np.where(neg_mask, logit_n, -np.inf)
    mx = logit_n.max(axis=1)
    lse_n = mx + np.log(np.exp(logit_n - mx[:, None]).sum(axis=1))

    z = logit_p + lse_n
    value = float(np.mean(np.logaddexp(0.0, z)))

    with np.errstate(over="ignore", invalid="ignore"):
        sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    soft_n = np.exp(logit_n - lse_n[:, None])  # d lse_n / d logit_n
    # d logit_n / d sn and d logit_p / d sp, relu kinks handled by indicator
    dlogit_n = gamma * ((cos > on) * (cos - dn) + an)
    dlogit_p = gamma * ((ap > 0.0) * (sp - dp) - ap)
    dcos = soft_n * dlogit_n * sig[:, None] / b
    dcos[rows, labels] = sig * dlogit_p / b
    grad_x, grad_w = _cosine_backprop(dcos, cos, xhat, what, xn, wn)
    return LossResult(value=value, grad_embeddings=grad_x, grad_prototypes=grad_w)


def combined_loss(
    embeddings: np.ndarray,
    modality_prototypes: ModalityPrototypeMatrix,
    identity_prototypes: IdentityPrototypeMatrix,
    identities: np.ndarray,
    modalities: np.ndarray,
    config: CombinedLossConfig,
) -> CombinedLossResult:
    """Full objective: alpha * (L_W + L_F) + (1 - alpha) * L_softmax + beta * L_AST.

    Routing contract: the prototype-side term is the only contributor to the
    modality-prototype gradient; the softmax term is the only contributor to
    the identity-prototype gradient; everything else flows to the embeddings.
    """
    from .core import rewrite_labels_batch

    n = modality_prototypes.num_identities
    y_w, y_f = rewrite_labels_batch(identities, modalities, n)
    a, bta = config.alpha, config.beta
    grad_emb = np.zeros_like(embeddings)
    components: dict = {"loss_w": 0.0, "loss_f": 0.0, "loss_softmax": 0.0, "loss_ast": 0.0}
    grad_mod = None
    grad_id = None

    if a > 0.0:
        w = modality_prototypes.W
        logits = embeddings @ w
        # L_W (label yW) flows only to the prototypes, L_F (label yF) only to
        # the embeddings; each mask drops the other term's label column
        if config.use_weight_mask:
            components["loss_w"], g = sas_w_loss_weight_masked(logits, y_w, y_f)
        else:
            components["loss_w"], g = sas_w_loss(logits, y_w)
        grad_mod = a * (embeddings.T @ g)
        components["loss_f"], g = sas_f_loss(logits, y_f, y_w if config.use_feature_mask else None)
        grad_emb += a * (g @ w.T)
    if a < 1.0:
        w = identity_prototypes.W
        components["loss_softmax"], g = softmax_ce(embeddings @ w, identities)
        grad_id = (1.0 - a) * (embeddings.T @ g)
        grad_emb += (1.0 - a) * (g @ w.T)
    if bta > 0.0:
        a_res = ast_loss(embeddings, modality_prototypes, y_f, squared=config.squared_ast)
        components["loss_ast"] = a_res.value
        grad_emb += bta * a_res.grad_embeddings

    value = (
        a * (components["loss_w"] + components["loss_f"])
        + (1.0 - a) * components["loss_softmax"]
        + bta * components["loss_ast"]
    )
    return CombinedLossResult(
        value=float(value),
        components=components,
        grad_embeddings=grad_emb,
        grad_modality_prototypes=grad_mod,
        grad_identity_prototypes=grad_id,
    )


def theta_derivative_probe(theta_i: float, theta_j: float, s: float):
    """Two-class angular analysis probe.

    Returns (dL/dtheta_i, d^2L/dtheta_i dtheta_j) for
    L = -log(e^{s cos theta_i} / (e^{s cos theta_i} + e^{s cos theta_j})).
    Used to check that the pull on theta_i weakens as theta_j grows.
    """
    if not (0.0 < theta_i < np.pi and 0.0 < theta_j < np.pi):
        raise ContractViolation("angles must lie strictly inside (0, pi)")
    if s <= 0.0:
        raise ContractViolation("s must be positive")
    ei = np.exp(s * np.cos(theta_i))
    ej = np.exp(s * np.cos(theta_j))
    denom = ei + ej
    d1 = s * np.sin(theta_i) * ej / denom
    d2 = -(s**2) * np.sin(theta_i) * np.sin(theta_j) * ei * ej / denom**2
    return float(d1), float(d2)
