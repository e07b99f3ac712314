"""Loss kernels with hand-derived gradients.

All softmax-family logits are raw inner products z_ij = W_j . x_i (no L2
normalization), which matches the derivative structure used throughout the
asynchronous training protocol. Every loss is mean-reduced over the batch so
the mixing weights keep their meaning across batch sizes.

The softmax family (plain softmax, L_W, L_F and their masked forms) is one
kernel, `masked_ce`, returning (value, dL/dlogits); the AST term,
`ast_loss`, returns (value, dL/dembeddings). `combined_loss` computes the
modality logits once, applies the chain rule itself and owns the routing
contract: L_W flows only to the modality prototypes, L_F only to the
embeddings. The objectives a training step runs (`combined_loss` and the
identity-head-only `am_softmax_loss` and `circle_loss`) each return one
`LossResult`.

Its B x C arrays live in a `LossWorkspace`: the modality head's logits and
L_W's G = dL/dlogits, and the identity head's logits, over which each head's
last term (L_F, L_softmax) writes its G. `trainer.train` owns one workspace
per run and hands it to every step, so the buffers are allocated once per
run (again only if B or C changes), not per call: at wide scale each would
otherwise be a fresh, page-faulted mapping. A call without a workspace uses
a throwaway one. No view into the workspace escapes in what a call returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IdentityPrototypeMatrix, ModalityPrototypeMatrix, rewrite_labels_batch
from .core import _checked_norms
from .errors import ContractViolation, NumericError

_FLOAT64 = np.dtype(np.float64)


@dataclass
class CombinedLossConfig:
    """Mixing weights and mask switches for the full objective; the owner of the weights' ranges."""

    alpha: float = 0.7
    beta: float = 1.0
    use_feature_mask: bool = False
    use_weight_mask: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ContractViolation(f"alpha must lie in [0, 1], got {self.alpha}")
        if not math.isfinite(self.beta):
            raise ContractViolation(f"beta must be finite, got {self.beta}")
        if self.beta < 0.0:
            raise ContractViolation(f"beta must be non-negative, got {self.beta}")


@dataclass
class LossResult:
    """An objective's value, its terms' values by train-log name, and its
    gradients; a prototype gradient is None exactly when the objective does
    not flow to that head. The identity-head-only objectives report their
    value as the one term loss_softmax."""

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


def _check_finite_logits(logits: np.ndarray) -> None:
    """NumericError if any logit is NaN or infinite. Their sum is finite
    exactly when none is, unless finite logits overflow it; only then are
    they checked one by one, so the check holds no B x C temporary."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = logits.sum()
    if not np.isfinite(total) and not np.isfinite(logits).all():
        raise NumericError("non-finite logits")


def masked_ce(
    logits: np.ndarray,
    labels: np.ndarray,
    drop: np.ndarray | None = None,
    out: np.ndarray | None = None,
    checked: bool = False,
):
    """Stabilized mean cross-entropy over the columns of `logits`, with
    column drop[i] removed from row i's softmax (numerator candidates and
    denominator). The whole softmax family is this one kernel: it differs only
    in the label and the dropped column.

    Returns (value, G) with G = dL/dlogits, written into `out` when given: a
    C-contiguous float64 array of the logits' shape, apart from them or the
    logits themselves. The kernel then allocates no B x C array; without
    `out`, G is the only one. Every step after G's first write runs in place.
    A NaN or infinite logit, or a label or dropped column that is out of range
    or equal in a row, raises, unless `checked` says the caller ruled them out.
    """
    b, c = logits.shape
    if not checked:
        _check_finite_logits(logits)
        labels = _check_labels(labels, c)
        drop = None if drop is None else _check_labels(drop, c, "dropped column")
        if drop is not None and np.any(drop == labels):
            raise ContractViolation("the dropped column must differ from the label in every row")
    if out is not None and not (
        isinstance(out, np.ndarray)
        and out.dtype == _FLOAT64
        and out.shape == logits.shape
        and out.flags.c_contiguous
        and (out is logits or not np.may_share_memory(out, logits))
    ):
        raise ContractViolation(
            f"out must be a C-contiguous float64 array of the logits' shape {logits.shape}"
            " that is them or shares no memory with them"
        )
    rows = np.arange(b)
    if drop is None:
        zmax = logits.max(axis=1, keepdims=True)
        g = np.subtract(logits, zmax, out=out)
    else:
        g = logits.copy() if out is None else out
        if out is not None and out is not logits:
            np.copyto(g, logits)
        g[rows, drop] = -np.inf
        zmax = g.max(axis=1, keepdims=True)
        g -= zmax
    target = g[rows, labels]
    np.exp(g, out=g)
    denom = g.sum(axis=1, keepdims=True)
    g /= denom
    value = float(-(target - np.log(denom[:, 0])).mean())
    g[rows, labels] -= 1.0
    if b & (b - 1) == 0:
        # 1/b is exact, so the product rounds the real x / b: the same bits
        g *= 1.0 / b
    else:
        g /= b
    return value, g


# The objective's softmax terms, each the one kernel at its label and
# dropped column. They add no computation: they exist so the benchmark's
# per-layer spans (losses.<name>.self_s) still see each term by name.
def softmax_ce(logits, labels, out=None, checked=False):
    return masked_ce(logits, labels, None, out, checked)


def sas_w_loss(logits, y_w, out=None, checked=False):
    return masked_ce(logits, y_w, None, out, checked)


def sas_w_loss_weight_masked(logits, y_w, y_f, out=None, checked=False):
    return masked_ce(logits, y_w, y_f, out, checked)


def sas_f_loss(logits, y_f, y_w=None, out=None, checked=False):
    return masked_ce(logits, y_f, y_w, out, checked)


class LossWorkspace:
    """The B x C buffers of `combined_loss`, by name. The caller owns it and
    passes it to consecutive calls; each call overwrites the buffers it uses,
    and nothing it returns refers to them."""

    __slots__ = ("buffers",)

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def buffer(self, name: str, shape: tuple) -> np.ndarray:
        """The buffer `name`, reallocated only when its shape changes."""
        if name not in self.buffers or self.buffers[name].shape != shape:
            self.buffers[name] = np.empty(shape)
        return self.buffers[name]


def ast_loss(embeddings: np.ndarray, prototypes: ModalityPrototypeMatrix, y_f: np.ndarray):
    """Absolute-similarity penalty: mean of (1 - cos) between each embedding
    and its cross-modality target column. Returns (value, dL/dembeddings);
    the term does not flow to the prototypes."""
    w = prototypes.W
    y_f = _check_labels(y_f, w.shape[1], "yF")
    b = embeddings.shape[0]
    targets = w[:, y_f].T  # B x d
    xn = _checked_norms(embeddings, 1, "embeddings")
    wn = _checked_norms(targets, 1, "target prototypes")
    dots = np.einsum("ij,ij->i", embeddings, targets)
    cos = dots / (xn * wn)
    # d cos / dx_i = W/( |W||x| ) - cos * x / |x|^2
    dcos_dx = targets / (xn * wn)[:, None] - cos[:, None] * embeddings / (xn**2)[:, None]
    return float(np.mean(1.0 - cos)), -dcos_dx / b


def _head_cosines(embeddings: np.ndarray, w: np.ndarray):
    """(cos, xhat, what, xn, wn): the identity head's cosines, then the rest
    of what `_cosine_backprop` takes, in its order."""
    xn = _checked_norms(embeddings, 1, "embeddings")
    wn = _checked_norms(w, 0, "identity prototype")
    xhat = embeddings / xn[:, None]
    what = w / wn[None, :]
    return xhat @ what, xhat, what, xn, wn


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
    margin: float,
    scale: float,
) -> LossResult:
    """Additive-margin softmax on L2-normalized logits: s * (cos - m) at the
    target class, s * cos elsewhere. Gradients flow to the embeddings and the
    identity head through the normalization.
    """
    if margin < 0.0 or scale <= 0.0:
        raise ContractViolation("require margin >= 0 and scale > 0")
    w = prototypes.W
    labels = _check_labels(labels, w.shape[1])
    cosines = _head_cosines(embeddings, w)
    logits = scale * cosines[0]
    logits[np.arange(embeddings.shape[0]), labels] -= scale * margin
    value, g = masked_ce(logits, labels)
    g *= scale  # dL/dcos
    grad_x, grad_w = _cosine_backprop(g, *cosines)
    return LossResult(value, {"loss_softmax": value}, grad_x, None, grad_w)


def circle_loss(
    embeddings: np.ndarray,
    prototypes: IdentityPrototypeMatrix,
    labels: np.ndarray,
    gamma: float,
    margin: float,
) -> LossResult:
    """Classification-form circle loss on cosine similarities.

    Per sample: sp = cos to the own column, sn_j = cos to every other column;
    ap = relu(1 + m - sp), an = relu(sn + m); loss =
    log(1 + sum_j exp(gamma * an_j * (sn_j - m)) * exp(-gamma * ap * (sp - (1 - m)))).
    The gradient differentiates the full expression (relu weights included),
    with subgradient zero at clipped terms, and flows to the embeddings and
    the identity head.
    """
    if gamma <= 0.0:
        raise ContractViolation("gamma must be positive")
    w = prototypes.W
    if w.shape[1] < 2:
        raise ContractViolation("circle loss needs at least 2 classes")
    labels = _check_labels(labels, w.shape[1])
    b = embeddings.shape[0]
    cosines = _head_cosines(embeddings, w)
    cos = cosines[0]
    rows = np.arange(b)
    op, on = 1.0 + margin, -margin
    dp, dn = 1.0 - margin, margin

    sp = cos[rows, labels]
    ap = np.maximum(op - sp, 0.0)
    logit_p = -gamma * ap * (sp - dp)

    an = np.maximum(cos - on, 0.0)
    logit_n = gamma * an * (cos - dn)
    logit_n[rows, labels] = -np.inf  # the own column is no negative
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
    grad_x, grad_w = _cosine_backprop(dcos, *cosines)
    return LossResult(value, {"loss_softmax": value}, grad_x, None, grad_w)


def combined_loss(
    embeddings: np.ndarray,
    modality_prototypes: ModalityPrototypeMatrix,
    identity_prototypes: IdentityPrototypeMatrix,
    identities: np.ndarray,
    modalities: np.ndarray,
    config: CombinedLossConfig,
    workspace: LossWorkspace | None = None,
) -> LossResult:
    """Full objective: alpha * (L_W + L_F) + (1 - alpha) * L_softmax + beta * L_AST.

    Routing contract: the prototype-side term is the only contributor to the
    modality-prototype gradient; the softmax term is the only contributor to
    the identity-prototype gradient; everything else flows to the embeddings.

    The logits and G buffers come from `workspace`, or from a fresh one when
    it is None; the result is bit-identical either way.
    """
    if workspace is None:
        workspace = LossWorkspace()

    n = modality_prototypes.num_identities
    if identity_prototypes.num_identities != n:
        raise ContractViolation("prototype heads disagree on identity count")
    # rewrite_labels_batch range-checks every label, and yW != yF in every
    # row: once a head's logits are finite, its kernel calls are checked
    y_w, y_f = rewrite_labels_batch(identities, modalities, n)
    ids = np.asarray(identities, dtype=int)
    a, bta, b = config.alpha, config.beta, embeddings.shape[0]
    grad_emb = np.zeros_like(embeddings)
    components: dict = {"loss_w": 0.0, "loss_f": 0.0, "loss_softmax": 0.0, "loss_ast": 0.0}
    grad_mod = None
    grad_id = None

    if a > 0.0:
        w = modality_prototypes.W
        logits = np.matmul(embeddings, w, out=workspace.buffer("modality logits", (b, 2 * n)))
        g = workspace.buffer("L_W G", logits.shape)
        _check_finite_logits(logits)
        # L_W (label yW) flows only to the prototypes, L_F (label yF) only to
        # the embeddings; each mask drops the other's label column. L_W's G
        # is consumed before L_F, the logits' last reader, writes G over them.
        if config.use_weight_mask:
            components["loss_w"], _ = sas_w_loss_weight_masked(logits, y_w, y_f, g, checked=True)
        else:
            components["loss_w"], _ = sas_w_loss(logits, y_w, g, checked=True)
        grad_mod = a * (embeddings.T @ g)
        components["loss_f"], g = sas_f_loss(
            logits, y_f, y_w if config.use_feature_mask else None, logits, checked=True
        )
        grad_emb += a * (g @ w.T)
    if a < 1.0:
        w = identity_prototypes.W
        logits = np.matmul(embeddings, w, out=workspace.buffer("identity logits", (b, n)))
        _check_finite_logits(logits)
        components["loss_softmax"], g = softmax_ce(logits, ids, logits, checked=True)
        grad_id = (1.0 - a) * (embeddings.T @ g)
        grad_emb += (1.0 - a) * (g @ w.T)
    if bta > 0.0:
        components["loss_ast"], g_ast = ast_loss(embeddings, modality_prototypes, y_f)
        grad_emb += bta * g_ast

    value = (
        a * (components["loss_w"] + components["loss_f"])
        + (1.0 - a) * components["loss_softmax"]
        + bta * components["loss_ast"]
    )
    return LossResult(
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
