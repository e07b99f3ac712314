"""Asynchronous training loop.

Each step runs one forward pass and one loss evaluation per batch, against
the modality prototypes as they are BEFORE any update. That one result feeds
both sides: L_W's gradient reaches the modality prototypes, embeddings held
constant, and the feature-side gradients reach the encoder and the identity
head. One SGD update then moves every target that got a gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    Dataset,
    IdentityPrototypeMatrix,
    ModalityPrototypeMatrix,
    _check_bytes,
    save_rows_csv,
)
from .data import pk_sample
from .encoder import (
    EncoderParams,
    SGDState,
    encoder_backward,
    encoder_forward,
    init_encoder,
    lr_schedule,
    sgd_step,
)
from .errors import ContractViolation, DegenerateNormError, NumericError
from .evaluation import intra_cross_plan, mean_intra_cross_cosine
from .losses import (
    CombinedLossConfig,
    LossResult,
    LossWorkspace,
    am_softmax_loss,
    circle_loss,
    combined_loss,
)

# each variant's combined-loss switches; None: trained on the identity head alone
VARIANTS = {
    "SOFTMAX": dict(alpha=0.0, beta=0.0),
    "SAS": dict(beta=0.0),
    "SAS_FM": dict(beta=0.0, use_feature_mask=True),
    "SAS_FM_AST": dict(use_feature_mask=True),
    "SAS_FM_WM": dict(beta=0.0, use_feature_mask=True, use_weight_mask=True),
    "AM_SOFTMAX": None,
    "CIRCLE": None,
}

TRAINLOG_FIELDS = [
    "epoch",
    "lr",
    "loss_total",
    "loss_w",
    "loss_f",
    "loss_softmax",
    "loss_ast",
    "probe_cosine",
]


@dataclass
class TrainConfig:
    variant: str = "SAS_FM_AST"
    alpha: float = 0.7
    beta: float = 1.0
    epochs: int = 100
    batches_per_epoch: int = 10
    p: int = 8
    k: int = 8
    hidden_dims: tuple = (64,)
    embed_dim: int = 16
    base_lr: float = 0.01
    milestones: tuple = (40, 80)
    lr_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    am_margin: float = 0.3
    am_scale: float = 15.0
    circle_gamma: float = 32.0
    circle_margin: float = 0.25

    def __post_init__(self):
        # every float field, a subclass's included, so that no NaN or inf
        # reaches the data generator or the loss kernels
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ContractViolation(f"{f.name} must be finite, got {value}")
        if self.seed < 0:
            raise ContractViolation(f"seed must be non-negative, got {self.seed}")
        if self.variant not in VARIANTS:
            raise ContractViolation(f"unknown variant {self.variant!r}")
        if self.epochs < 0 or self.batches_per_epoch <= 0:
            raise ContractViolation("epochs must be >= 0, batches_per_epoch > 0")
        if self.p <= 0 or self.k <= 0:
            raise ContractViolation("P and K must be positive")
        # losses owns the weights' ranges; "SAS_FM_AST requires beta > 0" is in loss_config
        CombinedLossConfig(self.alpha, self.beta)
        if not self.base_lr > 0.0:
            raise ContractViolation(f"base_lr: learning rate must be positive, got {self.base_lr}")
        if not self.lr_factor > 0.0:
            raise ContractViolation(f"lr_factor must be positive, got {self.lr_factor}")
        # lr_schedule owns the milestone order; the last epoch's rate under- or overflows first
        try:
            last_lr = lr_schedule(self.base_lr, self.epochs - 1, self.milestones, self.lr_factor)
        except OverflowError:  # lr_factor ** drops
            last_lr = math.inf
        if not 0.0 < last_lr < math.inf:
            raise ContractViolation(
                f"base_lr, lr_factor, milestones: last epoch's learning rate {last_lr} "
                "is not positive and finite"
            )
        if self.embed_dim <= 0:
            raise ContractViolation(f"embed_dim must be positive, got {self.embed_dim}")
        if any(h <= 0 for h in self.hidden_dims):
            raise ContractViolation(f"hidden_dims must all be positive, got {self.hidden_dims}")
        if self.am_margin < 0.0:
            raise ContractViolation(f"am_margin must be non-negative, got {self.am_margin}")
        if self.am_scale <= 0.0:
            raise ContractViolation(f"am_scale must be positive, got {self.am_scale}")
        if self.circle_gamma <= 0.0:
            raise ContractViolation(f"circle_gamma must be positive, got {self.circle_gamma}")

    def loss_config(self) -> CombinedLossConfig | None:
        """The variant's combined-loss switches; None for a head-only variant."""
        switches = VARIANTS[self.variant]
        if switches is None:
            return None
        if self.variant == "SAS_FM_AST" and self.beta <= 0.0:
            raise ContractViolation("SAS_FM_AST requires beta > 0")
        return CombinedLossConfig(**{"alpha": self.alpha, "beta": self.beta, **switches})


@dataclass
class TrainState:
    params: EncoderParams
    modality_prototypes: ModalityPrototypeMatrix
    identity_prototypes: IdentityPrototypeMatrix
    optimizer: SGDState


@dataclass
class TrainLog:
    records: list[dict] = field(default_factory=list)

    def save_csv(self, path) -> None:
        save_rows_csv(self.records, path, TRAINLOG_FIELDS)


def init_train_state(dataset: Dataset, config: TrainConfig) -> TrainState:
    dims = [dataset.input_dim, *config.hidden_dims, config.embed_dim]
    params = init_encoder(dims, config.seed)
    n = dataset.num_identities
    # seed offsets decorrelate the heads from the encoder init
    rng_mod = np.random.default_rng(config.seed + 1_000_003)
    rng_id = np.random.default_rng(config.seed + 2_000_003)
    scale = np.sqrt(1.0 / config.embed_dim)
    w_mod = ModalityPrototypeMatrix(rng_mod.normal(0.0, scale, size=(config.embed_dim, 2 * n)))
    w_id = IdentityPrototypeMatrix(rng_id.normal(0.0, scale, size=(config.embed_dim, n)))
    return TrainState(
        params=params,
        modality_prototypes=w_mod,
        identity_prototypes=w_id,
        optimizer=SGDState(params.weights + params.biases + [w_mod.W, w_id.W]),
    )


def _evaluate_loss(
    state: TrainState, embeddings, ids, mods, config: TrainConfig, workspace
) -> LossResult:
    """The step's one loss evaluation, against the prototypes as they are.
    The identity-head-only variants (AM_SOFTMAX, CIRCLE) have no modality
    gradient and leave `workspace` unused."""
    w_mod, w_id = state.modality_prototypes, state.identity_prototypes
    loss_config = config.loss_config()
    if loss_config is not None:
        return combined_loss(embeddings, w_mod, w_id, ids, mods, loss_config, workspace)
    if config.variant == "AM_SOFTMAX":
        return am_softmax_loss(embeddings, w_id, ids, config.am_margin, config.am_scale)
    return circle_loss(embeddings, w_id, ids, config.circle_gamma, config.circle_margin)


def train_step(
    state: TrainState,
    dataset: Dataset,
    batch_indices: np.ndarray,
    config: TrainConfig,
    lr: float,
    workspace: LossWorkspace | None = None,
) -> dict:
    """One asynchronous update on one batch. Returns step metrics.
    `workspace` holds the loss buffers reused across a run's steps."""
    x = dataset.features[batch_indices]
    ids = dataset.identities[batch_indices]
    mods = dataset.modalities[batch_indices]
    embeddings, cache = encoder_forward(state.params, x)

    # the one loss evaluation of this step, against the pre-update
    # prototypes: every gradient below comes from it
    try:
        res = _evaluate_loss(state, embeddings, ids, mods, config, workspace)
    except DegenerateNormError as exc:
        # e.g. a dead-ReLU all-zero embedding reaching a cosine-based term
        raise DegenerateNormError(f"{exc}; {_batch_context(batch_indices)}") from exc
    if not np.isfinite(res.value):
        raise NumericError(f"training diverged (loss={res.value}); {_batch_context(batch_indices)}")

    # one update of every target, in the optimizer's order; a head the
    # objective does not reach (alpha 0 or 1, AM_SOFTMAX, CIRCLE) gets None
    grad_w, grad_b = encoder_backward(state.params, cache, res.grad_embeddings)
    head_grads = [res.grad_modality_prototypes, res.grad_identity_prototypes]
    sgd_step(state.optimizer, grad_w + grad_b + head_grads, lr, config.momentum, config.weight_decay)
    return {"loss_total": res.value, **res.components}


def _batch_context(batch_indices) -> str:
    return f"offending batch indices: {np.asarray(batch_indices).tolist()}"


def batch_schedule(dataset: Dataset, config: TrainConfig) -> np.ndarray:
    """A run's PK batches, one read-only row of 2PK indices per step, as
    `train` consumes them. They depend only on the dataset, P, K, the seed and
    the step count, so each is drawn once, memoized on `dataset`: every run
    on it with one seed, whatever its variant or loss weights, shares it."""
    steps = config.epochs * config.batches_per_epoch
    key = (config.p, config.k, config.seed, steps)
    if key not in dataset._schedules:
        # pk_sample's own check, made before a P-sized schedule is allocated
        if config.p > dataset.num_identities:
            raise ContractViolation("P exceeds the number of identities")
        width = 2 * config.p * config.k
        _check_bytes(
            f"epochs x batches_per_epoch x 2PK = {steps} x {width} batch indices",
            steps * width * np.dtype(np.intp).itemsize,
        )
        schedule = np.empty((steps, width), dtype=np.intp)
        batch_seed = np.random.default_rng(config.seed + 3_000_003)
        for row in schedule:
            row[:] = pk_sample(dataset, config.p, config.k, int(batch_seed.integers(2**63)))
        schedule.flags.writeable = False
        dataset._schedules[key] = schedule
    return dataset._schedules[key]


def train(dataset: Dataset, config: TrainConfig):
    """Full training run on `batch_schedule`'s batches. Returns (TrainState,
    TrainLog); deterministic per seed."""
    schedule = batch_schedule(dataset, config)
    state = init_train_state(dataset, config)
    plan = intra_cross_plan(dataset.identities, dataset.modalities)
    log = TrainLog()
    workspace = LossWorkspace()  # the run's loss buffers, reused by every step
    for epoch in range(config.epochs):
        lr = lr_schedule(config.base_lr, epoch, config.milestones, config.lr_factor)
        epoch_metrics: dict[str, float] = {}
        for b in range(config.batches_per_epoch):
            idx = schedule[epoch * config.batches_per_epoch + b]
            metrics = train_step(state, dataset, idx, config, lr, workspace)
            for key, val in metrics.items():
                epoch_metrics[key] = epoch_metrics.get(key, 0.0) + val
        emb = encoder_forward(state.params, dataset.features)[0]  # the cache is let go
        probe = mean_intra_cross_cosine(emb, plan)
        rec = {k: epoch_metrics.get(k, 0.0) / config.batches_per_epoch for k in TRAINLOG_FIELDS[2:-1]}
        rec.update({"epoch": epoch, "lr": lr, "probe_cosine": probe})
        log.records.append(rec)
    return state, log
