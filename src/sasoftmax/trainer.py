"""Two-step asynchronous training loop.

Each step runs one forward pass and one loss evaluation per batch, against
the modality prototypes as they are BEFORE any update. That one result feeds
both steps: step 1 updates the modality prototypes from the prototype-side
gradient, with embeddings held constant; step 2 updates the encoder and the
identity-prototype head from the feature-side gradients. A config flag
switches to the alternating-batch variant where the two steps consume
different batches, each still seeing pre-update prototypes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, IdentityPrototypeMatrix, ModalityPrototypeMatrix, save_rows_csv
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
from .evaluation import mean_intra_cross_cosine
from .losses import (
    CombinedLossConfig,
    am_softmax_loss,
    circle_loss,
    combined_loss,
)

VARIANTS = ("SOFTMAX", "SAS", "SAS_FM", "SAS_FM_AST", "SAS_FM_WM", "AM_SOFTMAX", "CIRCLE")
# variants trained on the identity head alone, with no combined-loss mapping
HEAD_ONLY_VARIANTS = ("AM_SOFTMAX", "CIRCLE")

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
    squared_ast: bool = False
    alternate_batches: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractViolation(f"unknown variant {self.variant!r}")
        if self.epochs < 0 or self.batches_per_epoch <= 0:
            raise ContractViolation("epochs must be >= 0, batches_per_epoch > 0")
        if self.p <= 0 or self.k <= 0:
            raise ContractViolation("P and K must be positive")

    def loss_config(self) -> CombinedLossConfig:
        """Map the variant onto the combined-loss switches."""
        if self.variant == "SOFTMAX":
            return CombinedLossConfig(alpha=0.0, beta=0.0)
        if self.variant == "SAS":
            return CombinedLossConfig(alpha=self.alpha, beta=0.0)
        if self.variant == "SAS_FM":
            return CombinedLossConfig(alpha=self.alpha, beta=0.0, use_feature_mask=True)
        if self.variant == "SAS_FM_AST":
            if self.beta <= 0.0:
                raise ContractViolation("SAS_FM_AST requires beta > 0")
            return CombinedLossConfig(
                alpha=self.alpha,
                beta=self.beta,
                use_feature_mask=True,
                squared_ast=self.squared_ast,
            )
        if self.variant == "SAS_FM_WM":
            return CombinedLossConfig(
                alpha=self.alpha, beta=0.0, use_feature_mask=True, use_weight_mask=True
            )
        raise ContractViolation(f"variant {self.variant} has no combined-loss mapping")


@dataclass
class TrainState:
    params: EncoderParams
    modality_prototypes: ModalityPrototypeMatrix
    identity_prototypes: IdentityPrototypeMatrix
    opt_encoder: SGDState
    opt_modality: SGDState
    opt_identity: SGDState


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
        opt_encoder=SGDState(params.weights + params.biases),
        opt_modality=SGDState([w_mod.W]),
        opt_identity=SGDState([w_id.W]),
    )


def _evaluate_loss(state: TrainState, embeddings, ids, mods, config: TrainConfig, loss_cfg):
    """The step's one loss evaluation, against the prototypes as they are:
    (value, grad_emb, grad_id, grad_mod, components). `loss_cfg` is None for
    the identity-head-only variants (AM_SOFTMAX, CIRCLE), which have no
    modality prototypes to update."""
    if loss_cfg is None:
        if config.variant == "AM_SOFTMAX":
            res = am_softmax_loss(
                embeddings, state.identity_prototypes, ids, config.am_margin, config.am_scale
            )
        else:
            res = circle_loss(
                embeddings, state.identity_prototypes, ids, config.circle_gamma, config.circle_margin
            )
        comps = {"loss_w": 0.0, "loss_f": 0.0, "loss_softmax": res.value, "loss_ast": 0.0}
        return res.value, res.grad_embeddings, res.grad_prototypes, None, comps
    res = combined_loss(
        embeddings, state.modality_prototypes, state.identity_prototypes, ids, mods, loss_cfg
    )
    return (
        res.value,
        res.grad_embeddings,
        res.grad_identity_prototypes,
        res.grad_modality_prototypes,
        res.components,
    )


def train_step(
    state: TrainState,
    dataset: Dataset,
    batch_indices: np.ndarray,
    config: TrainConfig,
    lr: float,
    do_w_step: bool = True,
    do_f_step: bool = True,
) -> dict:
    """One asynchronous update on one batch. Returns step metrics."""
    x = dataset.features[batch_indices]
    ids = dataset.identities[batch_indices]
    mods = dataset.modalities[batch_indices]
    embeddings, cache = encoder_forward(state.params, x)

    head_only = config.variant in HEAD_ONLY_VARIANTS
    loss_cfg = None if head_only else config.loss_config()
    do_w_step = do_w_step and not head_only and loss_cfg.alpha > 0.0
    if not (do_w_step or do_f_step):
        return {"loss_total": 0.0}
    # the one loss evaluation of this step, against the pre-step-1
    # prototypes: step 1 takes its prototype gradient, step 2 the rest
    try:
        value, grad_emb, grad_id, grad_mod, comps = _evaluate_loss(
            state, embeddings, ids, mods, config, loss_cfg
        )
    except DegenerateNormError as exc:
        # e.g. a dead-ReLU all-zero embedding reaching a cosine-based term
        raise DegenerateNormError(f"{exc}; {_batch_context(batch_indices)}") from exc
    if not do_w_step:
        grad_mod = None
    if not np.isfinite(value):
        raise NumericError(f"training diverged (loss={value}); {_batch_context(batch_indices)}")

    # step 1: prototype-side update, embeddings held constant
    if grad_mod is not None:
        sgd_step(
            [state.modality_prototypes.W],
            [grad_mod],
            state.opt_modality,
            lr,
            config.momentum,
            config.weight_decay,
        )
    if not do_f_step:
        return {"loss_total": 0.0}

    # step 2: encoder + identity head, from the same pre-step-1 evaluation
    grad_w, grad_b = encoder_backward(state.params, cache, grad_emb)
    sgd_step(
        state.params.weights + state.params.biases,
        grad_w + grad_b,
        state.opt_encoder,
        lr,
        config.momentum,
        config.weight_decay,
    )
    if grad_id is not None:
        sgd_step(
            [state.identity_prototypes.W],
            [grad_id],
            state.opt_identity,
            lr,
            config.momentum,
            config.weight_decay,
        )
    return {"loss_total": value, **comps}


def _batch_context(batch_indices) -> str:
    return f"offending batch indices: {np.asarray(batch_indices).tolist()}"


def batch_schedule(dataset: Dataset, config: TrainConfig) -> np.ndarray:
    """A run's PK batches, one read-only row of 2PK indices per step, as
    `train` consumes them. They depend only on the dataset, P, K, the seed and
    the step count, so every variant trained with one seed shares them."""
    steps = config.epochs * config.batches_per_epoch
    schedule = np.empty((steps, 2 * config.p * config.k), dtype=np.intp)
    batch_seed = np.random.default_rng(config.seed + 3_000_003)
    for row in schedule:
        row[:] = pk_sample(dataset, config.p, config.k, int(batch_seed.integers(2**63)))
    schedule.flags.writeable = False
    return schedule


def train(dataset: Dataset, config: TrainConfig, schedule: np.ndarray | None = None):
    """Full training run on `schedule`'s batches, drawn by `batch_schedule`
    when None. Returns (TrainState, TrainLog); deterministic per seed."""
    state = init_train_state(dataset, config)
    if schedule is None:
        schedule = batch_schedule(dataset, config)
    expected = (config.epochs * config.batches_per_epoch, 2 * config.p * config.k)
    if np.shape(schedule) != expected:
        raise ContractViolation(
            f"batch schedule has shape {np.shape(schedule)}, expected {expected}"
        )
    log = TrainLog()
    for epoch in range(config.epochs):
        lr = lr_schedule(config.base_lr, epoch, list(config.milestones), config.lr_factor)
        epoch_metrics: dict[str, float] = {}
        n_f_steps = 0
        for b in range(config.batches_per_epoch):
            idx = schedule[epoch * config.batches_per_epoch + b]
            if config.alternate_batches:
                do_w = b % 2 == 0
                do_f = not do_w
            else:
                do_w = do_f = True
            metrics = train_step(state, dataset, idx, config, lr, do_w, do_f)
            if do_f:
                n_f_steps += 1
                for key, val in metrics.items():
                    epoch_metrics[key] = epoch_metrics.get(key, 0.0) + val
        emb, _ = encoder_forward(state.params, dataset.features)
        probe = mean_intra_cross_cosine(emb, dataset.identities, dataset.modalities)
        rec = {k: epoch_metrics.get(k, 0.0) / max(n_f_steps, 1) for k in TRAINLOG_FIELDS[2:-1]}
        rec.update({"epoch": epoch, "lr": lr, "probe_cosine": probe})
        log.records.append(rec)
    return state, log
