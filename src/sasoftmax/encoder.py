"""Small fully-connected encoder with manual forward/backward, plus the SGD
machinery and checkpoint serialization shared with the prototype matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IdentityPrototypeMatrix, ModalityPrototypeMatrix, atomic_write
from .errors import ContractViolation

CHECKPOINT_MAGIC = "SASMODEL1"


@dataclass
class EncoderParams:
    """Affine layers with rectifier activations between them, linear output."""

    weights: list[np.ndarray]  # layer l: (fan_in, fan_out)
    biases: list[np.ndarray]

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


@dataclass
class ForwardCache:
    inputs: np.ndarray
    activations: list[np.ndarray]


def init_encoder(layer_dims: list[int], seed: int) -> EncoderParams:
    """He-style initialization, deterministic per seed; biases zero.

    layer_dims = [D_in, h1, ..., d]; needs at least two entries.
    """
    if len(layer_dims) < 2 or any(d <= 0 for d in layer_dims):
        raise ContractViolation("layer_dims needs >= 2 positive entries")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    n_layers = len(layer_dims) - 1
    for l in range(n_layers):
        fan_in, fan_out = layer_dims[l], layer_dims[l + 1]
        # hidden layers feed a rectifier, the output layer is linear
        scale = np.sqrt(2.0 / fan_in) if l < n_layers - 1 else np.sqrt(1.0 / fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(weights, biases)


def encoder_forward(params: EncoderParams, inputs: np.ndarray):
    if inputs.ndim != 2 or inputs.shape[1] != params.weights[0].shape[0]:
        raise ContractViolation("input dim does not match first layer")
    a = inputs
    acts = []
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w
        a += b
        if l != last:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return a, ForwardCache(inputs, acts)


def encoder_backward(params: EncoderParams, cache: ForwardCache, grad_embeddings: np.ndarray):
    """Chain-rule gradients for every weight/bias, given dL/d(embeddings)."""
    if grad_embeddings.shape != cache.activations[-1].shape:
        raise ContractViolation("gradient shape does not match cached forward")
    grad_w = [np.empty_like(w) for w in params.weights]
    grad_b = [np.empty_like(b) for b in params.biases]
    delta = grad_embeddings
    for l in range(len(params.weights) - 1, -1, -1):
        if l != len(params.weights) - 1:
            # a rectified activation is > 0 exactly where its input was
            delta = delta * (cache.activations[l] > 0.0)
        prev = cache.inputs if l == 0 else cache.activations[l - 1]
        grad_w[l] = prev.T @ delta
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ params.weights[l].T
    return grad_w, grad_b


class SGDState:
    """The arrays the optimizer updates, in its order, and their velocities."""

    def __init__(self, arrays: list[np.ndarray]):
        self.arrays = arrays
        self.velocities = [np.zeros_like(a) for a in arrays]


def sgd_step(
    state: SGDState,
    grads: list[np.ndarray | None],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """In-place heavy-ball update of `state.arrays`: v <- mu v + g + wd p;
    p <- p - lr v. An array whose gradient is None keeps values and velocity."""
    if lr <= 0.0:
        raise ContractViolation("learning rate must be positive")
    if len(grads) != len(state.arrays):
        raise ContractViolation("parameter / gradient length mismatch")
    for p, g, v in zip(state.arrays, grads, state.velocities):
        if g is None:
            continue
        if p.shape != g.shape:
            raise ContractViolation("parameter / gradient shape mismatch")
        v *= momentum
        v += g + weight_decay * p
        p -= lr * v


def lr_schedule(base_lr: float, epoch: int, milestones, factor: float = 0.1) -> float:
    if list(milestones) != sorted(milestones):
        raise ContractViolation(f"milestones must be ascending, got {milestones}")
    drops = sum(1 for m in milestones if epoch >= m)
    return base_lr * factor**drops


def _write_array(fh, name: str, arr: np.ndarray) -> None:
    fh.write(f"{name} {' '.join(str(s) for s in arr.shape)}\n")
    fh.write(" ".join(repr(float(v)) for v in arr.ravel()) + "\n")


def _expect_shape(path, name: str, got: tuple, shape: tuple) -> None:
    if got != shape:
        raise ContractViolation(
            f"checkpoint {path} corrupt: array {name} has shape {got}, expected {shape}"
        )


def _read_array(fh, path, expect: str, shape: tuple | None = None) -> np.ndarray:
    """Read one named array; `shape`, when given, is the one it must have."""
    header = fh.readline().split()
    if not header or header[0] != expect:
        raise ContractViolation(f"checkpoint {path} corrupt: expected {expect}")
    line = fh.readline()
    try:
        got = tuple(int(s) for s in header[1:])
        flat = np.array([float(v) for v in line.split()])
    except ValueError as exc:
        raise ContractViolation(f"checkpoint {path} corrupt: array {expect}: {exc}") from None
    # no array of a checkpoint is empty, and an empty shape may be too big to make
    if any(d < 1 for d in got):
        raise ContractViolation(
            f"checkpoint {path} corrupt: array {expect} has shape {got}, a dimension below 1"
        )
    if flat.size != math.prod(got):
        raise ContractViolation(
            f"checkpoint {path} corrupt: array {expect} of shape {got} "
            f"holds {flat.size} values"
        )
    if shape is not None:
        _expect_shape(path, expect, got, shape)
    if not np.all(np.isfinite(flat)):
        raise ContractViolation(f"checkpoint {path} corrupt: array {expect} has non-finite values")
    return flat.reshape(got)


def save_checkpoint(
    path,
    params: EncoderParams,
    modality_prototypes: ModalityPrototypeMatrix,
    identity_prototypes: IdentityPrototypeMatrix,
) -> None:
    """Versioned text checkpoint: magic header, layer dims, then row-major arrays."""
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        fh.write(" ".join(str(d) for d in params.layer_dims) + "\n")
        for l, (w, b) in enumerate(zip(params.weights, params.biases)):
            _write_array(fh, f"W{l}", w)
            _write_array(fh, f"b{l}", b)
        _write_array(fh, "modality_prototypes", modality_prototypes.W)
        _write_array(fh, "identity_prototypes", identity_prototypes.W)


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint. Every array must have the
    shape the layer-dims line and the identity count give it, no dimension
    below 1, and finite values; anything else raises ContractViolation
    naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _read_checkpoint(fh, path)
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"checkpoint {path} is not UTF-8 text: {exc}") from None


def _read_checkpoint(fh, path):
    if fh.readline().strip() != CHECKPOINT_MAGIC:
        raise ContractViolation(f"{path} is not a {CHECKPOINT_MAGIC} checkpoint")
    try:
        dims = [int(d) for d in fh.readline().split()]
    except ValueError as exc:
        raise ContractViolation(f"checkpoint {path} corrupt: layer dims: {exc}") from None
    if len(dims) < 2 or min(dims) <= 0:
        raise ContractViolation(
            f"checkpoint {path} corrupt: layer dims {dims} need >= 2 positive entries"
        )
    weights, biases = [], []
    for l in range(len(dims) - 1):
        weights.append(_read_array(fh, path, f"W{l}", (dims[l], dims[l + 1])))
        biases.append(_read_array(fh, path, f"b{l}", (dims[l + 1],)))
    w_mod = _read_array(fh, path, "modality_prototypes")
    w_id = _read_array(fh, path, "identity_prototypes")
    n = w_id.shape[-1] if w_id.ndim else 0
    _expect_shape(path, "identity_prototypes", w_id.shape, (dims[-1], n))
    _expect_shape(path, "modality_prototypes", w_mod.shape, (dims[-1], 2 * n))
    return (
        EncoderParams(weights, biases),
        ModalityPrototypeMatrix(w_mod),
        IdentityPrototypeMatrix(w_id),
    )
