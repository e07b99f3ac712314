"""Cross-modality metric learning with spectral-aware softmax losses.

Pure-numpy implementation: loss kernels with hand-derived gradients, a small
MLP encoder with manual backprop, an asynchronous two-step trainer, a
retrieval evaluator, and an experiment CLI.
"""

from .core import (
    Dataset,
    IdentityPrototypeMatrix,
    LossResult,
    Modality,
    ModalityPrototypeMatrix,
    rewrite_labels,
    rewrite_labels_batch,
)
from .losses import (
    CombinedLossConfig,
    am_softmax_loss,
    ast_loss,
    circle_loss,
    combined_loss,
    masked_ce,
    theta_derivative_probe,
)

__all__ = [
    "Dataset",
    "IdentityPrototypeMatrix",
    "LossResult",
    "Modality",
    "ModalityPrototypeMatrix",
    "rewrite_labels",
    "rewrite_labels_batch",
    "CombinedLossConfig",
    "am_softmax_loss",
    "ast_loss",
    "circle_loss",
    "combined_loss",
    "masked_ce",
    "theta_derivative_probe",
]

__version__ = "0.1.0"
