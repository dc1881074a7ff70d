"""Physics-geometry operator transformer on a from-scratch autodiff engine."""

from .engine import Rng, Tape, Tensor, float64_mode
from .model import ModelConfig, PgotModel, load_checkpoint, save_checkpoint
from .training import AdamW, evaluate, relative_l2, spearman, train

__all__ = [
    "Rng",
    "Tape",
    "Tensor",
    "float64_mode",
    "ModelConfig",
    "PgotModel",
    "load_checkpoint",
    "save_checkpoint",
    "AdamW",
    "evaluate",
    "relative_l2",
    "spearman",
    "train",
]
