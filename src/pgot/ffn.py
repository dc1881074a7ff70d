"""Feed-forward variants: the Taylor-style expert blend gated by spatial
coordinates, and the plain two-layer perceptron used as its ablation."""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import Rng, Tensor
from .layers import Linear, Mlp2, Module

# gate_force mode -> constant blend weight; None keeps the learned gate
GATE_FORCE_FILL = {None: None, "zero": 0.0, "one": 1.0, "half": 0.5}
GATE_FORCE_MODES = tuple(GATE_FORCE_FILL)


class TaylorDecompFFN(Module):
    """Blend of a linear expert and a non-linear expert.

    The per-channel blend weight comes from a sigmoid gate that sees only
    the embedded coordinates, never the features. Experts carry no bias so
    the linear expert is exactly linear and both map zero to zero.
    """

    def __init__(
        self,
        rng: Rng,
        width: int,
        gate_in_dim: int,
        dropout_rate: float = 0.0,
        gate_force: str | None = None,
    ):
        hidden = 2 * width
        self.width = width
        self.dropout_rate = dropout_rate
        self.gate_force = gate_force
        self.lin1 = Linear(rng, width, hidden, bias=False)
        self.lin2 = Linear(rng, hidden, width, bias=False)
        self.non1 = Linear(rng, width, hidden, bias=False)
        self.non2 = Linear(rng, hidden, width, bias=False)
        self.gate = Mlp2(rng, gate_in_dim, hidden, width)
        self.cache_enabled = False
        self.last_gate: np.ndarray | None = None

    def linear_expert(self, x: Tensor, rng: Rng, training: bool) -> Tensor:
        h = engine.dropout(self.lin1(x), self.dropout_rate, rng, training)
        return self.lin2(h)

    def nonlinear_expert(self, x: Tensor) -> Tensor:
        return self.non2(engine.gelu(self.non1(x)))

    def spatial_gate(self, gate_feats: Tensor) -> Tensor:
        return engine.sigmoid(self.gate(gate_feats))

    def __call__(self, x: Tensor, gate_feats: Tensor, rng: Rng, training: bool = False) -> Tensor:
        fill = GATE_FORCE_FILL[self.gate_force]
        if fill is None:
            alpha = self.spatial_gate(gate_feats)
        else:
            alpha = Tensor(np.full((*x.shape[:-1], self.width), fill))
        if self.cache_enabled:
            self.last_gate = alpha.data
        f_lin = self.linear_expert(x, rng, training)
        f_non = self.nonlinear_expert(x)
        one = Tensor(np.ones(()))
        return (one - alpha) * f_lin + alpha * f_non


class PlainFFN(Module):
    """Two-layer GELU perceptron; the "no expert decomposition" ablation."""

    def __init__(self, rng: Rng, width: int):
        self.mlp = Mlp2(rng, width, 2 * width, width)

    def __call__(self, x: Tensor, gate_feats: Tensor, rng: Rng, training: bool = False) -> Tensor:
        return self.mlp(x)
