"""Slice attention: geometry-informed soft assignment of N mesh points to M
latent tokens, multi-head self-attention over the tokens, and projection
back to the mesh. Runs in O(N*M) time and memory; no N-by-N intermediate
is ever allocated.

``DenseAttention`` is a deliberately quadratic substitute used only by the
efficiency benchmark as a contrast baseline.
"""

from __future__ import annotations

import math

import numpy as np

from . import engine
from .engine import Rng, Tensor
from .geometry import GeometricEncoderBank
from .layers import Linear, Module, init_uniform

DEAD_SLICE_EPS = 1e-8


class LatentMhsa(Module):
    """Standard multi-head self-attention over the M latent tokens."""

    def __init__(self, rng: Rng, width: int, heads: int):
        self.width = width
        self.heads = heads
        self.head_dim = width // heads
        self.wq = Linear(rng, width, width, bias=False)
        self.wk = Linear(rng, width, width, bias=False)
        self.wv = Linear(rng, width, width, bias=False)
        self.wo = Linear(rng, width, width, bias=False)

    def __call__(self, z: Tensor) -> Tensor:
        *lead, m, _ = z.shape
        h, dh = self.heads, self.head_dim
        r = len(lead)
        swap = (*range(r), r + 1, r, r + 2)  # (..., M, H, Dh) <-> (..., H, M, Dh)

        def split(t):  # (..., M, C) -> (..., H, M, Dh)
            return engine.transpose(engine.reshape(t, (*lead, m, h, dh)), swap)

        q = split(self.wq(z))
        k = split(self.wk(z))
        v = split(self.wv(z))
        scores = engine.matmul(q, engine.transpose(k)) * (1.0 / math.sqrt(dh))
        attn = engine.softmax(scores, axis=-1)
        out = engine.matmul(attn, v)  # (..., H, M, Dh)
        out = engine.reshape(engine.transpose(out, swap), (*lead, m, self.width))
        return self.wo(out)


class SpecGeoAttention(Module):
    """Geometry-guided slicing attention layer.

    The slicing query is X W_x plus the multi-scale geometric encoding;
    with ``use_geometry=False`` the layer degrades to plain slice
    attention (the "no geometry injection" ablation).
    """

    def __init__(
        self,
        rng: Rng,
        d: int,
        width: int,
        slices: int,
        heads: int,
        scales: int,
        use_geometry: bool = True,
    ):
        self.wx = Linear(rng, width, width, bias=False)
        self.wf = Linear(rng, width, width, bias=False)
        self.prototypes = init_uniform(rng, width, (slices, width))
        # softplus(raw) == 0.5 at init
        self.tau_raw = Tensor(np.full((1,), math.log(math.expm1(0.5))), requires_grad=True)
        self.bank = GeometricEncoderBank(rng, d, width, scales) if use_geometry else None
        self.mhsa = LatentMhsa(rng, width, heads)
        self.cache_enabled = False
        self.last_assignment: np.ndarray | None = None  # (..., N, M), kept while cache_enabled
        self.dead_slice_events = 0

    def geometry_informed_query(self, x: Tensor, coords_norm: np.ndarray) -> Tensor:
        xq = self.wx(x)
        if self.bank is not None:
            xq = xq + self.bank(coords_norm)
        return xq

    def compute_assignment(self, xq: Tensor) -> Tensor:
        tau = engine.softplus(self.tau_raw)
        logits = engine.div(engine.matmul(xq, engine.transpose(self.prototypes)), tau)
        return engine.softmax(logits, axis=-1)

    def slice_tokens(self, assignment: Tensor, x: Tensor) -> Tensor:
        """Mass-normalized aggregation of projected features into M tokens.

        A slice of mass below ``DEAD_SLICE_EPS`` counts once in ``dead_slice_events``;
        its token, the weighted mean times mass / eps, is zero only for an empty slice.
        """
        xf = self.wf(x)
        col = engine.sum_(assignment, axis=-2)  # (..., M)
        self.dead_slice_events += int(np.count_nonzero(col.data < DEAD_SLICE_EPS))
        num = engine.matmul(engine.transpose(assignment), xf, accumulate64=True)  # (..., M, C), a sum over points
        denom = engine.reshape(engine.clip_min(col, DEAD_SLICE_EPS), (*col.shape, 1))
        return engine.div(num, denom)

    def deslice(self, assignment: Tensor, z: Tensor) -> Tensor:
        return engine.matmul(assignment, z)

    def __call__(self, x: Tensor, coords_norm: np.ndarray) -> Tensor:
        xq = self.geometry_informed_query(x, coords_norm)
        assignment = self.compute_assignment(xq)
        z = self.slice_tokens(assignment, x)
        z = self.mhsa(z)
        out = self.deslice(assignment, z)
        if self.cache_enabled:
            self.last_assignment = assignment.data
        return out


class DenseAttention(Module):
    """Quadratic full self-attention over all N points (benchmark contrast).

    A ``LatentMhsa`` over the N points in place of the M slice tokens; it
    allocates N-by-N score matrices per head.
    """

    def __init__(self, rng: Rng, width: int, heads: int):
        self.dense = LatentMhsa(rng, width, heads)

    def __call__(self, x: Tensor, coords_norm: np.ndarray) -> Tensor:
        return self.dense(x)
