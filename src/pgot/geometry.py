"""Geometry-derived signals: coordinate normalization, sinusoidal position
features, and the multi-scale geometric encoder bank."""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import Rng, Tensor
from .errors import DataError
from .layers import Linear, Mlp2, Module


def normalize_coords(coords: np.ndarray) -> np.ndarray:
    """Affine map of the per-sample bounding box onto the unit cube.

    A degenerate axis (max == min) maps to the constant 0.5.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if not np.all(np.isfinite(coords)):
        raise DataError("coordinates contain NaN or Inf")
    lo = coords.min(axis=0)
    span = coords.max(axis=0) - lo
    flat = span == 0.0
    out = (coords - lo) / np.where(flat, 1.0, span)
    out[:, flat] = 0.5
    return out.astype(np.float32)


def pos_embed(coords_norm: np.ndarray, frequencies: int) -> np.ndarray:
    """Sinusoidal features sin(2^k * pi * g), cos(2^k * pi * g) per axis,
    followed by the raw normalized coordinates g.

    For d axes the output has d * (2 * frequencies + 1) columns; all
    features lie in [-1, 1].
    """
    g = np.asarray(coords_norm, dtype=np.float64)
    feats = []
    for k in range(frequencies):
        angle = (2.0**k) * np.pi * g
        feats.append(np.sin(angle))
        feats.append(np.cos(angle))
    feats.append(g)
    return np.concatenate(feats, axis=1)


class GeometricEncoderBank(Module):
    """One two-layer encoder per spatial scale, fused to the hidden width.

    Scale s sees 10^(s-1) * g; outputs are concatenated and mixed by a
    single fusion matrix followed by GELU. Purely pointwise over mesh
    points.
    """

    ITEM = "scale"

    def __init__(self, rng: Rng, d: int, width: int, scales: int):
        self.c_geo = max(width // 2, 1)
        self.encoders = [Mlp2(rng, d, self.c_geo, self.c_geo) for _ in range(scales)]
        self.fuse = Linear(rng, scales * self.c_geo, width, bias=False)

    def scale_input(self, scale_index: int, coords_norm: np.ndarray) -> np.ndarray:
        """Input seen by encoder s (1-based scale s has multiplier 10^(s-1))."""
        return (10.0**scale_index) * np.asarray(coords_norm)

    def __call__(self, coords_norm: np.ndarray) -> Tensor:
        feats = []
        for s, enc in enumerate(self.encoders):
            scaled = Tensor(self.scale_input(s, coords_norm))
            feats.append(enc(scaled))
        fused = self.fuse(engine.concat(feats, axis=-1))
        return engine.gelu(fused)
