"""Small parameterized building blocks shared by the model modules."""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import Rng, Tensor


def init_uniform(rng: Rng, fan_in: int, shape) -> Tensor:
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], the scheme used everywhere."""
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


class Module:
    """Base of every model part: names its parameters by attribute path.

    ``parameters`` walks the instance attributes in assignment order. A
    trainable Tensor is named ``prefix.attr``; a child module recurses
    under that name; the items of a list of modules are named
    ``prefix.{ITEM}{i}``. Everything else (ints, arrays, None) is skipped.
    """

    ITEM = "item"

    def parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        params = []
        for attr, value in vars(self).items():
            if isinstance(value, list):
                children = [(f"{self.ITEM}{i}", item) for i, item in enumerate(value)]
            else:
                children = [(attr, value)]
            for name, child in children:
                path = f"{prefix}.{name}" if prefix else name
                if isinstance(child, Module):
                    params += child.parameters(path)
                elif isinstance(child, Tensor) and child.requires_grad:
                    params.append((path, child))
        return params


class Linear(Module):
    def __init__(self, rng: Rng, d_in: int, d_out: int, bias: bool = True):
        self.w = init_uniform(rng, d_in, (d_in, d_out))
        self.b = init_uniform(rng, d_in, (d_out,)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = engine.matmul(x, self.w)
        if self.b is not None:
            y = y + self.b
        return y


class Mlp2(Module):
    """Two-layer perceptron with GELU between."""

    def __init__(self, rng: Rng, d_in: int, d_hidden: int, d_out: int):
        self.fc1 = Linear(rng, d_in, d_hidden)
        self.fc2 = Linear(rng, d_hidden, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(engine.gelu(self.fc1(x)))


class LayerNorm(Module):
    def __init__(self, width: int):
        self.gain = Tensor(np.ones(width), requires_grad=True)
        self.bias = Tensor(np.zeros(width), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return engine.layer_norm(x, self.gain, self.bias)
