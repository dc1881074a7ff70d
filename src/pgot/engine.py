"""Dense tensor arithmetic with reverse-mode automatic differentiation.

Values are stored as contiguous numpy arrays in 32-bit floats. A 64-bit
mode exists for finite-difference gradient checks (see ``float64_mode``).

Precision rule: products run in float32, sums over mesh points accumulate
in 64-bit, and ``float64_mode`` runs everything in 64-bit. ``float64_mode``
changes only the precision of tensor arithmetic: random draws, generated data
and normalized coordinates are float32 in both modes.

* float32 with column padding: the matmul forward product, unless marked
  ``accumulate64``. The right operand gets zero columns up to a multiple of
  8, which are sliced off the result. An unpadded float32 gemm with 1, 2, 3,
  5, 6 or 7 output columns gives a row bits that depend on its position in
  the blocking (OpenBLAS Haswell); with whole 8-column blocks every row takes
  the same path, so exact permutation equivariance holds. That is a property
  of the kernel, not of gemm, so each (inner dimension, column blocks) shape
  is probed once against the live BLAS with a reversed and a rotated
  operand, and a shape that fails falls back to 64-bit accumulation.
* float32: the matmul gradients ``g b^T`` and, unless marked
  ``accumulate64``, ``a^T g`` (no invariant pins gradients bit for bit),
  the LayerNorm row statistics (they never mix points) and every
  elementwise op. In float32 mode GELU uses a float32 polynomial ``erf``
  (Abramowitz & Stegun 7.1.26, absolute error below 1e-6) whose sign is
  copied with integer ops on the bits; ``float64_mode`` keeps scipy's exact
  ``erf`` for gradient checks. GELU walks every input's flattened view in
  blocks of at most ``_GELU_BLOCK`` elements (an input that size or smaller
  is one block), so its scratch stays in L2 and is two blocks, not arrays
  of the input's size; every element keeps the bits of one unblocked pass.
* 64-bit accumulation: ``matmul(..., accumulate64=True)``, that is slice
  attention's ``A^T x``, a sum over mesh points, and its gradient ``A g``
  with respect to ``x``, a sum over the M slices; ``sum_``/``mean_``,
  softmax normalisers, broadcast-gradient sums and the LayerNorm
  ``gain``/``bias`` gradients.

Every tensor that needs a gradient has one ``_Node``, its pending gradient:
a parameter from its construction, an op output from its recording. The tape
holds nodes, not tensors, and stores a first gradient, which a closure may
return as a view, as a contiguous copy in the dtype the backward computed.
Closures keep the fewest arrays their backward needs, so an op output that no
backward reads dies with its last user. A recorded GELU keeps one array, its
derivative, computed in the forward pass; not its input or ``cdf``.

Importing this module tells glibc's malloc to keep freed memory in the
process (see ``_keep_freed_memory``): a large pass then reuses the previous
pass's pages instead of faulting them in again, and RSS stays at the run's
high-water mark.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Rng",
    "ShapeError",
    "ParameterError",
    "ContractError",
    "float64_mode",
    "reset_alloc_stats",
    "alloc_stats",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "sigmoid",
    "gelu",
    "exp",
    "sqrt",
    "softplus",
    "clip_min",
    "sum_",
    "mean_",
    "softmax",
    "layer_norm",
    "dropout",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ParameterError(ValueError):
    """An operation parameter is outside its documented range."""


class ContractError(RuntimeError):
    """A precondition of the autodiff contract was violated."""


# ---------------------------------------------------------------------------
# malloc policy
# ---------------------------------------------------------------------------


def _keep_freed_memory() -> None:
    """Serve arrays up to 32 MiB from the heap and never trim it (glibc only).

    glibc's default thresholds adapt so that a freed fwd+bwd tape of more than
    a few MB goes back to the kernel, and the next pass faults every page in
    again (about 21,600 minor faults per fwd+bwd of the default
    ``ModelConfig`` at N=8192). Both values must be set: setting either one
    ends the adaptation of the other. The trim threshold is a C ``int``,
    hence ``2**31 - 1``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt (macOS, musl) or no C library handle (Windows)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD; 32 MiB is glibc's maximum on 64-bit
    mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD


_keep_freed_memory()


# ---------------------------------------------------------------------------
# precision mode and allocation accounting
# ---------------------------------------------------------------------------

_DTYPE = np.float32

_ALLOC = {"bytes": 0, "max_single": 0, "count": 0}


@contextlib.contextmanager
def float64_mode():
    """Run enclosed computation in 64-bit floats (gradient-check mode)."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.float64
    try:
        yield
    finally:
        _DTYPE = prev


def reset_alloc_stats() -> None:
    _ALLOC["bytes"] = 0
    _ALLOC["max_single"] = 0
    _ALLOC["count"] = 0


def alloc_stats() -> dict:
    """Cumulative bytes allocated for tensor storage since the last reset.

    ``max_single`` is the largest single tensor allocated. Read by perfbench,
    for its ``engine.alloc_*`` and ``engine.max_single_bytes`` metrics.
    """
    return dict(_ALLOC)


# ---------------------------------------------------------------------------
# PRNG
# ---------------------------------------------------------------------------


class Rng:
    """Deterministic counter-based generator (Philox 4x64).

    The same seed yields a bit-identical stream across runs and platforms;
    each generated sample draws from its own key, ``data.sample_keys``.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.Philox(key=int(seed)))

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        """float32 draws in both precision modes, so ``float64_mode`` changes no generated data."""
        return self._gen.uniform(low, high, size=shape).astype(np.float32)

    def integers(self, low: int, high: int, shape=None):
        return self._gen.integers(low, high, size=shape)

    def random(self, shape) -> np.ndarray:
        return self._gen.random(size=shape)


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """Dense row-major array, immutable after creation by convention.

    It needs a gradient exactly when it has a ``_Node``: a parameter gets one
    here, an op output when a tape records it; ``grad`` reads and writes it.
    Optimizers mutate leaf ``data`` in place between tapes.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=_DTYPE)
        self.data = arr
        self._node: Optional["_Node"] = _Node() if requires_grad else None
        _ALLOC["bytes"] += arr.nbytes
        _ALLOC["count"] += 1
        if arr.nbytes > _ALLOC["max_single"]:
            _ALLOC["max_single"] = arr.nbytes

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> Optional[np.ndarray]:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self._node.grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __getitem__(self, index):
        return _getitem(self, index)


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


class _Node:
    """Gradient slot of one tensor: its pending ``grad``."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: Optional[np.ndarray] = None


class Tape:
    """Ordered record of operations for one forward pass.

    A record is ``(out node, parent nodes, backward_fn)``: gradient nodes,
    never the op's tensors, with ``None`` for a parent that needs no
    gradient; the closures keep only the arrays their backward reads. Nodes
    refer to nothing, so tape, nodes and tensors form no reference cycle.

    Records are appended in execution order, so a single reverse sweep is
    a valid reverse-topological traversal.
    """

    current: Optional["Tape"] = None

    def __init__(self):
        self._records: list[tuple[_Node, tuple, Callable]] = []

    def __enter__(self):
        self._outer = Tape.current
        Tape.current = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape.current = self._outer
        return False

    def record(self, out: Tensor, parents: tuple[Tensor, ...], backward_fn: Callable):
        node = out._node = _Node()
        nodes = tuple([p._node for p in parents])
        self._records.append((node, nodes, backward_fn))

    def backward(self, loss: Tensor) -> None:
        if loss.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        if not any(out is loss._node for out, _, _ in reversed(self._records)):
            raise ContractError("loss was not recorded on this tape")
        loss._node.grad = np.ones_like(loss.data)
        # every consumer of `out` sits later on the tape, so its grad is final
        # here; the pop frees the record, and with it its closure's arrays
        while self._records:
            out, parents, backward_fn = self._records.pop()
            if out.grad is None:
                continue
            grads = backward_fn(out.grad)
            out.grad = None
            for parent, g in zip(parents, grads):
                if g is None or parent is None:
                    continue
                if parent.grad is None:
                    parent.grad = np.ascontiguousarray(g)
                else:
                    parent.grad = parent.grad + g


def _recording(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` is recorded: a tape is current and some parent needs a gradient."""
    return Tape.current is not None and any(p._node is not None for p in parents)


def _make(out_data, parents: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    out = Tensor(out_data)
    if _recording(parents):
        Tape.current.record(out, tuple(parents), backward_fn)
    return out


# ---------------------------------------------------------------------------
# broadcasting helpers
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = _accum_sum(grad, axis=tuple(range(extra)), keepdims=False)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = _accum_sum(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


def _accum_sum(a: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    # 64-bit accumulation keeps reductions order-insensitive at f32 output
    return a.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.dtype)


def _accum_matmul(a: np.ndarray, b: np.ndarray, out_dtype) -> np.ndarray:
    res = np.matmul(a.astype(np.float64, copy=False), b.astype(np.float64, copy=False))
    return res.astype(out_dtype, copy=False)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _make(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    data = x * y

    def bwd(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return _make(data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    data = x / y

    def bwd(g):
        return _unbroadcast(g / y, x.shape), _unbroadcast(-g * x / (y * y), y.shape)

    return _make(data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e) for x >= 0, else e/(1+e), e = exp(-|x|) <= 1."""
    e = np.exp(-np.abs(x))
    # 0 <= e <= 1, so max(e, x >= 0) is 1 where x >= 0 and e elsewhere (NaN stays NaN)
    num = np.maximum(e, x >= 0, dtype=x.dtype)
    return np.divide(num, 1.0 + e, out=num)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    data = _sigmoid(x)

    def bwd(g):
        return (g * data * (1.0 - data),)

    return _make(data, (a,), bwd)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# Abramowitz & Stegun 7.1.26: erf(x) ~ 1 - t*poly(t)*exp(-x^2), t = 1/(1 + p|x|)
_ERF_P = np.float32(0.3275911)
_ERF_COEFFS = tuple(np.float32(c) for c in (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))
_F32_SIGN = np.uint32(0x8000_0000)
_F32_MAGNITUDE = np.uint32(0x7FFF_FFFF)

# elements per GELU block (256 KiB of float32), so a block's input, output, derivative and the erf's two
# buffers stay in a 2 MiB L2. Unrecorded (8192, 64), minimum per call on a 2-vCPU x86 VM: 2^14 2.5 ms,
# 2^15 and 2^16 2.1-2.2 ms, 2^18 2.7 ms, unblocked 3.3 ms; 2^16 is fastest at (2048, 64) and (4096, 64)
_GELU_BLOCK = 1 << 16


def erf(x: np.ndarray) -> np.ndarray:
    """scipy's exact erf, imported on first use: float32 runs never load scipy."""
    from scipy.special import erf as exact

    return exact(x)


def _erf_f32(x: np.ndarray) -> np.ndarray:
    """float32 erf, within 1e-6 of the exact value; odd, exact at 0 and +-inf."""
    t = np.abs(x)
    t *= _ERF_P
    t += 1.0
    np.reciprocal(t, out=t)
    y = t * _ERF_COEFFS[0]
    for c in _ERF_COEFFS[1:]:
        y += c
        y *= t
    # t is spent: reuse it for exp(-x^2), so only two buffers are live
    np.multiply(x, x, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    y *= t
    np.subtract(1.0, y, out=y)
    # copysign(y, x) on the bits, as np.copysign has no vector loop: y's magnitude, x's sign
    sign = np.bitwise_and(x.view(np.uint32), _F32_SIGN, out=t.view(np.uint32))
    bits = y.view(np.uint32)
    bits &= _F32_MAGNITUDE
    bits |= sign
    return y


def _gelu_block(x: np.ndarray, out: np.ndarray, d: Optional[np.ndarray]) -> None:
    """GELU of ``x`` into ``out`` and, unless ``d`` is None, its derivative into ``d``.

    ``out`` holds ``x/sqrt2`` until ``cdf`` is known, so the erf's two buffers
    are the only scratch.
    """
    np.multiply(x, _INV_SQRT2, out=out)
    cdf = _erf_f32(out) if x.dtype == np.float32 else erf(out)
    cdf += 1.0
    cdf *= 0.5
    np.multiply(x, cdf, out=out)
    if d is not None:
        np.multiply(x, x, out=d)
        d *= -0.5
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= x
        d += cdf


def gelu(a: Tensor) -> Tensor:
    x = a.data
    data = np.empty_like(x)
    # backward reads only the derivative cdf + x*pdf: the record holds neither x nor cdf
    d = np.empty_like(x) if _recording((a,)) else None
    # elementwise, so blocks keep every bit; each block's scratch stays in L2
    flat_x, flat_out = x.reshape(-1), data.reshape(-1)
    flat_d = None if d is None else d.reshape(-1)
    for start in range(0, x.size, _GELU_BLOCK):
        end = start + _GELU_BLOCK
        _gelu_block(flat_x[start:end], flat_out[start:end], None if d is None else flat_d[start:end])

    def bwd(g):
        return (d * g,)

    return _make(data, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return _make(data, (a,), lambda g: (g * data,))


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def bwd(g):
        return (g * 0.5 / data,)

    return _make(data, (a,), bwd)


def softplus(a: Tensor) -> Tensor:
    x = a.data
    data = np.logaddexp(0.0, x)

    def bwd(g):
        return (g * _sigmoid(x),)

    return _make(data, (a,), bwd)


def clip_min(a: Tensor, floor: float) -> Tensor:
    """Elementwise max(a, floor); gradient is zero where the floor binds."""
    data = np.maximum(a.data, floor)
    mask = a.data > floor

    def bwd(g):
        return (g * mask,)

    return _make(data, (a,), bwd)


def dropout(a: Tensor, rate: float, rng: Rng, training: bool) -> Tensor:
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    keep = rng.random(a.data.shape) >= rate  # bool: 1 B per element held until backward
    scale = 1.0 / (1.0 - rate)
    data = a.data * keep * scale

    def bwd(g):
        return (g * keep * scale,)

    return _make(data, (a,), bwd)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


# (inner dimension, column blocks of 8) -> whether the padded float32 product passed the probe
_PADDING_HOLDS: dict[tuple[int, int], bool] = {}


def _padded_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in the storage dtype, ``b`` zero-padded to a multiple of 8 columns if it has none."""
    c = b.shape[-1]
    if c % 8 == 0:
        return np.matmul(a, b)
    wide = np.zeros(b.shape[:-1] + (c + -c % 8,), dtype=b.dtype)
    wide[..., :c] = b
    return np.matmul(a, wide)[..., :c]


def _padding_holds(k: int, blocks: int) -> bool:
    """Probe, once per shape, whether the padded product gives a row the same bits at every position."""
    if (k, blocks) not in _PADDING_HOLDS:
        gen = np.random.default_rng((k, blocks))
        a = gen.uniform(-1.0, 1.0, (67, k)).astype(np.float32)
        b = gen.uniform(-1.0, 1.0, (k, 8 * blocks)).astype(np.float32)
        ref = _padded_matmul(a, b)
        perms = (np.arange(67)[::-1], np.roll(np.arange(67), 1))
        _PADDING_HOLDS[k, blocks] = all(np.array_equal(_padded_matmul(a[p], b), ref[p]) for p in perms)
    return _PADDING_HOLDS[k, blocks]


def matmul(a: Tensor, b: Tensor, *, accumulate64: bool = False) -> Tensor:
    """``a @ b``; ``accumulate64`` keeps 64-bit accumulation for a sum over mesh points."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}")
    x, w = a.data, b.data
    k, c = w.shape[-2:]
    float32 = x.dtype == w.dtype == np.float32
    if float32 and not accumulate64 and _padding_holds(k, -(-c // 8)):
        data = _padded_matmul(x, w)
    else:
        data = _accum_matmul(x, w, x.dtype)
    # a gradient nobody receives (a constant operand's) is not computed
    need_a, need_b = a._node is not None, b._node is not None

    def bwd(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(w, -1, -2)), x.shape)
        if need_b:
            xt = np.swapaxes(x, -1, -2)
            gb = _unbroadcast(_accum_matmul(xt, g, g.dtype) if accumulate64 else np.matmul(xt, g), w.shape)
        return ga, gb

    return _make(data, (a, b), bwd)


def transpose(a: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute the axes; by default swap the last two, so a stack of matrices transposes each."""
    if axes is None:
        nd = a.data.ndim
        axes = (*range(nd - 2), *reversed(range(nd)[-2:]))  # a 1-D tensor stays as it is
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = np.transpose(a.data, axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    return _make(data, (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    data = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(old),)

    return _make(data, (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    ends = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        return tuple(np.split(g, ends, axis=axis))

    return _make(data, tuple(tensors), bwd)


def _getitem(a: Tensor, index) -> Tensor:
    data = a.data[index]
    shape, dtype = a.data.shape, a.data.dtype

    def bwd(g):
        full = np.zeros(shape, dtype)
        np.add.at(full, index, g)
        return (full,)

    return _make(data, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = _accum_sum(a.data, axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(data, (a,), bwd)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    s = sum_(a, axis=axis, keepdims=keepdims)
    # s.size / a.size is 1 / count, whatever the axes and keepdims
    return mul(s, _wrap(s.size / a.size))


# ---------------------------------------------------------------------------
# fused ops
# ---------------------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    data = e / _accum_sum(e, axis=axis, keepdims=True)

    def bwd(g):
        inner = _accum_sum(g * data, axis=axis, keepdims=True)
        return (data * (g - inner),)

    return _make(data, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    c = x.data.shape[-1]
    if gain.data.shape != (c,) or bias.data.shape != (c,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} do not match last axis {c}"
        )
    # row statistics reduce over channels only, so they run in the storage dtype
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.square(xhat).mean(axis=-1, keepdims=True)
    var += 1e-5  # keeps a constant row finite
    inv = np.sqrt(var, out=var)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    w = gain.data
    data = xhat * w + bias.data

    def bwd(g):
        dgain = _accum_sum(g * xhat, axis=tuple(range(g.ndim - 1)), keepdims=False)
        dbias = _accum_sum(g, axis=tuple(range(g.ndim - 1)), keepdims=False)
        dxhat = g * w
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = dxhat - dxhat.mean(axis=-1, keepdims=True)
        dx -= xhat * m2
        dx *= inv
        return dx, dgain, dbias

    return _make(data, (x, gain, bias), bwd)
