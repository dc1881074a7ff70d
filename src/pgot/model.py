"""Full model assembly: lifting encoder, stacked pre-norm residual blocks,
decoding head, and the binary checkpoint format."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import engine, geometry
from .attention import DenseAttention, SpecGeoAttention
from .engine import Rng, Tensor
from .errors import ConfigError, DataError, NumericalError
from .ffn import GATE_FORCE_MODES, PlainFFN, TaylorDecompFFN
from .formats import SEED_BOUNDS, check_values, create_record, open_record, read_exact, read_f32, read_json_object
from .formats import read_u32, require_object, write_f32, write_u32
from .geometry import normalize_coords
from .layers import LayerNorm, Mlp2, Module

CHECKPOINT_MAGIC = b"PGCK"
CHECKPOINT_VERSION = 1

# (kind, low[, high]) of every ModelConfig field but gate_force, which must be in GATE_FORCE_MODES. The size
# bounds sit far above the paper's models and refuse what cannot be built: scale s multiplies coordinates by
# 10^(s-1), and past 24 frequencies 2^k * pi * g is a multiple of pi for float32 coordinates g >= 0.5
FIELD_BOUNDS = dict.fromkeys(("width", "heads", "d_a", "d_u"), (int, 1, 1025))
FIELD_BOUNDS.update(layers=(int, 1, 33), slices=(int, 2, 1025), scales=(int, 1, 9), d=(int, 1, 17))
FIELD_BOUNDS.update(pe_frequencies=(int, 1, 25), dropout=(float, 0.0, 1.0), seed=SEED_BOUNDS)
FIELD_BOUNDS.update(dict.fromkeys(("disable_sga", "disable_tdf", "dense_attention"), (bool,)))


@dataclass
class ModelConfig:
    layers: int = 2
    width: int = 32
    slices: int = 8
    scales: int = 2
    heads: int = 2
    d: int = 2
    d_a: int = 1
    d_u: int = 1
    dropout: float = 0.0
    disable_sga: bool = False
    disable_tdf: bool = False
    gate_force: str | None = None
    pe_frequencies: int = 8
    seed: int = 0
    # benchmark-only switch: replace slice attention by dense N^2 attention
    dense_attention: bool = False

    def validate(self) -> "ModelConfig":
        _check_fields(vars(self))
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if self.gate_force not in GATE_FORCE_MODES:
            raise ConfigError(f"unknown gate_force {self.gate_force!r}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        _check_fields(require_object(data, '"model"', ConfigError))  # before an unknown name reaches cls()
        return cls(**data).validate()

    def hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _check_fields(values: dict) -> None:
    check_values({k: v for k, v in values.items() if k != "gate_force"}, FIELD_BOUNDS, error=ConfigError)


class PhysGeoBlock(Module):
    """Pre-norm residual pair: slice attention then gated feed-forward."""

    def __init__(self, rng: Rng, config: ModelConfig, gate_in_dim: int):
        self.ln1 = LayerNorm(config.width)
        if config.dense_attention:
            self.attn = DenseAttention(rng, config.width, config.heads)
        else:
            self.attn = SpecGeoAttention(
                rng,
                config.d,
                config.width,
                config.slices,
                config.heads,
                config.scales,
                use_geometry=not config.disable_sga,
            )
        self.ln2 = LayerNorm(config.width)
        if config.disable_tdf:
            self.ffn = PlainFFN(rng, config.width)
        else:
            self.ffn = TaylorDecompFFN(
                rng,
                config.width,
                gate_in_dim,
                dropout_rate=config.dropout,
                gate_force=config.gate_force,
            )

    def __call__(self, x: Tensor, coords_norm: np.ndarray, gate_feats: Tensor, rng: Rng, training: bool) -> Tensor:
        x = x + self.attn(self.ln1(x), coords_norm)
        x = x + self.ffn(self.ln2(x), gate_feats, rng, training)
        return x


class PgotModel(Module):
    """Operator network mapping (input field, coordinates) to an output field."""

    ITEM = "block"

    def __init__(self, config: ModelConfig):
        self.config = config.validate()
        rng = Rng(config.seed)
        pe_dim = config.d * (2 * config.pe_frequencies + 1)
        self.lift = Mlp2(rng, config.d_a + pe_dim, config.width, config.width)
        self.blocks = [PhysGeoBlock(rng, config, pe_dim) for _ in range(config.layers)]
        self.decoder = Mlp2(rng, config.width, config.width, config.d_u)
        self._dropout_rng = Rng(config.seed ^ 0x5EED)

    def inspect(self, a: np.ndarray, coords: np.ndarray) -> dict[str, np.ndarray]:
        """One ``predict``'s slice assignment (N, M) and gate (N, width) of each block, as
        ``layer{i}_assignment`` and ``layer{i}_gate`` in block order.

        Layers without one (dense attention, plain FFN) give no key. The layers keep
        nothing afterwards, whether ``predict`` returns or raises.
        """
        kept = self.inspected_layers()
        try:
            for layer, _ in kept.values():
                layer.cache_enabled = True
            self.predict(a, coords)
            return {key: getattr(layer, attr) for key, (layer, attr) in kept.items()}
        finally:
            for layer, attr in kept.values():
                layer.cache_enabled = False
                setattr(layer, attr, None)

    def inspected_layers(self) -> dict:
        """``inspect``'s keys, in its order, each -> (layer, the attribute that holds its array)."""
        kept = {}
        for i, block in enumerate(self.blocks):
            for kind, layer, attr in (("assignment", block.attn, "last_assignment"), ("gate", block.ffn, "last_gate")):
                if hasattr(layer, "cache_enabled"):
                    kept[f"layer{i}_{kind}"] = (layer, attr)
        return kept

    def embed(self, coords_norm: np.ndarray) -> np.ndarray:
        """Coordinate features fed to the lift and to every FFN gate."""
        return geometry.pos_embed(coords_norm, self.config.pe_frequencies)

    def predict(self, a: np.ndarray, coords: np.ndarray, training: bool = False) -> Tensor:
        """Output field (N, d_u) for an input field ``a`` (N, d_a), or (B, N, d_u) for a stack
        (B, N, d_a) of fields on the same (N, d) ``coords``.

        Every axis counts from the end, so the coordinate work runs once for the stack, and each
        stacked field gets the bits of its own 2-D ``predict``. Dropout acts only with ``training``.
        """
        a = np.asarray(a)
        if a.ndim not in (2, 3) or a.shape[-1] != self.config.d_a:
            raise ConfigError(
                f"input field shape {a.shape} is not (N, d_a) or (B, N, d_a) with d_a={self.config.d_a}"
            )
        coords = np.asarray(coords)
        if a.size == 0 or coords.shape != (a.shape[-2], self.config.d):
            raise ConfigError(
                f"coordinates {coords.shape} do not match input field {a.shape} with d={self.config.d}"
            )
        coords_norm = normalize_coords(coords)
        pe_t = Tensor(self.embed(coords_norm))
        # a stack repeats the float32 features per field; held in `x`, that copy dies with the lift
        x = pe_t if a.ndim == 2 else Tensor(np.broadcast_to(pe_t.data, (*a.shape[:-1], pe_t.shape[-1])))
        x = self.lift(engine.concat([Tensor(a), x], axis=-1))
        for index, block in enumerate(self.blocks):
            x = block(x, coords_norm, pe_t, self._dropout_rng, training)
            if not np.all(np.isfinite(x.data)):
                raise NumericalError(f"non-finite activations after block {index}", layer=index)
        out = self.decoder(x)
        if not np.all(np.isfinite(out.data)):
            raise NumericalError("non-finite activations in decoder", layer=len(self.blocks))
        return out

    def zero_grad(self) -> None:
        for _, p in self.parameters():
            p.grad = None


def check_dims(config: ModelConfig, samples) -> None:
    """Refuse samples whose coordinate, input or target width differs from the config."""
    for index, s in enumerate(samples):
        widths = {"d": s.coords.shape[1], "d_a": s.input.shape[1], "d_u": s.target.shape[1]}
        wrong = [f"{k} (config {getattr(config, k)}, data {n})" for k, n in widths.items() if n != getattr(config, k)]
        if wrong:
            raise ConfigError(f"config/data dimension mismatch in sample {index}: " + "; ".join(wrong))


# ---------------------------------------------------------------------------
# checkpoint format: magic "PGCK", version u32, config JSON, named tensors
# ---------------------------------------------------------------------------


def save_checkpoint(model: PgotModel, path) -> None:
    """Atomic, as every container write: a failed save leaves ``path`` as it was."""
    params = model.parameters()
    with create_record(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as fh:
        config_bytes = json.dumps(model.config.to_dict(), sort_keys=True).encode()
        write_u32(fh, len(config_bytes))
        fh.write(config_bytes)
        write_u32(fh, len(params))
        for name, p in params:
            name_bytes = name.encode()
            write_u32(fh, len(name_bytes))
            fh.write(name_bytes)
            write_u32(fh, p.data.ndim, *p.data.shape)
            write_f32(fh, p.data)


def load_checkpoint(path) -> PgotModel:
    """Tensors come in ``model.parameters()`` order, with its names and shapes and finite payloads."""
    with open_record(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as fh:
        (config_len,) = read_u32(fh, 1, "config length")
        raw = read_json_object(read_exact(fh, config_len, "config"), "checkpoint config")
        model = PgotModel(ModelConfig.from_dict(raw))
        params = model.parameters()
        (count,) = read_u32(fh, 1, "tensor count")
        if count != len(params):
            raise DataError(f"checkpoint has {count} tensors, model expects {len(params)}")
        for name, p in params:
            (name_len,) = read_u32(fh, 1, "name length")
            stored = read_exact(fh, name_len, "name")
            (rank,) = read_u32(fh, 1, "rank")
            shape = read_u32(fh, rank, "dims")
            if stored != name.encode() or shape != p.data.shape:
                raise DataError(f"checkpoint tensor {stored!r:.60} {shape} is not the model's {name!r} {p.data.shape}")
            arr = read_f32(fh, shape, f"tensor {name}")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"checkpoint tensor {name!r} contains NaN/Inf")
            p.data[...] = arr
    return model
