"""Loss, metrics, AdamW, and the training/evaluation loops."""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import engine
from .data import NormStats, Sample, check_value, denormalize, normalize
from .engine import Tape, Tensor
from .errors import ConfigError, MetricError, NumericalError
from .model import ModelConfig, PgotModel, check_dims, save_checkpoint


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def relative_l2(u: np.ndarray, u_hat: np.ndarray) -> float:
    """||u - u_hat|| / ||u|| over the flattened field."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    u_hat = np.asarray(u_hat, dtype=np.float64).reshape(-1)
    if u.shape != u_hat.shape:
        raise ConfigError(f"field shapes differ: {u.shape} vs {u_hat.shape}")
    denom = np.linalg.norm(u)
    if denom == 0.0:
        raise MetricError("relative L2 undefined for an all-zero reference field")
    return float(np.linalg.norm(u - u_hat) / denom)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged, as scipy.stats.rankdata; importing scipy.stats adds ~34 MiB RSS."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


def spearman(c: np.ndarray, c_hat: np.ndarray) -> float:
    """Pearson correlation of average-rank vectors (tie-aware)."""
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    c_hat = np.asarray(c_hat, dtype=np.float64).reshape(-1)
    if c.shape != c_hat.shape:
        raise ConfigError(f"rank inputs differ in length: {c.shape} vs {c_hat.shape}")
    if len(c) < 3:
        raise MetricError(f"spearman needs at least 3 values, got {len(c)}")
    ra, rb = _average_ranks(c), _average_ranks(c_hat)
    sa, sb = ra.std(), rb.std()
    if sa == 0.0 or sb == 0.0:
        raise MetricError("spearman undefined when all values are tied")
    if np.array_equal(ra, rb):
        return 1.0
    if np.array_equal(ra + rb, np.full(len(ra), len(ra) + 1.0)):
        return -1.0
    rho = float(np.mean((ra - ra.mean()) * (rb - rb.mean())) / (sa * sb))
    return min(1.0, max(-1.0, rho))


def relative_l2_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Differentiable relative L2; the reference norm is a constant."""
    target = np.asarray(target)
    denom = float(np.linalg.norm(target.astype(np.float64)))
    if denom == 0.0:
        raise MetricError("relative L2 undefined for an all-zero reference field")
    diff = pred - engine.constant(target)
    sq = engine.sum_(diff * diff)
    return engine.sqrt(sq) * (1.0 / denom)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator guard


class AdamW:
    """Adam with decoupled weight decay; each ``p.data`` becomes a view of one flat vector."""

    def __init__(self, params, lr: float = 1e-3, weight_decay: float = 0.0):
        self.params = list(params)  # list of (name, Tensor)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.flat = np.concatenate([p.data.ravel() for _, p in self.params])
        self._ends = list(itertools.accumulate(p.size for _, p in self.params))
        for (_, p), a, b in zip(self.params, [0, *self._ends], self._ends):
            p.data = self.flat[a:b].reshape(p.shape)
        self.m, self.v = np.zeros(self.flat.size), np.zeros(self.flat.size)

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def step(self, lr: float | None = None):
        lr = float(self.lr if lr is None else lr)
        g = _flat_grads(self.params)
        if not np.isfinite(g).all():
            name = self.params[np.searchsorted(self._ends, np.argmin(np.isfinite(g)), side="right")][0]
            raise NumericalError(f"NaN/Inf gradient for parameter {name}", param=name)
        # all that can raise comes before the first write, so a failed step changes nothing
        decay = np.asarray(1.0 - lr * self.weight_decay, dtype=self.flat.dtype)
        self.step_count += 1
        bc1, bc2 = 1.0 - BETA1**self.step_count, 1.0 - BETA2**self.step_count
        self.m *= BETA1
        self.m += (1.0 - BETA1) * g
        self.v *= BETA2
        self.v += (1.0 - BETA2) * g * g
        self.flat *= decay  # exact when weight_decay is 0
        update = (self.m / bc1) / (np.sqrt(self.v / bc2) + EPS)
        self.flat[:] = self.flat - lr * update


def _flat_grads(params) -> np.ndarray:
    """All gradients as one float64 vector in list order; a missing gradient reads as zeros."""
    return np.concatenate([np.zeros(p.size) if p.grad is None else p.grad.ravel() for _, p in params], dtype=np.float64)


def clip_grad_norm(params, max_norm: float) -> float:
    squares, ends = _flat_grads(params) ** 2, list(itertools.accumulate(p.size for _, p in params))
    # one sum per parameter, added in list order, keeps the per-tensor loop's bits; np.add.reduceat does not
    norm = math.sqrt(np.cumsum([squares[a:b].sum() for a, b in zip([0, *ends], ends)])[-1])
    if norm > max_norm and norm > 0.0:
        for _, p in params:
            if p.grad is not None:
                p.grad = (p.grad * (max_norm / norm)).astype(p.grad.dtype)
    return norm


# the kind and low bound of each value train() takes from a config's "training" object; none has a high one
TRAINING_BOUNDS = {"steps": (int, 1), **dict.fromkeys(("lr", "weight_decay", "clip_norm"), (float, 0.0))}


def check_training_values(**values) -> None:
    """Refuse an unknown training key, or a value of the wrong kind or outside its ``TRAINING_BOUNDS``."""
    for key, value in values.items():
        if key not in TRAINING_BOUNDS:
            raise ConfigError(f"unknown training field {key!r:.40}; choose from {sorted(TRAINING_BOUNDS)}")
        check_value(f"training {key}", value, *TRAINING_BOUNDS[key], error=ConfigError)


def cosine_lr(step: int, total_steps: int, lr: float) -> float:
    """Cosine decay from lr to lr/10 over the run."""
    lr_final = lr / 10.0
    if total_steps <= 1:
        return lr
    t = min(step, total_steps - 1) / (total_steps - 1)
    return lr_final + 0.5 * (lr - lr_final) * (1.0 + math.cos(math.pi * t))


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    config_hash: str
    seed: int
    steps: int
    epoch_losses: list = field(default_factory=list)
    final_train_rel_l2: float | None = None
    eval_spearman: float | None = None
    wall_time_s: float | None = None
    peak_alloc_bytes: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------


def _normalized_views(samples: list[Sample], stats: NormStats):
    views = []
    for s in samples:
        views.append(
            (
                normalize(s.input, stats.input_mean, stats.input_std),
                s.coords,
                normalize(s.target, stats.target_mean, stats.target_std),
            )
        )
    return views


def train(
    config: ModelConfig,
    samples: list[Sample],
    stats: NormStats,
    steps: int = 2000,
    lr: float = 1e-3,
    weight_decay: float = 1e-4,
    clip_norm: float = 5.0,
    checkpoint_path=None,
) -> tuple[PgotModel, RunReport]:
    """Step-based training on the relative-L2 loss with cosine lr decay.

    One step is one optimizer update on one sample, cycling through the
    train set. With a ``checkpoint_path``, each epoch ends with an evaluation
    on the train set and the checkpoint is written at the best one; without
    one, only the last step is evaluated. The report gives the last.
    """
    if not samples:
        raise ConfigError("training requires a non-empty dataset")
    check_training_values(steps=steps, lr=lr, weight_decay=weight_decay, clip_norm=clip_norm)
    model = PgotModel(config)
    check_dims(config, samples)
    model.training = True
    opt = AdamW(model.parameters(), lr=lr, weight_decay=weight_decay)
    views = _normalized_views(samples, stats)
    report = RunReport(config_hash=config.hash(), seed=config.seed, steps=steps)
    start = time.perf_counter()
    best_eval = math.inf
    n = len(views)
    epoch_losses = []
    engine.reset_alloc_stats()
    for step in range(steps):
        a_norm, coords, u_norm = views[step % n]
        with Tape() as tape:
            pred = model.predict(a_norm, coords)
            loss = relative_l2_loss(pred, u_norm)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericalError(f"loss became non-finite at step {step}, on sample {step % n}")
            tape.backward(loss)
        clip_grad_norm(opt.params, clip_norm)
        opt.step(lr=cosine_lr(step, steps, lr))
        opt.zero_grad()
        epoch_losses.append(value)
        if (step + 1) % n == 0 or step == steps - 1:
            report.epoch_losses.append(float(np.mean(epoch_losses)))
            epoch_losses = []
        # an evaluation only picks which epoch the checkpoint holds, so without one only the last is needed
        if step == steps - 1 or (checkpoint_path is not None and (step + 1) % n == 0):
            model.training = False
            metrics = evaluate(model, samples, stats)
            model.training = True
            if checkpoint_path is not None and metrics["rel_l2"] < best_eval:
                best_eval = metrics["rel_l2"]
                save_checkpoint(model, checkpoint_path)
    model.training = False
    report.peak_alloc_bytes = engine.alloc_stats()["bytes"]
    report.wall_time_s = time.perf_counter() - start
    # the last step is always evaluated, so `metrics` holds the final parameters' scores
    report.final_train_rel_l2 = metrics["rel_l2"]
    report.eval_spearman = metrics["spearman"]
    return model, report


def evaluate(model: PgotModel, samples: list[Sample], stats: NormStats) -> dict:
    """Mean denormalized relative L2 plus a scalar-functional Spearman rank.

    The rank functional is the per-sample mean target vs mean prediction;
    Spearman is reported as None when fewer than 3 samples are given.
    """
    if not samples:
        raise ConfigError("evaluation requires a non-empty dataset")
    check_dims(model.config, samples)
    errors = []
    mean_true = []
    mean_pred = []
    for index, s in enumerate(samples):
        a_norm = normalize(s.input, stats.input_mean, stats.input_std)
        pred_norm = model.predict(a_norm, s.coords).data
        pred = denormalize(pred_norm, stats.target_mean, stats.target_std)
        # finite model outputs can still overflow here, through huge target stats
        if not np.all(np.isfinite(pred)):
            raise NumericalError(f"non-finite denormalized prediction for sample {index}")
        errors.append(relative_l2(s.target, pred))
        mean_true.append(float(s.target.mean()))
        mean_pred.append(float(pred.mean()))
    try:
        rho = spearman(np.asarray(mean_true), np.asarray(mean_pred))
    except MetricError:
        rho = None
    return {"rel_l2": float(np.mean(errors)), "spearman": rho}
