"""Loss, metrics, AdamW, and the training/evaluation loops."""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import engine
from .data import NormStats, Sample, denormalize, normalize
from .engine import Tape, Tensor
from .errors import ConfigError, MetricError, NumericalError
from .formats import check_values
from .model import ModelConfig, PgotModel, check_dims, save_checkpoint


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _reference_norm(u: np.ndarray) -> float:
    """Float64 L2 norm by numpy's sum, not the BLAS, whose bits follow its thread count; zero raises MetricError."""
    norm = math.sqrt(np.sum(np.square(u, dtype=np.float64)))
    if norm == 0.0:
        raise MetricError("relative L2 undefined for an all-zero reference field")
    return norm


def relative_l2(u: np.ndarray, u_hat: np.ndarray) -> float:
    """||u - u_hat|| / ||u|| over the flattened field, both norms summed as ``_reference_norm`` sums."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    u_hat = np.asarray(u_hat, dtype=np.float64).reshape(-1)
    if u.shape != u_hat.shape:
        raise ConfigError(f"field shapes differ: {u.shape} vs {u_hat.shape}")
    return float(math.sqrt(np.sum(np.square(u - u_hat))) / _reference_norm(u))


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
    diff = pred - Tensor(target)
    sq = engine.sum_(diff * diff)
    return engine.sqrt(sq) * (1.0 / _reference_norm(target))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator guard


class AdamW:
    """Adam with decoupled weight decay; each ``p.data`` becomes a view of one flat vector."""

    def __init__(self, params, weight_decay: float = 0.0):
        self.params = list(params)  # list of (name, Tensor)
        self.weight_decay = weight_decay
        self.step_count = 0
        self.flat = np.concatenate([p.data.ravel() for _, p in self.params])
        self._ends = list(itertools.accumulate(p.size for _, p in self.params))
        for (_, p), a, b in zip(self.params, [0, *self._ends], self._ends):
            p.data = self.flat[a:b].reshape(p.shape)
        self.m, self.v = np.zeros(self.flat.size), np.zeros(self.flat.size)

    def step(self, lr: float, max_norm: float = math.inf) -> float:
        """Clip the gradients jointly to ``max_norm``, apply and clear them; return their norm before clipping."""
        lr = float(lr)
        grads = [np.zeros(p.size) if p.grad is None else p.grad.ravel() for _, p in self.params]
        g = np.concatenate(grads, dtype=self.flat.dtype)  # a missing gradient reads as zeros
        if not np.isfinite(g).all():
            name = self.params[np.searchsorted(self._ends, np.argmin(np.isfinite(g)), side="right")][0]
            raise NumericalError(f"NaN/Inf gradient for parameter {name}", param=name)
        # all that can raise comes before the first write, so a failed step changes nothing
        norm = clip_grad_norm(g, self._ends, max_norm)
        g = g.astype(np.float64, copy=False)  # the moments update in float64
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
        for _, p in self.params:
            p.grad = None
        return norm


def clip_grad_norm(grads: np.ndarray, ends, max_norm: float) -> float:
    """Scale ``grads`` in place to norm <= ``max_norm``; return the norm before. ``ends`` splits it by parameter."""
    squares = np.square(grads, dtype=np.float64)
    # one sum per parameter, added in list order, keeps the per-tensor loop's bits; np.add.reduceat does not
    norm = math.sqrt(np.cumsum([squares[a:b].sum() for a, b in zip([0, *ends], ends)])[-1])
    if norm > max_norm and norm > 0.0:
        grads *= max_norm / norm  # in the storage dtype, as each gradient was once scaled on its own
    return norm


# (kind, low) of each value train() takes from a config's "training" object; none has a high bound
TRAINING_BOUNDS = {"steps": (int, 1), **dict.fromkeys(("lr", "weight_decay", "clip_norm"), (float, 0.0))}


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

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------


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
    train set: one ``AdamW.step`` clips the gradients to a global norm of
    ``clip_norm``, applies them and clears them. With a
    ``checkpoint_path``, each epoch ends with an evaluation on the train set
    and the checkpoint is written at the best one; without one, only the
    last step is evaluated. The report gives the last.
    """
    if not samples:
        raise ConfigError("training requires a non-empty dataset")
    values = {"steps": steps, "lr": lr, "weight_decay": weight_decay, "clip_norm": clip_norm}
    check_values(values, TRAINING_BOUNDS, "training ", ConfigError)
    model = PgotModel(config)
    check_dims(config, samples)
    opt = AdamW(model.parameters(), weight_decay=weight_decay)
    norm_in, norm_out = (stats.input_mean, stats.input_std), (stats.target_mean, stats.target_std)
    views = [(normalize(s.input, *norm_in), s.coords, normalize(s.target, *norm_out)) for s in samples]
    report = RunReport(config_hash=config.hash(), seed=config.seed, steps=steps)
    start = time.perf_counter()
    best_eval = math.inf
    n = len(views)
    epoch_losses = []
    engine.reset_alloc_stats()  # perfbench's train_poisson16 reads the counters per run
    for step in range(steps):
        a_norm, coords, u_norm = views[step % n]
        with Tape() as tape:
            pred = model.predict(a_norm, coords, training=True)
            loss = relative_l2_loss(pred, u_norm)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericalError(f"loss became non-finite at step {step}, on sample {step % n}")
            tape.backward(loss)
        opt.step(cosine_lr(step, steps, lr), clip_norm)
        epoch_losses.append(value)
        if (step + 1) % n == 0 or step == steps - 1:
            report.epoch_losses.append(float(np.mean(epoch_losses)))
            epoch_losses = []
        # an evaluation only picks which epoch the checkpoint holds, so without one only the last is needed
        if step == steps - 1 or (checkpoint_path is not None and (step + 1) % n == 0):
            metrics = evaluate(model, samples, stats)
            if checkpoint_path is not None and metrics["rel_l2"] < best_eval:
                best_eval = metrics["rel_l2"]
                save_checkpoint(model, checkpoint_path)
    report.wall_time_s = time.perf_counter() - start
    # the last step is always evaluated, so `metrics` holds the final parameters' scores
    report.final_train_rel_l2 = metrics["rel_l2"]
    report.eval_spearman = metrics["spearman"]
    return model, report


# the most points one evaluation pass stacks: its peak stays at one N=8192 predict, and the speed-up
# of stacking levels off by about 2048 points
EVAL_POINTS = 8192


def evaluate(model: PgotModel, samples: list[Sample], stats: NormStats) -> dict:
    """Mean denormalized relative L2 plus a scalar-functional Spearman rank.

    Samples that share their coordinates are predicted together, as one
    stack per forward pass; each keeps the bits of its own ``predict``.
    The rank functional is the per-sample mean target vs mean prediction;
    Spearman is reported as None when fewer than 3 samples are given or
    when all per-sample means tie.
    """
    if not samples:
        raise ConfigError("evaluation requires a non-empty dataset")
    check_dims(model.config, samples)
    # keyed by the input's shape too, so a field whose length differs from its mesh's reaches predict's check
    meshes = {}
    for index, s in enumerate(samples):
        key = (s.coords.dtype.str, s.coords.shape, s.coords.tobytes(), s.input.shape)
        meshes.setdefault(key, []).append(index)
    preds_norm = [None] * len(samples)
    for group in meshes.values():
        coords = samples[group[0]].coords
        per_pass = max(1, EVAL_POINTS // len(coords))
        for start in range(0, len(group), per_pass):
            chunk = group[start : start + per_pass]
            a_norm = np.stack([normalize(samples[i].input, stats.input_mean, stats.input_std) for i in chunk])
            for i, pred_norm in zip(chunk, model.predict(a_norm, coords).data):
                preds_norm[i] = pred_norm
    errors = []
    mean_true = []
    mean_pred = []
    for index, (s, pred_norm) in enumerate(zip(samples, preds_norm)):
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
