"""The three benchmark workloads.

Each is a closed loop with a single caller: the next unit starts when the
previous one has returned. A workload takes its seed, builds its inputs from
it, sets up and runs one warm-up unit several times (the median is
``setup_s``), runs timed units for the given number of seconds, and then
checks its outputs outside the timed phase. Times are kept as clock
readings; the host-speed calibration (``hostspeed.py``) runs right before
every timed unit and around every set-up, and scales them afterwards.

In a traced run tracing is switched on for every other block of units (one
unit, or one epoch when training), so that the traced and the untraced
throughput are measured in the same process; their difference is the
tracing overhead.
"""

from __future__ import annotations

import math
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pgot import data, engine, model, training
from pgot.model import ModelConfig, PgotModel

from hostspeed import HostClock
from tracer import OUTSIDE, SETUP, Tracer

# README desk configuration
DESK = dict(layers=2, width=32, slices=8, scales=2, heads=2)

TRAIN_RESOLUTION = 16
TRAIN_SAMPLES = 8
# Criterion 1's dataset (also the README quick start's) and a fixed pool of
# model inits. Epochs to the target vary about threefold between datasets
# (45 to 137 measured) and by nearly two between inits (55 to 101 over 40);
# the median of four seed-drawn inits still spread 13% between runs, so
# this workload's inputs do not depend on the seed.
TRAIN_DATA_SEED = 7
TRAIN_STEPS = 2000  # the README's schedule length; a training ends at the target
# inits per run, model seeds 0-2; time_to_target_s is the median over them.
# Three keep a run near a minute.
TRAININGS = 3
TARGET_REL_L2 = 0.2  # criterion 1's task: time until an epoch evaluates below this
CLOUD_POINTS = 8192
CLOUD_TARGET_UNITS = 20  # gradients delivered by time_to_target_s
STREAM_POINTS = 2048
STREAM_TARGET_UNITS = 200  # predictions delivered by time_to_target_s
STREAM_SAMPLES = 768  # more than a 20-second run reads
GEN_CHUNK = 64  # a power of two; the host is calibrated between chunks

clock = time.perf_counter


@dataclass
class Result:
    """What one workload run measured.

    Times are kept as ``(start, end)`` clock readings; ``run.py`` turns them
    into seconds with the run's ``HostClock``, scaled or raw.
    """

    n: int  # mesh points per unit
    config_hashes: list  # ``ModelConfig.hash()`` of each model run
    host: HostClock = field(init=False)  # calibrated with the kernel at ``n`` rows
    setup_parts: list = field(default_factory=list)  # per set-up: its spans
    target_parts: list = field(default_factory=list)  # per time to target: its spans
    unit_spans: list = field(default_factory=list)  # one span per timed unit
    traced: list = field(default_factory=list)  # per timed unit: tracing was on
    timed_spans: list = field(default_factory=list)  # the timed phase
    setup_end: float = 0.0  # clock reading when the last set-up ended
    failed: int = 0
    checks: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)  # per-layer metrics measured here
    notes: dict = field(default_factory=dict)  # recorded with the result

    def __post_init__(self):
        self.host = HostClock(self.n)

    @property
    def units(self) -> int:
        return len(self.unit_spans)


def _seed_base(seed: int) -> int:
    # the generators derive sample i from ``base ^ i``; shifting keeps the
    # sample sets of different seeds disjoint
    return seed << 16


def _live_peak(fn) -> int:
    """Peak bytes allocated and still live while ``fn`` runs (tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _alloc_per_unit(before: dict, after: dict, units: int) -> dict:
    units = max(units, 1)
    return {
        "engine.alloc_bytes": (after["bytes"] - before["bytes"]) / units,
        "engine.alloc_count": (after["count"] - before["count"]) / units,
        "engine.max_single_bytes": float(after["max_single"]),
    }


def _timed_loop(unit, seconds: float, target: int, tracer: Tracer | None, result: Result, limit: float = math.inf):
    """Run ``unit(i)`` until ``seconds`` have passed or ``limit`` units ran.

    At least ``target`` units run; the time from the end of set-up to the
    end of unit ``target`` is the time to target.
    """
    host = result.host
    start = clock()
    i = 0
    while i < limit and (i < target or clock() - start < seconds):
        on = tracer is not None and i % 2 == 1
        if tracer is not None:
            tracer.set_enabled(on)
            tracer.unit = i if on else OUTSIDE
        host.calibrate()
        t0 = clock()
        unit(i)
        end = clock()
        result.unit_spans.append((t0, end))
        result.traced.append(on)
        i += 1
        if i == target:
            result.target_parts.append([(result.setup_end, end)])
    result.timed_spans.append((start, end))
    host.calibrate()
    if tracer is not None:
        tracer.set_enabled(False)
        tracer.unit = OUTSIDE


def _repeat_setup(setup, warmup, repeats: int, tracer: Tracer | None, result: Result):
    """Set up and warm up ``repeats`` times; return the last set-up's state.

    Set-up time is everything before the first timed unit: the set-up and
    the warm-up unit that follows it. The host is calibrated before, between
    and after them.
    """
    state = None
    for _ in range(repeats):
        state = None  # drop the previous set-up before building the next
        result.host.calibrate()
        if tracer is not None:
            tracer.set_enabled(True)
            tracer.unit = SETUP
        t0 = clock()
        state = setup()
        result.setup_end = clock()
        if tracer is not None:
            tracer.unit = OUTSIDE
        result.host.calibrate()
        warmup(state)
        result.setup_parts.append([(t0, clock())])
        if tracer is not None:
            tracer.set_enabled(False)
    result.host.calibrate()
    return state


# ---------------------------------------------------------------------------
# train_poisson16
# ---------------------------------------------------------------------------


class _TargetReached(Exception):
    """Raised from the evaluate hook to end a training at its target."""


class _TrainClock:
    """Hooks ``AdamW.step`` and ``evaluate`` while ``train`` runs.

    A unit is the interval between successive ``AdamW.step`` returns. The
    first per-epoch evaluation below the target ends the training. In a
    traced run tracing is switched at epoch boundaries, every other epoch on.
    """

    def __init__(self, epoch: int, tracer: Tracer | None, host: HostClock):
        self.epoch = epoch
        self.tracer = tracer
        self.host = host
        self.begin()

    def __enter__(self):
        self._step = training.AdamW.__dict__["step"]
        self.evaluate = training.__dict__["evaluate"]
        step, evaluate, hook = self._step, self.evaluate, self

        def timed_step(opt, *args, **kwargs):
            out = step(opt, *args, **kwargs)
            hook._stepped()
            return out

        def timed_evaluate(net, *args, **kwargs):
            metrics = evaluate(net, *args, **kwargs)
            hook.evals.append((clock(), metrics["rel_l2"]))
            if metrics["rel_l2"] < TARGET_REL_L2:
                hook.model = net
                raise _TargetReached
            return metrics

        training.AdamW.step = timed_step
        training.evaluate = timed_evaluate
        return self

    def __exit__(self, *exc):
        self._tracing(False, OUTSIDE)
        training.AdamW.step = self._step
        training.evaluate = self.evaluate
        return False

    def begin(self) -> None:
        """Start timing a new training, with tracing off."""
        self.returns: list[float] = []
        self.on_after: list[bool] = []  # tracing state from each return on
        self.evals: list[tuple[float, float]] = []  # (time, rel_l2)
        self.model = None  # the model that first evaluated below the target
        self._tracing(False, OUTSIDE)

    def _tracing(self, on: bool, unit: int) -> None:
        if self.tracer is not None:
            self.tracer.set_enabled(on)
            self.tracer.unit = unit

    def _stepped(self) -> None:
        self.returns.append(clock())
        done = len(self.returns)
        on = (done // self.epoch) % 2 == 1
        if done % self.epoch == 0:
            self._tracing(on, OUTSIDE)
        if self.tracer is not None:
            self.tracer.unit = done if on else OUTSIDE
        self.on_after.append(on)
        self.host.calibrate()


def train_config(index: int) -> ModelConfig:
    """Model of training ``index``: the desk configuration, init from the pool."""
    return ModelConfig(**DESK, seed=index % TRAININGS).validate()


def train_samples() -> list:
    """Criterion 1's training set: 8 Poisson samples on a 16 x 16 grid."""
    return data.gen_poisson2d(TRAIN_DATA_SEED, TRAIN_RESOLUTION, TRAIN_SAMPLES)


def _check_training(hook: _TrainClock, samples, stats, ckpt: Path) -> dict:
    """Re-evaluate the model that met the target, and the checkpoint on disk,
    with the unhooked ``evaluate``.

    ``train`` writes the checkpoint at each new best evaluation; the
    evaluation that met the target ended the run before its write, so the
    checkpoint holds the best of the earlier ones.
    """
    checks = {"target_reached": hook.model is not None}
    if hook.model is None:
        return checks
    hit = hook.evals[-1][1]
    again = hook.evaluate(hook.model, samples, stats)["rel_l2"]
    checks["target_model_reevaluates_equal"] = math.isfinite(again) and again == hit < TARGET_REL_L2
    earlier = [rel for _, rel in hook.evals[:-1]]
    if earlier:
        reloaded = hook.evaluate(model.load_checkpoint(ckpt), samples, stats)["rel_l2"]
        checks["checkpoint_reproduces_best_eval"] = reloaded == min(earlier)
    return checks


def train_poisson16(seed: int, seconds: float, tracer: Tracer | None, workdir: Path) -> Result:
    """Train to the target from each init of the pool; the seed is unused."""
    result = Result(n=TRAIN_RESOLUTION**2, config_hashes=[])
    epochs = result.notes["epochs_to_target"] = []
    alloc = {"bytes": 0, "count": 0, "max_single": 0}
    steps_run = 0

    def setup():
        out_dir = Path(tempfile.mkdtemp(dir=workdir))
        data.write_dataset(train_samples(), out_dir, task="poisson2d")
        # read back as ``pgot train`` does
        samples, manifest = data.read_dataset(out_dir)
        return samples, data.NormStats.from_dict(manifest["normalization"]), out_dir / "checkpoint.pgck"

    with _TrainClock(TRAIN_SAMPLES, tracer, result.host) as hook:
        start = clock()
        index = 0
        while index < TRAININGS or clock() - start < seconds:
            # the warm-up step runs inside ``train``; it is added below
            samples, stats, ckpt = _repeat_setup(setup, lambda state: None, 1, tracer, result)
            config = train_config(index)
            result.config_hashes.append(config.hash())
            hook.begin()
            t0 = clock()
            try:
                training.train(config, samples, stats, steps=TRAIN_STEPS, checkpoint_path=ckpt)
            except _TargetReached:
                pass
            t_end = clock()
            result.host.calibrate()
            index += 1
            returns = hook.returns
            result.setup_parts[-1].append((t0, returns[0]))  # model build and the first step
            result.unit_spans += list(zip(returns[:-1], returns[1:]))
            result.traced += hook.on_after[:-1]
            result.timed_spans.append((returns[0], returns[-1]))
            stats_now = engine.alloc_stats()  # ``train`` resets them when it starts
            alloc["bytes"] += stats_now["bytes"]
            alloc["count"] += stats_now["count"]
            alloc["max_single"] = max(alloc["max_single"], stats_now["max_single"])
            steps_run += len(returns)

            checks = _check_training(hook, samples, stats, ckpt)
            for name, ok in checks.items():
                result.checks[name] = result.checks.get(name, True) and ok
            # a training that misses the target fails; its whole length stands in
            end = hook.evals[-1][0] if checks["target_reached"] else t_end
            result.target_parts.append([(t0, end)])
            epochs.append(len(hook.evals))
            result.failed += 0 if all(checks.values()) else len(returns) - 1
    result.layer.update(_alloc_per_unit({"bytes": 0, "count": 0}, alloc, steps_run))

    if tracer is not None:
        # one epoch with its evaluation, from a fresh model
        result.layer["engine.live_bytes_peak"] = float(
            _live_peak(lambda: training.train(train_config(0), samples, stats, steps=TRAIN_SAMPLES))
        )
    return result


# ---------------------------------------------------------------------------
# fwdbwd_cloud8k
# ---------------------------------------------------------------------------


def cloud(seed: int, n: int = CLOUD_POINTS):
    """Uniform point cloud in the unit square: input, coordinates, target."""
    rng = np.random.Generator(np.random.Philox(key=_seed_base(seed)))
    coords = rng.uniform(0.0, 1.0, (n, 2)).astype(np.float32)
    a = rng.uniform(-1.0, 1.0, (n, 1)).astype(np.float32)
    x, y = coords[:, :1], coords[:, 1:]
    target = (np.sin(2 * np.pi * x) * np.cos(np.pi * y) + 0.5 * a).astype(np.float32)
    return a, coords, target


def fwdbwd_cloud8k(seed: int, seconds: float, tracer: Tracer | None, workdir: Path) -> Result:
    config = ModelConfig(**DESK, seed=seed).validate()
    result = Result(n=CLOUD_POINTS, config_hashes=[config.hash()])

    def setup():
        return PgotModel(config), *cloud(seed)

    def fwd_bwd(state) -> float:
        net, a, coords, target = state
        with engine.Tape() as tape:
            pred = net.predict(a, coords)
            loss = training.relative_l2_loss(pred, target)
            tape.backward(loss)
        net.zero_grad()
        return loss.item()

    warmup_losses = []
    state = _repeat_setup(setup, lambda st: warmup_losses.append(fwd_bwd(st)), 7, tracer, result)
    net, a, coords, target = state
    reference = warmup_losses[-1]
    losses = []
    before = engine.alloc_stats()
    _timed_loop(lambda i: losses.append(fwd_bwd(state)), seconds, CLOUD_TARGET_UNITS, tracer, result)
    result.layer.update(_alloc_per_unit(before, engine.alloc_stats(), result.units))

    # same inputs and parameters every unit, so every loss is the reference
    result.failed = sum(1 for v in losses if not (math.isfinite(v) and v == reference))
    with engine.Tape() as tape:
        loss = training.relative_l2_loss(net.predict(a, coords), target)
        tape.backward(loss)
    grads = [p.grad for _, p in net.parameters()]
    result.checks["loss_finite"] = math.isfinite(loss.item())
    result.checks["gradients_finite"] = all(g is not None and bool(np.all(np.isfinite(g))) for g in grads)
    net.zero_grad()
    perm = np.random.Generator(np.random.Philox(key=_seed_base(seed) + 1)).permutation(CLOUD_POINTS)
    out = net.predict(a, coords).data
    out_perm = net.predict(a[perm], coords[perm]).data
    result.checks["permutation_equivariant"] = bool(np.array_equal(out[perm], out_perm))
    if tracer is not None:
        result.layer["engine.live_bytes_peak"] = float(_live_peak(lambda: fwd_bwd(state)))
    return result


# ---------------------------------------------------------------------------
# infer_cloud2k_stream
# ---------------------------------------------------------------------------


def stream_samples(seed: int, count: int = STREAM_SAMPLES, between=lambda: None) -> list:
    """The inference stream: distinct annulus clouds of 2048 points.

    They are generated in chunks of ``GEN_CHUNK``, with ``between()`` called
    before each; the generator derives sample i from ``base ^ i``, and
    ``base`` and each chunk's start are multiples of ``GEN_CHUNK``, so the
    chunks give the samples one call would.
    """
    samples = []
    for start in range(0, count, GEN_CHUNK):
        between()
        samples += data.gen_pointcloud_stress(_seed_base(seed) + start, STREAM_POINTS, min(GEN_CHUNK, count - start))
    return samples


def infer_cloud2k_stream(seed: int, seconds: float, tracer: Tracer | None, workdir: Path) -> Result:
    config = ModelConfig(**DESK, d_a=2, seed=seed).validate()
    result = Result(n=STREAM_POINTS, config_hashes=[config.hash()])

    def setup():
        out_dir = Path(tempfile.mkdtemp(dir=workdir))
        manifest = data.write_dataset(stream_samples(seed, between=result.host.calibrate), out_dir, task="pointcloud_stress")
        result.host.calibrate()
        ckpt = out_dir / "model.pgck"
        written = PgotModel(config)
        model.save_checkpoint(written, ckpt)
        net = model.load_checkpoint(ckpt)
        stats = data.NormStats.from_dict(manifest["normalization"])
        files = [out_dir / entry["file"] for entry in manifest["samples"]]
        return net, stats, files, written

    def read_predict(state, index: int) -> np.ndarray:
        net, stats, files, _ = state
        sample = data.read_sample(files[index])
        a = data.normalize(sample.input, stats.input_mean, stats.input_std)
        return net.predict(a, sample.coords).data

    # sample 0 is the warm-up; the timed stream starts at sample 1
    state = _repeat_setup(setup, lambda st: read_predict(st, 0), 3, tracer, result)
    net, stats, files, written = state
    preds = []
    before = engine.alloc_stats()
    _timed_loop(
        lambda i: preds.append(read_predict(state, i + 1)), seconds, STREAM_TARGET_UNITS, tracer, result, len(files) - 1
    )
    result.layer.update(_alloc_per_unit(before, engine.alloc_stats(), result.units))

    result.failed = sum(1 for p in preds if not np.all(np.isfinite(p)))
    sample = data.read_sample(files[0])
    a = data.normalize(sample.input, stats.input_mean, stats.input_std)
    result.checks["reload_bit_identical"] = bool(
        np.array_equal(written.predict(a, sample.coords).data, net.predict(a, sample.coords).data)
    )
    result.checks["predictions_finite"] = result.failed == 0
    if tracer is not None:
        result.layer["engine.live_bytes_peak"] = float(_live_peak(lambda: read_predict(state, 0)))
    return result


WORKLOADS = {
    "train_poisson16": train_poisson16,
    "fwdbwd_cloud8k": fwdbwd_cloud8k,
    "infer_cloud2k_stream": infer_cloud2k_stream,
}
