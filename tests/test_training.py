import contextlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from pgot import engine, training
from pgot.data import compute_stats, denormalize, gen_pointcloud_stress, gen_poisson2d, normalize
from pgot.engine import Rng, Tape, Tensor
from pgot.errors import ConfigError, MetricError, NumericalError
from pgot.model import ModelConfig, PgotModel
from pgot.training import (
    AdamW,
    clip_grad_norm,
    cosine_lr,
    evaluate,
    relative_l2,
    relative_l2_loss,
    spearman,
    train,
)

ROOT = Path(__file__).resolve().parents[1]


def naive_relative_l2(u, u_hat):
    """Independent reimplementation with explicit loops."""
    num = 0.0
    den = 0.0
    for a, b in zip(np.ravel(u).tolist(), np.ravel(u_hat).tolist()):
        num += (a - b) ** 2
        den += a**2
    return (num**0.5) / (den**0.5)


class TestRelativeL2:
    def test_perfect_prediction(self):
        u = np.array([1.0, 2.0, 3.0])
        assert relative_l2(u, u) == 0.0

    def test_zero_prediction(self):
        assert relative_l2(np.array([3.0, 4.0]), np.zeros(2)) == 1.0

    def test_hand_example(self):
        assert abs(relative_l2(np.array([3.0, 4.0]), np.array([3.0, 0.0])) - 0.8) < 1e-12

    def test_zero_reference_rejected(self):
        with pytest.raises(MetricError):
            relative_l2(np.zeros(3), np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError, match=r"\(4,\) vs \(3,\)"):
            relative_l2(np.ones((2, 2)), np.ones(3))

    def test_matches_naive_oracle(self):
        rng = Rng(1)
        for _ in range(1000):
            u = rng.uniform(-5, 5, (8,)).astype(np.float64)
            u_hat = rng.uniform(-5, 5, (8,)).astype(np.float64)
            assert abs(relative_l2(u, u_hat) - naive_relative_l2(u, u_hat)) < 1e-6

    def test_loss_matches_metric(self):
        rng = Rng(2)
        u = rng.uniform(-1, 1, (10, 2)).astype(np.float32)
        pred = Tensor(rng.uniform(-1, 1, (10, 2)))
        loss = relative_l2_loss(pred, u)
        assert abs(loss.item() - relative_l2(u, pred.data)) < 1e-5

    def test_norms_keep_their_bits_at_every_blas_thread_count(self):
        """The metric and the loss's reference norm sum in numpy, not by the BLAS dot product, whose last
        bits change with its thread count on a long vector: at 600,000 elements, 1 and 2 threads differ."""
        script = (
            "from pgot import engine; from pgot.engine import Rng, Tensor; "
            "from pgot.training import relative_l2, relative_l2_loss; "
            "rng = Rng(0); u = rng.uniform(-1, 1, (200000, 3)); u_hat = u + rng.uniform(-0.1, 0.1, u.shape)\n"
            "with engine.float64_mode(): print(repr(relative_l2(u, u_hat)), relative_l2_loss(Tensor(u_hat), u).item())"
        )
        path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "OPENBLAS_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


class TestSpearman:
    def test_identical_order(self):
        c = np.array([1.0, 5.0, 3.0, 2.0])
        assert spearman(c, c) == 1.0

    def test_reversed_order(self):
        c = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(c, c[::-1]) == -1.0

    def test_hand_example(self):
        # one adjacent swap among 4: 1 - 6*2/(4*15) = 0.8
        assert abs(spearman(np.array([1.0, 2, 3, 4]), np.array([1.0, 2, 4, 3])) - 0.8) < 1e-12

    def test_too_few_values(self):
        with pytest.raises(MetricError):
            spearman(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError, match=r"\(4,\) vs \(3,\)"):
            spearman(np.arange(4.0), np.arange(3.0))

    def test_all_tied_rejected(self):
        with pytest.raises(MetricError):
            spearman(np.ones(5), np.arange(5.0))

    def test_ranks_equal_scipy_rankdata(self):
        rng = Rng(4)
        for _ in range(300):
            k = int(rng.integers(1, 40))
            values = rng.integers(-3, 4, (k,)) * 0.5
            assert np.array_equal(training._average_ranks(values), scipy.stats.rankdata(values))

    def test_matches_scipy_with_ties(self):
        rng = Rng(3)
        for _ in range(1000):
            k = int(rng.integers(3, 12))
            c = rng.integers(0, 6, (k,)).astype(np.float64)
            c_hat = rng.integers(0, 6, (k,)).astype(np.float64)
            if c.std() == 0 or c_hat.std() == 0:
                continue
            expected = scipy.stats.spearmanr(c, c_hat).statistic
            assert abs(spearman(c, c_hat) - expected) < 1e-6


class ReferenceAdamW:
    """The per-tensor AdamW that the flat-vector one replaced, kept as the bit-level reference."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params, self.lr, self.weight_decay, self.eps = list(params), lr, weight_decay, eps
        self.beta1, self.beta2 = betas
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data, dtype=np.float64) for name, p in self.params}
        self._v = {name: np.zeros_like(p.data, dtype=np.float64) for name, p in self.params}

    def step(self, lr):
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for name, p in self.params:
            grad = p.grad
            if grad is None:
                grad = np.zeros_like(p.data)
            g = grad.astype(np.float64)
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            if self.weight_decay:
                p.data *= np.asarray(1.0 - lr * self.weight_decay, dtype=p.data.dtype)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = (p.data.astype(np.float64) - lr * update).astype(p.data.dtype)


def reference_clip_grad_norm(params, max_norm):
    """Per-tensor gradient clipping as it was before the flat gradient vector."""
    total = 0.0
    for _, p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for _, p in params:
            if p.grad is not None:
                p.grad = (p.grad * scale).astype(p.grad.dtype)
    return norm


def random_grads(params, rng, missing=()):
    """One float32 gradient per parameter, None for the names in ``missing``."""
    return [None if name in missing else rng.uniform(-1.0, 1.0, p.shape).astype(p.data.dtype) for name, p in params]


def set_grads(params, grads):
    for (_, p), g in zip(params, grads):
        p.grad = None if g is None else g.copy()


class TestAdamW:
    def test_single_step_direction_and_size(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([("x", x)], weight_decay=0.0)
        x.grad = np.array([2.0], dtype=np.float32)  # d/dx x^2 at x=1
        opt.step(1e-3)
        # bias-corrected first step moves by ~lr regardless of grad scale
        assert abs((1.0 - x.data[0]) - 1e-3) < 1e-6

    def test_step_needs_a_rate(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        x.grad = np.array([2.0], dtype=np.float32)
        with pytest.raises(TypeError):
            AdamW([("x", x)]).step()

    def test_decoupled_decay_with_zero_grad(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        opt = AdamW([("x", x)], weight_decay=0.5)
        x.grad = np.zeros(1, dtype=np.float32)
        opt.step(0.1)
        assert abs(x.data[0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-6

    def test_nan_grad_aborts_with_name(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([("weights.x", x)])
        x.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(NumericalError, match="weights.x"):
            opt.step(0.1)

    def test_deterministic_over_100_steps(self):
        def run():
            rng = Rng(4)
            x = Tensor(rng.uniform(-1, 1, (5,)), requires_grad=True)
            opt = AdamW([("x", x)], weight_decay=1e-2)
            for _ in range(100):
                with Tape() as tape:
                    loss = relative_l2_loss(x * x, np.ones(5, dtype=np.float32))
                    tape.backward(loss)
                opt.step(1e-2)
            return x.data.tobytes()

        assert run() == run()

    def test_clip_grad_norm(self):
        grads = np.array([30.0, 40.0], dtype=np.float32)
        norm = clip_grad_norm(grads, [1, 2], 5.0)
        assert abs(norm - 50.0) < 1e-5
        assert abs(grads[0] - 3.0) < 1e-5
        assert abs(grads[1] - 4.0) < 1e-5
        assert grads.dtype == np.float32

    @pytest.mark.parametrize("mode", [contextlib.nullcontext, engine.float64_mode], ids=["float32", "float64_mode"])
    def test_matches_per_tensor_reference_bit_for_bit(self, mode):
        with mode():
            new, old = PgotModel(ModelConfig(seed=0)).parameters(), PgotModel(ModelConfig(seed=0)).parameters()
            assert len(new) == 66
            opt = AdamW(new, weight_decay=1e-4)
            ref = ReferenceAdamW(old, lr=1e-3, weight_decay=1e-4)
            rng = Rng(11)
            missing = {new[3][0], new[40][0]}
            clipped = []
            for step in range(30):
                grads = random_grads(new, rng, missing)
                # a norm near 120: max_norm 1e3 leaves the gradients alone, 10 scales every one
                max_norm = 1e3 if step % 2 else 10.0
                set_grads(new, grads)
                set_grads(old, grads)
                lr = cosine_lr(step, 30, 1e-3)
                norm = opt.step(lr, max_norm)
                assert norm == reference_clip_grad_norm(old, max_norm)
                clipped.append(norm > max_norm)
                ref.step(lr)
                for (name, p), (_, q) in zip(new, old):
                    assert p.data.dtype == q.data.dtype and np.array_equal(p.data, q.data), (step, name)
                assert np.array_equal(opt.m, np.concatenate([m.ravel() for m in ref._m.values()])), step
                assert np.array_equal(opt.v, np.concatenate([v.ravel() for v in ref._v.values()])), step
            assert opt.step_count == ref.step_count == 30
            assert any(clipped) and not all(clipped)

    def test_failed_step_changes_nothing(self):
        params = PgotModel(ModelConfig(seed=0)).parameters()
        opt = AdamW(params, weight_decay=1e-4)
        rng = Rng(12)
        grads = random_grads(params, rng)
        before = [p.data.copy() for _, p in params]
        bad = [g.copy() for g in grads]
        bad[-1][0] = np.nan
        set_grads(params, bad)
        with pytest.raises(NumericalError, match=params[-1][0]) as info:
            opt.step(1e-3)
        assert info.value.param == params[-1][0]
        for (name, p), b in zip(params, before):
            assert np.array_equal(p.data, b), name
        assert opt.step_count == 0
        assert not opt.m.any() and not opt.v.any()
        set_grads(params, grads)
        opt.step(1e-3)
        fresh = PgotModel(ModelConfig(seed=0)).parameters()
        fresh_opt = AdamW(fresh, weight_decay=1e-4)
        set_grads(fresh, grads)
        fresh_opt.step(1e-3)
        for (name, p), (_, q) in zip(params, fresh):
            assert np.array_equal(p.data, q.data), name
        assert np.array_equal(opt.m, fresh_opt.m) and np.array_equal(opt.v, fresh_opt.v)
        assert opt.step_count == fresh_opt.step_count == 1

    def test_step_clears_every_gradient(self):
        params = PgotModel(ModelConfig(seed=0)).parameters()
        opt = AdamW(params, weight_decay=1e-4)
        set_grads(params, random_grads(params, Rng(13), missing={params[5][0]}))
        opt.step(1e-3, 10.0)
        assert all(p.grad is None for _, p in params)

    def test_inf_gradient_changes_nothing(self):
        """A failed step leaves the gradients as they were too: none is clipped before the check."""
        params = PgotModel(ModelConfig(seed=0)).parameters()
        opt = AdamW(params, weight_decay=1e-4)
        rng = Rng(14)
        set_grads(params, random_grads(params, rng))
        opt.step(1e-3, 1.0)
        grads = random_grads(params, rng, missing={params[2][0]})
        grads[30][0] = np.inf
        set_grads(params, grads)
        before = [p.data.copy() for _, p in params]
        m, v = opt.m.copy(), opt.v.copy()
        with pytest.raises(NumericalError, match=params[30][0]) as info:
            opt.step(1e-3, 1.0)
        assert info.value.param == params[30][0]
        for (name, p), b, g in zip(params, before, grads):
            assert np.array_equal(p.data, b), name
            if g is None:
                assert p.grad is None, name
            else:
                assert p.grad.dtype == g.dtype and np.array_equal(p.grad, g), name
        assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)
        assert opt.step_count == 1

    def test_cosine_schedule_endpoints(self):
        assert cosine_lr(0, 100, 1e-3) == pytest.approx(1e-3)
        assert cosine_lr(99, 100, 1e-3) == pytest.approx(1e-4)


@pytest.fixture(scope="module")
def small_dataset():
    samples = gen_poisson2d(7, 12, 4)
    return samples, compute_stats(samples)


class TestTrainLoop:
    def test_lr_zero_leaves_parameters_unchanged(self, small_dataset):
        samples, stats = small_dataset
        config = ModelConfig(layers=1, width=16, slices=4, heads=2, seed=5)
        before = {n: p.data.copy() for n, p in PgotModel(config).parameters()}
        model, report = train(config, samples, stats, steps=8, lr=0.0, weight_decay=0.0)
        for name, p in model.parameters():
            assert np.array_equal(p.data, before[name]), name
        assert len(set(round(l, 8) for l in report.epoch_losses)) == 1

    def test_report_has_the_readme_keys(self, small_dataset):
        samples, stats = small_dataset
        _, report = train(ModelConfig(layers=1, width=16, slices=4, heads=2), samples, stats, steps=1)
        assert set(report.to_dict()) == {
            "config_hash", "seed", "steps", "epoch_losses", "final_train_rel_l2", "eval_spearman", "wall_time_s",
        }

    def test_seed_reproducibility(self, small_dataset):
        samples, stats = small_dataset
        config = ModelConfig(layers=1, width=16, slices=4, heads=2, seed=6)
        _, r1 = train(config, samples, stats, steps=16)
        _, r2 = train(config, samples, stats, steps=16)
        assert r1.epoch_losses == r2.epoch_losses

    def test_loss_decreases_from_start(self, small_dataset):
        samples, stats = small_dataset
        final_vs_first = []
        for seed in range(3):
            config = ModelConfig(layers=1, width=16, slices=4, heads=2, seed=seed)
            _, report = train(config, samples, stats, steps=120)
            final_vs_first.append(report.epoch_losses[-1] < report.epoch_losses[0])
        assert all(final_vs_first)

    def test_non_finite_loss_raises(self, small_dataset, monkeypatch):
        samples, stats = small_dataset
        predict, calls = PgotModel.predict, itertools.count()
        # finite predictions near 1e20 at step 5 of 4 samples: their squares overflow float32, so the loss is inf
        monkeypatch.setattr(
            PgotModel,
            "predict",
            lambda self, *args, **kw: predict(self, *args, **kw) * (1e20 if next(calls) == 5 else 1.0),
        )
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite at step 5, on sample 1$"):
            train(ModelConfig(layers=1, width=16, slices=4, heads=2), samples, stats, steps=8)

    def test_empty_dataset_rejected(self, small_dataset):
        _, stats = small_dataset
        with pytest.raises(ConfigError):
            train(ModelConfig(), [], stats, steps=1)
        with pytest.raises(ConfigError, match="non-empty"):
            evaluate(PgotModel(ModelConfig()), [], stats)

    @pytest.mark.parametrize(
        "option",
        [
            {"steps": 0}, {"lr": math.nan}, {"lr": math.inf}, {"weight_decay": -1.0}, {"clip_norm": -1.0},
            {"steps": True}, {"steps": 2.5}, {"steps": 10**400}, {"lr": "0.001"}, {"weight_decay": None},
        ],
        ids=[
            "steps-0", "lr-nan", "lr-inf", "weight-decay-negative", "clip-norm-negative",
            "steps-bool", "steps-float", "steps-10**400", "lr-string", "weight-decay-none",
        ],
    )
    def test_out_of_range_values_rejected(self, small_dataset, option):
        samples, stats = small_dataset
        with pytest.raises(ConfigError, match=next(iter(option))):
            train(ModelConfig(layers=1, width=16, slices=4, heads=2), samples, stats, **option)

    # with a checkpoint path, one evaluation per epoch picks the best epoch; without one, only the last counts
    @pytest.mark.parametrize(
        "steps,checkpoint",
        [
            pytest.param(steps, checkpoint, id=str(steps) if checkpoint else f"{steps}-no-checkpoint")
            for checkpoint in (True, False)
            for steps in (1, 3, 4, 9)
        ],
    )
    def test_one_evaluation_per_epoch(self, small_dataset, monkeypatch, tmp_path, steps, checkpoint):
        samples, stats = small_dataset
        calls = []
        monkeypatch.setattr(training, "evaluate", lambda *args: calls.append(1) or evaluate(*args))
        path = tmp_path / "best.pgck" if checkpoint else None
        train(ModelConfig(layers=1, width=16, slices=4, heads=2), samples, stats, steps=steps, checkpoint_path=path)
        assert len(calls) == (math.ceil(steps / len(samples)) if checkpoint else 1)

    @pytest.mark.parametrize("field", ["d", "d_a", "d_u"])
    def test_dimension_mismatch_rejected_before_any_step(self, small_dataset, monkeypatch, field):
        samples, stats = small_dataset
        monkeypatch.setattr(AdamW, "step", lambda *args, **kwargs: pytest.fail("an optimizer step ran"))
        config = ModelConfig(layers=1, width=16, slices=4, heads=2, **{field: 3})
        with pytest.raises(ConfigError, match=field):
            train(config, samples, stats, steps=1)

    def test_checkpoint_written(self, small_dataset, tmp_path):
        samples, stats = small_dataset
        config = ModelConfig(layers=1, width=16, slices=4, heads=2, seed=7)
        path = tmp_path / "best.pgck"
        train(config, samples, stats, steps=8, checkpoint_path=path)
        assert path.exists()


class TestEvaluate:
    def test_matches_final_train_metric(self, small_dataset):
        samples, stats = small_dataset
        config = ModelConfig(layers=1, width=16, slices=4, heads=2, seed=8)
        model, report = train(config, samples, stats, steps=16)
        metrics = evaluate(model, samples, stats)
        assert abs(metrics["rel_l2"] - report.final_train_rel_l2) < 1e-6

    def test_untrained_model_near_unity_error(self, small_dataset):
        samples, stats = small_dataset
        model = PgotModel(ModelConfig(layers=1, width=16, slices=4, heads=2, seed=9))
        metrics = evaluate(model, samples, stats)
        assert 0.5 < metrics["rel_l2"] < 2.0

    def test_perfect_predictions(self, small_dataset):
        samples, stats = small_dataset

        class Oracle:
            config = ModelConfig()
            training = False

            def predict(self, a_norm, coords):
                from pgot.data import normalize

                # match each field of the stack to a sample by its normalized input (coords are shared)
                def target(field):
                    idx = [
                        i
                        for i, s in enumerate(samples)
                        if np.array_equal(normalize(s.input, stats.input_mean, stats.input_std), field)
                    ][0]
                    return normalize(samples[idx].target, stats.target_mean, stats.target_std)

                return Tensor(np.stack([target(field) for field in a_norm]))

        metrics = evaluate(Oracle(), samples, stats)
        assert metrics["rel_l2"] < 1e-6
        assert metrics["spearman"] == 1.0

    def test_dimension_mismatch_rejected(self, small_dataset):
        samples, stats = small_dataset
        model = PgotModel(ModelConfig(d_u=3))
        with pytest.raises(ConfigError):
            evaluate(model, samples, stats)


def per_sample_evaluate(model, samples, stats):
    """``evaluate`` as one ``predict`` per sample, in list order."""
    errors, mean_true, mean_pred = [], [], []
    for s in samples:
        pred_norm = model.predict(normalize(s.input, stats.input_mean, stats.input_std), s.coords).data
        pred = denormalize(pred_norm, stats.target_mean, stats.target_std)
        errors.append(relative_l2(s.target, pred))
        mean_true.append(float(s.target.mean()))
        mean_pred.append(float(pred.mean()))
    try:
        rho = spearman(np.asarray(mean_true), np.asarray(mean_pred))
    except MetricError:
        rho = None
    return {"rel_l2": float(np.mean(errors)), "spearman": rho}


def interleaved_grids():
    """Samples on a 12x12 and a 16x16 grid, alternating."""
    small, large = gen_poisson2d(3, 12, 3), gen_poisson2d(4, 16, 3)
    return [s for pair in zip(small, large) for s in pair]


# case -> (model config, samples, forward passes evaluate makes)
EVAL_CASES = {
    "poisson2d": (ModelConfig(seed=5), lambda: gen_poisson2d(7, 16, 8), 1),
    "pointcloud_stress": (ModelConfig(d_a=2, seed=5), lambda: gen_pointcloud_stress(3, 64, 3), 3),
    "interleaved": (ModelConfig(seed=6), interleaved_grids, 2),
}


class TestStackedEvaluate:
    @pytest.fixture
    def passes(self, monkeypatch):
        """The input shape of every ``predict`` call."""
        shapes = []
        predict = PgotModel.predict

        def spy(model, a, coords):
            shapes.append(np.shape(a))
            return predict(model, a, coords)

        monkeypatch.setattr(PgotModel, "predict", spy)
        return shapes

    @pytest.mark.parametrize("case", sorted(EVAL_CASES))
    def test_evaluate_rows_keep_their_bits(self, case, passes):
        config, make, count = EVAL_CASES[case]
        samples = make()
        stats = compute_stats(samples)
        model = PgotModel(config)
        metrics = evaluate(model, samples, stats)
        assert len(passes) == count
        assert metrics == per_sample_evaluate(model, samples, stats)

    def test_chunked_evaluate_rows_keep_their_bits(self, passes, monkeypatch):
        monkeypatch.setattr(training, "EVAL_POINTS", 3 * 256 + 255)  # three 16x16 fields a pass
        samples = gen_poisson2d(7, 16, 8)
        stats = compute_stats(samples)
        model = PgotModel(ModelConfig(seed=5))
        metrics = evaluate(model, samples, stats)
        assert passes == [(3, 256, 1), (3, 256, 1), (2, 256, 1)]
        assert metrics == per_sample_evaluate(model, samples, stats)
