"""Tests of the benchmark itself: inputs, tracing wrappers, span arithmetic,
and agreement between the metric catalogue and BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from pgot import data, engine, layers, model, training  # noqa: E402
from pgot.model import ModelConfig, PgotModel  # noqa: E402

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _dataset_bytes(samples, out_dir: Path, task: str) -> dict:
    data.write_dataset(samples, out_dir, task=task)
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_train_inputs_are_byte_identical_per_seed(tmp_path):
    first = _dataset_bytes(workloads.train_samples(), tmp_path / "a", "poisson2d")
    again = _dataset_bytes(workloads.train_samples(), tmp_path / "b", "poisson2d")
    assert first == again
    configs = [workloads.train_config(index) for index in range(workloads.TRAININGS)]
    assert configs[0] == workloads.train_config(0)
    assert len({c.hash() for c in configs}) == len(configs)  # a new init every training


@pytest.mark.parametrize("seed", [0, 7])
def test_cloud_inputs_are_byte_identical_per_seed(seed):
    first = [arr.tobytes() for arr in workloads.cloud(seed)]
    again = [arr.tobytes() for arr in workloads.cloud(seed)]
    assert first == again
    assert first != [arr.tobytes() for arr in workloads.cloud(seed + 1)]


def test_stream_inputs_are_byte_identical_per_seed(tmp_path):
    first = _dataset_bytes(workloads.stream_samples(3), tmp_path / "a", "pointcloud_stress")
    again = _dataset_bytes(workloads.stream_samples(3), tmp_path / "b", "pointcloud_stress")
    assert first == again
    samples = workloads.stream_samples(3)
    coords = {s.coords.tobytes() for s in samples}
    assert len(samples) == workloads.STREAM_SAMPLES == len(coords)  # each sample distinct
    # generating in chunks gives the samples of one call
    whole = data.gen_pointcloud_stress(workloads._seed_base(3), workloads.STREAM_POINTS, 150)
    chunked = workloads.stream_samples(3, 150)
    for x, y in zip(whole, chunked, strict=True):
        assert x.coords.tobytes() == y.coords.tobytes() and x.input.tobytes() == y.input.tobytes()
        assert x.target.tobytes() == y.target.tobytes() and x.meta == y.meta


def _fwd_bwd(net, a, coords, target):
    with engine.Tape() as tape:
        pred = net.predict(a, coords)
        loss = training.relative_l2_loss(pred, target)
        tape.backward(loss)
    grads = [p.grad.copy() for _, p in net.parameters()]
    net.zero_grad()
    return pred.data.copy(), loss.data.copy(), grads


def _small_train(tmp_path, name):
    samples = workloads.train_samples()
    stats = data.compute_stats(samples)
    config = workloads.train_config(0)
    ckpt = tmp_path / f"{name}.pgck"
    net, report = training.train(config, samples, stats, steps=16, checkpoint_path=ckpt)
    return [p.data.copy() for _, p in net.parameters()], report.epoch_losses, ckpt.read_bytes()


def test_wrappers_leave_outputs_bit_identical(tmp_path):
    a, coords, target = workloads.cloud(1, n=96)
    net = PgotModel(ModelConfig(**workloads.DESK, seed=1))
    plain = _fwd_bwd(net, a, coords, target)
    plain_train = _small_train(tmp_path, "plain")

    tr = tracing.Tracer()
    tr.install()
    tr.unit = 0
    try:
        traced = _fwd_bwd(net, a, coords, target)
        traced_train = _small_train(tmp_path, "traced")
    finally:
        tr.uninstall()

    assert np.array_equal(plain[0], traced[0])
    assert np.array_equal(plain[1], traced[1])
    assert all(np.array_equal(x, y) for x, y in zip(plain[2], traced[2]))
    for x, y in zip(plain_train[0], traced_train[0]):
        assert np.array_equal(x, y)
    assert plain_train[1:] == traced_train[1:]
    assert tr.spans, "the traced calls recorded no spans"


def test_uninstall_restores_every_original():
    owners = [engine, engine.Tape, layers.Mlp2, model, model.PgotModel, training, training.AdamW, data]
    before = [dict(vars(owner)) for owner in owners]
    tr = tracing.Tracer()
    tr.install()
    assert engine.matmul is not before[0]["matmul"]
    tr.uninstall()
    for owner, saved in zip(owners, before):
        current = vars(owner)
        assert all(current[name] is value for name, value in saved.items() if callable(value))


def test_one_step_records_the_expected_ops():
    a, coords, target = workloads.cloud(2, n=64)
    net = PgotModel(ModelConfig(**workloads.DESK, seed=2))
    tr = tracing.Tracer()
    tr.install()
    tr.unit = 0
    try:
        _fwd_bwd(net, a, coords, target)
    finally:
        tr.uninstall()
    m = tracing.layer_metrics(tr, units=1, setups=1, traced_wall_s=1.0)
    assert m["engine.tape.records"] == 143
    assert m["engine.op.matmul.calls"] == 48
    assert m["engine.op.gelu.calls"] == 12
    assert m["engine.tape.skipped_ratio"] == 0.0
    assert m["geometry.normalize_coords.calls"] == 1
    assert m["layers.lift.s"] > 0 and m["layers.decoder.s"] > 0
    assert m["model.predict.s"] > m["model.predict.self_s"] > 0
    # the rest are measured by the workload and the runner, not from spans
    rest = {
        "engine.alloc_bytes",
        "engine.alloc_count",
        "engine.max_single_bytes",
        "engine.live_bytes_peak",
        "trace.overhead_points_per_s",
        "trace.overhead_share",
    }
    assert set(m) == set(metrics.PER_LAYER) - rest


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps a: the union [1, 6] is covered once
        ("a.child", 2.0, 3.0, 1, 0),
        ("c", 8.0, 12.0, 0, 0),  # runs past its parent: clipped at 10
        ("leaf", 11.0, 11.5, 4, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 3.5, 0.5])


def test_setup_metrics_are_per_setup_and_timed_ones_per_unit():
    tr = tracing.Tracer()
    tr.spans += [
        ("data.gen", 0.0, 2.0, -1, tracing.SETUP),
        ("data.gen", 5.0, 9.0, -1, tracing.SETUP),
        ("data.read_sample", 10.0, 10.5, -1, 0),
        ("data.read_sample", 11.0, 11.5, -1, 1),
        ("data.read_sample", 12.0, 13.0, -1, tracing.OUTSIDE),
    ]
    m = tracing.layer_metrics(tr, units=2, setups=2, traced_wall_s=1.0)
    assert m["data.gen.s"] == 3.0
    assert m["data.read_sample.calls"] == 1.0
    assert m["data.read_sample.s"] == 0.5


def test_host_clock_scales_spans_by_the_calibrations_around_them():
    host = hostspeed.HostClock(256)
    host.reference_s = 1.0
    # kernel runs over [1, 1.5], [3, 3.25], [5, 6] and [7, 7.5]: costs 0.5, 0.25, 1 and 0.5
    host.starts, host.ends = [1.0, 3.0, 5.0, 7.0], [1.5, 3.25, 6.0, 7.5]
    assert host.raw_span(0.0, 8.0) == pytest.approx(5.75)
    assert host.raw_span(1.2, 3.1) == pytest.approx(1.5)
    # a unit between two runs: their mean cost, 0.375
    assert host.span(1.5, 3.0) == pytest.approx(1.5 / 0.375)
    assert host.span(3.25, 5.0) == pytest.approx(1.75 / 0.625)
    # a longer span: the runs inside it and the two around it
    assert host.span(2.0, 6.5) == pytest.approx(3.25 / 0.5625)
    assert host.span(0.0, 8.0) == pytest.approx(5.75 / 0.5625)
    assert host.span(5.2, 5.8) == 0.0


def test_host_kernel_does_not_call_the_program():
    tr = tracing.Tracer()
    tr.install()
    tr.unit = 0
    try:
        hostspeed.HostClock(2048).calibrate()
    finally:
        tr.uninstall()
    assert tr.spans == []


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
