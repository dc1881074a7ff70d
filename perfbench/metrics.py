"""The benchmark's metric catalogue: names, units, direction, and for each
per-layer metric the end-to-end metric it is expected to move.

``BENCHMARK.json`` at the repository root lists the same names; the tests
check that the two agree.
"""

from __future__ import annotations

WORKLOADS = ("train_poisson16", "fwdbwd_cloud8k", "infer_cloud2k_stream")

# name -> (unit, better, share of the parent's median it may worsen by).
# Times are scaled to a reference host speed (hostspeed.py); scaled, their
# spread over ten runs on a shared 2-vCPU host stayed under 5%, set-up time
# under 11%. The bounds leave room for hosts that drift more; set-up time
# gets the widest.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "points_per_s": ("1/s", "higher", 0.24),
    "latency_ms_p50": ("ms", "lower", 0.24),
    "latency_ms_p90": ("ms", "lower", 0.24),
    "peak_rss_mib": ("MiB", "lower", 0.05),
    "time_to_target_s": ("s", "lower", 0.24),
}

# The 16 op kinds one training step records on the tape.
OPS = (
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "transpose",
    "reshape",
    "concat",
    "gelu",
    "sigmoid",
    "softplus",
    "sqrt",
    "clip_min",
    "sum_",
    "softmax",
    "layer_norm",
)

# Per-layer metrics whose spans occur only while setting up; they are
# reported in seconds per set-up. Every other per-layer metric is per timed
# unit (one optimizer step, one fwd+bwd pass, or one read+predict).
SETUP_METRICS = ("data.gen.s", "data.write_dataset.s", "data.read_dataset.s", "model.load_checkpoint.s")

_KERNEL = "latency_ms_p50 and peak_rss_mib on fwdbwd_cloud8k"
_DISPATCH = "latency_ms_p50 on train_poisson16"
_FORWARD = "latency_ms_p50 on fwdbwd_cloud8k and infer_cloud2k_stream"
_TRAIN = "points_per_s and time_to_target_s on train_poisson16"


def _per_layer() -> dict:
    """name -> (unit, better, the end-to-end metric it should move)."""
    m = {}
    for op in OPS:
        m[f"engine.op.{op}.calls"] = ("count", "lower", _DISPATCH)
        m[f"engine.op.{op}.fwd_s"] = ("s", "lower", _KERNEL)
        m[f"engine.op.{op}.bwd_s"] = ("s", "lower", _KERNEL)
    m.update(
        {
            "engine.tape.records": ("count", "lower", _DISPATCH),
            "engine.tape.backward_self_s": ("s", "lower", _DISPATCH),
            "engine.tape.skipped_ratio": ("ratio", "lower", _DISPATCH),
            "engine.alloc_bytes": ("bytes", "lower", _KERNEL),
            "engine.alloc_count": ("count", "lower", _DISPATCH),
            "engine.max_single_bytes": ("bytes", "lower", "peak_rss_mib on fwdbwd_cloud8k"),
            "engine.live_bytes_peak": ("bytes", "lower", "peak_rss_mib on fwdbwd_cloud8k"),
            "engine.matmul.flops": ("count", "lower", _KERNEL),
            "engine.matmul.upcast_bytes": ("bytes", "lower", _KERNEL),
            "geometry.normalize_coords.calls": ("count", "lower", "latency_ms_p50 on train_poisson16 and fwdbwd_cloud8k"),
            "geometry.normalize_coords.s": ("s", "lower", "latency_ms_p50 on train_poisson16 and fwdbwd_cloud8k"),
            "geometry.pos_embed.calls": ("count", "lower", "latency_ms_p50 on train_poisson16 and fwdbwd_cloud8k"),
            "geometry.pos_embed.s": ("s", "lower", "latency_ms_p50 on train_poisson16 and fwdbwd_cloud8k"),
            "geometry.bank.s": ("s", "lower", "latency_ms_p50 on train_poisson16 and fwdbwd_cloud8k"),
        }
    )
    for part in ("query", "assign", "slice", "mhsa", "deslice"):
        m[f"attention.{part}.s"] = ("s", "lower", _FORWARD)
    m["attention.self_s"] = ("s", "lower", _FORWARD)
    m["attention.dead_slice_events"] = ("count", "lower", _FORWARD)
    for part in ("gate", "linear_expert", "nonlinear_expert"):
        m[f"ffn.{part}.s"] = ("s", "lower", _FORWARD)
    m["ffn.self_s"] = ("s", "lower", _FORWARD)
    for part in ("layer_norm", "lift", "decoder"):
        m[f"layers.{part}.s"] = ("s", "lower", _FORWARD)
    m.update(
        {
            "model.predict.s": ("s", "lower", _FORWARD),
            "model.predict.self_s": ("s", "lower", _FORWARD),
            "model.save_checkpoint.calls": ("count", "lower", "points_per_s on train_poisson16"),
            "model.save_checkpoint.s": ("s", "lower", "points_per_s on train_poisson16"),
            "model.load_checkpoint.s": ("s", "lower", "setup_s on infer_cloud2k_stream"),
        }
    )
    for part in ("loss", "backward", "clip", "adamw"):
        m[f"training.{part}.s"] = ("s", "lower", _TRAIN)
    m["training.eval.calls"] = ("count", "lower", _TRAIN)
    m["training.eval.s"] = ("s", "lower", _TRAIN)
    m["training.eval_share"] = ("ratio", "lower", _TRAIN)
    for part in ("gen", "write_dataset", "read_dataset"):
        m[f"data.{part}.s"] = ("s", "lower", "setup_s on every workload")
    m["data.read_sample.calls"] = ("count", "lower", "setup_s everywhere; latency_ms_p50 on infer_cloud2k_stream")
    m["data.read_sample.s"] = ("s", "lower", "setup_s everywhere; latency_ms_p50 on infer_cloud2k_stream")
    m["trace.overhead_points_per_s"] = ("1/s", "lower", "none: untraced minus traced points_per_s")
    m["trace.overhead_share"] = ("ratio", "lower", "none: trace.overhead_points_per_s over untraced points_per_s")
    return m


PER_LAYER = _per_layer()
