"""Span tracing for the benchmark's traced run.

The wrappers are installed from this file on pgot's public functions and
methods, so the program itself is not edited, and ``Tracer.uninstall`` puts
every original back. Spans are kept in memory as tuples
``(name, start, end, parent, unit)``; ``parent`` is the index of the
enclosing span (-1 for none) and ``unit`` the id of the timed unit the span
started in, or ``SETUP``/``OUTSIDE``. They are written out once the run ends.
"""

from __future__ import annotations

import csv
import gzip
import math
import time
from collections import defaultdict

import numpy as np

from pgot import attention, data, engine, ffn, geometry, layers, model, training

from metrics import OPS, PER_LAYER, SETUP_METRICS

SETUP = -1  # span started while setting up
OUTSIDE = -2  # span started in warm-up, checks, or between units

# (owner, attribute, span name); a name shared by several entries means the
# same layer is reachable under several import names
_SPANS = [
    (engine.Tape, "backward", "engine.tape.backward"),
    (geometry, "normalize_coords", "geometry.normalize_coords"),
    (model, "normalize_coords", "geometry.normalize_coords"),
    (geometry, "pos_embed", "geometry.pos_embed"),
    (geometry.GeometricEncoderBank, "__call__", "geometry.bank"),
    (attention.SpecGeoAttention, "geometry_informed_query", "attention.query"),
    (attention.SpecGeoAttention, "compute_assignment", "attention.assign"),
    (attention.SpecGeoAttention, "slice_tokens", "attention.slice"),
    (attention.LatentMhsa, "__call__", "attention.mhsa"),
    (attention.SpecGeoAttention, "deslice", "attention.deslice"),
    (ffn.TaylorDecompFFN, "__call__", "ffn"),
    (ffn.TaylorDecompFFN, "spatial_gate", "ffn.gate"),
    (ffn.TaylorDecompFFN, "linear_expert", "ffn.linear_expert"),
    (ffn.TaylorDecompFFN, "nonlinear_expert", "ffn.nonlinear_expert"),
    (layers.LayerNorm, "__call__", "layers.layer_norm"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (training, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (training, "relative_l2_loss", "training.loss"),
    (training, "clip_grad_norm", "training.clip"),
    (training.AdamW, "step", "training.adamw"),
    (training, "evaluate", "training.eval"),
    (data, "gen_poisson2d", "data.gen"),
    (data, "gen_pointcloud_stress", "data.gen"),
    (data, "write_dataset", "data.write_dataset"),
    (data, "read_dataset", "data.read_dataset"),
    (data, "read_sample", "data.read_sample"),
] + [(engine, op, f"engine.op.{op}.fwd") for op in OPS]


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: defaultdict = defaultdict(float)
        self.unit = OUTSIDE
        self._stack: list[int] = []
        self._saved: list = []  # (owner, attribute, original), in install order
        self._models: dict = {}  # id -> PgotModel whose lift/decoder are labelled
        self._roles: dict = {}  # id(Mlp2) -> span name

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            unit = tracer.unit
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, unit)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_record(self, record):
        tracer, counters, names = self, self.counters, {}

        def wrapper(tape, out, parents, backward_fn):
            # the op kind is the name of the function that made the closure,
            # e.g. "gelu.<locals>.bwd"
            kind = backward_fn.__qualname__.split(".", 1)[0]
            name = names.get(kind)
            if name is None:
                name = names[kind] = f"engine.op.{kind}.bwd"
            if tracer.unit >= 0:
                counters["engine.tape.records"] += 1
            return record(tape, out, parents, tracer.span(name, backward_fn))

        return wrapper

    def _wrap_accum_matmul(self, accum_matmul):
        tracer, counters = self, self.counters

        def wrapper(a, b, out_dtype):
            if tracer.unit >= 0:
                batch = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
                m, k = a.shape[-2:]
                n = b.shape[-1]
                counters["engine.matmul.flops"] += 2 * batch * m * k * n
                # float64 copies of the float32 operands, plus the float64 product
                upcast = sum(x.size for x in (a, b) if x.dtype.itemsize < 8) + batch * m * n
                counters["engine.matmul.upcast_bytes"] += 8 * upcast
            return accum_matmul(a, b, out_dtype)

        return wrapper

    def _wrap_attention(self, call):
        tracer, counters = self, self.counters
        traced = self.span("attention", call)

        def wrapper(attn, *args, **kwargs):
            before = attn.dead_slice_events
            out = traced(attn, *args, **kwargs)
            if tracer.unit >= 0:
                counters["attention.dead_slice_events"] += attn.dead_slice_events - before
            return out

        return wrapper

    def _wrap_predict(self, predict):
        models, roles = self._models, self._roles
        traced = self.span("model.predict", predict)

        def wrapper(m, *args, **kwargs):
            if id(m) not in models:
                models[id(m)] = m  # held so that its id is not reused
                roles[id(m.lift)] = "layers.lift"
                roles[id(m.decoder)] = "layers.decoder"
            return traced(m, *args, **kwargs)

        return wrapper

    def _wrap_mlp2(self, call):
        roles, spans = self._roles, {}

        def wrapper(mlp, *args, **kwargs):
            name = roles.get(id(mlp))
            if name is None:
                return call(mlp, *args, **kwargs)
            fn = spans.get(name)
            if fn is None:
                fn = spans[name] = self.span(name, call)
            return fn(mlp, *args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self.installed:
            return
        for owner, attr, name in _SPANS:
            self._patch(owner, attr, self.span(name, owner.__dict__[attr]))
        self._patch(engine.Tape, "record", self._wrap_record(engine.Tape.__dict__["record"]))
        self._patch(engine, "_accum_matmul", self._wrap_accum_matmul(engine._accum_matmul))
        self._patch(attention.SpecGeoAttention, "__call__", self._wrap_attention(attention.SpecGeoAttention.__call__))
        self._patch(model.PgotModel, "predict", self._wrap_predict(model.PgotModel.predict))
        self._patch(layers.Mlp2, "__call__", self._wrap_mlp2(layers.Mlp2.__call__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def set_enabled(self, on: bool) -> None:
        if on:
            self.install()
        else:
            self.uninstall()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span, with its self time, as gzip-compressed CSV."""
        selfs = self_times(self.spans)
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "unit", "self_s"])
            for span, self_s in zip(self.spans, selfs):
                out.writerow([*span, self_s])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    The covered part is the union of the children's intervals clipped to
    the parent, so children that overlap one another are counted once.
    """
    children = defaultdict(list)
    for name, start, end, parent, unit in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, unit) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, units: int, setups: int, traced_wall_s: float) -> dict:
    """Per-layer metrics from the spans and counters of a traced run.

    Times and counts are per traced unit, except ``SETUP_METRICS``, which
    are per set-up. Metrics the workload measures itself (allocation,
    live bytes, tracing overhead) are added by the caller.
    """
    incl, selfs, calls, setup = defaultdict(float), defaultdict(float), defaultdict(int), defaultdict(float)
    for (name, start, end, parent, unit), self_s in zip(tracer.spans, self_times(tracer.spans)):
        if unit >= 0:
            incl[name] += end - start
            selfs[name] += self_s
            calls[name] += 1
        elif unit == SETUP:
            setup[name] += end - start
    units = max(units, 1)
    c = tracer.counters
    m = {}
    for op in OPS:
        m[f"engine.op.{op}.calls"] = calls[f"engine.op.{op}.fwd"] / units
        m[f"engine.op.{op}.fwd_s"] = incl[f"engine.op.{op}.fwd"] / units
        m[f"engine.op.{op}.bwd_s"] = incl[f"engine.op.{op}.bwd"] / units
    records = c["engine.tape.records"]
    swept = sum(n for name, n in calls.items() if name.startswith("engine.op.") and name.endswith(".bwd"))
    m["engine.tape.records"] = records / units
    m["engine.tape.backward_self_s"] = selfs["engine.tape.backward"] / units
    m["engine.tape.skipped_ratio"] = (records - swept) / records if records else 0.0
    m["engine.matmul.flops"] = c["engine.matmul.flops"] / units
    m["engine.matmul.upcast_bytes"] = c["engine.matmul.upcast_bytes"] / units
    for name in ("normalize_coords", "pos_embed"):
        m[f"geometry.{name}.calls"] = calls[f"geometry.{name}"] / units
        m[f"geometry.{name}.s"] = incl[f"geometry.{name}"] / units
    m["geometry.bank.s"] = incl["geometry.bank"] / units
    for part in ("query", "assign", "slice", "mhsa", "deslice"):
        m[f"attention.{part}.s"] = incl[f"attention.{part}"] / units
    m["attention.self_s"] = selfs["attention"] / units
    m["attention.dead_slice_events"] = c["attention.dead_slice_events"] / units
    for part in ("gate", "linear_expert", "nonlinear_expert"):
        m[f"ffn.{part}.s"] = incl[f"ffn.{part}"] / units
    m["ffn.self_s"] = selfs["ffn"] / units
    for part in ("layer_norm", "lift", "decoder"):
        m[f"layers.{part}.s"] = incl[f"layers.{part}"] / units
    m["model.predict.s"] = incl["model.predict"] / units
    m["model.predict.self_s"] = selfs["model.predict"] / units
    m["model.save_checkpoint.calls"] = calls["model.save_checkpoint"] / units
    m["model.save_checkpoint.s"] = incl["model.save_checkpoint"] / units
    m["training.loss.s"] = incl["training.loss"] / units
    m["training.backward.s"] = incl["engine.tape.backward"] / units
    m["training.clip.s"] = incl["training.clip"] / units
    m["training.adamw.s"] = incl["training.adamw"] / units
    m["training.eval.calls"] = calls["training.eval"] / units
    m["training.eval.s"] = incl["training.eval"] / units
    m["training.eval_share"] = incl["training.eval"] / traced_wall_s if traced_wall_s > 0 else 0.0
    m["data.read_sample.calls"] = calls["data.read_sample"] / units
    m["data.read_sample.s"] = incl["data.read_sample"] / units
    setups = max(setups, 1)
    for name in SETUP_METRICS:
        m[name] = setup[name[: -len(".s")]] / setups
    return m


def check_complete(metrics: dict) -> None:
    """Raise if ``metrics`` does not hold exactly the catalogue's per-layer names."""
    missing = set(PER_LAYER) - set(metrics)
    extra = set(metrics) - set(PER_LAYER)
    if missing or extra:
        raise RuntimeError(f"per-layer metrics missing {sorted(missing)}, unexpected {sorted(extra)}")
