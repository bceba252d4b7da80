"""In-process span tracing of the evgrid layers, installed from outside.

``installed(tracer)`` replaces every public function and public method of
the layer modules with a wrapper that records a span (name, start, end,
parent) in memory. Every binding of an original is replaced, including the
names other evgrid modules imported, and all are restored on exit; the
evgrid sources are not touched.

Convolutions are labelled with the U-Net layer whose weight array they
receive (``unet.forward`` passes the parameter arrays through unchanged),
and the backward closure of their output tensor is wrapped too, which gives
per-layer forward and backward time. The loss heads form the ``loss`` layer.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYER_MODULES = ("sim", "grid", "rayism", "net.tensor", "net.unet", "net.losses", "net.train",
                 "evidential", "scores")
LAYERS = ("sim", "grid", "rayism", "net", "evidential", "scores")
UNET_LAYERS = ("stem", "down1", "down2", "up1", "dec1", "up2", "dec2", "loss")
STAGES = ("gen", "rayism", "train", "infer", "eval")
# Nominal arithmetic operations per input element of each loss head, read off
# the formulas in net/losses.py (forward, backward); the loss has no matmul.
LOSS_OPS = {"softmax_cross_entropy": (8, 4), "evidential_bayes_risk": (15, 30)}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("gflops_per_s"):
        return "GFLOP/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("us_per_detection"):
        return "us"
    if metric.endswith("_frac"):
        return "ratio"
    return "B" if metric == "grid.bytes" else "count"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.labels: dict[int, str] = {}  # id(weight array) -> U-Net layer, per forward()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)


def _timed(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _default_sim_config():
    return sys.modules["evgrid.sim"].SimConfig()


# qualname -> (counter, argument read at the call or None, amount from (argument, result))
COUNTERS = {
    "sim.lidar_ground_truth": (
        "sim.lidar_rays", "cfg", lambda cfg, _r: (cfg or _default_sim_config()).lidar_rays),
    "sim.accumulated_ground_truth": (
        "sim.lidar_rays", "cfg", lambda cfg, _r: cfg.lidar_rays * cfg.frames),
    "sim.simulate_radar": ("sim.detections", None, lambda _a, result: len(result[1])),
    "grid.write_grid": ("grid.bytes", "path", lambda path, _r: os.path.getsize(path)),
    "grid.read_grid": ("grid.bytes", "path", lambda path, _r: os.path.getsize(path)),
    "rayism.ray_ism_scene": ("rayism.detections", "detections", lambda dets, _r: len(dets)),
    "scores.ScoreAccumulator.add": ("scores.cells", "visible", lambda visible, _r: visible.size),
}


def _counter(tracer: Tracer, qualname: str, fn):
    """Counter taken at the call boundary of ``fn``, for the functions in COUNTERS."""
    if qualname not in COUNTERS:
        return None
    key, argname, amount = COUNTERS[qualname]
    sig = inspect.signature(fn)
    counts = tracer.counts

    def after(args, kwargs, result):
        arg = None
        if argname is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arg = bound.arguments[argname]
        counts[key] += amount(arg, result)

    return after


def _wrap_backward(tracer: Tracer, out, layer: str, flop: float) -> None:
    inner = out._backward

    def backward(g):
        idx = tracer.open(f"net.{layer}.bwd")
        try:
            inner(g)
        finally:
            tracer.close(idx)
        tracer.counts[f"net.{layer}.flop"] += flop

    out._backward = backward


def _conv(tracer: Tracer, qualname: str, fn, transpose: bool):
    @functools.wraps(fn)
    def wrapper(x, w, b, *args, **kwargs):
        layer = tracer.labels.get(id(w.data))
        idx = tracer.open(f"net.{layer}.fwd" if layer else qualname)
        try:
            out = fn(x, w, b, *args, **kwargs)
        finally:
            tracer.close(idx)
        if layer:
            # multiply-adds of the matmul: every output (or, transposed, input)
            # element meets one kernel slice; backward does dX and dW, twice that
            flop = 2.0 * (x.data.size if transpose else out.data.size) * w.data[0].size
            tracer.counts[f"net.{layer}.flop"] += flop
            _wrap_backward(tracer, out, layer, 2.0 * flop)
        return out

    return wrapper


def _loss(tracer: Tracer, name: str, fn):
    fwd_ops, bwd_ops = LOSS_OPS[name]

    @functools.wraps(fn)
    def wrapper(pre, target):
        idx = tracer.open("net.loss.fwd")
        try:
            out = fn(pre, target)
        finally:
            tracer.close(idx)
        tracer.counts["net.loss.flop"] += fwd_ops * pre.data.size
        _wrap_backward(tracer, out, "loss", bwd_ops * pre.data.size)
        return out

    return wrapper


def _forward(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(params, *args, **kwargs):
        tracer.labels = {id(arr): key[:-2] for key, arr in params.items() if key.endswith("_w")}
        idx = tracer.open("net.unet.forward")
        try:
            return fn(params, *args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _wrapper(tracer: Tracer, qualname: str, fn):
    if qualname in ("net.tensor.conv2d", "net.tensor.conv_transpose2d"):
        return _conv(tracer, qualname, fn, transpose=qualname.endswith("transpose2d"))
    if qualname.startswith("net.losses.") and fn.__name__ in LOSS_OPS:
        return _loss(tracer, fn.__name__, fn)
    if qualname == "net.unet.forward":
        return _forward(tracer, fn)
    return _timed(tracer, qualname, fn, _counter(tracer, qualname, fn))


@contextmanager
def installed(tracer: Tracer):
    """Trace every public evgrid layer function while the block runs."""
    undo: list[tuple[object, str, object]] = []
    wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
    for short in LAYER_MODULES:
        mod = sys.modules[f"evgrid.{short}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = (obj, _wrapper(tracer, f"{short}.{attr}", obj))
            elif inspect.isclass(obj):
                for mname, meth in list(vars(obj).items()):
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        undo.append((obj, mname, meth))
                        setattr(obj, mname, _wrapper(tracer, f"{short}.{attr}.{mname}", meth))
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "evgrid"]:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a layer that did not run reads 0."""
    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for (name, start, end, _parent), covered in zip(spans, child):
        self_time[name.split(".")[0] if not name.startswith("cli.") else name] += end - start - covered
    mc_passes = sum(1 for name, _s, _e, parent in spans
                    if name == "net.unet.forward" and parent >= 0
                    and spans[parent][0] == "net.train.mc_predict")
    c = tracer.counts
    scene_s = total["rayism.ray_ism_scene"]
    dets = c["rayism.detections"]

    m = {
        "sim.generate_scene_s": total["sim.generate_scene"],
        "sim.lidar_s": total["sim.lidar_ground_truth"] + total["sim.accumulated_ground_truth"],
        "sim.radar_s": total["sim.simulate_radar"],
        "sim.scenes": calls["sim.generate_scene"],
        "sim.lidar_rays": c["sim.lidar_rays"],
        "sim.detections": c["sim.detections"],
        "grid.write_s": total["grid.write_grid"],
        "grid.read_s": total["grid.read_grid"],
        "grid.files": calls["grid.write_grid"] + calls["grid.read_grid"],
        "grid.bytes": c["grid.bytes"],
        "rayism.scene_s": scene_s,
        "rayism.detections": dets,
        "rayism.static_frac": calls["rayism.rasterize_idm"] / dets if dets else 0.0,
        "rayism.us_per_detection": 1e6 * scene_s / dets if dets else 0.0,
    }
    for layer in UNET_LAYERS:
        fwd, bwd = total[f"net.{layer}.fwd"], total[f"net.{layer}.bwd"]
        m[f"net.{layer}.fwd_s"] = fwd
        m[f"net.{layer}.bwd_s"] = bwd
        m[f"net.{layer}.calls"] = calls[f"net.{layer}.fwd"]
        m[f"net.{layer}.gflops_per_s"] = c[f"net.{layer}.flop"] / (fwd + bwd) / 1e9 if fwd + bwd else 0.0
    m.update({
        "net.forward_s": total["net.unet.forward"],
        "net.backward_s": total["net.tensor.Tensor.backward"],
        "net.adam_s": total["net.train.Adam.step"],
        "net.mc_predict_s": total["net.train.mc_predict"],
        "net.mc_passes": mc_passes,
        "net.checkpoint_save_s": total["net.unet.save_checkpoint"],
        "net.checkpoint_load_s": total["net.unet.load_checkpoint"],
        "evidential.reduce_s": total["evidential.percentile_reduce_array"],
        "evidential.belief_s": total["evidential.evidence_to_belief_array"],
        "scores.add_s": total["scores.ScoreAccumulator.add"],
        "scores.cells": c["scores.cells"],
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    for stage in STAGES:
        m[f"cli.{stage}.untraced_s"] = self_time[f"cli.{stage}"]
    m["trace.spans"] = len(spans)
    return m
