"""Training loop, Adam optimizer, dataset access and MC-dropout prediction."""

from __future__ import annotations

import csv
import functools
import io
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from evgrid.errors import ConfigError, DomainError, EvgridError, TrainingDiverged, write_atomic
from evgrid.evidential import evidence_to_belief_array, percentile_reduce_array
from evgrid.net.losses import evidential_bayes_risk, softmax, softmax_cross_entropy
from evgrid.net.tensor import Tensor, square
from evgrid.net.unet import UNetSpec, dropout_masks, forward, init_params, save_checkpoint
from evgrid.sim import augment_arrays, load_manifest, read_sample_grid


@dataclass(frozen=True)
class TrainConfig:
    model: str = "ev"  # "ev" or "soft"
    lr: float = 1e-3
    batch_size: int = 8
    epochs: int = 10
    dropout: float = UNetSpec.dropout
    base_channels: int = UNetSpec.base_channels
    seed: int = 0
    mc_samples: int = 30
    percentile: float = 10.0

    def __post_init__(self) -> None:
        if self.model not in ("ev", "soft"):
            raise ConfigError(f"model must be 'ev' or 'soft', got {self.model!r}")
        if self.lr <= 0 or self.batch_size < 1 or self.epochs < 1 or self.mc_samples < 1:
            raise ConfigError("rates and counts must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.percentile <= 100.0):
            raise ConfigError(f"percentile must be in (0, 100], got {self.percentile}")
        self.unet_spec()  # checks dropout and base_channels

    def unet_spec(self) -> UNetSpec:
        return UNetSpec(
            in_channels=2,
            out_channels=3 if self.model == "soft" else 2,
            base_channels=self.base_channels,
            dropout=self.dropout,
        )


def load_split(dataset_dir, split: str):
    """Load one dataset split into memory.

    Returns (images (N,2,H,W) f32, targets (N,3,H,W) f32, sample ids) at the manifest's side.
    """
    manifest, root = load_manifest(dataset_dir), Path(dataset_dir)
    ids, side = manifest["splits"][split], manifest["grid"]["side_cells"]
    try:  # a negative side, or one too large to hold
        images, targets = (np.empty((len(ids), c, side, side), np.float32) for c in (2, 3))
    except (ValueError, MemoryError) as exc:
        raise EvgridError(f"dataset manifest {root / 'manifest.json'}: side_cells {side}: {exc}") from exc
    for i, sid in enumerate(ids):
        for array, path in ((images, root / "samples" / sid / "radar.grid"),
                            (targets, root / "samples" / sid / "target.grid")):
            array[i] = read_sample_grid(path, array.shape[1:]).data
    return images, targets, ids


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard adaptive-moment optimizer over a named parameter dict."""

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for k in sorted(params):
            g = grads[k]
            self.m[k] = ADAM_BETA1 * self.m[k] + (1.0 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1.0 - ADAM_BETA2) * np.square(g)
            params[k] -= (self.lr * (self.m[k] / b1c)
                          / (np.sqrt(self.v[k] / b2c) + ADAM_EPS)).astype(params[k].dtype)


def _loss(out: Tensor, target, model: str) -> Tensor:
    if model == "soft":
        return softmax_cross_entropy(out, target)
    return evidential_bayes_risk(square(out), target)


@functools.cache
def _two_threads():
    """The two threads that train_step's half batches and eval_loss's forwards run on.

    numpy lets go of the GIL inside its kernels, so the two use both CPUs of a
    2-CPU host; cli.main holds OpenBLAS to one thread, whose own threads would
    fight them. A forked scene worker has none of its parent's threads, so it
    makes a pool of its own.
    """
    from concurrent.futures import ThreadPoolExecutor  # not on the import path of the CLI

    return ThreadPoolExecutor(2, thread_name_prefix="evgrid-half")


os.register_at_fork(after_in_child=_two_threads.cache_clear)


def _in_order(fn, parts: list) -> list:
    """[fn(part) for part in parts], on the two threads when there is more than one part."""
    return list(_two_threads().map(fn, parts)) if len(parts) > 1 else [fn(part) for part in parts]


# The smallest sample, in cells, whose batches train_step and eval_loss split over the
# two threads. Below it the halves' per-call overhead, which holds the GIL, outweighs
# what the second thread computes: at batch 8 on a 2-CPU Xeon, a split step took
# 1.2-1.3x the whole step's time at 32x32 cells, 1.0x at 40x40, 0.94x at 48x48 and
# 0.7x at 64x64.
SPLIT_MIN_CELLS = 48 * 48


def _halves(n: int, cells: int) -> list[slice]:
    """The fixed halves [:n//2] and [n//2:] of n samples of ``cells`` cells each, or the
    whole n when there is one sample or fewer than SPLIT_MIN_CELLS cells in each."""
    if n > 1 and cells >= SPLIT_MIN_CELLS:
        return [slice(0, n // 2), slice(n // 2, n)]
    return [slice(0, n)]


def train_step(params, spec: UNetSpec, x, target, model: str, opt: Adam, dropout_rng) -> float:
    """One Adam step on a batch; returns its loss.

    Forward, loss and backward run on the fixed halves x[:n//2] and x[n//2:]
    on two threads when a sample holds at least SPLIT_MIN_CELLS cells; a batch
    of one, or of smaller samples, runs whole. The keep masks are drawn for
    the whole batch first, as one forward would draw them, and each half
    takes its rows. The halves' losses and gradients are combined a then b,
    each weighted by its share of the batch's cells, whichever finishes first.
    """
    n, _, rows, cols = x.shape
    keep = dropout_masks(params, spec, x.shape, dropout_rng)
    halves = _halves(n, rows * cols)

    def half(part: slice):
        out, leaves = forward(params, spec, x[part], keep=[k if k is None else k[part] for k in keep])
        loss = _loss(out, target[part], model)
        loss.backward()
        return float(loss.data), {k: leaves[k].grad for k in params}

    value, grads = 0.0, dict.fromkeys(params, 0.0)
    for part, (loss, half_grads) in zip(halves, _in_order(half, halves)):
        share = (part.stop - part.start) / n  # every sample has the same number of cells
        value += share * loss
        grads = {k: grads[k] + share * half_grads[k] for k in params}
    if not np.isfinite(value):
        raise TrainingDiverged(f"non-finite training loss: {value}")
    opt.step(params, grads)
    return value


def eval_loss(params, spec: UNetSpec, x, target, model: str, batch: int) -> float:
    """Mean loss without dropout over chunks of ``batch`` samples, each weighted by its
    length: one untaped forward per chunk, split into the training step's halves."""
    cells = x.shape[2] * x.shape[3]
    total = 0.0
    for i in range(0, len(x), batch):
        chunk = x[i:i + batch]
        out = np.concatenate(_in_order(lambda part: forward(params, spec, chunk[part], record=False)[0],
                                       _halves(len(chunk), cells)))
        total += float(_loss(Tensor(out), target[i:i + batch], model).data) * len(out)
    return total / max(len(x), 1)


def train(dataset_dir, cfg: TrainConfig, out_dir=None):
    """Train one model on the dataset's train split.

    Seeded and reproducible; logs per-epoch train/val loss. The train row is
    the mean of the epoch's step losses, each weighted by its batch's length:
    measured under dropout while the weights move. The val row is the
    dropout-free loss at the end of the epoch. When ``out_dir`` is given,
    rewrites checkpoint.ckpt and metrics.csv there after every epoch.

    Returns (params, unet spec, metrics rows [(epoch, split, loss), ...]).
    """
    spec = cfg.unet_spec()
    rng = np.random.default_rng(cfg.seed)
    params = init_params(spec, rng)
    opt = Adam(params, lr=cfg.lr)
    x_train, t_train, _ids = load_split(dataset_dir, "train")
    x_val, t_val, _ids = load_split(dataset_dir, "val")
    if len(x_train) == 0:
        raise ConfigError("train split is empty")

    metrics: list[tuple[int, str, float]] = []
    if out_dir is not None:
        write_metrics(Path(out_dir) / "metrics.csv", [])
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(x_train))
        train_total = 0.0
        for i in range(0, len(order), cfg.batch_size):
            idx = order[i:i + cfg.batch_size]
            xb, tb = x_train[idx], t_train[idx]
            for j in range(len(idx)):  # xb and tb are copies, so each sample is transformed in place
                k_rot = int(rng.integers(0, 4))
                flips = rng.integers(0, 2, size=2)
                xb[j], tb[j] = augment_arrays([xb[j], tb[j]], k_rot, bool(flips[0]), bool(flips[1]))
            try:
                train_total += len(idx) * train_step(params, spec, xb, tb, cfg.model, opt, dropout_rng=rng)
            except TrainingDiverged as exc:
                raise TrainingDiverged(f"epoch {epoch}, batch {i // cfg.batch_size}: {exc}") from exc
        rows = [(epoch, "train", train_total / len(x_train))]
        if len(x_val):
            rows.append((epoch, "val", eval_loss(params, spec, x_val, t_val, cfg.model, cfg.batch_size)))
        for _epoch, split, loss in rows:
            if not np.isfinite(loss):
                raise TrainingDiverged(f"epoch {epoch}: non-finite {split} eval loss: {loss}")
        metrics.extend(rows)
        if out_dir is not None:
            write_metrics(Path(out_dir) / "metrics.csv", metrics)
            save_checkpoint(Path(out_dir) / "checkpoint.ckpt", params, spec,
                            seed=cfg.seed, epoch=epoch)
    return params, spec, metrics


def write_metrics(path, rows) -> None:
    """Write (epoch, split, loss) rows under a header to a metrics CSV."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["epoch", "split", "loss"])
    writer.writerows([epoch, split, f"{loss:.8f}"] for epoch, split, loss in rows)
    write_atomic(path, text.getvalue(), "metrics file")


def _check_mode(mode: str, spec: UNetSpec) -> None:
    """A prediction mode must exist and match the head: "soft" needs the
    3-channel softmax head, "ev" and "ev-s" the 2-channel evidence head."""
    if mode not in ("ev", "ev-s", "soft"):
        raise ConfigError(f"unknown prediction mode {mode!r}")
    if (mode == "soft") != (spec.out_channels == 3):
        raise ConfigError(f"mode {mode!r} incompatible with a {spec.out_channels}-channel head")


def mc_predict(params, spec: UNetSpec, x: np.ndarray, n_samples: int, mode: str,
               rng: np.random.Generator, percentile: float = TrainConfig.percentile) -> np.ndarray:
    """Monte-Carlo dropout prediction for one input image (2, H, W).

    The samples are one untaped forward of the image as one row, with ``n_samples``
    rows of keep masks: the stem runs once. It equals the taped forward's bit for bit.
    mode "ev": mean evidence over samples; "ev-s": nearest-rank percentile of
    the evidence samples; "soft": mean pre-softmax output through the
    softmax. Returns a (3, H, W) float64 array of (b_f, b_o, u).

    An evidence head whose squared output is not finite in float32 raises
    DomainError: training squares in float32, so it could not have trained.
    """
    _check_mode(mode, spec)
    if n_samples < 1:
        raise ConfigError("need at least one MC sample")
    keep = dropout_masks(params, spec, (n_samples, *x.shape), rng)
    out, _ = forward(params, spec, x.astype(np.float32)[None], keep=keep, record=False)
    stack = out.astype(np.float64)  # (N, C, H, W); one row stands for all N at rate 0
    if mode == "soft":
        return softmax(stack.mean(axis=0))
    with np.errstate(over="ignore"):
        if not np.isfinite(np.square(out, dtype=np.float32)).all():
            raise DomainError("evidence must be finite and >= 0 in float32, the precision the "
                              "network trains in; its squared output overflows there")
    evidence = np.square(stack)
    if mode == "ev":
        reduced = evidence.mean(axis=0)
    else:
        reduced = percentile_reduce_array(evidence, percentile)
    return evidence_to_belief_array(reduced)
