import importlib
import json
import os
import re
import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import composed_forward, cut_and_flip, reads_or_names_file
from evgrid.errors import ConfigError, EvgridError, TrainingDiverged
from evgrid.evidential import evidence_to_belief_array, percentile_reduce_array
from evgrid.grid import GridSpec
from evgrid.net.losses import evidential_bayes_risk, softmax, softmax_cross_entropy
from evgrid.net import tensor as T
from evgrid.net.tensor import Tensor, square
from evgrid.net.train import (
    SPLIT_MIN_CELLS,
    Adam,
    TrainConfig,
    eval_loss,
    load_split,
    mc_predict,
    train,
    train_step,
)
from evgrid.net.unet import UNetSpec, dropout_masks, forward, init_params, load_checkpoint, save_checkpoint
from evgrid.sim import SimConfig, write_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    write_dataset(n_scenes=8, spec=GridSpec(16, 0.5), out_dir=out, master_seed=3,
                  cfg=SimConfig(lidar_rays=180))
    return out


class TestForward:
    def test_output_shapes(self):
        for out_ch in (2, 3):
            spec = UNetSpec(out_channels=out_ch, base_channels=4)
            params = init_params(spec, np.random.default_rng(0))
            out, leaves = forward(params, spec, np.zeros((2, 2, 16, 16), np.float32))
            assert out.shape == (2, out_ch, 16, 16)
            assert set(leaves) == set(params)

    def test_side_must_be_divisible(self):
        spec = UNetSpec(base_channels=4)
        params = init_params(spec, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            forward(params, spec, np.zeros((1, 2, 10, 10), np.float32))

    def test_deterministic_without_dropout(self):
        spec = UNetSpec(base_channels=4)
        params = init_params(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(1, 2, 8, 8)).astype(np.float32)
        a, _ = forward(params, spec, x)
        b, _ = forward(params, spec, x)
        assert np.array_equal(a.data, b.data)

    def test_batch_rows_match_single_forward(self):
        spec = UNetSpec(base_channels=4)
        params = init_params(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(5, 2, 8, 8)).astype(np.float32)
        batched, _ = forward(params, spec, x)
        for i in range(len(x)):
            single, _ = forward(params, spec, x[i:i + 1])
            assert np.array_equal(batched.data[i], single.data[0])

    @pytest.mark.parametrize("record", [True, False], ids=["taped", "untaped"])
    def test_zero_dropout_draws_no_mask(self, record):
        spec = UNetSpec(base_channels=4, dropout=0.0)
        params = init_params(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(1, 2, 8, 8)).astype(np.float32)
        rng = np.random.default_rng(2)
        keep = dropout_masks(params, spec, x.shape, rng)
        assert keep == [None] * 4
        assert rng.random() == np.random.default_rng(2).random()
        out, _ = forward(params, spec, x, keep=keep, record=record)
        plain, _ = forward(params, spec, x, record=record)
        assert np.array_equal(getattr(out, "data", out), getattr(plain, "data", plain))

    def test_dropout_perturbs_output(self):
        spec = UNetSpec(base_channels=4, dropout=0.5)
        params = init_params(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(1, 2, 8, 8)).astype(np.float32)
        a, _ = forward(params, spec, x, keep=dropout_masks(params, spec, x.shape, np.random.default_rng(2)))
        b, _ = forward(params, spec, x, keep=dropout_masks(params, spec, x.shape, np.random.default_rng(3)))
        assert not np.array_equal(a.data, b.data)

    def test_invalid_head_rejected(self):
        with pytest.raises(ConfigError):
            UNetSpec(out_channels=4)

    @pytest.mark.parametrize("slope", [-0.1, 1.5, float("nan")])
    def test_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            UNetSpec(leaky_slope=slope)

    @pytest.mark.parametrize("slope", [0.0, 1.0])
    def test_slope_interval_is_closed(self, slope):
        assert UNetSpec(leaky_slope=slope).leaky_slope == slope


class TestUntapedForward:
    """forward(record=False) runs the taped graph's kernels on plain arrays, in place."""

    @pytest.mark.parametrize("out_ch", [2, 3])
    @pytest.mark.parametrize("batch", [1, 30])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_taped_output(self, out_ch, batch, dropout, dtype):
        spec = UNetSpec(out_channels=out_ch, base_channels=4, dropout=0.3)
        params = {k: v.astype(dtype) for k, v in init_params(spec, np.random.default_rng(0)).items()}
        x = np.random.default_rng(1).normal(size=(batch, 2, 8, 8)).astype(np.float32)
        taped, _ = forward(params, spec, x,
                           keep=dropout_masks(params, spec, x.shape, np.random.default_rng(5) if dropout else None))
        plain, _ = forward(params, spec, x,
                           keep=dropout_masks(params, spec, x.shape, np.random.default_rng(5) if dropout else None),
                           record=False)
        assert isinstance(plain, np.ndarray)
        assert plain.dtype == taped.data.dtype == dtype
        assert np.array_equal(plain, taped.data)

    def test_leaves_input_and_params_unmodified(self):
        spec = UNetSpec(base_channels=4)
        params = init_params(spec, np.random.default_rng(0))
        before = {k: v.copy() for k, v in params.items()}
        for arr in params.values():
            arr.flags.writeable = False
        image = np.random.default_rng(1).normal(size=(2, 8, 8)).astype(np.float32)
        xb = np.broadcast_to(image, (6, *image.shape))
        forward(params, spec, xb, keep=dropout_masks(params, spec, xb.shape, np.random.default_rng(2)), record=False)
        assert np.array_equal(xb, np.broadcast_to(image, xb.shape))
        for k in params:
            assert np.array_equal(params[k], before[k])


class TestFusedForward:
    """forward's fused activations and two-part decoder inputs against composed_forward,
    the same network built from separate taped ops, compared by raw bits."""

    @pytest.mark.parametrize("out_ch", [2, 3])
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_composed_reference(self, out_ch, batch, dropout, dtype):
        spec = UNetSpec(out_channels=out_ch, base_channels=4, dropout=0.3)
        params = {k: v.astype(dtype) for k, v in init_params(spec, np.random.default_rng(0)).items()}
        rng = np.random.default_rng(1)
        x = rng.normal(size=(batch, 2, 8, 8)).astype(np.float32)
        target = rng.dirichlet(np.ones(3), size=(batch, 8, 8)).transpose(0, 3, 1, 2).astype(np.float32)
        results = []
        rng = lambda: np.random.default_rng(5) if dropout else None
        for run in (lambda: forward(params, spec, x, keep=dropout_masks(params, spec, x.shape, rng())),
                    lambda: composed_forward(params, spec, x, dropout_rng=rng())):
            out, leaves = run()
            loss = (softmax_cross_entropy(out, target) if out_ch == 3
                    else evidential_bayes_risk(square(out), target))
            loss.backward()
            results.append([out.data, loss.data] + [leaves[k].grad for k in sorted(params)])
        bits = lambda a: a.view(np.uint32 if a.dtype == np.float32 else np.uint64)  # -0.0 != +0.0
        for name, got, want in zip(["out", "loss", *sorted(params)], *results):
            assert got.dtype == want.dtype, name
            assert np.array_equal(bits(got), bits(want)), name


class TestMemory:
    """The tape keeps only what a backward reads, and the untaped forward holds each
    activation only until its last reader. Bounds at the train-64 bench shapes
    (batch 8, 64 cells, base 8), from numpy's allocations as tracemalloc sees them."""

    MB = 1e6

    @staticmethod
    def _traced(fn):
        """(bytes still held once fn returns, peak bytes while it ran), net of what was held before."""
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            kept = fn()
            current, peak = tracemalloc.get_traced_memory()
            del kept
            return current - base, peak - base
        finally:
            if started:
                tracemalloc.stop()

    @pytest.mark.parametrize("out_ch", [2, 3])
    def test_taped_forward_holds_at_most_6_mb(self, out_ch):
        # each activation once: no pre-activation and no concatenated skip on the tape
        spec = UNetSpec(out_channels=out_ch, base_channels=8)
        params = init_params(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).random((8, 2, 64, 64), dtype=np.float32)
        live, _peak = self._traced(
            lambda: forward(params, spec, x, keep=dropout_masks(params, spec, x.shape, np.random.default_rng(2))))
        assert live <= 6 * self.MB

    @pytest.mark.parametrize("model", ["ev", "soft"])
    def test_train_step_peaks_at_most_12_mb(self, model):
        spec = UNetSpec(out_channels=3 if model == "soft" else 2, base_channels=8)
        params = init_params(spec, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.random((8, 2, 64, 64), dtype=np.float32)
        target = rng.dirichlet(np.ones(3), size=(8, 64, 64)).transpose(0, 3, 1, 2).astype(np.float32)
        opt = Adam(params, 1e-3)
        _live, peak = self._traced(
            lambda: train_step(params, spec, x, target, model, opt, dropout_rng=np.random.default_rng(2)))
        assert peak <= 12 * self.MB

    @pytest.mark.parametrize("model", ["ev", "soft"])
    def test_eval_loss_peaks_at_most_8_mb(self, model):
        # at the step's batch of 8 its forwards run 4 samples two at a time, below the step's peak
        spec = UNetSpec(out_channels=3 if model == "soft" else 2, base_channels=8)
        params = init_params(spec, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.random((48, 2, 64, 64), dtype=np.float32)
        target = rng.dirichlet(np.ones(3), size=(len(x), 64, 64)).transpose(0, 3, 1, 2).astype(np.float32)
        _live, peak = self._traced(lambda: eval_loss(params, spec, x, target, model, 8))
        assert peak <= 8 * self.MB

    @pytest.mark.parametrize("out_ch", [2, 3])
    def test_untaped_forward_peaks_at_most_11_mb(self, out_ch):
        spec = UNetSpec(out_channels=out_ch, base_channels=8)
        params = init_params(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).random((16, 2, 64, 64), dtype=np.float32)
        _live, peak = self._traced(lambda: forward(params, spec, x, record=False))
        assert peak <= 11 * self.MB


def _taped_mc_predict(params, spec, x, n_samples, mode, rng, percentile=10.0):
    """mc_predict computed on the taped forward."""
    xb = np.broadcast_to(x, (n_samples, *x.shape))
    out, _ = forward(params, spec, xb, keep=dropout_masks(params, spec, xb.shape, rng))
    stack = out.data.astype(np.float64)
    if mode == "soft":
        return softmax(stack.mean(axis=0))
    evidence = np.square(stack)
    if mode == "ev":
        return evidence_to_belief_array(evidence.mean(axis=0))
    return evidence_to_belief_array(percentile_reduce_array(evidence, percentile))


@pytest.fixture(scope="module")
def ckpt_file(tmp_path_factory):
    """A path holding a small valid checkpoint, and that checkpoint's bytes."""
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    spec = UNetSpec(base_channels=1)
    save_checkpoint(path, init_params(spec, np.random.default_rng(0)), spec)
    return path, path.read_bytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        spec = UNetSpec(out_channels=3, base_channels=4, dropout=0.3)
        params = init_params(spec, np.random.default_rng(5))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, spec, seed=5, epoch=2)
        loaded, lspec, header = load_checkpoint(path)
        assert lspec == spec
        assert header["epoch"] == 2 and header["seed"] == 5
        assert set(loaded) == set(params)
        for k in params:
            assert np.array_equal(loaded[k], params[k])

    def test_byte_stable(self, tmp_path):
        spec = UNetSpec(base_channels=4)
        params = init_params(spec, np.random.default_rng(5))
        save_checkpoint(tmp_path / "a.ckpt", params, spec)
        save_checkpoint(tmp_path / "b.ckpt", params, spec)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cut_or_flipped_file_loads_or_raises_naming_it(self, ckpt_file, data):
        path, blob = ckpt_file
        path.write_bytes(cut_and_flip(data, blob))
        reads_or_names_file(load_checkpoint, path)


def _toy_batch(model, rng):
    x = rng.normal(size=(4, 2, 8, 8)).astype(np.float32)
    target = rng.dirichlet(np.ones(3), size=(4, 8, 8)).transpose(0, 3, 1, 2).astype(np.float32)
    spec = UNetSpec(out_channels=3 if model == "soft" else 2, base_channels=4, dropout=0.0)
    return x, target, spec


class TestOptimization:
    @pytest.mark.parametrize("model", ["soft", "ev"])
    def test_full_batch_loss_decreases(self, model):
        rng = np.random.default_rng(7)
        x, target, spec = _toy_batch(model, rng)
        params = init_params(spec, rng)
        opt = Adam(params, lr=1e-3)
        first = eval_loss(params, spec, x, target, model, len(x))
        losses = [train_step(params, spec, x, target, model, opt, dropout_rng=None)
                  for _ in range(50)]
        last = eval_loss(params, spec, x, target, model, len(x))
        assert last < first
        assert last < 0.9 * first
        assert min(losses) == pytest.approx(losses[-1], rel=0.2)

    @pytest.mark.parametrize("model", ["soft", "ev"])
    def test_eval_loss_equals_taped_loss(self, model):
        n = 35  # full chunks of each batch below and a short last one of 3
        rng = np.random.default_rng(8)
        x = rng.normal(size=(n, 2, 8, 8)).astype(np.float32)
        target = rng.dirichlet(np.ones(3), size=(n, 8, 8)).transpose(0, 3, 1, 2).astype(np.float32)
        spec = UNetSpec(out_channels=3 if model == "soft" else 2, base_channels=4)
        params = init_params(spec, rng)
        for batch in (4, 8, 16):
            total = 0.0
            for i in range(0, n, batch):
                out, _ = forward(params, spec, x[i:i + batch])
                loss = (softmax_cross_entropy(out, target[i:i + batch]) if model == "soft"
                        else evidential_bayes_risk(square(out), target[i:i + batch]))
                total += float(loss.data) * len(out.data)
            assert eval_loss(params, spec, x, target, model, batch) == total / n, batch

    def test_divergence_detected(self):
        rng = np.random.default_rng(7)
        x, target, spec = _toy_batch("ev", rng)
        params = init_params(spec, rng)
        params["stem_w"][0, 0, 0, 0] = np.nan
        with pytest.raises(TrainingDiverged):
            train_step(params, spec, x, target, "ev", Adam(params, 1e-3), dropout_rng=None)


class _GradRecorder:
    """Takes the optimizer's place in train_step and keeps the gradients it is given."""

    def step(self, params, grads):
        self.grads = grads


class _SecondHalfFirst:
    """A stand-in for train's thread pool that runs the items last to first."""

    @staticmethod
    def map(fn, items):
        items = list(items)
        return reversed([fn(item) for item in reversed(items)])


def _split_batch(model, n, dropout=0.3):
    rng = np.random.default_rng(11)
    spec = UNetSpec(out_channels=3 if model == "soft" else 2, base_channels=4, dropout=dropout)
    params = init_params(spec, rng)
    x = rng.normal(size=(n, 2, 8, 8)).astype(np.float32)
    target = rng.dirichlet(np.ones(3), size=(n, 8, 8)).transpose(0, 3, 1, 2).astype(np.float32)
    return params, spec, x, target


def _loss_of(out, target, model):
    if model == "soft":
        return softmax_cross_entropy(out, target)
    return evidential_bayes_risk(square(out), target)


class TestSplitStep:
    """train_step runs forward, loss and backward on two fixed half batches on two threads;
    the small samples here are split because SPLIT_MIN_CELLS is lowered to one cell."""

    @pytest.fixture(autouse=True)
    def split_every_sample(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("evgrid.net.train"), "SPLIT_MIN_CELLS", 1)

    @pytest.mark.parametrize("side, halves", [(32, [8]), (64, [4, 4])])
    def test_only_samples_of_enough_cells_are_split(self, side, halves, monkeypatch):
        # the paper's 32-cell grids train whole, the 64-cell ones in halves
        module = importlib.import_module("evgrid.net.train")
        monkeypatch.setattr(module, "SPLIT_MIN_CELLS", SPLIT_MIN_CELLS)
        seen = []

        def spy(params, spec, x, **kwargs):
            seen.append(len(x))
            return forward(params, spec, x, **kwargs)

        monkeypatch.setattr(module, "forward", spy)
        spec = UNetSpec(base_channels=1, dropout=0.0)
        params = init_params(spec, np.random.default_rng(0))
        x = np.zeros((8, 2, side, side), np.float32)
        target = np.full((8, 3, side, side), 1.0 / 3.0, np.float32)
        train_step(params, spec, x, target, "ev", _GradRecorder(), dropout_rng=None)
        assert seen == halves

    @pytest.mark.parametrize("model", ["ev", "soft"])
    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_gradients_equal_the_whole_batch_step(self, model, n):
        params, spec, x, target = _split_batch(model, n)
        out, leaves = forward(params, spec, x, keep=dropout_masks(params, spec, x.shape, np.random.default_rng(5)))
        whole = _loss_of(out, target, model)
        whole.backward()
        recorder = _GradRecorder()
        loss = train_step(params, spec, x, target, model, recorder, dropout_rng=np.random.default_rng(5))
        assert loss == pytest.approx(float(whole.data), rel=1e-6)
        for k in params:
            got, want = recorder.grads[k], leaves[k].grad
            assert got.dtype == want.dtype == np.float32, k
            if n == 1:  # not split: the whole-batch step's bytes
                assert got.tobytes() == want.tobytes(), k
            else:
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6 * np.abs(want).max(), err_msg=k)

    @pytest.mark.parametrize("model", ["ev", "soft"])
    def test_second_half_finishing_first_gives_the_same_bytes(self, model, monkeypatch):
        runs = []
        for pool in (None, _SecondHalfFirst()):
            if pool is not None:
                monkeypatch.setattr(importlib.import_module("evgrid.net.train"), "_two_threads", lambda: pool)
            params, spec, x, target = _split_batch(model, 7)
            opt, rng = Adam(params, 1e-3), np.random.default_rng(5)
            losses = [train_step(params, spec, x, target, model, opt, dropout_rng=rng) for _ in range(3)]
            runs.append((losses, [params[k].tobytes() for k in sorted(params)], rng.random()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_no_generator_or_no_rate_draws_nothing(self, dropout, monkeypatch):
        params, spec, x, target = _split_batch("ev", 8, dropout)
        out, leaves = forward(params, spec, x)  # no dropout
        _loss_of(out, target, "ev").backward()
        monkeypatch.setattr(T, "dropout_keep", lambda *a: pytest.fail("a keep mask was drawn"))
        rng = np.random.default_rng(5) if dropout == 0.0 else None
        recorder = _GradRecorder()
        train_step(params, spec, x, target, "ev", recorder, dropout_rng=rng)
        if rng is not None:
            assert rng.random() == np.random.default_rng(5).random()
        for k in params:
            np.testing.assert_allclose(recorder.grads[k], leaves[k].grad, rtol=1e-5,
                                       atol=1e-6 * np.abs(leaves[k].grad).max(), err_msg=k)

    def test_a_forked_child_runs_on_threads_of_its_own(self):
        # the parent's pool threads are not in the child; a pool that waits for them never returns
        params, spec, x, target = _split_batch("ev", 8)
        want = eval_loss(params, spec, x, target, "ev", 8)  # the pool's threads now exist
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            try:
                signal.alarm(20)
                os.write(write, repr(eval_loss(params, spec, x, target, "ev", 8)).encode())
            finally:
                os._exit(0)
        os.close(write)
        with os.fdopen(read) as f:
            got = f.read()
        assert os.waitpid(pid, 0)[1] == 0
        assert got == repr(want)

    @pytest.mark.parametrize("model", ["ev", "soft"])
    def test_eval_loss_is_the_same_on_two_threads(self, model, monkeypatch):
        # forwards are per sample, so forwards of half as many, two at once, change no bit
        params, spec, x, target = _split_batch(model, 21)  # two chunks of 8 and a short one of 5
        split = eval_loss(params, spec, x, target, model, 8)
        monkeypatch.setattr(importlib.import_module("evgrid.net.train"), "SPLIT_MIN_CELLS", SPLIT_MIN_CELLS)
        assert split == eval_loss(params, spec, x, target, model, 8)



class TestTrainLoop:
    def test_two_runs_identical(self, dataset, tmp_path):
        cfg = TrainConfig(model="ev", epochs=1, base_channels=4, batch_size=4, seed=9)
        pa, _, ma = train(dataset, cfg)
        pb, _, mb = train(dataset, cfg)
        assert ma == mb
        for k in pa:
            assert np.array_equal(pa[k], pb[k])

    def test_writes_checkpoint_and_metrics(self, dataset, tmp_path):
        cfg = TrainConfig(model="soft", epochs=2, base_channels=4, batch_size=4)
        train(dataset, cfg, out_dir=tmp_path)
        params, spec, header = load_checkpoint(tmp_path / "checkpoint.ckpt")
        assert spec.out_channels == 3 and header["epoch"] == 1
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,split,loss"
        # two epochs, train and val rows each
        assert len(lines) == 1 + 4

    @pytest.mark.parametrize("model", ["ev", "soft"])
    def test_rows_are_the_step_mean_and_the_end_of_epoch_val_loss(self, dataset, model, monkeypatch):
        steps, real_step = [], train_step

        def record(params, spec, x, *args, **kwargs):
            loss = real_step(params, spec, x, *args, **kwargs)
            steps.append((len(x), loss, {k: v.copy() for k, v in params.items()}))
            return loss

        monkeypatch.setattr(importlib.import_module("evgrid.net.train"), "train_step", record)
        cfg = TrainConfig(model=model, epochs=2, base_channels=4, batch_size=4, seed=4)
        _params, spec, metrics = train(dataset, cfg)
        x_train, _t, _ids = load_split(dataset, "train")
        x_val, t_val, _ids = load_split(dataset, "val")
        per_epoch = -(-len(x_train) // cfg.batch_size)
        assert len(x_train) % cfg.batch_size and len(steps) == cfg.epochs * per_epoch  # a short last batch
        for epoch in range(cfg.epochs):
            epoch_steps = steps[epoch * per_epoch:(epoch + 1) * per_epoch]
            assert [n for n, _loss, _p in epoch_steps] == [4, len(x_train) % 4]
            mean = sum(n * loss for n, loss, _p in epoch_steps) / len(x_train)
            val = eval_loss(epoch_steps[-1][2], spec, x_val, t_val, model, cfg.batch_size)
            assert metrics[2 * epoch:2 * epoch + 2] == [(epoch, "train", pytest.approx(mean, rel=1e-12)),
                                                        (epoch, "val", val)]

    def test_metrics_kept_when_later_epoch_diverges(self, dataset, tmp_path, monkeypatch):
        real_step = train_step

        def diverge_after_first_epoch(*args, **kwargs):
            if (tmp_path / "checkpoint.ckpt").exists():
                raise TrainingDiverged("non-finite training loss: nan")
            return real_step(*args, **kwargs)

        # evgrid.net re-exports train(), which shadows the module's dotted path
        monkeypatch.setattr(importlib.import_module("evgrid.net.train"), "train_step",
                            diverge_after_first_epoch)
        cfg = TrainConfig(model="ev", epochs=2, base_channels=4, batch_size=4)
        with pytest.raises(TrainingDiverged, match="epoch 1"):
            train(dataset, cfg, out_dir=tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,split,loss"
        assert [line.split(",")[:2] for line in lines[1:]] == [["0", "train"], ["0", "val"]]

    def test_failed_metrics_write_keeps_earlier_epochs(self, dataset, tmp_path, monkeypatch):
        metrics, replace, writes = tmp_path / "metrics.csv", os.replace, []

        def fail_epoch_one(src, dst):  # the header, epoch 0, then epoch 1
            if Path(dst) == metrics:
                writes.append(dst)
                if len(writes) == 3:
                    raise OSError("no space")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_epoch_one)
        cfg = TrainConfig(model="ev", epochs=2, base_channels=4, batch_size=4)
        with pytest.raises(EvgridError, match=re.escape(f"metrics file {metrics}")):
            train(dataset, cfg, out_dir=tmp_path)
        lines = metrics.read_text().splitlines()
        assert lines[0] == "epoch,split,loss"
        assert [line.split(",")[:2] for line in lines[1:]] == [["0", "train"], ["0", "val"]]

    def test_load_split(self, dataset):
        x, t, ids = load_split(dataset, "train")
        assert x.shape[1:] == (2, 16, 16) and t.shape[1:] == (3, 16, 16)
        assert len(ids) == len(x) == len(t)
        assert np.allclose(t.sum(axis=1), 1.0, atol=1e-6)

    def test_empty_train_split_rejected(self, tmp_path):
        manifest = write_dataset(n_scenes=1, spec=GridSpec(16, 0.5), out_dir=tmp_path,
                                 cfg=SimConfig(lidar_rays=90))
        splits = manifest["splits"]
        splits["train"], splits["test"] = [], splits["train"] + splits["test"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="train split is empty"):
            train(tmp_path, TrainConfig(epochs=1, base_channels=4))


class TestMcPredict:
    def _setup(self, out_ch, dropout):
        spec = UNetSpec(out_channels=out_ch, base_channels=4, dropout=dropout)
        params = init_params(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 8, 8)).astype(np.float32)
        return params, spec, x

    def test_belief_output_valid(self):
        for mode, out_ch in [("ev", 2), ("ev-s", 2), ("soft", 3)]:
            params, spec, x = self._setup(out_ch, 0.2)
            pred = mc_predict(params, spec, x, 5, mode, np.random.default_rng(2))
            assert pred.shape == (3, 8, 8)
            assert np.all(pred >= 0.0)
            assert np.allclose(pred.sum(axis=0), 1.0, atol=1e-9)

    def test_ev_single_sample_no_dropout_matches_forward(self):
        params, spec, x = self._setup(2, 0.0)
        pred = mc_predict(params, spec, x, 1, "ev", np.random.default_rng(0))
        out, _ = forward(params, spec, x[None])
        expected = evidence_to_belief_array(np.square(out.data[0].astype(np.float64)))
        assert np.allclose(pred, expected)

    def test_soft_single_sample_matches_softmax(self):
        params, spec, x = self._setup(3, 0.0)
        pred = mc_predict(params, spec, x, 1, "soft", np.random.default_rng(0))
        out, _ = forward(params, spec, x[None])
        assert np.allclose(pred, softmax(out.data[0].astype(np.float64)))

    @pytest.mark.parametrize("mode, out_ch", [("ev", 2), ("ev-s", 2), ("soft", 3)])
    def test_sample_count_irrelevant_without_dropout(self, mode, out_ch):
        params, spec, x = self._setup(out_ch, 0.0)
        one = mc_predict(params, spec, x, 1, mode, np.random.default_rng(0))
        many = mc_predict(params, spec, x, 30, mode, np.random.default_rng(0))
        np.testing.assert_allclose(many, one, rtol=1e-12, atol=1e-15)

    def test_percentile_head_not_above_mean_unknown(self):
        # low-percentile evidence is weakly smaller, so unknown mass is larger
        params, spec, x = self._setup(2, 0.5)
        ev = mc_predict(params, spec, x, 20, "ev", np.random.default_rng(3))
        evs = mc_predict(params, spec, x, 20, "ev-s", np.random.default_rng(3), percentile=10.0)
        assert np.mean(evs[2]) >= np.mean(ev[2]) - 1e-9

    @pytest.mark.parametrize("mode, out_ch", [("ev", 2), ("ev-s", 2), ("soft", 3)])
    def test_equals_taped_oracle(self, mode, out_ch):
        params, spec, x = self._setup(out_ch, 0.2)
        pred = mc_predict(params, spec, x, 30, mode, np.random.default_rng(6))
        assert np.array_equal(pred, _taped_mc_predict(params, spec, x, 30, mode, np.random.default_rng(6)))

    @pytest.mark.parametrize("mode, out_ch", [("ev", 2), ("ev-s", 2), ("soft", 3)])
    @pytest.mark.parametrize("n_samples", [1, 30])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_one_row_equals_the_repeated_image(self, mode, out_ch, n_samples, dropout):
        # without dropout the one row stands for all samples: their float64 mean is exact
        params, spec, x = self._setup(out_ch, dropout)
        pred = mc_predict(params, spec, x, n_samples, mode, np.random.default_rng(6))
        want = _taped_mc_predict(params, spec, x, n_samples, mode, np.random.default_rng(6))
        assert pred.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_stem_runs_on_one_row(self, dropout, monkeypatch):
        params, spec, x = self._setup(2, dropout)
        rows, real = [], T.conv2d_array

        def spy(x, *args):
            rows.append(len(x[0] if isinstance(x, tuple) else x))
            return real(x, *args)

        monkeypatch.setattr(T, "conv2d_array", spy)
        mc_predict(params, spec, x, 30, "ev", np.random.default_rng(6))
        assert rows == [1] + [30 if dropout else 1] * 4

    @pytest.mark.parametrize("mode, out_ch", [("ev", 2), ("ev-s", 2), ("soft", 3)])
    def test_is_the_one_float32_cast(self, mode, out_ch):
        # infer passes the radar grid's float64 data as read; mc_predict casts it for the network
        params, spec, _x = self._setup(out_ch, 0.2)
        x64 = np.random.default_rng(7).normal(size=(2, 8, 8))
        pred64 = mc_predict(params, spec, x64, 30, mode, np.random.default_rng(6))
        pred32 = mc_predict(params, spec, x64.astype(np.float32), 30, mode, np.random.default_rng(6))
        assert pred64.dtype == pred32.dtype == np.float64
        assert np.array_equal(pred64, pred32)

    def test_mode_head_mismatch_rejected(self):
        params, spec, x = self._setup(2, 0.2)
        with pytest.raises(ConfigError):
            mc_predict(params, spec, x, 2, "soft", np.random.default_rng(0))
        with pytest.raises(ConfigError):
            mc_predict(params, spec, x, 2, "bogus", np.random.default_rng(0))


class TestLossHeadsOnNet:
    def test_ev_head_evidence_nonnegative(self):
        spec = UNetSpec(out_channels=2, base_channels=4)
        params = init_params(spec, np.random.default_rng(0))
        out, _ = forward(params, spec, np.random.default_rng(1).normal(size=(1, 2, 8, 8)).astype(np.float32))
        assert np.all(square(out).data >= 0.0)

    def test_losses_accept_net_output(self):
        rng = np.random.default_rng(4)
        target = rng.dirichlet(np.ones(3), size=(1, 8, 8)).transpose(0, 3, 1, 2).astype(np.float32)
        for model, out_ch in [("soft", 3), ("ev", 2)]:
            spec = UNetSpec(out_channels=out_ch, base_channels=4)
            params = init_params(spec, np.random.default_rng(0))
            out, leaves = forward(params, spec, rng.normal(size=(1, 2, 8, 8)).astype(np.float32))
            loss = (softmax_cross_entropy(out, target) if model == "soft"
                    else evidential_bayes_risk(square(out), target))
            loss.backward()
            assert np.isfinite(float(loss.data))
            assert all(np.isfinite(leaves[k].grad).all() for k in params)
