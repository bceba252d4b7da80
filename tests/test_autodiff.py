import numpy as np
import pytest

from conftest import concat_op, leaky_relu_op
from evgrid.errors import ConfigError
from evgrid.net.losses import evidential_bayes_risk, softmax_cross_entropy
from evgrid.net.tensor import (
    Tensor,
    _accumulate,
    conv2d,
    conv2d_array,
    conv_transpose2d,
    dropout_keep,
    dropout_scale,
    square,
)


def _fd_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function, element by element."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return g


def _weighted_sum(t: Tensor, w: np.ndarray) -> Tensor:
    out = Tensor(np.asarray((t.data * w).sum()), parents=(t,))
    out._backward = lambda g: _accumulate(t, g * w)
    return out


def _scaled(t: Tensor, mask: np.ndarray) -> Tensor:
    """Dropout as its own taped op, t times a fixed float mask: with leaky_relu_op, the
    reference the fused activation is checked against."""
    out = Tensor(t.data * mask, parents=(t,))
    out._backward = lambda g: _accumulate(t, g * mask)
    return out


def _act(x: Tensor, slope=None, keep=None, rate=0.0) -> Tensor:
    """The activation epilogue on a one-channel 1x1 identity conv2d, which passes every
    pre-activation through as x * 1 + 0: exactly, except that -0.0 arrives as +0.0."""
    one, zero = np.ones((1, 1, 1, 1), dtype=x.dtype), np.zeros(1, dtype=x.dtype)
    return conv2d(x, Tensor(one), Tensor(zero), 1, slope, keep, rate)


def _bits(a: np.ndarray) -> np.ndarray:
    """The raw bits of a float array, so that -0.0 != +0.0 and NaN payloads count."""
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _check(build, arrays, rtol=1e-5, atol=1e-8):
    """FD-check the gradient of build() w.r.t. every array in the dict."""
    tensors = {k: Tensor(v) for k, v in arrays.items()}
    loss = build(tensors)
    loss.backward()
    for name, arr in arrays.items():
        fd = _fd_grad(lambda: float(build({k: Tensor(v) for k, v in arrays.items()}).data), arr)
        np.testing.assert_allclose(tensors[name].grad, fd, rtol=rtol, atol=atol,
                                   err_msg=f"gradient mismatch for {name}")


RNG = np.random.default_rng(12345)


def _conv2d_direct(x, w, b, stride, pad):
    """Nested-loop float64 convolution, one output element at a time."""
    n, _, h, wd = x.shape
    cout, cin, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for i in range(n):
        for o in range(cout):
            for y in range(ho):
                for z in range(wo):
                    acc = b[o]
                    for c in range(cin):
                        for p in range(kh):
                            for q in range(kw):
                                acc += xp[i, c, y * stride + p, z * stride + q] * w[o, c, p, q]
                    out[i, o, y, z] = acc
    return out


def _conv_transpose2d_direct(x, w, b, stride):
    """Nested-loop float64 transposed convolution (kernel size = stride)."""
    n, cin, h, wd = x.shape
    cout = w.shape[1]
    out = np.zeros((n, cout, h * stride, wd * stride)) + b[None, :, None, None]
    for i in range(n):
        for c in range(cin):
            for y in range(h):
                for z in range(wd):
                    out[i, :, y * stride:(y + 1) * stride, z * stride:(z + 1) * stride] += \
                        x[i, c, y, z] * w[c]
    return out


class TestConv2d:
    def test_identity_kernel(self):
        x = RNG.normal(size=(1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)), stride=1)
        assert np.allclose(out.data, x)

    def test_stride_two_shape(self):
        x = RNG.normal(size=(2, 3, 8, 8))
        w = RNG.normal(size=(4, 3, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(4)), stride=2)
        assert out.shape == (2, 4, 4, 4)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))),
                   Tensor(np.zeros(1)))

    def test_two_part_channel_mismatch_names_the_summed_channels(self):
        parts = (np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 4, 4)))
        with pytest.raises(ConfigError, match="input 5, kernel expects 4"):
            conv2d_array(parts, np.zeros((1, 4, 3, 3)), np.zeros(1))
        with pytest.raises(ConfigError, match="input 5, kernel expects 4"):
            conv2d(tuple(map(Tensor, parts)), Tensor(np.zeros((1, 4, 3, 3))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients(self, stride):
        arrays = {
            "x": RNG.normal(size=(2, 2, 6, 6)),
            "w": RNG.normal(size=(3, 2, 3, 3)) * 0.5,
            "b": RNG.normal(size=(3,)),
        }
        side = 6 // stride
        wsum = RNG.normal(size=(2, 3, side, side))
        _check(lambda t: _weighted_sum(
            conv2d(t["x"], t["w"], t["b"], stride=stride), wsum), arrays)

    # pad is the (k - 1) // 2 that conv2d derives from the kernel, spelled out for the reference
    @pytest.mark.parametrize("xshape, wshape, stride, pad", [
        ((3, 2, 6, 6), (5, 2, 3, 3), 1, 1),
        ((2, 3, 8, 8), (4, 3, 3, 3), 2, 1),
        ((2, 4, 5, 7), (3, 4, 3, 3), 2, 1),  # odd, non-square input
        ((2, 3, 5, 7), (2, 3, 2, 2), 2, 0),  # last column meets no tap
    ])
    def test_matches_direct_reference(self, xshape, wshape, stride, pad):
        rng = np.random.default_rng(21)
        x, w, b = rng.normal(size=xshape), rng.normal(size=wshape), rng.normal(size=wshape[0])
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride)
        np.testing.assert_allclose(out.data, _conv2d_direct(x, w, b, stride, pad), rtol=1e-12, atol=1e-12)

    def test_gradients_unused_input_column(self):
        rng = np.random.default_rng(22)
        arrays = {"x": rng.normal(size=(2, 2, 5, 5)), "w": rng.normal(size=(3, 2, 2, 2)),
                  "b": rng.normal(size=(3,))}
        wsum = rng.normal(size=(2, 3, 2, 2))
        _check(lambda t: _weighted_sum(conv2d(t["x"], t["w"], t["b"], stride=2), wsum), arrays)


class TestConvTranspose2d:
    def test_upsamples_by_stride(self):
        x = RNG.normal(size=(1, 4, 3, 3))
        w = RNG.normal(size=(4, 2, 2, 2))
        out = conv_transpose2d(Tensor(x), Tensor(w), Tensor(np.zeros(2)))
        assert out.shape == (1, 2, 6, 6)

    def test_kernel_must_match_stride(self):
        # the stride is the kernel height, so a kernel of another width cannot match it
        with pytest.raises(ConfigError):
            conv_transpose2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((2, 2, 2, 3))),
                             Tensor(np.zeros(2)))

    def test_single_input_broadcasts_kernel(self):
        x = np.ones((1, 1, 2, 2))
        w = RNG.normal(size=(1, 1, 2, 2))
        out = conv_transpose2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        # every input pixel stamps one copy of the kernel
        assert np.allclose(out.data[0, 0, :2, :2], w[0, 0])
        assert np.allclose(out.data[0, 0, 2:, 2:], w[0, 0])

    def test_gradients(self):
        arrays = {
            "x": RNG.normal(size=(2, 3, 4, 4)),
            "w": RNG.normal(size=(3, 2, 2, 2)) * 0.5,
            "b": RNG.normal(size=(2,)),
        }
        wsum = RNG.normal(size=(2, 2, 8, 8))
        _check(lambda t: _weighted_sum(
            conv_transpose2d(t["x"], t["w"], t["b"]), wsum), arrays)

    @pytest.mark.parametrize("xshape, wshape, stride", [
        ((3, 4, 3, 5), (4, 2, 2, 2), 2),
        ((2, 2, 2, 2), (2, 3, 3, 3), 3),
    ])
    def test_matches_direct_reference(self, xshape, wshape, stride):
        rng = np.random.default_rng(23)
        x, w, b = rng.normal(size=xshape), rng.normal(size=wshape), rng.normal(size=wshape[1])
        out = conv_transpose2d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, _conv_transpose2d_direct(x, w, b, stride),
                                   rtol=1e-12, atol=1e-12)


class TestElementwise:
    """The leaky ReLU and dropout epilogue of the convolutions, on _act's identity conv."""

    def test_leaky_relu_values(self):
        out = _act(Tensor(np.array([-2.0, 0.0, 3.0]).reshape(1, 1, 1, 3)), slope=0.1)
        assert np.allclose(out.data.ravel(), [-0.2, 0.0, 3.0])

    @pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
    def test_leaky_relu_bitwise_equals_where_form(self, slope):
        # max(x, slope*x) is the select form bit for bit on [0, 1], signed zeros included
        x = np.concatenate([RNG.normal(size=200), [0.0, -0.0, 1e-45, -1e-45]]).astype(np.float32)
        x = x.reshape(1, 1, 1, -1)
        pre = _act(Tensor(x)).data
        assert np.array_equal(_bits(pre), _bits(x + np.float32(0.0)))
        got = _act(Tensor(x), slope=slope).data
        want = np.where(pre > 0, pre, slope * pre)
        assert np.array_equal(_bits(got), _bits(want))

    def test_leaky_relu_gradient_away_from_kink(self):
        # keep inputs off zero so the central difference stays valid
        x = RNG.normal(size=(2, 1, 4, 4))
        x[np.abs(x) < 0.1] = 0.5
        wsum = RNG.normal(size=x.shape)
        _check(lambda t: _weighted_sum(_act(t["x"], 0.1), wsum), {"x": x})

    def test_square_gradient(self):
        x = RNG.normal(size=(3, 3))
        wsum = RNG.normal(size=(3, 3))
        _check(lambda t: _weighted_sum(square(t["x"]), wsum), {"x": x})

    def test_dropout_fixed_mask(self):
        # with slope 1 the leaky ReLU is the identity, so the epilogue is dropout alone
        x = RNG.normal(size=(1, 1, 4, 4))
        keep = dropout_keep(x.shape, 0.5, np.random.default_rng(0))
        mask = dropout_scale(keep, 0.5, np.float64)
        out = _act(Tensor(x), 1.0, keep, 0.5)
        assert np.allclose(out.data, x * mask)
        wsum = RNG.normal(size=x.shape)
        _check(lambda t: _weighted_sum(_act(t["x"], 1.0, keep, 0.5), wsum), {"x": x})

    def test_mask_is_inverse_scaled(self):
        mask = dropout_scale(dropout_keep((10000,), 0.25, np.random.default_rng(3)), 0.25, np.float64)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}
        assert mask.mean() == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
    def test_leaky_relu_with_dropout_equals_the_two_ops_bitwise(self, slope):
        """The epilogue gives the bytes of a linear conv, leaky_relu_op and a separate
        multiply by the float mask, in values and in every gradient, in float32 and float64.
        The edge values come twice, once kept and once dropped, and infinite upstream
        gradients meet dropped elements, positive ones among them, where the output's sign
        and the input's differ."""
        rng = np.random.default_rng(31)
        special = [0.0, -0.0, 1e-45, -1e-45, 1e38, -1e38, np.nan, np.inf, -np.inf, 1.0]
        x = np.concatenate([rng.normal(size=236), special, special]).reshape(2, 1, 8, 16)
        g = np.concatenate([rng.normal(size=236), [-0.0, 0.0] * 5,
                            [-0.0, 0.0, np.inf, -np.inf, np.inf, 0.0, -0.0, np.inf, -np.inf, -np.inf]])
        rate = 0.3
        keep = dropout_keep(x.shape, rate, rng)
        keep.reshape(-1)[236:246], keep.reshape(-1)[246:] = True, False
        assert 0 < keep.sum() < keep.size
        for dtype in (np.float32, np.float64):
            xd, gd, mask = x.astype(dtype), g.astype(dtype).reshape(x.shape), dropout_scale(keep, rate, dtype)
            results = []
            with np.errstate(invalid="ignore", over="ignore"):
                for fused in (True, False):
                    leaf, one, zero = Tensor(xd), Tensor(np.ones((1, 1, 1, 1), dtype)), Tensor(np.zeros(1, dtype))
                    if fused:
                        out = conv2d(leaf, one, zero, 1, slope, keep, rate)
                    else:
                        out = _scaled(leaky_relu_op(conv2d(leaf, one, zero), slope), mask)
                    _weighted_sum(out, gd).backward()
                    results.append((out.data, leaf.grad, one.grad, zero.grad))
            for got, want in zip(*results):
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(_bits(got), _bits(want))
            assert np.isnan(results[0][1].reshape(-1)[-8:]).sum() == 6  # inf times a dropped element's zero

    @pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
    def test_leaky_relu_with_dropout_gradient(self, slope):
        x = RNG.normal(size=(2, 1, 4, 4))
        x[np.abs(x) < 0.1] = 0.5  # off the kink, where the central difference holds
        keep = dropout_keep(x.shape, 0.4, np.random.default_rng(4))
        wsum = RNG.normal(size=x.shape)
        _check(lambda t: _weighted_sum(_act(t["x"], slope, keep, 0.4), wsum), {"x": x})


class TestConcatAndGraph:
    """A conv2d input given as channel-ordered parts is their concatenation."""

    def test_concat_values_and_gradient(self):
        arrays = {"a": RNG.normal(size=(1, 2, 3, 3)), "b": RNG.normal(size=(1, 4, 3, 3)),
                  "w": RNG.normal(size=(5, 6, 3, 3)), "bias": RNG.normal(size=(5,))}
        joined = np.concatenate([arrays["a"], arrays["b"]], axis=1)
        whole = conv2d(Tensor(joined), Tensor(arrays["w"]), Tensor(arrays["bias"]))
        parts = conv2d((Tensor(arrays["a"]), Tensor(arrays["b"])), Tensor(arrays["w"]), Tensor(arrays["bias"]))
        assert np.array_equal(_bits(parts.data), _bits(whole.data))
        wsum = RNG.normal(size=(1, 5, 3, 3))
        _check(lambda t: _weighted_sum(conv2d((t["a"], t["b"]), t["w"], t["bias"]), wsum), arrays)

    def test_shared_node_gradients_accumulate(self):
        x = Tensor(np.array([1.0, 2.0]))

        def lift():
            t = Tensor(x.data[None, :, None, None], parents=(x,))
            t._backward = lambda g: _accumulate(x, g[0, :, 0, 0])
            return t

        eye = Tensor(np.eye(4)[:, :, None, None])  # a 1x1 conv that passes its input through
        loss = _weighted_sum(conv2d((lift(), lift()), eye, Tensor(np.zeros(4))), np.ones((1, 4, 1, 1)))
        loss.backward()
        assert np.allclose(x.grad, [2.0, 2.0])
        same = lift()  # one node given as both parts; the sweep zero-fills the leaf again
        _weighted_sum(conv2d((same, same), eye, Tensor(np.zeros(4))), np.ones((1, 4, 1, 1))).backward()
        assert np.allclose(x.grad, [2.0, 2.0])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_two_part_gradients_with_epilogue(self, stride):
        arrays = {"a": RNG.normal(size=(2, 2, 6, 6)), "b": RNG.normal(size=(2, 3, 6, 6)),
                  "w": RNG.normal(size=(4, 5, 3, 3)) * 0.5, "bias": RNG.normal(size=(4,))}
        side = 6 // stride
        keep = dropout_keep((2, 4, side, side), 0.3, np.random.default_rng(6))
        wsum = RNG.normal(size=(2, 4, side, side))
        _check(lambda t: _weighted_sum(
            conv2d((t["a"], t["b"]), t["w"], t["bias"], stride, 0.1, keep, 0.3), wsum), arrays)

    def test_backward_consumes_the_tape(self):
        arrays = {"x": RNG.normal(size=(1, 2, 4, 4)), "w": RNG.normal(size=(3, 2, 3, 3)),
                  "b": RNG.normal(size=(3,))}
        wsum = RNG.normal(size=(1, 3, 4, 4))
        hidden = []  # the interior node of every graph built; _check sweeps the first

        def build(t):
            hidden.append(conv2d(t["x"], t["w"], t["b"], slope=0.1))
            return _weighted_sum(hidden[-1], wsum)

        _check(build, arrays)  # the leaves' gradients still match finite differences
        assert hidden[0].grad is None and hidden[0]._backward is None and hidden[0]._parents == ()

    def test_backward_requires_scalar(self):
        with pytest.raises(ConfigError):
            Tensor(np.zeros(3)).backward()


class TestFusedDecoderChain:
    """A decoder stage with fused activations and a two-part input gives the bytes of
    the separate taped ops: linear conv2d, leaky_relu_op with a keep mask, transposed
    conv, leaky_relu_op, concat_op with the skip, linear conv2d."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
    def test_equals_composition_bitwise(self, slope, dropout, batch, dtype):
        rng = np.random.default_rng(41)
        arrays = {"x": rng.normal(size=(batch, 2, 8, 8)), "skip": rng.normal(size=(batch, 3, 8, 8)),
                  "w1": rng.normal(size=(4, 2, 3, 3)), "b1": rng.normal(size=(4,)),
                  "wt": rng.normal(size=(4, 2, 2, 2)), "bt": rng.normal(size=(2,)),
                  "w2": rng.normal(size=(3, 5, 3, 3)), "b2": rng.normal(size=(3,))}
        arrays = {k: v.astype(dtype) for k, v in arrays.items()}
        arrays["x"].reshape(-1)[:4] = [-0.0, 1e-45, -1e-45, 0.0]  # edge inputs reach the convs
        rate = 0.3
        keep = dropout_keep((batch, 4, 4, 4), rate, rng) if dropout else None
        g = rng.normal(size=(batch, 3, 8, 8)).astype(dtype)

        def fused(t):
            a = conv2d(t["x"], t["w1"], t["b1"], 2, slope, keep, rate)
            u = conv_transpose2d(a, t["wt"], t["bt"], slope)
            return conv2d((u, t["skip"]), t["w2"], t["b2"])

        def composed(t):
            a = leaky_relu_op(conv2d(t["x"], t["w1"], t["b1"], stride=2), slope, keep, rate)
            u = leaky_relu_op(conv_transpose2d(a, t["wt"], t["bt"]), slope)
            return conv2d(concat_op(u, t["skip"]), t["w2"], t["b2"])

        results = []
        for build in (fused, composed):
            leaves = {k: Tensor(v) for k, v in arrays.items()}
            out = build(leaves)
            loss = _weighted_sum(out, g)
            loss.backward()
            results.append([out.data, loss.data] + [leaves[k].grad for k in arrays])
        for name, got, want in zip(["out", "loss", *arrays], *results):
            assert got.dtype == want.dtype == dtype, name
            assert np.array_equal(_bits(got), _bits(want)), name


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_one_hot(self):
        logits = np.zeros((1, 3, 2, 2))
        target = np.zeros((1, 3, 2, 2))
        target[0, 1] = 1.0
        loss = softmax_cross_entropy(Tensor(logits), target)
        assert float(loss.data) == pytest.approx(np.log(3.0))

    def test_perfect_prediction_loss_small(self):
        logits = np.zeros((1, 3, 1, 1))
        logits[0, 0] = 30.0
        target = np.zeros((1, 3, 1, 1))
        target[0, 0] = 1.0
        assert float(softmax_cross_entropy(Tensor(logits), target).data) < 1e-9

    def test_conflict_target_weights_both_classes(self):
        logits = np.zeros((1, 3, 1, 1))
        target = np.zeros((1, 3, 1, 1))
        target[0, 0] = target[0, 1] = 0.5
        assert float(softmax_cross_entropy(Tensor(logits), target).data) == pytest.approx(np.log(3.0))

    def test_gradient(self):
        logits = RNG.normal(size=(2, 3, 4, 4))
        target = RNG.dirichlet(np.ones(3), size=(2, 4, 4)).transpose(0, 3, 1, 2)
        t = Tensor(logits)
        loss = softmax_cross_entropy(t, target)
        loss.backward()
        fd = _fd_grad(lambda: float(softmax_cross_entropy(Tensor(logits), target).data), logits)
        np.testing.assert_allclose(t.grad, fd, rtol=1e-5, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            softmax_cross_entropy(Tensor(np.zeros((1, 3, 2, 2))), np.zeros((1, 3, 4, 4)))


class TestEvidentialBayesRisk:
    def test_unknown_target_zero_evidence_is_zero(self):
        evidence = np.zeros((1, 2, 1, 1))
        target = np.zeros((1, 3, 1, 1))
        target[0, 2] = 1.0
        assert float(evidential_bayes_risk(Tensor(evidence), target).data) == 0.0

    def test_free_target_zero_evidence(self):
        evidence = np.zeros((1, 2, 1, 1))
        target = np.zeros((1, 3, 1, 1))
        target[0, 0] = 1.0
        # p = (1/2, 1/2), S = 2: (1-p_f)^2 + p_o^2 + 2 * (1/4) / 3 = 2/3
        assert float(evidential_bayes_risk(Tensor(evidence), target).data) == pytest.approx(2 / 3)

    def test_conflict_target_vanishes_with_symmetric_evidence(self):
        target = np.zeros((1, 3, 1, 1))
        target[0, 0] = target[0, 1] = 0.5
        big = np.full((1, 2, 1, 1), 1e6)
        assert float(evidential_bayes_risk(Tensor(big), target).data) < 1e-5

    def test_unknown_target_penalizes_evidence(self):
        target = np.zeros((1, 3, 1, 1))
        target[0, 2] = 1.0
        small = float(evidential_bayes_risk(Tensor(np.full((1, 2, 1, 1), 0.1)), target).data)
        large = float(evidential_bayes_risk(Tensor(np.full((1, 2, 1, 1), 10.0)), target).data)
        assert 0.0 < small < large < 1.0

    def test_gradient(self):
        evidence = RNG.uniform(0.1, 3.0, size=(2, 2, 4, 4))
        target = RNG.dirichlet(np.ones(3), size=(2, 4, 4)).transpose(0, 3, 1, 2)
        t = Tensor(evidence)
        loss = evidential_bayes_risk(t, target)
        loss.backward()
        fd = _fd_grad(lambda: float(evidential_bayes_risk(Tensor(evidence), target).data), evidence)
        np.testing.assert_allclose(t.grad, fd, rtol=1e-4, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            evidential_bayes_risk(Tensor(np.zeros((1, 3, 2, 2))), np.zeros((1, 3, 2, 2)))
