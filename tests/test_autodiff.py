import numpy as np
import pytest

from evgrid.errors import ConfigError
from evgrid.net.losses import evidential_bayes_risk, softmax_cross_entropy
from evgrid.net.tensor import (
    Tensor,
    _accumulate,
    concat,
    conv2d,
    conv_transpose2d,
    dropout_keep,
    dropout_scale,
    leaky_relu,
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
    """Dropout as its own taped op, t times a fixed float mask: the reference the fused
    leaky_relu is checked against."""
    out = Tensor(t.data * mask, parents=(t,))
    out._backward = lambda g: _accumulate(t, g * mask)
    return out


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
    def test_leaky_relu_values(self):
        out = leaky_relu(Tensor(np.array([-2.0, 0.0, 3.0])), slope=0.1)
        assert np.allclose(out.data, [-0.2, 0.0, 3.0])

    @pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
    def test_leaky_relu_bitwise_equals_where_form(self, slope):
        # max(x, slope*x) is the select form bit for bit on [0, 1], signed zeros included
        x = np.concatenate([RNG.normal(size=200), [0.0, -0.0, 1e-45, -1e-45]]).astype(np.float32)
        got = leaky_relu(Tensor(x), slope=slope).data
        want = np.where(x > 0, x, slope * x)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_leaky_relu_gradient_away_from_kink(self):
        # keep inputs off zero so the central difference stays valid
        x = RNG.normal(size=(2, 3, 4, 4))
        x[np.abs(x) < 0.1] = 0.5
        wsum = RNG.normal(size=x.shape)
        _check(lambda t: _weighted_sum(leaky_relu(t["x"], 0.1), wsum), {"x": x})

    def test_square_gradient(self):
        x = RNG.normal(size=(3, 3))
        wsum = RNG.normal(size=(3, 3))
        _check(lambda t: _weighted_sum(square(t["x"]), wsum), {"x": x})

    def test_dropout_fixed_mask(self):
        # with slope 1 the leaky ReLU is the identity, so the op is dropout alone
        x = RNG.normal(size=(1, 2, 4, 4))
        keep = dropout_keep(x.shape, 0.5, np.random.default_rng(0))
        mask = dropout_scale(keep, 0.5, np.float64)
        out = leaky_relu(Tensor(x), 1.0, keep, 0.5)
        assert np.allclose(out.data, x * mask)
        wsum = RNG.normal(size=x.shape)
        _check(lambda t: _weighted_sum(leaky_relu(t["x"], 1.0, keep, 0.5), wsum), {"x": x})

    def test_mask_is_inverse_scaled(self):
        mask = dropout_scale(dropout_keep((10000,), 0.25, np.random.default_rng(3)), 0.25, np.float64)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}
        assert mask.mean() == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
    def test_leaky_relu_with_dropout_equals_the_two_ops_bitwise(self, slope):
        """One op for leaky ReLU then dropout gives the bytes of leaky_relu followed by a
        separate multiply by the float mask, in values and gradients, signed zeros included."""
        rng = np.random.default_rng(31)
        special = [0.0, -0.0, 1e-45, -1e-45, 1e38, -1e38]
        x = np.concatenate([rng.normal(size=250), special]).astype(np.float32).reshape(2, 2, 8, 8)
        g = np.concatenate([rng.normal(size=250), [-0.0, 0.0, -0.0, 0.0, -0.0, 1.0]]).astype(np.float32)
        g = g.reshape(x.shape)
        rate = 0.3
        keep = dropout_keep(x.shape, rate, rng)
        assert keep.dtype == bool and 0 < keep.sum() < keep.size
        mask = dropout_scale(keep, rate, np.float32)
        grads = []
        for build in (lambda t: leaky_relu(t, slope, keep, rate),
                      lambda t: _scaled(leaky_relu(t, slope), mask)):
            leaf = Tensor(x)
            out = build(leaf)
            _weighted_sum(out, g).backward()
            grads.append((out.data, leaf.grad))
        (fused, dfused), (composed, dcomposed) = grads
        assert fused.dtype == composed.dtype == dfused.dtype == np.float32
        assert np.array_equal(fused.view(np.uint32), composed.view(np.uint32))
        assert np.array_equal(dfused.view(np.uint32), dcomposed.view(np.uint32))
        assert np.array_equal(fused.view(np.uint32),
                              (np.where(x > 0, x, np.float32(slope) * x) * mask).view(np.uint32))

    @pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
    def test_leaky_relu_with_dropout_gradient(self, slope):
        x = RNG.normal(size=(2, 3, 4, 4))
        x[np.abs(x) < 0.1] = 0.5  # off the kink, where the central difference holds
        keep = dropout_keep(x.shape, 0.4, np.random.default_rng(4))
        wsum = RNG.normal(size=x.shape)
        _check(lambda t: _weighted_sum(leaky_relu(t["x"], slope, keep, 0.4), wsum), {"x": x})


class TestConcatAndGraph:
    def test_concat_values_and_gradient(self):
        arrays = {"a": RNG.normal(size=(1, 2, 3, 3)), "b": RNG.normal(size=(1, 4, 3, 3))}
        wsum = RNG.normal(size=(1, 6, 3, 3))
        _check(lambda t: _weighted_sum(concat(t["a"], t["b"]), wsum), arrays)

    def test_shared_node_gradients_accumulate(self):
        x = Tensor(np.array([1.0, 2.0]))

        def lift():
            t = Tensor(x.data[None, :, None, None], parents=(x,))
            t._backward = lambda g: _accumulate(x, g[0, :, 0, 0])
            return t

        loss = _weighted_sum(concat(lift(), lift()), np.ones((1, 4, 1, 1)))
        loss.backward()
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_backward_consumes_the_tape(self):
        arrays = {"x": RNG.normal(size=(1, 2, 4, 4)), "w": RNG.normal(size=(3, 2, 3, 3)),
                  "b": RNG.normal(size=(3,))}
        wsum = RNG.normal(size=(1, 3, 4, 4))
        hidden = []  # the interior node of every graph built; _check sweeps the first

        def build(t):
            hidden.append(leaky_relu(conv2d(t["x"], t["w"], t["b"]), 0.1))
            return _weighted_sum(hidden[-1], wsum)

        _check(build, arrays)  # the leaves' gradients still match finite differences
        assert hidden[0].grad is None and hidden[0]._backward is None and hidden[0]._parents == ()

    def test_backward_requires_scalar(self):
        with pytest.raises(ConfigError):
            Tensor(np.zeros(3)).backward()


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
