"""Minimal reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps an ndarray and records its parents plus a backward closure;
calling ``backward()`` on a scalar runs one reverse sweep in anti-topological
order. Only the primitives the U-Net needs are provided: conv2d, transposed
conv2d, leaky ReLU, dropout with a fixed mask, channel concat, elementwise
square, and the two fused loss heads live in losses.py.

conv2d sums one matmul per kernel tap on a shifted view of the zero-padded
input (split into phase planes when strided), so no patch matrix is built or
kept on the tape; the transposed convolution is one contraction each way.
Their math lives in the array kernels conv2d_array and conv_transpose2d_array,
which the taped ops wrap and untaped inference (``unet.forward(record=False)``)
calls directly. leaky_relu is max(x, slope*x), valid for 0 <= slope <= 1.

Arrays keep whatever float dtype they come in with, so gradient checks can
run the whole graph in float64 while training uses float32.
"""

from __future__ import annotations

import numpy as np

from evgrid.errors import ConfigError


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self) -> None:
        """Reverse sweep from a scalar tensor; accumulates into .grad."""
        if self.data.size != 1:
            raise ConfigError("backward() starts from a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        for node in order:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    t.grad += g


# ---------------------------------------------------------------------------
# convolution: one matmul per kernel tap on a shifted view of the input
# ---------------------------------------------------------------------------

def _phase_planes(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """Zero-padded x as planes (stride*stride, N, C, hq*wq) of rows a::stride, columns b::stride.

    Tap (i, j) of all outputs is the slice of length ho*wq at a fixed offset in
    plane (i % stride, j % stride); of each output row's wq columns, the last
    wq - wo are discarded. Returns planes, (ho, wo, hq, wq), taps (i, j, plane, offset).
    """
    n, c, h, w = x.shape
    s = stride
    ho, wo = (h + 2 * pad - kh) // s + 1, (w + 2 * pad - kw) // s + 1
    # a spare row keeps the last slice in bounds, and s*hq > h + pad always;
    # wq widens where stride > pad + 1 would leave input columns off the planes
    hq, wq = ho + (kh - 1) // s + 1, max(wo + (kw - 1) // s, -(-(w + pad) // s))
    xp = np.zeros((n, c, s * hq, s * wq), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    planes = xp.reshape(n, c, hq, s, wq, s).transpose(3, 5, 0, 1, 2, 4).reshape(s * s, n, c, hq * wq)
    taps = [(i, j, (i % s) * s + j % s, (i // s) * wq + j // s) for i in range(kh) for j in range(kw)]
    return planes, (ho, wo, hq, wq), taps


def conv2d_array(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, pad: int = 1):
    """2-D convolution of plain arrays; w has shape (Cout, Cin, kh, kw), b shape (Cout,).

    Returns the output and the (planes, geometry, taps) of ``_phase_planes``,
    which the taped conv2d keeps for its backward.
    """
    cout, cin, kh, kw = w.shape
    if x.shape[1] != cin:
        raise ConfigError(f"conv2d channel mismatch: input {x.shape[1]}, kernel expects {cin}")
    planes, (ho, wo, hq, wq), taps = _phase_planes(x, kh, kw, stride, pad)
    span = ho * wq
    out = np.zeros((x.shape[0], cout, span), dtype=np.result_type(x, w))
    for i, j, q, off in taps:
        out += w[:, :, i, j] @ planes[q][:, :, off:off + span]
    out = out.reshape(x.shape[0], cout, ho, wq)[..., :wo] + b[None, :, None, None]
    return out, (planes, (ho, wo, hq, wq), taps)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 1) -> Tensor:
    """conv2d_array on the tape; the backward reuses the forward's phase planes."""
    out, (planes, (ho, wo, hq, wq), taps) = conv2d_array(x.data, w.data, b.data, stride, pad)
    t = Tensor(out, parents=(x, w, b))
    (n, cin, h, wdt), cout, span = x.shape, w.shape[0], ho * wq

    def backward(g):
        gq = np.pad(g, ((0, 0), (0, 0), (0, 0), (0, wq - wo))).reshape(n, cout, span)
        dw, dplanes = np.empty_like(w.data), np.zeros_like(planes)
        for i, j, q, off in taps:
            dw[:, :, i, j] = (gq @ planes[q][:, :, off:off + span].transpose(0, 2, 1)).sum(axis=0)
            dplanes[q][:, :, off:off + span] += w.data[:, :, i, j].T @ gq
        s = stride
        dxp = dplanes.reshape(s, s, n, cin, hq, wq).transpose(2, 3, 4, 0, 5, 1).reshape(n, cin, s * hq, s * wq)
        _accumulate(x, dxp[:, :, pad:pad + h, pad:pad + wdt])
        _accumulate(w, dw)
        _accumulate(b, g.sum(axis=(0, 2, 3)))

    t._backward = backward
    return t


def conv_transpose2d_array(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 2) -> np.ndarray:
    """Transposed convolution of plain arrays, kernel size = stride (no overlap).

    w has shape (Cin, Cout, k, k); output spatial size is input * stride.
    """
    cin, cout, kh, kw = w.shape
    if kh != stride or kw != stride:
        raise ConfigError("conv_transpose2d supports kernel size == stride only")
    if x.shape[1] != cin:
        raise ConfigError(f"conv_transpose2d channel mismatch: input {x.shape[1]}, kernel expects {cin}")
    n, _, h, wdt = x.shape
    s = stride
    blocks = (w.reshape(cin, cout * s * s).T @ x.reshape(n, cin, h * wdt)).reshape(n, cout, s, s, h, wdt)
    return blocks.transpose(0, 1, 4, 2, 5, 3).reshape(n, cout, h * s, wdt * s) + b[None, :, None, None]


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2) -> Tensor:
    """conv_transpose2d_array on the tape."""
    t = Tensor(conv_transpose2d_array(x.data, w.data, b.data, stride), parents=(x, w, b))
    n, cin, h, wdt = x.shape
    cout, s = w.shape[1], stride

    def backward(g):
        xm, wm = x.data.reshape(n, cin, h * wdt), w.data.reshape(cin, cout * s * s)
        gm = g.reshape(n, cout, h, s, wdt, s).transpose(0, 1, 3, 5, 2, 4).reshape(n, cout * s * s, h * wdt)
        _accumulate(x, (wm @ gm).reshape(x.shape))
        _accumulate(w, (xm @ gm.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape))
        _accumulate(b, g.sum(axis=(0, 2, 3)))

    t._backward = backward
    return t


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    """max(x, slope*x), which is leaky ReLU for 0 <= slope <= 1 (UNetSpec enforces that range)."""
    t = Tensor(np.maximum(x.data, slope * x.data), parents=(x,))
    t._backward = lambda g: _accumulate(x, np.where(x.data > 0, g, slope * g))
    return t


def dropout(x: Tensor, mask: np.ndarray) -> Tensor:
    """Multiply by a precomputed (already inverse-scaled) mask."""
    t = Tensor(x.data * mask, parents=(x,))
    t._backward = lambda g: _accumulate(x, g * mask)
    return t


def make_dropout_mask(shape, rate: float, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    keep = (rng.random(shape) >= rate).astype(dtype)
    return keep / np.asarray(1.0 - rate, dtype=dtype)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Channel-axis concatenation of two (N,C,H,W) tensors."""
    t = Tensor(np.concatenate([a.data, b.data], axis=1), parents=(a, b))
    ca = a.shape[1]

    def backward(g):
        _accumulate(a, g[:, :ca])
        _accumulate(b, g[:, ca:])

    t._backward = backward
    return t


def square(x: Tensor) -> Tensor:
    t = Tensor(np.square(x.data), parents=(x,))
    t._backward = lambda g: _accumulate(x, 2.0 * x.data * g)
    return t
