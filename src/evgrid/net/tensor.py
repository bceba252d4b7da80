"""Minimal reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps an ndarray and records its parents plus a backward closure;
calling ``backward()`` on a scalar runs one reverse sweep in anti-topological
order. Only the primitives the U-Net needs are provided: conv2d, transposed
conv2d and elementwise square; the two fused loss heads live in losses.py.

The tape keeps only what a backward reads. No taped op writes into a
tensor's data, so a backward may read its inputs' arrays instead of copies.
conv2d sums one matmul per kernel tap on a shifted view of the input,
zero-padded by (k - 1) // 2 for a k x k kernel (split into phase planes when
strided), so no patch matrix is built; its backward rebuilds the phase planes
from the input's data. An input given as channel-ordered parts (a decoder's
upsampled map and its skip) is written part by part into the padded buffer,
and the backward hands each part its channel slice. The transposed
convolution upsamples by its kernel size, with no overlap, in one
contraction each way. Both end in an optional leaky ReLU max(a, slope*a) for
0 <= slope <= 1, and conv2d then in dropout by a boolean keep mask, applied in
place to the op's fresh output, so no pre-activation becomes a Tensor; the
backward reads the derivative from the output's sign and the mask.
The array kernels conv2d_array and conv_transpose2d_array hold the math; the
taped ops wrap them, and untaped inference (``unet.forward(record=False)``)
calls them directly.

Arrays keep whatever float dtype they come in with, so gradient checks can
run the whole graph in float64 while training uses float32.
"""

from __future__ import annotations

import numpy as np

from evgrid.errors import ConfigError


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self) -> None:
        """Reverse sweep from a scalar tensor; accumulates into the leaves' .grad.

        The sweep consumes the tape: once an interior node's backward has run,
        its grad, closure and parents are dropped, so its arrays are freed as
        the sweep goes and a graph can be swept only once. Leaves (tensors with
        no parents) are zero-filled up front and keep their .grad.
        """
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
            if not node._parents:
                node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad, node._backward, node._parents = None, None, ()


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:  # an interior node's first gradient
        t.grad = np.zeros_like(t.data)
    t.grad += g


# ---------------------------------------------------------------------------
# convolution: one matmul per kernel tap on a shifted view of the input
# ---------------------------------------------------------------------------

def _phase_planes(parts: tuple[np.ndarray, ...], kh: int, kw: int, stride: int):
    """The channel concatenation of parts, zero-padded by (kh - 1) // 2, as planes
    (stride*stride, N, C, hq*wq) of rows a::stride, columns b::stride.

    Tap (i, j) of all outputs is the slice of length ho*wq at a fixed offset in
    plane (i % stride, j % stride); of each output row's wq columns, the last
    wq - wo are discarded. Returns planes, (ho, wo, hq, wq, pad), taps (i, j, plane, offset).
    """
    n, _, h, w = parts[0].shape
    s, pad = stride, (kh - 1) // 2
    ho, wo = (h + 2 * pad - kh) // s + 1, (w + 2 * pad - kw) // s + 1
    # a spare row keeps the last slice in bounds, and s*hq > h + pad always;
    # wq widens where stride > pad + 1 would leave input columns off the planes
    hq, wq = ho + (kh - 1) // s + 1, max(wo + (kw - 1) // s, -(-(w + pad) // s))
    xp = np.zeros((n, sum(part.shape[1] for part in parts), s * hq, s * wq), dtype=np.result_type(*parts))
    np.concatenate(parts, axis=1, out=xp[:, :, pad:pad + h, pad:pad + w])
    planes = xp.reshape(n, -1, hq, s, wq, s).transpose(3, 5, 0, 1, 2, 4).reshape(s * s, n, -1, hq * wq)
    taps = [(i, j, (i % s) * s + j % s, (i // s) * wq + j // s) for i in range(kh) for j in range(kw)]
    return planes, (ho, wo, hq, wq, pad), taps


def _activate(a: np.ndarray, slope: float | None, keep: np.ndarray | None = None, rate: float = 0.0) -> np.ndarray:
    """In place on a fresh a: max(a, slope*a) unless slope is None, then dropout by keep."""
    if slope is not None:
        np.maximum(a, slope * a, out=a)
    if keep is not None:
        a *= dropout_scale(keep, rate, a.dtype)
    return a


def _activation_grad(y: np.ndarray, g: np.ndarray, slope, keep=None, rate: float = 0.0) -> np.ndarray:
    """g mapped through the derivative of _activate, read from its output y and keep."""
    if keep is not None:
        g = g * dropout_scale(keep, rate, y.dtype)
    if slope is not None:  # y > 0 iff its input is > 0, except where dropped: there both branches agree
        g = np.where(y > 0, g, slope * g)
    return g


def conv2d_array(x, w: np.ndarray, b: np.ndarray, stride: int = 1, slope: float | None = None,
                 keep: np.ndarray | None = None, rate: float = 0.0) -> np.ndarray:
    """2-D convolution of plain arrays, then _activate's epilogue; x is an array or a tuple
    of channel-ordered parts, w has shape (Cout, Cin, kh, kw), b shape (Cout,)."""
    parts = x if isinstance(x, tuple) else (x,)
    cout, cin, kh, kw = w.shape
    channels = sum(part.shape[1] for part in parts)
    if channels != cin:
        raise ConfigError(f"conv2d channel mismatch: input {channels}, kernel expects {cin}")
    planes, (ho, wo, hq, wq, pad), taps = _phase_planes(parts, kh, kw, stride)
    n, span = planes.shape[1], ho * wq
    out = np.zeros((n, cout, span), dtype=np.result_type(*parts, w))
    for i, j, q, off in taps:
        out += w[:, :, i, j] @ planes[q][:, :, off:off + span]
    del planes  # the epilogue's temporaries meet neither the planes nor the accumulator
    out = out.reshape(n, cout, ho, wq)[..., :wo] + b[None, :, None, None]
    return _activate(out, slope, keep, rate)


def conv2d(x, w: Tensor, b: Tensor, stride: int = 1, slope: float | None = None,
           keep: np.ndarray | None = None, rate: float = 0.0) -> Tensor:
    """conv2d_array on the tape; x is a Tensor or a tuple of Tensor parts."""
    parts = x if isinstance(x, tuple) else (x,)
    y = conv2d_array(tuple(part.data for part in parts), w.data, b.data, stride, slope, keep, rate)
    t = Tensor(y, parents=(*parts, w, b))

    def backward(g):
        g = _activation_grad(y, g, slope, keep, rate)
        (n, _, h, wdt), (cout, cin, kh, kw) = parts[0].shape, w.shape
        planes, (ho, wo, hq, wq, pad), taps = _phase_planes(tuple(part.data for part in parts), kh, kw, stride)
        span = ho * wq
        gq = np.pad(g, ((0, 0), (0, 0), (0, 0), (0, wq - wo))).reshape(n, cout, span)
        dw = np.empty_like(w.data)
        for i, j, q, off in taps:
            dw[:, :, i, j] = (gq @ planes[q][:, :, off:off + span].transpose(0, 2, 1)).sum(axis=0)
        dplanes = planes  # read for the last time: its buffer takes the input's gradient
        dplanes.fill(0)
        for i, j, q, off in taps:
            dplanes[q][:, :, off:off + span] += w.data[:, :, i, j].T @ gq
        s = stride
        dxp = dplanes.reshape(s, s, n, cin, hq, wq).transpose(2, 3, 4, 0, 5, 1).reshape(n, cin, s * hq, s * wq)
        ends = np.cumsum([part.shape[1] for part in parts])[:-1]
        for part, dx in zip(parts, np.split(dxp[:, :, pad:pad + h, pad:pad + wdt], ends, axis=1)):
            _accumulate(part, dx)
        _accumulate(w, dw)
        _accumulate(b, g.sum(axis=(0, 2, 3)))

    t._backward = backward
    return t


def conv_transpose2d_array(x: np.ndarray, w: np.ndarray, b: np.ndarray, slope: float | None = None) -> np.ndarray:
    """Transposed convolution of plain arrays with stride = kernel size (no overlap), then
    _activate's leaky ReLU; w has shape (Cin, Cout, k, k), and the output side is input * k."""
    cin, cout, s, kw = w.shape
    if kw != s:
        raise ConfigError(f"conv_transpose2d needs a square kernel, got {s}x{kw}")
    if x.shape[1] != cin:
        raise ConfigError(f"conv_transpose2d channel mismatch: input {x.shape[1]}, kernel expects {cin}")
    n, _, h, wdt = x.shape
    blocks = (w.reshape(cin, cout * s * s).T @ x.reshape(n, cin, h * wdt)).reshape(n, cout, s, s, h, wdt)
    out = blocks.transpose(0, 1, 4, 2, 5, 3).reshape(n, cout, h * s, wdt * s)  # the one output copy
    del blocks
    out += b[None, :, None, None]
    return _activate(out, slope)


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor, slope: float | None = None) -> Tensor:
    """conv_transpose2d_array on the tape; the backward keeps the output."""
    y = conv_transpose2d_array(x.data, w.data, b.data, slope)
    t = Tensor(y, parents=(x, w, b))
    n, cin, h, wdt = x.shape
    cout, s = w.shape[1:3]

    def backward(g):
        g = _activation_grad(y, g, slope)
        xm, wm = x.data.reshape(n, cin, h * wdt), w.data.reshape(cin, cout * s * s)
        gm = g.reshape(n, cout, h, s, wdt, s).transpose(0, 1, 3, 5, 2, 4).reshape(n, cout * s * s, h * wdt)
        _accumulate(x, (wm @ gm).reshape(x.shape))
        _accumulate(w, (xm @ gm.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape))
        _accumulate(b, g.sum(axis=(0, 2, 3)))

    t._backward = backward
    return t


def dropout_keep(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean dropout mask: each element is kept with probability 1 - rate."""
    return rng.random(shape) >= rate


def dropout_scale(keep: np.ndarray, rate: float, dtype) -> np.ndarray:
    """The inverse-scaled float mask of a keep mask: 1 / (1 - rate) where kept, 0 elsewhere."""
    return keep.astype(dtype) / np.asarray(1.0 - rate, dtype=dtype)


def square(x: Tensor) -> Tensor:
    t = Tensor(np.square(x.data), parents=(x,))
    t._backward = lambda g: _accumulate(x, 2.0 * x.data * g)
    return t
