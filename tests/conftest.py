"""Shared pytest plumbing: collects acceptance gate lines and prints them
after the run, outside of output capture. Also the helpers several suites
share: a scalar cell lookup, the cut-and-flip damage of the reader fuzz
tests, a CPU count for the scene pool, the conversion between lists of
detection rows and the columns the package passes around, and the U-Net
composed of separate taped ops (linear convolutions, leaky ReLU with dropout
as an op of its own, channel concatenation): the reference the convolutions'
fused activations and two-part inputs are checked against bit for bit."""

import os
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from evgrid.errors import EvgridError
from evgrid.grid import world_to_cells
from evgrid.net.tensor import Tensor, _accumulate, conv2d, conv_transpose2d, dropout_keep, dropout_scale
from evgrid.rayism import Detections

_gate_lines: list[str] = []


def record_gate_line(line: str) -> None:
    _gate_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _gate_lines:
        terminalreporter.section("acceptance gate")
        for line in _gate_lines:
            terminalreporter.write_line(line)


def cell_of(spec, point, ego):
    """The (row, col) of one world point under ``world_to_cells``, or None outside the grid."""
    row, col, inside = world_to_cells(spec, ego, *point)
    return (int(row), int(col)) if inside else None


def cut_and_flip(data, blob: bytes) -> bytes:
    """A prefix of ``blob`` with one byte XOR-ed, both drawn from the Hypothesis ``data``."""
    cut = bytearray(blob[:data.draw(st.integers(0, len(blob)))])
    if cut:
        cut[data.draw(st.integers(0, len(cut) - 1))] ^= data.draw(st.integers(0, 255))
    return bytes(cut)


def reads_or_names_file(read, path) -> None:
    """``read(path)`` either returns or raises an EvgridError whose message names ``path``."""
    try:
        read(path)
    except EvgridError as exc:
        assert str(path) in str(exc)


def fake_cpus(monkeypatch, n: int) -> None:
    """Make the process's CPU affinity, which sizes ``map_scenes``'s pool, hold ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@dataclass(frozen=True)
class Row:
    """One detection as a row of the ``Detections`` columns, every field included."""

    r: float
    phi: float
    v_r: float = 0.0
    sensor_id: int = 0
    t: float = 0.0


def columns(rows: list[Row]) -> Detections:
    """The ``Detections`` columns of a list of rows, in list order."""
    return Detections(r=[d.r for d in rows], phi=[d.phi for d in rows], v_r=[d.v_r for d in rows],
                      sensor_id=[d.sensor_id for d in rows], t=[d.t for d in rows])


def detection_list(dets: Detections) -> list[Row]:
    """The rows of ``Detections`` columns, in column order."""
    return [Row(r=r, phi=phi, v_r=v_r, sensor_id=sid, t=t) for r, phi, v_r, sid, t in
            zip(dets.r.tolist(), dets.phi.tolist(), dets.v_r.tolist(), dets.sensor_id.tolist(), dets.t.tolist())]


def leaky_relu_op(x: Tensor, slope: float, keep=None, rate: float = 0.0) -> Tensor:
    """Leaky ReLU max(x, slope*x), then dropout where a keep mask is given, as a taped
    op of its own whose backward reads the pre-activation x."""
    y = np.maximum(x.data, slope * x.data)
    if keep is not None:
        y *= dropout_scale(keep, rate, y.dtype)
    t = Tensor(y, parents=(x,))

    def backward(g):
        if keep is not None:
            g = g * dropout_scale(keep, rate, x.dtype)
        _accumulate(x, np.where(x.data > 0, g, slope * g))

    t._backward = backward
    return t


def concat_op(a: Tensor, b: Tensor) -> Tensor:
    """Channel-axis concatenation of two (N,C,H,W) tensors as a taped op."""
    t = Tensor(np.concatenate([a.data, b.data], axis=1), parents=(a, b))
    ca = a.shape[1]

    def backward(g):
        _accumulate(a, g[:, :ca])
        _accumulate(b, g[:, ca:])

    t._backward = backward
    return t


def composed_forward(params, spec, x, dropout_rng=None):
    """unet.forward's network with every activation and skip concatenation a taped op
    of its own; masks are drawn in the same order and shapes."""
    slope, rate = spec.leaky_slope, spec.dropout
    p, h = {name: Tensor(arr) for name, arr in params.items()}, Tensor(x)

    def block(t):
        if dropout_rng is None or rate == 0.0:
            return leaky_relu_op(t, slope)
        return leaky_relu_op(t, slope, dropout_keep(t.shape, rate, dropout_rng), rate)

    h0 = block(conv2d(h, p["stem_w"], p["stem_b"], stride=1))
    h1 = block(conv2d(h0, p["down1_w"], p["down1_b"], stride=2))
    h = conv2d(h1, p["down2_w"], p["down2_b"], stride=2)
    h = conv_transpose2d(block(h), p["up1_w"], p["up1_b"])
    h = concat_op(leaky_relu_op(h, slope), h1)
    h = conv2d(h, p["dec1_w"], p["dec1_b"], stride=1)
    h = conv_transpose2d(block(h), p["up2_w"], p["up2_b"])
    h = concat_op(leaky_relu_op(h, slope), h0)
    return conv2d(h, p["dec2_w"], p["dec2_b"], stride=1), p
