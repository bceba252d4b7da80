"""Shared pytest plumbing: collects acceptance gate lines and prints them
after the run, outside of output capture. Also the helpers several suites
share: a scalar cell lookup, the cut-and-flip damage of the reader fuzz
tests, a CPU count for the scene pool, and the conversion between lists of
scalar detections and the columns the package passes around."""

import os

from hypothesis import strategies as st

from evgrid.errors import EvgridError
from evgrid.grid import world_to_cells
from evgrid.rayism import Detection, Detections

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


def columns(dets: list[Detection]) -> Detections:
    """The ``Detections`` columns of a list of scalar detections, in list order."""
    return Detections(r=[d.r for d in dets], phi=[d.phi for d in dets], v_r=[d.v_r for d in dets],
                      sensor_id=[d.sensor_id for d in dets], t=[d.t for d in dets])


def detection_list(dets: Detections) -> list[Detection]:
    """The scalar detections of ``Detections`` columns, in column order."""
    return [Detection(r=r, phi=phi, v_r=v_r, sensor_id=sid, t=t) for r, phi, v_r, sid, t in
            zip(dets.r.tolist(), dets.phi.tolist(), dets.v_r.tolist(), dets.sensor_id.tolist(), dets.t.tolist())]
