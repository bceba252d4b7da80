"""Shared pytest plumbing: collects acceptance gate lines and prints them
after the run, outside of output capture. Also the helpers several suites
share: a scalar cell lookup, and the cut-and-flip damage of the reader fuzz
tests."""

from hypothesis import strategies as st

from evgrid.errors import EvgridError
from evgrid.grid import world_to_cells

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
