"""2-D occupancy grid data model.

Ego-centered square grids with the world/cell transforms, Dempster-Shafer
combination of two cells' belief masses, the probability-to-belief map, and
the binary grid file format plus PGM/PPM rendering.

Grids are stored row-major with shape (channels, side, side); row index
follows the ego-frame y axis and column index the x axis, so the cell at
(side//2, side//2) contains the ego position.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from evgrid.errors import DomainError, EvgridError, is_int, is_number, read_input, write_atomic
from evgrid.evidential import EvidentialState


def wrap_angle(theta: float | np.ndarray):
    """Normalize an angle to (-pi, pi]."""
    wrapped = -((-np.asarray(theta) + np.pi) % (2.0 * np.pi) - np.pi)
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class Pose2D:
    """World-frame planar pose; heading normalized to (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "heading", wrap_angle(self.heading))


@dataclass(frozen=True)
class GridSpec:
    side_cells: int = 32
    cell_size: float = 0.5

    def __post_init__(self) -> None:
        if self.side_cells < 8:
            raise DomainError(f"side_cells must be >= 8, got {self.side_cells}")
        if self.cell_size <= 0:
            raise DomainError(f"cell_size must be > 0, got {self.cell_size}")

    @property
    def extent(self) -> float:
        """Metric side length of the covered square."""
        return self.side_cells * self.cell_size


@dataclass
class Grid2D:
    """A multi-channel field over an ego-centered square.

    ``data`` has shape (len(channels), side, side). ``origin`` is the pose
    the grid is centered on and aligned with.
    """

    spec: GridSpec
    data: np.ndarray
    channels: tuple[str, ...] = ("value",)
    origin: Pose2D = field(default_factory=Pose2D)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        if self.data.ndim == 2:
            self.data = self.data[None]
        expected = (len(self.channels), self.spec.side_cells, self.spec.side_cells)
        if self.data.shape != expected:
            raise DomainError(f"grid data shape {self.data.shape} != expected {expected}")


def world_to_cells(spec: GridSpec, ego: Pose2D, px, py):
    """Map world points into grid cells: (row, col, inside) arrays.

    Ego-relative rotation, then translation to grid frame, then floor
    division by the cell size; points exactly on a cell boundary go to the
    cell whose lower edge they sit on. ``row`` and ``col`` are int64 and lie
    outside [0, side) where ``inside`` is False.
    """
    c, s = math.cos(ego.heading), math.sin(ego.heading)
    dx, dy = px - ego.x, py - ego.y
    xr = c * dx - s * dy
    yr = s * dx + c * dy
    half = spec.side_cells // 2
    col = np.floor(xr / spec.cell_size).astype(np.int64) + half
    row = np.floor(yr / spec.cell_size).astype(np.int64) + half
    inside = (row >= 0) & (row < spec.side_cells) & (col >= 0) & (col < spec.side_cells)
    return row, col, inside


def cell_centers(spec: GridSpec, ego: Pose2D) -> tuple[np.ndarray, np.ndarray]:
    """World coordinates of every cell center; two (side, side) arrays."""
    half = spec.side_cells // 2
    idx = (np.arange(spec.side_cells) - half + 0.5) * spec.cell_size
    xr, yr = np.meshgrid(idx, idx)  # xr varies along columns, yr along rows
    c, s = math.cos(ego.heading), math.sin(ego.heading)
    wx = ego.x + c * xr + s * yr
    wy = ego.y - s * xr + c * yr
    return wx, wy


def prob_to_evidential_array(p_o: np.ndarray) -> np.ndarray:
    """Linear pignistic-style map from occupancy probability to belief masses.

    (...) -> (3, ...) of (b_f, b_o, u): the uninformative p_o = 0.5 maps to
    full unknown and the extremes to full belief; at most one of b_f, b_o is
    nonzero.
    """
    p_o = np.asarray(p_o, dtype=np.float64)
    b_o = np.maximum(0.0, 2.0 * p_o - 1.0)
    b_f = np.maximum(0.0, 1.0 - 2.0 * p_o)
    return np.stack([b_f, b_o, 1.0 - b_o - b_f])


def dempster_combine(m1: EvidentialState, m2: EvidentialState) -> EvidentialState:
    """Dempster's rule of combination on the frame {free, occupied}."""
    conflict = m1.b_f * m2.b_o + m1.b_o * m2.b_f
    if conflict >= 1.0 - 1e-12:
        raise DomainError("total conflict: Dempster's rule undefined")
    norm = 1.0 - conflict
    b_f = (m1.b_f * m2.b_f + m1.b_f * m2.u + m1.u * m2.b_f) / norm
    b_o = (m1.b_o * m2.b_o + m1.b_o * m2.u + m1.u * m2.b_o) / norm
    u = m1.u * m2.u / norm
    # guard against float drift past the simplex boundary
    total = b_f + b_o + u
    b_f, b_o, u = b_f / total, b_o / total, u / total
    return EvidentialState(b_f=min(b_f, 1.0), b_o=min(b_o, 1.0), u=min(u, 1.0))


# ---------------------------------------------------------------------------
# serialization: JSON header line + little-endian float32 payload
# ---------------------------------------------------------------------------

def pack_f32(header: dict, arrays) -> bytes:
    """A compact, key-sorted JSON header line, then the arrays as little-endian f32."""
    header = {**header, "element_type": "f32"}
    payload = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays)
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + payload


def unpack_f32(blob: bytes) -> tuple[dict, bytes]:
    """Split a container into its header and raw payload; checks the header is f32 JSON.

    A blob with no newline has an empty payload, which the size check of
    ``f32_values`` then rejects.
    """
    head, _, payload = blob.partition(b"\n")
    try:
        header = json.loads(head.decode())
    except ValueError as exc:  # covers JSON and UTF-8 errors
        raise EvgridError(f"header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise EvgridError("header is not a JSON object")
    if header.get("element_type") != "f32":
        raise EvgridError(f"unsupported element type {header.get('element_type')!r}")
    return header, payload


def f32_values(payload: bytes, count: int) -> np.ndarray:
    """A read-only view of the payload as ``count`` finite values; any other length,
    or a NaN or infinity, is an error."""
    if len(payload) != 4 * count:
        raise EvgridError(f"payload is {len(payload)} bytes, expected {4 * count}")
    values = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(values).all():
        raise EvgridError("payload holds a NaN or an infinity")
    return values


# the values a grid channel may hold, by name: belief masses and visibility are
# fractions, radar hit counts at most what a float32 counts exactly
_CHANNEL_RANGES = {"b_f": (0.0, 1.0), "b_o": (0.0, 1.0), "u": (0.0, 1.0), "visible": (0.0, 1.0),
                  "static": (0.0, 2.0**24), "dynamic": (0.0, 2.0**24)}


def grid_to_bytes(grid: Grid2D) -> bytes:
    header = {
        "side_cells": grid.spec.side_cells,
        "cell_size": grid.spec.cell_size,
        "channels": list(grid.channels),
        "origin": {"x": grid.origin.x, "y": grid.origin.y, "heading": grid.origin.heading},
    }
    return pack_f32(header, [grid.data])


def grid_from_bytes(blob: bytes) -> Grid2D:
    """Parse a grid container; a malformed or truncated blob raises EvgridError."""
    header, payload = unpack_f32(blob)
    side, cell_size = header.get("side_cells"), header.get("cell_size")
    channels, o = header.get("channels"), header.get("origin")
    if not (is_int(side) and is_number(cell_size)):
        raise EvgridError(f"header needs integer side_cells and numeric cell_size, got {side!r}, {cell_size!r}")
    if not (isinstance(channels, list) and channels and all(isinstance(c, str) for c in channels)):
        raise EvgridError(f"header channels must be a non-empty list of names, got {channels!r}")
    if not (isinstance(o, dict) and all(is_number(o.get(k)) for k in ("x", "y", "heading"))):
        raise EvgridError(f"header origin must hold numeric x, y and heading, got {o!r}")
    spec = GridSpec(side_cells=side, cell_size=cell_size)
    data = f32_values(payload, len(channels) * side * side).reshape(len(channels), side, side)
    for name, values in zip(channels, data):
        lo, hi = _CHANNEL_RANGES.get(name, (-np.inf, np.inf))
        if not lo <= values.min() <= values.max() <= hi:
            raise EvgridError(f"channel {name!r} holds a value outside [{lo:.9g}, {hi:.9g}]")
    return Grid2D(spec, data.astype(np.float64), tuple(channels), Pose2D(o["x"], o["y"], o["heading"]))


def write_grid(path, grid: Grid2D) -> None:
    write_atomic(path, grid_to_bytes(grid), "grid file")


def read_grid(path) -> Grid2D:
    return read_input(path, "grid file", grid_from_bytes)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_pgm(channel: np.ndarray) -> bytes:
    """8-bit binary PGM of one channel, scaled from [0, max(1, peak)]."""
    arr = np.asarray(channel, dtype=np.float64)
    peak = max(1.0, float(arr.max(initial=0.0)))
    img = np.clip(arr / peak * 255.0, 0, 255).astype(np.uint8)
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode() + img.tobytes()


def render_ppm(grid: Grid2D) -> bytes:
    """8-bit binary PPM of an evidential grid: b_f green, b_o red, u blue."""
    if grid.data.shape[0] != 3:
        raise DomainError("PPM rendering needs a 3-channel evidential grid")
    b_f, b_o, u = grid.data
    rgb = np.stack([b_o, b_f, u], axis=-1)
    img = np.clip(rgb * 255.0, 0, 255).astype(np.uint8)
    h, w = img.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode() + img.tobytes()
