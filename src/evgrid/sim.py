"""Synthetic 2-D world generation and sensor simulation.

Stands in for the vehicle dataset: scenes built from axis-aligned walls and
L-shaped parked cars plus optional moving rectangles, a LiDAR raycaster that
produces ground-truth occupancy patches and visibility masks, and a sparse,
noisy radar detection simulator feeding both the radar images and the
Ray-ISM pipeline. A scene's detections are ``Detections`` columns from the
simulator to ``detections.jsonl`` and back; the radar image counts them in
its static or dynamic channel by measured |v_r|, the rule Ray-ISM splits by.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from evgrid.errors import DomainError, EvgridError, is_int, is_number, read_input, write_atomic
from evgrid.grid import (BELIEF_CHANNELS, Grid2D, GridSpec, Pose2D, polar, read_grid, to_local, to_world,
                         world_to_cells, wrap_angle, write_grid)
from evgrid.parallel import map_scenes
from evgrid.rayism import Detections, RadarNoiseModel

_FREE, _OCC = 1, 2  # status codes; 0 = unknown
_RAY_BLOCK = 180  # consecutive LiDAR rays whose free-space samples are binned at once


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def rect(x0: float, y0: float, x1: float, y1: float) -> np.ndarray:
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=np.float64)


def l_shape(x0: float, y0: float, w: float, h: float, notch_w: float, notch_h: float) -> np.ndarray:
    """Axis-aligned L: a w x h rectangle with its top-right corner notched."""
    return np.array(
        [
            [x0, y0],
            [x0 + w, y0],
            [x0 + w, y0 + h - notch_h],
            [x0 + w - notch_w, y0 + h - notch_h],
            [x0 + w - notch_w, y0 + h],
            [x0, y0 + h],
        ],
        dtype=np.float64,
    )


def polygon_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def polygon_edges(polys: list[np.ndarray]) -> np.ndarray:
    """Stack all polygon edges into an (E, 2, 2) array of segments."""
    segs = [np.stack([poly, np.roll(poly, -1, axis=0)], axis=1) for poly in polys]
    return np.concatenate([np.zeros((0, 2, 2)), *segs])


def ray_hits(origins: np.ndarray, dirs: np.ndarray, edges: np.ndarray):
    """First hit of each ray against a set of segments.

    origins/dirs are (R, 2); edges (E, 2, 2). Returns the (R,) distances, inf
    where a ray hits nothing.
    """
    if len(edges) == 0:
        return np.full(len(origins), np.inf)
    a = edges[:, 0]  # (E,2)
    e = edges[:, 1] - edges[:, 0]
    dx, dy = dirs[:, 0:1], dirs[:, 1:2]  # (R,1)
    ex, ey = e[:, 0][None], e[:, 1][None]  # (1,E)
    denom = dx * ey - dy * ex
    aox = a[:, 0][None] - origins[:, 0:1]
    aoy = a[:, 1][None] - origins[:, 1:2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (aox * ey - aoy * ex) / denom
        s = (aox * dy - aoy * dx) / denom
    valid = (np.abs(denom) > 1e-12) & (s >= 0.0) & (s <= 1.0) & (t > 1e-9)
    return np.where(valid, t, np.inf).min(axis=1)


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------

@dataclass
class Scene:
    """Static polygons, moving (polygon, velocity) pairs, and the ego pose."""

    static_shapes: list[np.ndarray]
    dynamic_objects: list[tuple[np.ndarray, np.ndarray]]
    ego: Pose2D

    def __post_init__(self) -> None:
        for kind, polys in (("static", self.static_shapes), ("dynamic", [p for p, _ in self.dynamic_objects])):
            if any(polygon_area(poly) <= 0.0 for poly in polys):
                raise DomainError(f"degenerate {kind} shape (zero area)")

    def at_time(self, dt: float) -> "Scene":
        """Scene with dynamic objects advanced by their velocity for dt seconds."""
        moved = [(poly + dt * np.asarray(vel)[None, :], vel) for poly, vel in self.dynamic_objects]
        return Scene(self.static_shapes, moved, self.ego)


@dataclass(frozen=True)
class SimConfig:
    lidar_rays: int = 720
    max_detections: int = 64  # per sensor per frame
    detection_prob: float = 0.35
    clutter_rate: float = 2.0
    noise: RadarNoiseModel = field(default_factory=RadarNoiseModel)
    vr_sigma: float = 0.05
    sensor_fov: float = 2.0 * math.pi / 3.0
    boundary_spacing: float = 0.3
    frames: int = 1
    ego_step: float = 2.0  # ego advance per accumulated frame, meters
    scene_extent: float = 16.0  # meters; walls run 1.5 * scene_extent long
    p_dynamic: float = 0.5  # chance that a scene holds one moving object

    def __post_init__(self) -> None:
        if not (0.0 <= self.detection_prob <= 1.0):
            raise DomainError("detection_prob must be in [0,1]")
        if self.clutter_rate < 0 or self.max_detections < 0 or self.lidar_rays < 1 or self.frames < 1:
            raise DomainError("rates and counts must be nonnegative, and lidar_rays and frames positive")
        if not (self.boundary_spacing > 0.0 and self.vr_sigma >= 0.0
                and 0.0 < self.sensor_fov <= 2.0 * math.pi):
            raise DomainError("need boundary_spacing > 0, vr_sigma >= 0 and 0 < sensor_fov <= 2*pi")
        if not (0.0 <= self.p_dynamic <= 1.0):
            raise DomainError(f"p_dynamic must be in [0,1], got {self.p_dynamic}")
        # a parked car starts in the middle 1.2 * scene_extent meters and needs 2.5 of them
        if not (1.2 * self.scene_extent >= 2.5):
            raise DomainError(f"scene_extent must leave room for a parked car (>= 2.5/1.2), "
                              f"got {self.scene_extent}")


def flat_fields(obj) -> dict:
    """A config dataclass's field values by name; a nested dataclass, such as
    the radar noise model, contributes its own fields in its place."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out.update(flat_fields(value) if is_dataclass(value) else {f.name: value})
    return out


def generate_scene(seed: int, cfg: SimConfig = SimConfig()) -> Scene:
    """Deterministic scene from a seed: road corridor, parked-car rows, or
    T-intersection, with one moving object at probability cfg.p_dynamic."""
    rng = np.random.default_rng(seed)
    ego = Pose2D(
        x=float(rng.uniform(-0.5, 0.5)),
        y=float(rng.uniform(-0.5, 0.5)),
        heading=float(rng.uniform(-0.3, 0.3)),
    )

    half_len = cfg.scene_extent * 0.75
    w = float(rng.uniform(5.0, 9.0))  # corridor width
    th = 0.6  # wall thickness
    kind = rng.integers(0, 3)
    statics = [rect(-half_len, -w / 2 - th, half_len, -w / 2)]  # the near wall
    if kind < 2:  # a straight far wall: plain corridor (0) or parked-car rows (1)
        statics.append(rect(-half_len, w / 2, half_len, w / 2 + th))
    else:  # T-intersection: the far wall opens on a branch upward
        gap = float(rng.uniform(1.5, 2.5))
        statics += [rect(-half_len, w / 2, -gap, w / 2 + th), rect(gap, w / 2, half_len, w / 2 + th),
                    rect(-gap - th, w / 2, -gap, half_len), rect(gap, w / 2, gap + th, half_len)]
    if kind == 1:
        for side in (-1.0, 1.0):
            n_cars = int(rng.integers(1, 4))
            xs = rng.uniform(-half_len * 0.8, half_len * 0.8 - 2.5, size=n_cars)
            for x0 in np.sort(xs):
                y_in = side * (w / 2) - (1.1 if side > 0 else 0.0)
                statics.append(
                    l_shape(float(x0), y_in, 2.2, 1.1, float(rng.uniform(0.6, 1.2)), 0.5)
                )

    dynamics: list[tuple[np.ndarray, np.ndarray]] = []
    if rng.uniform() < cfg.p_dynamic:
        cx = float(rng.uniform(-half_len * 0.4, half_len * 0.4))
        cy = float(rng.uniform(-w / 2 + 1.0, w / 2 - 1.0))
        speed = float(rng.uniform(1.0, 4.0))
        direction = 1.0 if rng.uniform() < 0.5 else -1.0
        dynamics.append((rect(cx - 1.0, cy - 0.5, cx + 1.0, cy + 0.5),
                         np.array([direction * speed, 0.0])))
    return Scene(statics, dynamics, ego)


# ---------------------------------------------------------------------------
# LiDAR ground truth
# ---------------------------------------------------------------------------

def _status_scan(scene: Scene, spec: GridSpec, cfg: SimConfig, scan: Pose2D) -> np.ndarray:
    """Per-cell status grid (0 unknown, 1 free, 2 occupied) from one scan.

    Rays originate at ``scan``; cells are always those of the scene's ego,
    whose frame is the grid's, so scans taken from later positions of a
    recording land on the same grid. Free space is sampled, binned and marked
    one block of ``_RAY_BLOCK`` consecutive rays at a time, so only one block's
    samples (not the whole scan's) are alive at once; occupied cells are
    marked after every free one and override it.
    """
    status = np.zeros((spec.side_cells, spec.side_cells), dtype=np.int8)
    ego = scene.ego
    # a moving object is a target only when several frames show it moving, and it
    # occludes only where it is a target: a single scan sees through it
    movers = [poly for poly, _ in scene.dynamic_objects] if cfg.frames >= 2 else []
    edges = polygon_edges([*scene.static_shapes, *movers])

    angles = scan.heading + 2.0 * np.pi * np.arange(cfg.lidar_rays) / cfg.lidar_rays
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    origins = np.broadcast_to(np.array([scan.x, scan.y]), dirs.shape)
    max_range = spec.extent  # covers the grid diagonal from the center
    t_hit = ray_hits(origins, dirs, edges)
    t_end = np.minimum(t_hit, max_range)

    # free space: dense samples along each ray up to (just before) the hit, laid
    # out ray by ray with only each ray's own samples. A ray stops where it leaves
    # the grid square grown by one cell on every side (the slab exit, in the ego's
    # frame), since every later sample would bin outside the grid.
    g = np.array(to_local(ego, scan.x, scan.y))
    u = np.stack(to_local(Pose2D(heading=ego.heading), dirs[:, 0], dirs[:, 1]), axis=1)  # turned, not shifted
    box = (spec.side_cells - spec.side_cells // 2 + 1) * spec.cell_size  # the larger half side, plus a cell
    with np.errstate(divide="ignore", invalid="ignore"):
        t_exit = np.where(u == 0.0, np.inf, (np.copysign(box, u) - g) / u).min(axis=1)
    step = spec.cell_size / 4.0
    t_samples = (np.arange(int(max_range / step)) + 0.5) * step
    counts = np.searchsorted(t_samples, np.minimum(t_end - 1e-9, t_exit))
    # marking a cell free is idempotent, so a block at a time gives the grid of
    # all rays at once; a fixed block, not a sample budget, keeps the peak lowest
    for lo in range(0, len(counts), _RAY_BLOCK):
        block = slice(lo, lo + _RAY_BLOCK)
        n = counts[block]
        t = t_samples[np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)]
        pts_x = scan.x + np.repeat(dirs[block, 0], n) * t
        pts_y = scan.y + np.repeat(dirs[block, 1], n) * t
        rows, cols, inside = world_to_cells(spec, ego, pts_x, pts_y)
        inside = np.flatnonzero(inside)  # integer indices gather faster than a boolean mask
        status[rows[inside], cols[inside]] = _FREE

    # occupied: the cell containing each hit point, nudged inside the shape
    hit = np.flatnonzero(np.isfinite(t_hit) & (t_hit <= max_range))
    hx = scan.x + dirs[hit, 0] * (t_hit[hit] + 1e-6)
    hy = scan.y + dirs[hit, 1] * (t_hit[hit] + 1e-6)
    rows, cols, inside = world_to_cells(spec, ego, hx, hy)
    status[rows[inside], cols[inside]] = _OCC
    return status


def accumulated_ground_truth(scene: Scene, spec: GridSpec, cfg: SimConfig = SimConfig()):
    """LiDAR truth on the frame-0 grid: (target Grid2D with 3 channels, visibility Grid2D).

    Each of cfg.frames 360-degree scans marks the cells before a ray's first
    hit free and the hit cell occupied. Frame k advances the dynamic objects
    by k seconds and the scan position by k * cfg.ego_step along the ego
    heading, like consecutive poses of a recording. Targets fuse all frames
    (mixed free/occupied history becomes conflict; never seen is unknown).
    The visibility mask is the frame-0 scan only, so a cell occluded now but
    mapped from another pose is hidden with a known target.
    """
    ego = scene.ego
    scans = [Pose2D(*to_world(ego, k * cfg.ego_step, 0.0), ego.heading) for k in range(cfg.frames)]
    statuses = [_status_scan(scene.at_time(k * 1.0), spec, cfg, scan) for k, scan in enumerate(scans)]
    stack = np.stack(statuses)
    any_free, any_occ = (stack == _FREE).any(axis=0), (stack == _OCC).any(axis=0)
    target = np.stack([any_free & ~any_occ, any_occ & ~any_free, ~(any_free | any_occ)]).astype(np.float64)
    target[:2, any_free & any_occ] = 0.5
    visible = (statuses[0] != 0).astype(np.float64)
    return (
        Grid2D(spec, target, channels=BELIEF_CHANNELS, origin=ego),
        Grid2D(spec, visible, channels=("visible",), origin=ego),
    )


# ---------------------------------------------------------------------------
# radar simulation
# ---------------------------------------------------------------------------

# the four corner radars' poses in the ego frame, each looking diagonally outward
SENSOR_MOUNTS = (Pose2D(1.8, 0.8, math.pi / 4), Pose2D(1.8, -0.8, -math.pi / 4),
                 Pose2D(-1.8, 0.8, 3 * math.pi / 4), Pose2D(-1.8, -0.8, -3 * math.pi / 4))


def corner_sensor_poses(ego: Pose2D) -> dict[int, Pose2D]:
    """The world poses of the four corner radars: each mount composed with the ego."""
    return {i: Pose2D(*to_world(ego, m.x, m.y), ego.heading + m.heading) for i, m in enumerate(SENSOR_MOUNTS)}


def _boundary_points(edges: np.ndarray, spacing: float) -> np.ndarray:
    """Sample points along (E, 2, 2) edges at roughly the given spacing: the
    midpoints of max(1, int(length / spacing)) equal steps along each edge."""
    a, d = edges[:, 0], edges[:, 1] - edges[:, 0]
    k = np.maximum(1, (np.hypot(d[:, 0], d[:, 1]) / spacing).astype(np.int64))
    edge = np.repeat(np.arange(len(edges)), k)
    j = np.arange(len(edge)) - np.repeat(np.cumsum(k) - k, k)
    frac = (j + 0.5) / k[edge]
    return a[edge] + frac[:, None] * d[edge]


def simulate_radar(scene: Scene, spec: GridSpec, cfg: SimConfig, rng: np.random.Generator):
    """Simulate the four corner radars for one frame.

    Returns (radar image Grid2D, Detections). The image counts the in-grid
    detections in a static and a dynamic channel by ``Detections.dynamic``.
    """
    sensors = corner_sensor_poses(scene.ego)
    # the static shapes move as one body at rest
    bodies = [(scene.static_shapes, (0.0, 0.0)), *(([poly], vel) for poly, vel in scene.dynamic_objects)]
    body_edges = [polygon_edges(polys) for polys, _ in bodies]
    edges = np.concatenate(body_edges)
    r_max = spec.extent

    # candidate boundary points with their source velocities
    cand_pts = [_boundary_points(e, cfg.boundary_spacing) for e in body_edges]
    pts = np.concatenate(cand_pts)
    vels = np.repeat(np.array([vel for _, vel in bodies], float), [len(c) for c in cand_pts], axis=0)

    per_sensor = []  # each sensor's (k,) ids, (k, 3) measured (r, phi, v_r) and (k,) world x and y
    sigmas = [cfg.noise.sigma_r, cfg.noise.sigma_phi, cfg.vr_sigma]
    for sid, pose in sorted(sensors.items()):
        origin = np.array([pose.x, pose.y])
        rel = pts - origin[None]
        r_true, phi_true = polar(pose, pts[:, 0], pts[:, 1])
        sel = np.flatnonzero((np.abs(phi_true) <= cfg.sensor_fov / 2.0) & (r_true > 0.3) & (r_true <= r_max))
        t_near = ray_hits(np.broadcast_to(origin, (len(sel), 2)), rel[sel] / r_true[sel, None], edges)
        sel = sel[t_near >= r_true[sel] - 1e-6]
        sel = sel[rng.uniform(size=len(sel)) < cfg.detection_prob]
        # one (r, phi, v_r) noise row per detection: the same stream as three
        # scalar draws per detection in turn
        noise = rng.normal(0.0, sigmas, size=(len(sel), 3))
        los = rel[sel] / r_true[sel, None]
        # a batched (1, 2) @ (2, 1) product rounds like a dot product; a written-out
        # vx * lx + vy * ly can differ in the last bit
        v_los = (vels[sel, None, :] @ los[:, :, None])[:, 0, 0]
        meas = np.stack([np.maximum(r_true[sel] + noise[:, 0], 0.0),
                         wrap_angle(phi_true[sel] + noise[:, 1]),
                         v_los + noise[:, 2]], axis=1)
        n_clutter = rng.poisson(cfg.clutter_rate)
        clutter = [(rng.uniform(0.5, r_max), rng.uniform(-cfg.sensor_fov / 2.0, cfg.sensor_fov / 2.0),
                    rng.normal(0.0, cfg.vr_sigma)) for _ in range(n_clutter)]
        meas = np.concatenate([meas, np.reshape(clutter, (n_clutter, 3))])
        if len(meas) > cfg.max_detections:
            meas = meas[np.sort(rng.choice(len(meas), size=cfg.max_detections, replace=False))]
        r, phi = meas[:, 0], pose.heading + meas[:, 1]
        per_sensor.append((np.full(len(meas), sid), meas, pose.x + r * np.cos(phi), pose.y + r * np.sin(phi)))

    sids, meas, wx, wy = (np.concatenate(parts) for parts in zip(*per_sensor))
    dets = Detections(r=meas[:, 0], phi=meas[:, 1], v_r=meas[:, 2], sensor_id=sids, t=np.zeros(len(meas)))
    rows, cols, inside = world_to_cells(spec, scene.ego, wx, wy)
    counts = np.zeros((2, spec.side_cells, spec.side_cells))
    np.add.at(counts, (dets.dynamic[inside].astype(np.intp), rows[inside], cols[inside]), 1.0)
    return Grid2D(spec, counts, channels=("static", "dynamic"), origin=scene.ego), dets


# ---------------------------------------------------------------------------
# dataset writing
# ---------------------------------------------------------------------------

def detections_jsonl(dets: Detections) -> str:
    """One compact JSON object per detection and line, keys sorted: the bytes of
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, whose floats are
    their ``repr``."""
    rows = zip(dets.phi.tolist(), dets.r.tolist(), dets.sensor_id.tolist(), dets.t.tolist(), dets.v_r.tolist())
    return "".join(f'{{"phi":{phi!r},"r":{r!r},"sensor_id":{sid},"t":{t!r},"v_r":{v_r!r}}}\n'
                   for phi, r, sid, t, v_r in rows)


def detections_from_jsonl(text: str | bytes) -> Detections:
    """Parse one detection per line of text or UTF-8 bytes; blank lines are
    skipped, and a missing "t" is 0. The first malformed line raises
    EvgridError naming the line.

    Each line is parsed on its own, so no JSON value can run on into the next
    line; the fields are then checked and converted column by column.
    """
    parse = json.JSONDecoder().raw_decode
    rows, linenos, bad_line = [], [], None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            # bytes decode as json.loads decodes them: UTF-8, a BOM allowed
            line = line.decode("utf-8-sig", "surrogatepass") if isinstance(line, bytes) else line
            row, end = parse(line)
            if end != len(line):
                raise EvgridError(f"extra data after column {end}")
        except (EvgridError, ValueError) as exc:  # ValueError covers JSON and UTF-8 errors
            bad_line = EvgridError(f"line {lineno}: {exc}")
            break
        rows.append(row)
        linenos.append(lineno)
    try:
        dets = _detection_columns(rows)
    except EvgridError:  # name the first line that fails on its own
        for lineno, row in zip(linenos, rows):
            try:
                _detection_columns([row])
            except EvgridError as exc:
                raise EvgridError(f"line {lineno}: {exc}") from exc
        raise
    if bad_line is not None:  # every line before it is valid
        raise bad_line
    return dets


def _detection_columns(rows: list) -> Detections:
    """Parsed detection lines as columns: each must be an object with the
    numbers "r", "phi", "v_r", an optional number "t" and a corner radar's
    integer "sensor_id". A failure raises EvgridError saying which check failed."""
    if not set(map(type, rows)) <= {dict}:
        raise EvgridError("not a JSON object")
    cols = {}
    for key in ("r", "phi", "v_r", "sensor_id"):
        try:
            cols[key] = [row[key] for row in rows]
        except KeyError:
            raise EvgridError(f"missing key {key!r}") from None
    cols["t"] = [row.get("t", 0.0) for row in rows]
    for key, col in cols.items():
        kinds, dtype, what = (({int}, np.int64, "an integer") if key == "sensor_id"
                              else ({int, float}, np.float64, "a finite number"))
        if not set(map(type, col)) <= kinds:  # a bool is not an int here
            wrong = next(value for value in col if type(value) not in kinds)
            raise EvgridError(f"{key!r} must be {what}, got {wrong!r}")
        try:
            cols[key] = np.array(col, dtype=dtype)
        except OverflowError:
            raise EvgridError(f"{key!r} must be {what}, got an integer out of range") from None
    unknown = cols["sensor_id"][(cols["sensor_id"] < 0) | (cols["sensor_id"] >= len(SENSOR_MOUNTS))]
    if len(unknown):
        raise EvgridError(f"no radar sensor {unknown[0]}: the sensor ids are 0 to {len(SENSOR_MOUNTS) - 1}")
    return Detections(**cols)  # checks that the numbers are finite and the ranges >= 0


def read_detections(path) -> Detections:
    return read_input(path, "detections file", detections_from_jsonl)


def _scene_seed(master_seed: int, index: int) -> int:
    return (master_seed * 0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9 * (index + 1)) % (1 << 63)


def write_dataset(n_scenes: int, spec: GridSpec, out_dir, master_seed: int = 0,
                  cfg: SimConfig = SimConfig()) -> dict:
    """Generate and write a dataset; returns the manifest.

    Layout: manifest.json at the root plus one directory per sample with
    radar.grid, target.grid, mask.grid and detections.jsonl. Deterministic
    and byte-identical given (n_scenes, config, master_seed). The scenes are
    written on every usable CPU (see ``map_scenes``) and the manifest last.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write_sample(i: int) -> str:
        seed = _scene_seed(master_seed, i)
        scene = generate_scene(seed, cfg)
        target, mask = accumulated_ground_truth(scene, spec, cfg)
        radar_rng = np.random.default_rng([seed, 1])
        image, dets = simulate_radar(scene, spec, cfg, radar_rng)

        sid = f"{i:05d}"
        sdir = out / "samples" / sid
        sdir.mkdir(parents=True, exist_ok=True)
        write_grid(sdir / "radar.grid", image)
        write_grid(sdir / "target.grid", target)
        write_grid(sdir / "mask.grid", mask)
        write_atomic(sdir / "detections.jsonl", detections_jsonl(dets), "detections file")
        return sid

    sample_ids = map_scenes(write_sample, range(n_scenes))

    n_train = int(round(0.7 * n_scenes))
    n_val = int(round(0.15 * n_scenes))
    manifest = {
        "master_seed": master_seed,
        "n_scenes": n_scenes,
        "grid": {"side_cells": spec.side_cells, "cell_size": spec.cell_size},
        "config": flat_fields(cfg),
        "splits": {
            "train": sample_ids[:n_train],
            "val": sample_ids[n_train:n_train + n_val],
            "test": sample_ids[n_train + n_val:],
        },
    }
    write_atomic(out / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                 "dataset manifest")
    return manifest


def load_manifest(dataset_dir) -> dict:
    """Read a dataset manifest; checks the splits and grid fields that readers use."""
    return read_input(Path(dataset_dir) / "manifest.json", "dataset manifest", _manifest_from_bytes)


def _manifest_from_bytes(blob: bytes) -> dict:
    try:
        manifest = json.loads(blob.decode())
    except ValueError as exc:  # covers JSON and UTF-8 errors
        raise EvgridError(f"not JSON: {exc}") from exc
    splits = manifest.get("splits") if isinstance(manifest, dict) else None
    grid = manifest.get("grid") if isinstance(manifest, dict) else None
    if not (isinstance(splits, dict) and {"train", "val", "test"} <= splits.keys()
            and all(isinstance(ids, list) and all(isinstance(sid, str) and re.fullmatch("[0-9]+", sid)
                                                  for sid in ids)
                    for ids in splits.values())):
        raise EvgridError("'splits' must map train, val and test to lists of numeric sample ids")
    if not (isinstance(grid, dict) and is_int(grid.get("side_cells")) and is_number(grid.get("cell_size"))):
        raise EvgridError("'grid' must hold integer side_cells and numeric cell_size")
    return manifest


def read_sample_grid(path, shape: tuple[int, ...]) -> Grid2D:
    """A sample's grid, which must hold ``shape``, the manifest's (channels, side, side);
    a grid of another shape raises EvgridError naming the file."""
    grid = read_grid(path)
    if grid.data.shape != shape:
        raise EvgridError(f"{path}: grid of shape {grid.data.shape}, the manifest's samples are {shape}")
    return grid


def augment_arrays(arrays: list[np.ndarray], k_rot: int, flip_h: bool, flip_v: bool) -> list[np.ndarray]:
    """Apply the same flip/rot90 transform to each (C, H, W) array."""
    flip = np.s_[:, ::-1 if flip_v else 1, ::-1 if flip_h else 1]
    return [np.ascontiguousarray(np.rot90(arr[flip], k=k_rot % 4, axes=(1, 2))) for arr in arrays]
