import json
import math
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Row, cell_of, columns, cut_and_flip, detection_list, reads_or_names_file
from evgrid.errors import EvgridError
from evgrid.grid import (GridSpec, Pose2D, cell_centers, read_grid, world_to_cells,
                         wrap_angle)
from evgrid import sim
from evgrid.rayism import Detections, RadarNoiseModel
from evgrid.sim import (
    Scene,
    SimConfig,
    accumulated_ground_truth,
    augment_arrays,
    corner_sensor_poses,
    detections_from_jsonl,
    detections_jsonl,
    generate_scene,
    l_shape,
    load_manifest,
    polygon_area,
    polygon_edges,
    ray_hits,
    read_detections,
    rect,
    simulate_radar,
    write_dataset,
    _boundary_points,
    _scene_seed,
)

SPEC = GridSpec(side_cells=32, cell_size=0.5)


def points_in_polygon(pts, poly):
    """Even-odd crossing test, vectorized over points."""
    x, y = pts[..., 0], pts[..., 1]
    inside = np.zeros(x.shape, dtype=bool)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < np.where(crosses, xi, np.inf))
    return inside


def occupied_fraction(scene, spec):
    """Fraction of grid cells whose center lies inside a static shape."""
    wx, wy = cell_centers(spec, scene.ego)
    pts = np.stack([wx, wy], axis=-1)
    inside = np.zeros(wx.shape, dtype=bool)
    for poly in scene.static_shapes:
        inside |= points_in_polygon(pts, poly)
    return float(inside.mean())


def _brute_first_hit(origin, d, edges):
    """Segment-by-segment oracle of ray_hits: the lowest distance."""
    best_t = math.inf
    for (ax, ay), (bx, by) in edges:
        ex, ey = bx - ax, by - ay
        denom = d[0] * ey - d[1] * ex
        if abs(denom) <= 1e-12:
            continue
        aox, aoy = ax - origin[0], ay - origin[1]
        t = (aox * ey - aoy * ex) / denom
        s = (aox * d[1] - aoy * d[0]) / denom
        if 0.0 <= s <= 1.0 and 1e-9 < t < best_t:
            best_t = t
    return best_t


class TestGeometry:
    def test_rect_area(self):
        assert polygon_area(rect(0, 0, 2, 3)) == pytest.approx(6.0)

    def test_l_shape_area(self):
        assert polygon_area(l_shape(0, 0, 2.0, 1.5, 0.8, 0.5)) == pytest.approx(
            2.0 * 1.5 - 0.8 * 0.5
        )

    def test_points_in_polygon(self):
        poly = rect(0, 0, 2, 2)
        pts = np.array([[1.0, 1.0], [3.0, 1.0], [-0.1, 0.5]])
        assert points_in_polygon(pts, poly).tolist() == [True, False, False]

    def test_l_shape_notch_is_outside(self):
        poly = l_shape(0, 0, 2.0, 2.0, 1.0, 1.0)
        pts = np.array([[0.5, 0.5], [1.5, 1.5]])
        assert points_in_polygon(pts, poly).tolist() == [True, False]

    def test_ray_hit_distance(self):
        edges = polygon_edges([rect(3, -1, 4, 1)])
        origins = np.array([[0.0, 0.0], [0.0, 0.0]])
        dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
        t = ray_hits(origins, dirs, edges)
        assert t[0] == pytest.approx(3.0)  # the box's left side
        assert t[1] == math.inf

    def test_ray_from_inside_hits_far_side(self):
        edges = polygon_edges([rect(-1, -1, 1, 1)])
        t = ray_hits(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), edges)
        assert t[0] == pytest.approx(1.0)

    def test_ray_hit_edge_matches_brute_force(self):
        rng = np.random.default_rng(12)
        edges = rng.uniform(-5.0, 5.0, size=(25, 2, 2))
        origins = rng.uniform(-3.0, 3.0, size=(200, 2))
        ang = rng.uniform(-math.pi, math.pi, size=200)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        t = ray_hits(origins, dirs, edges)
        assert np.isinf(t).any() and np.isfinite(t).any()
        for k in range(len(origins)):
            assert t[k] == _brute_first_hit(origins[k], dirs[k], edges)

    def test_ray_through_shared_corner(self):
        edges = polygon_edges([rect(1, 1, 3, 3)])  # edges 0 and 3 meet at (1, 1)
        d = np.array([[math.sqrt(0.5), math.sqrt(0.5)]])
        t = ray_hits(np.zeros((1, 2)), d, edges)
        assert t[0] == pytest.approx(math.sqrt(2.0))
        assert t[0] == _brute_first_hit(np.zeros(2), d[0], edges)


class TestSceneGeneration:
    def test_deterministic(self):
        a = generate_scene(42)
        b = generate_scene(42)
        assert len(a.static_shapes) == len(b.static_shapes)
        for pa, pb in zip(a.static_shapes, b.static_shapes):
            assert np.array_equal(pa, pb)
        assert a.ego == b.ego

    def test_different_seeds_differ(self):
        a, b = generate_scene(1), generate_scene(2)
        same = len(a.static_shapes) == len(b.static_shapes) and all(
            np.array_equal(pa, pb) for pa, pb in zip(a.static_shapes, b.static_shapes)
        )
        assert not same or a.ego != b.ego

    def test_empty_scene(self):
        # nothing to hit: every cell is seen free
        scene = Scene([], [], Pose2D(0.3, -0.2, 0.4))
        target, visible = accumulated_ground_truth(scene, SPEC)
        assert np.all(target.data[0] == 1.0) and np.all(visible.data == 1.0)

    def test_occupied_fraction_band(self):
        fracs = [occupied_fraction(generate_scene(s), SPEC) for s in range(40)]
        assert all(0.02 <= f <= 0.40 for f in fracs)

    def test_at_time_moves_dynamics_only(self):
        scene = Scene([rect(5, -1, 6, 1)], [(rect(0, 0, 1, 1), np.array([2.0, 0.0]))],
                      Pose2D())
        later = scene.at_time(1.5)
        assert np.array_equal(later.static_shapes[0], scene.static_shapes[0])
        assert np.allclose(later.dynamic_objects[0][0], scene.dynamic_objects[0][0] + [3.0, 0.0])


class TestLidarGroundTruth:
    def _wall_scene(self):
        # one wall 5m ahead of an axis-aligned ego at the origin
        return Scene([rect(5.0, -4.0, 5.6, 4.0)], [], Pose2D())

    def test_free_occupied_unknown_layout(self):
        target, visible = accumulated_ground_truth(self._wall_scene(), SPEC)
        free_cell = cell_of(SPEC, (3.0, 0.0), Pose2D())
        wall_cell = cell_of(SPEC, (5.1, 0.0), Pose2D())
        behind_cell = cell_of(SPEC, (7.0, 0.0), Pose2D())
        assert target.data[(0,) + free_cell] == 1.0
        assert target.data[(1,) + wall_cell] == 1.0
        assert target.data[(2,) + behind_cell] == 1.0

    def test_visible_iff_not_unknown(self):
        for seed in (0, 3, 11):
            target, visible = accumulated_ground_truth(generate_scene(seed), SPEC)
            assert np.array_equal(visible.data[0] > 0.5, target.data[2] < 0.5)

    def test_channels_partition(self):
        target, _ = accumulated_ground_truth(generate_scene(5), SPEC)
        assert np.allclose(target.data.sum(axis=0), 1.0)

    def test_per_ray_oracle(self):
        scene = generate_scene(7)
        target, _ = accumulated_ground_truth(scene, SPEC)
        edges = polygon_edges(list(scene.static_shapes))
        ego = scene.ego
        rng = np.random.default_rng(0)
        for ang in rng.uniform(-math.pi, math.pi, size=30):
            d = np.array([[math.cos(ang), math.sin(ang)]])
            t = ray_hits(np.array([[ego.x, ego.y]]), d, edges)[0]
            probe = min(t, SPEC.extent) * 0.5
            cell = cell_of(SPEC, (ego.x + d[0, 0] * probe, ego.y + d[0, 1] * probe), ego)
            if cell is not None:
                # the midpoint of the ray up to its first hit is never occupied
                assert target.data[(1,) + cell] == 0.0

    def test_free_cells_match_dense_sampling(self):
        # reference: sample every ray at cell_size/4 over the full range, then
        # keep the samples short of the hit; a single scan sees through moving objects
        cfg = SimConfig()
        for seed in range(12):
            scene = generate_scene(seed)
            target, visible = accumulated_ground_truth(scene, SPEC, cfg)
            shapes = list(scene.static_shapes)
            ego = scene.ego
            angles = ego.heading + 2.0 * np.pi * np.arange(cfg.lidar_rays) / cfg.lidar_rays
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            origins = np.broadcast_to(np.array([ego.x, ego.y]), dirs.shape)
            t_end = np.minimum(ray_hits(origins, dirs, polygon_edges(shapes)), SPEC.extent)
            step = SPEC.cell_size / 4.0
            t = (np.arange(int(SPEC.extent / step)) + 0.5) * step
            keep = t[None] < t_end[:, None] - 1e-9
            px = (origins[:, 0:1] + dirs[:, 0:1] * t[None])[keep]
            py = (origins[:, 1:2] + dirs[:, 1:2] * t[None])[keep]
            rows, cols, inside = world_to_cells(SPEC, ego, px, py)
            sampled = np.zeros((SPEC.side_cells,) * 2, dtype=bool)
            sampled[rows[inside], cols[inside]] = True
            occupied = target.data[1] == 1.0
            assert np.array_equal(target.data[0] == 1.0, sampled & ~occupied)
            assert np.array_equal(visible.data[0] == 1.0, sampled | occupied)

    def test_dynamic_objects_absent_from_single_frame_truth(self):
        scene = Scene([], [(rect(3.0, -0.5, 5.0, 0.5), np.array([2.0, 0.0]))],
                      Pose2D())
        target, _ = accumulated_ground_truth(scene, SPEC)
        assert np.all(target.data[1] == 0.0)

    def test_single_scan_sees_through_a_moving_object(self):
        scene = Scene([rect(6.0, -4.0, 6.6, 4.0)], [(rect(3.0, -0.5, 4.0, 0.5), np.array([1.0, 0.0]))],
                      Pose2D())
        face, behind = (cell_of(SPEC, p, Pose2D()) for p in ((3.05, 0.0), (6.1, 0.0)))
        target, _ = accumulated_ground_truth(scene, SPEC, SimConfig(frames=1))
        # the moving box is neither a target nor an occluder: the wall behind it is mapped
        assert target.data[1][face] == 0.0 and target.data[1][behind] == 1.0

    def test_accumulated_frames_produce_conflict(self):
        scene = Scene([], [(rect(3.0, -0.5, 5.0, 0.5), np.array([3.0, 0.0]))],
                      Pose2D())
        target, _ = accumulated_ground_truth(scene, SPEC, SimConfig(frames=3))
        conflict = (target.data[0] == 0.5) & (target.data[1] == 0.5)
        assert conflict.any()

    def test_accumulated_mask_is_frame_zero_scan(self):
        scene = Scene([rect(3.0, -1.0, 3.6, 1.0), rect(7.0, -4.0, 7.6, 4.0)], [],
                      Pose2D())
        cfg = SimConfig(frames=3, ego_step=2.0)
        target, visible = accumulated_ground_truth(scene, SPEC, cfg)
        single_target, single_visible = accumulated_ground_truth(scene, SPEC, SimConfig(frames=1))
        assert np.array_equal(visible.data, single_visible.data)
        # later scans map cells behind the near box, so some hidden cells
        # now carry a known target
        hidden_known = (visible.data[0] == 0.0) & (target.data[2] < 0.5)
        assert hidden_known.any()
        # frame-0 knowledge never gets lost by accumulation
        known_now = single_target.data[2] < 0.5
        assert np.all(target.data[2][known_now] < 0.5)


def _reference_status_scan(scene, spec, cfg, scan):
    """``_status_scan`` as it was before free space stopped at the grid edge, kept
    as its oracle: every ray is sampled up to its hit, however far outside the
    grid, and the samples are then binned."""
    status = np.zeros((spec.side_cells, spec.side_cells), dtype=np.int8)
    ego = scene.ego
    movers = [poly for poly, _ in scene.dynamic_objects] if cfg.frames >= 2 else []
    edges = polygon_edges([*scene.static_shapes, *movers])

    angles = scan.heading + 2.0 * np.pi * np.arange(cfg.lidar_rays) / cfg.lidar_rays
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    origins = np.broadcast_to(np.array([scan.x, scan.y]), dirs.shape)
    max_range = spec.extent
    t_hit = ray_hits(origins, dirs, edges)
    t_end = np.minimum(t_hit, max_range)

    step = spec.cell_size / 4.0
    t_samples = (np.arange(int(max_range / step)) + 0.5) * step
    counts = np.searchsorted(t_samples, t_end - 1e-9)
    ray = np.repeat(np.arange(len(dirs)), counts)
    t = t_samples[np.arange(len(ray)) - np.repeat(np.cumsum(counts) - counts, counts)]
    pts_x = origins[ray, 0] + dirs[ray, 0] * t
    pts_y = origins[ray, 1] + dirs[ray, 1] * t
    rows, cols, inside = world_to_cells(spec, ego, pts_x, pts_y)
    status[rows[inside], cols[inside]] = 1

    hit = np.flatnonzero(np.isfinite(t_hit) & (t_hit <= max_range))
    hx = origins[hit, 0] + dirs[hit, 0] * (t_hit[hit] + 1e-6)
    hy = origins[hit, 1] + dirs[hit, 1] * (t_hit[hit] + 1e-6)
    rows, cols, inside = world_to_cells(spec, ego, hx, hy)
    status[rows[inside], cols[inside]] = 2
    return status


class TestLidarGridExitParity:
    """Each scan's status grid, with free space cut one cell past the grid edge and
    binned a block of rays at a time, equals the one from sampling every ray up to
    its hit, all rays at once."""

    @staticmethod
    def _assert_parity(scene, spec, cfg, monkeypatch):
        scans, scan = [], sim._status_scan

        def checked(frame, spec, cfg, pose):
            status = scan(frame, spec, cfg, pose)
            assert np.array_equal(status, _reference_status_scan(frame, spec, cfg, pose))
            scans.append(pose)
            return status

        monkeypatch.setattr(sim, "_status_scan", checked)
        accumulated_ground_truth(scene, spec, cfg)
        assert len(scans) == cfg.frames
        return scans

    @pytest.mark.parametrize("side", [16, 32, 33, 64])
    def test_seeded_scenes(self, monkeypatch, side):
        cfg = SimConfig(p_dynamic=1.0)
        for seed in range(6):
            self._assert_parity(generate_scene(seed, cfg), GridSpec(side, 0.5), cfg, monkeypatch)

    @pytest.mark.parametrize("frames, side", [(1, 32), (3, 32), (5, 32), (5, 16), (5, 33), (5, 128)])
    def test_frames(self, monkeypatch, frames, side):
        spec, cfg = GridSpec(side, 0.5), SimConfig(frames=frames)
        for seed in range(4):
            scans = self._assert_parity(generate_scene(20 + seed, cfg), spec, cfg, monkeypatch)
        if (frames, side) == (5, 16):  # the later scans start outside the grid
            assert not world_to_cells(spec, generate_scene(23).ego, scans[-1].x, scans[-1].y)[2]

    @pytest.mark.parametrize("rays", [1, sim._RAY_BLOCK - 1, sim._RAY_BLOCK, sim._RAY_BLOCK + 1,
                                      3 * sim._RAY_BLOCK + 7])
    def test_ray_counts_around_the_block(self, monkeypatch, rays):
        # one ray, a block short or over, one whole block, and a last block of 7
        cfg = SimConfig(lidar_rays=rays, frames=3, p_dynamic=1.0)
        for seed in range(4):
            self._assert_parity(generate_scene(60 + seed, cfg), GridSpec(32, 0.5), cfg, monkeypatch)

    @pytest.mark.parametrize("heading", [0.0, math.pi / 2, -math.pi / 2, math.pi])
    @pytest.mark.parametrize("side", [16, 33])
    def test_axis_aligned_headings(self, monkeypatch, heading, side):
        # rays along a grid axis have a zero direction component in the other axis
        cfg = SimConfig(frames=3, lidar_rays=360)
        for seed in range(3):
            scene = generate_scene(40 + seed, cfg)
            scene = Scene(scene.static_shapes, scene.dynamic_objects, Pose2D(0.3, -0.2, heading))
            self._assert_parity(scene, GridSpec(side, 0.5), cfg, monkeypatch)


def test_lidar_truth_peak_memory_is_bounded():
    """The free-space samples of one block of rays, not of the whole scan, are alive
    at once: at the ism-64 config the traced peak of one scene's LiDAR truth stays
    under 2 MB (3.4 MB with all 720 rays' samples at once)."""
    cfg = SimConfig(detection_prob=0.7, max_detections=128, clutter_rate=8.0)
    spec = GridSpec(64, 0.5)
    scenes = [generate_scene(seed, cfg) for seed in range(30)]
    tracemalloc.start()
    try:
        peaks = []
        for scene in scenes:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            accumulated_ground_truth(scene, spec, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 2.0e6


class TestRadar:
    def test_corner_sensor_geometry(self):
        poses = corner_sensor_poses(Pose2D())
        assert sorted(poses) == [0, 1, 2, 3]
        assert poses[0].x == pytest.approx(1.8) and poses[0].y == pytest.approx(0.8)
        rot = corner_sensor_poses(Pose2D(heading=math.pi / 2))
        assert rot[0].x == pytest.approx(-0.8) and rot[0].y == pytest.approx(1.8)

    def test_no_detections_when_disabled(self):
        scene = generate_scene(3)
        cfg = SimConfig(detection_prob=0.0, clutter_rate=0.0)
        image, dets = simulate_radar(scene, SPEC, cfg, np.random.default_rng(3))
        assert detection_list(dets) == [] and dets.dynamic.tolist() == [] and not image.data.any()

    def test_detection_ranges_match_visibility_oracle(self):
        scene = generate_scene(9, SimConfig(p_dynamic=0.0))
        cfg = SimConfig(detection_prob=1.0, clutter_rate=0.0,
                        noise=RadarNoiseModel(sigma_r=1e-6, sigma_phi=1e-9),
                        vr_sigma=1e-9, max_detections=10_000)
        _, dets = simulate_radar(scene, SPEC, cfg, np.random.default_rng(9))
        assert len(dets) > 0
        edges = polygon_edges(list(scene.static_shapes))
        poses = corner_sensor_poses(scene.ego)
        for det in detection_list(dets):
            pose = poses[det.sensor_id]
            ang = pose.heading + det.phi
            d = np.array([[math.cos(ang), math.sin(ang)]])
            t = ray_hits(np.array([[pose.x, pose.y]]), d, edges)[0]
            # every echo comes from the first surface along its bearing
            assert det.r == pytest.approx(t, abs=1e-3)

    def test_static_scene_velocities_near_zero(self):
        scene = generate_scene(9, SimConfig(p_dynamic=0.0))
        cfg = SimConfig(detection_prob=1.0, clutter_rate=0.0, vr_sigma=1e-6)
        image, dets = simulate_radar(scene, SPEC, cfg, np.random.default_rng(9))
        assert all(abs(d.v_r) < 1e-3 for d in detection_list(dets))
        assert not any(dets.dynamic) and not image.data[1].any()

    def test_moving_object_flagged_dynamic(self):
        scene = Scene([], [(rect(4.0, -0.5, 6.0, 0.5), np.array([3.0, 0.0]))],
                      Pose2D())
        cfg = SimConfig(detection_prob=1.0, clutter_rate=0.0, vr_sigma=1e-6)
        image, dets = simulate_radar(scene, SPEC, cfg, np.random.default_rng(0))
        assert len(dets) > 0 and all(dets.dynamic)
        assert image.data[1].sum() > 0 and not image.data[0].any()

    def test_mover_across_the_line_of_sight_is_static(self):
        # a box 5 m out along sensor 0's boresight, moving at 2 m/s across it: the
        # radar measures |v_r| <= 0.5 and so puts every return in the static channel
        ego = Pose2D()
        mount = corner_sensor_poses(ego)[0]
        cx, cy = mount.x + 5.0 * math.cos(mount.heading), mount.y + 5.0 * math.sin(mount.heading)
        vel = 2.0 * np.array([math.sin(mount.heading), -math.cos(mount.heading)])
        scene = Scene([], [(rect(cx - 0.3, cy - 0.3, cx + 0.3, cy + 0.3), vel)], ego)
        cfg = SimConfig(detection_prob=1.0, clutter_rate=0.0, vr_sigma=1e-6)
        image, dets = simulate_radar(scene, SPEC, cfg, np.random.default_rng(0))
        assert len(dets) > 0 and math.hypot(*vel) > 0.5 and np.abs(dets.v_r).max() <= 0.5
        assert image.data[0].sum() == len(dets) and not image.data[1].any()

    def test_detection_cap(self):
        scene = generate_scene(4, SimConfig(p_dynamic=0.0))
        cfg = SimConfig(detection_prob=1.0, clutter_rate=0.0, max_detections=5)
        _, dets = simulate_radar(scene, SPEC, cfg, np.random.default_rng(4))
        per_sensor = {}
        for det in detection_list(dets):
            per_sensor[det.sensor_id] = per_sensor.get(det.sensor_id, 0) + 1
        assert all(v <= 5 for v in per_sensor.values())

    def test_reproducible_with_rng(self):
        scene = generate_scene(6)
        a = simulate_radar(scene, SPEC, SimConfig(), np.random.default_rng(1))
        b = simulate_radar(scene, SPEC, SimConfig(), np.random.default_rng(1))
        assert np.array_equal(a[0].data, b[0].data)
        assert detection_list(a[1]) == detection_list(b[1])


def _reference_simulate_radar(scene, spec, cfg, rng):
    """The per-detection loop the per-sensor block replaced, kept as its oracle.

    Three scalar noise draws per detection, then clutter, then subsampling;
    each kept detection is binned into the radar image on its own, in the
    dynamic channel when its measured |v_r| exceeds 0.5 m/s.
    """
    sensors = corner_sensor_poses(scene.ego)
    edges = polygon_edges(list(scene.static_shapes) + [p for p, _ in scene.dynamic_objects])
    r_max = spec.extent
    stat_pts = _boundary_points(polygon_edges(scene.static_shapes), cfg.boundary_spacing)
    cand_pts, cand_vel = [stat_pts], [np.zeros_like(stat_pts)]
    for poly, vel in scene.dynamic_objects:
        pts = _boundary_points(polygon_edges([poly]), cfg.boundary_spacing)
        cand_pts.append(pts)
        cand_vel.append(np.broadcast_to(np.asarray(vel, dtype=np.float64), pts.shape).copy())
    pts, vels = np.concatenate(cand_pts), np.concatenate(cand_vel)

    detections, dyn_flags = [], []
    counts = np.zeros((2, spec.side_cells, spec.side_cells))
    for sid in sorted(sensors):
        pose = sensors[sid]
        origin = np.array([pose.x, pose.y])
        recs = []
        if len(pts):
            rel = pts - origin[None]
            r_true = np.hypot(rel[:, 0], rel[:, 1])
            phi_true = wrap_angle(np.arctan2(rel[:, 1], rel[:, 0]) - pose.heading)
            in_fov = (np.abs(phi_true) <= cfg.sensor_fov / 2.0) & (r_true > 0.3) & (r_true <= r_max)
            if in_fov.any():
                sel = np.flatnonzero(in_fov)
                dirs = rel[sel] / r_true[sel, None]
                t_near = ray_hits(np.broadcast_to(origin, (len(sel), 2)), dirs, edges)
                sel = sel[t_near >= r_true[sel] - 1e-6]
                sel = sel[rng.uniform(size=len(sel)) < cfg.detection_prob]
                for idx in sel:
                    r_meas = max(0.0, r_true[idx] + rng.normal(0.0, cfg.noise.sigma_r))
                    phi_meas = wrap_angle(phi_true[idx] + rng.normal(0.0, cfg.noise.sigma_phi))
                    los = rel[idx] / r_true[idx]
                    v_r = float(vels[idx] @ los + rng.normal(0.0, cfg.vr_sigma))
                    recs.append((r_meas, phi_meas, v_r))
        for _ in range(rng.poisson(cfg.clutter_rate)):
            recs.append((float(rng.uniform(0.5, r_max)),
                         float(rng.uniform(-cfg.sensor_fov / 2.0, cfg.sensor_fov / 2.0)),
                         float(rng.normal(0.0, cfg.vr_sigma))))
        if len(recs) > cfg.max_detections:
            pick = rng.choice(len(recs), size=cfg.max_detections, replace=False)
            recs = [recs[i] for i in np.sort(pick)]
        for r_meas, phi_meas, v_r in recs:
            detections.append(Row(r=r_meas, phi=phi_meas, v_r=v_r, sensor_id=sid))
            dyn = abs(v_r) > 0.5  # a return is dynamic by its measured radial speed
            dyn_flags.append(dyn)
            wx = pose.x + r_meas * math.cos(pose.heading + phi_meas)
            wy = pose.y + r_meas * math.sin(pose.heading + phi_meas)
            cell = cell_of(spec, (wx, wy), scene.ego)
            if cell is not None:
                counts[(1 if dyn else 0,) + cell] += 1.0
    return counts, detections, dyn_flags


class TestRadarBlockParity:
    """simulate_radar is identical, draw for draw, to the per-detection loop."""

    def _assert_parity(self, scene, cfg, spec=SPEC, seed=0):
        image, dets = simulate_radar(scene, spec, cfg, np.random.default_rng(seed))
        counts, want_dets, want_flags = _reference_simulate_radar(scene, spec, cfg,
                                                                  np.random.default_rng(seed))
        flags = dets.dynamic
        assert detections_jsonl(dets) == detections_jsonl(columns(want_dets))
        assert flags.dtype == bool and flags.tolist() == want_flags
        assert np.array_equal(image.data, counts)
        return image.data, dets, flags

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_scenes(self, seed):
        _, dets, _ = self._assert_parity(generate_scene(100 + seed), SimConfig(), seed=seed)
        assert dets

    @pytest.mark.parametrize("prob", [0.0, 1.0])
    def test_detection_prob_extremes(self, prob):
        self._assert_parity(generate_scene(7), SimConfig(detection_prob=prob), seed=3)

    def test_subsampled_below_candidates(self):
        cfg = SimConfig(detection_prob=1.0, max_detections=20, clutter_rate=20.0)
        _, dets, _ = self._assert_parity(generate_scene(8), cfg, seed=4)
        per_sensor = [sum(d.sensor_id == sid for d in detection_list(dets)) for sid in range(4)]
        assert max(per_sensor) == 20

    @pytest.mark.parametrize("clutter", [0.0, 20.0])
    def test_clutter_rates(self, clutter):
        self._assert_parity(generate_scene(9), SimConfig(clutter_rate=clutter, max_detections=500), seed=5)

    def test_empty_scene(self):
        scene = Scene([], [], generate_scene(10).ego)
        _, dets, _ = self._assert_parity(scene, SimConfig(clutter_rate=5.0), seed=6)
        assert dets  # clutter only
        self._assert_parity(scene, SimConfig(clutter_rate=0.0), seed=6)

    @pytest.mark.parametrize("vel", [(3.0, 0.0), (1.3, -0.7), (0.2, 0.1)])
    def test_moving_object(self, vel):
        scene = Scene([rect(-8.0, 3.0, 8.0, 3.6)], [(rect(3.0, -1.5, 5.0, -0.5), np.array(vel))],
                      Pose2D(0.2, -0.1, 0.25))
        cfg = SimConfig(detection_prob=0.8, max_detections=500)
        _, _, flags = self._assert_parity(scene, cfg, seed=7)
        assert any(flags) == (math.hypot(*vel) > 0.5)

    def test_detections_outside_the_grid(self):
        spec = GridSpec(side_cells=12, cell_size=0.5)
        counts, dets, _ = self._assert_parity(generate_scene(11), SimConfig(clutter_rate=20.0), spec=spec, seed=8)
        assert 0 < counts.sum() < len(dets)

    @pytest.mark.parametrize("side, overrides", [
        (32, {}),  # pipeline-32
        (64, {"detection_prob": 0.7, "max_detections": 128, "clutter_rate": 8.0}),  # ism-64
        (64, {"frames": 3}),  # train-64
        (32, {"frames": 5}),  # configs/paper.json
    ], ids=["pipeline-32", "ism-64", "train-64", "paper"])
    @pytest.mark.parametrize("seed", range(4))
    def test_workload_settings(self, side, overrides, seed):
        # the scenes gen draws at each workload's sim settings; the oracle bins
        # every detection by its own measured |v_r|
        cfg = SimConfig(**overrides)
        counts, dets, _ = self._assert_parity(generate_scene(_scene_seed(seed, 0), cfg), cfg,
                                              spec=GridSpec(side_cells=side, cell_size=0.5), seed=seed)
        assert len(dets) > 0 and counts.sum() > 0


def _line(det: Row) -> str:
    """The line ``gen`` writes for one detection."""
    return detections_jsonl(columns([det])).rstrip("\n")


class TestDetectionsJsonl:
    def test_round_trip(self):
        dets = [Row(r=5.0, phi=0.1, v_r=-0.3, sensor_id=2, t=1.0),
                Row(r=1.5, phi=-0.8, v_r=0.0, sensor_id=0)]
        text = detections_jsonl(columns(dets))
        assert detection_list(detections_from_jsonl(text)) == dets
        assert detection_list(detections_from_jsonl(text.encode())) == dets
        assert len(detections_from_jsonl("")) == 0

    def test_writer_matches_json_dumps(self):
        # repr floats in sorted-key order, negative zero and non-zero t included
        values = [0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, 5e-324, 1e22, 1.7976931348623157e308, 123456789.12345679,
                  -3.141592653589793, 2.0**53 + 2]
        rng = np.random.default_rng(5)
        dets = Detections(r=np.abs(rng.permutation(values)), phi=rng.permutation(values),
                          v_r=rng.permutation(values), sensor_id=rng.integers(-5, 2**40, len(values)),
                          t=rng.permutation(values))
        want = "".join(json.dumps({"r": d.r, "phi": d.phi, "v_r": d.v_r, "sensor_id": d.sensor_id, "t": d.t},
                                  sort_keys=True, separators=(",", ":")) + "\n" for d in detection_list(dets))
        assert detections_jsonl(dets) == want
        assert ":-0.0," in want and dets.t.any()
        assert detections_jsonl(columns([])) == ""

    def test_bad_line_names_source_and_line(self, tmp_path):
        good = _line(Row(r=1.0, phi=0.0))
        path = tmp_path / "dets.jsonl"
        for bad in ['{"r": 1.0', '{"r": 1.0, "phi": 0.0, "v_r": 0.0}', '[1, 2]',
                    good.replace('"sensor_id":0', '"sensor_id":"0"'),
                    good.replace('"r":1.0', '"r":-1.0'), good.replace('"phi":0.0', '"phi":NaN'),
                    good.replace('"r":1.0', '"r":1' + '0' * 400)]:  # an int too large for a float
            path.write_text(f"{good}\n\n{bad}\n")
            with pytest.raises(EvgridError, match=re.escape(f"{path}: line 3:")):
                read_detections(path)

    @pytest.mark.parametrize("bad, message", [
        ('{"phi":0.0,"r":1.0,"sensor_id":0,"t":0.0,', "Expecting property name"),  # would run into the next line
        (b'{"phi":0.0,"r":1.0,"sensor_id":0,"t":0.0,"v_r":0.0}} ', "extra data"),
        ('{"phi":0.0,"r":1.0,"sensor_id":true,"t":0.0,"v_r":0.0}', "'sensor_id' must be an integer, got True"),
        ('{"phi":0.0,"r":1.0,"sensor_id":' + '9' * 20 + ',"t":0.0,"v_r":0.0}', "'sensor_id' must be an integer"),
        ('{"phi":0.0,"r":1.0,"sensor_id":4,"t":0.0,"v_r":3.0}', "no radar sensor 4"),  # dynamic, still refused
        ('{"phi":0.0,"r":1.0,"sensor_id":-1,"t":0.0,"v_r":0.0}', "no radar sensor -1"),
        ('{"phi":0.0,"r":1.0,"sensor_id":0,"t":Infinity,"v_r":0.0}', "must be finite"),
        ('{"phi":0.0,"r":-2.0,"sensor_id":0,"v_r":0.0}', "range must be >= 0, got -2.0"),
        (b'{"phi":0.0,"r":1.0,"sensor_id":0,"t":0.0,"v_r":0.0,"note":"\xff"}', "can't decode byte 0xff"),
    ])
    def test_bad_line_after_blank_lines(self, bad, message):
        good = _line(Row(r=1.0, phi=0.0)).encode()
        bad = bad if isinstance(bad, bytes) else bad.encode()
        # good lines, blank and whitespace-only ones among them, then the bad line
        # (line 7), then a good one and an unparsable one that come too late to be named
        blob = b"\n".join([good, b"", good, b"  \t", b"", good, bad, good, b"{", b""])
        for text in (blob, blob.replace(b"\n", b"\r\n")):
            with pytest.raises(EvgridError, match=re.escape("line 7: ") + ".*" + re.escape(message)):
                detections_from_jsonl(text)

    def test_line_is_compact_sorted_json(self):
        line = _line(Row(r=1.0, phi=0.0))
        assert json.loads(line) == {"t": 0.0, "sensor_id": 0, "r": 1.0, "phi": 0.0, "v_r": 0.0}
        assert " " not in line


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory for damaged files, and the valid manifest and detections they start from."""
    data = tmp_path_factory.mktemp("fuzz-source")
    write_dataset(n_scenes=3, spec=GridSpec(8, 0.5), out_dir=data, cfg=SimConfig(lidar_rays=16))
    blobs = {name: (data / rel).read_bytes() for name, rel in
             (("manifest", "manifest.json"), ("detections", "samples/00000/detections.jsonl"))}
    return tmp_path_factory.mktemp("fuzz"), blobs


class TestReaderFuzz:
    """A cut or flipped manifest or detections file parses, or fails naming the file."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_manifest(self, fuzz_dir, data):
        out, blobs = fuzz_dir
        (out / "manifest.json").write_bytes(cut_and_flip(data, blobs["manifest"]))
        reads_or_names_file(lambda path: load_manifest(path.parent), out / "manifest.json")

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_detections(self, fuzz_dir, data):
        out, blobs = fuzz_dir
        (out / "detections.jsonl").write_bytes(cut_and_flip(data, blobs["detections"]))
        reads_or_names_file(read_detections, out / "detections.jsonl")


class TestDataset:
    def test_write_is_deterministic(self, tmp_path):
        kw = dict(n_scenes=4, spec=GridSpec(16, 0.5), master_seed=7,
                  cfg=SimConfig(lidar_rays=90))
        m1 = write_dataset(out_dir=tmp_path / "a", **kw)
        m2 = write_dataset(out_dir=tmp_path / "b", **kw)
        assert m1 == m2
        for rel in ["manifest.json", "samples/00002/radar.grid",
                    "samples/00002/target.grid", "samples/00002/detections.jsonl"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_splits_partition_samples(self, tmp_path):
        m = write_dataset(n_scenes=10, spec=GridSpec(16, 0.5), out_dir=tmp_path,
                          cfg=SimConfig(lidar_rays=90))
        ids = sorted(sid for ids in m["splits"].values() for sid in ids)
        assert ids == [f"{i:05d}" for i in range(10)]
        assert len(m["splits"]["train"]) == 7

    def test_manifest_loads_and_grids_read_back(self, tmp_path):
        cfg = SimConfig(lidar_rays=90)
        write_dataset(n_scenes=2, spec=GridSpec(16, 0.5), out_dir=tmp_path, cfg=cfg)
        m = load_manifest(tmp_path)
        assert m["n_scenes"] == 2
        # the config echo is every SimConfig field, the noise model's inlined
        fields = {k: v for k, v in asdict(cfg).items() if k != "noise"}
        assert m["config"] == {**fields, **asdict(cfg.noise)}
        g = read_grid(tmp_path / "samples" / "00000" / "target.grid")
        assert g.data.shape == (3, 16, 16)
        assert np.allclose(g.data.sum(axis=0), 1.0, atol=1e-6)

    def test_scene_seeds_distinct(self):
        seeds = {_scene_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert _scene_seed(0, 0) != _scene_seed(1, 0)


class TestAugment:
    def test_same_transform_applied_to_all(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(3, 8, 8))
        b = rng.uniform(size=(1, 8, 8))
        out_a, out_b = augment_arrays([a, b], k_rot=1, flip_h=True, flip_v=False)
        ref_a = np.rot90(a[:, :, ::-1], k=1, axes=(1, 2))
        ref_b = np.rot90(b[:, :, ::-1], k=1, axes=(1, 2))
        assert np.array_equal(out_a, ref_a) and np.array_equal(out_b, ref_b)

    def test_identity(self):
        a = np.arange(2 * 4 * 4, dtype=float).reshape(2, 4, 4)
        (out,) = augment_arrays([a], k_rot=0, flip_h=False, flip_v=False)
        assert np.array_equal(out, a)

    def test_double_flip_is_rot180(self):
        a = np.arange(16, dtype=float).reshape(1, 4, 4)
        (out,) = augment_arrays([a], k_rot=0, flip_h=True, flip_v=True)
        assert np.array_equal(out, np.rot90(a, k=2, axes=(1, 2)))

    def test_outputs_contiguous(self):
        a = np.zeros((1, 4, 4))
        (out,) = augment_arrays([a], k_rot=3, flip_h=True, flip_v=True)
        assert out.flags["C_CONTIGUOUS"]
