import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cell_of, cut_and_flip
from evgrid.errors import DomainError, EvgridError, write_atomic
from evgrid.evidential import EvidentialState, evidential_to_probability
from evgrid import sim
from evgrid.grid import (
    Grid2D,
    GridSpec,
    Pose2D,
    cell_centers,
    dempster_combine,
    grid_from_bytes,
    grid_to_bytes,
    polar,
    prob_to_evidential_array,
    read_grid,
    render_pgm,
    render_ppm,
    to_local,
    to_world,
    world_to_cells,
    wrap_angle,
    write_grid,
)
from evgrid.net.unet import load_checkpoint
from evgrid.rayism import _polar_cells
from evgrid.sim import (Scene, SimConfig, accumulated_ground_truth, corner_sensor_poses, load_manifest,
                        read_detections)

SPEC = GridSpec(side_cells=32, cell_size=0.5)

# 1,000 headings drawn over (-pi, pi], then the ones where a rotation's cos or sin is 0 or +-1
HEADINGS = [*(math.pi - np.random.default_rng(18).uniform(0.0, 2.0 * math.pi, 1000)).tolist(),
            0.0, math.pi / 2, -math.pi / 2, math.pi]


def _unknown_grid(spec, origin=Pose2D()):
    """Evidential grid with every cell fully unknown (0, 0, 1)."""
    n = spec.side_cells
    return Grid2D(spec, np.stack([np.zeros((n, n)), np.zeros((n, n)), np.ones((n, n))]),
                  channels=("b_f", "b_o", "u"), origin=origin)


masses = st.tuples(st.floats(0, 1), st.floats(0, 1)).map(
    lambda t: EvidentialState(
        b_f=t[0] * (1 - t[1]), b_o=(1 - t[0]) * (1 - t[1]), u=t[1]
    )
)


class TestCoordinates:
    def test_origin_maps_to_center_cell(self):
        assert cell_of(SPEC, (0.0, 0.0), Pose2D()) == (16, 16)

    def test_boundary_uses_floor_convention(self):
        # x = 0.5 is the boundary between column 16 ([0, 0.5)) and column 17
        assert cell_of(SPEC, (0.5, 0.0), Pose2D()) == (16, 17)
        assert cell_of(SPEC, (0.4999, 0.0), Pose2D()) == (16, 16)

    def test_rotated_ego_matches_rotation_matrix_oracle(self):
        ego = Pose2D(heading=math.pi / 2)
        point = (1.0, 0.0)
        # oracle: the rotation by -heading applied to the ego-relative point, which puts it in the ego's frame
        ox = math.cos(ego.heading) * point[0] + math.sin(ego.heading) * point[1]
        oy = -math.sin(ego.heading) * point[0] + math.cos(ego.heading) * point[1]
        assert cell_of(SPEC, point, ego) == cell_of(SPEC, (ox, oy), Pose2D())
        # a point on the world's x axis is on the right of an ego heading along the world's y axis
        assert cell_of(SPEC, point, ego) == cell_of(SPEC, (0.0, -1.0), Pose2D(heading=0.0))

    def test_out_of_bounds_signaled(self):
        assert cell_of(SPEC, (100.0, 0.0), Pose2D()) is None

    @pytest.mark.parametrize("ego", [Pose2D(), Pose2D(1.5, -2.0, 0.0), Pose2D(0.3, -0.7, 0.4)])
    def test_scalar_form_matches_array_form(self, ego):
        rng = np.random.default_rng(4)
        # every cell boundary of the grid and one past it, exact when the heading is 0
        bounds = np.arange(-18, 19) * SPEC.cell_size
        bx, by = np.meshgrid(ego.x + bounds, ego.y + bounds)
        px = np.concatenate([rng.uniform(-12.0, 12.0, 300), bx.ravel()])
        py = np.concatenate([rng.uniform(-12.0, 12.0, 300), by.ravel()])
        rows, cols, inside = world_to_cells(SPEC, ego, px, py)
        assert inside.any() and not inside.all()
        c, s = math.cos(ego.heading), math.sin(ego.heading)
        for x, y, row, col, ok in zip(px.tolist(), py.tolist(), rows, cols, inside):
            # scalar oracle: rotate by -heading into the ego frame, floor by the cell size, shift to the center
            dx, dy = x - ego.x, y - ego.y
            want_col = math.floor((c * dx + s * dy) / SPEC.cell_size) + 16
            want_row = math.floor((c * dy - s * dx) / SPEC.cell_size) + 16
            assert (row, col) == (want_row, want_col)
            assert ok == (0 <= want_row < 32 and 0 <= want_col < 32)

    def test_cell_centers_round_trip(self):
        ego = Pose2D(1.0, -2.0, 0.7)
        wx, wy = cell_centers(SPEC, ego)
        for row, col in [(0, 0), (5, 20), (31, 31)]:
            assert cell_of(SPEC, (wx[row, col], wy[row, col]), ego) == (row, col)

    def test_wrap_angle(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_wrap_angle_keeps_angles_in_range_and_wraps_the_rest(self):
        rng = np.random.default_rng(5)
        h = rng.uniform(-math.pi, math.pi, 1000)
        h[0], h[1] = math.pi, np.nextafter(-math.pi, 0.0)
        assert np.array_equal(wrap_angle(h), h) and all(Pose2D(heading=x).heading == x for x in h.tolist())
        # out of range, including just past pi, where the remainder of the shift rounds up to 2 pi
        out = np.concatenate([rng.uniform(math.pi, 50.0, 500) * rng.choice([-1.0, 1.0], 500),
                              [np.nextafter(math.pi, 4.0), -math.pi, 3 * math.pi, -3 * math.pi]])
        wrapped = wrap_angle(out)
        assert ((-math.pi < wrapped) & (wrapped <= math.pi)).all()
        assert np.allclose(np.cos(wrapped), np.cos(out)) and np.allclose(np.sin(wrapped), np.sin(out))
        assert np.array_equal(wrap_angle(wrapped), wrapped)

    def test_point_straight_ahead_lands_straight_ahead(self):
        # 5 m along heading 0.3 lies on the edge between rows 15 and 16 and between columns 25 and 26;
        # in the ego's frame it rounds to (4.999999999999999, 1.1e-15), so into row 16, column 25
        ego = Pose2D(heading=0.3)
        assert cell_of(SPEC, (5.0 * math.cos(0.3), 5.0 * math.sin(0.3)), ego) == (16, 25)


class TestFrames:
    """The pose algebra against written-out rotations and the formulas it replaced in grid,
    sim and rayism, kept here bit for bit; the grid's frame is the ego's own."""

    def test_to_local_of_a_grid_frame_matches_the_world_to_cells_rotation(self):
        px, py = np.random.default_rng(1).uniform(-20.0, 20.0, (2, 64))
        for h in HEADINGS:
            ego = Pose2D(1.3, -0.4, h)
            c, s = math.cos(h), math.sin(h)
            dx, dy = px - ego.x, py - ego.y
            xr, yr = to_local(ego, px, py)
            # R(-h) applied to the ego-relative point
            assert np.array_equal(xr, c * dx + s * dy) and np.array_equal(yr, -s * dx + c * dy)

    def test_to_world_of_a_grid_frame_matches_the_cell_centers_formula(self):
        idx = (np.arange(32) - 16 + 0.5) * 0.5
        xr, yr = np.meshgrid(idx, idx)
        for h in HEADINGS:
            ego = Pose2D(-2.1, 0.7, h)
            c, s = math.cos(h), math.sin(h)
            wx, wy = to_world(ego, xr, yr)
            # R(+h) applied to the cell's offset, then the shift to the ego
            assert np.array_equal(wx, ego.x + c * xr - s * yr) and np.array_equal(wy, ego.y + s * xr + c * yr)

    def test_corner_sensor_poses_match_their_formula(self):
        offsets = [(1.8, 0.8, math.pi / 4), (1.8, -0.8, -math.pi / 4),
                   (-1.8, 0.8, 3 * math.pi / 4), (-1.8, -0.8, -3 * math.pi / 4)]
        for h in HEADINGS:
            ego = Pose2D(0.2, -0.3, h)
            c, s = math.cos(ego.heading), math.sin(ego.heading)
            want = {i: Pose2D(x=ego.x + c * ox - s * oy, y=ego.y + s * ox + c * oy, heading=ego.heading + oh)
                    for i, (ox, oy, oh) in enumerate(offsets)}
            assert corner_sensor_poses(ego) == want

    def test_scan_poses_match_their_formula(self, monkeypatch):
        scans = []

        def record(scene, spec, cfg, scan):
            scans.append(scan)
            return np.zeros((spec.side_cells, spec.side_cells), dtype=np.int8)

        monkeypatch.setattr(sim, "_status_scan", record)
        cfg = SimConfig(frames=4, ego_step=2.0)
        for h in HEADINGS:
            ego = Pose2D(0.4, -0.1, h)
            scans.clear()
            accumulated_ground_truth(Scene([], [], ego), GridSpec(8, 0.5), cfg)
            assert scans == [Pose2D(x=ego.x + k * cfg.ego_step * math.cos(ego.heading),
                                    y=ego.y + k * cfg.ego_step * math.sin(ego.heading), heading=ego.heading)
                             for k in range(cfg.frames)]

    def test_polar_matches_the_radar_range_and_bearing(self):
        pts = np.random.default_rng(2).uniform(-20.0, 20.0, (200, 2))
        for h in HEADINGS:
            for pose in corner_sensor_poses(Pose2D(0.1, 0.2, h)).values():
                rel = pts - np.array([pose.x, pose.y])[None]
                r, phi = polar(pose, pts[:, 0], pts[:, 1])
                assert np.array_equal(r, np.hypot(rel[:, 0], rel[:, 1]))
                assert np.array_equal(phi, wrap_angle(np.arctan2(rel[:, 1], rel[:, 0]) - pose.heading))

    def test_polar_cells_match_their_formula(self):
        for h in HEADINGS:
            ego = Pose2D(-0.3, 0.5, h)
            grid = _unknown_grid(SPEC, ego)
            poses = list(corner_sensor_poses(ego).values())
            rng, phi, _order = _polar_cells(grid, poses)
            wx, wy = cell_centers(SPEC, ego)
            for k, pose in enumerate(poses):
                dx, dy = wx - pose.x, wy - pose.y
                assert np.array_equal(rng[k], np.hypot(dx, dy).ravel())
                assert np.array_equal(phi[k], wrap_angle(np.arctan2(dy, dx) - pose.heading).ravel())

    def test_polar_cells_are_the_same_in_every_scene(self):
        # the grid and the corner radars both turn with the ego, so each cell's range and bearing from
        # each radar do not depend on the ego pose: one table could serve every scene, up to rounding
        spec = GridSpec(64, 0.5)
        tables = []
        for seed in range(20):
            ego = sim.generate_scene(seed).ego
            tables.append(_polar_cells(_unknown_grid(spec, ego), list(corner_sensor_poses(ego).values()))[:2])
        for rng, phi in tables[1:]:
            assert np.abs(rng - tables[0][0]).max() <= 1e-12
            assert np.abs(wrap_angle(phi - tables[0][1])).max() <= 1e-12

    def test_to_local_inverts_to_world(self):
        x, y = np.random.default_rng(3).uniform(-50.0, 50.0, (2, 100))
        for h in HEADINGS:
            ego = Pose2D(3.0, -4.0, h)
            back = to_local(ego, *to_world(ego, x, y))
            assert np.abs(back[0] - x).max() <= 1e-12 and np.abs(back[1] - y).max() <= 1e-12


class TestProbToEvidential:
    @pytest.mark.parametrize("p_o,expected", [
        (0.5, (0.0, 0.0, 1.0)),
        (1.0, (0.0, 1.0, 0.0)),
        (0.75, (0.0, 0.5, 0.5)),
    ])
    def test_examples(self, p_o, expected):
        assert prob_to_evidential_array(p_o).tolist() == pytest.approx(expected)

    @given(st.floats(0.0, 1.0))
    def test_round_trip_on_one_sided_states(self, p_o):
        b_f, b_o, u = prob_to_evidential_array(p_o).tolist()
        assert min(b_f, b_o) == 0.0
        back = evidential_to_probability(EvidentialState(b_f, b_o, u))
        assert back.p_o == pytest.approx(p_o, abs=1e-12)

    def test_array_version(self):
        arr = prob_to_evidential_array(np.array([0.5, 1.0, 0.75]))
        assert arr.shape == (3, 3)
        assert arr[:, 0] == pytest.approx([0.0, 0.0, 1.0])


class TestDempster:
    def test_vacuous_identity(self):
        m = EvidentialState(0.3, 0.25, 0.45)
        out = dempster_combine(EvidentialState(0.0, 0.0, 1.0), m)
        assert (out.b_f, out.b_o, out.u) == pytest.approx((m.b_f, m.b_o, m.u))

    def test_hand_case_symmetric_conflict(self):
        out = dempster_combine(EvidentialState(0.5, 0.0, 0.5), EvidentialState(0.0, 0.5, 0.5))
        assert (out.b_f, out.b_o, out.u) == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_hand_case_agreement(self):
        m = EvidentialState(0.6, 0.0, 0.4)
        out = dempster_combine(m, m)
        assert (out.b_f, out.b_o, out.u) == pytest.approx((0.84, 0.0, 0.16))

    def test_total_conflict_rejected(self):
        with pytest.raises(DomainError):
            dempster_combine(EvidentialState(1.0, 0.0, 0.0), EvidentialState(0.0, 1.0, 0.0))

    @given(masses, masses)
    @settings(max_examples=200)
    def test_commutative(self, m1, m2):
        conflict = m1.b_f * m2.b_o + m1.b_o * m2.b_f
        if conflict >= 1.0 - 1e-9:
            return
        a = dempster_combine(m1, m2)
        b = dempster_combine(m2, m1)
        assert (a.b_f, a.b_o, a.u) == pytest.approx((b.b_f, b.b_o, b.u), abs=1e-12)


class TestSerialization:
    def test_round_trip(self):
        g = _unknown_grid(SPEC, origin=Pose2D(1.5, -0.5, 0.25))
        g.data[0, 3, 4] = 0.5
        g.data[2, 3, 4] = 0.5
        back = grid_from_bytes(grid_to_bytes(g))
        assert back.spec == g.spec
        assert back.channels == g.channels
        assert back.origin == pytest.approx((1.5, -0.5, 0.25)) or back.origin == g.origin
        assert np.allclose(back.data, g.data, atol=1e-7)

    def test_byte_stable(self):
        g = _unknown_grid(SPEC)
        assert grid_to_bytes(g) == grid_to_bytes(g)

    def test_header_is_json_line(self):
        import json

        blob = grid_to_bytes(_unknown_grid(SPEC))
        header = json.loads(blob.split(b"\n", 1)[0])
        assert header["element_type"] == "f32"
        assert header["channels"] == ["b_f", "b_o", "u"]


class TestAtomicWrite:
    def test_replaces_target(self, tmp_path):
        path = tmp_path / "a.grid"
        write_grid(path, _unknown_grid(SPEC))
        write_grid(path, _unknown_grid(SPEC, origin=Pose2D(1.0, 0.0, 0.0)))
        assert read_grid(path).origin == Pose2D(1.0, 0.0, 0.0)
        assert [p.name for p in tmp_path.iterdir()] == ["a.grid"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_trace(self, tmp_path, monkeypatch, existing):
        path = tmp_path / "a.grid"
        if existing:
            path.write_bytes(b"old")
        # fails midway: the temporary file exists, its content cannot be encoded
        with pytest.raises(UnicodeEncodeError):
            write_atomic(path, "ok\ud800", "test file")
        # fails at the rename, after the temporary file is complete
        def no_space(*_args):
            raise OSError("no space")

        monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(EvgridError, match="a.grid"):
            write_grid(path, _unknown_grid(SPEC))
        assert [p.name for p in tmp_path.iterdir()] == (["a.grid"] if existing else [])
        if existing:
            assert path.read_bytes() == b"old"


class TestReadInput:
    READERS = pytest.mark.parametrize("read, name, what", [
        (read_grid, "a.grid", "grid file"),
        (load_checkpoint, "a.ckpt", "checkpoint"),
        (read_detections, "detections.jsonl", "detections file"),
        (lambda path: load_manifest(path.parent), "manifest.json", "dataset manifest"),
    ], ids=["grid", "checkpoint", "detections", "manifest"])

    @READERS
    @pytest.mark.parametrize("directory", [False, True], ids=["missing", "directory"])
    def test_unreadable_file_is_named(self, tmp_path, read, name, what, directory):
        path = tmp_path / name
        if directory:
            path.mkdir()
        with pytest.raises(EvgridError, match=re.escape(f"cannot read {what} {path}: ")):
            read(path)

    @READERS
    def test_deep_nesting_is_named(self, tmp_path, read, name, what):
        path = tmp_path / name
        path.write_bytes(b"[" * 100_000)  # deeper than json.loads can recurse
        with pytest.raises(EvgridError, match=re.escape(f"{what} {path}: JSON nested too deeply")):
            read(path)


class TestGridValidation:
    BLOB = grid_to_bytes(_unknown_grid(GridSpec(8, 0.5), origin=Pose2D(1.0, 2.0, 0.5)))

    @pytest.mark.parametrize("damage", [
        lambda b: b[:-1],
        lambda b: b + b"\0\0\0\0",
        lambda b: b[:b.index(b"\n")],
        lambda b: b"[1]" + b[b.index(b"\n"):],
        lambda b: b.replace(b'"element_type":"f32"', b'"element_type":"f64"'),
        lambda b: b.replace(b'"side_cells":8', b'"side_cells":8.0'),
        lambda b: b.replace(b'"side_cells":8', b'"side_cells":true'),
        lambda b: b.replace(b'"cell_size":0.5', b'"cell_size":NaN'),
        lambda b: b.replace(b'"channels":["b_f","b_o","u"]', b'"channels":[]'),
        lambda b: b.replace(b'"heading":0.5', b'"heading":"0.5"'),
        lambda b: b.replace(b'"side_cells":8', b'"side_cells":4'),
        lambda b: b[:-4] + np.array([np.nan], "<f4").tobytes(),
        lambda b: b[:-4] + np.array([-np.inf], "<f4").tobytes(),
    ], ids=["short", "long", "no_newline", "not_object", "f64", "float_side", "bool_side",
            "nan_cell_size", "no_channels", "string_heading", "too_small", "nan_value", "inf_value"])
    def test_rejected(self, damage):
        bad = damage(self.BLOB)
        assert bad != self.BLOB
        with pytest.raises(EvgridError):
            grid_from_bytes(bad)

    @pytest.mark.parametrize("channel, value, ok", [
        ("b_f", 1.0, True), ("b_o", -1e-30, False), ("u", 1.5, False), ("visible", 2.0, False),
        ("static", 2.0**24, True), ("dynamic", 3e38, False), ("static", -1.0, False), ("value", 3e38, True),
    ])
    def test_channel_value_ranges(self, channel, value, ok):
        data = np.zeros((1, 8, 8))
        data[0, 3, 4] = value
        blob = grid_to_bytes(Grid2D(GridSpec(8, 0.5), data, channels=(channel,)))
        if ok:
            assert grid_from_bytes(blob).data[0, 3, 4] == np.float32(value)
        else:
            with pytest.raises(EvgridError, match=f"channel '{channel}' holds a value outside"):
                grid_from_bytes(blob)

    def test_read_grid_names_the_file(self, tmp_path):
        path = tmp_path / "cut.grid"
        path.write_bytes(self.BLOB[:-100])
        with pytest.raises(EvgridError, match="cut.grid"):
            read_grid(path)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_cut_or_flipped_blob_parses_or_raises_evgrid_error(self, data):
        try:
            grid_from_bytes(cut_and_flip(data, self.BLOB))
        except EvgridError:
            pass


class TestRendering:
    def test_ppm_shape_and_magic(self):
        blob = render_ppm(_unknown_grid(SPEC))
        assert blob.startswith(b"P6\n32 32\n255\n")
        assert len(blob) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3

    def test_unknown_renders_blue(self):
        blob = render_ppm(_unknown_grid(SPEC))
        pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8).reshape(32, 32, 3)
        assert np.all(pixels[:, :, 2] == 255)
        assert np.all(pixels[:, :, :2] == 0)

    def test_pgm(self):
        blob = render_pgm(np.ones((32, 32)))
        assert blob.startswith(b"P5\n32 32\n255\n")
