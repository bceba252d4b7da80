import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evgrid.errors import DomainError, EvgridError
from evgrid.evidential import EvidentialState, ProbabilisticState, evidential_to_probability
from evgrid.grid import (
    Grid2D,
    GridSpec,
    Pose2D,
    cell_centers,
    dempster_combine,
    extract_patch,
    grid_from_bytes,
    grid_to_bytes,
    logodds_update,
    prob_to_evidential,
    prob_to_evidential_array,
    read_grid,
    render_pgm,
    render_ppm,
    trace_ray,
    unknown_grid,
    world_to_cell,
    wrap_angle,
)

SPEC = GridSpec(side_cells=32, cell_size=0.5)

masses = st.tuples(st.floats(0, 1), st.floats(0, 1)).map(
    lambda t: EvidentialState(
        b_f=t[0] * (1 - t[1]), b_o=(1 - t[0]) * (1 - t[1]), u=t[1]
    )
)


class TestCoordinates:
    def test_origin_maps_to_center_cell(self):
        assert world_to_cell(SPEC, (0.0, 0.0), Pose2D()) == (16, 16)

    def test_boundary_uses_floor_convention(self):
        # x = 0.5 is the boundary between column 16 ([0, 0.5)) and column 17
        assert world_to_cell(SPEC, (0.5, 0.0), Pose2D()) == (16, 17)
        assert world_to_cell(SPEC, (0.4999, 0.0), Pose2D()) == (16, 16)

    def test_rotated_ego_matches_rotation_matrix_oracle(self):
        ego = Pose2D(heading=math.pi / 2)
        point = (1.0, 0.0)
        # oracle: rotation matrix applied to the ego-relative point
        ox = math.cos(ego.heading) * point[0] - math.sin(ego.heading) * point[1]
        oy = math.sin(ego.heading) * point[0] + math.cos(ego.heading) * point[1]
        assert world_to_cell(SPEC, point, ego) == world_to_cell(SPEC, (ox, oy), Pose2D())
        assert world_to_cell(SPEC, point, ego) == world_to_cell(SPEC, (0.0, 1.0), Pose2D(heading=0.0))

    def test_out_of_bounds_signaled(self):
        assert world_to_cell(SPEC, (100.0, 0.0), Pose2D()) is None

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            world_to_cell(SPEC, (float("inf"), 0.0), Pose2D())

    def test_cell_centers_round_trip(self):
        ego = Pose2D(1.0, -2.0, 0.7)
        wx, wy = cell_centers(SPEC, ego)
        for row, col in [(0, 0), (5, 20), (31, 31)]:
            assert world_to_cell(SPEC, (wx[row, col], wy[row, col]), ego) == (row, col)

    def test_wrap_angle(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)


def _segment_box_cells(a, b):
    """Brute-force supercover oracle: cells whose box the segment intersects.

    Works on cell-center coordinates; corner touches count as intersections.
    """
    (r0, c0), (r1, c1) = a, b
    cells = set()
    for r in range(min(r0, r1), max(r0, r1) + 1):
        for c in range(min(c0, c1), max(c0, c1) + 1):
            # box [c-0.5, c+0.5] x [r-0.5, r+0.5]; segment (c0,r0)->(c1,r1)
            if _segment_intersects_box((c0, r0), (c1, r1), c, r):
                cells.add((r, c))
    return cells


def _segment_intersects_box(p, q, cx, cy):
    half = 0.5
    lo = (cx - half, cy - half)
    hi = (cx + half, cy + half)
    d = (q[0] - p[0], q[1] - p[1])
    t0, t1 = 0.0, 1.0
    for axis in range(2):
        if abs(d[axis]) < 1e-12:
            if p[axis] < lo[axis] or p[axis] > hi[axis]:
                return False
        else:
            ta = (lo[axis] - p[axis]) / d[axis]
            tb = (hi[axis] - p[axis]) / d[axis]
            ta, tb = min(ta, tb), max(ta, tb)
            t0, t1 = max(t0, ta), min(t1, tb)
    return t0 <= t1 + 1e-12


class TestTraceRay:
    def test_degenerate(self):
        assert trace_ray(SPEC, (4, 4), (4, 4)) == [(4, 4)]

    def test_horizontal(self):
        assert trace_ray(SPEC, (0, 0), (0, 3)) == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_diagonal_supercover(self):
        cells = trace_ray(SPEC, (0, 0), (2, 2))
        assert cells[0] == (0, 0) and cells[-1] == (2, 2)
        assert {(0, 0), (1, 1), (2, 2)} <= set(cells)
        assert set(cells) == _segment_box_cells((0, 0), (2, 2))

    @given(st.tuples(st.integers(0, 15), st.integers(0, 15)),
           st.tuples(st.integers(0, 15), st.integers(0, 15)))
    @settings(max_examples=150)
    def test_matches_brute_force_oracle(self, a, b):
        assert set(trace_ray(SPEC, a, b)) == _segment_box_cells(a, b)

    @given(st.tuples(st.integers(0, 31), st.integers(0, 31)),
           st.tuples(st.integers(0, 31), st.integers(0, 31)))
    @settings(max_examples=100)
    def test_reverse_is_setwise_equal(self, a, b):
        assert set(trace_ray(SPEC, a, b)) == set(trace_ray(SPEC, b, a))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(DomainError):
            trace_ray(SPEC, (0, 0), (40, 0))


class TestLogOdds:
    def test_uninformative(self):
        assert logodds_update(0.0, 0.5) == 0.0

    def test_logit_oracle(self):
        assert logodds_update(0.0, 0.7310586) == pytest.approx(1.0, abs=1e-6)

    def test_clamp(self):
        assert logodds_update(10.0, 0.9) == 10.0
        assert logodds_update(-10.0, 0.1) == -10.0

    def test_degenerate_probability_rejected(self):
        for p in (0.0, 1.0):
            with pytest.raises(DomainError):
                logodds_update(0.0, p)

    @given(st.lists(st.floats(0.3, 0.7), min_size=1, max_size=8),
           st.randoms(use_true_random=False))
    def test_order_independent_without_saturation(self, probs, rnd):
        def accumulate(seq):
            acc = 0.0
            for p in seq:
                acc = logodds_update(acc, p)
            return acc

        shuffled = list(probs)
        rnd.shuffle(shuffled)
        assert accumulate(probs) == pytest.approx(accumulate(shuffled), abs=1e-9)


class TestProbToEvidential:
    @pytest.mark.parametrize("p_o,expected", [
        (0.5, (0.0, 0.0, 1.0)),
        (1.0, (0.0, 1.0, 0.0)),
        (0.75, (0.0, 0.5, 0.5)),
    ])
    def test_examples(self, p_o, expected):
        s = prob_to_evidential(ProbabilisticState(1.0 - p_o, p_o))
        assert (s.b_f, s.b_o, s.u) == pytest.approx(expected)

    @given(st.floats(0.0, 1.0))
    def test_round_trip_on_one_sided_states(self, p_o):
        s = prob_to_evidential(ProbabilisticState(1.0 - p_o, p_o))
        assert min(s.b_f, s.b_o) == 0.0
        back = evidential_to_probability(s)
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


class TestExtractPatch:
    def _map(self):
        rng = np.random.default_rng(7)
        raw = rng.uniform(0.0, 1.0, size=(3, 32, 32))
        raw /= raw.sum(axis=0, keepdims=True)
        return Grid2D(SPEC, raw, channels=("b_f", "b_o", "u"))

    def test_centered_crop_is_identity(self):
        src = self._map()
        patch = extract_patch(src, Pose2D(), SPEC)
        assert np.allclose(patch.data, src.data)

    def test_border_cells_are_unknown(self):
        src = self._map()
        patch = extract_patch(src, Pose2D(x=6.0), SPEC)
        assert np.all(patch.data[:, :, -1] == np.array([0.0, 0.0, 1.0])[:, None])

    def test_rotated_patch_matches_rotated_crop(self):
        src = self._map()
        rotated = extract_patch(src, Pose2D(heading=math.pi / 2), SPEC)
        straight = extract_patch(src, Pose2D(), SPEC)
        # heading +90 deg sends the map x-axis onto the patch row axis,
        # which is a clockwise turn of the array
        assert np.allclose(rotated.data, np.rot90(straight.data, k=-1, axes=(1, 2)))

    def test_marker_cell_lands_where_geometry_says(self):
        m = np.zeros((3, 32, 32))
        m[2] = 1.0
        m[:, 16, 20] = [1.0, 0.0, 0.0]
        src = Grid2D(SPEC, m, channels=("b_f", "b_o", "u"))
        patch = extract_patch(src, Pose2D(heading=math.pi / 2), SPEC)
        # source cell (16, 20) has center (2.25, 0.25); rotating the frame by
        # +90 deg puts it at ego-relative (-0.25, 2.25), i.e. row 20, col 15
        assert np.argwhere(patch.data[0] > 0.5).tolist() == [[20, 15]]


class TestSerialization:
    def test_round_trip(self):
        g = unknown_grid(SPEC, origin=Pose2D(1.5, -0.5, 0.25))
        g.data[0, 3, 4] = 0.5
        g.data[2, 3, 4] = 0.5
        back = grid_from_bytes(grid_to_bytes(g))
        assert back.spec == g.spec
        assert back.channels == g.channels
        assert back.origin == pytest.approx((1.5, -0.5, 0.25)) or back.origin == g.origin
        assert np.allclose(back.data, g.data, atol=1e-7)

    def test_byte_stable(self):
        g = unknown_grid(SPEC)
        assert grid_to_bytes(g) == grid_to_bytes(g)

    def test_header_is_json_line(self):
        import json

        blob = grid_to_bytes(unknown_grid(SPEC))
        header = json.loads(blob.split(b"\n", 1)[0])
        assert header["element_type"] == "f32"
        assert header["channels"] == ["b_f", "b_o", "u"]


class TestGridValidation:
    BLOB = grid_to_bytes(unknown_grid(GridSpec(8, 0.5), origin=Pose2D(1.0, 2.0, 0.5)))

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
    ], ids=["short", "long", "no_newline", "not_object", "f64", "float_side", "bool_side",
            "nan_cell_size", "no_channels", "string_heading", "too_small"])
    def test_rejected(self, damage):
        bad = damage(self.BLOB)
        assert bad != self.BLOB
        with pytest.raises(EvgridError):
            grid_from_bytes(bad)

    def test_read_grid_names_the_file(self, tmp_path):
        path = tmp_path / "cut.grid"
        path.write_bytes(self.BLOB[:-100])
        with pytest.raises(EvgridError, match="cut.grid"):
            read_grid(path)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_cut_or_flipped_blob_parses_or_raises_evgrid_error(self, data):
        blob = bytearray(self.BLOB[:data.draw(st.integers(0, len(self.BLOB)))])
        if blob:
            i = data.draw(st.integers(0, len(blob) - 1))
            blob[i] ^= data.draw(st.integers(0, 255))
        try:
            grid_from_bytes(bytes(blob))
        except EvgridError:
            pass


class TestRendering:
    def test_ppm_shape_and_magic(self):
        blob = render_ppm(unknown_grid(SPEC))
        assert blob.startswith(b"P6\n32 32\n255\n")
        assert len(blob) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3

    def test_unknown_renders_blue(self):
        blob = render_ppm(unknown_grid(SPEC))
        pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8).reshape(32, 32, 3)
        assert np.all(pixels[:, :, 2] == 255)
        assert np.all(pixels[:, :, :2] == 0)

    def test_pgm(self):
        blob = render_pgm(np.ones((32, 32)))
        assert blob.startswith(b"P5\n32 32\n255\n")
