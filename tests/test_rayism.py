import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

import evgrid
from conftest import Row, cell_of, columns
from evgrid.errors import DomainError
from evgrid.grid import (
    Grid2D,
    GridSpec,
    Pose2D,
    cell_centers,
    prob_to_evidential_array,
    wrap_angle,
)
from evgrid.rayism import (
    Detection,
    Detections,
    RadarNoiseModel,
    RayIsmConfig,
    _ndtr,
    accumulate_idms,
    angular_kernel,
    idm,
    range_model,
    ray_ism_scene,
)
from evgrid.sim import corner_sensor_poses

CFG = RayIsmConfig(noise=RadarNoiseModel(sigma_r=0.5, sigma_phi=0.02))


def _range_model_quadrature(r, r_meas, cfg):
    """Oracle: integrate the ideal piecewise model over the measurement noise.

    A measured range m puts the occupied band at [m - delta/2, m + delta/2];
    free space lies before it and 0.5 (no occlusion reasoning) behind it.
    """

    def ideal_given_measurement(m):
        if r < m - cfg.delta / 2.0:
            return cfg.eps_free
        if r <= m + cfg.delta / 2.0:
            return cfg.p_max
        return 0.5

    pdf = norm(loc=r_meas, scale=cfg.noise.sigma_r).pdf
    breaks = sorted({r - cfg.delta / 2.0, r + cfg.delta / 2.0, r_meas})
    lo, hi = r_meas - 8 * cfg.noise.sigma_r, r_meas + 8 * cfg.noise.sigma_r
    points = [lo] + [b for b in breaks if lo < b < hi] + [hi]
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += quad(lambda m: ideal_given_measurement(m) * pdf(m), a, b)[0]
    # tails beyond the integration window
    total += cfg.eps_free * norm.sf(hi, loc=r_meas, scale=cfg.noise.sigma_r)
    total += 0.5 * norm.cdf(lo, loc=r_meas, scale=cfg.noise.sigma_r)
    return total


class TestRangeModel:
    def test_on_target_value(self):
        assert range_model(10.0, 10.0, CFG) == pytest.approx(0.5335, abs=5e-4)

    @pytest.mark.parametrize("r", [0.0, 5.0, 9.0, 9.75, 10.0, 10.25, 11.0, 20.0])
    def test_matches_quadrature_oracle(self, r):
        assert range_model(r, 10.0, CFG) == pytest.approx(
            _range_model_quadrature(r, 10.0, CFG), abs=1e-9
        )

    @given(st.floats(0.1, 30.0), st.floats(0.5, 25.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_quadrature_everywhere(self, r, r_meas):
        assert range_model(r, r_meas, CFG) == pytest.approx(
            _range_model_quadrature(r, r_meas, CFG), abs=1e-8
        )

    def test_limits(self):
        # far before the target: free plateau; far behind: uninformative
        assert range_model(0.0, 20.0, CFG) == pytest.approx(CFG.eps_free, abs=1e-9)
        assert range_model(30.0, 10.0, CFG) == pytest.approx(0.5, abs=1e-9)

    def test_peak_near_measured_range(self):
        r = np.linspace(5.0, 15.0, 2001)
        p = range_model(r, 10.0, CFG)
        # the 0.5 plateau behind the band pulls the smoothed peak slightly
        # past the measured range, but it stays within one band width
        assert abs(r[np.argmax(p)] - 10.0) < CFG.delta
        assert p.max() < CFG.p_max

    def test_negative_range_rejected(self):
        with pytest.raises(DomainError):
            range_model(-0.1, 10.0, CFG)

    def test_vectorized_matches_scalar(self):
        r = np.array([1.0, 9.5, 10.0, 12.0])
        vec = range_model(r, 10.0, CFG)
        assert vec == pytest.approx([range_model(v, 10.0, CFG) for v in r])


class TestNdtr:
    """_ndtr, the numpy port of the Cephes ndtr, against scipy's ndtr."""

    ROOT2 = math.sqrt(2.0)

    @staticmethod
    def _assert_close(x):
        x = np.asarray(x, dtype=np.float64)
        got, want = _ndtr(x), ndtr(x)
        assert got.shape == want.shape
        err = np.abs(got - want)
        # within 2 ulp of scipy, or 1e-16 absolute where the value is tiny
        assert np.all(err <= np.maximum(2.0 * np.spacing(np.abs(want)), 1e-16))
        # and within 8 ulp relative wherever scipy's value is a normal float:
        # the two differ only by the rounding of exp
        normal = np.abs(want) >= np.finfo(np.float64).tiny
        assert np.all(err[normal] <= 8.0 * np.spacing(np.abs(want[normal])))

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 1.0),  # erf(x)
        (1.0, math.sqrt(2.0)),  # 1 - erf(|x|)
        (math.sqrt(2.0), 8.0 * math.sqrt(2.0)),  # erfc P/Q
        (8.0 * math.sqrt(2.0), 40.0),  # erfc R/S, then 0 on the left
    ])
    def test_each_branch_both_signs(self, lo, hi):
        a = np.linspace(lo, hi, 20_001)
        self._assert_close(np.concatenate([a, -a]))

    def test_branch_boundaries(self):
        edges = np.array([1.0, self.ROOT2, 8.0 * self.ROOT2, math.sqrt(2.0 * 7.09782712893383996843E2)])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        self._assert_close(np.concatenate([near, -near]))

    def test_special_values(self):
        got = _ndtr(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert got[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
        assert np.isnan(got[4])

    def test_deep_left_tail(self):
        a = -np.geomspace(1.0, 40.0, 50_001)
        self._assert_close(a)
        assert np.all(_ndtr(a) >= 0.0) and np.all(np.diff(_ndtr(a)) <= 0.0)

    def test_random_points(self):
        self._assert_close(np.random.default_rng(0).uniform(-100.0, 10.0, 200_000))

    def test_zero_dimensional(self):
        self._assert_close(0.3)
        self._assert_close(-3.7)


def test_cli_import_loads_no_scipy():
    """The runtime import path needs numpy alone; scipy is a test oracle only."""
    code = "import sys, evgrid.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(evgrid.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


class TestAngularKernel:
    def test_unit_peak(self):
        assert angular_kernel(0.3, 0.3, 0.02) == 1.0

    def test_one_sigma(self):
        assert angular_kernel(0.02, 0.0, 0.02) == pytest.approx(math.exp(-0.5))

    def test_symmetric(self):
        assert angular_kernel(0.05, 0.0, 0.02) == pytest.approx(angular_kernel(-0.05, 0.0, 0.02))

    def test_wraps_across_pi(self):
        near = angular_kernel(math.pi - 0.01, -math.pi + 0.01, 0.02)
        assert near == pytest.approx(angular_kernel(0.02, 0.0, 0.02))


class TestIdm:
    def test_on_axis_equals_range_model(self):
        det = Detection(r=10.0, phi=0.4)
        assert idm(10.0, 0.4, det, CFG) == pytest.approx(range_model(10.0, 10.0, CFG))

    def test_off_axis_decays_to_half(self):
        det = Detection(r=10.0, phi=0.0)
        assert idm(10.0, 0.5, det, CFG) == pytest.approx(0.5, abs=1e-12)

    def test_kernel_scales_deviation_from_half(self):
        det = Detection(r=10.0, phi=0.0)
        k = angular_kernel(0.01, 0.0, CFG.noise.sigma_phi)
        expected = 0.5 + (range_model(10.0, 10.0, CFG) - 0.5) * k
        assert idm(10.0, 0.01, det, CFG) == pytest.approx(expected)

    def test_free_region_stays_below_half_on_axis(self):
        det = Detection(r=10.0, phi=0.0)
        assert idm(3.0, 0.0, det, CFG) < 0.5


class TestDetectionValidation:
    def test_negative_range(self):
        with pytest.raises(DomainError):
            Detection(r=-1.0, phi=0.0)

    def test_nonfinite(self):
        with pytest.raises(DomainError):
            Detection(r=1.0, phi=float("nan"))

    @pytest.mark.parametrize("change, message", [
        ({"r": [1.0, -0.5]}, "range must be >= 0, got -0.5"),
        ({"phi": [0.0, float("nan")]}, "must be finite"),
        ({"t": [float("inf"), 0.0]}, "must be finite"),
        ({"sensor_id": [0.0, 1.0]}, "sensor ids must be integers"),
        ({"sensor_id": [True, False]}, "sensor ids must be integers"),
        ({"v_r": [0.0]}, "1-D arrays of one length"),
        ({"r": [[1.0, 2.0]]}, "1-D arrays of one length"),
    ])
    def test_columns_checks(self, change, message):
        good = {"r": [1.0, 2.0], "phi": [0.0, 0.1], "v_r": [0.0, 0.0], "sensor_id": [0, 1], "t": [0.0, 0.0]}
        assert len(Detections(**good)) == 2
        with pytest.raises(DomainError, match=re.escape(message)):
            Detections(**{**good, **change})

    def test_config_validation(self):
        with pytest.raises(DomainError):
            RayIsmConfig(eps_free=0.6)
        with pytest.raises(DomainError):
            RayIsmConfig(delta=0.0)
        with pytest.raises(DomainError):
            RadarNoiseModel(sigma_r=0.0)


SPEC = GridSpec(side_cells=32, cell_size=0.5)


def rasterize_one(det, pose, grid, cfg):
    accumulate_idms(columns([det]), {det.sensor_id: pose}, grid, cfg)


class TestRasterize:
    """The scene kernel called with a single detection."""

    def _logodds(self):
        return Grid2D(SPEC, np.zeros((SPEC.side_cells, SPEC.side_cells)), channels=("logodds",))

    def test_target_cell_positive_free_cell_negative(self):
        g = self._logodds()
        det = Row(r=5.0, phi=0.0)
        rasterize_one(det, Pose2D(), g, CFG)
        # cell centers sit 0.25 off the beam axis; pick a free cell far
        # enough out that its angular offset stays inside the footprint
        hit = cell_of(SPEC, (5.0, 0.0), Pose2D())
        free = cell_of(SPEC, (4.0, 0.0), Pose2D())
        assert g.data[0][hit] > 0.0
        assert g.data[0][free] < 0.0

    def test_outside_footprint_untouched(self):
        g = self._logodds()
        rasterize_one(Row(r=5.0, phi=0.0), Pose2D(), g, CFG)
        off_axis = cell_of(SPEC, (0.0, 5.0), Pose2D())
        behind = cell_of(SPEC, (7.5, 0.0), Pose2D())
        assert g.data[0][off_axis] == 0.0
        assert g.data[0][behind] == 0.0

    def test_two_identical_detections_double_the_logit(self):
        once, twice = self._logodds(), self._logodds()
        det = Row(r=5.0, phi=0.0)
        rasterize_one(det, Pose2D(), once, CFG)
        rasterize_one(det, Pose2D(), twice, CFG)
        rasterize_one(det, Pose2D(), twice, CFG)
        assert np.allclose(twice.data, np.clip(2.0 * once.data, -CFG.logodds_clamp, CFG.logodds_clamp))

    def test_matches_pointwise_idm(self):
        g = self._logodds()
        det = Row(r=5.0, phi=0.0)
        rasterize_one(det, Pose2D(), g, CFG)
        hit = cell_of(SPEC, (5.0, 0.0), Pose2D())
        # recompute the IDM at this cell's center by hand
        cx = (hit[1] - 16 + 0.5) * SPEC.cell_size
        cy = (hit[0] - 16 + 0.5) * SPEC.cell_size
        r, phi = math.hypot(cx, cy), math.atan2(cy, cx)
        p = np.clip(idm(r, phi, det, CFG), CFG.prob_clamp, 1 - CFG.prob_clamp)
        assert g.data[0][hit] == pytest.approx(math.log(p / (1 - p)))


class TestScene:
    POSES = {0: Pose2D(), 1: Pose2D(x=1.0, heading=math.pi / 2)}

    def test_empty_scene_is_all_unknown(self):
        out = ray_ism_scene(columns([]), self.POSES, SPEC)
        assert np.allclose(out.data[2], 1.0)
        assert np.allclose(out.data[:2], 0.0)

    def test_dynamic_detections_skipped(self):
        fast = Row(r=5.0, phi=0.0, v_r=2.0)
        out = ray_ism_scene(columns([fast]), self.POSES, SPEC)
        assert np.allclose(out.data[2], 1.0)

    def test_dynamic_is_measured_radial_speed_above_half_a_metre_per_second(self):
        v_r = [0.0, 0.5, -0.5, np.nextafter(0.5, 1.0), -0.6, 3.0]
        dets = columns([Row(r=5.0, phi=0.0, v_r=v) for v in v_r])
        assert dets.dynamic.tolist() == [False, False, False, True, True, True]

    def test_permutation_invariant_without_saturation(self):
        dets = [Row(r=4.0, phi=0.1), Row(r=6.0, phi=-0.2, sensor_id=1), Row(r=5.0, phi=0.0)]
        a = ray_ism_scene(columns(dets), self.POSES, SPEC)
        b = ray_ism_scene(columns(list(reversed(dets))), self.POSES, SPEC)
        assert np.allclose(a.data, b.data, atol=1e-9)

    def test_unknown_sensor_rejected(self):
        with pytest.raises(DomainError):
            ray_ism_scene(columns([Row(r=5.0, phi=0.0, sensor_id=9)]), self.POSES, SPEC)

    def test_one_sided_beliefs(self):
        out = ray_ism_scene(columns([Row(r=5.0, phi=0.0)]), self.POSES, SPEC)
        assert np.all(np.minimum(out.data[0], out.data[1]) == 0.0)
        assert np.allclose(out.data.sum(axis=0), 1.0, atol=1e-7)


def _reference_logodds(detections, sensor_poses, spec, cfg, ego, threshold):
    """The per-detection loop the scene kernel replaced, kept as its oracle.

    Every detection recomputes the polar geometry of the whole grid, masks
    its footprint and clamps its logits into the grid before the next one.
    """
    logodds = np.zeros((spec.side_cells, spec.side_cells))
    for det in detections:
        if abs(det.v_r) > threshold:
            continue
        if det.sensor_id not in sensor_poses:
            raise DomainError(f"no pose for sensor {det.sensor_id}")
        pose = sensor_poses[det.sensor_id]
        wx, wy = cell_centers(spec, ego)
        dx, dy = wx - pose.x, wy - pose.y
        rng = np.hypot(dx, dy)
        phi = wrap_angle(np.arctan2(dy, dx) - pose.heading)
        dphi = wrap_angle(phi - det.phi)
        mask = (rng <= det.r + 4.0 * cfg.noise.sigma_r) & (np.abs(dphi) <= 4.0 * cfg.noise.sigma_phi)
        if not mask.any():
            continue
        p = idm(rng[mask], phi[mask], det, cfg)
        p = np.clip(p, cfg.prob_clamp, 1.0 - cfg.prob_clamp)
        logodds[mask] = np.clip(logodds[mask] + np.log(p / (1.0 - p)),
                                -cfg.logodds_clamp, cfg.logodds_clamp)
    return logodds


def _random_scene(rng, n, bearings=None, max_range=12.0):
    ego = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
    phis = rng.uniform(-math.pi, math.pi, n) if bearings is None else rng.choice(bearings, n)
    dets = [Row(r=float(rng.uniform(0.0, max_range)), phi=float(phi),
                v_r=float(rng.choice([0.0, 0.2, -0.3, 1.5, -2.0])),
                sensor_id=int(rng.integers(0, 4))) for phi in phis]
    return dets, corner_sensor_poses(ego), ego


class TestSceneKernelParity:
    """ray_ism_scene is float64-identical to the per-detection loop."""

    SPEC = GridSpec(side_cells=24, cell_size=0.5)
    THRESHOLD = 0.5

    def _assert_parity(self, dets, poses, ego, cfg, spec=None):
        spec = spec or self.SPEC
        want = _reference_logodds(dets, poses, spec, cfg, ego, self.THRESHOLD)
        static = [det for det in dets if abs(det.v_r) <= self.THRESHOLD]
        got = Grid2D(spec, np.zeros((spec.side_cells, spec.side_cells)), channels=("logodds",), origin=ego)
        accumulate_idms(columns(static), poses, got, cfg)
        assert np.array_equal(got.data[0], want)
        out = ray_ism_scene(columns(dets), poses, spec, cfg, ego=ego)
        assert np.array_equal(out.data, prob_to_evidential_array(1.0 / (1.0 + np.exp(-want))))
        return want

    @pytest.mark.parametrize("seed", range(8))
    def test_random_scenes(self, seed):
        rng = np.random.default_rng(seed)
        dets, poses, ego = _random_scene(rng, int(rng.integers(1, 120)))
        self._assert_parity(dets, poses, ego, RayIsmConfig())

    @pytest.mark.parametrize("seed", range(4))
    def test_bearings_near_pi(self, seed):
        rng = np.random.default_rng(100 + seed)
        # within 4 sigma_phi of +-pi, exactly +-pi, and just outside (-pi, pi]
        bearings = [math.pi, -math.pi, math.pi - 0.01, -math.pi + 0.03, math.pi - 0.079,
                    math.pi + 0.02, -math.pi - 0.05, np.nextafter(-math.pi, 0.0)]
        dets, poses, ego = _random_scene(rng, 60, bearings=bearings)
        self._assert_parity(dets, poses, ego, RayIsmConfig())

    @pytest.mark.parametrize("sigma_phi", [0.5, math.pi / 4.0, 0.8, 2.0])
    def test_window_of_a_full_turn_or_more(self, sigma_phi):
        rng = np.random.default_rng(7)
        dets, poses, ego = _random_scene(rng, 40)
        cfg = RayIsmConfig(noise=RadarNoiseModel(sigma_r=0.25, sigma_phi=sigma_phi))
        self._assert_parity(dets, poses, ego, cfg)

    def test_saturation_then_opposite_sign(self):
        ego = Pose2D()
        poses = corner_sensor_poses(ego)
        far, near = Row(r=8.0, phi=0.0), Row(r=4.0, phi=0.0)
        clamp = RayIsmConfig().logodds_clamp
        # six far detections drive the free cells before them to the lower
        # clamp; the near one then raises its target cells from the clamp.
        # Given first, its rise is lost under the clamp, so the two orders
        # differ by far more than a sum rounded in another order would
        after = self._assert_parity([far] * 6 + [near], poses, ego, RayIsmConfig())
        before = self._assert_parity([near] + [far] * 6, poses, ego, RayIsmConfig())
        assert after.min() == -clamp
        assert np.abs(after - before).max() > 0.5

    def test_dynamic_detections_and_their_unknown_sensors_are_ignored(self):
        rng = np.random.default_rng(3)
        dets, poses, ego = _random_scene(rng, 50)
        dets += [Row(r=5.0, phi=0.2, v_r=3.0, sensor_id=9)]
        self._assert_parity(dets, poses, ego, RayIsmConfig())

    def test_unknown_sensor_on_static_detection_raises(self):
        rng = np.random.default_rng(4)
        dets, poses, ego = _random_scene(rng, 20)
        dets.insert(5, Row(r=5.0, phi=0.2, v_r=0.0, sensor_id=9))
        with pytest.raises(DomainError):
            ray_ism_scene(columns(dets), poses, self.SPEC, ego=ego)
        with pytest.raises(DomainError):
            _reference_logodds(dets, poses, self.SPEC, RayIsmConfig(), ego, self.THRESHOLD)

    def test_empty(self):
        self._assert_parity([], corner_sensor_poses(Pose2D()), Pose2D(), RayIsmConfig())

    def test_dense_64_cell_scene(self):
        rng = np.random.default_rng(11)
        dets, poses, ego = _random_scene(rng, 200, max_range=25.0)
        self._assert_parity(dets, poses, ego, RayIsmConfig(), spec=GridSpec(64, 0.5))
