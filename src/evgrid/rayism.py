"""Detection-based reference inverse sensor model (Ray-ISM).

One radar detection induces an inverse detection model (IDM): a closed-form
occupancy probability field obtained by integrating an ideal radial sensor
model against Gaussian range noise, modulated by a unit-peak Gaussian
angular kernel. IDMs are accumulated per cell in log-odds and finally
converted to belief masses for scoring. The standard normal CDF of the
closed form is ``_ndtr``, a numpy port of the Cephes ``ndtr``, so the
module needs numpy alone.

A scene's static detections are accumulated by one kernel. The range and
bearing of every cell are computed once per sensor, and the cells sorted by
bearing, so a binary search finds each detection's candidates: the cells
within phi_meas +- 4 sigma_phi, a window that wraps at +-pi and is capped at
one full turn. The footprint test and the IDM run on all candidate
(detection, cell) pairs at once. The logits are then added in detection
order and clamped after each detection, touching only that detection's
cells, so cells that saturate end up exactly as in a one-detection-at-a-time
loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from evgrid.errors import DomainError
from evgrid.grid import Grid2D, GridSpec, Pose2D, cell_centers, prob_to_evidential_array, wrap_angle

# widens each bearing window past 4 sigma_phi, so a cell whose wrapped offset
# rounds onto the footprint edge is still a candidate; the footprint test
# itself is exact
_BEARING_SLACK = 1e-9

DYNAMIC_VELOCITY_THRESHOLD = 0.5  # |v_r| above which a detection is dynamic; SimConfig's default too

# Cephes ndtr.c coefficients: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, exp(-x^2) R(x) / S(x) beyond;
# U, Q and S have an implicit leading 1
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # erfc is 0 once x^2 exceeds this
_SQRT1_2 = math.sqrt(0.5)


@dataclass(frozen=True)
class Detection:
    """One radar return in the sensor frame."""

    r: float
    phi: float
    v_r: float = 0.0
    sensor_id: int = 0
    t: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.r, self.phi, self.v_r)):
            raise DomainError("detection fields must be finite")
        if self.r < 0.0:
            raise DomainError(f"range must be >= 0, got {self.r}")


@dataclass(frozen=True)
class RadarNoiseModel:
    sigma_r: float = 0.25
    sigma_phi: float = 0.02

    def __post_init__(self) -> None:
        if self.sigma_r <= 0.0 or self.sigma_phi <= 0.0:
            raise DomainError("noise sigmas must be strictly positive")


@dataclass(frozen=True)
class RayIsmConfig:
    """Plateaus of the ideal radial model plus the sensor noise.

    eps_free is the free-space plateau before the target, p_max the occupied
    plateau within the target band of thickness delta; behind the target the
    ideal model is 0.5 (unknown, no occlusion reasoning).
    """

    eps_free: float = 0.05
    p_max: float = 0.95
    delta: float = 0.5
    noise: RadarNoiseModel = field(default_factory=RadarNoiseModel)
    prob_clamp: float = 0.01
    logodds_clamp: float = 10.0

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_free < 0.5 < self.p_max < 1.0):
            raise DomainError("need 0 < eps_free < 0.5 < p_max < 1")
        if self.delta <= 0.0:
            raise DomainError("occupied band thickness must be > 0")
        if not (0.0 < self.prob_clamp < 0.5):
            raise DomainError("prob_clamp must be in (0, 0.5)")


def _polevl(x: np.ndarray, coef: tuple[float, ...], monic: bool = False) -> np.ndarray:
    """Horner evaluation; ``monic`` prepends an implicit leading coefficient of 1."""
    y = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        y = y * x + c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)


def _erfc(x: np.ndarray) -> np.ndarray:
    """Cephes erfc for x >= 1 (inf included)."""
    y = np.zeros_like(x)
    with np.errstate(over="ignore"):  # x * x is inf for huge x, which lands in neither branch
        far = (x >= 8.0) & (x * x <= _MAXLOG)
    for i, p, q in ((np.flatnonzero(x < 8.0), _ERFC_P, _ERFC_Q), (np.flatnonzero(far), _ERFC_R, _ERFC_S)):
        xs = x[i]
        y[i] = np.exp(-xs * xs) * _polevl(xs, p) / _polevl(xs, q, monic=True)
    return y


def _ndtr(a) -> np.ndarray:
    """Standard normal CDF, a numpy port of the Cephes ndtr.

    With x = a / sqrt(2): 0.5 + 0.5 erf(x) for |x| < 1/sqrt(2), otherwise
    0.5 erfc(|x|) reflected for x > 0, where erfc(|x|) = 1 - erf(|x|) below 1.
    Each branch runs only on its own elements (integer indices, which gather
    and scatter faster than boolean masks); NaN stays NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    x = a.reshape(-1) * _SQRT1_2
    z = np.abs(x)
    y = np.full(x.shape, np.nan)
    centre, mid, tail = (np.flatnonzero(m) for m in (z < _SQRT1_2, (z >= _SQRT1_2) & (z < 1.0), z >= 1.0))
    y[centre] = 0.5 + 0.5 * _erf(x[centre])
    y[mid] = 0.5 * (1.0 - _erf(z[mid]))
    y[tail] = 0.5 * _erfc(z[tail])
    upper = np.flatnonzero((z >= _SQRT1_2) & (x > 0.0))
    y[upper] = 1.0 - y[upper]
    return y.reshape(a.shape)


def range_model(r, r_meas: float, cfg: RayIsmConfig):
    """Occupancy probability along the beam axis given a range measurement.

    Closed form of the ideal piecewise model integrated against Gaussian
    range noise N(r_meas, sigma_r); vectorized over r. The normal CDF is
    ``_ndtr``, a numpy port of the Cephes ``ndtr``.
    """
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0):
        raise DomainError("evaluation range must be >= 0")
    s = cfg.noise.sigma_r
    hi = _ndtr((r + cfg.delta / 2.0 - r_meas) / s)
    lo = _ndtr((r - cfg.delta / 2.0 - r_meas) / s)
    p = cfg.eps_free * (1.0 - hi) + cfg.p_max * (hi - lo) + 0.5 * lo
    return float(p) if p.ndim == 0 else p


def angular_kernel(phi, phi_meas: float, sigma_phi: float):
    """Unit-peak Gaussian weight of the angular offset, wrapped to (-pi, pi]."""
    dphi = wrap_angle(np.asarray(phi, dtype=np.float64) - phi_meas)
    g = np.exp(-np.square(dphi) / (2.0 * sigma_phi**2))
    return float(g) if np.ndim(g) == 0 else g


def idm(r, phi, det: Detection, cfg: RayIsmConfig):
    """Inverse detection model: 0.5 + (range_model - 0.5) * angular kernel."""
    return _idm(r, phi, det.r, det.phi, cfg)


def _idm(r, phi, r_meas, phi_meas, cfg: RayIsmConfig):
    return 0.5 + (range_model(r, r_meas, cfg) - 0.5) * angular_kernel(phi, phi_meas, cfg.noise.sigma_phi)


def _polar_cells(grid: Grid2D, poses: list[Pose2D]):
    """Range, bearing and bearing sort order of every cell, one row per sensor."""
    wx, wy = cell_centers(grid.spec, grid.origin)
    rng, phi = [], []
    for pose in poses:
        dx, dy = wx - pose.x, wy - pose.y
        rng.append(np.hypot(dx, dy).ravel())
        phi.append(wrap_angle(np.arctan2(dy, dx) - pose.heading).ravel())
    phi = np.stack(phi)
    return np.stack(rng), phi, np.argsort(phi, axis=1, kind="stable")


def _bearing_slices(sorted_phi: np.ndarray, phi_meas: np.ndarray, half: float):
    """Slices of a bearing-sorted cell list within phi_meas +- half, wrapped at +-pi.

    Returns (starts, ends), each (D, 3): the window clipped to [-pi, pi],
    then the parts wrapping past -pi and past +pi. The three never overlap.
    """
    n = len(sorted_phi)
    if half >= math.pi:  # a window of a full turn or more holds every cell once
        return np.zeros((len(phi_meas), 3), np.int64), np.tile([n, 0, 0], (len(phi_meas), 1))
    centre = wrap_angle(phi_meas)
    lo, hi = centre - half, centre + half
    a = np.searchsorted(sorted_phi, np.maximum(lo, -math.pi), "left")
    b = np.searchsorted(sorted_phi, np.minimum(hi, math.pi), "right")
    wrap_lo = np.where(lo < -math.pi, np.searchsorted(sorted_phi, lo + 2.0 * math.pi, "left"), n)
    wrap_hi = np.where(hi > math.pi, np.searchsorted(sorted_phi, hi - 2.0 * math.pi, "right"), 0)
    starts = np.stack([a, np.maximum(wrap_lo, b), np.zeros_like(a)], axis=1)
    ends = np.stack([b, np.full_like(a, n), np.minimum(wrap_hi, a)], axis=1)
    return starts, ends


def accumulate_idms(dets: list[Detection], sensor_poses: dict[int, Pose2D], grid: Grid2D,
                    cfg: RayIsmConfig) -> None:
    """Accumulate the IDMs of a list of detections into a log-odds grid, in place.

    Only cells inside a detection's beam footprint (range <= r_meas + 4 sigma_r,
    |angular offset| <= 4 sigma_phi) are touched; outside it the IDM is
    indistinguishable from 0.5 and contributes zero logit. The candidates
    for that test are the cells whose bearing from the detection's sensor
    lies in phi_meas +- 4 sigma_phi, found by binary search in the sensor's
    cells sorted by bearing. The IDMs of all (detection, cell) pairs that
    pass are evaluated as one block; the logits are then added detection by
    detection, clamping after each, so saturated cells depend on the order
    of ``dets``.
    """
    for det in dets:
        if det.sensor_id not in sensor_poses:
            raise DomainError(f"no pose for sensor {det.sensor_id}")
    if not dets:
        return
    sensors = sorted({det.sensor_id for det in dets})
    rng, phi, order = _polar_cells(grid, [sensor_poses[sid] for sid in sensors])
    row = np.searchsorted(sensors, [det.sensor_id for det in dets])
    r_meas = np.array([det.r for det in dets])
    phi_meas = np.array([det.phi for det in dets])
    r4, phi4 = 4.0 * cfg.noise.sigma_r, 4.0 * cfg.noise.sigma_phi

    starts = np.empty((len(dets), 3), np.int64)
    ends = np.empty((len(dets), 3), np.int64)
    for k in range(len(sensors)):
        sel = row == k
        starts[sel], ends[sel] = _bearing_slices(phi[k, order[k]], phi_meas[sel], phi4 + _BEARING_SLACK)
    # expand the slices into (detection, cell) pairs, grouped by detection
    lengths = np.maximum(ends - starts, 0).ravel()
    pair_det = np.repeat(np.arange(len(dets)), lengths.reshape(-1, 3).sum(axis=1))
    pos = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths - starts.ravel(), lengths)
    pair_row = row[pair_det]
    cell = order[pair_row, pos]
    pair_rng, pair_phi = rng[pair_row, cell], phi[pair_row, cell]
    pair_r, pair_phi_meas = r_meas[pair_det], phi_meas[pair_det]

    keep = (pair_rng <= pair_r + r4) & (np.abs(wrap_angle(pair_phi - pair_phi_meas)) <= phi4)
    p = _idm(pair_rng[keep], pair_phi[keep], pair_r[keep], pair_phi_meas[keep], cfg)
    p = np.clip(p, cfg.prob_clamp, 1.0 - cfg.prob_clamp)
    logit = np.log(p / (1.0 - p))
    cell, bounds = cell[keep], np.searchsorted(pair_det[keep], np.arange(len(dets) + 1))

    logodds = grid.data[0].ravel()  # a copy when the grid is not contiguous
    clamp = cfg.logodds_clamp
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        c = cell[a:b]
        v = logodds[c] + logit[a:b]
        logodds[c] = np.minimum(np.maximum(v, -clamp, out=v), clamp, out=v)
    grid.data[0] = logodds.reshape(grid.data.shape[1:])


def ray_ism_scene(
    detections: list[Detection],
    sensor_poses: dict[int, Pose2D],
    spec: GridSpec,
    cfg: RayIsmConfig = RayIsmConfig(),
    ego: Pose2D = Pose2D(),
    dynamic_velocity_threshold: float = DYNAMIC_VELOCITY_THRESHOLD,
) -> Grid2D:
    """Accumulate all static detections of one scene into an evidential grid.

    Detections whose |radial velocity| exceeds the threshold are treated as
    dynamic and skipped; the remaining IDMs are summed in log-odds and the
    per-cell probability is mapped linearly onto (b_f, b_o, u).
    """
    logodds = Grid2D.zeros(spec, channels=("logodds",), origin=ego)
    static = [det for det in detections if abs(det.v_r) <= dynamic_velocity_threshold]
    accumulate_idms(static, sensor_poses, logodds, cfg)
    p_o = 1.0 / (1.0 + np.exp(-logodds.data[0]))
    return Grid2D(spec, prob_to_evidential_array(p_o), channels=("b_f", "b_o", "u"), origin=ego)
