"""Detection-based reference inverse sensor model (Ray-ISM).

One radar detection induces an inverse detection model (IDM): a closed-form
occupancy probability field obtained by integrating an ideal radial sensor
model against Gaussian range noise, modulated by a unit-peak Gaussian
angular kernel. IDMs are accumulated per cell in log-odds and finally
converted to belief masses for scoring. The standard normal CDF of the
closed form is ``_ndtr``, a numpy port of the Cephes ``ndtr``, so the
module needs numpy alone.

A scene's detections travel as ``Detections``, one array per field, from
the simulator through the file reader to the kernel, which accumulates the
static ones: those whose measured |v_r| is at most 0.5 m/s
(``Detections.dynamic``), the rule the radar image's channels follow too.
The range and bearing of every cell are computed once per sensor, and the
cells sorted by bearing. The sorted bearings are repeated at -2 pi, 0 and
+2 pi, a ring on which each detection's candidates, the cells within
phi_meas +- 4 sigma_phi, are one slice found by binary search, even where
the window crosses +-pi. The footprint test and the IDM run on all
candidate (detection, cell) pairs at once. The logits are then added in
detection order and clamped after each detection, touching only that
detection's cells, so cells that saturate end up exactly as in a
one-detection-at-a-time loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from evgrid.errors import DomainError
from evgrid.grid import Grid2D, GridSpec, Pose2D, cell_centers, polar, prob_to_evidential_array, wrap_angle

# widens each bearing window past 4 sigma_phi, so a cell whose wrapped offset
# rounds onto the footprint edge is still a candidate; the footprint test
# itself is exact
_BEARING_SLACK = 1e-9

DYNAMIC_VELOCITY_THRESHOLD = 0.5  # measured |v_r|, m/s, above which a detection is dynamic

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
    """One radar return's range and bearing in the sensor frame: the scalar form
    ``idm`` takes. A scene's returns travel as ``Detections``."""

    r: float
    phi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and math.isfinite(self.phi)):
            raise DomainError("detection fields must be finite")
        if self.r < 0.0:
            raise DomainError(f"range must be >= 0, got {self.r}")


@dataclass(frozen=True, eq=False)
class Detections:
    """A scene's radar returns as columns: entry i of each 1-D array is one
    return, in the frame of sensor ``sensor_id[i]``."""

    r: np.ndarray
    phi: np.ndarray
    v_r: np.ndarray
    sensor_id: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            value = np.asarray(getattr(self, f.name))
            if f.name != "sensor_id":
                value = value.astype(np.float64, copy=False)
            elif value.dtype.kind in "iu" or value.size == 0:
                value = value.astype(np.int64, copy=False)
            else:
                raise DomainError(f"sensor ids must be integers, got {value.dtype}")
            object.__setattr__(self, f.name, value)
        shapes = {getattr(self, f.name).shape for f in fields(self)}
        if len(shapes) != 1 or len(shapes.pop()) != 1:
            raise DomainError("detection fields must be 1-D arrays of one length")
        if not all(np.isfinite(getattr(self, name)).all() for name in ("r", "phi", "v_r", "t")):
            raise DomainError("detection fields must be finite")
        negative = np.flatnonzero(self.r < 0.0)
        if len(negative):
            raise DomainError(f"range must be >= 0, got {self.r[negative[0]]}")

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, index) -> "Detections":
        """The detections at an index array, in its order."""
        return Detections(*(getattr(self, f.name)[index] for f in fields(self)))

    @property
    def dynamic(self) -> np.ndarray:
        """The static/dynamic rule of the radar image and of Ray-ISM alike."""
        return np.abs(self.v_r) > DYNAMIC_VELOCITY_THRESHOLD


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
        if not (self.logodds_clamp > 0.0):
            raise DomainError(f"logodds_clamp must be > 0, got {self.logodds_clamp}")


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
    """Range, bearing and bearing sort order of every cell, one row per sensor.

    The sort need not be stable: a binary search never splits a run of equal
    bearings, so a detection's candidate cells are the same set in any order.
    """
    wx, wy = cell_centers(grid.spec, grid.origin)
    rng, phi = np.stack([polar(pose, wx.ravel(), wy.ravel()) for pose in poses], axis=1)
    return rng, phi, np.argsort(phi, axis=1)


def accumulate_idms(dets: Detections, sensor_poses: dict[int, Pose2D], grid: Grid2D,
                    cfg: RayIsmConfig) -> None:
    """Accumulate the IDMs of a scene's detections into a log-odds grid, in place.

    Only cells inside a detection's beam footprint (range <= r_meas + 4 sigma_r,
    |angular offset| <= 4 sigma_phi) are touched; outside it the IDM is
    indistinguishable from 0.5 and contributes zero logit. The candidates
    for that test are the cells whose bearing from the detection's sensor
    lies in phi_meas +- 4 sigma_phi: one slice, found by binary search, of
    the sensor's cells sorted by bearing and repeated at -2 pi, 0 and +2 pi;
    a slice position modulo the cell count is a sorted cell. The IDMs of all
    (detection, cell) pairs that pass are evaluated as one block; the logits
    are then added detection by detection, clamping after each, so
    saturated cells depend on the order of ``dets``.
    """
    unknown = np.flatnonzero(~np.isin(dets.sensor_id, list(sensor_poses)))
    if len(unknown):
        raise DomainError(f"no pose for sensor {dets.sensor_id[unknown[0]]}")
    if not len(dets):
        return
    sensors, row = np.unique(dets.sensor_id, return_inverse=True)
    rng, phi, order = _polar_cells(grid, [sensor_poses[sid] for sid in sensors.tolist()])
    r4, phi4 = 4.0 * cfg.noise.sigma_r, 4.0 * cfg.noise.sigma_phi

    # half stops at pi, one full turn: a wider slice would only list a cell twice,
    # which is harmless (both copies are set to the same old + logit) but is work
    centre, half = wrap_angle(dets.phi), min(phi4 + _BEARING_SLACK, math.pi)
    start, end = np.empty(len(dets), np.int64), np.empty(len(dets), np.int64)
    for k in range(len(sensors)):
        ring = np.concatenate([phi[k, order[k]] + turn for turn in (-2.0 * math.pi, 0.0, 2.0 * math.pi)])
        sel = row == k
        start[sel] = np.searchsorted(ring, centre[sel] - half, "left")
        end[sel] = np.searchsorted(ring, centre[sel] + half, "right")
    # expand the slices into (detection, cell) pairs, grouped by detection
    lengths = end - start
    pair_det = np.repeat(np.arange(len(dets)), lengths)
    pos = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths - start, lengths)
    pair_row = row[pair_det]
    cell = order[pair_row, pos % phi.shape[1]]
    pair_rng, pair_phi = rng[pair_row, cell], phi[pair_row, cell]
    pair_r, pair_phi_meas = dets.r[pair_det], dets.phi[pair_det]

    keep = (pair_rng <= pair_r + r4) & (np.abs(wrap_angle(pair_phi - pair_phi_meas)) <= phi4)
    idx = np.flatnonzero(keep)  # six integer gathers cost less than six boolean-mask ones
    p = _idm(pair_rng[idx], pair_phi[idx], pair_r[idx], pair_phi_meas[idx], cfg)
    p = np.clip(p, cfg.prob_clamp, 1.0 - cfg.prob_clamp)
    logit = np.log(p / (1.0 - p))
    cell, bounds = cell[idx], np.searchsorted(pair_det[idx], np.arange(len(dets) + 1))

    logodds = grid.data[0].ravel()  # a copy when the grid is not contiguous
    clamp = cfg.logodds_clamp
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        c = cell[a:b]
        v = logodds[c] + logit[a:b]
        logodds[c] = np.minimum(np.maximum(v, -clamp, out=v), clamp, out=v)
    grid.data[0] = logodds.reshape(grid.data.shape[1:])


def ray_ism_scene(
    detections: Detections,
    sensor_poses: dict[int, Pose2D],
    spec: GridSpec,
    cfg: RayIsmConfig = RayIsmConfig(),
    ego: Pose2D = Pose2D(),
) -> Grid2D:
    """Accumulate all static detections of one scene into an evidential grid.

    Dynamic detections (``Detections.dynamic``) are skipped; the remaining
    IDMs are summed in log-odds and the per-cell probability is mapped
    linearly onto (b_f, b_o, u).
    """
    logodds = Grid2D(spec, np.zeros((spec.side_cells, spec.side_cells)), channels=("logodds",), origin=ego)
    static = detections[np.flatnonzero(~detections.dynamic)]
    accumulate_idms(static, sensor_poses, logodds, cfg)
    p_o = 1.0 / (1.0 + np.exp(-logodds.data[0]))
    return Grid2D(spec, prob_to_evidential_array(p_o), channels=("b_f", "b_o", "u"), origin=ego)
