"""End-to-end acceptance gate.

Eight numbered checks, each printing one PASS/FAIL line. The trend checks
(6 and 8) share one 500-scene dataset and two trained models, so this file
takes several minutes; everything else runs in seconds.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from evgrid.evidential import (
    Evidence,
    dirichlet_expectation,
    evidence_to_dirichlet,
    evidence_to_evidential,
    evidential_to_probability,
)
from evgrid.grid import EvidentialState, GridSpec, dempster_combine, read_grid
from evgrid.net.losses import evidential_bayes_risk, softmax_cross_entropy
from evgrid.net.tensor import Tensor, square
from evgrid.net.unet import UNetSpec, dropout_masks, forward, init_params
from evgrid.net.train import TrainConfig, mc_predict, train
from evgrid.rayism import Detection, RayIsmConfig, angular_kernel, idm, range_model, ray_ism_scene
from evgrid.scores import ScoreAccumulator
from evgrid.sim import (
    SimConfig,
    corner_sensor_poses,
    detections_from_jsonl,
    load_manifest,
    write_dataset,
)
from evgrid.cli import main as cli_main


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number} ({name}): {status}"
    if detail:
        line += f" [{detail}]"
    print(line, file=sys.__stdout__, flush=True)
    from conftest import record_gate_line

    record_gate_line(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. evidential algebra identities
# ---------------------------------------------------------------------------

def test_acceptance_1_evidential_identities():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        e = Evidence(tuple(rng.uniform(0.0, 50.0, size=2)))
        s = evidence_to_evidential(e)
        d = evidence_to_dirichlet(e)
        strength = 2.0 + sum(e.e)
        # belief/unknown definitions
        worst = max(worst, abs(s.b_f - e.e[0] / strength), abs(s.b_o - e.e[1] / strength),
                    abs(s.u - 2.0 / strength), abs(s.b_f + s.b_o + s.u - 1.0))
        # alpha shift and expectation
        worst = max(worst, abs(d.alpha[0] - (e.e[0] + 1.0)), abs(d.alpha[1] - (e.e[1] + 1.0)))
        p_dir = dirichlet_expectation(d)
        p_bel = evidential_to_probability(s)
        # p = b + u a round trip equals the Dirichlet expectation
        worst = max(worst, abs(p_dir.p_f - p_bel.p_f), abs(p_dir.p_o - p_bel.p_o),
                    abs(p_bel.p_f - (s.b_f + 0.5 * s.u)))
    elapsed = time.time() - t0
    _report(1, "evidential algebra", worst < 1e-12 and elapsed < 1.0,
            f"max err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Ray-ISM closed form vs adaptive quadrature
# ---------------------------------------------------------------------------

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _range_model_quadrature(r, r_meas, cfg):
    s = cfg.noise.sigma_r

    def ideal(m):
        if r < m - cfg.delta / 2.0:
            return cfg.eps_free
        if r <= m + cfg.delta / 2.0:
            return cfg.p_max
        return 0.5

    def integrand(m):
        return ideal(m) * math.exp(-0.5 * ((m - r_meas) / s) ** 2) / (s * _SQRT_2PI)

    lo, hi = r_meas - 10.0 * s, r_meas + 10.0 * s
    pts = sorted(b for b in (r - cfg.delta / 2.0, r + cfg.delta / 2.0) if lo < b < hi)
    total = quad(integrand, lo, hi, points=pts or None, limit=200)[0]
    tail = norm.sf(10.0)
    total += ideal(hi + 1.0) * tail + ideal(lo - 1.0) * tail
    return total


def test_acceptance_2_rayism_closed_form():
    cfg = RayIsmConfig()
    rng = np.random.default_rng(7)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        r = float(rng.uniform(0.0, 20.0))
        r_meas = float(rng.uniform(0.5, 15.0))
        oracle = _range_model_quadrature(r, r_meas, cfg)
        worst = max(worst, abs(range_model(r, r_meas, cfg) - oracle))
        det = Detection(r=r_meas, phi=float(rng.uniform(-1.0, 1.0)))
        phi = det.phi + float(rng.uniform(-0.1, 0.1))
        k = angular_kernel(phi, det.phi, cfg.noise.sigma_phi)
        worst = max(worst, abs(idm(r, phi, det, cfg) - (0.5 + (oracle - 0.5) * k)))
    det = Detection(r=5.0, phi=0.0)
    on_beam_exact = idm(5.0, 0.0, det, cfg) == range_model(5.0, 5.0, cfg)
    off_beam_exact = idm(5.0, math.pi, det, cfg) == 0.5
    elapsed = time.time() - t0
    _report(2, "ray-ism closed form",
            worst < 1e-6 and on_beam_exact and off_beam_exact and elapsed < 10.0,
            f"max err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. evidential loss vs Monte-Carlo Bayes risk
# ---------------------------------------------------------------------------

def test_acceptance_3_loss_matches_monte_carlo():
    rng = np.random.default_rng(11)
    n_mc = 1_000_000
    failures = 0
    for _ in range(100):
        e = rng.uniform(0.0, 5.0, size=2)
        t_b = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)][int(rng.integers(0, 3))]
        target = np.array([[t_b[0]], [t_b[1]], [0.0]])[None, :, :, None]
        closed = float(evidential_bayes_risk(
            Tensor(e.reshape(1, 2, 1, 1)), target).data)
        p = rng.dirichlet(e + 1.0, size=n_mc)
        draws = np.square(np.asarray(t_b)[None, :] - p).sum(axis=1)
        mc = draws.mean()
        sigma = draws.std(ddof=1) / math.sqrt(n_mc)
        if abs(closed - mc) > 3.0 * sigma:
            failures += 1
    # unknown-target branch is exactly (1 - u)^2
    e = np.array([3.0, 1.5])
    target_u = np.array([[0.0], [0.0], [1.0]])[None, :, :, None]
    u_hat = 2.0 / (2.0 + e.sum())
    branch = float(evidential_bayes_risk(Tensor(e.reshape(1, 2, 1, 1)), target_u).data)
    exact = branch == (1.0 - u_hat) ** 2
    _report(3, "evidential loss vs MC", failures == 0 and exact,
            f"{failures}/100 outside 3 sigma")


# ---------------------------------------------------------------------------
# 4. finite-difference gradient check of the full network losses
# ---------------------------------------------------------------------------

def _full_loss(params, spec, x, target, model):
    out, leaves = forward(params, spec, x, keep=dropout_masks(params, spec, x.shape, np.random.default_rng(99)))
    loss = (softmax_cross_entropy(out, target) if model == "soft"
            else evidential_bayes_risk(square(out), target))
    return loss, leaves


def test_acceptance_4_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 2, 8, 8))
    target = rng.dirichlet(np.ones(3), size=(1, 8, 8)).transpose(0, 3, 1, 2)
    worst_overall = 0.0
    for model, out_ch in (("ev", 2), ("soft", 3)):
        spec = UNetSpec(out_channels=out_ch, base_channels=4, dropout=0.2)
        params = {k: v.astype(np.float64)
                  for k, v in init_params(spec, np.random.default_rng(1)).items()}
        loss, leaves = _full_loss(params, spec, x, target, model)
        loss.backward()
        h = 1e-5
        for name, arr in params.items():
            flat = arr.reshape(-1)
            grad = leaves[name].grad.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                fp = float(_full_loss(params, spec, x, target, model)[0].data)
                flat[idx] = orig - h
                fm = float(_full_loss(params, spec, x, target, model)[0].data)
                flat[idx] = orig
                fd = (fp - fm) / (2.0 * h)
                denom = max(abs(fd), abs(grad[idx]), 1e-6)
                worst_overall = max(worst_overall, abs(fd - grad[idx]) / denom)
    elapsed = time.time() - t0
    _report(4, "autodiff gradient check", worst_overall < 1e-4 and elapsed < 120.0,
            f"max rel err {worst_overall:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. Dempster combination
# ---------------------------------------------------------------------------

def test_acceptance_5_dempster():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(200):
        masses = []
        for _ in range(2):
            u = rng.uniform(0.0, 1.0)
            bf = rng.uniform(0.0, 1.0 - u)
            masses.append(EvidentialState(bf, 1.0 - u - bf, u))
        m1, m2 = masses
        if m1.b_f * m2.b_o + m1.b_o * m2.b_f >= 1.0 - 1e-9:
            continue
        a, b = dempster_combine(m1, m2), dempster_combine(m2, m1)
        ok &= abs(a.b_f - b.b_f) < 1e-12 and abs(a.u - b.u) < 1e-12
        ident = dempster_combine(m1, EvidentialState(0.0, 0.0, 1.0))
        ok &= (abs(ident.b_f - m1.b_f) < 1e-12 and abs(ident.b_o - m1.b_o) < 1e-12
               and abs(ident.u - m1.u) < 1e-12)
    h1 = dempster_combine(EvidentialState(0.5, 0.0, 0.5), EvidentialState(0.0, 0.5, 0.5))
    h2 = dempster_combine(EvidentialState(0.6, 0.0, 0.4), EvidentialState(0.6, 0.0, 0.4))
    ok &= np.allclose((h1.b_f, h1.b_o, h1.u), (1 / 3, 1 / 3, 1 / 3))
    ok &= np.allclose((h2.b_f, h2.b_o, h2.u), (0.84, 0.0, 0.16))
    _report(5, "dempster combination", ok)


# ---------------------------------------------------------------------------
# 6 + 8. trend reproduction and score partition on a 500-scene dataset
# ---------------------------------------------------------------------------

SPEC_32 = GridSpec(32, 0.5)


@pytest.fixture(scope="module")
def trend_tables(tmp_path_factory):
    root = tmp_path_factory.mktemp("trend-ds")
    # five scans per scene: accumulated targets, frame-0 visibility, so the
    # hidden region carries known targets like a real recording would
    write_dataset(n_scenes=500, spec=SPEC_32, out_dir=root, master_seed=0,
                  cfg=SimConfig(frames=5))
    models = {}
    for model in ("soft", "ev"):
        cfg = TrainConfig(model=model, epochs=10, base_channels=8, batch_size=8, seed=0)
        t0 = time.time()
        params, uspec, _ = train(root, cfg)
        assert time.time() - t0 < 1800.0
        models[model] = (params, uspec, cfg)
    manifest = load_manifest(root)
    accs = {name: ScoreAccumulator() for name in ("rayism", "soft", "ev", "ev-s")}
    for sid in manifest["splits"]["test"]:
        sdir = root / "samples" / sid
        radar = read_grid(sdir / "radar.grid")
        target = read_grid(sdir / "target.grid").data
        mask = read_grid(sdir / "mask.grid").data[0]
        dets = detections_from_jsonl((sdir / "detections.jsonl").read_text())
        ray = ray_ism_scene(dets, corner_sensor_poses(radar.origin), SPEC_32, ego=radar.origin)
        accs["rayism"].add(ray.data, target, mask)
        for mode, model in (("soft", "soft"), ("ev", "ev"), ("ev-s", "ev")):
            params, uspec, cfg = models[model]
            rng = np.random.default_rng([0, int(sid)])
            pred = mc_predict(params, uspec, radar.data.astype(np.float32),
                              cfg.mc_samples, mode, rng, percentile=cfg.percentile)
            accs[mode].add(pred, target, mask)
    return {name: acc.table() for name, acc in accs.items()}


def test_acceptance_6_trends(trend_tables):
    def g(m, r, t, k):
        return trend_tables[m].get(r, t)[k]

    checks = {
        "a_free": g("ev", "visible", "free", "p_f") > g("rayism", "visible", "free", "p_f"),
        "a_occ": g("ev", "visible", "occupied", "p_o") > g("rayism", "visible", "occupied", "p_o"),
    }
    for r in ("visible", "hidden"):
        for t in ("free", "occupied"):
            checks[f"b_{r}_{t}"] = g("soft", r, t, "p_c") > g("ev", r, t, "p_c")
            checks[f"c_{r}_{t}"] = g("ev-s", r, t, "p_u") >= g("ev", r, t, "p_u")
            checks[f"d_{r}_{t}"] = g("rayism", r, t, "p_c") == 0.0
    failed = sorted(k for k, v in checks.items() if not v)
    _report(6, "trend reproduction", not failed,
            "all orderings hold" if not failed else "failed: " + ",".join(failed))


def test_acceptance_8_score_partition(trend_tables):
    worst = 0.0
    for table in trend_tables.values():
        for region in ("visible", "hidden"):
            for tgt in ("free", "occupied"):
                entry = table.get(region, tgt)
                if entry is None:
                    continue
                worst = max(worst, abs(entry["p_f"] + entry["p_o"] + entry["p_u"] - 100.0))
    _report(8, "score partition", worst <= 1.0, f"max deviation {worst:.3f}")


# ---------------------------------------------------------------------------
# 7. end-to-end determinism
# ---------------------------------------------------------------------------

def test_acceptance_7_determinism(tmp_path):
    fast = ["--set", "sim.n_scenes=12", "--set", "sim.side_cells=16",
            "--set", "sim.lidar_rays=180", "--set", "net.base_channels=4",
            "--set", "train.epochs=2", "--set", "train.batch_size=4",
            "--set", "train.mc_samples=5", "--seed", "17"]
    digests = []
    for run in ("r1", "r2"):
        base = tmp_path / run
        assert cli_main(["gen", "--out", str(base / "ds")] + fast) == 0
        assert cli_main(["rayism", "--dataset", str(base / "ds"),
                         "--out", str(base / "ray")] + fast) == 0
        assert cli_main(["train", "--dataset", str(base / "ds"), "--model", "ev",
                         "--out", str(base / "train")] + fast) == 0
        assert cli_main(["infer", "--checkpoint", str(base / "train" / "checkpoint.ckpt"),
                         "--dataset", str(base / "ds"), "--mode", "ev",
                         "--out", str(base / "pred")] + fast) == 0
        assert cli_main(["eval", str(base / "ray"), str(base / "pred"),
                         "--dataset", str(base / "ds"),
                         "--out", str(base / "eval")] + fast) == 0
        blobs = []
        for rel in sorted(p.relative_to(base) for p in base.rglob("*") if p.is_file()):
            blobs.append((str(rel), (base / rel).read_bytes()))
        digests.append(blobs)
    names_equal = [n for n, _ in digests[0]] == [n for n, _ in digests[1]]
    bytes_equal = digests[0] == digests[1]
    _report(7, "pipeline determinism", names_equal and bytes_equal,
            f"{len(digests[0])} files compared")
