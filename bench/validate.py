"""Output checks and digests for each evgrid CLI stage.

The checks parse the files with their own reader, not with evgrid's, so a
reader bug in the program cannot hide a writer bug. Each check returns a
list of problems; an empty list means the stage's outputs are valid.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Stage, Workload

BELIEF_SUM_TOL = 1e-5
REGIONS = ("visible", "hidden")
N_SENSORS = 4
MAX_REPORTED = 5  # problems listed per stage; the rest are counted


class Invalid(Exception):
    pass


def read_container(path: Path) -> tuple[dict, bytes]:
    """Split a .grid or .ckpt file into its JSON header line and f32 payload."""
    head, sep, payload = path.read_bytes().partition(b"\n")
    if not sep:
        raise Invalid(f"{path}: no header line")
    try:
        header = json.loads(head)
    except ValueError as exc:
        raise Invalid(f"{path}: bad header: {exc}") from exc
    if header.get("element_type") != "f32":
        raise Invalid(f"{path}: element type {header.get('element_type')!r}")
    return header, payload


def read_grid(path: Path, channels: int, side: int) -> np.ndarray:
    header, payload = read_container(path)
    if len(header.get("channels", ())) != channels or header.get("side_cells") != side:
        raise Invalid(f"{path}: header {header.get('channels')} x {header.get('side_cells')}, "
                      f"expected {channels} channels x {side}")
    if len(payload) != channels * side * side * 4:
        raise Invalid(f"{path}: payload {len(payload)} bytes, expected {channels * side * side * 4}")
    data = np.frombuffer(payload, dtype="<f4").reshape(channels, side, side)
    if not np.isfinite(data).all():
        raise Invalid(f"{path}: non-finite values")
    return data


def check_belief(path: Path, side: int) -> None:
    data = read_grid(path, 3, side)
    if data.min() < 0.0 or data.max() > 1.0:
        raise Invalid(f"{path}: belief outside [0, 1] ({data.min()}, {data.max()})")
    err = float(np.abs(data.astype(np.float64).sum(axis=0) - 1.0).max())
    if err > BELIEF_SUM_TOL:
        raise Invalid(f"{path}: belief channels sum to 1 +- {err}")


def _check_detections(path: Path) -> None:
    for n, line in enumerate(path.read_text().splitlines(), 1):
        det = json.loads(line)
        values = [det["r"], det["phi"], det["v_r"], det["t"]]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            raise Invalid(f"{path}:{n}: non-finite detection")
        if det["r"] < 0 or det["sensor_id"] not in range(N_SENSORS):
            raise Invalid(f"{path}:{n}: range {det['r']} or sensor {det['sensor_id']} invalid")


def _check_sample(sdir: Path, side: int) -> None:
    radar = read_grid(sdir / "radar.grid", 2, side)
    if radar.min() < 0:
        raise Invalid(f"{sdir}/radar.grid: negative hit count")
    check_belief(sdir / "target.grid", side)
    mask = read_grid(sdir / "mask.grid", 1, side)
    if not np.isin(mask, (0.0, 1.0)).all():
        raise Invalid(f"{sdir}/mask.grid: visibility not 0/1")
    _check_detections(sdir / "detections.jsonl")


def load_manifest(data_dir: Path) -> dict:
    return json.loads((data_dir / "manifest.json").read_text())


def sample_ids(manifest: dict) -> list[str]:
    return sorted(sid for ids in manifest["splits"].values() for sid in ids)


def _per_item(items, check) -> list[str]:
    problems = []
    for item in items:
        try:
            check(item)
        except (Invalid, OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
    return problems


def check_gen(wl: Workload, out: Path) -> list[str]:
    manifest = load_manifest(out)
    ids = sample_ids(manifest)
    expected = [f"{i:05d}" for i in range(wl.n_scenes)]
    if manifest["n_scenes"] != wl.n_scenes or ids != expected:
        return [f"manifest lists {len(ids)} samples for n_scenes={manifest['n_scenes']}, "
                f"expected {wl.n_scenes}"]
    if manifest["grid"]["side_cells"] != wl.side_cells:
        return [f"manifest side_cells {manifest['grid']['side_cells']}, expected {wl.side_cells}"]
    return _per_item(ids, lambda sid: _check_sample(out / "samples" / sid, wl.side_cells))


def check_belief_dir(wl: Workload, out: Path, data: Path) -> list[str]:
    ids = sample_ids(load_manifest(data))
    return _per_item(ids, lambda sid: check_belief(out / f"{sid}.grid", wl.side_cells))


def _check_checkpoint(path: Path) -> None:
    header, payload = read_container(path)
    count = sum(math.prod(p["shape"]) for p in header["params"])
    if len(payload) != 4 * count:
        raise Invalid(f"{path}: payload {len(payload)} bytes, expected {4 * count}")
    if not np.isfinite(np.frombuffer(payload, dtype="<f4")).all():
        raise Invalid(f"{path}: non-finite parameters")


def check_train(wl: Workload, out: Path, data: Path) -> list[str]:
    problems = _per_item([out / "checkpoint.ckpt"], _check_checkpoint)
    splits = load_manifest(data)["splits"]
    per_epoch = ["train"] + (["val"] if splits["val"] else [])
    with open(out / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    got = [(r["epoch"], r["split"]) for r in rows]
    want = [(str(e), s) for e in range(wl.epochs) for s in per_epoch]
    if got != want:
        problems.append(f"metrics.csv rows {got}, expected {want}")
    bad = [r["loss"] for r in rows if not math.isfinite(float(r["loss"]))]
    if bad:
        problems.append(f"metrics.csv has non-finite losses {bad}")
    return problems


def check_eval(stage: Stage, out: Path) -> list[str]:
    models = [Path(p).name for p in stage.argv[1:stage.argv.index("--dataset")]]
    with open(out / "scores.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    got = [(r["model"], r["region"]) for r in rows]
    want = [(m, region) for region in REGIONS for m in models]
    problems = [] if got == want else [f"scores.csv rows {got}, expected {want}"]
    for row in rows:
        for key, value in row.items():
            if key in ("model", "region") or value == "":
                continue
            v = float(value)
            hi = math.inf if key.startswith("n_") else 100.0
            if not (0.0 <= v <= hi):
                problems.append(f"scores.csv {row['model']}/{row['region']} {key}={value}")
    if not (out / "scores.txt").read_text().strip():
        problems.append("scores.txt is empty")
    return problems


def check_stage(wl: Workload, stage: Stage, work: Path) -> list[str]:
    """Validate one stage's outputs; never raises for bad or missing files."""
    out = work / stage.out
    data = work / stage.argv[stage.argv.index("--dataset") + 1] if "--dataset" in stage.argv else out
    try:
        if stage.kind == "gen":
            problems = check_gen(wl, out)
        elif stage.kind in ("rayism", "infer"):
            problems = check_belief_dir(wl, out, data)
        elif stage.kind == "train":
            problems = check_train(wl, out, data)
        else:
            problems = check_eval(stage, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    if len(problems) > MAX_REPORTED:
        problems = problems[:MAX_REPORTED] + [f"... and {len(problems) - MAX_REPORTED} more"]
    return problems


def digest(path: Path) -> str:
    """sha256 over the relative names and bytes of every file below ``path``."""
    h = hashlib.sha256()
    if not path.is_dir():
        return "missing"
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        blob = f.read_bytes()
        h.update(f"{f.relative_to(path).as_posix()}\0{len(blob)}\0".encode())
        h.update(blob)
    return h.hexdigest()
