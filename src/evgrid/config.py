"""Run configuration: one JSON document with per-module sections.

Unknown keys are rejected; every value has a default, so an empty document
is a valid configuration. ``--set a.b.c=value`` style overrides are applied
on top of the loaded document.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from evgrid.errors import ConfigError
from evgrid.grid import GridSpec
from evgrid.net.train import TrainConfig
from evgrid.rayism import RadarNoiseModel, RayIsmConfig
from evgrid.sim import SceneParams, SimConfig

DEFAULTS = {
    "master_seed": 0,
    "sim": {
        "n_scenes": 100,
        "side_cells": 32,
        "cell_size": 0.5,
        "lidar_rays": 720,
        "max_detections": 64,
        "detection_prob": 0.35,
        "clutter_rate": 2.0,
        "sigma_r": 0.25,
        "sigma_phi": 0.02,
        "vr_sigma": 0.05,
        "dynamic_velocity_threshold": 0.5,
        "sensor_fov": 2.0 * math.pi / 3.0,
        "boundary_spacing": 0.3,
        "frames": 1,
        "ego_step": 2.0,
        "occlude_by_dynamic": False,
        "scene_extent": 16.0,
        "p_dynamic": 0.5,
    },
    "ray_ism": {
        "eps_free": 0.05,
        "p_max": 0.95,
        "delta": 0.5,
        "sigma_r": 0.25,
        "sigma_phi": 0.02,
        "prob_clamp": 0.01,
        "logodds_clamp": 10.0,
    },
    "net": {
        "base_channels": 8,
        "dropout": 0.2,
    },
    "train": {
        "model": "ev",
        "lr": 1e-3,
        "batch_size": 8,
        "epochs": 10,
        "mc_samples": 30,
        "percentile": 10.0,
        "augment": True,
    },
    "eval": {
        "conflict_guard": True,
        "split": "test",
    },
}


def _merge(defaults, overrides, path=""):
    if not isinstance(overrides, dict):
        raise ConfigError(f"section {path or '<root>'} must be an object")
    merged = {}
    for key, default in defaults.items():
        if key in overrides:
            value = overrides[key]
            if isinstance(default, dict):
                merged[key] = _merge(default, value, f"{path}{key}.")
            else:
                merged[key] = _coerce(default, value, f"{path}{key}")
        else:
            merged[key] = json.loads(json.dumps(default)) if isinstance(default, dict) else default
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(path + k for k in unknown))}")
    return merged


def _coerce(default, value, path):
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be a boolean, got {value!r}")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
            raise ConfigError(f"{path} must be an integer, got {value!r}")
        return int(value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path} must be a number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string, got {value!r}")
        return value
    raise ConfigError(f"unsupported config value at {path}")


def load_config(path=None, overrides: list[str] | None = None) -> dict:
    """Load a config document, apply --set overrides, validate, fill defaults."""
    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return _merge(DEFAULTS, doc)


def grid_spec(cfg: dict) -> GridSpec:
    return GridSpec(side_cells=cfg["sim"]["side_cells"], cell_size=cfg["sim"]["cell_size"])


def sim_config(cfg: dict) -> SimConfig:
    s = cfg["sim"]
    return SimConfig(
        lidar_rays=s["lidar_rays"],
        max_detections=s["max_detections"],
        detection_prob=s["detection_prob"],
        clutter_rate=s["clutter_rate"],
        noise=RadarNoiseModel(sigma_r=s["sigma_r"], sigma_phi=s["sigma_phi"]),
        vr_sigma=s["vr_sigma"],
        dynamic_velocity_threshold=s["dynamic_velocity_threshold"],
        sensor_fov=s["sensor_fov"],
        boundary_spacing=s["boundary_spacing"],
        frames=s["frames"],
        ego_step=s["ego_step"],
        occlude_by_dynamic=s["occlude_by_dynamic"],
    )


def scene_params(cfg: dict) -> SceneParams:
    return SceneParams(extent=cfg["sim"]["scene_extent"], p_dynamic=cfg["sim"]["p_dynamic"])


def rayism_config(cfg: dict) -> RayIsmConfig:
    r = cfg["ray_ism"]
    return RayIsmConfig(
        eps_free=r["eps_free"],
        p_max=r["p_max"],
        delta=r["delta"],
        noise=RadarNoiseModel(sigma_r=r["sigma_r"], sigma_phi=r["sigma_phi"]),
        prob_clamp=r["prob_clamp"],
        logodds_clamp=r["logodds_clamp"],
    )


def train_config(cfg: dict, model: str | None = None) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(
        model=model or t["model"],
        lr=t["lr"],
        batch_size=t["batch_size"],
        epochs=t["epochs"],
        dropout=cfg["net"]["dropout"],
        base_channels=cfg["net"]["base_channels"],
        seed=cfg["master_seed"],
        mc_samples=t["mc_samples"],
        percentile=t["percentile"],
        augment=t["augment"],
    )


def echo_config(cfg: dict, out_dir) -> None:
    """Write the effective configuration into an output directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
