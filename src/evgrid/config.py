"""Run configuration: one JSON document with per-module sections.

Unknown keys are rejected; every value has a default, so an empty document
is a valid configuration. ``--set a.b.c=value`` style overrides are applied
on top of the loaded document. The defaults are the field defaults of the
dataclasses the sections build, and loading builds every section, so a bad
value fails here, before any command writes output.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path

from evgrid.errors import ConfigError, DomainError, is_number, write_atomic
from evgrid.grid import GridSpec
from evgrid.net.train import TrainConfig
from evgrid.rayism import RayIsmConfig
from evgrid.scores import CONFLICT_GUARD
from evgrid.sim import SimConfig, flat_fields

_TRAIN = TrainConfig()
_NET_KEYS = ("base_channels", "dropout")  # TrainConfig fields set in the "net" section

DEFAULTS = {
    "master_seed": _TRAIN.seed,
    "sim": {
        "n_scenes": 100,
        **flat_fields(GridSpec()),
        **flat_fields(SimConfig()),
    },
    "ray_ism": flat_fields(RayIsmConfig()),
    "net": {key: getattr(_TRAIN, key) for key in _NET_KEYS},
    "train": {f.name: getattr(_TRAIN, f.name) for f in fields(TrainConfig)
              if f.name not in (*_NET_KEYS, "seed")},
    "eval": {"conflict_guard": CONFLICT_GUARD, "split": "test"},
}


def _merge(defaults, overrides, path=""):
    if not isinstance(overrides, dict):
        raise ConfigError(f"section {path or '<root>'} must be an object")
    merged = {}
    for key, default in defaults.items():
        if isinstance(default, dict):
            merged[key] = _merge(default, overrides.get(key, {}), f"{path}{key}.")
        elif key in overrides:
            merged[key] = _coerce(default, overrides[key], f"{path}{key}")
        else:
            merged[key] = default
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(path + k for k in unknown))}")
    return merged


def _coerce(default, value, path):
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be a boolean, got {value!r}")
        return value
    if isinstance(default, int):
        if not is_number(value) or value != int(value):
            raise ConfigError(f"{path} must be an integer, got {value!r}")
        return int(value)
    if isinstance(default, float):
        if not is_number(value):
            raise ConfigError(f"{path} must be a finite number, got {value!r}")
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
        except ValueError as exc:  # covers JSON and UTF-8 errors
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"config file {path} is JSON nested too deeply") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except RecursionError as exc:
            raise ConfigError(f"--set {key} holds JSON nested too deeply") from exc
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    cfg = _merge(DEFAULTS, doc)
    if cfg["sim"]["n_scenes"] < 1:
        raise ConfigError(f"sim.n_scenes must be >= 1, got {cfg['sim']['n_scenes']}")
    for build in (grid_spec, sim_config, rayism_config, train_config):
        try:
            build(cfg)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
    return cfg


def _build(cls, values: dict):
    """A config dataclass from a flat section; a nested dataclass field (the
    radar noise model) is built from the same section."""
    kwargs = {}
    for f in fields(cls):
        nested = is_dataclass(f.default_factory)
        kwargs[f.name] = _build(f.default_factory, values) if nested else values[f.name]
    return cls(**kwargs)


def grid_spec(cfg: dict) -> GridSpec:
    return _build(GridSpec, cfg["sim"])


def sim_config(cfg: dict) -> SimConfig:
    return _build(SimConfig, cfg["sim"])


def rayism_config(cfg: dict) -> RayIsmConfig:
    return _build(RayIsmConfig, cfg["ray_ism"])


def train_config(cfg: dict) -> TrainConfig:
    return _build(TrainConfig, {**cfg["net"], **cfg["train"], "seed": cfg["master_seed"]})


def echo_config(cfg: dict, out_dir) -> None:
    """Write the effective configuration into an existing output directory."""
    write_atomic(Path(out_dir) / "config.json", json.dumps(cfg, sort_keys=True, indent=2) + "\n",
                 "config echo")
