import json

import pytest

from evgrid import config as cfgmod
from evgrid.config import DEFAULTS, load_config
from evgrid.errors import ConfigError
from evgrid.grid import GridSpec
from evgrid.net.train import TrainConfig
from evgrid.rayism import RayIsmConfig
from evgrid.sim import SimConfig

BUILDERS = (cfgmod.grid_spec, cfgmod.sim_config, cfgmod.rayism_config, cfgmod.train_config)


def _built(cfg):
    return tuple(build(cfg) for build in BUILDERS)


def test_defaults_are_the_dataclass_defaults():
    assert _built(load_config()) == (GridSpec(), SimConfig(), RayIsmConfig(), TrainConfig())


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 0.9
    return {"ev": "soft"}[value]


# every key but these reaches a dataclass field; n_scenes and eval are read by the commands
_COMMAND_KEYS = {"sim.n_scenes", "eval.conflict_guard", "eval.split"}


@pytest.mark.parametrize("key", ["master_seed"] + [
    f"{section}.{name}" for section, values in DEFAULTS.items() if isinstance(values, dict)
    for name in values if f"{section}.{name}" not in _COMMAND_KEYS
])
def test_every_key_reaches_a_dataclass(key):
    node = DEFAULTS
    for part in key.split("."):
        node = node[part]
    override = f"{key}={json.dumps(_changed(node))}"
    assert _built(load_config(overrides=[override])) != _built(load_config())


def test_integer_too_large_for_a_float_is_a_config_error():
    with pytest.raises(ConfigError, match="sim.n_scenes must be an integer"):
        load_config(overrides=["sim.n_scenes=1" + "0" * 400])
