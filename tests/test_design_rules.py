"""The one-place design rules of the package, read from its syntax trees.

Each rule pins one target of ROADMAP's design-quality aim: a formula, a file
format or a default that exists in exactly one place. The rules read
``src/evgrid`` through ``ast``, so a comment or a docstring can neither trip
nor hide one. A change that has to move a rule changes the test with it.
"""

import ast
from pathlib import Path

import pytest

import evgrid
from evgrid.config import DEFAULTS
from evgrid.grid import BELIEF_CHANNELS
from evgrid.rayism import DYNAMIC_VELOCITY_THRESHOLD

PACKAGE = Path(evgrid.__file__).parent


def _docstrings(tree):
    """The string constants that are docstrings: the first statement of a body."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _placed(tree, module):
    """Every syntax node of a module but its docstrings, with the place that holds it.

    The place is ``module.qualname`` of the innermost class or function around
    the node (``sim.ray_hits``, ``rayism.Detections.dynamic``), or the module's
    name at module level.
    """
    skip, out = _docstrings(tree), []

    def visit(node, place):
        if id(node) in skip:
            return
        out.append((place, node))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            place = f"{place}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, place)

    visit(tree, module)
    return out


def _nodes():
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        out += _placed(ast.parse(path.read_text(), filename=str(path)), module)
    return out


NODES = _nodes()


def _places(match):
    """The sorted places of every node for which ``match(node)`` holds, one per node."""
    return sorted(place for place, node in NODES if match(node))


def _is_name(node, name):
    """``name`` as a variable, an attribute, an argument or an imported name."""
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.arg) and node.arg == name)
            or (isinstance(node, ast.alias) and (node.asname or node.name) == name))


def _is_call(node, module, name):
    """A call of ``module.name``, such as ``np.add.at`` given ("np.add", "at")."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name and ast.unparse(node.func.value) == module)


def test_ray_segment_intersection_is_ray_hits():
    """Ray/segment intersection: its determinant ``denom`` lives only in ``sim.ray_hits``."""
    places = _places(lambda node: _is_name(node, "denom"))
    assert places and set(places) == {"sim.ray_hits"}


def test_f32_container_is_pack_f32_and_f32_values():
    """The little-endian f32 container: only ``grid.pack_f32`` and ``grid.f32_values`` name ``<f4``."""
    places = _places(lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str)
                     and "<f4" in node.value)
    assert places == ["grid.f32_values", "grid.pack_f32"]


_MAGNITUDES = {"abs", "np.abs", "np.absolute", "np.hypot", "np.linalg.norm"}


def _splits_by_speed(node):
    """A comparison that reads a v_r, or that holds a magnitude and the threshold's value."""
    if not isinstance(node, ast.Compare):
        return False
    if any(_is_name(sub, "v_r") for sub in ast.walk(node)):
        return True
    operands = [node.left, *node.comparators]
    return (any(isinstance(op, ast.Constant) and op.value == DYNAMIC_VELOCITY_THRESHOLD for op in operands)
            and any(isinstance(op, ast.Call) and ast.unparse(op.func) in _MAGNITUDES for op in operands))


def test_static_dynamic_split_is_detections_dynamic():
    """The static/dynamic split: the threshold is set once, and ``Detections.dynamic``
    holds its one read and the one comparison of a speed against it."""
    threshold = "DYNAMIC_VELOCITY_THRESHOLD"
    assert _places(lambda node: isinstance(node, ast.Name) and node.id == threshold
                   and isinstance(node.ctx, ast.Store)) == ["rayism"]
    assert _places(lambda node: _is_name(node, threshold)
                   and not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))) \
        == ["rayism.Detections.dynamic"]
    assert _places(_splits_by_speed) == ["rayism.Detections.dynamic"]


def test_radar_image_is_one_binning():
    """The static/dynamic split: the radar image is one ``np.add.at``, in ``simulate_radar``."""
    assert _places(lambda node: _is_call(node, "np.add", "at")) == ["sim.simulate_radar"]


def test_config_has_33_keys_and_no_boolean():
    """Config defaults: no key that only switches a branch. ``test_config`` checks
    that every key reaches a dataclass field."""
    leaves = [value for section in DEFAULTS.values()
              for value in (section.values() if isinstance(section, dict) else [section])]
    assert len(leaves) == 33
    assert not [value for value in leaves if isinstance(value, bool)]
    annotated_bool = _places(lambda node: isinstance(node, ast.AnnAssign)
                             and ast.unparse(node.annotation) == "bool")
    assert annotated_bool == []


def test_cos_and_sin_only_where_frames_turn():
    """World-to-cell transform: every change of frame goes through ``grid``. Outside it,
    cos and sin give only the LiDAR ray directions and ``simulate_radar``'s world points."""
    places = _places(lambda node: _is_name(node, "cos") or _is_name(node, "sin"))
    outside = [place for place in places if place.split(".")[0] != "grid"]
    assert outside == ["sim._status_scan"] * 2 + ["sim.simulate_radar"] * 2
    assert "grid.Pose2D.turn" in places


def test_ray_ism_sums_once_and_loops_over_sensors():
    """Ray-ISM's accumulation: one ``np.bincount`` sums every cell's logits, and the
    only loop statement in ``accumulate_idms`` runs over the sensors."""
    fn, = [node for place, node in NODES
           if place == "rayism" and isinstance(node, ast.FunctionDef) and node.name == "accumulate_idms"]
    calls = [node for node in ast.walk(fn) if _is_call(node, "np", "bincount")]
    loops = [node for node in ast.walk(fn) if isinstance(node, (ast.For, ast.While, ast.AsyncFor))]
    assert len(calls) == 1
    assert len(loops) == 1 and isinstance(loops[0], ast.For)
    assert ast.unparse(loops[0].iter) == "range(len(sensors))"


@pytest.mark.parametrize("source, places", [
    ("def f():\n    '''denom'''\n    # denom\n    return 1\n", []),
    ("def f(denom):\n    return denom\n", ["m.f", "m.f"]),
])
def test_docstrings_and_comments_neither_trip_nor_hide_a_rule(source, places):
    found = [place for place, node in _placed(ast.parse(source), "m") if _is_name(node, "denom")]
    assert found == places


def _is_belief_channels(node):
    """A tuple or list literal of the belief channel names, in their order."""
    return (isinstance(node, (ast.Tuple, ast.List))
            and [getattr(elt, "value", None) for elt in node.elts] == list(BELIEF_CHANNELS))


def test_belief_channels_are_named_once():
    """The belief grid format: its channel tuple is written once, in ``grid``, which owns
    the ``.grid`` format; the LiDAR targets, Ray-ISM and the prediction writer read it."""
    assert _places(_is_belief_channels) == ["grid"]
    readers = _places(lambda node: isinstance(node, ast.Name) and node.id == "BELIEF_CHANNELS"
                      and isinstance(node.ctx, ast.Load))
    assert readers == ["cli._write_beliefs.write_scene", "rayism.ray_ism_scene", "sim.accumulated_ground_truth"]


_GRID_IO = ("read_grid", "write_grid", "Grid2D", "map_scenes")


def _cli_calls(name):
    """The sorted places in ``cli`` of every call of ``name``."""
    return sorted(place for place, node in NODES if place.split(".")[0] == "cli"
                  and isinstance(node, ast.Call) and ast.unparse(node.func) == name)


def test_rayism_and_infer_write_through_one_scene_loop():
    """Prediction grids: ``cli`` runs one scene loop and writes its grids in one place,
    ``_write_beliefs``; ``rayism`` and ``infer`` supply only their predictors."""
    assert _cli_calls("map_scenes") == ["cli._write_beliefs"]
    assert _cli_calls("write_grid") == ["cli._write_beliefs.write_scene"]
    for name in _GRID_IO:
        assert [place for place in _cli_calls(name) if place.split(".")[1] in ("cmd_rayism", "cmd_infer")] == []


def _module_int_names(module):
    """The names a module binds at its top level to a value that holds an integer literal."""
    names = []
    for place, node in NODES:
        if place == module and isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(sub, ast.Constant) and type(sub.value) is int for sub in ast.walk(node.value)):
                names += [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]
    return names


def test_eval_loss_runs_at_the_training_batch():
    """The training batch: ``train`` hands ``eval_loss`` its ``cfg.batch_size``, so
    ``net.train`` binds no sample count of its own; its one integer constant counts cells.
    ``eval_loss`` runs once, for the val row: the train row is the step losses' mean, so
    ``train`` uses what ``train_step`` returns and never calls it as a bare statement."""
    assert _module_int_names("net.train") == ["SPLIT_MIN_CELLS"]
    calls = [(place, ast.unparse(node.args[-1])) for place, node in NODES
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "eval_loss"]
    assert calls == [("net.train.train", "cfg.batch_size")]
    steps = _places(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "train_step")
    assert steps == ["net.train.train"]
    assert _places(lambda node: isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                   and ast.unparse(node.value.func) == "train_step") == []


def _calls_of(name):
    """The sorted places of every call of ``name``, bare or as an attribute."""
    return _places(lambda node: isinstance(node, ast.Call) and _is_name(node.func, name))


def test_dropout_masks_are_the_one_draw():
    """Dropout masks: ``dropout_masks`` is the one draw of keep masks, and only the
    training step and MC prediction call it; ``forward`` takes masks and draws none,
    and MC prediction passes its image once, not broadcast to the sample count."""
    assert _calls_of("dropout_keep") == ["net.unet.dropout_masks"]
    assert _calls_of("dropout_masks") == ["net.train.mc_predict", "net.train.train_step"]
    fn, = [node for place, node in NODES
           if place == "net.unet" and isinstance(node, ast.FunctionDef) and node.name == "forward"]
    assert "dropout_rng" not in [arg.arg for arg in ast.walk(fn.args) if isinstance(arg, ast.arg)]
    assert [place for place in _calls_of("broadcast_to") if place.startswith("net.")] == []
