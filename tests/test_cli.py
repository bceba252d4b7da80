import json
import shutil

import numpy as np
import pytest

from evgrid import sim
from evgrid.cli import main
from evgrid.errors import EvgridError
from evgrid.grid import Grid2D, GridSpec, read_grid, write_grid
from evgrid.net.unet import UNetSpec, init_params, save_checkpoint

FAST = ["--set", "sim.n_scenes=6", "--set", "sim.side_cells=16",
        "--set", "sim.lidar_rays=90", "--set", "net.base_channels=4",
        "--set", "train.epochs=1", "--set", "train.batch_size=4",
        "--set", "train.mc_samples=3"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-ds")
    assert main(["gen", "--out", str(out)] + FAST) == 0
    return out


class TestGen:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen", "--out", str(out)] + FAST) == 0
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        assert (a / "samples/00000/radar.grid").read_bytes() == \
            (b / "samples/00000/radar.grid").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        out = tmp_path / "seeded"
        assert main(["gen", "--out", str(out), "--seed", "99"] + FAST) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 99

    def test_config_echoed(self, dataset):
        cfg = json.loads((dataset / "config.json").read_text())
        assert cfg["sim"]["n_scenes"] == 6

    def test_failed_rerun_leaves_no_manifest(self, dataset, tmp_path, monkeypatch, capsys):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        simulate_radar, calls = sim.simulate_radar, []

        def failing_radar(*args):  # fails in the third scene
            calls.append(1)
            if len(calls) == 3:
                raise EvgridError("simulated failure")
            return simulate_radar(*args)

        monkeypatch.setattr(sim, "simulate_radar", failing_radar)
        assert main(["gen", "--out", str(data), "--seed", "5"] + FAST) == 3
        assert (data / "samples/00001/radar.grid").exists() and not (data / "manifest.json").exists()
        capsys.readouterr()
        assert main(["train", "--dataset", str(data), "--out", str(tmp_path / "m")] + FAST) == 3
        assert "manifest.json" in capsys.readouterr().err


class TestPipeline:
    def test_rayism_train_infer_eval(self, dataset, tmp_path):
        ray_dir = tmp_path / "rayism"
        assert main(["rayism", "--dataset", str(dataset), "--out", str(ray_dir)] + FAST) == 0
        pred = read_grid(ray_dir / "00000.grid")
        assert pred.data.shape == (3, 16, 16)
        assert np.allclose(pred.data.sum(axis=0), 1.0, atol=1e-6)

        train_dir = tmp_path / "train"
        assert main(["train", "--dataset", str(dataset), "--out", str(train_dir),
                     "--model", "ev"] + FAST) == 0
        assert (train_dir / "checkpoint.ckpt").exists()
        assert (train_dir / "metrics.csv").exists()

        infer_dir = tmp_path / "infer"
        assert main(["infer", "--checkpoint", str(train_dir / "checkpoint.ckpt"),
                     "--dataset", str(dataset), "--mode", "ev",
                     "--out", str(infer_dir)] + FAST) == 0
        assert (infer_dir / "00000.grid").exists()

        eval_dir = tmp_path / "eval"
        assert main(["eval", str(ray_dir), str(infer_dir), "--dataset", str(dataset),
                     "--out", str(eval_dir)] + FAST) == 0
        text = (eval_dir / "scores.txt").read_text()
        assert "scores for visible area [%]" in text
        csv_lines = (eval_dir / "scores.csv").read_text().splitlines()
        assert csv_lines[0].startswith("model,region,")
        assert len(csv_lines) == 1 + 4  # two models x two regions

    def test_eval_reports_cells_without_support(self, dataset, tmp_path, capsys):
        # one LiDAR frame leaves no known target behind an occlusion: the hidden rows are empty
        ray_dir = tmp_path / "ray"
        assert main(["rayism", "--dataset", str(dataset), "--out", str(ray_dir)] + FAST) == 0
        capsys.readouterr()
        assert main(["eval", str(ray_dir), "--dataset", str(dataset), "--out", str(tmp_path / "e")] + FAST) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and all("ray:" in line and "hidden" in line for line in lines)
        assert any("no free" in line for line in lines) and any("no occupied" in line for line in lines)

    def test_rayism_takes_grid_from_dataset(self, tmp_path):
        data, out = tmp_path / "ds18", tmp_path / "ray"
        small = ["--set", "sim.n_scenes=2", "--set", "sim.lidar_rays=90"]
        assert main(["gen", "--out", str(data), "--set", "sim.side_cells=18"] + small) == 0
        assert main(["rayism", "--dataset", str(data), "--out", str(out),
                     "--set", "sim.side_cells=16", "--set", "sim.cell_size=0.25"] + small) == 0
        assert read_grid(out / "00001.grid").spec == GridSpec(18, 0.5)

    def test_render(self, dataset, tmp_path):
        out = tmp_path / "target.ppm"
        assert main(["render", str(dataset / "samples/00000/target.grid"), str(out)]) == 0
        assert out.read_bytes().startswith(b"P6\n16 16\n255\n")

    def test_render_pgm(self, dataset, tmp_path):
        out = tmp_path / "mask.pgm"
        assert main(["render", str(dataset / "samples/00000/mask.grid"), str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n16 16\n255\n")


class TestExitCodes:
    def test_usage_error(self):
        assert main([]) == 1
        assert main(["gen"]) == 1  # missing --out

    def test_unknown_config_key(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"),
                     "--set", "sim.bogus_knob=1"]) == 2

    @pytest.mark.parametrize("override", [
        "ray_ism.p_max=0.3", "ray_ism.sigma_r=0", "train.lr=-1", "net.dropout=1.5",
        "net.base_channels=0", "sim.detection_prob=2", "sim.side_cells=4", "sim.n_scenes=-3",
        "sim.n_scenes=0",
    ])
    def test_bad_value_fails_before_any_output(self, tmp_path, capsys, override):
        out = tmp_path / "bad"
        assert main(["gen", "--out", str(out), "--set", override]) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_flag(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"), "--seed", "-1"]) == 2
        assert not (tmp_path / "x").exists()

    def test_malformed_set(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"), "--set", "no-equals"]) == 2

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen", "--out", str(tmp_path / "x"), "--config", str(bad)]) == 2

    def test_missing_dataset(self, tmp_path):
        out = tmp_path / "o"
        assert main(["rayism", "--dataset", str(tmp_path / "nope"), "--out", str(out)]) == 3
        assert not out.exists()

    def test_train_missing_dataset(self, tmp_path):
        out = tmp_path / "o"
        assert main(["train", "--dataset", str(tmp_path / "nope"), "--model", "ev",
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_missing_checkpoint(self, dataset, tmp_path):
        out = tmp_path / "o"
        assert main(["infer", "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--dataset", str(dataset), "--mode", "ev",
                     "--out", str(out)] + FAST) == 3
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["truncated", "no_newline", "wrong_element_type",
                                        "string_leaky_slope", "slope_out_of_range"])
    def test_bad_checkpoint(self, dataset, tmp_path, capsys, damage):
        spec = UNetSpec(base_channels=4)
        good = tmp_path / "good.ckpt"
        save_checkpoint(good, init_params(spec, np.random.default_rng(0)), spec)
        blob = good.read_bytes()
        bad_blob = {
            "truncated": blob[:-100],
            "no_newline": blob[:blob.index(b"\n")],
            "wrong_element_type": blob.replace(b'"element_type":"f32"', b'"element_type":"f64"'),
            "string_leaky_slope": blob.replace(b'"leaky_slope":0.1', b'"leaky_slope":"0.1"'),
            "slope_out_of_range": blob.replace(b'"leaky_slope":0.1', b'"leaky_slope":1.5'),
        }[damage]
        assert bad_blob != blob
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bad_blob)
        out = tmp_path / "o"
        assert main(["infer", "--checkpoint", str(bad), "--dataset", str(dataset),
                     "--mode", "ev", "--out", str(out)] + FAST) == 3
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_eval_names_prediction_of_wrong_size(self, dataset, tmp_path, capsys):
        pred = tmp_path / "pred8"
        pred.mkdir()
        for sid in json.loads((dataset / "manifest.json").read_text())["splits"]["test"]:
            write_grid(pred / f"{sid}.grid", Grid2D(GridSpec(8, 0.5), np.zeros((3, 8, 8)), ("b_f", "b_o", "u")))
        assert main(["eval", str(pred), "--dataset", str(dataset), "--out", str(tmp_path / "e")] + FAST) == 3
        err = capsys.readouterr().err
        assert str(pred) in err and ".grid: shape mismatch" in err

    def test_unknown_split(self, dataset, tmp_path):
        out = tmp_path / "e"
        assert main(["eval", str(tmp_path), "--dataset", str(dataset),
                     "--out", str(out), "--set", "eval.split=bogus"] + FAST) == 2
        assert not out.exists()


def _damaged_copy(dataset, tmp_path, rel, edit):
    """A copy of the dataset with one file's bytes replaced by edit(bytes)."""
    copy = tmp_path / "ds"
    shutil.copytree(dataset, copy)
    path = copy / rel
    blob = path.read_bytes()
    damaged = edit(blob)
    assert damaged != blob
    path.write_bytes(damaged)
    return copy


def _first_line_edit(fn):
    """Edit the first detection of a detections.jsonl file as a dict."""
    def edit(blob):
        first, rest = blob.split(b"\n", 1)
        obj = json.loads(first)
        fn(obj)
        return json.dumps(obj).encode() + b"\n" + rest
    return edit


class TestBadDatasetFiles:
    """Malformed dataset files fail with exit 3 and a message naming the file."""

    DETS = "samples/00000/detections.jsonl"

    @pytest.mark.parametrize("edit", [
        lambda blob: b"{not json\n" + blob,
        _first_line_edit(lambda obj: obj.pop("phi")),
        _first_line_edit(lambda obj: obj.update(r="5.0")),
        _first_line_edit(lambda obj: obj.update(v_r=None)),
        _first_line_edit(lambda obj: obj.update(sensor_id="0")),
        _first_line_edit(lambda obj: obj.update(sensor_id=1.0)),
    ], ids=["bad_json", "missing_key", "string_range", "null_velocity", "string_sensor",
            "float_sensor"])
    def test_bad_detections(self, dataset, tmp_path, capsys, edit):
        data = _damaged_copy(dataset, tmp_path, self.DETS, edit)
        assert main(["rayism", "--dataset", str(data), "--out", str(tmp_path / "o")] + FAST) == 3
        assert "detections.jsonl line 1" in capsys.readouterr().err

    def test_detection_from_sensor_without_pose(self, dataset, tmp_path, capsys):
        # a static detection (v_r 0) is placed by its sensor's pose; there is no sensor 9
        edit = _first_line_edit(lambda obj: obj.update(sensor_id=9, v_r=0.0))
        data = _damaged_copy(dataset, tmp_path, self.DETS, edit)
        assert main(["rayism", "--dataset", str(data), "--out", str(tmp_path / "o")] + FAST) == 3
        err = capsys.readouterr().err
        assert self.DETS in err and "sensor 9" in err

    @pytest.mark.parametrize("edit", [
        lambda blob: blob[:-10],
        lambda blob: json.dumps({k: v for k, v in json.loads(blob).items() if k != "splits"}).encode(),
        lambda blob: json.dumps({**json.loads(blob), "grid": {"side_cells": "16"}}).encode(),
        lambda blob: blob.replace(b'"00000"', b'"../x"'),
        lambda blob: json.dumps({**json.loads(blob),
                                 "splits": {**json.loads(blob)["splits"], "extra": 5}}).encode(),
    ], ids=["truncated", "missing_splits", "string_side", "bad_sample_id", "extra_split_not_list"])
    @pytest.mark.parametrize("command", ["rayism", "train"])
    def test_bad_manifest(self, dataset, tmp_path, capsys, edit, command):
        data = _damaged_copy(dataset, tmp_path, "manifest.json", edit)
        assert main([command, "--dataset", str(data), "--out", str(tmp_path / "o")] + FAST) == 3
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda blob: blob[:-100],
        lambda blob: blob[:blob.index(b"\n")],
        lambda blob: b"{" + blob,
        lambda blob: blob.replace(b'"side_cells":16', b'"side_cells":"16"'),
        lambda blob: blob.replace(b'"channels":["static","dynamic"]', b'"channels":"static"'),
    ], ids=["truncated", "no_newline", "bad_header_json", "string_side", "string_channels"])
    def test_bad_grid(self, dataset, tmp_path, capsys, edit):
        data = _damaged_copy(dataset, tmp_path, "samples/00000/radar.grid", edit)
        assert main(["rayism", "--dataset", str(data), "--out", str(tmp_path / "o")] + FAST) == 3
        assert "radar.grid" in capsys.readouterr().err
