import ctypes
import io
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evgrid import cli, sim
from evgrid.cli import main
from evgrid.errors import EvgridError, output_dir
from evgrid.grid import Grid2D, GridSpec, read_grid, write_grid
from evgrid.net.unet import UNetSpec, init_params, load_checkpoint, save_checkpoint

from conftest import cut_and_flip, fake_cpus

FAST = ["--set", "sim.n_scenes=6", "--set", "sim.side_cells=16",
        "--set", "sim.lidar_rays=90", "--set", "net.base_channels=4",
        "--set", "train.epochs=1", "--set", "train.batch_size=4",
        "--set", "train.mc_samples=3"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-ds")
    assert main(["gen", "--out", str(out)] + FAST) == 0
    return out


@pytest.fixture(scope="module")
def runs(dataset, tmp_path_factory):
    """The Ray-ISM output, an Ev-Net and its predictions on the shared dataset."""
    root = tmp_path_factory.mktemp("cli-runs")
    ray, model, pred = root / "ray", root / "model", root / "pred"
    assert main(["rayism", "--dataset", str(dataset), "--out", str(ray)] + FAST) == 0
    assert main(["train", "--dataset", str(dataset), "--model", "ev", "--out", str(model)] + FAST) == 0
    assert main(["infer", "--checkpoint", str(model / "checkpoint.ckpt"), "--dataset", str(dataset),
                 "--mode", "ev", "--out", str(pred)] + FAST) == 0
    return ray, model, pred


def _argv(command: str, data, model, pred, out) -> list[str]:
    """A run of ``command`` on the dataset ``data`` (and the model or predictions it reads) into ``out``."""
    return {
        "gen": ["gen"],
        "rayism": ["rayism", "--dataset", str(data)],
        "train": ["train", "--dataset", str(data), "--model", "ev"],
        "infer": ["infer", "--checkpoint", str(model / "checkpoint.ckpt"), "--dataset", str(data),
                  "--mode", "ev"],
        "eval": ["eval", str(pred), "--dataset", str(data)],
    }[command] + ["--out", str(out)] + FAST


def _tree(root: Path) -> dict:
    """Every file under ``root`` by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _staging_left(out: Path) -> list[str]:
    """The hidden siblings ``.<name>.*`` that a command builds ``out`` in."""
    return sorted(p.name for p in out.parent.glob(f".{out.name}.*"))


def _stat(pid: int) -> list[str] | None:
    """The fields of /proc/<pid>/stat after the command name (state, ppid, ...), or None once it is gone."""
    try:
        return (Path("/proc") / str(pid) / "stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _is_live(pid: int, start: str) -> bool:
    """Whether the process ``pid`` that started at clock tick ``start`` still runs (a zombie does not)."""
    fields = _stat(pid)
    return fields is not None and fields[19] == start and fields[0] not in "ZX"


def _live_children(pid: int) -> dict[int, str]:
    """The running child processes of ``pid``, each with its start time in clock ticks."""
    found = {}
    for path in Path("/proc").iterdir():
        fields = _stat(int(path.name)) if path.name.isdigit() else None
        if fields is not None and int(fields[1]) == pid and fields[0] not in "ZX":
            found[int(path.name)] = fields[19]
    return found


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

    def test_manifest_records_every_generator_input(self, dataset):
        sim_keys = json.loads((dataset / "config.json").read_text())["sim"].keys()
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert manifest["config"].keys() | {"n_scenes", "side_cells", "cell_size"} == sim_keys

    def test_failed_rerun_leaves_old_dataset(self, dataset, tmp_path, monkeypatch):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        before = _tree(data)
        generate_scene, third_scene = sim.generate_scene, sim._scene_seed(5, 2)

        def failing_scene(seed, *args):  # fails in the third scene, in any worker
            if seed == third_scene:
                raise EvgridError("simulated failure")
            return generate_scene(seed, *args)

        monkeypatch.setattr(sim, "generate_scene", failing_scene)
        assert main(["gen", "--out", str(data), "--seed", "5"] + FAST) == 3
        assert _tree(data) == before
        assert _staging_left(data) == []

    def test_rerun_with_fewer_scenes_leaves_only_its_samples(self, tmp_path):
        out = tmp_path / "ds"
        small = ["--set", "sim.side_cells=16", "--set", "sim.lidar_rays=90"]
        assert main(["gen", "--out", str(out), "--set", "sim.n_scenes=6"] + small) == 0
        assert main(["gen", "--out", str(out), "--set", "sim.n_scenes=3"] + small) == 0
        assert sorted(p.name for p in (out / "samples").iterdir()) == ["00000", "00001", "00002"]


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

    def test_train_echoes_model_flag(self, dataset, tmp_path):
        out = tmp_path / "soft"
        assert main(["train", "--dataset", str(dataset), "--model", "soft", "--out", str(out)] + FAST) == 0
        assert json.loads((out / "config.json").read_text())["train"]["model"] == "soft"
        assert load_checkpoint(out / "checkpoint.ckpt")[1].out_channels == 3

    def test_render(self, dataset, tmp_path):
        out = tmp_path / "target.ppm"
        assert main(["render", str(dataset / "samples/00000/target.grid"), str(out)]) == 0
        assert out.read_bytes().startswith(b"P6\n16 16\n255\n")

    def test_render_pgm(self, dataset, tmp_path):
        out = tmp_path / "mask.pgm"
        assert main(["render", str(dataset / "samples/00000/mask.grid"), str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n16 16\n255\n")

    def test_render_takes_no_config_options(self, dataset, tmp_path):
        out = tmp_path / "target.ppm"
        assert main(["render", str(dataset / "samples/00000/target.grid"), str(out), "--seed", "1"]) == 1
        assert not out.exists()


class TestBeliefWriter:
    """rayism and infer write through one scene loop: a belief grid per sample, on its radar grid."""

    @pytest.mark.parametrize("command", ["rayism", "infer"])
    def test_one_grid_per_sample_on_its_radar_grid(self, dataset, runs, command):
        out = runs[0] if command == "rayism" else runs[2]
        splits = sim.load_manifest(dataset)["splits"]
        ids = sorted(sid for split in splits.values() for sid in split)
        assert len(ids) == 6
        assert sorted(p.name for p in out.iterdir()) == sorted(["config.json"] + [f"{sid}.grid" for sid in ids])
        for sid in ids:
            radar, pred = read_grid(dataset / "samples" / sid / "radar.grid"), read_grid(out / f"{sid}.grid")
            assert pred.channels == ("b_f", "b_o", "u")
            assert (pred.spec, pred.origin) == (radar.spec, radar.origin)


class TestScenePool:
    """gen, rayism and infer run their scenes in a pool when the affinity holds two or more CPUs."""

    def test_pooled_stages_match_serial(self, tmp_path, monkeypatch):
        trees = []
        for n in (1, 2):
            fake_cpus(monkeypatch, n)
            data, ray, model, pred = (tmp_path / f"cpus{n}" / d for d in ("data", "ray", "model", "pred"))
            assert main(["gen", "--out", str(data)] + FAST) == 0
            assert main(["rayism", "--dataset", str(data), "--out", str(ray)] + FAST) == 0
            assert main(["train", "--dataset", str(data), "--model", "ev", "--out", str(model)] + FAST) == 0
            assert main(["infer", "--checkpoint", str(model / "checkpoint.ckpt"), "--dataset", str(data),
                         "--mode", "ev-s", "--out", str(pred)] + FAST) == 0
            trees.append([_tree(d) for d in (data, ray, pred)])
        assert trees[0] == trees[1]
        assert [len(tree) for tree in trees[0]] == [2 + 6 * 4, 1 + 6, 1 + 6]

    def test_rayism_names_earlier_of_two_bad_detection_files(self, dataset, tmp_path, monkeypatch, capsys):
        fake_cpus(monkeypatch, 2)
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        early, late = (data / f"samples/{sid}/detections.jsonl" for sid in ("00001", "00004"))
        for path in (early, late):
            path.write_bytes(b"{not json\n" + path.read_bytes())
        read_detections = cli.read_detections

        def slow_early_read(path):  # the later file fails first in time
            if Path(path) == early:
                time.sleep(0.3)
            return read_detections(path)

        monkeypatch.setattr(cli, "read_detections", slow_early_read)
        assert main(["rayism", "--dataset", str(data), "--out", str(tmp_path / "o")] + FAST) == 3
        err = capsys.readouterr().err
        assert str(early) in err and str(late) not in err


class TestHeapPolicy:
    def test_main_applies_it_before_the_command(self, tmp_path, monkeypatch):
        events = []
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: events.append("policy"))
        monkeypatch.setitem(cli._COMMANDS, "gen", lambda args, cfg, out: events.append("gen") or 0)
        assert main(["gen", "--out", str(tmp_path / "x")]) == 0
        assert events == ["policy", "gen"]

    def test_no_mallopt_is_a_silent_no_op(self, monkeypatch, capsys):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert cli._keep_freed_heap() is False
        assert capsys.readouterr() == ("", "")

    def test_a_refused_threshold_stops_before_the_other(self, monkeypatch):
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append(param)
                return 0

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        assert cli._keep_freed_heap() is False
        assert calls == [-3]

    def test_one_arena_for_every_thread(self, monkeypatch):
        # a second thread's own arena would keep pages of its own under the policy
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        assert cli._keep_freed_heap() is True
        assert calls == [(-3, 32 << 20), (-1, 256 << 20), (-8, 1)]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_glibc_takes_both_thresholds(self):
        assert cli._keep_freed_heap() is True

    def test_import_applies_nothing(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        # the policy opens the C library by the name None; numpy may open other libraries
        code = ("import ctypes, sys\n"
                "opened, real = [], ctypes.CDLL\n"
                "ctypes.CDLL = lambda name, *a, **k: opened.append(name) or real(name, *a, **k)\n"
                "import evgrid.cli\n"
                "assert None not in opened\n"
                "evgrid.cli._keep_freed_heap()\n"
                "sys.exit(opened.count(None) != 1)")
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def _openblas_threads():
    """(getter, setter) of the OpenBLAS numpy mapped, or None when it mapped none."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, (ctypes.c_int,)
                return get, put
    return None


class TestBlasThreads:
    """cli.main runs OpenBLAS on one thread: train's two half-batch threads are the parallelism."""

    @pytest.mark.skipif(not Path("/proc/self/maps").exists() or _openblas_threads() is None,
                        reason="no OpenBLAS is mapped")
    def test_main_leaves_openblas_at_one_thread(self, tmp_path, monkeypatch):
        get, put = _openblas_threads()
        before = get()
        put(max(2, before))
        try:
            monkeypatch.setitem(cli._COMMANDS, "gen", lambda args, cfg, out: 0)
            assert main(["gen", "--out", str(tmp_path / "x")]) == 0
            assert get() == 1
            assert cli._one_blas_thread() == 1
        finally:
            put(before)

    @pytest.mark.parametrize("maps", ["7f00-7f01 r-xp 00000000 08:01 1 /usr/lib/libc.so.6\n", None],
                             ids=["no_openblas", "unreadable"])
    def test_no_openblas_mapped_is_a_silent_no_op(self, maps, monkeypatch, capsys):
        import builtins

        real_open, opened = builtins.open, []

        def fake_maps(path, *args, **kwargs):
            if path != "/proc/self/maps":
                return real_open(path, *args, **kwargs)
            if maps is None:
                raise PermissionError(path)
            return io.StringIO(maps)

        monkeypatch.setattr(builtins, "open", fake_maps)
        monkeypatch.setattr(ctypes, "CDLL", lambda name, *a, **k: opened.append(name))
        assert cli._one_blas_thread() is None
        assert opened == []
        assert capsys.readouterr() == ("", "")


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
        "sim.n_scenes=0", "sim.scene_extent=2.0", "sim.scene_extent=0", "sim.p_dynamic=1.5",
        "sim.boundary_spacing=0", "sim.vr_sigma=-1", "sim.sensor_fov=-1", "train.percentile=0",
        "train.percentile=150", "ray_ism.logodds_clamp=-1", "train.epochs=0", "sim.frames=0",
        "sim.frames=-3", "eval.split=bogus",
        # JSON numbers a config value cannot be: too large, not a number, infinite
        "sim.n_scenes=1e999", "sim.n_scenes=NaN", "master_seed=NaN", "sim.cell_size=NaN",
        "train.lr=NaN", "train.lr=Infinity",
    ])
    def test_bad_value_fails_before_any_output(self, tmp_path, capsys, override):
        out = tmp_path / "bad"
        assert main(["gen", "--out", str(out), "--set", override]) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["sim.occlude_by_dynamic", "train.augment", "eval.conflict_guard",
                                     "sim.dynamic_velocity_threshold"])
    def test_dropped_switch_is_an_unknown_key(self, tmp_path, capsys, key):
        out = tmp_path / "x"
        assert main(["gen", "--out", str(out), "--set", f"{key}=false"]) == 2
        assert not out.exists()
        assert f"unknown config key(s): {key}" in capsys.readouterr().err

    def test_negative_seed_flag(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"), "--seed", "-1"]) == 2
        assert not (tmp_path / "x").exists()

    def test_malformed_set(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"), "--set", "no-equals"]) == 2

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen", "--out", str(tmp_path / "x"), "--config", str(bad)]) == 2

    @pytest.mark.parametrize("blob, message", [
        (b"\xff\xfe{}", "is not valid JSON"),
        (b"[" * 100_000, "is JSON nested too deeply"),
    ], ids=["not_utf8", "deep_nesting"])
    def test_unparsable_config_file_is_named(self, tmp_path, capsys, blob, message):
        bad, out = tmp_path / "bad.json", tmp_path / "x"
        bad.write_bytes(blob)
        assert main(["gen", "--out", str(out), "--config", str(bad)]) == 2
        assert f"config file {bad} {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_set_value(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["gen", "--out", str(out), "--set", "sim.frames=" + "[" * 100_000]) == 2
        assert "--set sim.frames holds JSON nested too deeply" in capsys.readouterr().err
        assert not out.exists()

    def test_allocation_failure_exits_3_with_one_line(self, dataset, runs, tmp_path):
        """An MC draw far larger than the address space, refused at once under an RLIMIT_AS
        the child sets on itself (in a scene worker when there are two CPUs)."""
        src = Path(cli.__file__).resolve().parents[1]
        limit = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
                 "from evgrid.cli import main; sys.exit(main(sys.argv[1:]))")
        out = tmp_path / "o"
        argv = _argv("infer", dataset, runs[1], runs[2], out) + ["--set", "train.mc_samples=100000000"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", limit, *argv], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1
        assert not out.exists() and _staging_left(out) == []

    def test_missing_dataset(self, tmp_path):
        out = tmp_path / "o"
        assert main(["rayism", "--dataset", str(tmp_path / "nope"), "--out", str(out)]) == 3
        assert not out.exists()

    def test_train_missing_dataset(self, tmp_path):
        out = tmp_path / "o"
        assert main(["train", "--dataset", str(tmp_path / "nope"), "--model", "ev",
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_grid_side_the_unet_cannot_take(self, tmp_path, capsys):
        data, ckpt, out = tmp_path / "ds10", tmp_path / "m.ckpt", tmp_path / "o"
        assert main(["gen", "--out", str(data)] + FAST + ["--set", "sim.side_cells=10"]) == 0
        spec = UNetSpec(base_channels=4)
        save_checkpoint(ckpt, init_params(spec, np.random.default_rng(0)), spec)
        for argv in (["train", "--model", "ev"], ["infer", "--checkpoint", str(ckpt), "--mode", "ev"]):
            assert main(argv + ["--dataset", str(data), "--out", str(out)] + FAST) == 2
            assert "divisible by 4" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("out_channels, mode", [(2, "soft"), (3, "ev"), (3, "ev-s")])
    def test_mode_the_head_cannot_give(self, dataset, tmp_path, capsys, out_channels, mode):
        spec = UNetSpec(out_channels=out_channels, base_channels=4)
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "o"
        save_checkpoint(ckpt, init_params(spec, np.random.default_rng(0)), spec)
        assert main(["infer", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                     "--mode", mode, "--out", str(out)] + FAST) == 2
        assert f"mode {mode!r} incompatible with a {out_channels}-channel head" in capsys.readouterr().err
        assert not out.exists()

    def test_render_names_grid_it_cannot_draw(self, dataset, tmp_path, capsys):
        grid, out = dataset / "samples/00000/radar.grid", tmp_path / "radar.ppm"
        assert main(["render", str(grid), str(out)]) == 3
        assert f"{grid}: PPM rendering needs a 3-channel evidential grid" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_checkpoint(self, dataset, tmp_path):
        out = tmp_path / "o"
        assert main(["infer", "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--dataset", str(dataset), "--mode", "ev",
                     "--out", str(out)] + FAST) == 3
        assert not out.exists()

    def test_checkpoint_whose_network_overflows(self, dataset, runs, tmp_path, capsys):
        # a finite but huge weight passes the checkpoint reader; the evidence it makes does not
        params, spec, _header = load_checkpoint(runs[1] / "checkpoint.ckpt")
        params["stem_w"] = params["stem_w"].copy()
        params["stem_w"].flat[0] = 3e38
        ckpt, out = tmp_path / "huge.ckpt", tmp_path / "o"
        save_checkpoint(ckpt, params, spec)
        assert main(["infer", "--checkpoint", str(ckpt), "--dataset", str(dataset), "--mode", "ev",
                     "--out", str(out)] + FAST) == 3
        assert f"error: {ckpt}: scene 00000: evidence must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["ev", "ev-s"])
    def test_checkpoint_whose_evidence_overflows_float32(self, dataset, runs, tmp_path, capsys, mode):
        # out = 1e30 is finite in float32, but the evidence out**2 that training squares there is not
        params, spec, _header = load_checkpoint(runs[1] / "checkpoint.ckpt")
        params["dec2_b"] = params["dec2_b"].copy()
        params["dec2_b"][0] = 1e30
        ckpt, out = tmp_path / "huge.ckpt", tmp_path / "o"
        save_checkpoint(ckpt, params, spec)
        assert main(["infer", "--checkpoint", str(ckpt), "--dataset", str(dataset), "--mode", mode,
                     "--out", str(out)] + FAST) == 3
        assert f"error: {ckpt}: scene 00000: evidence must be finite" in capsys.readouterr().err
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
        assert f"{data / self.DETS}: line 1:" in capsys.readouterr().err

    def test_detection_from_sensor_without_pose(self, dataset, tmp_path, capsys):
        # there are sensors 0 to 3; the reader refuses any other id, so a dynamic
        # detection (v_r 3), which Ray-ISM never places, fails as a static one does
        for sid, v_r in itertools.product((9, -1), (0.0, 3.0)):
            edit = _first_line_edit(lambda obj: obj.update(sensor_id=sid, v_r=v_r))
            data = _damaged_copy(dataset, tmp_path / f"{sid}-{v_r}", self.DETS, edit)
            out = tmp_path / f"{sid}-{v_r}" / "o"
            assert main(["rayism", "--dataset", str(data), "--out", str(out)] + FAST) == 3, (sid, v_r)
            err = capsys.readouterr().err
            assert self.DETS in err and "line 1" in err and f"sensor {sid}" in err
            assert not out.exists()

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


class TestTrainDivergence:
    def test_non_finite_eval_loss_fails_with_no_output(self, tmp_path, capsys):
        data, out = tmp_path / "ds12", tmp_path / "m"
        assert main(["gen", "--out", str(data), "--set", "sim.n_scenes=12", "--set", "sim.side_cells=16",
                     "--set", "sim.lidar_rays=90"]) == 0
        assert main(["train", "--dataset", str(data), "--out", str(out),
                     "--set", "train.lr=1e6", "--set", "train.epochs=1"]) == 3
        assert "epoch 0: non-finite val eval loss" in capsys.readouterr().err
        assert not out.exists() and _staging_left(out) == []


class TestMixedSides:
    """Every grid of a dataset has the side its manifest names."""

    @pytest.fixture(scope="class")
    def dataset32(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("ds32")
        assert main(["gen", "--out", str(out)] + FAST + ["--set", "sim.side_cells=32"]) == 0
        return out

    @pytest.mark.parametrize("name, channels", [("radar.grid", 2), ("target.grid", 3)])
    def test_grid_of_another_side_fails_train(self, dataset, dataset32, tmp_path, capsys, name, channels):
        data, out = tmp_path / "ds", tmp_path / "m"
        shutil.copytree(dataset32, data)
        shutil.copy(dataset / "samples/00001" / name, data / "samples/00001" / name)
        assert main(["train", "--dataset", str(data), "--out", str(out)] + FAST) == 3
        assert (f"{data / 'samples/00001' / name}: grid of shape ({channels}, 16, 16), "
                f"the manifest's samples are ({channels}, 32, 32)") in capsys.readouterr().err
        assert not out.exists() and _staging_left(out) == []

    def test_negative_manifest_side_fails_train(self, dataset, tmp_path, capsys):
        data, out = tmp_path / "ds", tmp_path / "m"
        shutil.copytree(dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["grid"]["side_cells"] = -16
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert main(["train", "--dataset", str(data), "--out", str(out)] + FAST) == 3
        assert f"dataset manifest {data / 'manifest.json'}: side_cells -16" in capsys.readouterr().err
        assert not out.exists()


class TestOutputDir:
    """Every command but render builds --out aside and swaps it in whole on success;
    a failed run leaves --out as it was."""

    COMMANDS = ["gen", "rayism", "train", "infer", "eval"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_success_replaces_out_whole(self, dataset, runs, tmp_path, command):
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert main(_argv(command, dataset, runs[1], runs[2], fresh)) == 0
        out.mkdir()
        (out / "config.json").write_text("{}\n")
        (out / "stale.grid").write_bytes(b"old")
        assert main(_argv(command, dataset, runs[1], runs[2], out)) == 0
        assert _tree(out) == _tree(fresh)
        assert _staging_left(out) == []

    @pytest.mark.parametrize("interrupt", [EvgridError("late failure"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_failure_after_the_last_file_leaves_out_as_it_was(self, dataset, runs, tmp_path, monkeypatch,
                                                              command, existing, interrupt):
        out = tmp_path / "out"
        if existing:
            assert main(_argv(command, dataset, runs[1], runs[2], out)) == 0
        before = _tree(out) if existing else None
        run = cli._COMMANDS[command]

        def run_then_fail(args, cfg, stage):  # every output file is written, then the run fails
            run(args, cfg, stage)
            raise interrupt

        monkeypatch.setitem(cli._COMMANDS, command, run_then_fail)
        argv = _argv(command, dataset, runs[1], runs[2], out)
        assert main(argv) == (130 if isinstance(interrupt, KeyboardInterrupt) else 3)
        assert (_tree(out) if existing else out.exists()) == (before if existing else False)
        assert _staging_left(out) == []

    @pytest.mark.parametrize("command, out_of", [
        ("rayism", lambda data, model, pred: data),
        ("train", lambda data, model, pred: data.parent),
        ("infer", lambda data, model, pred: model),
        ("eval", lambda data, model, pred: pred),
    ], ids=["rayism_into_dataset", "train_into_parent_of_dataset", "infer_into_model", "eval_into_pred"])
    def test_out_holding_an_input_is_refused(self, dataset, runs, tmp_path, capsys, command, out_of):
        data, model, pred = tmp_path / "w" / "data", tmp_path / "w" / "model", tmp_path / "w" / "pred"
        for src, dst in ((dataset, data), (runs[1], model), (runs[2], pred)):
            shutil.copytree(src, dst)
        before = _tree(tmp_path)
        assert main(_argv(command, data, model, pred, out_of(data, model, pred))) == 2
        assert "holds an input of the command" in capsys.readouterr().err
        assert _tree(tmp_path) == before

    def test_out_that_is_not_an_earlier_output_is_refused(self, tmp_path, capsys):
        notes, plain = tmp_path / "notes", tmp_path / "plain.txt"
        notes.mkdir()
        (notes / "todo.txt").write_text("keep me\n")
        plain.write_text("keep me too\n")
        for out in (notes, plain):
            assert main(["gen", "--out", str(out)] + FAST) == 2
            assert "refusing to replace it" in capsys.readouterr().err
        assert (notes / "todo.txt").read_text() == "keep me\n" and plain.read_text() == "keep me too\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes", "plain.txt"]

    def test_dot_and_trailing_slash_name_the_directory(self, tmp_path, monkeypatch):
        work, other = tmp_path / "work", tmp_path / "other"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["gen", "--out", "."] + FAST) == 0
        assert main(["gen", "--out", f"{other}/"] + FAST) == 0
        assert _tree(work) == _tree(other)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other", "work"]

    def test_failed_swap_puts_the_old_tree_back(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "config.json").write_text("old\n")
        rename = os.rename

        def refuse_the_new_tree(src, dst):
            if Path(src).name.endswith(".new"):
                raise OSError("no room")
            rename(src, dst)

        monkeypatch.setattr(os, "rename", refuse_the_new_tree)
        with pytest.raises(EvgridError, match="cannot move output directory"):
            with output_dir(out) as stage:
                (stage / "config.json").write_text("new\n")
        assert _tree(out) == {"config.json": b"old\n"}
        assert _staging_left(out) == []

    @pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
    def test_ctrl_c_exits_130_with_one_line(self, dataset, tmp_path, monkeypatch, capsys, existing):
        out = tmp_path / "out"
        if existing:
            shutil.copytree(dataset, out)
        before = _tree(out) if existing else None

        def interrupted(args, cfg, stage):
            (stage / "00000.grid").write_bytes(b"half done")
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "gen", interrupted)
        assert main(["gen", "--out", str(out)] + FAST) == 130
        assert capsys.readouterr().err == "interrupted\n"
        assert (_tree(out) if existing else out.exists()) == (before if existing else False)
        assert _staging_left(out) == []

    @staticmethod
    def _interrupt_running_gen(tmp_path, send, command=("gen",), started=".o.*.new/samples/*",
                               sets=("sim.n_scenes=100000",)) -> tuple[int, str, float]:
        """Start a long pooled gen (or another long ``command``) in its own session,
        call ``send(pid)`` once it writes what ``started`` matches, and return its
        exit code, its stderr and the seconds it took to exit after the signal."""
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        argv = ([sys.executable, "-m", "evgrid.cli", *command, "--out", "o"] + FAST
                + [arg for item in sets for arg in ("--set", item)])
        # a shell's background job starts with SIGINT ignored; the CLI must see it as a terminal would
        proc = subprocess.Popen(argv, cwd=tmp_path, env=env, stderr=subprocess.PIPE, text=True,
                                start_new_session=True,
                                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            deadline = time.monotonic() + 60
            while not list(tmp_path.glob(started)) and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.5)
            send(proc.pid)
            sent = time.monotonic()
            err = proc.communicate(timeout=60)[1]
            return proc.returncode, err, time.monotonic() - sent
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()

    def test_sigint_to_a_running_gen(self, tmp_path):
        """Ctrl-C reaches the whole process group: the CLI and every scene worker."""
        code, err, _took = self._interrupt_running_gen(tmp_path, lambda pid: os.killpg(pid, signal.SIGINT))
        assert (code, err) == (130, "interrupted\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_sigint_to_the_cli_process_alone(self, tmp_path):
        """A SIGINT that reaches the CLI but not its scene workers stops them too."""
        code, err, took = self._interrupt_running_gen(tmp_path, lambda pid: os.kill(pid, signal.SIGINT))
        assert (code, err) == (130, "interrupted\n")
        assert took < 2.0
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_sigterm_to_the_cli_process_alone(self, tmp_path):
        """A SIGTERM (kill, timeout, a cancelled CI job) to the CLI alone stops its scene
        workers too, and the CLI exits 143 with one line."""
        workers = {}

        def terminate(pid):
            workers.update(_live_children(pid))
            os.kill(pid, signal.SIGTERM)

        try:
            code, err, took = self._interrupt_running_gen(tmp_path, terminate)
            assert (code, err) == (143, "terminated\n")
            assert took < 2.0
            assert sorted(p.name for p in tmp_path.iterdir()) == []
            cpus = len(os.sched_getaffinity(0))
            assert len(workers) == (cpus if cpus > 1 else 0)
            deadline = time.monotonic() + 1.0
            while any(_is_live(pid, start) for pid, start in workers.items()) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid, start in workers.items() if _is_live(pid, start)] == []
        finally:
            for pid, start in workers.items():
                if _is_live(pid, start):
                    os.kill(pid, signal.SIGKILL)

    def test_main_restores_the_sigterm_handler(self, tmp_path):
        def keep(signum, frame):
            pass

        previous = signal.signal(signal.SIGTERM, keep)
        try:
            assert main(["gen", "--out", str(tmp_path / "x"), "--set", "sim.n_scenes=0"]) == 2
            assert signal.getsignal(signal.SIGTERM) is keep
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_sigint_to_a_running_train(self, tmp_path, tmp_path_factory):
        """A SIGINT while train's two half-batch threads run stops it with exit 130."""
        data = tmp_path_factory.mktemp("ds64")  # 64x64 samples, so each batch is split
        assert main(["gen", "--out", str(data)] + FAST + ["--set", "sim.side_cells=64"]) == 0
        code, err, took = self._interrupt_running_gen(
            tmp_path, lambda pid: os.kill(pid, signal.SIGINT), command=("train", "--dataset", str(data)),
            started=".o.*.new/checkpoint.ckpt", sets=("train.epochs=100000", "train.batch_size=2"))
        assert (code, err) == (130, "interrupted\n")
        assert took < 2.0
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_stale_staging_directories_are_reclaimed(self, tmp_path):
        out = tmp_path / "o"
        finished = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                                  capture_output=True, text=True, check=True)
        # a run in progress: it made its staging directory and holds the lock on it
        hold = ("import fcntl, os, sys, time; d = sys.argv[1] % os.getpid(); os.makedirs(d + '/samples'); "
                "fd = os.open(d, os.O_RDONLY); fcntl.flock(fd, fcntl.LOCK_EX); print(flush=True); time.sleep(60)")
        running = subprocess.Popen([sys.executable, "-c", hold, str(tmp_path / ".o.%d.new")],
                                   stdout=subprocess.PIPE, text=True)
        gone = finished.stdout.strip()
        try:
            assert running.stdout.readline() == "\n"
            for name in (f".o.{os.getpid()}.new", f".o.{gone}.new", f".o.{gone}.old"):
                (tmp_path / name / "samples").mkdir(parents=True)
            assert main(["gen", "--out", str(out)] + FAST) == 0
        finally:
            running.kill()
            running.wait()
            running.stdout.close()
        # a locked staging directory and an aside tree stay
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["o", f".o.{running.pid}.new", f".o.{gone}.old"])

    def test_unlocked_staging_directory_of_a_live_process_is_reclaimed(self, tmp_path):
        """A run owns its staging directory by the lock it holds, not by the pid in its name."""
        out, live = tmp_path / "o", os.getppid()
        (tmp_path / f".o.{live}.new" / "samples").mkdir(parents=True)
        assert main(["gen", "--out", str(out)] + FAST) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]


@pytest.fixture(scope="module")
def fuzz_root(dataset, runs, tmp_path_factory):
    """A copy of the dataset, the model and the predictions, whose files the fuzz tests damage."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    for src, name in ((dataset, "data"), (runs[1], "model"), (runs[2], "pred")):
        shutil.copytree(src, root / name)
    return root


class TestDamagedInputs:
    """rayism, train, infer and eval on a cut or flipped input, or on one line of
    100,000 '[': a run that fails exits 3 naming the file, leaves an existing --out
    byte-identical, creates none where none existed, and leaves no staging directory."""

    # the inputs each command reads (sample 00000 is in the train split, 00005 in test)
    FILES = {
        "rayism": ["data/manifest.json", "data/samples/00000/radar.grid",
                   "data/samples/00000/detections.jsonl"],
        "train": ["data/manifest.json", "data/samples/00000/radar.grid", "data/samples/00000/target.grid"],
        "infer": ["model/checkpoint.ckpt", "data/manifest.json", "data/samples/00000/radar.grid"],
        "eval": ["data/manifest.json", "data/samples/00005/target.grid", "data/samples/00005/mask.grid",
                 "pred/00005.grid"],
    }

    @staticmethod
    def _run(root, command, rel, blob, existing, capsys) -> tuple[int, str]:
        """Run ``command`` with the file ``rel`` holding ``blob``; check what it left in --out."""
        path, out = root / rel, root / "out"
        shutil.rmtree(out, ignore_errors=True)
        if existing:
            out.mkdir()
            (out / "config.json").write_text("{}\n")
            (out / "00000.grid").write_bytes(b"an earlier run")
        before = _tree(out) if existing else None
        original = path.read_bytes()
        path.write_bytes(blob)
        try:
            code = main(_argv(command, root / "data", root / "model", root / "pred", out))
        finally:
            path.write_bytes(original)
        err = capsys.readouterr().err
        assert _staging_left(out) == []
        if code != 0:
            assert (_tree(out) if existing else out.exists()) == (before if existing else False)
        return code, err

    @pytest.mark.parametrize("command, rel", [(c, rel) for c, rels in FILES.items() for rel in rels])
    def test_deeply_nested_line(self, fuzz_root, capsys, command, rel):
        for existing in (False, True):
            code, err = self._run(fuzz_root, command, rel, b"[" * 100_000 + b"\n", existing, capsys)
            assert code == 3 and str(fuzz_root / rel) in err

    @pytest.mark.parametrize("command, rel", [(c, rel) for c, rels in FILES.items() for rel in rels
                                              if rel.endswith((".grid", ".ckpt"))])
    def test_non_finite_value(self, fuzz_root, capsys, command, rel):
        blob = (fuzz_root / rel).read_bytes()
        code, err = self._run(fuzz_root, command, rel, blob[:-4] + np.array([np.nan], "<f4").tobytes(),
                              True, capsys)
        assert code == 3 and f"{fuzz_root / rel}: payload holds a NaN or an infinity" in err

    @pytest.mark.parametrize("command, rel, value, channel", [
        ("train", "data/samples/00000/target.grid", 3e38, "'u' holds a value outside [0, 1]"),
        ("infer", "data/samples/00000/radar.grid", 3e38, "'dynamic' holds a value outside [0, 16777216]"),
        ("eval", "data/samples/00005/mask.grid", 2.0, "'visible' holds a value outside [0, 1]"),
    ])
    def test_value_out_of_channel_range(self, fuzz_root, capsys, command, rel, value, channel):
        blob = (fuzz_root / rel).read_bytes()
        code, err = self._run(fuzz_root, command, rel, blob[:-4] + np.array([value], "<f4").tobytes(),
                              False, capsys)
        assert code == 3 and f"{fuzz_root / rel}: channel {channel}" in err

    @pytest.mark.parametrize("command", list(FILES))
    @given(data=st.data())
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cut_or_flipped_input(self, fuzz_root, capsys, command, data):
        rel = data.draw(st.sampled_from(self.FILES[command]))
        blob = cut_and_flip(data, (fuzz_root / rel).read_bytes())
        code, err = self._run(fuzz_root, command, rel, blob, data.draw(st.booleans()), capsys)
        assert code in (0, 3), err
        if code == 3:
            # a flipped sample id in a manifest sends the command to a sample file it cannot read
            named = str(fuzz_root / rel) in err or (rel.endswith("manifest.json")
                                                     and str(fuzz_root / "data/samples") in err)
            # a flipped payload byte can make a finite but huge value, which training reports
            diverged = command == "train" and "non-finite" in err
            assert named or diverged, err
