"""Batch command-line front end.

Subcommands: gen, rayism, train, infer, eval, render. Every command is
reproducible from (config, seed). Each but render builds its --out directory
aside, echoes the effective configuration into it, and swaps it in whole when
it succeeds; a failed or interrupted run leaves --out as it was. Exit codes:
0 ok, 1 usage, 2 config, 3 runtime (an allocation failure included),
130 interrupted (Ctrl-C), 143 terminated (SIGTERM).
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

import numpy as np

from evgrid import config as cfgmod
from evgrid.errors import ConfigError, DomainError, EvgridError, output_dir, write_atomic
from evgrid.grid import BELIEF_CHANNELS, Grid2D, read_grid, render_pgm, render_ppm, write_grid
from evgrid.net.train import mc_predict, train
from evgrid.net.unet import load_checkpoint
from evgrid.parallel import map_scenes
from evgrid.rayism import ray_ism_scene
from evgrid.scores import ScoreAccumulator, render_table
from evgrid.sim import corner_sensor_poses, load_manifest, read_detections, read_sample_grid, write_dataset

EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_RUNTIME, EXIT_INTERRUPTED, EXIT_TERMINATED = 0, 1, 2, 3, 130, 143


class Terminated(KeyboardInterrupt):
    """A SIGTERM, raised in the main thread so that it unwinds as Ctrl-C does: the
    staging directory is deleted and map_scenes ends its workers."""


def _terminate(signum, frame):
    raise Terminated


def _keep_freed_heap() -> bool:
    """Keep freed heap memory in this process, in one arena; True when the policy is set.

    By default glibc serves numpy's 0.1-4 MB temporaries with mmap and trims
    the heap top on free, so every new array page-faults its memory back in.
    With the mmap threshold at its 64-bit maximum (32 MiB) and the trim
    threshold above any evgrid heap (256 MiB), freed arrays reuse memory that
    is already mapped. Setting either threshold alone turns off glibc's
    dynamic tuning and is slower than the default, so a refused first call
    stops here. A second thread (train's second half batch) would get an
    arena of its own, and the policy would keep the pages of both, so glibc
    keeps one arena for every thread. Where the C library has no mallopt this
    does nothing. Workers that map_scenes forks later inherit the policy.
    """
    import ctypes  # here, so that importing evgrid.cli sets nothing

    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8  # glibc's parameter numbers
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):  # a C library without mallopt, or no handle on it
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(m_mmap_threshold, 32 << 20) == 1 and mallopt(m_trim_threshold, 256 << 20) == 1
            and mallopt(m_arena_max, 1) == 1)


def _one_blas_thread() -> int | None:
    """Run OpenBLAS on one thread; the count it reports afterwards, or None without OpenBLAS.

    train's two half-batch threads are the parallelism: OpenBLAS's own
    threads would compete with them for the two CPUs and make each step
    slower. OPENBLAS_NUM_THREADS is read only when numpy loads the library,
    so the count is set in the library that /proc/self/maps names.
    """
    import ctypes  # here, so that importing evgrid.cli sets nothing

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                getter.argtypes, getter.restype = (), ctypes.c_int
                setter(1)
                return int(getter())
    return None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config document")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config value")
    common.add_argument("--seed", type=int, help="override the master seed")

    parser = argparse.ArgumentParser(prog="evgrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--out", required=True)

    p = sub.add_parser("rayism", parents=[common], help="run Ray-ISM over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", parents=[common], help="train Soft-Net or Ev-Net")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", choices=["soft", "ev"])

    p = sub.add_parser("infer", parents=[common], help="write predicted grids")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", required=True, choices=["soft", "ev", "ev-s"])
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", parents=[common], help="score prediction directories")
    p.add_argument("pred_dirs", nargs="+")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("render", help="render a grid file to PPM/PGM")
    p.add_argument("grid_file")
    p.add_argument("out_image")
    return parser


def _sample_ids(manifest: dict, split: str) -> list[str]:
    if split == "all":
        return sorted(sid for ids in manifest["splits"].values() for sid in ids)
    return list(manifest["splits"][split])


def cmd_gen(args, cfg: dict, out: Path) -> int:
    write_dataset(
        n_scenes=cfg["sim"]["n_scenes"],
        spec=cfgmod.grid_spec(cfg),
        out_dir=out,
        master_seed=cfg["master_seed"],
        cfg=cfgmod.sim_config(cfg),
    )
    return EXIT_OK


def _write_beliefs(dataset, out: Path, predict) -> None:
    """Write ``predict(sid, radar)``, a (3, H, W) belief array, as ``<out>/<sid>.grid`` on the
    spec and origin of the sample's radar grid, for every sample of every split, in the scene pool.
    A radar grid that is not the manifest's (2, side, side) fails, naming the file."""
    manifest = load_manifest(dataset)
    side = manifest["grid"]["side_cells"]

    def write_scene(sid: str) -> None:
        radar = read_sample_grid(Path(dataset) / "samples" / sid / "radar.grid", (2, side, side))
        write_grid(out / f"{sid}.grid", Grid2D(radar.spec, predict(sid, radar), BELIEF_CHANNELS, radar.origin))

    map_scenes(write_scene, _sample_ids(manifest, "all"))


def cmd_rayism(args, cfg: dict, out: Path) -> int:
    rcfg = cfgmod.rayism_config(cfg)

    def predict(sid: str, radar: Grid2D) -> np.ndarray:
        # every sensor id names a corner radar
        dets = read_detections(Path(args.dataset) / "samples" / sid / "detections.jsonl")
        return ray_ism_scene(dets, corner_sensor_poses(radar.origin), radar.spec, rcfg, ego=radar.origin).data

    _write_beliefs(args.dataset, out, predict)
    return EXIT_OK


def cmd_train(args, cfg: dict, out: Path) -> int:
    train(args.dataset, cfgmod.train_config(cfg), out_dir=out)
    return EXIT_OK


def cmd_infer(args, cfg: dict, out: Path) -> int:
    params, spec, _header = load_checkpoint(args.checkpoint)  # a bad checkpoint fails before any fork
    tcfg = cfgmod.train_config(cfg)

    def predict(sid: str, radar: Grid2D) -> np.ndarray:
        rng = np.random.default_rng([cfg["master_seed"], int(sid)])
        try:
            return mc_predict(params, spec, radar.data, tcfg.mc_samples, args.mode, rng, tcfg.percentile)
        except DomainError as exc:  # a network whose output overflows, e.g. a huge weight
            raise EvgridError(f"{args.checkpoint}: scene {sid}: {exc}") from exc

    _write_beliefs(args.dataset, out, predict)
    return EXIT_OK


def cmd_eval(args, cfg: dict, out: Path) -> int:
    split = cfg["eval"]["split"]
    ids = _sample_ids(load_manifest(args.dataset), split)
    pdirs = [Path(pred_dir) for pred_dir in args.pred_dirs]
    accs = [ScoreAccumulator() for _ in pdirs]
    for sid in ids:
        sdir = Path(args.dataset) / "samples" / sid
        target = read_grid(sdir / "target.grid").data
        mask = read_grid(sdir / "mask.grid").data[0]
        for pdir, acc in zip(pdirs, accs):
            pred_path = pdir / f"{sid}.grid"
            pred = read_grid(pred_path).data
            try:
                acc.add(pred, target, mask)
            except DomainError as exc:  # e.g. a prediction on another grid size
                raise EvgridError(f"{pred_path}: {exc}") from exc
    tables = []
    for pdir, acc in zip(pdirs, accs):
        table = acc.table()
        for (region, target_class), n in table.counts.items():
            if n == 0:
                print(f"eval: {pdir.name}: no {target_class} target cells in the {region} region "
                      f"of split {split!r}; those scores are empty", file=sys.stderr)
        tables.append((pdir.name, table))
    text, csv_out = render_table(tables)
    write_atomic(out / "scores.txt", text, "score table")
    write_atomic(out / "scores.csv", csv_out, "score table")
    sys.stdout.write(text)
    return EXIT_OK


def cmd_render(args) -> int:
    grid = read_grid(args.grid_file)
    if Path(args.out_image).suffix == ".pgm" or grid.data.shape[0] == 1:
        blob = render_pgm(grid.data[0])
    else:
        try:
            blob = render_ppm(grid)
        except DomainError as exc:  # e.g. a radar grid of 2 channels
            raise EvgridError(f"{args.grid_file}: {exc}") from exc
    write_atomic(args.out_image, blob, "image")
    return EXIT_OK


_COMMANDS = {
    "gen": cmd_gen,
    "rayism": cmd_rayism,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    _one_blas_thread()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        return EXIT_USAGE
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.command == "render":  # reads no config and writes one file
            return cmd_render(args)
        # --seed and train's --model act as the last --set overrides
        flags = [] if args.seed is None else [f"master_seed={args.seed}"]
        flags += [f"train.model={args.model}"] if getattr(args, "model", None) else []
        cfg = cfgmod.load_config(args.config, args.overrides + flags)
        inputs = [getattr(args, name) for name in ("dataset", "checkpoint") if hasattr(args, name)]
        with output_dir(args.out, inputs + getattr(args, "pred_dirs", [])) as out:
            cfgmod.echo_config(cfg, out)
            return _COMMANDS[args.command](args, cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EvgridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # also one that a scene worker raised
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Terminated:
        print("terminated", file=sys.stderr)
        return EXIT_TERMINATED
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:  # main also runs in-process, under a caller's own handler
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
