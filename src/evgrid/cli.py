"""Batch command-line front end.

Subcommands: gen, rayism, train, infer, eval, render. Every command is
reproducible from (config, seed) and echoes the effective configuration
into its output directory. Exit codes: 0 ok, 1 usage, 2 config, 3 runtime.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from evgrid import config as cfgmod
from evgrid.errors import ConfigError, DomainError, EvgridError, write_atomic
from evgrid.grid import Grid2D, read_grid, render_pgm, render_ppm, write_grid
from evgrid.net.train import mc_predict, train
from evgrid.net.unet import load_checkpoint
from evgrid.rayism import ray_ism_scene
from evgrid.scores import ScoreAccumulator, render_table
from evgrid.sim import corner_sensor_poses, load_manifest, read_detections, write_dataset

EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_RUNTIME = 0, 1, 2, 3


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

    p = sub.add_parser("render", parents=[common], help="render a grid file to PPM/PGM")
    p.add_argument("grid_file")
    p.add_argument("out_image")
    return parser


def _sample_ids(manifest: dict, split: str) -> list[str]:
    if split == "all":
        return sorted(sid for ids in manifest["splits"].values() for sid in ids)
    if split not in manifest["splits"]:
        raise ConfigError(f"unknown split {split!r}")
    return list(manifest["splits"][split])


def cmd_gen(args, cfg: dict) -> int:
    out = Path(args.out)
    cfgmod.echo_config(cfg, out)
    write_dataset(
        n_scenes=cfg["sim"]["n_scenes"],
        spec=cfgmod.grid_spec(cfg),
        out_dir=out,
        master_seed=cfg["master_seed"],
        cfg=cfgmod.sim_config(cfg),
        scene_params=cfgmod.scene_params(cfg),
    )
    return EXIT_OK


def cmd_rayism(args, cfg: dict) -> int:
    manifest = load_manifest(args.dataset)
    out = Path(args.out)
    cfgmod.echo_config(cfg, out)
    rcfg = cfgmod.rayism_config(cfg)
    threshold = cfg["sim"]["dynamic_velocity_threshold"]
    for sid in _sample_ids(manifest, "all"):
        sdir = Path(args.dataset) / "samples" / sid
        radar = read_grid(sdir / "radar.grid")
        det_path = sdir / "detections.jsonl"
        dets = read_detections(det_path)
        try:
            pred = ray_ism_scene(dets, corner_sensor_poses(radar.origin), radar.spec, rcfg,
                                 ego=radar.origin, dynamic_velocity_threshold=threshold)
        except DomainError as exc:  # a detection the scene cannot place, e.g. an unknown sensor_id
            raise EvgridError(f"{det_path}: {exc}") from exc
        write_grid(out / f"{sid}.grid", pred)
    return EXIT_OK


def cmd_train(args, cfg: dict) -> int:
    load_manifest(args.dataset)  # a missing or bad dataset fails before --out exists
    out = Path(args.out)
    cfgmod.echo_config(cfg, out)
    tcfg = cfgmod.train_config(cfg, model=args.model)
    train(args.dataset, tcfg, out_dir=out)
    return EXIT_OK


def cmd_infer(args, cfg: dict) -> int:
    params, spec, _header = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.dataset)
    out = Path(args.out)
    cfgmod.echo_config(cfg, out)
    tcfg = cfgmod.train_config(cfg)
    for sid in _sample_ids(manifest, "all"):
        sdir = Path(args.dataset) / "samples" / sid
        radar = read_grid(sdir / "radar.grid")
        rng = np.random.default_rng([cfg["master_seed"], int(sid)])
        pred = mc_predict(params, spec, radar.data.astype(np.float32), tcfg.mc_samples,
                          args.mode, rng, percentile=tcfg.percentile)
        write_grid(out / f"{sid}.grid",
                   Grid2D(radar.spec, pred, channels=("b_f", "b_o", "u"), origin=radar.origin))
    return EXIT_OK


def cmd_eval(args, cfg: dict) -> int:
    split = cfg["eval"]["split"]
    ids = _sample_ids(load_manifest(args.dataset), split)
    out = Path(args.out)
    cfgmod.echo_config(cfg, out)
    tables = []
    for pred_dir in args.pred_dirs:
        pdir = Path(pred_dir)
        acc = ScoreAccumulator(conflict_guard=cfg["eval"]["conflict_guard"])
        for sid in ids:
            pred_path = pdir / f"{sid}.grid"
            pred = read_grid(pred_path).data
            sdir = Path(args.dataset) / "samples" / sid
            target = read_grid(sdir / "target.grid").data
            mask = read_grid(sdir / "mask.grid").data[0]
            try:
                acc.add(pred, target, mask)
            except DomainError as exc:  # e.g. a prediction on another grid size
                raise EvgridError(f"{pred_path}: {exc}") from exc
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


def cmd_render(args, cfg: dict) -> int:
    grid = read_grid(args.grid_file)
    if Path(args.out_image).suffix == ".pgm" or grid.data.shape[0] == 1:
        blob = render_pgm(grid.data[0])
    else:
        blob = render_ppm(grid)
    write_atomic(args.out_image, blob, "image")
    return EXIT_OK


_COMMANDS = {
    "gen": cmd_gen,
    "rayism": cmd_rayism,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "render": cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        return EXIT_USAGE
    try:
        seed = [] if args.seed is None else [f"master_seed={args.seed}"]
        cfg = cfgmod.load_config(args.config, args.overrides + seed)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EvgridError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
