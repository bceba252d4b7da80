"""Benchmark workloads: the evgrid CLI stages each one runs, and why.

Every stage is one ``evgrid`` command run with the work directory as its
current directory, so the paths in ``argv`` are relative to it. Every stage
also receives ``--seed <workload seed>`` and the workload's ``--set``
overrides; the program sees only the inputs these generate.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Stage:
    kind: str  # gen | rayism | train | infer | eval; names the validation and the metrics
    argv: tuple[str, ...]
    out: str  # directory the stage writes, relative to the work directory

    @property
    def label(self) -> str:
        """Unique name of the stage within its workload (two train stages differ by model)."""
        if self.kind == "train":
            return f"train-{self.argv[self.argv.index('--model') + 1]}"
        return self.kind


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_scenes: int
    side_cells: int
    epochs: int
    extra: tuple[str, ...]  # further --set overrides beyond scenes, cells and epochs
    stages: tuple[Stage, ...]

    def overrides(self) -> list[str]:
        return [f"sim.n_scenes={self.n_scenes}", f"sim.side_cells={self.side_cells}",
                f"train.epochs={self.epochs}", *self.extra]

    def argv(self, stage: Stage, seed: int) -> list[str]:
        sets = [arg for item in self.overrides() for arg in ("--set", item)]
        return [*stage.argv, "--seed", str(seed), *sets]


def _stage(kind: str, cmdline: str) -> Stage:
    argv = tuple(cmdline.split())
    return Stage(kind, argv, argv[argv.index("--out") + 1])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pipeline-32",
        why="the paper's full loop at the bench config; MC-dropout forwards in net dominate, "
            "so batched or tape-free inference shows here",
        n_scenes=100, side_cells=32, epochs=2, extra=("train.mc_samples=30",),
        stages=(
            _stage("gen", "gen --out data"),
            _stage("rayism", "rayism --dataset data --out ray"),
            _stage("train", "train --dataset data --model ev --out model-ev"),
            _stage("infer", "infer --checkpoint model-ev/checkpoint.ckpt --dataset data "
                            "--mode ev-s --out ev-s"),
            _stage("eval", "eval ray ev-s --dataset data --out scores"),
        ),
    ),
    Workload(
        name="ism-64",
        why="dense detections on a 64-cell grid and no net code, so batched Ray-ISM shows "
            "here and net changes should show no change",
        n_scenes=100, side_cells=64, epochs=2,
        extra=("sim.detection_prob=0.7", "sim.max_detections=128", "sim.clutter_rate=8"),
        stages=(
            _stage("gen", "gen --out data"),
            _stage("rayism", "rayism --dataset data --out ray"),
            _stage("eval", "eval ray --dataset data --out scores"),
        ),
    ),
    Workload(
        name="train-64",
        why="multi-frame LiDAR gen and forward plus backward at batch 8 for both heads, "
            "so conv changes that slow backward or Adam show here",
        n_scenes=60, side_cells=64, epochs=2, extra=("sim.frames=3",),
        stages=(
            _stage("gen", "gen --out data"),
            _stage("train", "train --dataset data --model ev --out model-ev"),
            _stage("train", "train --dataset data --model soft --out model-soft"),
        ),
    ),
)}
