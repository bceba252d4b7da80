"""Benchmark of the evgrid pipeline, one workload per run.

    python3 bench/run.py --workload pipeline-32 --seed 1 --seconds 40 --trace 0

``--trace 0`` runs every stage as its own ``python -m evgrid.cli`` process,
as a user does, repeating the workload for ``--seconds``, and reports the
end-to-end metrics (medians over the passes). ``--trace 1`` runs the stages
inside this process, an untimed warm-up pass and then untraced and traced
passes in turn, and reports the per-layer metrics of the traced passes plus
the tracing overhead.

Every stage's outputs are validated and digested after it runs, and a pass
whose digests differ from the first pass's counts as failed. The output is
human-readable lines, then one JSON line {correct, attempted, failed,
metrics} holding exactly the metrics BENCHMARK.json declares for the mode.
The full record goes to bench/out/. Exit status: 0 when every stage ran and
validated, 1 when one failed, 2 when the evgrid sources are missing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import machine
import spans
import validate
from workloads import WORKLOADS, Stage, Workload

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_PROBES = 5  # spread over the first stages, so they sample more than one moment
PROBE = [sys.executable, "-c", "import evgrid.cli"]
DEADLINE_S = 170.0  # a run must end within 180 s; stages still running then are killed
E2E_UNITS = {
    "wall_s": "s", "setup_s": "s", "gen_scenes_per_s": "1/s", "rayism_scenes_per_s": "1/s",
    "train_samples_per_s": "1/s", "infer_scenes_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MB", "failed_frac": "ratio",
}


@dataclass
class StageRun:
    label: str
    kind: str
    code: int
    wall_s: float
    cpu_s: float | None = None
    rss_mb: float | None = None
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    stderr: str = ""

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def _reset(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)


def _finish(wl: Workload, stage: Stage, work: Path, run: StageRun) -> StageRun:
    run.problems = validate.check_stage(wl, stage, work)
    run.digest = validate.digest(work / stage.out)
    return run


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], cwd: Path, env: dict, label: str, kind: str) -> StageRun:
    """Run one process to completion; wall, CPU and peak RSS come from wait4."""
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - STARTED))
    with open(cwd / ".stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read()[-2000:].decode(errors="replace")
    return StageRun(label, kind, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, stderr=tail)


def subprocess_pass(wl: Workload, seed: int, work: Path, env: dict,
                    probes: list[StageRun]) -> list[StageRun]:
    """One pass of the workload; set-up probes go before stages until there are enough."""
    _reset(work)
    runs = []
    for stage in wl.stages:
        if len(probes) < SETUP_PROBES:
            probes.append(run_child(PROBE, work, env, "setup", "setup"))
        argv = [sys.executable, "-m", "evgrid.cli", *wl.argv(stage, seed)]
        runs.append(_finish(wl, stage, work, run_child(argv, work, env, stage.label, stage.kind)))
    return runs


def inprocess_pass(wl: Workload, seed: int, work: Path, tracer=None) -> list[StageRun]:
    from evgrid import cli

    _reset(work)
    runs = []
    home = os.getcwd()
    os.chdir(work)
    try:
        for stage in wl.stages:
            err = io.StringIO()
            span = tracer.span(f"cli.{stage.kind}") if tracer else nullcontext()
            start = time.perf_counter()
            with redirect_stdout(io.StringIO()), redirect_stderr(err), span:
                try:
                    code = cli.main(wl.argv(stage, seed))
                except Exception:  # a program bug: record it and go on with the pass
                    code = -1
                    err.write(traceback.format_exc())
            run = StageRun(stage.label, stage.kind, code, time.perf_counter() - start,
                           stderr=err.getvalue()[-2000:])
            runs.append(_finish(wl, stage, work, run))
    finally:
        os.chdir(home)
    return runs


def _wall(runs: list[StageRun], kind: str) -> float:
    return sum(r.wall_s for r in runs if r.kind == kind)


def pass_metrics(wl: Workload, runs: list[StageRun], n_train: int) -> dict[str, float]:
    """End-to-end metrics of one subprocess pass; stage throughputs where the stage ran."""
    kinds = {r.kind for r in runs}
    m = {
        "wall_s": sum(r.wall_s for r in runs),
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "gen_scenes_per_s": wl.n_scenes / _wall(runs, "gen"),
    }
    for kind in ("rayism", "infer"):
        if kind in kinds:
            m[f"{kind}_scenes_per_s"] = wl.n_scenes / _wall(runs, kind)
    if "train" in kinds:
        n_trains = sum(1 for r in runs if r.kind == "train")
        m["train_samples_per_s"] = n_trains * n_train * wl.epochs / _wall(runs, "train")
    return m


def _n_train(work: Path) -> int:
    try:
        return len(validate.load_manifest(work / "data")["splits"]["train"])
    except (OSError, ValueError, KeyError):
        return 0


def _repeat(one_pass, seconds: float, t0: float) -> list:
    """Run passes until the next one would end ``seconds`` after ``t0`` (at least one)."""
    passes, durations = [], []
    while True:
        p0 = time.perf_counter()
        passes.append(one_pass())
        durations.append(time.perf_counter() - p0)
        now = time.perf_counter()
        expected = statistics.median(durations)
        if now - t0 + expected > seconds or now - STARTED + expected > DEADLINE_S:
            return passes


def _check_determinism(passes: list[list[StageRun]]) -> None:
    """Same code and seed must give the same bytes; a differing stage fails."""
    first = {r.label: r.digest for r in passes[0]}
    for runs in passes[1:]:
        for r in runs:
            if r.digest != first[r.label]:
                r.problems.append(f"outputs differ from the first pass: {r.digest}")


def _medians(dicts: list[dict]) -> dict[str, float]:
    keys = dict.fromkeys(k for d in dicts for k in d)
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


def measure_untraced(wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    env = _child_env()
    work.mkdir(parents=True, exist_ok=True)
    run_child(PROBE, work, env, "setup", "setup")  # fills the bytecode cache, untimed
    setup: list[StageRun] = []
    per_pass = []

    def one_pass():
        runs = subprocess_pass(wl, seed, work / "pass", env, setup)
        per_pass.append(pass_metrics(wl, runs, _n_train(work / "pass")))
        return runs

    passes = _repeat(one_pass, seconds, time.perf_counter())
    metrics = _medians(per_pass)
    while len(setup) < SETUP_PROBES:
        setup.append(run_child(PROBE, work, env, "setup", "setup"))
    metrics["setup_s"] = statistics.median(s.wall_s for s in setup)
    return {"passes": passes, "probes": setup, "metrics": metrics, "per_pass": per_pass}


def measure_traced(wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import evgrid.cli  # noqa: F401  (the modules must be loaded before they are wrapped)

    per_pass, walls = [], {"untraced": [], "traced": []}
    start = time.perf_counter()
    # Untimed: the first in-process pass is slower (allocator growth, first
    # calls), which would otherwise read as negative tracing overhead.
    warmup = inprocess_pass(wl, seed, work)

    def one_pair():
        traced_first = len(per_pass) % 2 == 1  # alternate, so drift does not favour one side
        pair = {}
        for traced in (traced_first, not traced_first):
            tracer = spans.Tracer() if traced else None
            with spans.installed(tracer) if traced else nullcontext():
                pair[traced] = inprocess_pass(wl, seed, work, tracer)
            walls["traced" if traced else "untraced"].append(sum(r.wall_s for r in pair[traced]))
            if traced:
                per_pass.append(spans.layer_metrics(tracer))
        return pair[False], pair[True]

    passes = [warmup] + [runs for pair in _repeat(one_pair, seconds, start) for runs in pair]
    metrics = _medians(per_pass)
    metrics["trace.untraced_wall_s"] = statistics.median(walls["untraced"])
    metrics["trace.traced_wall_s"] = statistics.median(walls["traced"])
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return {"passes": passes, "probes": [], "metrics": metrics, "per_pass": per_pass,
            "walls": walls}


def unit(name: str, trace: bool) -> str:
    return spans.unit(name) if trace else E2E_UNITS[name]


def _report(wl, args, result, declared, record_path) -> dict:
    passes = result["passes"]
    runs = [r for p in passes for r in p]
    attempted = len(runs) + len(result["probes"])
    failed = sum(r.failed for r in runs + result["probes"])
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["failed_frac"] = failed / attempted
    print(f"workload {wl.name} (seed {args.seed}, trace {args.trace}): {len(passes)} passes, "
          f"{attempted} runs attempted, {failed} failed; record {record_path.relative_to(ROOT)}")
    for label in dict.fromkeys(r.label for r in runs):
        mine = [r for r in runs if r.label == label]
        print(f"  stage {label:<11} wall_s median {statistics.median(r.wall_s for r in mine):8.4f}"
              f"  sha256 {mine[0].digest[:16]}")
        for r in mine:
            for problem in r.problems:
                print(f"    FAILED check: {problem}")
            if r.code != 0:
                print(f"    FAILED exit {r.code}: {r.stderr.strip()[-500:]}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:14.6f} {unit(name, args.trace)}")
    names = [d["name"] for d in declared]
    missing = [n for n in names if n not in metrics]
    if missing and not failed:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    for d in declared:
        if unit(d["name"], args.trace) != d["unit"]:
            raise RuntimeError(f"unit of {d['name']} is {unit(d['name'], args.trace)}, "
                               f"BENCHMARK.json says {d['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit(n, args.trace)}
                    for n in names if n in metrics},
    }


def _runrecord(run: StageRun) -> dict:
    return {k: v for k, v in vars(run).items() if k != "stderr" or run.failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "evgrid" / "cli.py").is_file():
        print(f"bench: no evgrid sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    load_before = os.getloadavg()
    try:
        measure = measure_traced if args.trace else measure_untraced
        result = measure(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _check_determinism(result["passes"])

    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "argv": [wl.argv(s, args.seed) for s in wl.stages],
        "machine": {**machine.describe(ROOT), "loadavg_before": load_before,
                    "loadavg_after": os.getloadavg()},
        "passes": [[_runrecord(r) for r in p] for p in result["passes"]],
        "probes": [_runrecord(r) for r in result["probes"]],
        **{k: v for k, v in result.items() if k not in ("passes", "probes")},
    }
    record_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    line = _report(wl, args, result, declared, record_path)
    record["result"] = line
    OUT.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
