"""Run one workload of the drowse benchmark and print its metrics.

    python3 perfbench/run.py --workload loso --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the program under test is the drowse
package in ./src. The workload's inputs are built from --seed by a fresh
interpreter (set-up, timed several times), then rounds of the workload's
drowse commands run as separate processes until --seconds would be
exceeded. Every round's outputs are checked. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

--trace 1 runs the per-layer suite (layers.py) instead and writes its spans
to perfbench/out/. The program's own settings are left alone: no BLAS or
thread variable is set, and every flag not named here keeps its default.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


@dataclass
class CommandResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float


def program_env() -> dict:
    """The caller's environment with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list, cwd: Path, log) -> CommandResult:
    """Run argv to completion and read its usage from wait4.

    The usage covers the process and every descendant it waited for, so
    pool workers count; ru_maxrss is the largest single process of that
    tree, not a sum.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=program_env(), stdout=log,
                            stderr=subprocess.STDOUT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024.0)


def run_drowse(args: list, cwd: Path, log) -> CommandResult:
    return run_process([sys.executable, "-m", "drowse", *args], cwd, log)


def measure_setup(workload: str, seed: int, workdir: Path, log) -> list:
    """Wall times of SETUP_REPEATS fresh-interpreter input builds."""
    times = []
    for _ in range(SETUP_REPEATS):
        result = run_process([sys.executable, str(HERE / "build_inputs.py"), "--workload",
                              workload, "--seed", str(seed), "--dir", str(workdir)], ROOT, log)
        if result.exit_code != 0:
            raise RuntimeError(f"building the {workload} inputs failed; see {log.name}")
        times.append(result.wall_s)
    return times


END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
                    "accuracy": "fraction", "setup_s": "s"}


def end_to_end_metrics(walls, cpus, rss, accuracies, setups) -> dict:
    """One value per metric from the per-round figures.

    wall_s and cpu_s are the median round, peak_rss_mb the largest round,
    setup_s the median set-up, and accuracy the mean over rounds, which
    train with different seeds.
    """
    values = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
              "peak_rss_mb": max(rss),
              "accuracy": statistics.fmean(accuracies), "setup_s": statistics.median(setups)}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def run_workload(workload: str, seed: int, seconds: float, workdir: Path, log) -> dict:
    """Set up, then run whole rounds until another would end past seconds."""
    import workloads

    setups = measure_setup(workload, seed, workdir, log)
    walls, cpus, rss, accuracies, problems = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    round_index = 0
    while True:
        results = [run_drowse(argv, workdir, log)
                   for argv in workloads.round_commands(workload, seed, round_index)]
        attempted += len(results)
        failed += sum(r.exit_code != 0 for r in results)
        walls.append(sum(r.wall_s for r in results))
        cpus.append(sum(r.cpu_s for r in results))
        rss.append(max(r.peak_rss_mib for r in results))
        accuracy, found = workloads.check_round(workload, seed, round_index, workdir)
        accuracies.append(accuracy)
        problems += [f"round {round_index}: {p}" for p in found]
        round_index += 1
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    problems += workloads.check_run(workload, workdir)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{workload}: {round_index} rounds, wall_s per round "
          + " ".join(f"{w:.2f}" for w in walls) + "; cpu_s per round "
          + " ".join(f"{c:.2f}" for c in cpus), file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": end_to_end_metrics(walls, cpus, rss, accuracies, setups)}


def main(argv=None) -> int:
    if not (SRC / "drowse" / "__init__.py").is_file():
        print(f"error: no drowse package under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with open(workdir / "commands.log", "w") as log:
            if args.trace:
                import layers

                result = layers.run(args.workload, args.seed, workdir,
                                    lambda argv, cwd: run_drowse(argv, cwd, log),
                                    OUT / f"trace-{args.workload}-seed{args.seed}.json")
            else:
                result = run_workload(args.workload, args.seed, args.seconds, workdir, log)
    except Exception:
        print(f"error: run failed; commands' output kept in {workdir}", file=sys.stderr)
        raise
    shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
