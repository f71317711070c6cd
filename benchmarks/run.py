#!/usr/bin/env python3
"""Benchmark of the fracwave command line.

    python3 benchmarks/run.py --workload field --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; fracwave is imported from `src/`.

--trace 0 (end to end): each command of the workload runs as a fresh
`python -m fracwave.cli` child process, as a user runs it.  Passes over the
command list repeat until --seconds is spent (at least one).  Set-up is timed
separately, several times.  Reports wall_s, points_per_s, setup_s and
peak_rss_mb.

--trace 1 (per layer): a child process replays the same argv in-process
through fracwave.cli.main with span wrappers installed (tracer.py), and the
per-layer metrics are computed from the spans.  A second, plain replay in its
own child process gives the tracing overhead.

Every output is checked against references computed here (workloads.py).
The last line of stdout is the JSON result; the lines before it are a
readable summary: machine facts, each metric with its unit, error_rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"  # temporary files, inside the checkout
SETUP_SAMPLES = 7
# children still running this long after start are killed, so that a run with
# a hung command still ends, and reports it, within the 180 s a run may take
RUN_LIMIT_S = 165.0
START = time.monotonic()
# BLAS is pinned to one thread: the residual matmuls are a small share of any
# workload, and one thread keeps them clear of contention between BLAS threads
BLAS_THREADS = 1
SETUP_SNIPPET = "import sys, fracwave.cli as cli\nfor p in sys.argv[1:]: cli.load_problem_file(p)"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metric: (unit, wrapped attributes it needs)
LAYER_METRICS = {
    "solver.evaluate_many_s": ("s", ["ClosedFormSolution.evaluate_many"]),
    "solver.evaluate_many_self_s": ("s", ["ClosedFormSolution.evaluate_many"]),
    "solver.points": ("count", ["ClosedFormSolution.evaluate_many"]),
    "solver.integrand_evals_per_point": ("evals/point", ["ClosedFormSolution.evaluate_many", "solver.evaluate"]),
    "expr.evaluate_s": ("s", ["solver.evaluate", "verify.evaluate"]),
    "expr.evaluate_calls": ("count", ["solver.evaluate", "verify.evaluate"]),
    "expr.evaluate_points": ("count", ["solver.evaluate", "verify.evaluate"]),
    "expr.ns_per_point": ("ns", ["solver.evaluate", "verify.evaluate"]),
    "fracops.grid_operator_matrix_s": ("s", ["verify.grid_operator_matrix"]),
    "fracops.grid_operator_matrix_calls": ("count", ["verify.grid_operator_matrix"]),
    "fracops.grid_operator_distinct_ratio": ("ratio", ["verify.grid_operator_matrix"]),
    "verify.pde_residual_s": ("s", ["cli.pde_residual"]),
    "verify.pde_residual_self_s": ("s", ["cli.pde_residual", "ClosedFormSolution.evaluate_many",
                                         "verify.grid_operator_matrix"]),
    "verify.check_initial_conditions_s": ("s", ["cli.check_initial_conditions"]),
    "verify.compare_candidate_forms_s": ("s", ["cli.compare_candidate_forms"]),
    "verify.route_equivalence_s": ("s", ["cli.route_equivalence"]),
    "cli.write_field_csv_s": ("s", ["cli.write_field_csv"]),
    "cli.csv_bytes": ("bytes", []),
    "cli.load_problem_file_s": ("s", ["cli.load_problem_file"]),
    "cli.import_s": ("s", []),
    "trace.wall_s": ("s", []),
    "trace.overhead_s": ("s", []),
    "trace.unattributed_s": ("s", []),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


@contextmanager
def workdir():
    """A temporary directory inside the checkout, removed on exit."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_child(argv: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run argv to completion; return (wall seconds, exit code, max RSS in MB).

    os.wait4 reaps the child itself so that its own rusage is read; a timer
    kills a child still running RUN_LIMIT_S after the benchmark started."""
    lock = threading.Lock()
    reaped = False
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)

        def kill() -> None:
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(max(0.0, START + RUN_LIMIT_S - time.monotonic()), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            with lock:
                reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def log_tail(path: Path) -> str:
    return path.read_text(errors="replace")[-2000:] if path.is_file() else ""


# --- end-to-end run ----------------------------------------------------------------


def measure_setup(wl: workloads.Workload, env: dict) -> list[float]:
    """Fresh interpreter + `import fracwave.cli` + load_problem_file on the
    workload's problems; one untimed warm-up, then SETUP_SAMPLES timings."""
    samples = []
    with workdir() as wd:
        argv = [sys.executable, "-c", SETUP_SNIPPET, *map(str, wl.write_problems(wd))]
        for i in range(SETUP_SAMPLES + 1):
            elapsed, code, _ = run_child(argv, env, wd / "setup.log")
            if code != 0:
                raise RuntimeError(f"set-up exited with {code}:\n{log_tail(wd / 'setup.log')}")
            if i:
                samples.append(elapsed)
    return samples


def end_to_end(wl: workloads.Workload, env: dict, seconds: float) -> tuple[dict, int, int]:
    setup = measure_setup(wl, env)
    walls, peaks, verified = [], [], set()
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        with workdir() as wd:
            wl.write_problems(wd)
            pass_start = time.perf_counter()
            runs = [run_child([sys.executable, "-m", "fracwave.cli", *cmd.argv(wd)], env, wd / f"{i}.log")
                    for i, cmd in enumerate(wl.commands)]
            walls.append(time.perf_counter() - pass_start)
            peaks.append(max(rss for _, _, rss in runs))
            for i, (cmd, (_, code, _)) in enumerate(zip(wl.commands, runs)):
                attempted += 1
                failure = workloads.check(cmd, code, wd, verified)
                if failure:
                    failed += 1
                    print(f"FAILED {cmd.kind} {cmd.problem.name}: {failure}\n{log_tail(wd / f'{i}.log')}",
                          file=sys.stderr)
        if time.perf_counter() - start + statistics.mean(walls) > seconds:
            break
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "points_per_s": (wl.points / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    print(f"{wl.name}: {len(wl.commands)} commands, {wl.points} solution points per pass; "
          f"medians over {len(walls)} passes and {len(setup)} set-ups")
    print(f"  pass walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    return metrics, attempted, failed


# --- traced run --------------------------------------------------------------------


def traced(wl: workloads.Workload, env: dict, seed: int) -> tuple[dict, int, int]:
    """Replay the workload in-process, plain and then traced, each in a fresh
    child process; check the outputs of both replays."""
    replays, attempted, failed, verified = {}, 0, 0, set()
    with workdir() as wd:
        wl.write_problems(wd)
        (wd / "spec.json").write_text(json.dumps({"argvs": [cmd.argv(wd) for cmd in wl.commands]}))
        for mode in ("plain", "traced"):
            _, code, _ = run_child([sys.executable, str(HERE / "tracer.py"), mode, str(wd / "spec.json"),
                                    str(wd / f"{mode}.json")], env, wd / f"{mode}.log")
            if code != 0:
                raise RuntimeError(f"{mode} replay exited with {code}:\n{log_tail(wd / f'{mode}.log')}")
            sys.stderr.write(log_tail(wd / f"{mode}.log"))
            replays[mode] = json.loads((wd / f"{mode}.json").read_text())
            for cmd, code in zip(wl.commands, replays[mode]["codes"]):
                attempted += 1
                failure = workloads.check(cmd, code, wd, verified)
                if failure:
                    failed += 1
                    print(f"FAILED {mode} {cmd.kind} {cmd.problem.name}: {failure}", file=sys.stderr)
        csv_bytes = sum((wd / cmd.out).stat().st_size for cmd in wl.commands
                        if cmd.kind == "solve" and (wd / cmd.out).is_file())
    trace = replays["traced"]
    trace["plain_wall_s"] = replays["plain"]["wall_s"]
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{wl.name}-seed{seed}.json").write_text(json.dumps(trace))
    metrics = layer_metrics(trace, csv_bytes)
    print(f"{wl.name}: in-process replay of {len(wl.commands)} commands, plain and traced; "
          f"spans in {traces.relative_to(ROOT)}/{wl.name}-seed{seed}.json")
    if "solver.points" in metrics and metrics["solver.points"][0] != wl.points:
        print(f"note: solver.points = {metrics['solver.points'][0]}, "
              f"the workload states {wl.points}")
    return metrics, attempted, failed


def layer_metrics(trace: dict, csv_bytes: int) -> dict:
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]

    def pick(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name):
        return sum((spans[i]["end"] - spans[i]["start"] for i in pick(name)), 0.0)

    def self_time(name):
        return sum((spans[i]["end"] - spans[i]["start"] - child[i] for i in pick(name)), 0.0)

    def points(name, parent=None):
        return sum(spans[i].get("points", 0) for i in pick(name)
                   if parent is None or (spans[i]["parent"] is not None
                                         and spans[spans[i]["parent"]]["name"] == parent))

    solver_points = points("solver.evaluate_many")
    expr_points = points("expr.evaluate")
    expr_s = total("expr.evaluate")
    ops = [tuple(spans[i]["key"]) for i in pick("fracops.grid_operator_matrix")]
    values = {
        "solver.evaluate_many_s": total("solver.evaluate_many"),
        "solver.evaluate_many_self_s": self_time("solver.evaluate_many"),
        "solver.points": solver_points,
        "solver.integrand_evals_per_point":
            points("expr.evaluate", "solver.evaluate_many") / solver_points if solver_points else 0.0,
        "expr.evaluate_s": expr_s,
        "expr.evaluate_calls": len(pick("expr.evaluate")),
        "expr.evaluate_points": expr_points,
        "expr.ns_per_point": expr_s / expr_points * 1e9 if expr_points else 0.0,
        "fracops.grid_operator_matrix_s": total("fracops.grid_operator_matrix"),
        "fracops.grid_operator_matrix_calls": len(ops),
        "fracops.grid_operator_distinct_ratio": len(set(ops)) / len(ops) if ops else 0.0,
        "verify.pde_residual_s": total("cli.pde_residual"),
        "verify.pde_residual_self_s": self_time("cli.pde_residual"),
        "verify.check_initial_conditions_s": total("cli.check_initial_conditions"),
        "verify.compare_candidate_forms_s": total("cli.compare_candidate_forms"),
        "verify.route_equivalence_s": total("cli.route_equivalence"),
        "cli.write_field_csv_s": total("cli.write_field_csv"),
        "cli.csv_bytes": csv_bytes,
        "cli.load_problem_file_s": total("cli.load_problem_file"),
        "cli.import_s": trace["import_s"],
        "trace.wall_s": trace["wall_s"],
        "trace.overhead_s": trace["wall_s"] - trace["plain_wall_s"],
        "trace.unattributed_s": self_time("cli.main"),
    }
    absent = set(trace["absent"])
    metrics = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        if absent.intersection(needs):
            print(f"warning: {name} is absent: {', '.join(sorted(absent.intersection(needs)))} "
                  f"not found", file=sys.stderr)
        else:
            metrics[name] = (values[name], unit)
    return metrics


# --- facts and entry point ------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_revision": git_revision(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="0 reproduces problems/")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced grids, for the benchmark's own test")
    args = parser.parse_args()
    if not (ROOT / "src" / "fracwave" / "cli.py").is_file():
        print(f"error: no fracwave source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed, args.small)
    env = child_env()
    print("facts " + json.dumps(machine_facts(args.seed)))
    if args.trace:
        metrics, attempted, failed = traced(wl, env, args.seed)
    else:
        metrics, attempted, failed = end_to_end(wl, env, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value!r} {unit}")
    print(f"  {'error_rate':36s} {failed / attempted!r} ratio ({failed} of {attempted} commands)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
