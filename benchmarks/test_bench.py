"""The benchmark's own test, at reduced sizes (about a minute):

    python3 -m pytest -q benchmarks/test_bench.py

It is not part of the repository's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    return res


def assert_schema(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("base", [workloads.EXAMPLE1, workloads.EXAMPLE2,
                                  workloads.CLASSICAL, workloads.FIRST_ORDER])
def test_seed_zero_reproduces_problem_files(base):
    repo_file = ROOT / "problems" / f"{base.name}.yaml"
    if not repo_file.is_file():
        pytest.skip("no problems/ directory")
    assert yaml.safe_load(workloads.perturb(base, 0, True).to_yaml()) == yaml.safe_load(repo_file.read_text())


def test_seeds_stay_in_band():
    for seed in range(1, 50):
        p = workloads.perturb(workloads.EXAMPLE1, seed, True)
        assert abs(p.alpha - 0.9) <= 0.005 and abs(p.c - 1.0) <= 0.005 and abs(p.g_sin - 1.0) <= 0.02
        assert workloads.perturb(workloads.EXAMPLE1, seed, True) == p
    assert workloads.perturb(workloads.CLASSICAL, 7, True).alpha == 1.0


def test_field_check_rejects_a_wrong_value(tmp_path):
    cmd = workloads.build("field", 3, small=True).commands[0]
    p, (nx, nt) = cmd.problem, cmd.grid
    x = np.tile(np.linspace(0.0, p.x_max, nx), nt)
    t = np.repeat(np.linspace(0.0, p.t_max, nt), nx)
    u = p.exact(x, t)
    for bump, ok in ((0.0, True), (1e-7, False)):
        u[nx * nt // 2] += bump
        rows = "\n".join(f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in zip(x, t, u))
        (tmp_path / cmd.out).write_text("x,t,u\n" + rows + "\n")
        assert (workloads.check(cmd, 0, tmp_path, set()) is None) is ok
    assert workloads.check(cmd, 3, tmp_path, set()) is not None


def test_end_to_end_schema():
    res = result(run("--workload", "advect", "--seed", "2", "--seconds", "1", "--trace", "0", "--small"))
    assert_schema(res["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--small")
    first, second = (result(run(*args))["metrics"] for _ in range(2))
    assert_schema(first, SPEC["per_layer"])
    assert {n: first[n]["value"] for n in COUNTS} == {n: second[n]["value"] for n in COUNTS}
    assert first["solver.points"]["value"] == workloads.build(workload, 5, small=True).points


def test_missing_attribute_makes_its_metrics_absent():
    import run
    import tracer

    spans = tracer.Spans()
    spans.wrap(object(), "pde_residual", "cli.pde_residual", "cli.pde_residual")
    assert spans.absent == ["cli.pde_residual"]
    trace = {"spans": [], "absent": spans.absent, "import_s": 0.2, "wall_s": 1.0, "plain_wall_s": 1.0}
    metrics = run.layer_metrics(trace, 0)
    assert "verify.pde_residual_s" not in metrics and "verify.pde_residual_self_s" not in metrics
    assert "verify.route_equivalence_s" in metrics


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "field", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
