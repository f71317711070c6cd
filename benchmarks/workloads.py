"""Workloads of the fracwave benchmark.

A workload is a list of `fracwave` CLI commands over problem files that are
generated from a seed.  Seed 0 reproduces the files in `problems/`; any other
seed perturbs them within a narrow band (see `perturb`), so that the work per
command stays within about 1 % of the seed-0 work.

The output checks compute their references here, from the closed forms of the
profile family below, with `math.gamma` and NumPy.  They do not call fracwave.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Defaults of `fracwave verify` that fix how many solution points it evaluates.
VERIFY_BASE_CELLS = 64
RESIDUAL_LEVELS = 3
IC_NX = 33
IC_PROBE_NODES = 513
FORM_GRID = (33, 9)
ROUTE_SAMPLES = 200

FIELD_TOL = 1e-9  # quadrature solution against the exact closed form
ADVECT_TOL = 1e-12  # first-order travelling wave against f(X' - c^a T')
ROUTE_TOL = 1e-12


@dataclass(frozen=True)
class Problem:
    """A problem file of the profile family

        f(x) = f_x2 * x^2 + f_sin * sin(x),   g(x) = g_sin * sin(x)

    whose solutions have closed forms (see `exact`)."""

    name: str
    equation: str  # "dalembert" or "first_order"
    alpha: float
    c: float
    f_x2: float
    f_sin: float
    g_sin: float
    x_max: float
    t_max: float
    nx: int
    nt: int

    def to_yaml(self) -> str:
        lines = ["schema_version: 1"]
        if self.equation != "dalembert":
            lines.append(f"equation: {self.equation}")
        lines += [
            f"alpha: {self.alpha!r}",
            f"c: {self.c!r}",
            f'f: "{_profile(((self.f_x2, "x^2"), (self.f_sin, "sin(x)")))}"',
            f'g: "{_profile(((self.g_sin, "sin(x)"),))}"',
            f"x_max: {self.x_max!r}",
            f"t_max: {self.t_max!r}",
            f"nx: {self.nx}",
            f"nt: {self.nt}",
        ]
        return "\n".join(lines) + "\n"

    def exact(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """u(x, t) in closed form, with X' = x^a / Gamma(1+a), C = c^a T'."""
        g1a = math.gamma(1.0 + self.alpha)
        xp = np.power(x, self.alpha) / g1a
        c_a = self.c ** self.alpha
        ct = c_a * np.power(t, self.alpha) / g1a
        if self.equation == "first_order":
            y = xp - ct
            return self.f_x2 * y ** 2 + self.f_sin * np.sin(y)
        # (f(X+C) + f(X-C))/2 + (1/2c^a) * integral of g over [X-C, X+C]
        return (
            self.f_x2 * (xp ** 2 + ct ** 2)
            + self.f_sin * np.sin(xp) * np.cos(ct)
            + self.g_sin * np.sin(xp) * np.sin(ct) / c_a
        )


def _profile(terms) -> str:
    text = [body if k == 1.0 else f"{k!r}*{body}" for k, body in terms if k != 0.0]
    return " + ".join(text) or "0"


TWO_PI = 2.0 * math.pi
EXAMPLE1 = Problem("example1", "dalembert", 0.9, 1.0, 1.0, 0.0, 1.0, TWO_PI, TWO_PI, 65, 65)
EXAMPLE2 = Problem("example2", "dalembert", 0.8, 1.0, 0.0, 0.0, 1.0, TWO_PI, TWO_PI, 65, 65)
CLASSICAL = Problem("classical", "dalembert", 1.0, 1.0, 1.0, 0.0, 1.0, TWO_PI, TWO_PI, 65, 65)
FIRST_ORDER = Problem("first_order", "first_order", 0.5, 1.0, 0.0, 1.0, 0.0, 8.0, 2.0, 65, 33)


def perturb(problem: Problem, seed: int, profiles: bool) -> Problem:
    """The seed's variant of a problem.  Seed 0 returns it unchanged.

    Band: alpha +- 0.005 (alpha = 1 stays 1, to keep the classical branches),
    c within +-0.5 %, and, when `profiles` is set, each non-zero profile
    coefficient within +-2 %.  The band is narrow on purpose: the inputs
    differ in every digit of the output, while the quadrature work per point
    moves by less than 1 %, so that seeds do not widen the timing spread.
    """
    if seed == 0:
        return problem
    rng = random.Random(f"{seed}/{problem.name}")
    alpha = problem.alpha if problem.alpha == 1.0 else round(problem.alpha + rng.uniform(-0.005, 0.005), 6)
    c = round(problem.c * rng.uniform(0.995, 1.005), 6)

    def coef(k: float) -> float:
        return round(k * rng.uniform(0.98, 1.02), 6) if profiles and k != 0.0 else k

    return replace(problem, alpha=alpha, c=c, f_x2=coef(problem.f_x2),
                   f_sin=coef(problem.f_sin), g_sin=coef(problem.g_sin))


@dataclass(frozen=True)
class Command:
    kind: str  # "solve" or "verify"
    problem: Problem
    grid: tuple[int, int] | None  # --nx/--nt: points for solve, base cells for verify
    out: str

    def argv(self, workdir: Path) -> list[str]:
        args = [self.kind, str(workdir / f"{self.problem.name}.yaml"), "--out", str(workdir / self.out)]
        if self.grid:
            args += ["--nx", str(self.grid[0]), "--nt", str(self.grid[1])]
        return args

    @property
    def points(self) -> int:
        """Solution points the command evaluates through the solver."""
        if self.kind == "solve":
            return self.grid[0] * self.grid[1]
        if self.problem.equation == "first_order":
            return IC_NX + ROUTE_SAMPLES
        bx, bt = self.grid or (VERIFY_BASE_CELLS, VERIFY_BASE_CELLS)
        residual = sum((bx * 2 ** k + 1) * (bt * 2 ** k + 1) for k in range(RESIDUAL_LEVELS))
        p = self.problem
        worked_shape = p.f_sin == 0.0 and p.g_sin == 1.0 and p.f_x2 in (0.0, 1.0)
        forms = FORM_GRID[0] * FORM_GRID[1] if worked_shape else 0
        return IC_NX * (1 + IC_PROBE_NODES) + residual + forms


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]

    @property
    def problems(self) -> list[Problem]:
        return list({cmd.problem.name: cmd.problem for cmd in self.commands}.values())

    @property
    def points(self) -> int:
        return sum(cmd.points for cmd in self.commands)

    def write_problems(self, workdir: Path) -> list[Path]:
        paths = []
        for problem in self.problems:
            path = workdir / f"{problem.name}.yaml"
            path.write_text(problem.to_yaml())
            paths.append(path)
        return paths


WORKLOADS = ("field", "verify", "advect")


def build(name: str, seed: int, small: bool = False) -> Workload:
    """The workload's commands for a seed.  `small` shrinks the grids for the
    benchmark's own test; timings at that size mean nothing."""
    if name == "field":
        n = 33 if small else 257
        cmds = [Command("solve", perturb(p, seed, True), (n, n), f"{p.name}.csv")
                for p in (EXAMPLE1, EXAMPLE2)]
    elif name == "verify":
        # profiles keep the worked-example shapes, so the candidate-form
        # comparison stays on the path for every seed
        grid = (32, 32) if small else None
        cmds = [Command("verify", perturb(p, seed, False), grid, f"{p.name}.json")
                for p in (EXAMPLE1, EXAMPLE2, CLASSICAL)]
    elif name == "advect":
        n = 65 if small else 513
        p = perturb(FIRST_ORDER, seed, True)
        cmds = [Command("solve", p, (n, n), "first_order.csv"),
                Command("verify", p, None, "first_order.json")]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, tuple(cmds))


# --- output checks -------------------------------------------------------------


def check(cmd: Command, exit_code: int, workdir: Path, verified: set[str]) -> str | None:
    """Why the command's exit code or output is wrong, or None when it is right.

    `verified` holds digests of CSV outputs already checked in full; an output
    byte-identical to one of them needs no second numerical check."""
    out = workdir / cmd.out
    if cmd.kind == "solve":
        if exit_code != 0:
            return f"solve exited with {exit_code}"
        if not out.is_file():
            return "solve wrote no CSV"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if digest in verified:
            return None
        failure = _check_field(cmd, out)
        if failure is None:
            verified.add(digest)
        return failure
    return _check_report(cmd, exit_code, out)


def _check_field(cmd: Command, path: Path) -> str | None:
    p = cmd.problem
    nx, nt = cmd.grid
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return f"unreadable CSV: {exc}"
    if data.shape != (nx * nt, 3):
        return f"CSV has shape {data.shape}, expected ({nx * nt}, 3)"
    x, t, u = data.T
    if (np.abs(x - np.tile(np.linspace(0.0, p.x_max, nx), nt)).max() > 1e-12
            or np.abs(t - np.repeat(np.linspace(0.0, p.t_max, nt), nx)).max() > 1e-12):
        return "CSV grid is not the t-major uniform grid"
    tol = ADVECT_TOL if p.equation == "first_order" else FIELD_TOL
    err = float(np.abs(u - p.exact(x, t)).max())
    if not err <= tol:
        return f"{p.name}: max error {err:.3e} against the closed form exceeds {tol:g}"
    return None


def _check_report(cmd: Command, exit_code: int, path: Path) -> str | None:
    # 0 and 5 are both valid outcomes: whether the residual decreases is a
    # finding about the paper, not a program fault
    if exit_code not in (0, 5):
        return f"verify exited with {exit_code}"
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    if report.get("passed") is not (exit_code == 0):
        return f"exit code {exit_code} disagrees with passed = {report.get('passed')!r}"
    ic = report.get("initial_conditions", {})
    if not (ic.get("position_pass") is True and ic.get("velocity_pass") is True):
        return "an initial-condition check failed"
    if cmd.problem.equation == "first_order":
        deviation = report.get("route_equivalence", {}).get("max_deviation")
        if not (isinstance(deviation, float) and deviation <= ROUTE_TOL):
            return f"route deviation {deviation!r} exceeds {ROUTE_TOL:g}"
        return None
    levels = report.get("residual", {}).get("levels", [])
    norms = [lv.get(key) for lv in levels for key in ("linf", "l2", "core_linf")]
    if len(levels) != RESIDUAL_LEVELS or not all(
        isinstance(v, float) and math.isfinite(v) for v in norms
    ):
        return "residual norms missing or not finite"
    return None
