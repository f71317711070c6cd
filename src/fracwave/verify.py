"""Independent numerical verification of the closed-form solutions:
initial-condition checks, grid residuals of the wave equation under composed
fractional derivatives, route equivalence for the first-order equation, and
the continuous-dependence (stability) bound.

Each check that `fracwave verify` runs returns a report that owns its block:
to_dict() for the JSON, passed, the failure message and lines() for the text.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .core import DomainError, QuadratureError
from .expr import evaluate, parse
from .fracops import QuadratureConfig, grid_operator_matrix, jumarie_derivative
from .solver import (
    ClosedFormSolution,
    WaveProblem,
    evaluate_field,
    evaluate_grid,
    solve_dalembert,
    solve_first_order,
)
from .transform import fractal_scale

RESIDUAL_FLOOR = 1e-8  # below this, refinement levels count as converged
MIN_RESIDUAL_CELLS = 32  # per axis, for the coarsest level of pde_residual
RESIDUAL_BASE_CELLS = 64  # per axis, the coarsest level that fracwave verify studies
RESIDUAL_LEVELS = 3  # refinement levels of pde_residual; each doubles the cells per axis
COLLAR_CELLS = 2  # residual norms skip this many cells at the x = 0 and t = 0 edges


def _mark(ok: bool) -> str:
    return "[pass]" if ok else "[FAIL]"


@dataclass(frozen=True)
class CallableSolution:
    """Adapter giving an arbitrary u(x, t) closure the solution interface."""

    fn: Callable

    def evaluate_many(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float), np.asarray(t, dtype=float)), dtype=float)


# --- initial conditions -------------------------------------------------------


IC_NX = 33  # points along t = 0 at which both initial conditions are checked
POSITION_TOL = 1e-10
VELOCITY_TOL = 1e-3
VELOCITY_CONFIG = QuadratureConfig(512)  # panels of the t = 0 velocity window


def position_error(problem: WaveProblem, sol) -> float:
    """Largest |u(x, 0) - f(X')| over IC_NX points spanning [0, x_max]."""
    xs = np.linspace(0.0, problem.x_max, IC_NX)
    xp, _ = problem.scaled_coords(xs, 0.0)
    return float(np.abs(sol.evaluate_many(xs, np.zeros_like(xs)) - evaluate(problem.f, xp)).max())


@dataclass(frozen=True)
class InitialConditionReport:
    nx: int
    position_max_error: float
    position_abs_tol: float
    position_rel_tol: float
    position_pass: bool
    velocity_max_error: float | None
    velocity_tol: float | None
    velocity_pass: bool
    failure = "initial-condition check failed"

    @property
    def passed(self) -> bool:
        return self.position_pass and self.velocity_pass

    def to_dict(self) -> dict:
        return asdict(self) | {"passed": self.passed}

    def lines(self) -> list[str]:
        out = [f"  u(x,0) = f(X'):        max error {self.position_max_error:.3e}  "
               f"{_mark(self.position_pass)}"]
        if self.velocity_max_error is not None:
            out.append(f"  alpha-velocity at t=0: max error {self.velocity_max_error:.3e}  "
                       f"{_mark(self.velocity_pass)}")
        return out


def check_initial_conditions(problem: WaveProblem, sol) -> InitialConditionReport:
    """Check u(x, 0) = f(X') pointwise and, for second-order solutions, that
    the alpha-order time derivative at t = 0 reproduces g(X').

    The velocity is the Jumarie derivative in t at t = 0, one series per x,
    with the product rule on the panels of VELOCITY_CONFIG over the one-sided
    window h = eps^(1/(2 alpha)) (1.49e-8 at alpha = 1) that fracops gives a
    derivative at 0.  It carries an O(h^alpha) bias plus quadrature noise
    amplified by h^-alpha, hence the looser VELOCITY_TOL; the failure signals
    it must detect are order one.
    """
    pos_err = position_error(problem, sol)
    if not math.isfinite(pos_err):  # nor can the velocity probe read a non-finite u
        raise QuadratureError("initial-condition check: u(x, 0) is not finite")
    # position_rel_tol is 0.0: the bound is absolute
    position = (pos_err, POSITION_TOL, 0.0, pos_err <= POSITION_TOL)

    if isinstance(sol, ClosedFormSolution) and sol.kind == "first_order":
        return InitialConditionReport(IC_NX, *position, None, None, True)

    xs = np.linspace(0.0, problem.x_max, IC_NX)
    g_target = evaluate(problem.g, problem.scaled_coords(xs, 0.0)[0])
    # one row of window samples per x, copied to C order so that the kernel
    # matmul sums each row in the same order as a contiguous (nx, n) array
    vel = jumarie_derivative(
        lambda ts: evaluate_grid(sol, xs, ts).T.copy(),
        problem.alpha,
        0.0,
        VELOCITY_CONFIG,
    )
    vel_err = float(np.abs(vel - g_target).max())
    return InitialConditionReport(
        IC_NX, *position, vel_err, VELOCITY_TOL, vel_err <= VELOCITY_TOL
    )


# --- wave-equation residual -----------------------------------------------------


@dataclass(frozen=True)
class LevelResidual:
    nx: int
    nt: int
    linf: float
    l2: float
    core_linf: float  # diagnostic: central sub-region, all boundary bands excluded


@dataclass(frozen=True)
class ResidualReport:
    alpha: float
    collar_cells: int
    levels: tuple[LevelResidual, ...]
    slope: float | None
    monotone: bool
    notes: tuple[str, ...]
    failure = "residual did not decrease under grid refinement"

    @property
    def passed(self) -> bool:
        return self.monotone

    @property
    def residual_linf(self) -> float:
        return self.levels[-1].linf

    @property
    def residual_l2(self) -> float:
        return self.levels[-1].l2

    def to_dict(self) -> dict:
        finest = {"residual_linf": self.residual_linf, "residual_l2": self.residual_l2}
        return asdict(self) | finest

    def lines(self) -> list[str]:
        seq = " -> ".join(f"{lv.linf:.4e}" for lv in self.levels)
        return [f"  wave-equation residual Linf across refinements: {seq}  {_mark(self.monotone)}",
                f"    interior-core Linf at finest level: {self.levels[-1].core_linf:.3e}",
                *(f"    note: {note}" for note in self.notes)]


COMPOSITION_NOTE = (
    "second-order fractional derivatives are realized as two successive "
    "applications of the order-alpha grid operator"
)
HEURISTIC_NOTE = (
    "for 0 < alpha < 1 the velocity-driven part of the closed form satisfies "
    "the composed-operator equation only approximately, so interior residuals "
    "approach a non-zero plateau rather than zero"
)


def pde_residual(problem: WaveProblem, sol, nx: int, nt: int,
                 levels: int = RESIDUAL_LEVELS) -> ResidualReport:
    """Residual of the 2*alpha-order wave equation on refining grids.

    nx and nt count cells of the coarsest level; each level doubles both.  The
    solution is evaluated once, on the finest grid; each coarser level is a
    strided view of it, bit for bit the grid it would evaluate.  The residual
    applies the gridded operator twice along every t-line and x-line.  Norms
    skip COLLAR_CELLS cells at x = 0 and t = 0 but keep x = x_max and
    t = t_max, where np.gradient's one-sided end stencil, applied twice,
    leaves an O(1) error.  On the shipped d'Alembert problems linf sits there
    at every level, so linf and monotone measure that artifact shrinking (the
    exact classical solution reads 0 to rounding without the last two rows
    and columns).
    """
    if nx < MIN_RESIDUAL_CELLS or nt < MIN_RESIDUAL_CELLS:
        raise DomainError(f"residual grids need at least {MIN_RESIDUAL_CELLS} cells per axis")
    if levels < 1:
        raise DomainError("need at least one refinement level")
    alpha = problem.alpha
    c2a = problem.speed ** (2.0 * alpha)
    top = 2 ** (levels - 1)
    for name, span, cells in (("x", problem.x_max, nx * top), ("t", problem.t_max, nt * top)):
        if not span / cells >= np.finfo(float).tiny:  # below it, np.gradient's 1 / (2 h) overflows
            raise DomainError(f"residual grid spacing {name}_max / {cells} = {span / cells:.3g} "
                              "is not a positive normal double")
    finest = evaluate_grid(sol, np.linspace(0.0, problem.x_max, nx * top + 1),
                           np.linspace(0.0, problem.t_max, nt * top + 1))
    out: list[LevelResidual] = []
    for level in range(levels):
        ncx, nct, step = nx * 2 ** level, nt * 2 ** level, top >> level
        # contiguous, so that the matmuls sum as on a freshly evaluated grid
        u = np.ascontiguousarray(finest[::step, ::step])
        dx, dt = problem.x_max / ncx, problem.t_max / nct
        mt = grid_operator_matrix(nct, dt, alpha)
        mx = mt if (ncx, dx) == (nct, dt) else grid_operator_matrix(ncx, dx, alpha)
        with np.errstate(over="ignore", invalid="ignore"):
            resid = mt @ (mt @ u) - c2a * ((u @ mx.T) @ mx.T)
            inner = resid[COLLAR_CELLS:, COLLAR_CELLS:]
            l2 = float(np.sqrt(np.mean(inner ** 2)))
        # a NaN or infinity in the norms' window, or a square past a double
        # (|resid| above about 1e154), would reach the report as invalid JSON
        if not math.isfinite(l2):
            raise QuadratureError(f"wave-equation residual on {ncx} x {nct} cells has a "
                                  "non-finite l2 norm")
        i0x, i1x = int(0.2 * ncx), int(0.8 * ncx) + 1
        i0t, i1t = int(0.2 * nct), int(0.8 * nct) + 1
        core = resid[i0t:i1t, i0x:i1x]
        out.append(LevelResidual(ncx, nct, float(np.abs(inner).max()), l2,
                                 float(np.abs(core).max())))
    linfs = [lv.linf for lv in out]
    monotone = all(
        linfs[i + 1] <= linfs[i] or linfs[i + 1] < RESIDUAL_FLOOR
        for i in range(len(linfs) - 1)
    )
    slope = None
    if levels >= 3:
        ratios = [
            math.log2(linfs[i] / linfs[i + 1])
            for i in range(len(linfs) - 1)
            if linfs[i] > 0 and linfs[i + 1] > 0
        ]
        slope = sum(ratios) / len(ratios) if ratios else None
    notes = [COMPOSITION_NOTE]
    if alpha < 1.0:
        notes.append(HEURISTIC_NOTE)
    return ResidualReport(alpha, COLLAR_CELLS, tuple(out), slope, monotone, tuple(notes))


# --- route equivalence ------------------------------------------------------------

ROUTE_EQUIVALENCE_TOL = 1e-12  # largest deviation at which the two routes agree


@dataclass(frozen=True)
class RouteReport:
    """route_equivalence's deviation, judged against tol."""

    max_deviation: float
    tol: float = ROUTE_EQUIVALENCE_TOL
    failure = "characteristics and transform routes disagree"

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol

    def to_dict(self) -> dict:
        return {"applicable": True} | asdict(self)

    def lines(self) -> list[str]:
        return [f"  route equivalence: max deviation {self.max_deviation:.3e}  "
                f"{_mark(self.passed)}"]


def route_equivalence(
    problem: WaveProblem, n_samples: int = 200, seed: int = 20260810
) -> float:
    """Maximum deviation, over random points of the domain, between the
    transform-route solution (the solver's travelling wave in scaled
    coordinates) and f of the characteristic invariant
    (x^a - c^a t^a) / gamma(1 + a), computed here without the solver's
    scaling map, so that a drift in that map shows."""
    rng = random.Random(seed)
    draws = np.array([rng.random() for _ in range(2 * n_samples)]).reshape(n_samples, 2)
    x, t = (draws * (problem.x_max, problem.t_max)).T
    u_transform = solve_first_order(problem).evaluate_many(x, t)
    a, c = problem.alpha, problem.speed
    u_char = evaluate(problem.f, (x**a - c**a * t**a) / math.gamma(1.0 + a))
    return float(np.abs(u_char - u_transform).max(initial=0.0))


# --- stability ----------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    delta: float
    horizon: float
    observed_gap: float
    bound_paper: float     # delta * (1 + horizon^alpha)
    bound_derived: float   # delta * (1 + horizon^alpha / gamma(1 + alpha))
    satisfied_paper: bool
    satisfied_derived: bool

    def to_dict(self) -> dict:
        return asdict(self)


DELTA_SAMPLES = 1024  # points of the argument range at which delta is sampled


def stability_check(
    problem1: WaveProblem, problem2: WaveProblem, nx: int = 65, nt: int = 65
) -> StabilityReport:
    """Continuous dependence on the initial data.

    delta is the sup-norm of the profile perturbations at DELTA_SAMPLES
    points of the full scaled-argument range; the observed gap is compared
    against the tighter printed bound delta*(1 + T^alpha) and the
    conservative direct bound delta*(1 + T^alpha / gamma(1+alpha)).
    Comparisons allow a relative slack of 1e-9 so that exactly extremal
    (constant) perturbations, which attain the bound, are not rejected for
    rounding.
    """
    p1, p2 = problem1, problem2
    if (p1.alpha, p1.speed, p1.x_max, p1.t_max) != (p2.alpha, p2.speed, p2.x_max, p2.t_max):
        raise DomainError("stability problems must differ only in their profiles f and g")
    lo, hi = p1.scaled_argument_range()
    args = np.linspace(lo, hi, DELTA_SAMPLES)
    df = np.abs(evaluate(p1.f, args) - evaluate(p2.f, args))
    dg = np.abs(evaluate(p1.g, args) - evaluate(p2.g, args))
    delta = float(max(df.max(), dg.max()))

    f1 = evaluate_field(solve_dalembert(p1), nx, nt)
    f2 = evaluate_field(solve_dalembert(p2), nx, nt)
    gap = float(np.abs(f1.values - f2.values).max())

    alpha = p1.alpha
    horizon = p1.t_max
    bound_paper = delta * (1.0 + horizon ** alpha)
    bound_derived = delta * (1.0 + float(fractal_scale(horizon, alpha)))
    slack = 1.0 + 1e-9
    return StabilityReport(
        delta,
        horizon,
        gap,
        bound_paper,
        bound_derived,
        gap <= bound_paper * slack,
        gap <= bound_derived * slack,
    )


# --- candidate closed forms for the worked examples -------------------------------


DISCREPANCY_NOTE = (
    "the product closed form for the velocity-only example: quadrature agrees "
    "with (1/c^a) sin(X') sin(c^a T'); the cos(X') cos(c^a T') variant "
    "sometimes quoted fails the t = 0 initial condition"
)


@dataclass(frozen=True)
class FormComparison:
    """How candidate product closed forms fare against the quadrature solution."""

    candidates: tuple[str, ...]
    ic_max_error: dict[str, float]
    gap_vs_quadrature: dict[str, float]
    note: str = DISCREPANCY_NOTE
    passed = True  # a finding, not a check: it never fails verify, so it has no failure

    def to_dict(self) -> dict:
        return asdict(self)

    def lines(self) -> list[str]:
        return [*(f"  candidate '{name}': IC error {self.ic_max_error[name]:.3e}, "
                  f"max gap vs quadrature {self.gap_vs_quadrature[name]:.3e}"
                  for name in self.candidates),
                f"    note: {self.note}"]


EXAMPLE_G = parse("sin(x)")  # the velocity profile of both worked examples
# the worked examples, in the paper's order, keyed by their displacement
# profile f: f's part of the product closed forms, at X' and c^a T'
WORKED_EXAMPLES = {
    parse("x^2"): lambda xp, ctp: xp ** 2 + ctp ** 2,
    parse("0"): lambda xp, ctp: np.zeros_like(xp),
}


def candidate_product_forms(problem: WaveProblem) -> dict[str, CallableSolution] | None:
    """For a problem of a worked example's shape, the two candidate product
    closed forms for u; None for any other problem."""
    f_part = WORKED_EXAMPLES.get(problem.f) if problem.g == EXAMPLE_G else None
    if f_part is None:
        return None
    c_a = problem.wave_scale

    def make(trig) -> CallableSolution:
        def u(x, t):
            xp, tp = problem.scaled_coords(x, t)
            with np.errstate(over="ignore", invalid="ignore"):  # 1 / c^a overflows at a tiny c
                return f_part(xp, c_a * tp) + trig(xp) * trig(c_a * tp) / c_a

        return CallableSolution(u)

    return {"sin_product": make(np.sin), "cos_product": make(np.cos)}


FORM_GRID = (IC_NX, 9)  # (nx, nt) points of the candidate-form comparison


def compare_candidate_forms(problem: WaveProblem, sol: ClosedFormSolution) -> FormComparison | None:
    """Evaluate both candidate forms against the initial condition, by
    position_error, and against the quadrature-truth solution on the coarse
    FORM_GRID."""
    forms = candidate_product_forms(problem)
    if forms is None:
        return None
    xs = np.linspace(0.0, problem.x_max, FORM_GRID[0])
    ts = np.linspace(0.0, problem.t_max, FORM_GRID[1])
    u_truth = evaluate_grid(sol, xs, ts)
    ic = {name: position_error(problem, form) for name, form in forms.items()}
    gaps = {name: float(np.abs(evaluate_grid(form, xs, ts) - u_truth).max())
            for name, form in forms.items()}
    for name in forms:  # a NaN or infinity would reach the report as invalid JSON
        if not math.isfinite(ic[name] + gaps[name]):
            raise QuadratureError(f"candidate form '{name}' is not finite on the comparison grid")
    return FormComparison(tuple(forms), ic, gaps)
