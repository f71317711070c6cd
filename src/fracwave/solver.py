"""Closed-form travelling-wave solutions of the alpha-order advection equation
and the 2*alpha-order wave equation, evaluated on scaled coordinates
X' = x^alpha / gamma(1+alpha), T' = t^alpha / gamma(1+alpha).

The second-order solution splits the displacement profile into two
counter-propagating waves moving at speed c^alpha in the scaled frame plus a
definite integral of the velocity profile g over [lo, hi] =
[X' - c^alpha T', X' + c^alpha T'].

Every velocity integral of a solution is a difference A(hi) - A(lo) of one
antiderivative A of g, read from a table built on first use and cached on
the solution.  A is defined on the table's range, the scaled argument range
that [0, x_max] x [0, t_max] reaches; outside it A raises DomainError:

- Knots: _TABLE_CELLS + 1 evenly spaced points spanning
  WaveProblem.scaled_argument_range().  Each cell is integrated once by
  adaptive Simpson, and G[k] is the cumulative sum up to knot k.
- A(y) = G[k] + tail[knots[k], y], with k the last knot <= y; the tail is
  integrated adaptively.  Each value depends on its own y and the fixed
  table alone, so results are bit-identical however points are batched, and
  at t = 0 (lo == hi) the velocity term is exactly 0.
- Tolerance split: each cell gets abs_tol / (2 _TABLE_CELLS), so the table
  contributes at most abs_tol / 2, and each of the two tails gets
  abs_tol / 4; the difference stays within abs_tol.
- Consequence: the first dalembert evaluation integrates g over the whole
  scaled argument range, so a velocity profile that cannot be integrated
  anywhere in that range fails on any point, at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal as TypingLiteral

import numpy as np

from .core import DomainError, FractionalOrder, Tolerance, as_order
from .expr import EvaluationError, Expression, evaluate, to_text
from .fracops import QuadratureError
from .transform import fractal_scale

SUBDIVISION_BUDGET = 2 ** 21  # per call
_CHUNK = 4096  # grid points per evaluation batch; bounds memory, results do not depend on it
_TABLE_CELLS = 1024  # cells of the velocity antiderivative table
MIN_GRID_POINTS = 2  # per axis, for evaluate_field


# --- adaptive Simpson, batched over many intervals ---------------------------


def _simpson_batch(
    fn,
    lo: np.ndarray,
    hi: np.ndarray,
    abs_tol: float,
    budget: int = SUBDIVISION_BUDGET,
) -> np.ndarray:
    """Adaptive Simpson integrals of fn over many [lo, hi] intervals at once.

    The worklist advances level-synchronously, one fn call per level, and
    every interval of a level shares one tolerance, abs_tol halved per level.
    An interval's subdivision decisions depend only on its own error
    estimates, and contributions are accumulated in a fixed order, so values
    are deterministic and never depend on how intervals are batched.  The
    budget counts the subdivisions of the whole call, which also bounds the
    worklist's memory, so whether it trips can depend on the batching.
    Requires lo <= hi elementwise.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.zeros(lo.shape)
    orig = np.nonzero(hi > lo)[0]
    if not orig.size:
        return out

    a, b = lo[orig], hi[orig]
    fa, fm, fb = fn(np.concatenate([a, 0.5 * (a + b), b])).reshape(3, -1)
    s = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = abs_tol
    subdivisions = 0

    while orig.size:
        m = 0.5 * (a + b)
        flm, frm = fn(np.concatenate([0.5 * (a + m), 0.5 * (m + b)])).reshape(2, -1)
        sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        s2 = sl + sr
        err = s2 - s
        width_floor = (b - a) <= 16.0 * np.finfo(float).eps * (np.abs(a) + np.abs(b) + 1.0)
        done = (np.abs(err) <= 15.0 * tol) | width_floor
        np.add.at(out, orig[done], s2[done] + err[done] / 15.0)
        keep = ~done
        subdivisions += np.count_nonzero(keep)
        if subdivisions > budget:
            raise QuadratureError(
                f"adaptive quadrature exceeded {budget} subdivisions without converging"
            )
        # the kept intervals' left halves, then their right halves
        orig, a, b, fa, fm, fb, s = (
            np.concatenate([left[keep], right[keep]])
            for left, right in (
                (orig, orig), (a, m), (m, b), (fa, fm), (flm, frm), (fm, fb), (sl, sr)
            )
        )
        tol *= 0.5

    if not np.all(np.isfinite(out)):
        raise QuadratureError("adaptive quadrature produced a non-finite result")
    return out


def _integrate_cells(
    g: Expression, lo: float, hi: float, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray]:
    """The integral of g over each of _TABLE_CELLS equal cells of [lo, hi],
    each within abs_tol / (2 _TABLE_CELLS), as (knots, cells).

    Equal cells, not one adaptive panel: one wide panel can pass its error
    test by chance on an oscillating g.  A failure names g and [lo, hi], and
    when the cells' tolerance lies below the rounding floor of doubles, says
    so.  The exception keeps its type and attributes."""
    fn = functools.partial(evaluate, g)  # per call: a wrapper installed on evaluate sees it
    knots = np.linspace(lo, hi, _TABLE_CELLS + 1)
    cell_tol = 0.5 * tol.abs_tol / _TABLE_CELLS
    try:
        return knots, _simpson_batch(fn, knots[:-1], knots[1:], cell_tol)
    except (QuadratureError, EvaluationError) as exc:
        note = ""
        if isinstance(exc, QuadratureError):  # after an EvaluationError a knot may be a pole
            # below eps |g| h per cell, a cell's error estimate is rounding noise
            h = knots[1] - knots[0]
            floor = np.finfo(float).eps * np.abs(fn(knots)).max() * h
            if cell_tol < floor:
                note = (
                    f"; abs_tol = {tol.abs_tol:.3g} allows {cell_tol:.2g} per table cell, "
                    f"below the rounding floor of doubles ({floor:.2g}), and must be raised"
                )
        where = f"velocity profile g = {to_text(g)} on [{lo:.6g}, {hi:.6g}]"
        exc.args = (f"{where}: {exc}{note}",)
        raise


def g_integral(
    g: Expression,
    lower: float,
    upper: float,
    tol: Tolerance = Tolerance(),
) -> float:
    """Signed definite integral of g, antisymmetric under swapping the limits:
    the sum of the antiderivative table's cells over [lower, upper], so within
    abs_tol / 2."""
    sign = 1.0
    if upper < lower:
        lower, upper, sign = upper, lower, -1.0
    _, cells = _integrate_cells(g, lower, upper, tol)
    return sign * float(cells.sum())


# --- problem statement and solutions -----------------------------------------


@dataclass(frozen=True)
class WaveProblem:
    """Cauchy problem data on the quarter-plane x, t >= 0.

    f and g are profiles of one abstract argument, applied in the scaled
    frame X' = x^alpha / gamma(1+alpha), T' = t^alpha / gamma(1+alpha); to
    stretch an argument, compose the profile with a constant factor.  Both
    must accept the full (possibly negative) range of scaled arguments
    reached from the domain corners.
    """

    order: FractionalOrder
    speed: float
    f: Expression
    g: Expression
    x_max: float
    t_max: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", as_order(self.order))
        if not (math.isfinite(self.speed) and self.speed > 0.0):
            raise DomainError(f"wave speed must be > 0, got {self.speed!r}")
        if not (self.x_max > 0.0 and self.t_max > 0.0):
            raise DomainError("x_max and t_max must be positive")
        with np.errstate(over="ignore"):
            lo, hi = self.scaled_argument_range()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(
                f"scaled argument range [{lo}, {hi}] overflows a double: wave speed "
                f"c = {self.speed!r} with x_max = {self.x_max!r}, t_max = {self.t_max!r}"
            )
        for profile in (self.f, self.g):
            evaluate(profile, np.array([lo, 0.0, hi]))  # reject unevaluable profiles early

    @property
    def alpha(self) -> float:
        return self.order.alpha

    @property
    def wave_scale(self) -> float:
        """Propagation speed c^alpha in the scaled frame."""
        return self.speed ** self.alpha

    def scaled_coords(self, x, t):
        return fractal_scale(x, self.alpha), fractal_scale(t, self.alpha)

    def scaled_argument_range(self) -> tuple[float, float]:
        """Range of profile arguments reachable from the domain corners."""
        xp, tp = self.scaled_coords(self.x_max, self.t_max)
        c_a = self.wave_scale
        return float(-c_a * tp), float(xp + c_a * tp)


def characteristic_constant(
    x: float, t: float, order: FractionalOrder | float, c: float
) -> float:
    """Invariant of the characteristic curve through (x, t):
    (x^alpha - c^alpha t^alpha) / gamma(1 + alpha)."""
    alpha = as_order(order).alpha
    if x < 0.0 or t < 0.0:
        raise DomainError("characteristics are defined on x >= 0, t >= 0")
    return float(fractal_scale(x, alpha) - c ** alpha * fractal_scale(t, alpha))


@dataclass(frozen=True)
class ClosedFormSolution:
    """Evaluatable u(x, t).

    kind 'first_order' is the single travelling wave u = f(X' - c^alpha T');
    kind 'dalembert' is the two-wave split plus velocity integral.  Evaluation
    is pure and deterministic: the same (x, t) always produces the same bits.
    A dalembert solution is defined on [0, x_max] x [0, t_max]: its velocity
    table spans the scaled argument range that domain reaches, and any
    evaluation that needs g beyond that range raises DomainError.
    """

    kind: TypingLiteral["first_order", "dalembert"]
    problem: WaveProblem
    tol: Tolerance = Tolerance()

    def evaluate_many(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Evaluate at paired coordinate arrays (vectorized, one batch)."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(x < 0.0) or np.any(t < 0.0):
            raise DomainError("solutions are defined on x >= 0, t >= 0")
        prob = self.problem
        xp, tp = prob.scaled_coords(x, t)
        c_a = prob.wave_scale
        lo = xp - c_a * tp
        if self.kind == "first_order":
            return evaluate(prob.f, lo)
        n = lo.size
        ends = np.concatenate([xp + c_a * tp, lo])  # hi, then lo
        f = evaluate(prob.f, ends)
        A = self._antiderivative(ends)
        return 0.5 * (f[:n] + f[n:]) + (A[:n] - A[n:]) / (2.0 * c_a)

    def evaluate(self, x: float, t: float) -> float:
        return float(self.evaluate_many(np.array([x]), np.array([t]))[0])

    __call__ = evaluate

    def _g_fn(self, xs: np.ndarray) -> np.ndarray:
        return evaluate(self.problem.g, xs)

    @functools.cached_property
    def _antiderivative_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Knots spanning the scaled argument range and G, the integral of g
        from the first knot to each knot."""
        prob = self.problem
        knots, cells = _integrate_cells(prob.g, *prob.scaled_argument_range(), self.tol)
        return knots, np.concatenate([[0.0], np.cumsum(cells)])

    def _antiderivative(self, y: np.ndarray) -> np.ndarray:
        """Integral of g from the first knot to each y: the table up to the
        last knot <= y plus a tail from that knot to y; see the module
        docstring.  Raises DomainError unless every y lies in the table's
        range, the scaled argument range."""
        knots, table = self._antiderivative_table
        if not np.all((y >= knots[0]) & (y <= knots[-1])):  # NaN fails too
            prob = self.problem
            raise DomainError(
                f"velocity integral needs g outside the scaled argument range "
                f"[{knots[0]:.6g}, {knots[-1]:.6g}]; a solution is defined on "
                f"[0, x_max] x [0, t_max] = [0, {prob.x_max:.6g}] x [0, {prob.t_max:.6g}]"
            )
        k = np.searchsorted(knots, y, side="right") - 1
        return table[k] + _simpson_batch(self._g_fn, knots[k], y, 0.25 * self.tol.abs_tol)

    # the two profile components: u = forward(hi) + backward(lo)
    def forward_profile(self, y: float) -> float:
        """Component travelling toward -x: half the displacement profile plus
        half the scaled antiderivative of the velocity profile."""
        half_f, half_int = self._profile_halves(y)
        return half_f + half_int

    def backward_profile(self, y: float) -> float:
        """Component travelling toward +x: half the displacement profile minus
        half the scaled antiderivative of the velocity profile."""
        half_f, half_int = self._profile_halves(y)
        return half_f - half_int

    def _profile_halves(self, y: float) -> tuple[float, float]:
        """Half the displacement profile at y, and half the scaled integral of
        the velocity profile from 0 to y."""
        if self.kind != "dalembert":
            raise DomainError("profile components exist only for the dalembert kind")
        prob = self.problem
        ends = self._antiderivative(np.array([y, 0.0]))
        return 0.5 * evaluate(prob.f, y), (ends[0] - ends[1]) / (2.0 * prob.wave_scale)


def solve_first_order(problem: WaveProblem) -> ClosedFormSolution:
    """Travelling-wave solution of the alpha-order advection equation:
    u(x, t) = f((x^alpha - c^alpha t^alpha) / gamma(1 + alpha))."""
    return ClosedFormSolution("first_order", problem)


def solve_dalembert(problem: WaveProblem, tol: Tolerance = Tolerance()) -> ClosedFormSolution:
    """Two-wave solution of the 2*alpha-order wave equation.

    It satisfies both initial conditions: u(x, 0) = f(X') exactly, and the
    alpha-order time derivative at t = 0 equals g(X').
    """
    return ClosedFormSolution("dalembert", problem, tol)


# --- dense evaluation ---------------------------------------------------------


@dataclass(eq=False)
class Field2D:
    """Dense samples u(x_i, t_j); values[j, i] pairs row j with time t_j."""

    x: np.ndarray
    t: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.t.size, self.x.size):
            raise DomainError(
                f"field shape {self.values.shape} does not match grids "
                f"({self.t.size}, {self.x.size})"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field contains non-finite values")


def evaluate_grid(sol, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """u on the tensor grid of xs and ts, as an (ts.size, xs.size) array whose
    row j holds time ts[j].  sol needs only an evaluate_many(x, t) method.
    Points are visited t-major in batches of _CHUNK; for the closed forms
    the result is identical to one big batch."""
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    flat_x = xx.ravel()
    flat_t = tt.ravel()
    values = np.empty(flat_x.size)
    for start in range(0, flat_x.size, _CHUNK):
        stop = min(start + _CHUNK, flat_x.size)
        values[start:stop] = sol.evaluate_many(flat_x[start:stop], flat_t[start:stop])
    return values.reshape(tt.shape)


def evaluate_field(sol: ClosedFormSolution, nx: int, nt: int) -> Field2D:
    """Evaluate on the uniform nx-by-nt point grid spanning
    [0, x_max] x [0, t_max]."""
    if nx < MIN_GRID_POINTS or nt < MIN_GRID_POINTS:
        raise DomainError(f"need at least {MIN_GRID_POINTS} grid points per axis")
    prob = sol.problem
    xs = np.linspace(0.0, prob.x_max, nx)
    ts = np.linspace(0.0, prob.t_max, nt)
    return Field2D(xs, ts, evaluate_grid(sol, xs, ts))
