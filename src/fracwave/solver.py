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
  WaveProblem.scaled_argument_range(), h apart.  On each cell g is
  interpolated at the Chebyshev-Lobatto points of the first degree in
  _DEGREES that passes the acceptance test below.  Each degree's nodes
  contain the previous one's, and adjacent cells share their knots, so a
  cell accepted at degree p costs p evaluations of g.  Coefficients come
  from the DCT-I matrix; chebint(..., lbnd=-1) integrates the interpolant
  exactly from s = -1 (Battles & Trefethen 2004, SIAM J. Sci. Comput. 25;
  Trefethen 2013, Approximation Theory and Approximation Practice, ch. 19).
  G[k] is the integral from the first knot to knot k.  The DCT and the
  Clenshaw read stay hand-written: chebfit, a least-squares fit, took 30
  times as long per rung, and chebval twice as long per read.
- A(y) = G[k] + the integrated series of cell k, summed at y by Clenshaw's
  recurrence: a search and a few multiply-adds per point, with no
  evaluation of g.  Each value depends on its own y and the fixed table
  alone, so results are bit-identical however points are batched, and at
  t = 0 (lo == hi) the velocity term is exactly 0.
- Acceptance: a cell passes at degree p when 2 h max(|a_(p-1)|, |a_p|) / p,
  from its last two Chebyshev coefficients, is at most
  abs_tol / (_TABLE_CELLS + 2) + eps h max|g at its nodes|.  The left side
  estimates the error of any partial read of the cell's integral
  (|integral of T_k| <= 2k / (k^2 - 1), doubled for aliasing).  A difference
  spans at most every cell plus two partial reads, so it stays within
  abs_tol plus the cells' rounding terms and the rounding of G's sums.
- Refusals, before any knot is laid: a span whose width is not a finite
  double.  Before any cell is interpolated past its knots: an abs_tol below
  eps h max|g at the knots|, the rounding floor of doubles.  After the
  ladder: a cell that fails at the top degree, named.
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
from numpy.polynomial.chebyshev import chebint

from .core import DomainError, FractionalOrder, QuadratureError, Tolerance, as_order
from .expr import EvaluationError, Expression, evaluate, to_text
from .transform import fractal_scale

_CHUNK = 4096  # grid points per evaluation batch; bounds memory, results do not depend on it
_TABLE_CELLS = 1024  # cells of the velocity antiderivative table
_DEGREES = (4, 8, 16, 32)  # the cells' interpolation degrees, each dividing the next
MIN_GRID_POINTS = 2  # per axis, for evaluate_field


# --- the velocity table -------------------------------------------------------


# no warnings: a non-finite knot, floor, coefficient or G meets a check below
@np.errstate(over="ignore", invalid="ignore")
def _velocity_table(
    g: Expression, lo: float, hi: float, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The antiderivative table of g on [lo, hi], as (knots, G, C); see the
    module docstring.  Row k of C holds the coefficient C_k of every cell's
    integrated series sum_k C_k T_k(s), with s in [-1, 1] across the cell,
    scaled by the cell's half width.

    A failure names g and [lo, hi]; the exception keeps its type and
    attributes."""
    fn = functools.partial(evaluate, g)  # per call: a wrapper installed on evaluate sees it
    eps = np.finfo(float).eps
    try:
        if not math.isfinite(hi - lo):
            raise QuadratureError(f"its width {hi - lo} is not a finite double, so no "
                                  "knots fit on it")
        knots = np.linspace(lo, hi, _TABLE_CELLS + 1)
        half = 0.5 * np.diff(knots)  # each cell's own: a rounded common width would drift
        h = knots[1] - knots[0]
        at_knots = fn(knots)
        floor = eps * h * np.abs(at_knots).max()
        if tol.abs_tol < floor:
            raise QuadratureError(
                f"Chebyshev cell rule refused abs_tol = {tol.abs_tol:.3g}: it lies below "
                f"the rounding floor of doubles, eps h max|g at the knots| = {floor:.2g}"
            )
        C = np.zeros((_TABLE_CELLS, _DEGREES[-1] + 2))
        pending = np.arange(_TABLE_CELLS)
        values = np.stack((at_knots[1:], at_knots[:-1]), axis=1)  # degree 1: s = 1, -1
        for p in _DEGREES:
            # g at s_j = cos(pi j / p), j = 0..p; the previous degree's nodes are every step-th
            j = np.arange(p + 1)
            step = p // (values.shape[1] - 1)
            new = j[j % step != 0]
            grown = np.empty((pending.size, p + 1))
            grown[:, ::step] = values
            s = np.cos(np.pi * new / p)
            grown[:, new] = fn(knots[pending, None] + half[pending, None] * (1.0 + s))
            values = grown
            # coefficients a_0..a_p of sum_k a_k T_k, by the DCT-I
            cosine = (2.0 / p) * np.cos(np.pi * np.outer(j, j) / p)
            cosine[:, [0, p]] *= 0.5
            cosine[[0, p]] *= 0.5
            a = values @ cosine.T
            ok = (
                2.0 * h * np.maximum(np.abs(a[:, p - 1]), np.abs(a[:, p])) / p
                <= tol.abs_tol / (_TABLE_CELLS + 2) + eps * h * np.abs(values).max(axis=1)
            )
            C[pending[ok], :p + 2] = chebint(a[ok], lbnd=-1.0, axis=1)
            pending, values = pending[~ok], values[~ok]
            if not pending.size:
                break
        else:
            cell = pending[0]
            raise QuadratureError(
                f"Chebyshev cell rule did not converge at degree {_DEGREES[-1]} on "
                f"{pending.size} of {_TABLE_CELLS} cells, the first cell {cell}, "
                f"[{knots[cell]:.6g}, {knots[cell + 1]:.6g}]"
            )
        C = half[:, None] * C[:, :p + 2]  # p: the top degree accepted
        G = np.concatenate([[0.0], np.cumsum(C.sum(axis=1))])  # T_k(1) = 1
        if not np.all(np.isfinite(G)):
            raise QuadratureError("Chebyshev cell rule produced a non-finite result")
    except (QuadratureError, EvaluationError) as exc:
        exc.args = (f"velocity profile g = {to_text(g)} on [{lo:.6g}, {hi:.6g}]: {exc}",)
        raise
    return knots, G, np.ascontiguousarray(C.T)


def g_integral(
    g: Expression,
    lower: float,
    upper: float,
    tol: Tolerance = Tolerance(),
) -> float:
    """Signed definite integral of g, antisymmetric under swapping the limits:
    the sum of the cells of a velocity table over [lower, upper], so within
    abs_tol plus rounding, with the table's error messages."""
    sign = 1.0
    if upper < lower:
        lower, upper, sign = upper, lower, -1.0
    _, G, _ = _velocity_table(g, lower, upper, tol)
    return sign * float(G[-1])


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
            raise DomainError(f"wave speed c must be finite and > 0, got {self.speed!r}")
        if not (self.x_max > 0.0 and self.t_max > 0.0):
            raise DomainError(f"x_max and t_max must be positive, got x_max = {self.x_max!r}, "
                              f"t_max = {self.t_max!r}")
        with np.errstate(over="ignore"):
            lo, hi = self.scaled_argument_range()
        if not math.isfinite(hi - lo):  # finite ends too, and room for the velocity table
            raise DomainError(
                f"scaled argument range [{lo}, {hi}] overflows a double: wave speed "
                f"c = {self.speed!r} with x_max = {self.x_max!r}, t_max = {self.t_max!r}; "
                f"its width is {hi - lo}"
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
    if not (0.0 <= x < math.inf and 0.0 <= t < math.inf):
        raise DomainError(f"characteristics are defined on finite x >= 0, t >= 0; "
                          f"got ({x!r}, {t!r})")
    if not (math.isfinite(c) and c > 0.0):
        raise DomainError(f"wave speed c must be finite and > 0, got {c!r}")
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

    def __post_init__(self) -> None:
        if self.kind not in ("dalembert", "first_order"):
            raise DomainError(f"equation must be 'dalembert' or 'first_order', got {self.kind!r}")

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
        # each end halved before the two are summed: u stays finite where
        # f's two ends sum past a double
        half_f = 0.5 * evaluate(prob.f, ends)
        A = self._antiderivative(ends)
        return half_f[:n] + half_f[n:] + (A[:n] - A[n:]) / (2.0 * c_a)

    def evaluate(self, x: float, t: float) -> float:
        return float(self.evaluate_many(np.array([x]), np.array([t]))[0])

    __call__ = evaluate

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The velocity table (knots, G, C) over the scaled argument range."""
        prob = self.problem
        return _velocity_table(prob.g, *prob.scaled_argument_range(), self.tol)

    def _antiderivative(self, y: np.ndarray) -> np.ndarray:
        """Integral of g from the first knot to each y, read from the table:
        G at the knot left of y plus its cell's integrated series at y; see
        the module docstring.  Raises DomainError unless every y lies in the
        table's range, the scaled argument range."""
        knots, G, C = self._table
        if not np.all((y >= knots[0]) & (y <= knots[-1])):  # NaN fails too
            prob = self.problem
            raise DomainError(
                f"velocity integral needs g outside the scaled argument range "
                f"[{knots[0]:.6g}, {knots[-1]:.6g}]; a solution is defined on "
                f"[0, x_max] x [0, t_max] = [0, {prob.x_max:.6g}] x [0, {prob.t_max:.6g}]"
            )
        k = np.minimum(np.searchsorted(knots, y, side="right") - 1, _TABLE_CELLS - 1)
        s = (y - knots[k]) / (0.5 * (knots[k + 1] - knots[k])) - 1.0
        # Clenshaw's recurrence for sum_k C_k T_k(s)
        two_s = 2.0 * s
        b1 = b2 = 0.0
        for row in C[:0:-1]:
            b1, b2 = row[k] + two_s * b1 - b2, b1
        return G[k] + (C[0][k] + s * b1 - b2)

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


class Field2D:
    """Dense samples u(x_i, t_j); values[j, i] pairs row j with time t_j."""

    def __init__(self, x, t, values) -> None:
        self.x = np.asarray(x, dtype=float)
        self.t = np.asarray(t, dtype=float)
        self.values = np.asarray(values, dtype=float)
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
    Flat indices k = j * nx + i are visited in batches of _CHUNK, t-major; for
    the closed forms the result is identical to one big batch."""
    nx = xs.size
    values = np.empty((ts.size, nx))
    flat = values.reshape(-1)  # a view: batches fill values in place
    for start in range(0, flat.size, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, flat.size))
        flat[k] = sol.evaluate_many(xs[k % nx], ts[k // nx])
    return values


def evaluate_field(sol: ClosedFormSolution, nx: int, nt: int) -> Field2D:
    """Evaluate on the uniform nx-by-nt point grid spanning
    [0, x_max] x [0, t_max]."""
    if nx < MIN_GRID_POINTS or nt < MIN_GRID_POINTS:
        raise DomainError(f"need at least {MIN_GRID_POINTS} grid points per axis")
    prob = sol.problem
    xs = np.linspace(0.0, prob.x_max, nx)
    ts = np.linspace(0.0, prob.t_max, nt)
    return Field2D(xs, ts, evaluate_grid(sol, xs, ts))
