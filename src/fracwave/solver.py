"""Closed-form travelling-wave solutions of the alpha-order advection equation
and the 2*alpha-order wave equation, evaluated on scaled coordinates
X' = x^alpha / gamma(1+alpha), T' = t^alpha / gamma(1+alpha).

The second-order solution splits the displacement profile into two
counter-propagating waves moving at speed c^alpha in the scaled frame plus a
definite integral of the velocity profile g over [lo, hi] =
[X' - c^alpha T', X' + c^alpha T'].

Every velocity integral of a solution comes from one antiderivative table,
built on first use and cached on the solution:

- Knots: _TABLE_CELLS + 1 evenly spaced points spanning
  WaveProblem.scaled_argument_range().  Each cell is integrated once by
  adaptive Simpson, and G[k] is the cumulative sum up to knot k.
- Per interval: with k_a the first knot >= lo and k_b the last knot <= hi,
  the integral is tail[lo, k_a] + (G[k_b] - G[k_a]) + tail[k_b, hi]; both
  tails are integrated adaptively.  An interval that contains no knot is
  integrated directly.  Endpoints outside the table range only lengthen the
  tails.  Each value depends on its own (lo, hi) and the fixed table alone, so
  results are bit-identical however points are batched.
- Tolerance split: each cell gets abs_tol / (2 _TABLE_CELLS), so the table
  contributes at most abs_tol / 2, and each tail gets abs_tol / 4; the sum
  stays within abs_tol.  A direct integral gets abs_tol.  rel_tol applies to
  each piece on its own.
- Consequence: the first dalembert evaluation integrates g over the whole
  scaled argument range, so a velocity profile that cannot be integrated
  anywhere in that range fails on any point, at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Literal as TypingLiteral

import numpy as np

from .core import DomainError, FractionalOrder, as_order
from .expr import Expression, evaluate
from .fracops import DEFAULT_CONFIG, QuadratureConfig, QuadratureError
from .transform import fractal_scale

SUBDIVISION_BUDGET = 2 ** 20  # per requested integral
_CHUNK = 4096  # grid points per evaluation batch; fixed for determinism
_TABLE_CELLS = 1024  # cells of the velocity antiderivative table
MIN_GRID_POINTS = 2  # per axis, for evaluate_field


# --- adaptive Simpson, batched over many intervals ---------------------------


def _simpson_batch(
    fn,
    lo: np.ndarray,
    hi: np.ndarray,
    abs_tol: float,
    rel_tol: float,
    budget: int = SUBDIVISION_BUDGET,
) -> np.ndarray:
    """Adaptive Simpson integrals of fn over many [lo, hi] intervals at once.

    The worklist advances level-synchronously; every interval's subdivision
    decisions depend only on its own error estimates, and contributions are
    accumulated in a fixed order, so results are deterministic and independent
    of how intervals are batched.  Requires lo <= hi elementwise.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.zeros(lo.shape)
    live = hi > lo
    if not np.any(live):
        return out

    orig = np.nonzero(live)[0]
    a = lo[orig].copy()
    b = hi[orig].copy()
    mid = 0.5 * (a + b)
    fa = np.asarray(fn(a), dtype=float)
    fm = np.asarray(fn(mid), dtype=float)
    fb = np.asarray(fn(b), dtype=float)
    s = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # zero tolerance is allowed: exact-zero panels converge immediately and
    # anything else refines until the width floor or the budget trips
    tol = np.maximum(abs_tol, rel_tol * np.abs(s))
    counts = np.zeros(lo.shape, dtype=np.int64)

    while orig.size:
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        fnew = np.asarray(fn(np.concatenate([lm, rm])), dtype=float)
        flm, frm = fnew[: m.size], fnew[m.size:]
        sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        s2 = sl + sr
        err = s2 - s
        width_floor = (b - a) <= 16.0 * np.finfo(float).eps * (np.abs(a) + np.abs(b) + 1.0)
        done = (np.abs(err) <= 15.0 * tol) | width_floor
        if np.any(done):
            np.add.at(out, orig[done], s2[done] + err[done] / 15.0)
        keep = ~done
        if not np.any(keep):
            break
        np.add.at(counts, orig[keep], 1)
        if np.any(counts > budget):
            raise QuadratureError(
                f"adaptive quadrature exceeded {budget} subdivisions without converging"
            )
        orig = np.concatenate([orig[keep], orig[keep]])
        a, b = np.concatenate([a[keep], m[keep]]), np.concatenate([m[keep], b[keep]])
        fa, fm, fb, s = (
            np.concatenate([fa[keep], fm[keep]]),
            np.concatenate([flm[keep], frm[keep]]),
            np.concatenate([fm[keep], fb[keep]]),
            np.concatenate([sl[keep], sr[keep]]),
        )
        tol = np.concatenate([0.5 * tol[keep], 0.5 * tol[keep]])

    if not np.all(np.isfinite(out)):
        raise QuadratureError("adaptive quadrature produced a non-finite result")
    return out


def g_integral(
    g: Expression,
    lower: float,
    upper: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Signed definite integral of g, antisymmetric under swapping the limits."""
    sign = 1.0
    if upper < lower:
        lower, upper, sign = upper, lower, -1.0
    fn = lambda xs: evaluate(g, xs)
    value = _simpson_batch(
        fn,
        np.array([lower]),
        np.array([upper]),
        cfg.adaptive_tol.abs_tol,
        cfg.adaptive_tol.rel_tol,
    )[0]
    return sign * float(value)


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
        lo, hi = self.scaled_argument_range()
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
    """

    kind: TypingLiteral["first_order", "dalembert"]
    problem: WaveProblem
    cfg: QuadratureConfig = field(default_factory=lambda: DEFAULT_CONFIG)

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
            return np.asarray(evaluate(prob.f, lo), dtype=float)
        hi = xp + c_a * tp
        f_part = 0.5 * (
            np.asarray(evaluate(prob.f, hi), dtype=float)
            + np.asarray(evaluate(prob.f, lo), dtype=float)
        )
        return f_part + self._velocity_integral(lo, hi) / (2.0 * c_a)

    def evaluate(self, x: float, t: float) -> float:
        return float(self.evaluate_many(np.array([x]), np.array([t]))[0])

    __call__ = evaluate

    def _g_fn(self, xs: np.ndarray) -> np.ndarray:
        return evaluate(self.problem.g, xs)

    @functools.cached_property
    def _antiderivative_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Knots spanning the scaled argument range and G, the integral of g
        from the first knot to each knot."""
        knots = np.linspace(*self.problem.scaled_argument_range(), _TABLE_CELLS + 1)
        tol = self.cfg.adaptive_tol
        cells = _simpson_batch(
            self._g_fn, knots[:-1], knots[1:], 0.5 * tol.abs_tol / _TABLE_CELLS, tol.rel_tol
        )
        return knots, np.concatenate([[0.0], np.cumsum(cells)])

    def _velocity_integral(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Integrals of g over [lo, hi] (lo <= hi elementwise) from the
        antiderivative table; see the module docstring."""
        knots, table = self._antiderivative_table
        tol = self.cfg.adaptive_tol
        k_a = np.searchsorted(knots, lo, side="left")
        k_b = np.searchsorted(knots, hi, side="right") - 1
        direct = k_a > k_b
        out = np.empty(lo.shape)
        out[direct] = _simpson_batch(
            self._g_fn, lo[direct], hi[direct], tol.abs_tol, tol.rel_tol
        )
        via = ~direct
        k_a, k_b = k_a[via], k_b[via]
        tails = _simpson_batch(
            self._g_fn,
            np.concatenate([lo[via], knots[k_b]]),
            np.concatenate([knots[k_a], hi[via]]),
            0.25 * tol.abs_tol,
            tol.rel_tol,
        )
        n = k_a.size
        out[via] = tails[:n] + (table[k_b] - table[k_a]) + tails[n:]
        return out

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
        """Half the displacement profile at y, and half the scaled
        antiderivative of the velocity profile from 0 to y (the signed table
        integral)."""
        if self.kind != "dalembert":
            raise DomainError("profile components exist only for the dalembert kind")
        prob = self.problem
        lo, hi = sorted((0.0, float(y)))
        integral = self._velocity_integral(np.array([lo]), np.array([hi]))[0]
        if y < 0.0:
            integral = -integral
        half_int = integral / (2.0 * prob.wave_scale)
        return 0.5 * evaluate(prob.f, y), half_int


def solve_first_order(problem: WaveProblem) -> ClosedFormSolution:
    """Travelling-wave solution of the alpha-order advection equation:
    u(x, t) = f((x^alpha - c^alpha t^alpha) / gamma(1 + alpha))."""
    return ClosedFormSolution("first_order", problem)


def solve_dalembert(
    problem: WaveProblem, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> ClosedFormSolution:
    """Two-wave solution of the 2*alpha-order wave equation.

    It satisfies both initial conditions: u(x, 0) = f(X') exactly, and the
    alpha-order time derivative at t = 0 equals g(X').
    """
    return ClosedFormSolution("dalembert", problem, cfg)


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
    Points are visited t-major in fixed batches of _CHUNK, so the result is
    deterministic and, for the closed forms, identical to one big batch."""
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
