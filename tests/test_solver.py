import dataclasses
import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from fracwave.core import DomainError, FractionalOrder, Tolerance, gamma
from fracwave.expr import EvaluationError, evaluate, parse, to_text
from fracwave import solver
from fracwave.fracops import QuadratureError, _difference_step
from fracwave.solver import (
    WaveProblem,
    characteristic_constant,
    evaluate_field,
    evaluate_grid,
    g_integral,
    solve_dalembert,
    solve_first_order,
)


# profiles from the expression grammar, each evaluable on every argument range
GRAMMAR_PROFILES = ["x^2", "sin(x)", "0", "-x", "3*x + 1", "exp(-(x - 1)^2)",
                    "cos(2*x) - x/3", "x^3 / (1 + x^2)"]


def problem(alpha, c=1.0, f="x^2", g="sin(x)", x_max=6.0, t_max=2.0):
    return WaveProblem(FractionalOrder(alpha), c, parse(f), parse(g), x_max, t_max)


class TestGIntegral:
    def test_zero_length_interval(self):
        assert g_integral(parse("sin(x)"), 1.3, 1.3) == 0.0

    def test_sine_over_half_period(self):
        assert g_integral(parse("sin(x)"), 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_trig_identity_against_quadpack(self):
        # int sin over [A-B, A+B] = 2 sin A sin B
        A, B = 1.1, 0.6
        got = g_integral(parse("sin(x)"), A - B, A + B, Tolerance(1e-13))
        assert got == pytest.approx(2.0 * math.sin(A) * math.sin(B), abs=1e-13)
        oracle, _ = integrate.quad(math.sin, A - B, A + B, epsabs=1e-13)
        assert got == pytest.approx(oracle, abs=1e-13)

    @pytest.mark.parametrize("abs_tol", [2.5e-7, 1e-6])
    def test_oscillating_profile_against_quadpack(self, abs_tol):
        # about four periods of sin(3x): every cell is accepted at the lowest
        # degree, 4, and their sum still meets abs_tol
        lower, upper = -10.092421148001915, -1.8693702648048198
        got = g_integral(parse("exp(x/4)*sin(3*x)"), lower, upper, Tolerance(abs_tol))
        oracle, _ = integrate.quad(
            lambda x: math.exp(x / 4) * math.sin(3 * x), lower, upper, epsabs=1e-13, epsrel=0.0
        )
        assert got == pytest.approx(oracle, abs=abs_tol)

    @given(
        st.floats(-5.0, 5.0, allow_nan=False),
        st.floats(-5.0, 5.0, allow_nan=False),
    )
    @example(-0.5, 2.0)
    def test_antisymmetric_under_swap(self, lower, upper):
        g = parse("exp(-(x - 1)^2)")
        assert g_integral(g, upper, lower) == -g_integral(g, lower, upper)

    def test_failure_names_g_and_the_range(self):
        # knot 512 of [0, 2] is exactly 1, the pole
        with pytest.raises(EvaluationError, match=r"velocity profile g = .* on \[0, 2\]"):
            g_integral(parse("1/(x-1)"), 0.0, 2.0)

    def test_span_wider_than_a_double_refused(self):
        # both ends are finite, but no knots fit between them: the span is
        # named, not g
        with pytest.raises(QuadratureError, match=r"g = sin\(x\) on \[-1e\+308, 1e\+308\]: "
                                                  "its width inf is not a finite double"):
            g_integral(parse("sin(x)"), -1e308, 1e308)


class TestWaveProblem:
    def test_rejects_nonpositive_speed(self):
        with pytest.raises(DomainError):
            problem(0.5, c=0.0)

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            WaveProblem(FractionalOrder(0.5), 1.0, parse("0"), parse("0"), 0.0, 1.0)

    @pytest.mark.parametrize("overrides, message", [
        ({"c": -1.0}, "wave speed c must be finite and > 0, got -1.0"),
        ({"c": math.nan}, "wave speed c must be finite and > 0, got nan"),
        ({"x_max": math.nan}, "x_max and t_max must be positive, got x_max = nan, t_max = 2.0"),
        ({"t_max": -1.0}, "x_max and t_max must be positive, got x_max = 6.0, t_max = -1.0"),
    ])
    def test_messages_name_the_values(self, overrides, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            problem(0.5, **overrides)

    def test_rejects_profile_unevaluable_on_argument_range(self):
        # sqrt profile cannot take the negative arguments reached for t > 0
        with pytest.raises(EvaluationError):
            problem(0.5, f="x^0.5")

    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    @example(0.5, 0.7)
    def test_replace_order_matches_direct_construction(self, alpha, new_alpha):
        # the order is stored once, so replacing it rebuilds a whole problem
        changed = dataclasses.replace(problem(alpha), order=FractionalOrder(new_alpha))
        assert changed == problem(new_alpha)

    def test_scaled_argument_range_covers_corners(self):
        prob = problem(0.5, c=2.0, x_max=4.0, t_max=1.0)
        lo, hi = prob.scaled_argument_range()
        g = math.gamma(1.5)
        assert lo == pytest.approx(-(2.0**0.5) / g)
        assert hi == pytest.approx((2.0 + 2.0**0.5) / g)


class TestClassicalLimit:
    """At alpha = 1 the scaled coordinates are the physical ones, exactly."""

    CLASSICAL = problem(1.0, x_max=1e6, t_max=1e6)

    def test_gamma_two_is_one(self):
        assert gamma(2.0) == 1.0

    @given(st.floats(0.0, 1e6), st.floats(0.0, 1e6))
    def test_scaled_coords_are_identity(self, x, t):
        xp, tp = self.CLASSICAL.scaled_coords(x, t)
        assert (xp, tp) == (x, t)
        arr = np.array([x, t])
        assert self.CLASSICAL.scaled_coords(arr, arr)[0].tobytes() == arr.tobytes()


class TestClosedFormSolution:
    def test_rejects_unknown_kind(self):
        # a kind other than the two is refused, not evaluated as d'Alembert
        with pytest.raises(DomainError,
                           match="equation must be 'dalembert' or 'first_order', got 'heat'"):
            solver.ClosedFormSolution("heat", problem(0.5))


class TestSolveFirstOrder:
    def test_initial_condition(self):
        prob = problem(0.7, f="sin(x)", g="0", x_max=8.0)
        sol = solve_first_order(prob)
        g17 = math.gamma(1.7)
        for x in (0.0, 1.0, 4.0):
            assert sol.evaluate(x, 0.0) == pytest.approx(math.sin(x**0.7 / g17), rel=1e-13)

    def test_classical_advection(self):
        prob = problem(1.0, c=2.0, f="x", g="0", x_max=10.0)
        sol = solve_first_order(prob)
        assert sol.evaluate(3.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert sol.evaluate(5.0, 0.5) == pytest.approx(4.0, rel=1e-12)

    def test_half_order_identity_profile(self):
        prob = problem(0.5, c=1.0, f="x", g="0", x_max=8.0)
        sol = solve_first_order(prob)
        expected = 1.0 / math.gamma(1.5)
        assert sol.evaluate(4.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert sol.evaluate(4.0, 1.0) == pytest.approx(1.128379167095513, rel=1e-11)


class TestNonFiniteCoordinates:
    @pytest.mark.parametrize("solve", [solve_first_order, solve_dalembert])
    @pytest.mark.parametrize(
        "x, t", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (1.0, math.inf)]
    )
    def test_evaluate_many_raises(self, solve, x, t):
        # np.any(x < 0) lets NaN through; the profile evaluation must not
        sol = solve(problem(0.8, f="0", g="sin(x)"))
        with pytest.raises(EvaluationError, match="non-finite argument"):
            sol.evaluate_many(np.array([0.5, x]), np.array([0.5, t]))


class TestCharacteristicConstant:
    def test_origin(self):
        assert characteristic_constant(0.0, 0.0, 0.7, 1.0) == 0.0

    @pytest.mark.parametrize("x, t", [(-1.0, 0.0), (0.0, -1.0)])
    def test_rejects_negative_coordinates(self, x, t):
        with pytest.raises(DomainError, match="x >= 0, t >= 0"):
            characteristic_constant(x, t, 0.7, 1.0)

    def test_classical(self):
        assert characteristic_constant(5.0, 2.0, 1.0, 1.0) == pytest.approx(3.0, rel=1e-14)

    def test_solution_constant_along_level_sets(self):
        alpha, c = 0.6, 1.4
        prob = problem(alpha, c=c, f="sin(x)", g="0", x_max=20.0, t_max=3.0)
        sol = solve_first_order(prob)
        g1a = math.gamma(1.0 + alpha)
        for x1, t1 in [(2.0, 0.3), (5.0, 1.0), (9.0, 2.0)]:
            k = characteristic_constant(x1, t1, alpha, c)
            for t2 in (0.1, 1.7):
                # solve x2 from the level-set equation k = (x2^a - c^a t2^a)/gamma(1+a)
                x2 = (g1a * k + (c**alpha) * t2**alpha) ** (1.0 / alpha)
                assert characteristic_constant(x2, t2, alpha, c) == pytest.approx(k, rel=1e-12)
                assert sol.evaluate(x1, t1) == pytest.approx(sol.evaluate(x2, t2), abs=1e-12)


class TestSolveDalembert:
    def test_classical_two_wave_split(self):
        # alpha = 1, g = 0: u = (f(x+ct) + f(x-ct)) / 2
        for f_text, f in [("x^2", lambda s: s**2), ("sin(x)", np.sin)]:
            prob = problem(1.0, c=1.5, f=f_text, g="0", x_max=5.0, t_max=2.0)
            sol = solve_dalembert(prob)
            for x in (0.0, 1.0, 3.3):
                for t in (0.0, 0.4, 2.0):
                    expected = 0.5 * (f(x + 1.5 * t) + f(x - 1.5 * t))
                    assert sol.evaluate(x, t) == pytest.approx(expected, abs=1e-12)

    def test_velocity_only_solution_is_sine_product(self):
        # f = 0, g = sin: u = (1/c^a) sin(X') sin(c^a T'); oracle is direct
        # quadrature between the solution's own limits
        alpha, c = 0.8, 1.3
        prob = problem(alpha, c=c, f="0", g="sin(x)", x_max=5.0, t_max=2.0)
        sol = solve_dalembert(prob)
        g1a = math.gamma(1.0 + alpha)
        c_a = c**alpha
        for x, t in [(1.0, 0.5), (3.0, 1.5), (0.2, 2.0)]:
            xp, tp = x**alpha / g1a, t**alpha / g1a
            closed = math.sin(xp) * math.sin(c_a * tp) / c_a
            assert sol.evaluate(x, t) == pytest.approx(closed, abs=1e-10)
            oracle, _ = integrate.quad(math.sin, xp - c_a * tp, xp + c_a * tp, epsabs=1e-13)
            assert sol.evaluate(x, t) == pytest.approx(oracle / (2 * c_a), abs=1e-10)

    def test_square_profile_solution(self):
        # f = x^2, g = 0: u = X'^2 + (c^a T')^2
        alpha, c = 0.6, 1.0
        prob = problem(alpha, c=c, f="x^2", g="0", x_max=5.0, t_max=2.0)
        sol = solve_dalembert(prob)
        g1a = math.gamma(1.0 + alpha)
        for x, t in [(1.0, 0.5), (4.0, 1.9)]:
            xp, tp = x**alpha / g1a, t**alpha / g1a
            assert sol.evaluate(x, t) == pytest.approx(xp**2 + tp**2, abs=1e-12)

    def test_superposition(self):
        full = solve_dalembert(problem(0.7, c=1.3))
        f_only = solve_dalembert(problem(0.7, c=1.3, g="0"))
        g_only = solve_dalembert(problem(0.7, c=1.3, f="0"))
        xs = np.linspace(0.0, 6.0, 13)
        for t in (0.0, 0.7, 2.0):
            ts = np.full_like(xs, t)
            lhs = full.evaluate_many(xs, ts)
            rhs = f_only.evaluate_many(xs, ts) + g_only.evaluate_many(xs, ts)
            assert np.abs(lhs - rhs).max() <= 1e-12

    @settings(deadline=None, max_examples=40)
    @given(st.floats(0.05, 1.0), st.sampled_from(GRAMMAR_PROFILES),
           st.sampled_from(GRAMMAR_PROFILES))
    @example(0.45, "x^2", "sin(x)")
    def test_initial_displacement_exact(self, alpha, f, g):
        # at t = 0 both ends of the velocity integral are X', so its
        # difference is exactly 0 and u(x, 0) is f(X') bit for bit
        prob = problem(alpha, f=f, g=g)
        sol = solve_dalembert(prob)
        xs = np.linspace(0.0, prob.x_max, 41)
        xp, _ = prob.scaled_coords(xs, np.zeros_like(xs))
        got = sol.evaluate_many(xs, np.zeros_like(xs))
        assert np.array_equal(got, evaluate(prob.f, xp))

    def test_travelling_wave_invariance_for_zero_velocity(self):
        # with g = 0, u depends on (x, t) only through the pair X' +- c^a T'
        alpha, c = 0.7, 1.2
        prob = problem(alpha, c=c, f="exp(-(x - 1)^2)", g="0", x_max=10.0, t_max=3.0)
        sol = solve_dalembert(prob)
        g1a = math.gamma(1.0 + alpha)
        c_a = c**alpha

        def pair(x, t):
            xp, tp = x**alpha / g1a, t**alpha / g1a
            return xp + c_a * tp, xp - c_a * tp

        x1, t1 = 2.0, 1.0
        hi, lo = pair(x1, t1)
        # each component is constant along its own level set: follow the
        # hi-characteristic to a different time and compare components
        t2 = 0.5
        tp2 = t2**alpha / g1a
        x2 = (g1a * (hi - c_a * tp2)) ** (1.0 / alpha)
        hi2, _ = pair(x2, t2)
        assert hi2 == pytest.approx(hi, rel=1e-13)
        assert sol.forward_profile(hi) == pytest.approx(sol.forward_profile(hi2), abs=1e-12)
        # and along the lo-characteristic
        x3 = (g1a * (lo + c_a * tp2)) ** (1.0 / alpha)
        _, lo3 = pair(x3, t2)
        assert lo3 == pytest.approx(lo, rel=1e-12)
        assert sol.backward_profile(lo) == pytest.approx(sol.backward_profile(lo3), abs=1e-12)
        # so u itself is a function of the level pair alone
        u_reassembled = sol.forward_profile(hi2) + sol.backward_profile(lo3)
        assert u_reassembled == pytest.approx(sol.evaluate(x1, t1), abs=1e-11)

    @settings(deadline=None, max_examples=40)
    @given(st.floats(0.05, 1.0), st.floats(0.0, 6.0), st.floats(0.0, 2.0))
    @example(0.7, 2.7, 1.1)
    def test_profile_split_reassembles_solution(self, alpha, x, t):
        prob = problem(alpha, c=1.3)
        sol = solve_dalembert(prob)
        xp, tp = prob.scaled_coords(x, t)
        hi = xp + prob.wave_scale * tp
        lo = xp - prob.wave_scale * tp
        split = sol.forward_profile(hi) + sol.backward_profile(lo)
        assert split == pytest.approx(sol.evaluate(x, t), abs=1e-12)

    def test_profile_split_requires_dalembert(self):
        sol = solve_first_order(problem(0.5, f="x", g="0", x_max=4.0))
        with pytest.raises(DomainError):
            sol.forward_profile(1.0)

    def test_rejects_negative_coordinates(self):
        sol = solve_dalembert(problem(0.5))
        with pytest.raises(DomainError):
            sol.evaluate(-1.0, 0.0)

    def test_deterministic_evaluation(self):
        sol = solve_dalembert(problem(0.77))
        a = sol.evaluate(2.345, 1.234)
        b = sol.evaluate(2.345, 1.234)
        assert a == b


class TestEvaluateField:
    def test_first_row_is_initial_profile(self):
        prob = problem(0.8)
        field = evaluate_field(solve_dalembert(prob), 33, 9)
        xp, _ = prob.scaled_coords(field.x, np.zeros_like(field.x))
        assert np.abs(field.values[0] - xp**2).max() == 0.0

    def test_constant_problem_gives_constant_field(self):
        prob = problem(0.6, f="4.5", g="0")
        field = evaluate_field(solve_dalembert(prob), 17, 17)
        assert np.abs(field.values - 4.5).max() <= 1e-13

    def test_classical_example_field_matches_closed_form(self):
        prob = problem(1.0, c=1.0, f="x^2", g="sin(x)", x_max=2 * math.pi, t_max=2 * math.pi)
        field = evaluate_field(solve_dalembert(prob), 65, 65)
        tt, xx = np.meshgrid(field.t, field.x, indexing="ij")
        ref = xx**2 + tt**2 + np.sin(xx) * np.sin(tt)
        assert np.abs(field.values - ref).max() <= 1e-10

    def test_grid_shape_and_span(self):
        prob = problem(0.5, x_max=4.0, t_max=2.0)
        field = evaluate_field(solve_dalembert(prob), 9, 5)
        assert field.values.shape == (5, 9)
        assert field.x[0] == 0.0 and field.x[-1] == 4.0
        assert field.t[0] == 0.0 and field.t[-1] == 2.0

    def test_rejects_degenerate_grids(self):
        with pytest.raises(DomainError):
            evaluate_field(solve_dalembert(problem(0.5)), 1, 5)

    @pytest.mark.parametrize("values, message", [
        (np.zeros((3, 2)), r"field shape \(3, 2\) does not match grids \(2, 3\)"),
        (np.full((2, 3), math.inf), "field contains non-finite values"),
    ])
    def test_field_rejects_bad_values(self, values, message):
        with pytest.raises(DomainError, match=message):
            solver.Field2D(np.zeros(3), np.zeros(2), values)


def rate_profile(name, k):
    """g = name(k x) as text, with an exact antiderivative."""
    antiderivative = {
        "sin": lambda y: -np.cos(k * y) / k,
        "cos": lambda y: np.sin(k * y) / k,
        "exp": lambda y: np.exp(k * y) / k,
    }[name]
    return f"{name}({k!r}*x)", antiderivative


def polynomial_profile(coeffs):
    """g = sum of coeffs[i] x^i as text, with an exact antiderivative."""
    text = " + ".join(f"{c!r}*x^{i}" for i, c in enumerate(coeffs))
    return text, lambda y: sum(c * y ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))


RATES = st.floats(0.25, 4.0) | st.floats(-4.0, -0.25)
ORACLE_PROFILES = st.one_of(
    st.tuples(st.sampled_from(["sin", "cos"]), RATES).map(lambda p: rate_profile(*p)),
    # exp(k x) stays below e^5 on the widest argument range, [-6, 10]
    st.tuples(st.just("exp"), RATES.map(lambda k: k / 8)).map(lambda p: rate_profile(*p)),
    st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3).map(polynomial_profile),
)


class TestToleranceOracle:
    """At every order the closed form is the classical d'Alembert solution in
    (X', T') at speed c^a, so a g with a known antiderivative gives the exact
    u, and the stated quadrature tolerance can be checked against it."""

    @settings(deadline=None, max_examples=60)
    @given(st.floats(0.05, 1.0), st.floats(0.3, 3.0), st.floats(-13.0, -5.0), ORACLE_PROFILES)
    # |A| reaches about 130; the error is 1.06 abs_tol / (2 c^a), over the
    # bare budget, and within it once the rounding term is added
    @example(0.9, 2.6, math.log10(1.5e-13), polynomial_profile((0.0, -3.773, 1.0)))
    def test_field_within_stated_tolerance(self, alpha, c, log_tol, profile):
        text, antiderivative = profile
        abs_tol = 10.0 ** log_tol
        prob = problem(alpha, c=c, f="0", g=text, x_max=4.0, t_max=2.0)
        sol = solve_dalembert(prob, Tolerance(abs_tol))
        field = evaluate_field(sol, 9, 9)
        tt, xx = np.meshgrid(field.t, field.x, indexing="ij")
        xp, tp = prob.scaled_coords(xx, tt)
        c_a = prob.wave_scale
        exact = (antiderivative(xp + c_a * tp) - antiderivative(xp - c_a * tp)) / (2.0 * c_a)
        # The quadrature meets abs_tol on each A(hi) - A(lo).  The table's
        # prefix sums add rounding: recursive summation of n terms is off by
        # at most (n - 1) (eps / 2) sum|terms| (Higham 2002, Accuracy and
        # Stability of Numerical Algorithms, ch. 4), and each value reads the
        # table twice, so 1024 cells add at most 1024 eps sum|cells|.
        _, table = sol._table[:2]
        rounding = solver._TABLE_CELLS * np.finfo(float).eps * np.abs(np.diff(table)).sum()
        assert np.abs(field.values - exact).max() <= (abs_tol + rounding) / (2.0 * c_a)

    @pytest.mark.parametrize("abs_tol", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("profile", [
        rate_profile("sin", 1.0),
        rate_profile("cos", 2.0),
        ("exp(-x^2)", lambda y: 0.5 * math.sqrt(math.pi) * special.erf(y)),
    ])
    def test_dense_antiderivative_sweep_within_stated_tolerance(self, profile, abs_tol):
        # a 9x9 field can miss an error between its nodes: about 2e5 arguments
        # fall inside nearly every cell, each differenced against one from the
        # other end of the range.  The cells of sin and cos 2x take one degree
        # (all but 3 of sin's at 1e-10); below 1e-6 those of exp(-x^2) split
        # between degrees 4 and 8, so each rung's cells must land in their own
        # rows of C
        text, antiderivative = profile
        prob = problem(0.8, c=1.3, f="0", g=text, x_max=6.0, t_max=2.0)
        sol = solve_dalembert(prob, Tolerance(abs_tol))
        y = np.linspace(*prob.scaled_argument_range(), 200_001)
        got = sol._antiderivative(y) - sol._antiderivative(y[::-1])
        exact = antiderivative(y) - antiderivative(y[::-1])
        _, table, C = sol._table
        eps = np.finfo(float).eps
        rounding = solver._TABLE_CELLS * eps * np.abs(np.diff(table)).sum()
        assert np.abs(got - exact).max() <= abs_tol + rounding
        # The same bound with its rounding term measured: G against a
        # math.fsum running sum of the very cells it sums (each value reads
        # the table twice), plus a few ulps of |G| for the two reads, their
        # difference and the reference.  The allowance stays below 10 abs_tol,
        # so a read that misses abs_tol by 10x fails here, at every tolerance
        cells = np.ascontiguousarray(C.T).sum(axis=1)
        assert np.array_equal(np.cumsum(cells), table[1:])
        running = np.array([math.fsum(cells[:k]) for k in range(cells.size + 1)])
        allowance = abs_tol + 2.0 * np.abs(table - running).max() + 4.0 * eps * np.abs(table).max()
        assert allowance < 10.0 * abs_tol
        assert np.abs(got - exact).max() <= allowance


class TestEvaluateGrid:
    """The shared dense loop returns the bits of one big evaluate_many batch,
    whatever the chunk size."""

    @staticmethod
    def one_batch(sol, xs, ts):
        tt, xx = np.meshgrid(ts, xs, indexing="ij")
        return sol.evaluate_many(xx.ravel(), tt.ravel()).reshape(tt.shape)

    SOL = solve_dalembert(problem(0.8))

    def check_chunk(self, chunk, nx, nt):
        sol = self.SOL
        xs = np.linspace(0.0, 6.0, nx)
        ts = np.linspace(0.0, 2.0, nt)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_CHUNK", chunk)
            got = evaluate_grid(sol, xs, ts)
        assert got.shape == (nt, nx)
        assert got.tobytes() == self.one_batch(sol, xs, ts).tobytes()

    # each grid is larger than its chunk, so several chunks are evaluated
    @pytest.mark.parametrize("chunk, nx, nt", [(1, 9, 5), (7, 9, 5), (4096, 65, 65)])
    def test_dalembert_field_independent_of_chunk(self, chunk, nx, nt):
        self.check_chunk(chunk, nx, nt)

    # drawn chunks may also exceed the grid
    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 5000), st.integers(2, 33), st.integers(2, 9))
    def test_dalembert_field_independent_of_drawn_chunk(self, chunk, nx, nt):
        self.check_chunk(chunk, nx, nt)

    @pytest.mark.parametrize("chunk, nx", [(1, 3), (7, 5), (4096, 33)])
    def test_tight_tolerance_probe_grid_independent_of_chunk(self, monkeypatch, chunk, nx):
        # the t = 0 velocity probe: 513 window times per x over the one-sided
        # difference window of an order-0.8 derivative at 0, on the solution
        # at its own tolerance
        sol = solve_dalembert(problem(0.8))
        xs = np.linspace(0.0, 6.0, nx)
        ts = np.linspace(0.0, float(_difference_step(0.0, 0.8)), 513)
        monkeypatch.setattr(solver, "_CHUNK", chunk)
        got = evaluate_grid(sol, xs, ts)
        assert got.tobytes() == self.one_batch(sol, xs, ts).tobytes()

    def test_indexes_its_grid_without_copies(self):
        # no coordinate grids: beyond the output only one batch's temporaries
        sol = solve_first_order(problem(0.5, f="sin(x)"))
        xs = np.linspace(0.0, 6.0, 513)
        ts = np.linspace(0.0, 2.0, 513)
        tracemalloc.start()
        try:
            got = evaluate_grid(sol, xs, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * got.nbytes


class TestAntiderivativeTable:
    """Velocity integrals are read from one cached antiderivative table, with
    no quadrature per point.  The table's range, the scaled argument range,
    is the antiderivative's domain: beyond it DomainError."""

    ABS_TOL = 1e-6  # loose, so the tolerance split is actually exercised
    SOL = solve_dalembert(
        problem(0.8, g="exp(x / 4) * sin(3 * x)"),
        Tolerance(ABS_TOL),
    )
    KNOTS = np.linspace(*SOL.problem.scaled_argument_range(), solver._TABLE_CELLS + 1)
    WIDTH = KNOTS[1] - KNOTS[0]

    @classmethod
    def interval(cls, kind, k, u, v, n):
        """An interval of the given kind; k picks a cell, u and v in [0, 1]
        place the ends, n is a cell count."""
        knots, w = cls.KNOTS, cls.WIDTH
        cells = knots.size - 1
        inside = lambda j, frac: knots[j] + w * (0.1 + 0.8 * frac)
        if kind == "zero":
            lo = hi = knots[k] + w * u
        elif kind == "one_cell":
            lo, hi = sorted((inside(k, u), inside(k, v)))
        elif kind == "one_knot":
            k = max(k, 1)
            lo, hi = inside(k - 1, u), inside(k, v)
        elif kind == "many_cells":
            # k + 2 <= cells - 1 keeps at least two knots inside
            k = min(k, cells - 3)
            lo, hi = inside(k, u), inside(min(k + n, cells - 1), v)
        return lo, hi

    def test_knots_span_scaled_argument_range(self):
        knots, table = self.SOL._table[:2]
        assert knots.tobytes() == self.KNOTS.tobytes()
        assert table[0] == 0.0 and table.shape == knots.shape

    @given(
        st.sampled_from(["zero", "one_cell", "one_knot", "many_cells"]),
        st.integers(0, solver._TABLE_CELLS - 1),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(2, solver._TABLE_CELLS),
    )
    @example(kind="many_cells", k=1022, u=0.0, v=0.0, n=2)
    # QUADPACK may report roundoff at 1e-13, far below the ABS_TOL compared
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_agrees_with_direct_integral(self, kind, k, u, v, n):
        lo, hi = self.interval(kind, k, u, v, n)
        knots_inside = np.count_nonzero((self.KNOTS >= lo) & (self.KNOTS <= hi))
        if kind == "one_cell":
            assert knots_inside == 0
        elif kind == "one_knot":
            assert knots_inside == 1
        elif kind == "many_cells":
            assert knots_inside >= 2
        antiderivative = self.SOL._antiderivative
        got = (antiderivative(np.array([hi])) - antiderivative(np.array([lo])))[0]
        reference, _ = integrate.quad(
            functools.partial(evaluate, self.SOL.problem.g), lo, hi, epsabs=1e-13, epsrel=0.0
        )
        assert abs(got - reference) <= self.ABS_TOL

    def test_one_quadrature_pass_per_solution(self, monkeypatch):
        # once the table is built, a field evaluates only f, at each point's
        # two ends, and never g
        sol = solve_dalembert(problem(0.8))
        sol.evaluate(1.0, 1.0)
        points = []

        def counting(expr, value):
            points.append(np.size(value))
            return evaluate(expr, value)

        monkeypatch.setattr(solver, "evaluate", counting)
        evaluate_field(sol, 65, 65)
        assert sum(points) == 2 * 65 * 65

    def test_argument_range_ends_are_accepted(self):
        lo, hi = self.SOL.problem.scaled_argument_range()
        assert math.isfinite(self.SOL.forward_profile(hi))
        assert math.isfinite(self.SOL.backward_profile(lo))

    @pytest.mark.parametrize(
        "y",
        [np.nextafter(KNOTS[0], -np.inf), np.nextafter(KNOTS[-1], np.inf), math.nan],
        ids=["below", "above", "nan"],
    )
    def test_argument_beyond_the_table_raises(self, y):
        with pytest.raises(DomainError, match="outside the scaled argument range"):
            self.SOL._antiderivative(np.array([0.0, y]))

    def test_point_beyond_the_domain_raises(self):
        prob = self.SOL.problem
        with pytest.raises(DomainError) as info:
            self.SOL.evaluate_many(np.array([2 * prob.x_max]), np.array([prob.t_max]))
        # plain numbers, not reprs such as np.float64(...)
        lo, hi = prob.scaled_argument_range()
        message = str(info.value)
        assert f"scaled argument range [{lo:.6g}, {hi:.6g}]" in message
        assert "[0, x_max] x [0, t_max] = [0, 6] x [0, 2]" in message
        assert "np." not in message

    @settings(deadline=None)
    @given(
        st.floats(0.05, 1.0),
        st.floats(0.1, 10.0),
        st.floats(0.01, 30.0),
        st.floats(0.01, 30.0),
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=8),
    )
    def test_whole_domain_is_accepted(self, alpha, c, x_max, t_max, fractions):
        # a corner whose argument rounded past the table's end would raise
        sol = solve_dalembert(problem(alpha, c=c, f="x", g="x", x_max=x_max, t_max=t_max))
        u, v = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), *fractions]).T
        assert np.all(np.isfinite(sol.evaluate_many(u * x_max, v * t_max)))

    def test_point_alone_matches_batch_bitwise(self):
        prob = problem(0.8)
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.0, prob.x_max, 200)
        ts = rng.uniform(0.0, prob.t_max, 200)
        ts[:20] = 0.0  # zero-width intervals
        ts[20:40] = rng.uniform(0.0, 1e-6, 20)  # mostly knot-free: both tails from one knot
        batch = solve_dalembert(prob).evaluate_many(xs, ts)
        for i in range(xs.size):
            # a fresh solution builds its own table: the bits must not depend on it
            alone = solve_dalembert(prob).evaluate_many(xs[i:i + 1], ts[i:i + 1])
            assert alone.tobytes() == batch[i:i + 1].tobytes()

    def test_profile_components_use_signed_table_integral(self):
        sol = solve_dalembert(problem(0.8))
        scale = 2.0 * sol.problem.wave_scale
        for y in (-1.3, 0.0, 2.2):
            half_int = 0.5 * (sol.forward_profile(y) - sol.backward_profile(y))
            assert half_int == pytest.approx((1.0 - math.cos(y)) / scale, abs=1e-12)

    def test_pole_in_velocity_profile_fails_at_first_evaluation(self):
        # g = 1/(x - 1) has a pole inside the scaled argument range
        prob = problem(0.8, g="1/(x - 1)", x_max=2 * math.pi, t_max=2 * math.pi)
        # the table covers the whole range, so even a zero-width interval
        # fails, and the error names the profile and the range
        lo, hi = prob.scaled_argument_range()
        named = re.escape(f"g = (1.0 / (x - 1.0)) on [{lo:.6g}, {hi:.6g}]: Chebyshev cell rule")
        with pytest.raises(QuadratureError, match=named):
            solve_dalembert(prob).evaluate(5.0, 0.0)
        with pytest.raises(QuadratureError, match=named):
            evaluate_field(solve_dalembert(prob), 17, 17)

    @pytest.mark.parametrize("g", ["(x^2+1e-300)^-0.5", "sin(1/(x^2+1e-4))"])
    def test_unconverged_cell_raises_naming_g_and_the_cell(self, g):
        # a singular g and one oscillating too fast for the cells: each fails
        # at the top degree on the example1 shape, and neither is accepted
        # with a wrong value
        prob = problem(0.9, g=g, x_max=2 * math.pi, t_max=2 * math.pi)
        lo, hi = prob.scaled_argument_range()
        named = re.escape(f"velocity profile g = {to_text(prob.g)} on [{lo:.6g}, {hi:.6g}]: ")
        unconverged = r"Chebyshev cell rule did not converge .* cell \d+, \["
        with pytest.raises(QuadratureError, match=named + unconverged):
            solve_dalembert(prob).evaluate(1.0, 1.0)

    def test_abs_tol_below_rounding_floor_is_refused_after_the_knots(self, monkeypatch):
        prob = problem(0.9, x_max=2 * math.pi, t_max=2 * math.pi)
        sol = solve_dalembert(prob, Tolerance(1e-300))
        points = []

        def counting(expr, value):
            if expr is prob.g:
                points.append(np.size(value))
            return evaluate(expr, value)

        monkeypatch.setattr(solver, "evaluate", counting)
        refused = r"velocity profile g = .*: Chebyshev cell rule refused.*rounding floor"
        with pytest.raises(QuadratureError, match=refused):
            sol.evaluate(1.0, 1.0)
        assert sum(points) == solver._TABLE_CELLS + 1

    def test_rounding_limited_tolerance_converges_within_stated_bound(self):
        # abs_tol / 1026 per cell lies below the cells' rounding (|A| up to
        # about 3.8e3); their rounding term accepts them, and the field
        # stays within the stated bound
        text, antiderivative = polynomial_profile((0.0, -3.773, 1.0))
        abs_tol = 1.5e-13
        prob = problem(0.95, c=3.0, f="0", g=text, x_max=2 * math.pi, t_max=2 * math.pi)
        sol = solve_dalembert(prob, Tolerance(abs_tol))
        field = evaluate_field(sol, 65, 65)
        tt, xx = np.meshgrid(field.t, field.x, indexing="ij")
        xp, tp = prob.scaled_coords(xx, tt)
        c_a = prob.wave_scale
        exact = (antiderivative(xp + c_a * tp) - antiderivative(xp - c_a * tp)) / (2.0 * c_a)
        _, table = sol._table[:2]
        rounding = solver._TABLE_CELLS * np.finfo(float).eps * np.abs(np.diff(table)).sum()
        assert np.abs(field.values - exact).max() <= (abs_tol + rounding) / (2.0 * c_a)
