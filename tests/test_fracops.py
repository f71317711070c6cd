import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from fracwave.core import DomainError, QuadratureError, euler_power_coefficient, gamma
from fracwave.expr import BinOp, Literal, Pow, Var, evaluate, parse
from fracwave.fracops import (
    QuadratureConfig,
    Samples1D,
    _fn_derivative_on,
    _kernel_node_weights,
    caputo_derivative,
    grid_operator_matrix,
    integral_dx_alpha,
    jumarie_derivative,
    jumarie_derivative_grid,
    rl_derivative,
    rl_integral,
)

CFG = QuadratureConfig(2048)


def brute_force_rl_integral(fn, alpha, x):
    """Independent oracle: QUADPACK with the algebraic endpoint weight
    (x - xi)^(alpha - 1) handled exactly."""
    value, _ = integrate.quad(fn, 0.0, x, weight="alg", wvar=(0.0, alpha - 1.0))
    return value / math.gamma(alpha)


class TestRlIntegral:
    def test_constant_half_order(self):
        # closed form x^alpha / gamma(1 + alpha); at alpha=0.5, x=4 this is
        # 2/gamma(1.5), cross-checked against libm and QUADPACK
        expected = 2.0 / math.gamma(1.5)
        assert expected == pytest.approx(2.256758334191025, rel=1e-14)
        got = rl_integral(parse("1"), 0.5, 4.0, CFG)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(brute_force_rl_integral(lambda s: 1.0, 0.5, 4.0), rel=1e-10)

    def test_classical_integral_of_one(self):
        assert rl_integral(parse("1"), 1.0, 3.0, CFG) == pytest.approx(3.0, rel=1e-13)

    def test_classical_integral_of_x(self):
        assert rl_integral(parse("x"), 1.0, 2.0, CFG) == pytest.approx(2.0, rel=1e-13)

    def test_linear_integrand_against_quadpack(self):
        got = rl_integral(parse("x"), 0.5, 1.0, CFG)
        oracle = brute_force_rl_integral(lambda s: s, 0.5, 1.0)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_smooth_integrand_against_quadpack(self):
        got = rl_integral(parse("sin(x)"), 0.7, 2.0, CFG)
        oracle = brute_force_rl_integral(math.sin, 0.7, 2.0)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_zero_upper_limit(self):
        assert rl_integral(parse("sin(x)"), 0.5, 0.0, CFG) == 0.0

    @pytest.mark.parametrize(
        "alpha, x",
        [(0.5, 5e-324), (0.5, 4e-321), (0.5, 1e-310), (1.0, 5e-324), (1.0, 1e160), (0.9, 1e250)],
    )
    def test_subnormal_panel_width(self, alpha, x):
        # x / n_panels underflows, or (x/n)^(alpha+1) overflows at a huge x:
        # the rule must neither divide 0 by 0, lose the subnormal digits, nor
        # overflow, so its moments are taken on the unit grid
        expected = x**alpha / math.gamma(1 + alpha)
        assert rl_integral(parse("1"), alpha, x, CFG) == pytest.approx(expected, rel=1e-12)

    def test_zero_upper_limit_keeps_row_shape(self):
        rows = lambda ts: np.stack([ts, 2.0 * ts])
        got = rl_integral(rows, 0.5, 0.0, CFG)
        assert isinstance(got, np.ndarray) and got.shape == (2,)
        assert np.array_equal(got, np.zeros(2))
        assert rl_integral(rows, 0.5, 1.0, CFG).shape == (2,)

    def test_non_finite_rows_give_a_one_line_message(self):
        # a count, not the array: NumPy's repr of 33 values spans several lines
        rows = lambda ts: np.full((33, ts.size), np.inf)
        with pytest.raises(QuadratureError) as info:
            rl_integral(rows, 0.5, 1.0, CFG)
        message = str(info.value)
        assert "\n" not in message and "33 of 33 integrals are not finite" in message

    def test_negative_x_rejected(self):
        # every pointwise operator refuses x < 0, inf and nan before it
        # evaluates f, with no warning: 1/x would raise an EvaluationError at f(0)
        for op in (rl_integral, rl_derivative, jumarie_derivative, caputo_derivative,
                   integral_dx_alpha):
            for x in (-1.0, math.inf, math.nan):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(DomainError, match="x must be >= 0"):
                        op(parse("1/x"), 0.5, x, CFG)


# operands of the bitwise definition checks: expressions, and a callable of
# rows (the shape of the t = 0 probe's call), with the result shape of each
DEFINITION_OPERANDS = [
    *[(parse(text), ()) for text in ("sin(x) + 2", "x^2 + 5", "exp(-x)")],
    (lambda xs: np.stack([np.sin(xs + 1.0), 3.0 * xs**0.7 + 2.0]), (2,)),
]


def assert_same_bits(got, want, shape):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape == shape
    assert got.tobytes() == want.tobytes()


class TestRlDerivative:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.8])
    @pytest.mark.parametrize("x", [0.0, 0.6, 1.7])
    def test_bitwise_definition_from_rl_integral(self, alpha, x):
        # D^a f = d/dx I^(1-a) f: the module's outer derivative of rl_integral
        cfg = QuadratureConfig(64)
        for f, shape in DEFINITION_OPERANDS:
            inner = lambda ys: np.stack([rl_integral(f, 1.0 - alpha, y, cfg) for y in ys], axis=-1)
            want = _fn_derivative_on(inner, np.array([x]), alpha)[..., 0]
            assert_same_bits(rl_derivative(f, alpha, x, cfg), want, shape)

    def test_constant_maps_to_power_law(self):
        # K x^-alpha / gamma(1-alpha); at K=1, alpha=0.5, x=1: 1/gamma(0.5)
        expected = 1.0 / math.gamma(0.5)
        assert expected == pytest.approx(0.5641895835477563, rel=1e-14)
        got = rl_derivative(parse("1"), 0.5, 1.0, CFG)
        assert got == pytest.approx(expected, rel=1e-8)
        for alpha in (0.3, 0.7, 0.9):
            for x in (0.5, 1.0, 2.5):
                expected = 3.25 * x ** (-alpha) / math.gamma(1.0 - alpha)
                assert rl_derivative(parse("3.25"), alpha, x, CFG) == pytest.approx(
                    expected, rel=1e-8
                )

    def test_classical_derivative_of_x(self):
        assert rl_derivative(parse("x"), 1.0, 5.0, CFG) == pytest.approx(1.0, rel=1e-10)

    def test_half_derivative_of_x(self):
        # oracle: the power rule coefficient gamma(2)/gamma(1.5)
        expected = euler_power_coefficient(1.0, 0.5)
        got = rl_derivative(parse("x"), 0.5, 1.0, CFG)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(1.128379167095513, rel=1e-9)


class TestCaputoDerivative:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("x", [0.0, 0.6, 1.7])
    def test_bitwise_definition_from_rl_integral(self, alpha, x):
        # ^C D^a f = I^(1-a) f', f' by differencing; at a = 1 it is f' itself,
        # the R-L derivative of order 1
        cfg = QuadratureConfig(64)
        for f, shape in DEFINITION_OPERANDS:
            fn = f if callable(f) else (lambda xs, f=f: evaluate(f, xs))
            fprime = lambda nodes: _fn_derivative_on(fn, np.asarray(nodes, dtype=float))
            if alpha == 1.0:
                want = rl_derivative(f, 1.0, x, cfg)
            else:
                want = rl_integral(fprime, 1.0 - alpha, x, cfg)
            assert_same_bits(caputo_derivative(f, alpha, x, cfg), want, shape)

    def test_annihilates_constants(self):
        assert abs(caputo_derivative(parse("7.5"), 0.5, 1.0, CFG)) <= 1e-12

    def test_classical_derivative_of_x(self):
        assert caputo_derivative(parse("x"), 1.0, 2.0, CFG) == pytest.approx(1.0, rel=1e-10)

    def test_half_derivative_of_square(self):
        # gamma(3)/gamma(2.5) via independent gamma
        expected = math.gamma(3.0) / math.gamma(2.5)
        assert expected == pytest.approx(1.504505556127351, rel=1e-14)
        got = caputo_derivative(parse("x^2"), 0.5, 1.0, CFG)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_rows_of_samples_at_classical_order(self):
        # one derivative per row at alpha = 1 too, as rl_derivative gives
        rows = lambda t: np.stack([t**0.6, 3.0 * t + 2.0])
        got = caputo_derivative(rows, 1.0, 0.5)
        assert got.shape == (2,)
        np.testing.assert_allclose(got, rl_derivative(rows, 1.0, 0.5), rtol=1e-12)
        np.testing.assert_allclose(got, [0.6 * 0.5**-0.4, 3.0], rtol=1e-7)


class TestJumarieDerivative:
    def test_annihilates_constants(self):
        assert abs(jumarie_derivative(parse("4.2"), 0.5, 1.0, CFG)) <= 1e-12
        assert abs(jumarie_derivative(parse("4.2"), 0.8, 2.0, CFG)) <= 1e-12

    def test_power_rule(self):
        # x^beta -> euler coefficient * x^(beta - alpha)
        for beta, alpha, x in [(2.0, 0.5, 1.0), (2.5, 0.7, 1.5), (1.0, 0.3, 2.0)]:
            expected = euler_power_coefficient(beta, alpha) * x ** (beta - alpha)
            got = jumarie_derivative(parse(f"x^{beta}"), alpha, x, CFG)
            assert got == pytest.approx(expected, rel=2e-5)
        assert jumarie_derivative(parse("x^2"), 0.5, 1.0, CFG) == pytest.approx(
            1.504505556127351, rel=2e-5
        )

    def test_classical_limit_is_cosine(self):
        for x in (0.0, 0.5, 2.0):
            assert jumarie_derivative(parse("sin(x)"), 1.0, x, CFG) == pytest.approx(
                math.cos(x), abs=1e-8
            )

    def test_bitwise_delegation_to_rl_on_shifted_function(self):
        # jumarie(f) must equal rl(f - f(0)) through the identical code path,
        # at the terminal too, and on rows of samples (the t = 0 probe's call)
        cfg = QuadratureConfig(512)
        exprs = [parse(text) for text in ("sin(x) + 2", "x^2 + 5", "exp(-x)")]
        cases = [(f, BinOp("-", f, Literal(evaluate(f, 0.0))), ()) for f in exprs]
        for alpha in (0.3, 0.8, 1.0):
            rows = lambda ts: np.stack([np.sin(ts + 1.0), 3.0 * ts**alpha + 2.0])
            shifted_rows = lambda ts: rows(ts) - rows(np.zeros(1))
            for f, shifted, shape in [*cases, (rows, shifted_rows, (2,))]:
                for x in (0.0, 0.6, 1.7):
                    jumarie = np.asarray(jumarie_derivative(f, alpha, x, cfg))
                    rl = np.asarray(rl_derivative(shifted, alpha, x, cfg))
                    assert jumarie.shape == rl.shape == shape
                    assert jumarie.tobytes() == rl.tobytes(), (alpha, x)

    @pytest.mark.parametrize("alpha", [0.6, 1.0])
    def test_rows_of_samples_match_single_series(self, alpha):
        # the t = 0 velocity probe of verify: D^a of t^a is gamma(1 + a), and
        # each row of a 2-D sample array is differentiated as if passed alone
        cfg = QuadratureConfig(512)
        rows = lambda ts: np.stack([ts**alpha, 3.0 * ts**alpha + 2.0])
        vel = jumarie_derivative(rows, alpha, 0.0, cfg)
        assert vel.shape == (2,)
        single = jumarie_derivative(lambda ts: ts**alpha, alpha, 0.0, cfg)
        assert isinstance(single, float)
        assert single == pytest.approx(gamma(1.0 + alpha), rel=1e-3)
        assert vel[0] == pytest.approx(single, rel=1e-12)
        # the offset 2 cancels in u - u(0), leaving rounding of 2 amplified by 1/h
        assert vel[1] == pytest.approx(3.0 * single, rel=1e-6)


class TestIdentities:
    @settings(deadline=None)
    @given(
        st.sampled_from([jumarie_derivative, caputo_derivative]),
        st.floats(-1e3, 1e3),
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(0.0, 5.0),
    )
    @example(jumarie_derivative, 7.5, 1.0, 2.0)
    @example(caputo_derivative, -7.5, 1.0, 0.0)
    def test_constants_map_to_exact_zero(self, operator, constant, alpha, x):
        assert operator(Literal(constant), alpha, x) == 0.0

    @settings(deadline=None)
    @given(
        st.floats(1.0, 3.0),
        st.floats(0.05, 1.0, exclude_max=True),
        st.floats(0.25, 4.0),
    )
    def test_power_rule(self, beta, alpha, x):
        expected = euler_power_coefficient(beta, alpha) * x ** (beta - alpha)
        got = jumarie_derivative(Pow(Var(), beta), alpha, x, QuadratureConfig(1024))
        assert got == pytest.approx(expected, rel=1e-5)


class TestOperatorAgreement:
    SMOOTH = ["sin(x) + 2", "exp(-x) + x^2", "x^2 + 5", "cos(x) - 0.5", "1 + x + x^3"]

    def test_jumarie_caputo_agree_on_smooth_functions(self):
        points = np.linspace(0.15, 3.0, 20)
        for text in self.SMOOTH:
            f = parse(text)
            for alpha in (0.3, 0.5, 0.7, 0.9):
                for x in points[::5]:
                    j = jumarie_derivative(f, alpha, float(x), CFG)
                    c = caputo_derivative(f, alpha, float(x), CFG)
                    assert j == pytest.approx(c, abs=2e-5)

    def test_classical_limit_all_three(self):
        analytic = {
            "sin(x) + 2": math.cos,
            "x^2 + 5": lambda x: 2 * x,
            "exp(-x) + x^2": lambda x: -math.exp(-x) + 2 * x,
        }
        for text, deriv in analytic.items():
            f = parse(text)
            for x in np.linspace(0.2, 3.0, 7):
                x = float(x)
                for op in (rl_derivative, caputo_derivative, jumarie_derivative):
                    assert op(f, 1.0, x, CFG) == pytest.approx(deriv(x), abs=1e-8)

    def test_linearity(self):
        fa, fb = parse("sin(x)"), parse("x^2")
        combined = parse("2.5*sin(x) - 1.25*x^2")
        for op in (rl_integral, rl_derivative, caputo_derivative, jumarie_derivative):
            for alpha in (0.5, 0.8):
                for x in (0.7, 2.0):
                    lhs = op(combined, alpha, x, CFG)
                    rhs = 2.5 * op(fa, alpha, x, CFG) - 1.25 * op(fb, alpha, x, CFG)
                    assert lhs == pytest.approx(rhs, abs=1e-9)


class TestIntegralDxAlpha:
    def test_unit_integrand_gives_x_to_alpha(self):
        assert integral_dx_alpha(parse("1"), 0.5, 4.0, CFG) == pytest.approx(2.0, rel=1e-12)

    def test_classical(self):
        assert integral_dx_alpha(parse("1"), 1.0, 7.0, CFG) == pytest.approx(7.0, rel=1e-13)

    def test_linear_integrand(self):
        # gamma(1.5)*gamma(2)/gamma(2.5) = 2/3 exactly; brute-force confirms
        got = integral_dx_alpha(parse("x"), 0.5, 1.0, CFG)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-12)
        oracle = math.gamma(1.5) * brute_force_rl_integral(lambda s: s, 0.5, 1.0)
        assert got == pytest.approx(oracle, rel=1e-10)


def reference_grid_operator(n, dx, alpha):
    """The operator assembled term by term: an explicit difference stencil
    (central inside, one-sided at both ends) times a weight matrix whose row i
    is the product rule on [0, i*dx], with the u[0] subtraction folded into
    column 0 afterwards."""
    d = np.zeros((n + 1, n + 1))
    idx = np.arange(1, n)
    d[idx, idx - 1] = -0.5 / dx
    d[idx, idx + 1] = 0.5 / dx
    d[0, 0], d[0, 1] = -1.0 / dx, 1.0 / dx
    d[n, n - 1], d[n, n] = -1.0 / dx, 1.0 / dx
    if alpha == 1.0:
        return d
    w = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        w[i, : i + 1] = _kernel_node_weights(1.0 - alpha, i * dx, i)
    m = d @ w / gamma(1.0 - alpha)
    m[:, 0] -= m @ np.ones(n + 1)
    return m


class TestGridOperatorMatrix:
    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(4, 512),
        st.floats(0.02, 1.0, exclude_max=True),
        st.floats(1e-3, 3.0),
    )
    def test_matches_reference(self, n, alpha, dx):
        got = grid_operator_matrix(n, dx, alpha)
        ref = reference_grid_operator(n, dx, alpha)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()

    @settings(deadline=None, max_examples=40)
    @given(st.integers(4, 512), st.floats(1e-3, 3.0))
    def test_classical_order_is_the_stencil_bitwise(self, n, dx):
        assert np.array_equal(grid_operator_matrix(n, dx, 1.0), reference_grid_operator(n, dx, 1.0))


def lag_matrix_grid_operator(n, dx, alpha):
    """The Toeplitz weights gathered through an int64 lag matrix: the
    construction the sliding window replaced, kept as a bitwise reference."""
    reversed_w = _kernel_node_weights(1.0 - alpha, n * dx, n)[::-1]
    lag = np.subtract.outer(np.arange(n + 1), np.arange(n + 1))
    w = np.tril(reversed_w[np.abs(lag)])
    w[:, 0] = -w[:, 1:].sum(axis=1)
    return np.gradient(w, dx, axis=0) / gamma(1.0 - alpha)


class TestGridOperatorToeplitz:
    @pytest.mark.parametrize(
        "n, dx, alpha",
        [(4, 1.0, 0.5), (5, 0.3, 0.02), (32, 0.19634954084936207, 0.9),
         (64, 1.0 / 64, 0.7), (257, 2.0 / 257, 0.8), (512, 3.0, 0.999)],
    )
    def test_sliding_window_equals_lag_matrix_bitwise(self, n, dx, alpha):
        got = grid_operator_matrix(n, dx, alpha)
        assert got.flags.c_contiguous
        assert got.tobytes() == lag_matrix_grid_operator(n, dx, alpha).tobytes()


class TestGridOperator:
    def test_constant_samples_give_zero(self):
        samples = Samples1D(0.0, 1.0 / 64, np.full(65, 3.7))
        out = jumarie_derivative_grid(samples, 0.7)
        assert np.abs(out.values).max() <= 1e-12

    def test_classical_limit_on_identity(self):
        n = 128
        samples = Samples1D(0.0, 1.0 / n, np.linspace(0.0, 1.0, n + 1))
        out = jumarie_derivative_grid(samples, 1.0)
        assert np.abs(out.values[1:-1] - 1.0).max() <= 1e-10

    def test_half_derivative_of_sqrt_is_constant(self):
        # x^0.5 at alpha=0.5 has derivative gamma(1.5) everywhere; the rule
        # converges slowly near the anchor, so check away from it and check
        # that refinement helps
        target = gamma(1.5)
        errs = []
        for n in (256, 512):
            xs = np.linspace(0.0, 1.0, n + 1)
            out = jumarie_derivative_grid(Samples1D(0.0, 1.0 / n, np.sqrt(xs)), 0.5)
            i0 = n // 4
            errs.append(np.abs(out.values[i0:-1] - target).max())
        assert errs[-1] <= 1e-3
        assert errs[1] < errs[0]

    def test_grid_preserves_spacing(self):
        samples = Samples1D(0.0, 0.25, np.linspace(0.0, 2.0, 9))
        out = jumarie_derivative_grid(samples, 0.5)
        assert out.dx == samples.dx and out.x0 == 0.0
        assert out.grid.tolist() == [0.25 * k for k in range(9)]

    def test_requires_anchor_at_zero(self):
        with pytest.raises(DomainError):
            jumarie_derivative_grid(Samples1D(1.0, 0.1, np.zeros(9)), 0.5)

    def test_requires_enough_nodes(self):
        with pytest.raises(DomainError):
            jumarie_derivative_grid(Samples1D(0.0, 0.1, np.zeros(4)), 0.5)


def E_a(z, a, terms=200):
    """Mittag-Leffler function E_a(z) = sum_k z^k / gamma(1 + k a), elementwise.

    Each term is z^k exp(-lgamma(1 + k a)), so that no factor overflows.  For
    |z| <= 4 and a >= 0.5 the first omitted term is below 4^200 / gamma(101)
    < 1e-37 and the terms past it shrink geometrically, so the truncation is
    far below rounding.
    """
    return sum(z**k * math.exp(-math.lgamma(1 + k * a)) for k in range(terms))


def core_linf(err, n):
    # the central 0.2-0.8 of the range, as verify.pde_residual's core_linf
    return float(np.max(np.abs(err[int(0.2 * n) : int(0.8 * n) + 1])))


def grid_core_order(a, kappa, times):
    """Observed order of the core error of grid_operator_matrix applied
    `times` times to E_a(kappa x^a) on [0, 2], against kappa^times E_a, from
    64 to 1024 cells."""
    ns = (64, 128, 256, 512, 1024)
    errs = []
    for n in ns:
        u = E_a(kappa * np.linspace(0.0, 2.0, n + 1) ** a, a)
        m = grid_operator_matrix(n, 2.0 / n, a)
        got = u
        for _ in range(times):
            got = m @ got
        errs.append(core_linf(got - kappa**times * u, n))
    return math.log2(errs[0] / errs[-1]) / (len(ns) - 1)


class TestMittagLefflerReference:
    """D^a E_a(k x^a) = k E_a(k x^a) for the Jumarie derivative: an exact
    non-polynomial eigenfunction, so D^a D^a gives k^2 (the constant term is
    annihilated)."""

    @pytest.mark.parametrize("a, tol", [(0.5, 1e-6), (0.7, 1e-7), (0.9, 2e-8)])
    @pytest.mark.parametrize("kappa", [-1.0, 0.5])
    def test_pointwise_eigen_relation(self, a, tol, kappa):
        # measured at most 5.0e-7, 4.0e-8 and 8.0e-9 at a = 0.5, 0.7, 0.9
        u = lambda xs: E_a(kappa * np.asarray(xs) ** a, a)
        for x in (0.5, 1.0, 1.7):
            got = jumarie_derivative(u, a, x, QuadratureConfig(4096))
            assert got == pytest.approx(kappa * E_a(kappa * x**a, a), abs=tol)

    @pytest.mark.parametrize("a, order", [(0.5, 1.4), (0.7, 1.6), (0.9, 1.8)])
    @pytest.mark.parametrize("kappa", [-1.0, 0.5])
    def test_grid_operator_once_converges(self, a, order, kappa):
        # measured 1.53-1.56, 1.72-1.79 and 1.92-1.95 at a = 0.5, 0.7, 0.9
        assert grid_core_order(a, kappa, 1) >= order

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: the composed operator stalls, likely because "
        "the first application's error next to 0 enters the second through "
        "its memory",
    )
    @pytest.mark.parametrize("a, kappa", [(0.7, -1.0), (0.7, 0.5), (0.9, -1.0), (0.9, 0.5)])
    def test_grid_operator_twice_converges(self, a, kappa):
        # measured 0.21, -0.26, 0.47 and 0.12
        assert grid_core_order(a, kappa, 2) >= 1.0


class TestValidation:
    def test_samples_reject_nonfinite(self):
        with pytest.raises(DomainError):
            Samples1D(0.0, 0.1, np.array([0.0, math.nan, 1.0]))

    def test_samples_reject_fewer_than_three_values(self):
        with pytest.raises(DomainError, match="at least 3 values"):
            Samples1D(0.0, 0.1, np.zeros(2))

    def test_samples_reject_bad_spacing(self):
        with pytest.raises(DomainError):
            Samples1D(0.0, 0.0, np.zeros(9))

    def test_config_minimum_panels(self):
        with pytest.raises(DomainError):
            QuadratureConfig(4)
