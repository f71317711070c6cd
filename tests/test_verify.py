import dataclasses
import functools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracwave.core import DomainError, FractionalOrder, QuadratureError, gamma
from fracwave.expr import parse
from fracwave import solver, verify
from fracwave.cli import load_problem_file
from fracwave.fracops import Samples1D, grid_operator_matrix, jumarie_derivative_grid
from fracwave.solver import WaveProblem, evaluate_grid, solve_dalembert, solve_first_order
from fracwave.verify import (
    LevelResidual,
    candidate_product_forms,
    check_initial_conditions,
    compare_candidate_forms,
    pde_residual,
    route_equivalence,
    stability_check,
)

TWO_PI = 2.0 * math.pi
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def example_problem(alpha, example=1, c=1.0, x_max=TWO_PI, t_max=TWO_PI):
    f = "x^2" if example == 1 else "0"
    return WaveProblem(FractionalOrder(alpha), c, parse(f), parse("sin(x)"), x_max, t_max)


class TestInitialConditions:
    def test_example1_position_check_passes_tightly(self):
        prob = example_problem(0.9)
        report = check_initial_conditions(prob, solve_dalembert(prob))
        assert report.position_max_error <= 1e-10
        assert report.position_pass
        assert report.passed

    def test_non_finite_subject_is_refused(self):
        # a position error of inf would reach the report as invalid JSON
        prob = example_problem(0.9)
        subject = verify.CallableSolution(lambda x, t: np.full_like(x, math.inf))
        with pytest.raises(QuadratureError, match=r"u\(x, 0\) is not finite"):
            check_initial_conditions(prob, subject)

    def test_velocity_check_recovers_g(self):
        for alpha in (0.5, 0.8, 1.0):
            prob = example_problem(alpha, example=2, x_max=4.0, t_max=2.0)
            report = check_initial_conditions(prob, solve_dalembert(prob))
            assert report.velocity_max_error is not None
            assert report.velocity_max_error <= 1e-3
            assert report.passed

    @pytest.mark.parametrize("alpha", [0.012, 0.015, 0.03, 0.1, 0.2, 0.3])
    def test_velocity_check_passes_at_small_orders(self, alpha):
        # the t = 0 window eps^(1/(2 alpha)) balances the O(h^alpha) bias of
        # the estimate against rounding; a 1e-8 window misses by 0.15 at 0.1.
        # Below alpha ~ 0.025 that window underflows and is floored at tiny;
        # the product rule takes its moments on the unit grid, so it works
        # at any window, and the floored bias still passes down to 0.01
        prob = example_problem(alpha)
        report = check_initial_conditions(prob, solve_dalembert(prob))
        assert report.velocity_max_error <= 1e-3
        assert report.velocity_pass

    def test_zero_velocity_problem(self):
        prob = WaveProblem(FractionalOrder(0.7), 1.0, parse("x^2"), parse("0"), 4.0, 2.0)
        report = check_initial_conditions(prob, solve_dalembert(prob))
        assert report.velocity_max_error <= 1e-3
        assert report.passed

    def test_first_order_solutions_skip_velocity(self):
        prob = WaveProblem(FractionalOrder(0.5), 1.0, parse("sin(x)"), parse("0"), 8.0, 2.0)
        report = check_initial_conditions(prob, solve_first_order(prob))
        assert report.velocity_max_error is None
        assert report.passed

    def test_corrupted_closed_form_fails_position_check(self):
        prob = example_problem(0.8, example=2)
        forms = candidate_product_forms(prob)
        report = check_initial_conditions(prob, forms["cos_product"])
        assert not report.position_pass
        # deviation is (1/c^a)|cos(X')|, about 1 near x = 0
        assert report.position_max_error > 0.5

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8, 1.0])
    def test_wrong_velocity_fails_velocity_check(self, alpha):
        prob = example_problem(alpha, example=1, x_max=4.0, t_max=2.0)
        wrong = dataclasses.replace(prob, g=parse("sin(x) + 0.01"))
        report = check_initial_conditions(prob, solve_dalembert(wrong))
        assert report.position_pass
        # the offset of g, 0.01, is ten times VELOCITY_TOL
        assert not report.velocity_pass

    def test_corrected_closed_form_passes_both_checks(self):
        prob = example_problem(0.8, example=2)
        forms = candidate_product_forms(prob)
        report = check_initial_conditions(prob, forms["sin_product"])
        assert report.position_max_error <= 1e-10
        assert report.velocity_max_error <= 1e-3
        assert report.passed


class TestCandidateForms:
    def test_comparison_quantifies_discrepancy(self):
        prob = example_problem(0.8, example=2)
        sol = solve_dalembert(prob)
        cmp_report = compare_candidate_forms(prob, sol)
        assert cmp_report.ic_max_error["sin_product"] <= 1e-10
        assert cmp_report.ic_max_error["cos_product"] > 0.5
        assert cmp_report.gap_vs_quadrature["sin_product"] <= 1e-9
        assert cmp_report.gap_vs_quadrature["cos_product"] > 0.5

    @pytest.mark.parametrize("alpha", [0.8, 1.0])
    @pytest.mark.parametrize("example", [1, 2])
    def test_ic_error_is_the_position_check(self, example, alpha):
        # both take u(x, 0) - f(X') from one routine on the same IC_NX points
        prob = example_problem(alpha, example=example)
        cmp_report = compare_candidate_forms(prob, solve_dalembert(prob))
        for name, form in candidate_product_forms(prob).items():
            position = check_initial_conditions(prob, form).position_max_error
            assert cmp_report.ic_max_error[name].hex() == position.hex()

    def test_non_finite_comparison_is_refused(self):
        # 1 / c^a overflows at the smallest subnormal c: the cos form is inf
        # at t = 0, and no NumPy warning precedes the refusal
        prob = example_problem(1.0, c=5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="candidate form 'cos_product'"):
                compare_candidate_forms(prob, solve_dalembert(prob))

    def test_example1_shape_recognized(self):
        prob = example_problem(0.7, example=1)
        forms = candidate_product_forms(prob)
        assert set(forms) == {"sin_product", "cos_product"}

    def test_unrecognized_shape_returns_none(self):
        prob = WaveProblem(FractionalOrder(0.7), 1.0, parse("x^2"), parse("cos(x)"), 4.0, 2.0)
        assert candidate_product_forms(prob) is None


class TestPdeResidual:
    def test_constant_solution_has_vanishing_residual(self):
        prob = WaveProblem(FractionalOrder(0.7), 1.0, parse("3.25"), parse("0"), 4.0, 4.0)
        report = pde_residual(prob, solve_dalembert(prob), 32, 32, levels=2)
        assert report.levels[-1].linf <= 1e-10
        assert report.monotone

    def test_classical_solution_monotone_with_clean_core(self):
        prob = example_problem(1.0)
        report = pde_residual(prob, solve_dalembert(prob), 32, 32, levels=3)
        assert report.monotone
        # away from the boundary bands the classical solution is exact down
        # to the differencing floor
        assert report.levels[-1].core_linf <= 1e-6

    def test_example1_residual_decreases_with_positive_slope(self):
        prob = example_problem(0.7)
        report = pde_residual(prob, solve_dalembert(prob), 32, 32, levels=3)
        linfs = [lv.linf for lv in report.levels]
        assert linfs[0] > linfs[1] > linfs[2]
        assert report.slope is not None and report.slope > 0.0
        assert report.monotone

    def test_notes_record_composition_choice(self):
        prob = example_problem(0.7)
        report = pde_residual(prob, solve_dalembert(prob), 32, 32, levels=1)
        assert any("two successive applications" in note for note in report.notes)
        assert report.slope is None  # fewer than 3 levels

    def test_rejects_coarse_grids(self):
        prob = example_problem(0.7)
        with pytest.raises(DomainError):
            pde_residual(prob, solve_dalembert(prob), 16, 16)

    def test_rejects_no_levels(self):
        prob = example_problem(0.7)
        with pytest.raises(DomainError, match="at least one refinement level"):
            pde_residual(prob, solve_dalembert(prob), 32, 32, levels=0)

    @pytest.mark.parametrize("x_max, t_max, named", [
        (5e-324, TWO_PI, "x_max / 128 = 0"),
        (TWO_PI, 1e-306, "t_max / 128 = 7.81e-309"),  # subnormal: 1 / (2 h) overflows
    ])
    def test_rejects_spacing_below_a_normal_double(self, x_max, t_max, named):
        prob = example_problem(1.0, x_max=x_max, t_max=t_max)
        with pytest.raises(DomainError, match=re.escape(f"residual grid spacing {named} is not")):
            pde_residual(prob, solve_dalembert(prob), 32, 32, levels=3)


def grid_residual(problem, u):
    """One level of the residual study from its own evaluated grid
    u[j, i] = u(x_i, t_j), with the level's cell counts read from the grid's
    shape: the body of pde_residual's level loop before the levels shared
    one evaluation."""
    nct, ncx = u.shape[0] - 1, u.shape[1] - 1
    alpha = problem.alpha
    mt = grid_operator_matrix(nct, problem.t_max / nct, alpha)
    mx = grid_operator_matrix(ncx, problem.x_max / ncx, alpha)
    d2t = mt @ (mt @ u)
    d2x = (u @ mx.T) @ mx.T
    resid = d2t - problem.speed ** (2.0 * alpha) * d2x
    inner = resid[2:, 2:]
    i0x, i1x = int(0.2 * ncx), int(0.8 * ncx) + 1
    i0t, i1t = int(0.2 * nct), int(0.8 * nct) + 1
    core = resid[i0t:i1t, i0x:i1x]
    return LevelResidual(
        ncx, nct,
        float(np.abs(inner).max()),
        float(np.sqrt(np.mean(inner ** 2))),
        float(np.abs(core).max()),
    )


def per_level_residuals(problem, sol, nx, nt, levels):
    """Each level evaluates its own grid and builds an operator per axis."""
    return tuple(
        grid_residual(
            problem,
            evaluate_grid(
                sol,
                np.linspace(0.0, problem.x_max, nx * 2 ** level + 1),
                np.linspace(0.0, problem.t_max, nt * 2 ** level + 1),
            ),
        )
        for level in range(levels)
    )


def shipped_case(name):
    pf = load_problem_file(PROBLEMS / f"{name}.yaml")
    return pf.solution.problem, solve_dalembert(pf.solution.problem, pf.solution.tol)


def non_square_case():
    # nx != nt and x_max != t_max, so the two axes need different operators
    prob = dataclasses.replace(load_problem_file(PROBLEMS / "example1.yaml").solution.problem,
                               x_max=5.0)
    return prob, solve_dalembert(prob)


def sin_product_case():
    prob = load_problem_file(PROBLEMS / "example2.yaml").solution.problem
    return prob, candidate_product_forms(prob)["sin_product"]


NESTING_CASES = [
    pytest.param(functools.partial(shipped_case, name), 32, 32, levels, id=f"{name}-levels{levels}")
    for name in ("example1", "example2", "classical")
    for levels in (1, 3)
] + [
    pytest.param(non_square_case, 33, 40, 3, id="non_square-levels3"),
    pytest.param(sin_product_case, 32, 32, 3, id="sin_product-levels3"),
]


class TestResidualNesting:
    """The levels of pde_residual are strided views of one evaluated grid;
    they must equal what each level computes from a grid of its own."""

    @pytest.mark.parametrize("make, nx, nt, levels", NESTING_CASES)
    def test_levels_equal_per_level_evaluation(self, make, nx, nt, levels):
        prob, sol = make()
        report = pde_residual(prob, sol, nx, nt, levels=levels)
        assert report.levels == per_level_residuals(prob, sol, nx, nt, levels)

    @pytest.mark.parametrize("make, nx, nt, ops", [
        pytest.param(functools.partial(shipped_case, "example1"), 32, 32, 3, id="square"),
        pytest.param(non_square_case, 33, 40, 6, id="non_square"),
    ])
    def test_one_evaluation_and_shared_operators(self, monkeypatch, make, nx, nt, ops):
        prob, sol = make()
        grids, built = [], []

        def spy_grid(sol, xs, ts):
            grids.append((xs.size, ts.size))
            return evaluate_grid(sol, xs, ts)

        def spy_operator(n, dx, order):
            built.append(n)
            return grid_operator_matrix(n, dx, order)

        monkeypatch.setattr(verify, "evaluate_grid", spy_grid)
        monkeypatch.setattr(verify, "grid_operator_matrix", spy_operator)
        report = pde_residual(prob, sol, nx, nt, levels=3)
        assert grids == [(4 * nx + 1, 4 * nt + 1)]
        assert len(built) == ops
        assert report.to_dict()["collar_cells"] == verify.COLLAR_CELLS == 2

    def test_view_one_level_off_fails_the_reference(self):
        # reading level l as u[::s, ::s] with s = 2^(levels - l), one level
        # too coarse, gives residuals the reference does not accept
        prob, sol = shipped_case("example1")
        levels, nx, nt = 3, 32, 32
        top = 2 ** (levels - 1)
        finest = evaluate_grid(
            sol,
            np.linspace(0.0, prob.x_max, nx * top + 1),
            np.linspace(0.0, prob.t_max, nt * top + 1),
        )
        step = lambda level: 2 ** (levels - level)
        off = tuple(
            grid_residual(prob, np.ascontiguousarray(finest[:: step(lv), :: step(lv)]))
            for lv in range(levels)
        )
        reference = per_level_residuals(prob, sol, nx, nt, levels)
        assert all(got != want for got, want in zip(off, reference))


class TestRouteEquivalence:
    def test_corpus_problem(self):
        prob = WaveProblem(FractionalOrder(0.5), 1.3, parse("sin(x)"), parse("0"), 8.0, 2.0)
        assert route_equivalence(prob, 200) <= 1e-12

    def test_classical_order(self):
        prob = WaveProblem(FractionalOrder(1.0), 2.0, parse("x^2"), parse("0"), 8.0, 2.0)
        assert route_equivalence(prob, 100) <= 1e-12

    def test_sweep_over_orders(self):
        total = 0
        for alpha in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            prob = WaveProblem(
                FractionalOrder(alpha), 1.1, parse("exp(-(x - 2)^2)"), parse("0"), 9.0, 2.0
            )
            assert route_equivalence(prob, 25, seed=3000 + int(alpha * 10)) <= 1e-12
            total += 25
        assert total == 200

    def test_detects_drift_in_scaling_map(self, monkeypatch):
        # the reference route computes the characteristic invariant itself, so
        # a scaling map with gamma(a) in place of gamma(1 + a) must show
        prob = WaveProblem(FractionalOrder(0.5), 1.3, parse("sin(x)"), parse("0"), 8.0, 2.0)
        drifted = lambda v, alpha: np.power(v, alpha) / math.gamma(alpha)
        monkeypatch.setattr(solver, "fractal_scale", drifted)
        monkeypatch.setattr(verify, "fractal_scale", drifted)
        assert route_equivalence(prob, 200) > 1e-12


class TestStability:
    def test_identical_problems(self):
        p = example_problem(0.8, x_max=4.0, t_max=2.0)
        q = example_problem(0.8, x_max=4.0, t_max=2.0)
        report = stability_check(p, q, 17, 17)
        assert report.to_dict() == {
            "delta": 0.0, "horizon": 2.0, "observed_gap": 0.0, "bound_paper": 0.0,
            "bound_derived": 0.0, "satisfied_paper": True, "satisfied_derived": True,
        }

    def test_constant_shift_of_f_passes_through(self):
        base = example_problem(0.8, x_max=4.0, t_max=2.0)
        shifted = WaveProblem(
            FractionalOrder(0.8), 1.0, parse("x^2 + 0.01"), parse("sin(x)"), 4.0, 2.0
        )
        report = stability_check(base, shifted, 33, 33)
        assert report.delta == pytest.approx(0.01, rel=1e-9)
        assert report.observed_gap == pytest.approx(0.01, rel=1e-6)
        assert report.satisfied_paper and report.satisfied_derived

    def test_constant_shift_of_g_bounded_by_integral_term(self):
        alpha, horizon = 0.8, 2.0
        base = example_problem(alpha, x_max=4.0, t_max=horizon)
        shifted = WaveProblem(
            FractionalOrder(alpha), 1.0, parse("x^2"), parse("sin(x) + 0.01"), 4.0, horizon
        )
        report = stability_check(base, shifted, 33, 33)
        expected_gap = 0.01 * horizon**alpha / gamma(1.0 + alpha)
        assert report.observed_gap <= expected_gap * (1.0 + 1e-9)
        assert report.observed_gap == pytest.approx(expected_gap, rel=1e-6)
        assert report.satisfied_derived

    def test_bound_ordering(self):
        base = example_problem(0.6, x_max=4.0, t_max=2.0)
        shifted = WaveProblem(
            FractionalOrder(0.6), 1.0, parse("x^2 + 0.05"), parse("sin(x)"), 4.0, 2.0
        )
        report = stability_check(base, shifted, 17, 17)
        assert report.bound_derived >= report.bound_paper

    def test_extremal_perturbation_exceeds_printed_bound_only(self):
        # constant shifts of both profiles attain delta*(1 + T^a/gamma(1+a)),
        # which exceeds the tighter printed constant delta*(1 + T^a) for a < 1
        alpha, horizon = 0.8, 2.0
        base = example_problem(alpha, x_max=4.0, t_max=horizon)
        shifted = WaveProblem(
            FractionalOrder(alpha), 1.0,
            parse("x^2 + 0.01"), parse("sin(x) + 0.01"), 4.0, horizon,
        )
        report = stability_check(base, shifted, 33, 33)
        assert report.satisfied_derived
        assert not report.satisfied_paper
        assert report.observed_gap == pytest.approx(report.bound_derived, rel=1e-9)

    def test_rejects_mismatched_problems(self):
        p = example_problem(0.8, x_max=4.0, t_max=2.0)
        q = example_problem(0.7, x_max=4.0, t_max=2.0)
        with pytest.raises(DomainError):
            stability_check(p, q, 9, 9)


class TestCompositionSanity:
    def test_half_order_twice_reproduces_first_derivative(self):
        # D^0.5 applied twice to samples of x gives 1; convergence is slow
        # near the anchor so measure on [1/4, 1] and check refinement helps
        errs = []
        for n in (128, 256, 512):
            xs = np.linspace(0.0, 1.0, n + 1)
            once = jumarie_derivative_grid(Samples1D(0.0, 1.0 / n, xs), 0.5)
            twice = jumarie_derivative_grid(once, 0.5)
            i0 = n // 4
            errs.append(np.abs(twice.values[i0:-1] - 1.0).max())
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] <= 0.05
