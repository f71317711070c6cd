"""Acceptance suite: one test per criterion, each printing a pass line with
the measured numbers.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np

from fracwave.cli import main as cli_main
from fracwave.core import FractionalOrder, gamma
from fracwave.expr import parse
from fracwave.fracops import (
    QuadratureConfig,
    caputo_derivative,
    integral_dx_alpha,
    jumarie_derivative,
    rl_derivative,
)
from fracwave.solver import WaveProblem, evaluate_field, solve_dalembert
from fracwave.verify import (
    candidate_product_forms,
    check_initial_conditions,
    compare_candidate_forms,
    pde_residual,
    route_equivalence,
    stability_check,
)

TWO_PI = 2.0 * math.pi


def example_problem(alpha, example=1, c=1.0, x_max=TWO_PI, t_max=TWO_PI):
    f = "x^2" if example == 1 else "0"
    return WaveProblem(FractionalOrder(alpha), c, parse(f), parse("sin(x)"), x_max, t_max)


def report(n, text):
    print(f"\nACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_classical_limit_reproduction():
    start = time.perf_counter()
    profiles = {
        "x^2": lambda s: s**2,
        "sin(x)": np.sin,
        "exp(-(x - 3)^2)": lambda s: np.exp(-((s - 3.0) ** 2)),
    }
    c = 1.5
    worst = 0.0
    for text, direct in profiles.items():
        prob = WaveProblem(FractionalOrder(1.0), c, parse(text), parse("0"), 6.0, 2.0)
        field = evaluate_field(solve_dalembert(prob), 128, 128)
        tt, xx = np.meshgrid(field.t, field.x, indexing="ij")
        reference = 0.5 * (direct(xx + c * tt) + direct(xx - c * tt))
        worst = max(worst, float(np.abs(field.values - reference).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(1, f"two-wave split matches the classical closed form: "
              f"max error {worst:.2e} over 128x128 grids, {elapsed:.2f}s")


def test_criterion_02_power_rule_operator_check():
    start = time.perf_counter()
    panel_counts = (512, 1024, 2048, 4096)
    order_floor = 1e-9  # below this the product rule is exact and order is noise
    x = 1.0
    lines = []
    for beta in (1.0, 2.0, 2.5):
        for alpha in (0.3, 0.5, 0.7, 0.9):
            exact = math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - alpha)
            errs = []
            for n in panel_counts:
                got = jumarie_derivative(parse(f"x^{beta}"), alpha, x, QuadratureConfig(n))
                errs.append(abs(got - exact) / abs(exact))
            assert errs[-1] <= 1e-4, (beta, alpha, errs)
            required = 2.0 - alpha - 0.2
            for e_coarse, e_fine in zip(errs, errs[1:]):
                if e_coarse < order_floor or e_fine < order_floor:
                    continue  # at the exactness floor; no measurable order
                observed = math.log2(e_coarse / e_fine)
                assert observed >= required, (beta, alpha, errs, observed)
            lines.append(f"b={beta} a={alpha}: err {errs[-1]:.1e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"power-rule check at 4096 panels within 1e-4 with convergence "
              f"order >= 2 - alpha - 0.2 ({'; '.join(lines[:3])}; ...), {elapsed:.1f}s")


def test_criterion_03_constant_annihilation():
    cfg = QuadratureConfig(2048)
    worst_j = worst_c = 0.0
    worst_rl = 0.0
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for x in (0.5, 1.0, 2.0):
            worst_j = max(worst_j, abs(jumarie_derivative(parse("4.2"), alpha, x, cfg)))
            worst_c = max(worst_c, abs(caputo_derivative(parse("4.2"), alpha, x, cfg)))
            expected = 4.2 * x ** (-alpha) / gamma(1.0 - alpha)
            got = rl_derivative(parse("4.2"), alpha, x, cfg)
            worst_rl = max(worst_rl, abs(got - expected) / abs(expected))
    assert worst_j <= 1e-12 and worst_c <= 1e-12
    assert worst_rl <= 1e-4
    report(3, f"constants: |jumarie| <= {worst_j:.1e}, |caputo| <= {worst_c:.1e}, "
              f"R-L matches K x^-a/gamma(1-a) to {worst_rl:.1e} relative")


def test_criterion_04_fractional_integral_identity():
    cfg = QuadratureConfig(1024)
    one = parse("1")
    pairs = [(a, x) for a in (0.25, 0.4, 0.5, 0.7, 0.9) for x in (0.5, 1.0, 2.5, 4.0)]
    assert len(pairs) == 20
    worst = 0.0
    for alpha, x in pairs:
        got = integral_dx_alpha(one, alpha, x, cfg)
        worst = max(worst, abs(got - x**alpha) / x**alpha)
    assert worst <= 1e-8
    report(4, f"integral of (dx)^alpha identity holds to {worst:.1e} relative on 20 pairs")


def test_criterion_05_route_equivalence():
    worst = 0.0
    samples = 0
    for i, alpha in enumerate((0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)):
        prob = WaveProblem(
            FractionalOrder(alpha), 1.0 + 0.2 * i, parse("sin(x)"), parse("0"), 9.0, 2.0
        )
        worst = max(worst, route_equivalence(prob, 25, seed=4000 + i))
        samples += 25
    assert samples == 200
    assert worst <= 1e-12
    report(5, f"characteristics and transform routes agree to {worst:.1e} "
              f"over {samples} samples")


def test_criterion_06_figure_datasets(tmp_path):
    outdir = tmp_path / "figs"
    assert cli_main(["figures", "--out", str(outdir)]) == 0
    files = sorted(p.name for p in outdir.glob("*.csv"))
    assert len(files) == 8

    def load(name):
        data = np.loadtxt(outdir / name, delimiter=",", skiprows=1)
        return data[:, 0], data[:, 1], data[:, 2]

    x, t, u1 = load("example1_alpha1.csv")
    worst1 = np.abs(u1 - (x**2 + t**2 + np.sin(x) * np.sin(t))).max()
    x, t, u2 = load("example2_alpha1.csv")
    worst2 = np.abs(u2 - np.sin(x) * np.sin(t)).max()
    assert worst1 <= 1e-10 and worst2 <= 1e-10

    min_gap = math.inf
    for example in (1, 2):
        fields = [load(f"example{example}_alpha{a:g}.csv")[2] for a in (0.7, 0.8, 0.9, 1.0)]
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                min_gap = min(min_gap, float(np.abs(fields[i] - fields[j]).max()))
    assert min_gap > 1e-3
    report(6, f"eight datasets emitted; alpha=1 matches classical forms to "
              f"{max(worst1, worst2):.1e}; distinct orders differ by >= {min_gap:.2e}")


def test_criterion_07_example2_discrepancy_detection():
    prob = example_problem(0.8, example=2)
    sol = solve_dalembert(prob)
    ic = check_initial_conditions(prob, sol)
    assert ic.position_max_error <= 1e-10

    forms = compare_candidate_forms(prob, sol)
    c_a = prob.wave_scale
    assert forms.ic_max_error["cos_product"] > 0.5 / c_a
    # pointwise at small x the printed form misses by ~ (1/c^a) |cos(X')|
    cos_form = candidate_product_forms(prob)["cos_product"]
    xs = np.linspace(0.0, 0.3, 5)
    deviation = np.abs(cos_form.evaluate_many(xs, np.zeros_like(xs)))
    assert deviation.min() > 0.5 / c_a
    report(7, f"quadrature solution satisfies u(x,0)=0 to {ic.position_max_error:.1e}; "
              f"printed cos-product form misses by {forms.ic_max_error['cos_product']:.3f} "
              f"(> 0.5/c^a)")


def test_criterion_08_residual_convergence():
    start = time.perf_counter()
    sequences = {}
    for alpha in (0.7, 0.8, 0.9):
        prob = example_problem(alpha)
        rep = pde_residual(prob, solve_dalembert(prob), 64, 64, levels=3)
        linfs = [lv.linf for lv in rep.levels]
        assert linfs[0] > linfs[1] > linfs[2], (alpha, linfs)
        sequences[alpha] = linfs
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    seq_text = "; ".join(
        f"a={a}: " + " -> ".join(f"{v:.3f}" for v in seq) for a, seq in sequences.items()
    )
    report(8, f"residual Linf decreases across 64->128->256 ({seq_text}), {elapsed:.0f}s")


def test_criterion_09_stability_bound():
    rng = np.random.default_rng(90210)
    trials = 100
    paper_violations = 0
    worst_margin = math.inf
    for _ in range(trials):
        alpha = float(rng.uniform(0.3, 1.0))
        c = float(rng.uniform(0.5, 2.0))
        horizon = float(rng.uniform(0.5, 2.0))
        x_max = float(rng.uniform(2.0, 6.0))

        def perturbation():
            a = float(rng.uniform(-0.04, 0.04))
            b = float(rng.uniform(0.005, 0.05))
            k = float(rng.uniform(0.5, 1.5))
            phi = float(rng.uniform(0.0, TWO_PI))
            return f" + ({a!r} + {b!r}*sin({k!r}*x + {phi!r}))"

        base_f, base_g = "x^2", "sin(x)"
        p1 = WaveProblem(
            FractionalOrder(alpha), c, parse(base_f), parse(base_g), x_max, horizon
        )
        p2 = WaveProblem(
            FractionalOrder(alpha), c,
            parse(base_f + perturbation()), parse(base_g + perturbation()),
            x_max, horizon,
        )
        rep = stability_check(p1, p2, 33, 33)
        assert rep.delta <= 0.1 + 1e-12
        assert rep.satisfied_derived, (alpha, c, horizon, rep)
        worst_margin = min(worst_margin, rep.bound_derived - rep.observed_gap)
        if not rep.satisfied_paper:
            paper_violations += 1
    report(9, f"all {trials} randomized trials inside the derived bound "
              f"delta*(1 + T^a/gamma(1+a)) (smallest margin {worst_margin:.2e}); "
              f"tighter printed bound violated in {paper_violations} trials "
              f"(reported, not asserted)")


def test_criterion_10_csv_determinism(tmp_path):
    problem_file = tmp_path / "p.yaml"
    problem_file.write_text(
        "schema_version: 1\n"
        "alpha: 0.8\n"
        "c: 1.0\n"
        'f: "x^2"\n'
        'g: "sin(x)"\n'
        "x_max: 6.283185307179586\n"
        "t_max: 6.283185307179586\n"
        "nx: 33\n"
        "nt: 33\n"
    )
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(["solve", str(problem_file), "--out", str(out1)]) == 0
    assert cli_main(["solve", str(problem_file), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report(10, "consecutive solve runs emit byte-identical CSV")
