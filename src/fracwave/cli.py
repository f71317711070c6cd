"""Command-line front end: problem files in, CSV fields and verification
reports out.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure,
4 I/O error, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .core import DomainError, FractionalOrder, Tolerance
from .expr import EvaluationError, ParseError, parse
from .fracops import QuadratureError
from .solver import (
    MIN_GRID_POINTS,
    ClosedFormSolution,
    Field2D,
    WaveProblem,
    evaluate_field,
    solve_dalembert,
    solve_first_order,
)
from .verify import (
    MIN_RESIDUAL_CELLS,
    ROUTE_EQUIVALENCE_TOL,
    check_initial_conditions,
    compare_candidate_forms,
    candidate_product_forms,
    pde_residual,
    route_equivalence,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_VERIFY = 5

SCHEMA_VERSION = 1
_REQUIRED_KEYS = ("schema_version", "alpha", "c", "f", "g", "x_max", "t_max", "nx", "nt")
_OPTIONAL_KEYS = ("equation", "quadrature")
_QUAD_KEYS = ("abs_tol",)

FIGURE_ALPHAS = (0.7, 0.8, 0.9, 1.0)

_FIGURES_README = """\
Wave-equation example datasets
==============================

Each CSV holds one solved field u(x, t) with header `x,t,u`, rows in t-major
order, for the two worked example problems (c = 1, unit scale factors,
x_max = t_max = 2*pi):

  example1_alpha*.csv : displacement profile x^2, velocity profile sin(x)
  example2_alpha*.csv : zero displacement, velocity profile sin(x)

The velocity integral is evaluated by adaptive quadrature, which is the
ground truth here.  For example 2 the quadrature agrees with the product form

    u = (1/c^a) * sin(X') * sin(c^a * T'),   X' = x^a/gamma(1+a), T' = t^a/gamma(1+a)

at every grid point.  A cos(X')*cos(c^a*T') variant of this closed form is
sometimes quoted for the same problem; it fails the initial condition
u(x, 0) = 0 (it evaluates to (1/c^a)*cos(X') there) and disagrees with the
quadrature everywhere.  `fracwave verify` reports both candidates whenever a
problem matches one of the example shapes.

The solution depends visibly on the derivative order: for fixed (x, t) the
emitted datasets differ across alpha = 0.7, 0.8, 0.9, 1.0.
"""


class ProblemFileError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemFile:
    """Validated contents of a problem file plus solver-facing objects."""

    problem: WaveProblem
    nx: int
    nt: int
    equation: str  # 'dalembert' or 'first_order'
    tol: Tolerance


# a number in exponent form; YAML reads it as a float only with a '.' in the
# mantissa and a sign on the exponent, and as a string otherwise
_EXPONENT_FORM = re.compile(r"\s*([-+]?)(\d*)\.?(\d*)[eE]([-+]?)(\d+)\s*")


def _require_number(raw: dict, key: str) -> float:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        message = f"key '{key}' must be a number, got {value!r}"
        match = _EXPONENT_FORM.fullmatch(value) if isinstance(value, str) else None
        if match and (match[2] or match[3]):
            sign, whole, frac, exp_sign, exp = match.groups()
            message += (
                "; YAML reads an exponent without a sign (or a mantissa without a '.')"
                f" as a string: write {sign}{whole or '0'}.{frac or '0'}e{exp_sign or '+'}{exp}"
            )
        raise ProblemFileError(message)
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ProblemFileError(f"key '{key}' must be a finite positive number, got {value!r}")
    return value


def load_problem_file(path: str | Path) -> ProblemFile:
    """Parse and fully validate a problem file; raises ProblemFileError with
    an explanatory message on any defect (unknown keys are rejected)."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ProblemFileError(f"{path} is not well-formed: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProblemFileError(f"{path} must contain a mapping of keys")

    unknown = sorted(set(raw) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS))
    if unknown:
        raise ProblemFileError(f"unknown keys: {', '.join(unknown)}")
    missing = sorted(set(_REQUIRED_KEYS) - set(raw))
    if missing:
        raise ProblemFileError(f"missing keys: {', '.join(missing)}")
    version = raw["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ProblemFileError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )

    alpha = _require_number(raw, "alpha")
    if not 0.0 < alpha <= 1.0:
        raise ProblemFileError(f"alpha must lie in (0, 1], got {alpha}")
    c = _require_number(raw, "c")
    x_max = _require_number(raw, "x_max")
    t_max = _require_number(raw, "t_max")

    grids = {}
    for key in ("nx", "nt"):
        value = raw[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < MIN_GRID_POINTS:
            raise ProblemFileError(
                f"key '{key}' must be an integer >= {MIN_GRID_POINTS}, got {value!r}"
            )
        grids[key] = value

    exprs = {}
    for key in ("f", "g"):
        text = raw[key]
        if not isinstance(text, str):
            raise ProblemFileError(f"key '{key}' must be an expression string, got {text!r}")
        try:
            exprs[key] = parse(text)
        except ParseError as exc:
            raise ProblemFileError(f"key '{key}': {exc}") from exc

    equation = raw.get("equation", "dalembert")
    if equation not in ("dalembert", "first_order"):
        raise ProblemFileError(
            f"equation must be 'dalembert' or 'first_order', got {equation!r}"
        )

    quad = raw.get("quadrature", {})
    if not isinstance(quad, dict):
        raise ProblemFileError("key 'quadrature' must be a mapping")
    unknown_q = sorted(set(quad) - set(_QUAD_KEYS))
    if unknown_q:
        raise ProblemFileError(f"unknown quadrature keys: {', '.join(unknown_q)}")
    # the key left is abs_tol; Tolerance supplies the default
    tol = Tolerance(**{key: _require_number(quad, key) for key in quad})
    try:
        problem = WaveProblem(
            FractionalOrder(alpha), c, exprs["f"], exprs["g"], x_max, t_max
        )
    except (DomainError, EvaluationError) as exc:
        raise ProblemFileError(str(exc)) from exc
    return ProblemFile(problem, grids["nx"], grids["nt"], equation, tol)


def _solve(pf: ProblemFile) -> ClosedFormSolution:
    if pf.equation == "first_order":
        return solve_first_order(pf.problem)
    return solve_dalembert(pf.problem, pf.tol)


def write_field_csv(field: Field2D, path: str | Path) -> None:
    """CSV with header x,t,u; rows iterate x within each t (t-major order);
    17 significant digits, so files round-trip and are byte-deterministic.

    Each x and each t is formatted once: a per-level template holds the
    formatted x column, the level's t goes into its placeholder, and one %
    formats the level's u values."""
    # "\0" marks the t column: formatted floats never contain it, nor "%"
    template = "".join(f"{x},\0,%.17g\n" for x in _g17(field.x))
    with open(path, "w", newline="\n") as fh:
        fh.write("x,t,u\n")
        for t, row in zip(_g17(field.t), field.values):
            fh.write(template.replace("\0", t) % tuple(row.tolist()))


def _g17(values: np.ndarray) -> list[str]:
    return ["%.17g" % v for v in values.tolist()]


# --- subcommands ----------------------------------------------------------------
# Subcommands raise; main() maps the exceptions to exit codes.


def _check_grid_flags(args) -> None:
    """Reject bad flags before any work: --nx/--nt below the subcommand's
    grid_min, and a --tol that is not positive and finite."""
    for flag in ("nx", "nt"):
        value = getattr(args, flag)
        if value is not None and value < args.grid_min:
            raise ProblemFileError(
                f"--{flag} must be at least {args.grid_min} for {args.command}, got {value!r}"
            )
    if args.tol is not None and not 0 < args.tol < math.inf:
        raise ProblemFileError(f"--tol must be positive and finite, got {args.tol!r}")


def _grid(args, nx: int, nt: int) -> tuple[int, int]:
    """Grid sizes from --nx/--nt, falling back to the given defaults."""
    return (nx if args.nx is None else args.nx, nt if args.nt is None else args.nt)


def cmd_solve(args) -> int:
    pf = _override_tol(load_problem_file(args.problem), args.tol)
    field = evaluate_field(_solve(pf), *_grid(args, pf.nx, pf.nt))
    write_field_csv(field, args.out)
    return EXIT_OK


def _override_tol(pf: ProblemFile, tol: float | None) -> ProblemFile:
    if tol is None:
        return pf
    return replace(pf, tol=Tolerance(tol))


def cmd_verify(args) -> int:
    pf = _override_tol(load_problem_file(args.problem), args.tol)
    base_nx, base_nt = _grid(args, 64, 64)
    report: dict = {"schema_version": SCHEMA_VERSION, "problem": str(args.problem),
                    "alpha": pf.problem.alpha, "equation": pf.equation}
    failures: list[str] = []
    sol = _solve(pf)
    candidate = args.candidate_form
    subject = sol
    if candidate != "quadrature":
        forms = candidate_product_forms(pf.problem)
        if forms is None or candidate not in forms:
            raise ProblemFileError(
                f"--candidate-form {candidate} requires a problem matching "
                "one of the worked example shapes"
            )
        subject = forms[candidate]
        report["candidate_form"] = candidate

    ic = check_initial_conditions(pf.problem, subject)
    report["initial_conditions"] = ic.to_dict()
    if not ic.passed:
        failures.append("initial-condition check failed")

    if pf.equation == "dalembert":
        resid = pde_residual(pf.problem, subject, base_nx, base_nt)
        report["residual"] = resid.to_dict()
        if not resid.monotone:
            failures.append("residual did not decrease under grid refinement")
        forms_report = compare_candidate_forms(pf.problem, sol)
        if forms_report is not None:
            report["candidate_forms"] = forms_report.to_dict()
        report["route_equivalence"] = {"applicable": False}
    else:
        deviation = route_equivalence(pf.problem)
        report["route_equivalence"] = {
            "applicable": True,
            "max_deviation": deviation,
            "tol": ROUTE_EQUIVALENCE_TOL,
        }
        if deviation > ROUTE_EQUIVALENCE_TOL:
            failures.append("characteristics and transform routes disagree")

    report["failures"] = failures
    report["passed"] = not failures
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(_verify_text_block(report))
    return EXIT_OK if not failures else EXIT_VERIFY


def _verify_text_block(report: dict) -> str:
    lines = [
        f"verification of {report['problem']} (alpha = {report['alpha']}, "
        f"{report['equation']})"
    ]
    if "candidate_form" in report:
        lines.append(f"  subject: candidate closed form '{report['candidate_form']}'")
    ic = report["initial_conditions"]
    lines.append(
        f"  u(x,0) = f(X'):        max error {ic['position_max_error']:.3e}  "
        f"[{'pass' if ic['position_pass'] else 'FAIL'}]"
    )
    if ic["velocity_max_error"] is not None:
        lines.append(
            f"  alpha-velocity at t=0: max error {ic['velocity_max_error']:.3e}  "
            f"[{'pass' if ic['velocity_pass'] else 'FAIL'}]"
        )
    if "residual" in report:
        resid = report["residual"]
        seq = " -> ".join(f"{lv['linf']:.4e}" for lv in resid["levels"])
        lines.append(
            f"  wave-equation residual Linf across refinements: {seq}  "
            f"[{'pass' if resid['monotone'] else 'FAIL'}]"
        )
        lines.append(f"    interior-core Linf at finest level: {resid['levels'][-1]['core_linf']:.3e}")
        for note in resid["notes"]:
            lines.append(f"    note: {note}")
    if "candidate_forms" in report:
        forms = report["candidate_forms"]
        for name in forms["candidates"]:
            lines.append(
                f"  candidate '{name}': IC error {forms['ic_max_error'][name]:.3e}, "
                f"max gap vs quadrature {forms['gap_vs_quadrature'][name]:.3e}"
            )
        lines.append(f"    note: {forms['note']}")
    route = report.get("route_equivalence", {})
    if route.get("applicable"):
        lines.append(
            f"  route equivalence: max deviation {route['max_deviation']:.3e}  "
            f"[{'pass' if route['max_deviation'] <= route['tol'] else 'FAIL'}]"
        )
    lines.append("  result: " + ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines)


def _write_order_fields(pf: ProblemFile, alphas, outdir: Path, prefix: str) -> None:
    """Solve pf at each order on its grid; write outdir / f"{prefix}{alpha:g}.csv"."""
    outdir.mkdir(parents=True, exist_ok=True)
    for alpha in alphas:
        sub = replace(pf, problem=replace(pf.problem, order=FractionalOrder(alpha)))
        field = evaluate_field(_solve(sub), pf.nx, pf.nt)
        write_field_csv(field, outdir / f"{prefix}{alpha:g}.csv")


def cmd_figures(args) -> int:
    tol = Tolerance(args.tol if args.tol is not None else 1e-12)
    nx, nt = _grid(args, 65, 65)
    for example, f_text in ((1, "x^2"), (2, "0")):  # the order is set per field
        problem = WaveProblem(FractionalOrder(FIGURE_ALPHAS[0]), 1.0, parse(f_text),
                              parse("sin(x)"), 2.0 * math.pi, 2.0 * math.pi)
        pf = ProblemFile(problem, nx, nt, "dalembert", tol)
        _write_order_fields(pf, FIGURE_ALPHAS, Path(args.out), f"example{example}_alpha")
    (Path(args.out) / "README.md").write_text(_FIGURES_README)
    return EXIT_OK


def cmd_sweep(args) -> int:
    pf = load_problem_file(args.problem)
    alphas = []
    for tok in args.alphas.split(","):
        try:
            alpha = float(tok)
        except ValueError:
            raise ProblemFileError(f"alpha list entry {tok!r} is not a number") from None
        if not 0.0 < alpha <= 1.0:
            raise ProblemFileError(f"alpha {alpha} outside (0, 1]")
        alphas.append(alpha)
    nx, nt = _grid(args, pf.nx, pf.nt)
    pf = replace(_override_tol(pf, args.tol), nx=nx, nt=nt)
    _write_order_fields(pf, alphas, Path(args.out), "alpha_")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracwave",
        description="closed-form solutions of fractional wave equations, "
        "with numerical verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(p, grid_min=MIN_GRID_POINTS, unit="grid points"):
        p.add_argument("--nx", type=int, default=None, help=f"{unit} along x (at least {grid_min})")
        p.add_argument("--nt", type=int, default=None, help=f"{unit} along t (at least {grid_min})")
        p.set_defaults(grid_min=grid_min)
        p.add_argument("--tol", type=float, default=None,
                       help="absolute tolerance for the velocity-profile integral")

    p_solve = sub.add_parser("solve", help="solve a problem file and write a CSV field")
    p_solve.add_argument("problem")
    p_solve.add_argument("--out", required=True)
    add_grid_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run verification checks and write a report")
    p_verify.add_argument("problem")
    p_verify.add_argument("--out", required=True)
    p_verify.add_argument(
        "--candidate-form",
        choices=("quadrature", "sin_product", "cos_product"),
        default="quadrature",
        help="verify a printed closed-form candidate instead of the "
        "quadrature solution (worked example shapes only)",
    )
    add_grid_flags(p_verify, MIN_RESIDUAL_CELLS, "residual cells")
    p_verify.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser(
        "figures", help="emit the example datasets for alpha = 0.7, 0.8, 0.9, 1.0"
    )
    p_fig.add_argument("--out", required=True)
    add_grid_flags(p_fig)
    p_fig.set_defaults(func=cmd_figures)

    p_sweep = sub.add_parser("sweep", help="solve one problem across several orders")
    p_sweep.add_argument("problem")
    p_sweep.add_argument("--alphas", required=True, help="comma-separated orders in (0, 1]")
    p_sweep.add_argument("--out", required=True)
    add_grid_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_grid_flags(args)
        return args.func(args)
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (QuadratureError, EvaluationError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
