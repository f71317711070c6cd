"""Command-line front end: problem files in, CSV fields and verification
reports out.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure,
4 I/O error, 5 verification failure.  main() alone maps exceptions to them;
every input error, argparse's included, prints one `error:` line.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .core import DomainError, FractionalOrder, QuadratureError, Tolerance
from .expr import EvaluationError, ParseError, parse
from .solver import (
    MIN_GRID_POINTS,
    ClosedFormSolution,
    Field2D,
    WaveProblem,
    evaluate_field,
    solve_dalembert,
)
from .verify import (
    EXAMPLE_G,
    MIN_RESIDUAL_CELLS,
    RESIDUAL_BASE_CELLS,
    RESIDUAL_LEVELS,
    WORKED_EXAMPLES,
    RouteReport,
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
FIGURES_TOL = 1e-12  # velocity-integral abs_tol of `figures` unless --tol is given
MAX_GRID_POINTS = 2**24  # values in one array of a command's grid; the README sizes it

_FIGURES_README = f"""\
Wave-equation example datasets
==============================

Each CSV holds one solved field u(x, t) with header `x,t,u`, rows in t-major
order, for the two worked example problems (c = 1, unit scale factors,
x_max = t_max = 2*pi):

  example1_alpha*.csv : displacement profile x^2, velocity profile sin(x)
  example2_alpha*.csv : zero displacement, velocity profile sin(x)

The velocity integral is read from a table of Chebyshev interpolants of g
on 1,024 equal cells, integrated exactly and accepted within the tolerance
({FIGURES_TOL:g} unless --tol is given); it is the ground truth here.  For example 2
it agrees with the product form

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
    """A problem file as the solution it describes plus its point grid."""

    solution: ClosedFormSolution
    nx: int
    nt: int


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
    try:
        return float(value)
    except OverflowError:  # an int beyond the range of a double
        raise ProblemFileError(f"key '{key}' is beyond the range of a double") from None


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """YAML's complaint on one line: its problem and where it was found."""
    mark = getattr(exc, "problem_mark", None)
    if getattr(exc, "problem", None) and mark is not None:
        return f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
    if isinstance(exc, yaml.reader.ReaderError):  # an undecodable or unprintable character
        return f"{str(exc).splitlines()[0]} at position {exc.position}"
    return " ".join(str(exc).split())


def load_problem_file(path: str | Path) -> ProblemFile:
    """Parse a problem file into the solution it describes; raises
    ProblemFileError with an explanatory message on any defect (unknown keys
    are rejected).  Here the file's YAML types are checked; the library's
    constructors judge its values."""
    try:
        # from bytes, so that YAML's reader decodes them and rejects bad ones
        raw = yaml.safe_load(Path(path).read_bytes())
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ProblemFileError(f"{path} is not well-formed: {_yaml_problem(exc)}") from exc
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
        raise ProblemFileError(f"unsupported schema_version {version!r} "
                               f"(expected {SCHEMA_VERSION})")

    alpha, c, x_max, t_max = (_require_number(raw, k) for k in ("alpha", "c", "x_max", "t_max"))
    # judged here: the library judges a grid only when it evaluates one (exit 3)
    for key in ("nx", "nt"):
        value = raw[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < MIN_GRID_POINTS:
            raise ProblemFileError(
                f"key '{key}' must be an integer >= {MIN_GRID_POINTS}, got {value!r}"
            )

    exprs = {}
    for key in ("f", "g"):
        text = raw[key]
        if not isinstance(text, str):
            raise ProblemFileError(f"key '{key}' must be an expression string, got {text!r}")
        try:
            exprs[key] = parse(text)
        except ParseError as exc:
            raise ProblemFileError(f"key '{key}': {exc}") from exc

    quad = raw.get("quadrature", {})
    if not isinstance(quad, dict):
        raise ProblemFileError("key 'quadrature' must be a mapping")
    unknown_q = sorted(set(quad) - set(_QUAD_KEYS))
    if unknown_q:
        raise ProblemFileError(f"unknown quadrature keys: {', '.join(unknown_q)}")
    # the key left is abs_tol; Tolerance supplies the default
    tol_args = {key: _require_number(quad, key) for key in quad}
    try:
        problem = WaveProblem(FractionalOrder(alpha), c, exprs["f"], exprs["g"], x_max, t_max)
        solution = ClosedFormSolution(raw.get("equation", "dalembert"), problem,
                                      Tolerance(**tol_args))
    except (DomainError, EvaluationError) as exc:
        raise ProblemFileError(str(exc)) from exc
    return ProblemFile(solution, raw["nx"], raw["nt"])


def write_field_csv(field: Field2D, path: str | Path) -> None:
    """CSV with header x,t,u; rows iterate x within each t (t-major order);
    17 significant digits, so files round-trip and are byte-deterministic.
    Every value is written as '%.17g' writes it (fieldcsv)."""
    from . import fieldcsv  # imported on first use: commands writing no CSV skip compiling it

    with open(path, "wb") as fh:
        fh.write(b"x,t,u\n")
        fieldcsv.write_rows(fh, field.x, field.t, field.values)


# --- subcommands ----------------------------------------------------------------
# Subcommands raise; main() maps the exceptions to exit codes.


def _with_flags(pf: ProblemFile, args) -> ProblemFile:
    """pf with the given --nx, --nt and --tol in place of its own; refuses a grid
    flag below grid_min, a --tol not positive and finite, and a huge grid."""
    for flag in ("nx", "nt"):
        value = getattr(args, flag)
        if value is not None and value < args.grid_min:
            raise ProblemFileError(f"--{flag} must be at least {args.grid_min} for "
                                   f"{args.command}, got {value!r}")
    if args.tol is not None and not 0 < args.tol < math.inf:
        raise ProblemFileError(f"--tol must be positive and finite, got {args.tol!r}")
    sol = pf.solution if args.tol is None else replace(pf.solution, tol=Tolerance(args.tol))
    pf = ProblemFile(sol, pf.nx if args.nx is None else args.nx,
                     pf.nt if args.nt is None else args.nt)
    size = pf.nx * pf.nt
    if args.command == "verify":  # nx, nt count base cells; the operators are square
        size = (max(pf.nx, pf.nt) * 2 ** (RESIDUAL_LEVELS - 1) + 1) ** 2
    if size > MAX_GRID_POINTS:
        raise ProblemFileError(f"grid nx = {pf.nx}, nt = {pf.nt} is too large for "
                               f"{args.command}: more than {MAX_GRID_POINTS} values per array")
    return pf


def cmd_solve(args) -> int:
    pf = _with_flags(load_problem_file(args.problem), args)
    write_field_csv(evaluate_field(pf.solution, pf.nx, pf.nt), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    pf = _with_flags(load_problem_file(args.problem), args)
    sol = subject = pf.solution
    problem, equation = sol.problem, sol.kind
    report: dict = {"schema_version": SCHEMA_VERSION, "problem": str(args.problem),
                    "alpha": problem.alpha, "equation": equation}
    text = [f"verification of {args.problem} (alpha = {problem.alpha}, {equation})"]
    candidate = args.candidate_form
    if candidate != "quadrature":
        forms = candidate_product_forms(problem)
        if equation != "dalembert" or forms is None:
            raise ProblemFileError(
                f"--candidate-form {candidate} requires a d'Alembert problem matching "
                "one of the worked example shapes"
            )
        subject = forms[candidate]
        report["candidate_form"] = candidate
        text.append(f"  subject: candidate closed form '{candidate}'")

    checks = {"initial_conditions": check_initial_conditions(problem, subject)}
    if equation == "dalembert":
        checks["residual"] = pde_residual(problem, subject, pf.nx, pf.nt)
        if (forms_report := compare_candidate_forms(problem, sol)) is not None:
            checks["candidate_forms"] = forms_report
        report["route_equivalence"] = {"applicable": False}
    else:
        checks["route_equivalence"] = RouteReport(route_equivalence(problem))

    failures = [check.failure for check in checks.values() if not check.passed]
    report |= {name: check.to_dict() for name, check in checks.items()}
    report |= {"failures": failures, "passed": not failures}
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    text += [line for check in checks.values() for line in check.lines()]
    print("\n".join(text + ["  result: " + ("FAIL" if failures else "PASS")]))
    return EXIT_VERIFY if failures else EXIT_OK


def _order_csv_name(prefix: str, alpha: float) -> str:
    return f"{prefix}{alpha:g}.csv"


def _write_order_fields(pf: ProblemFile, alphas, outdir: Path, prefix: str) -> None:
    """Solve pf at each order on its grid; write outdir / _order_csv_name(prefix, alpha)."""
    outdir.mkdir(parents=True, exist_ok=True)
    sol = pf.solution
    for alpha in alphas:
        sub = replace(sol, problem=replace(sol.problem, order=FractionalOrder(alpha)))
        field = evaluate_field(sub, pf.nx, pf.nt)
        write_field_csv(field, outdir / _order_csv_name(prefix, alpha))


def cmd_figures(args) -> int:
    for example, f in enumerate(WORKED_EXAMPLES, start=1):  # the order is set per field
        problem = WaveProblem(FractionalOrder(FIGURE_ALPHAS[0]), 1.0, f, EXAMPLE_G,
                              2.0 * math.pi, 2.0 * math.pi)
        pf = _with_flags(ProblemFile(solve_dalembert(problem, Tolerance(FIGURES_TOL)), 65, 65),
                         args)
        _write_order_fields(pf, FIGURE_ALPHAS, Path(args.out), f"example{example}_alpha")
    (Path(args.out) / "README.md").write_text(_FIGURES_README)
    return EXIT_OK


def cmd_sweep(args) -> int:
    pf = load_problem_file(args.problem)
    prefix, files = "alpha_", {}  # files: file name -> order
    for tok in args.alphas.split(","):
        try:
            alpha = float(tok)
        except ValueError:
            raise ProblemFileError(f"alpha list entry {tok!r} is not a number") from None
        if not 0.0 < alpha <= 1.0:
            raise ProblemFileError(f"alpha {alpha} outside (0, 1]")
        name = _order_csv_name(prefix, alpha)
        if name in files:
            raise ProblemFileError(f"alphas {files[name]} and {alpha} both write {name}")
        files[name] = alpha
    _write_order_fields(_with_flags(pf, args), files.values(), Path(args.out), prefix)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main() maps it to exit 2, like any input error
        raise ProblemFileError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    # verify's --nx/--nt count the base cells of the residual study, not grid points
    add_grid_flags(p_verify, MIN_RESIDUAL_CELLS, "residual cells")
    p_verify.set_defaults(func=cmd_verify, nx=RESIDUAL_BASE_CELLS, nt=RESIDUAL_BASE_CELLS)

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
    try:
        args = build_parser().parse_args(argv)  # --help exits 0 from here
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
