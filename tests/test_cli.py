import json
import math
import os
from fractions import Fraction
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fracwave
from fracwave.cli import (
    EXIT_INPUT,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY,
    MAX_GRID_POINTS,
    ProblemFileError,
    load_problem_file,
    main,
    write_field_csv,
)
from fracwave.core import FractionalOrder, Tolerance
from fracwave.expr import MAX_TOKENS, parse
from fracwave.fieldcsv import BLOCK, format_g17
from fracwave.solver import (
    MIN_GRID_POINTS,
    Field2D,
    WaveProblem,
    evaluate_field,
    solve_dalembert,
    solve_first_order,
)
from fracwave.verify import IC_NX, MIN_RESIDUAL_CELLS, POSITION_TOL, VELOCITY_TOL

TWO_PI = 2.0 * math.pi
SHIPPED = sorted((Path(__file__).parent.parent / "problems").glob("*.yaml"))

# key paths of a `verify` report; "[]" marks the entries of a list
REPORT_KEYS = {"schema_version", "problem", "alpha", "equation", "failures", "passed",
               "initial_conditions", "route_equivalence", "route_equivalence.applicable"}
IC_KEYS = {
    f"initial_conditions.{key}"
    for key in ("nx", "position_max_error", "position_abs_tol", "position_rel_tol",
                "position_pass", "velocity_max_error", "velocity_tol", "velocity_pass",
                "passed")
}
DALEMBERT_KEYS = {
    "residual", "residual.alpha", "residual.collar_cells", "residual.levels",
    "residual.levels[].nx", "residual.levels[].nt", "residual.levels[].linf",
    "residual.levels[].l2", "residual.levels[].core_linf", "residual.slope",
    "residual.monotone", "residual.notes", "residual.residual_linf", "residual.residual_l2",
    "candidate_forms", "candidate_forms.candidates", "candidate_forms.note",
    "candidate_forms.ic_max_error", "candidate_forms.ic_max_error.sin_product",
    "candidate_forms.ic_max_error.cos_product", "candidate_forms.gap_vs_quadrature",
    "candidate_forms.gap_vs_quadrature.sin_product",
    "candidate_forms.gap_vs_quadrature.cos_product",
}
FIRST_ORDER_KEYS = {"route_equivalence.max_deviation", "route_equivalence.tol"}


def key_paths(node, prefix=""):
    """Dotted paths of every key in a JSON document, descending into lists."""
    if isinstance(node, list):
        return set().union(*(key_paths(item, prefix + "[]") for item in node))
    if not isinstance(node, dict):
        return set()
    paths = set()
    for key, value in node.items():
        path = f"{prefix}.{key}" if prefix else key
        paths |= {path} | key_paths(value, path)
    return paths


def reference_text_block(report: dict) -> str:
    """The text summary of `verify`, rebuilt from its JSON report alone: the
    reports render their own lines, and this pins them to the report's keys."""
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


def write_problem(path, **overrides):
    base = {
        "schema_version": 1,
        "alpha": 0.8,
        "c": 1.0,
        "f": '"x^2"',
        "g": '"sin(x)"',
        "x_max": 6.283185307179586,
        "t_max": 6.283185307179586,
        "nx": 17,
        "nt": 17,
    }
    base.update(overrides)
    lines = [f"{key}: {value}" for key, value in base.items() if value is not None]
    path.write_text("\n".join(lines) + "\n")
    return path


def assert_one_error_line(err: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def read_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1], data[:, 2]


class TestProblemFile:
    def test_loads_valid_file(self, tmp_path):
        pf = load_problem_file(write_problem(tmp_path / "p.yaml"))
        assert pf.solution.problem.alpha == 0.8
        assert pf.nx == 17 and pf.nt == 17
        assert pf.solution.kind == "dalembert"

    def test_shipped_problem_files_are_valid(self):
        assert len(SHIPPED) == 4
        for path in SHIPPED:
            pf = load_problem_file(path)
            assert 0.0 < pf.solution.problem.alpha <= 1.0

    def test_unknown_key_rejected(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml", extra=1)
        with pytest.raises(ProblemFileError, match="unknown keys: extra"):
            load_problem_file(path)

    def test_missing_key_rejected(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml", nx=None)
        with pytest.raises(ProblemFileError, match="missing keys: nx"):
            load_problem_file(path)

    def test_alpha_out_of_range(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml", alpha=1.5)
        with pytest.raises(ProblemFileError, match="alpha"):
            load_problem_file(path)

    def test_schema_version_enforced(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml", schema_version=2)
        with pytest.raises(ProblemFileError, match="schema_version"):
            load_problem_file(path)

    @pytest.mark.parametrize("value", ["true", "1.0"])
    def test_schema_version_must_be_integer_one(self, tmp_path, capsys, value):
        path = write_problem(tmp_path / "p.yaml", schema_version=value)
        with pytest.raises(ProblemFileError, match="unsupported schema_version"):
            load_problem_file(path)
        assert main(["solve", str(path), "--out", str(tmp_path / "o.csv")]) == EXIT_INPUT
        assert "unsupported schema_version" in capsys.readouterr().err

    def test_expression_error_has_position(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml", g='"sin("')
        with pytest.raises(ProblemFileError, match="position 4"):
            load_problem_file(path)

    def test_non_finite_exponent_rejected(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml", f='"x^((-8)^0.5)"')
        with pytest.raises(ProblemFileError, match="key 'f'.*finite real"):
            load_problem_file(path)

    def test_overflowing_literal_rejected(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.yaml", f='"1e999"')
        with pytest.raises(ProblemFileError, match="key 'f'.*'1e999' overflows a double"):
            load_problem_file(path)
        rc = main(["solve", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_INPUT
        assert "overflows a double" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        # a Latin-1 e-acute is not UTF-8: YAML's reader refuses the byte
        path = write_problem(tmp_path / "p.yaml")
        path.write_bytes(path.read_bytes().replace(b'"x^2"', b'"x\xe9"'))
        with pytest.raises(ProblemFileError, match="is not well-formed"):
            load_problem_file(path)
        assert main(["solve", str(path), "--out", str(tmp_path / "o.csv")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unacceptable character #x00e9" in err

    @pytest.mark.parametrize("data, problem", [
        (b"schema_version: 1\nalpha: [\n",
         "expected the node content, but found '<stream end>' at line 3, column 1"),
        (b"schema_version: 1\n\talpha: 0.8\n",
         "found character '\\t' that cannot start any token at line 2, column 1"),
        (b'schema_version: 1\nf: "x\xe9"\n',
         "unacceptable character #x00e9: invalid continuation byte at position 23"),
    ], ids=["unclosed_flow_node", "tab_before_key", "latin1_byte"])
    def test_malformed_yaml_is_one_error_line(self, tmp_path, capsys, data, problem):
        # YAML's problem and where it was found, without its context and caret lines
        path = tmp_path / "p.yaml"
        path.write_bytes(data)
        assert main(["solve", str(path), "--out", str(tmp_path / "o.csv")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err == f"error: {path} is not well-formed: {problem}\n"

    @pytest.mark.parametrize("key", ["alpha", "c", "x_max", "t_max", "abs_tol"])
    def test_integer_beyond_a_double_exits_2(self, tmp_path, capsys, key):
        huge = "1" + "0" * 400  # an int to YAML, too large for float()
        if key == "abs_tol":
            path = write_problem(tmp_path / "p.yaml", quadrature=f"{{abs_tol: {huge}}}")
        else:
            path = write_problem(tmp_path / "p.yaml", **{key: huge})
        assert main(["solve", str(path), "--out", str(tmp_path / "o.csv")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: key '{key}' is beyond the range of a double" in err
        assert huge not in err

    def test_unsigned_exponent_explained(self, tmp_path, capsys):
        # YAML reads 1.0e300 as a string; it stays rejected, with the reason
        path = write_problem(tmp_path / "p.yaml", c="1.0e300")
        message = r"key 'c' must be a number, got '1\.0e300'; YAML reads an exponent without"
        with pytest.raises(ProblemFileError, match=message):
            load_problem_file(path)
        assert main(["solve", str(path), "--out", str(tmp_path / "o.csv")]) == EXIT_INPUT
        assert "write 1.0e+300" in capsys.readouterr().err
        accepted = write_problem(path, c="1.0e+300", f='"0"', g='"0"')
        assert load_problem_file(accepted).solution.problem.speed == 1e300

    def test_overflowing_argument_range_rejected(self, tmp_path, capsys):
        # c^a T' or the range's width overflows a double: the speed and
        # horizon are named, no RuntimeWarning escapes and the profiles are
        # never blamed
        for name, overrides in [
            ("infinite_end", {"t_max": "1.0e+300"}),
            # both ends, -1e308 and 1e308, are finite, but not the width
            ("infinite_width", {"x_max": "1.0", "t_max": "1.0e+8", "f": '"0"'}),
        ]:
            path = write_problem(tmp_path / f"{name}.yaml", alpha=1.0, c="1.0e+300",
                                 **overrides)
            out = tmp_path / f"{name}.csv"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(["solve", str(path), "--out", str(out)])
            assert rc == EXIT_INPUT, name
            assert caught == [], name
            err = capsys.readouterr().err
            assert_one_error_line(err)
            assert "overflows a double: wave speed c = 1e+300" in err
            assert f"t_max = {float(overrides['t_max'])!r}" in err and "sub-expression" not in err
            assert not out.exists(), name

    @pytest.mark.parametrize("key", ["abs_tol"])
    def test_quadrature_overrides(self, tmp_path, key):
        path = tmp_path / "p.yaml"
        write_problem(path)
        with path.open("a") as fh:
            fh.write(f"quadrature:\n  {key}: 1.0e-8\n")
        pf = load_problem_file(path)
        assert pf.solution.tol == Tolerance(1e-8)

    @pytest.mark.parametrize("value", [".nan", ".inf", "abc", "true"])
    @pytest.mark.parametrize("key", ["abs_tol"])
    def test_bad_tolerance_rejected(self, tmp_path, key, value):
        # never solved: a NaN tolerance that slips through never converges
        path = write_problem(tmp_path / "p.yaml")
        with path.open("a") as fh:
            fh.write(f"quadrature:\n  {key}: {value}\n")
        with pytest.raises(ProblemFileError, match=key):
            load_problem_file(path)

    @pytest.mark.parametrize("key", ["nx", "nt"])
    def test_grid_below_minimum_rejected(self, tmp_path, key):
        path = write_problem(tmp_path / "p.yaml", **{key: MIN_GRID_POINTS - 1})
        message = f"'{key}' must be an integer >= {MIN_GRID_POINTS}"
        with pytest.raises(ProblemFileError, match=message):
            load_problem_file(path)

    def test_unknown_quadrature_key_rejected(self, tmp_path):
        # n_panels is rejected too: no solution reads a panel count; nor
        # rel_tol: the velocity integral has one absolute tolerance
        for key in ("panels", "n_panels", "rel_tol"):
            path = tmp_path / f"{key}.yaml"
            write_problem(path)
            with path.open("a") as fh:
                fh.write(f"quadrature:\n  {key}: 256\n")
            with pytest.raises(ProblemFileError, match="unknown quadrature keys"):
                load_problem_file(path)


class TestInputErrors:
    """Each defect of a problem file or flag exits 2 with one error line."""

    @pytest.mark.parametrize("content, alphas, message", [
        pytest.param(None, None, "cannot read", id="missing_file"),
        pytest.param("- 1\n- 2\n", None, "must contain a mapping of keys", id="not_a_mapping"),
        pytest.param({"f": 3}, None, "key 'f' must be an expression string, got 3",
                     id="non_string_f"),
        pytest.param({"equation": "heat"}, None,
                     "equation must be 'dalembert' or 'first_order', got 'heat'",
                     id="unknown_equation"),
        pytest.param({"quadrature": 5}, None, "key 'quadrature' must be a mapping",
                     id="non_mapping_quadrature"),
        # values are judged by the library objects the file builds
        pytest.param({"c": "-1.0"}, None, "wave speed c must be finite and > 0, got -1.0",
                     id="negative_c"),
        pytest.param({"alpha": "1.5"}, None,
                     "fractional order must satisfy 0 < alpha <= 1, got 1.5", id="alpha_above_1"),
        pytest.param({"t_max": "0"}, None,
                     "x_max and t_max must be positive, got x_max = 6.283185307179586, "
                     "t_max = 0.0", id="zero_t_max"),
        pytest.param({"x_max": ".inf"}, None, "scaled argument range [-4.671057661617592, inf] "
                     "overflows a double", id="infinite_x_max"),
        pytest.param({"quadrature": "{abs_tol: -1.0}"}, None,
                     "abs_tol must be finite and > 0, got -1.0", id="negative_abs_tol"),
        # the velocity integral has one absolute tolerance
        pytest.param({"quadrature": "{rel_tol: 1.0e-6}"}, None,
                     "unknown quadrature keys: rel_tol", id="rel_tol"),
        pytest.param({"f": '"sin(x"'}, None, "key 'f': syntax error at position 5 (expected ')')",
                     id="unclosed_call"),
        pytest.param({}, "0.5,abc", "alpha list entry 'abc' is not a number", id="bad_alpha_list"),
    ])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, content, alphas, message):
        # content: no file (None), its text, or the keys that replace valid ones
        path, out = tmp_path / "p.yaml", str(tmp_path / "out")
        if isinstance(content, str):
            path.write_text(content)
        elif content is not None:
            write_problem(path, **content)
        argv = ["solve", str(path)] if alphas is None else ["sweep", str(path), "--alphas", alphas]
        assert main(argv + ["--out", out]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert message in err
        assert not Path(out).exists()

    @pytest.mark.parametrize("f", [
        pytest.param("(" * 400 + "x" + ")" * 400, id="400_parentheses"),
        pytest.param("-" * 1200 + "x", id="1200_minus_signs"),
        pytest.param("+".join(["x"] * 5000), id="5000_terms"),
    ])
    def test_deep_or_long_profile_exits_2(self, tmp_path, capsys, f):
        path = write_problem(tmp_path / "p.yaml", f=f'"{f}"')
        assert main(["solve", str(path), "--out", str(tmp_path / "o.csv")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"key 'f': expression has more than {MAX_TOKENS} tokens" in err

    def test_deepest_parenthesised_profile_solves(self, tmp_path):
        # 127 levels of parentheses around x is 255 tokens: the same field as x
        depth = (MAX_TOKENS - 1) // 2
        deep = write_problem(tmp_path / "deep.yaml", f=f'"{"(" * depth}x{")" * depth}"')
        flat = write_problem(tmp_path / "flat.yaml", f='"x"')
        for path in (deep, flat):
            assert main(["solve", str(path), "--out", str(path.with_suffix(".csv"))]) == EXIT_OK
        assert (tmp_path / "deep.csv").read_bytes() == (tmp_path / "flat.csv").read_bytes()

    @pytest.mark.parametrize("argv, message", [
        pytest.param([], "the following arguments are required: command", id="no_subcommand"),
        pytest.param(["bogus"], "invalid choice: 'bogus'", id="unknown_subcommand"),
        pytest.param(["solve", "{p}", "--out", "{o}", "--frob"], "unrecognized arguments: --frob",
                     id="unknown_flag"),
        pytest.param(["solve", "{p}", "--nx", "abc", "--out", "{o}"],
                     "argument --nx: invalid int value: 'abc'", id="nx_abc"),
        pytest.param(["solve", "{p}", "--tol", "abc", "--out", "{o}"],
                     "argument --tol: invalid float value: 'abc'", id="tol_abc"),
        pytest.param(["solve", "{p}"], "the following arguments are required: --out",
                     id="missing_out"),
        pytest.param(["sweep", "{p}", "--out", "{o}"],
                     "the following arguments are required: --alphas", id="sweep_without_alphas"),
        pytest.param(["verify", "{p}", "--candidate-form", "foo", "--out", "{o}"],
                     "argument --candidate-form: invalid choice: 'foo'", id="unknown_candidate_form"),
    ])
    def test_argparse_error_exits_2(self, tmp_path, capsys, argv, message):
        # argparse's errors reach main's exit-code map: no SystemExit, no usage block
        path, out = write_problem(tmp_path / "p.yaml"), tmp_path / "out"
        assert main([arg.format(p=path, o=out) for arg in argv]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert message in err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fracwave solve")


# one input to the cli: a problem file under a command line, each drawn as a
# valid one with up to three entries replaced.  The file is the example1
# shape on a 9 x 9 grid; a key is replaced by another valid value, a wrong
# type, a number at the edge of a double or of the key's range, a deep or
# long expression, or None to leave the key out; "extra" is an unknown key.
# The command line is a valid one per command with small grids; an entry is
# replaced by another value (valid, junk, or None to leave it out), and
# "problem", the positional argument, is the drawn file unless replaced.
# Each entry's values are split in two: accepted values pass every check on
# the example1 shape, so a draw that takes only those reaches a solver.  Most
# values are refused, so a replacement is an accepted value two draws in
# three, and what never reaches a solver is drawn less often
BEYOND_A_DOUBLE = "1" + "0" * 400


def values(accepted, refused):
    """an entry's values: an accepted one two draws in three"""
    accepted = st.sampled_from(accepted) if accepted else st.nothing()
    return st.one_of(accepted, accepted, st.sampled_from(refused))


NUMBERS = values(["0.5", "1.0", "4.9e-324"],
                 ["0", "-1.0", "1.0e+300", ".inf", ".nan", BEYOND_A_DOUBLE, '"1e3"', "true", "[1]",
                  None])
EXPRESSIONS = values(['"x^2"', '"0"', '"1e308"', '"1/(x-1)"', f'"{"(" * 127}x{")" * 127}"'],
                     ['"exp(800*x)"', '"sin("', "3", None, f'"{"(" * 400}x{")" * 400}"',
                      '"' + "+".join(["x"] * 5000) + '"'])
GRIDS = values(["2"], ["1", "-3", "9.0", "true", BEYOND_A_DOUBLE, None])
FILE_VALUES = {
    "schema_version": values(["1"], ["2", "true", None]),
    "alpha": NUMBERS, "c": NUMBERS, "x_max": NUMBERS, "t_max": NUMBERS,
    "f": EXPRESSIONS, "g": EXPRESSIONS,
    "nx": GRIDS, "nt": GRIDS,
    "equation": values(["first_order", "dalembert"], ["heat", "[1]"]),
    "quadrature": values(["{abs_tol: 1.0e-6}", "{abs_tol: 1.0e+300}", "{abs_tol: 4.9e-324}"],
                         ["{abs_tol: .nan}", "{abs_tol: -1.0}", "{rel_tol: 1.0e-6}", "5"]),
    "extra": values([], ["1"]),
}
VALID_ARGS = {
    "solve": {"--out": "out.csv", "--nx": "9", "--nt": "9"},
    "verify": {"--out": "out.json", "--nx": "32", "--nt": "32"},
    "figures": {"--out": "out", "--nx": "9", "--nt": "9"},
    "sweep": {"--alphas": "0.5,1", "--out": "out", "--nx": "9", "--nt": "9"},
    "bogus": {},
}
# figures and bogus never read the drawn file: one draw in eleven each
COMMANDS = ["solve", "verify", "sweep"] * 3 + ["figures", "bogus"]
OTHER_VALUES = {
    "--nx": values([None, "33"], ["abc", "0", "1", "1e3", "100000000000000000000"]),
    "--nt": values([None, "32"], ["abc", "-4", "100000000000000000000"]),
    "--tol": values(["1e-6", "1e-300"], ["abc", "0", "inf", "nan"]),
    "--out": values(["out"], [None, "", "missing_dir/out"]),
    "problem": values([str(SHIPPED[0])], [None, "missing.yaml"]),
    "--alphas": values(["0.9"], [None, "abc", "0", "0.1234567,0.1234568"]),
    "--candidate-form": values(["sin_product", "cos_product"], ["foo"]),
    "--frob": values([], ["1"]),
}
# the flags that most commands refuse: one replaced entry in thirteen each
ENTRIES = (["--nx", "--nt", "--tol", "--out", "problem"] * 2
           + ["--alphas", "--candidate-form", "--frob"])


@st.composite
def cli_inputs(draw):
    """(the keys that replace the file's, argv)"""
    keys = draw(st.lists(st.sampled_from(list(FILE_VALUES)), max_size=3))
    overrides = {key: draw(FILE_VALUES[key]) for key in keys}
    command = draw(st.sampled_from(COMMANDS))
    args = dict(VALID_ARGS[command])
    if command not in ("figures", "bogus"):
        args["problem"] = "p.yaml"
    for key in draw(st.lists(st.sampled_from(ENTRIES), max_size=3)):
        args[key] = draw(OTHER_VALUES[key])
    argv = [command] + ([args.pop("problem")] if args.get("problem") else [])
    return overrides, argv + [token for flag, value in args.items() if value is not None
                              for token in (flag, value)]


def pin_overflow_files(test):
    """The files of the bugs this property found, each under the three
    command lines that found them: 1 / c^a overflows in the candidate forms,
    the residual spacing underflows to 0, and the velocity table's prefix sum
    and its rounding floor overflow."""
    for overrides in ({"alpha": "1.0", "c": "4.9e-324"}, {"x_max": "4.9e-324"},
                      {"g": '"1e308"', "quadrature": "{abs_tol: 1.0e+300}"},
                      {"c": "1.0e+300", "f": '"0"', "g": '"1e308"'}):
        for argv in (["solve", "p.yaml", "--out", "out.csv"],
                     ["verify", "p.yaml", "--nx", "32", "--nt", "32", "--out", "out.json"],
                     ["sweep", "p.yaml", "--alphas", "0.5,1", "--out", "out"]):
            test = example(inputs=(overrides, argv))(test)
    return test


def assert_documented_exit(rc: int, err: str, context) -> None:
    """rc is one of the codes the cli docstring promises; 0 and 5 print
    nothing on stderr (a failed check is reported on stdout), and the others
    print one line naming their kind."""
    assert rc in (EXIT_OK, EXIT_INPUT, EXIT_NUMERICAL, EXIT_IO, EXIT_VERIFY), (context, err)
    if rc in (EXIT_OK, EXIT_VERIFY):
        assert err == "", (context, err)
    else:
        lines = err.splitlines()
        assert len(lines) == 1, (context, err)
        assert lines[0].startswith(("error:", "numerical failure:", "i/o error:")), (context, err)


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


class TestEveryProblemFileMapsToAnExitCode:
    @settings(max_examples=500, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(inputs=cli_inputs())
    @pin_overflow_files
    def test_documented_code_one_line_and_no_warning(self, tmp_path, monkeypatch, capsys,
                                                     inputs):
        # a directory per draw: every output path is relative, and no draw
        # reads what another wrote
        monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
        overrides, argv = inputs
        write_problem(Path("p.yaml"), **({"alpha": "0.9", "nx": 9, "nt": 9} | overrides))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        assert_documented_exit(rc, capsys.readouterr().err, inputs)
        assert [str(w.message) for w in caught] == [], inputs
        report = Path("out.json")
        if report.exists():
            assert rc in (EXIT_OK, EXIT_VERIFY), inputs
            json.loads(report.read_text(), parse_constant=_reject_constant)

    @pytest.mark.parametrize("overrides, argv, message", [
        pytest.param({"alpha": "1.0", "c": "4.9e-324"}, ["verify"],
                     "candidate form 'cos_product' is not finite on the comparison grid",
                     id="tiny_c_candidate_forms"),
        pytest.param({"x_max": "4.9e-324"}, ["verify"],
                     "residual grid spacing x_max / 256 = 0 is not a positive normal double",
                     id="tiny_x_max_residual_spacing"),
        pytest.param({"g": '"1e308"'}, ["solve", "--tol", "1e300", "--nx", "9", "--nt", "9"],
                     "Chebyshev cell rule produced a non-finite result",
                     id="huge_g_prefix_sum"),
        pytest.param({"c": "1.0e+300", "f": '"0"', "g": '"1e308"'}, ["solve"],
                     "eps h max|g at the knots| = inf", id="huge_c_rounding_floor"),
        # an abs_tol below eps h max|g| at the table's knots is refused
        # before any cell is interpolated
        pytest.param({"alpha": "0.9"}, ["solve", "--tol", "1e-300", "--nx", "9", "--nt", "9"],
                     "refused abs_tol = 1e-300: it lies below the rounding floor of doubles",
                     id="tiny_tol_rounding_floor"),
    ])
    def test_overflow_exits_3_with_one_line_and_no_output(self, tmp_path, capsys, overrides,
                                                          argv, message):
        path, out = write_problem(tmp_path / "p.yaml", **overrides), tmp_path / "out"
        command, *flags = argv
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, str(path), *flags, "--out", str(out)]) == EXIT_NUMERICAL
        assert caught == []
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("numerical failure: "), err
        assert message in err
        assert not out.exists()


# finite doubles, with the edge cases of %.17g drawn often: signed zero,
# subnormals and the ends of the range
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308]
FINITE = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def fields(draw):
    nx, nt = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    x = draw(st.lists(FINITE, min_size=nx, max_size=nx))
    t = draw(st.lists(FINITE, min_size=nt, max_size=nt))
    u = [draw(st.lists(FINITE, min_size=nx, max_size=nx)) for _ in range(nt)]
    return Field2D(x, t, u)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def percent_g17(values) -> bytes:
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=float).tolist()).encode()


# powers of ten whose nearest double lies below them and rounds up to them at
# 17 significant digits: the kernel's digits carry into an 18th
ROUNDS_UP_TO_A_POWER = [(k, float(f"1e{k}")) for k in (-305, -243, -176, -14, 98, 220)]


def g17_edge_cases(rng) -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    max_double = np.finfo(float).max
    tiny = np.finfo(float).tiny
    bounds = np.array([1e-270, 1e270])  # the ends of the kernel's fast range
    integers = rng.integers(2**53, 2**63, 4096, dtype=np.int64)
    # exact ties at the 17th digit: n.25 with 16 integer digits, n.125 with 15
    ties = np.concatenate([rng.integers(10**15, 2 * 10**15, 256) + 0.25,
                           rng.integers(10**14, 9 * 10**14, 256) + 0.125])
    values = np.concatenate([
        [0.0, max_double, tiny, np.nextafter(tiny, 0.0), 5e-324],
        rng.integers(1, 2**52, 512) * 5e-324,  # subnormals
        bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, np.inf),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [value for _, value in ROUNDS_UP_TO_A_POWER],
        integers, np.nextafter(integers.astype(float), np.inf), ties,
    ])
    return np.concatenate([values, -values])


class TestWriteFieldCsv:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=fields())
    def test_matches_per_point_reference_and_round_trips(self, tmp_path, field):
        out = tmp_path / "f.csv"
        write_field_csv(field, out)
        reference = "x,t,u\n" + "".join(
            "%.17g,%.17g,%.17g\n" % (x, t, u)
            for t, row in zip(field.t.tolist(), field.values.tolist())
            for x, u in zip(field.x.tolist(), row)
        )
        assert out.read_bytes() == reference.encode()
        data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        tt, xx = np.meshgrid(field.t, field.x, indexing="ij")
        assert np.array_equal(bits(data[:, 0]), bits(xx.ravel()))
        assert np.array_equal(bits(data[:, 1]), bits(tt.ravel()))
        assert np.array_equal(bits(data[:, 2]), bits(field.values.ravel()))

    def test_g17_kernel_matches_percent_format(self):
        rng = np.random.default_rng(20261021)
        patterns = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(float)
        patterns = patterns[np.isfinite(patterns)]
        assert patterns.size > 199_000
        for values in (patterns, g17_edge_cases(rng)):
            assert format_g17(values) == percent_g17(values)

    def test_g17_edge_cases_reach_the_carry(self):
        for k, value in ROUNDS_UP_TO_A_POWER:
            assert Fraction(value) < Fraction(10) ** k == Fraction("%.17g" % value)

    @pytest.mark.parametrize("nx, nt", [(BLOCK + 5, 3), (100, 2 * BLOCK // 100 + 3)],
                             ids=["level_beyond_a_block", "partial_last_block"])
    def test_blocks_match_per_point_reference(self, tmp_path, nx, nt):
        rng = np.random.default_rng(nx)
        scale = 10.0 ** rng.integers(-30, 30, (nt, nx))
        field = Field2D(rng.normal(size=nx), rng.normal(size=nt), rng.normal(size=(nt, nx)) * scale)
        out = tmp_path / "f.csv"
        write_field_csv(field, out)
        reference = b"x,t,u\n" + b"".join(
            b"%.17g,%.17g,%.17g\n" % (x, t, u)
            for t, row in zip(field.t.tolist(), field.values.tolist())
            for x, u in zip(field.x.tolist(), row)
        )
        assert out.read_bytes() == reference

    def test_golden_format(self, tmp_path):
        # header x,t,u; x varies fastest; 17 significant digits with trailing
        # zeros dropped; signed zero kept; LF line endings
        field = Field2D([0.1, -0.0], [0.0, 2.0 / 3.0], [[0.1, -0.0], [2.0 / 3.0, 1e-300]])
        out = tmp_path / "f.csv"
        write_field_csv(field, out)
        assert out.read_bytes() == (
            b"x,t,u\n"
            b"0.10000000000000001,0,0.10000000000000001\n"
            b"-0,0,-0\n"
            b"0.10000000000000001,0.66666666666666663,0.66666666666666663\n"
            b"-0,0.66666666666666663,1e-300\n"
        )


class TestSolveCommand:
    def test_initial_row_is_square_profile(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml", alpha=1.0)
        out = tmp_path / "field.csv"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        x, t, u = read_csv(out)
        first = t == 0.0
        assert np.abs(u[first] - x[first] ** 2).max() <= 1e-12

    def test_huge_finite_profile_solves(self, tmp_path, capsys):
        # each end of f is halved before the two are summed: 1e308 + 1e308 overflows
        path = write_problem(tmp_path / "p.yaml", f='"1e308"')
        out = tmp_path / "o.csv"
        assert main(["solve", str(path), "--nx", "9", "--nt", "9", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert set(read_csv(out)[2]) == {1e308}

    def test_malformed_expression_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.yaml", f='"sin("')
        rc = main(["solve", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_INPUT
        assert "position" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "quadrature, flags, tol",
        [
            pytest.param(None, [], Tolerance(), id="default"),
            # --tol replaces the file's abs_tol; the field at 1e-12 differs
            # from the one at 1e-6, so an ignored --tol fails
            pytest.param(
                "{abs_tol: 1.0e-6}", ["--tol", "1e-12"], Tolerance(1e-12), id="tol_flag"
            ),
        ],
    )
    def test_output_matches_library_bit_for_bit(self, tmp_path, quadrature, flags, tol):
        # alpha = 0.8 example shape
        path = write_problem(tmp_path / "p.yaml", quadrature=quadrature)
        out = tmp_path / "cli.csv"
        assert main(["solve", str(path), "--out", str(out), *flags]) == EXIT_OK
        problem = WaveProblem(
            FractionalOrder(0.8), 1.0, parse("x^2"), parse("sin(x)"), TWO_PI, TWO_PI
        )
        golden = tmp_path / "lib.csv"
        field = evaluate_field(solve_dalembert(problem, tol), 17, 17)
        write_field_csv(field, golden)
        assert out.read_bytes() == golden.read_bytes()

    def test_first_order_field_reads_no_tol(self, tmp_path):
        # a first-order solution has no velocity integral, so --tol, even one
        # far below any rounding floor, leaves its field bit for bit alone
        path = SHIPPED[0].parent / "first_order.yaml"
        default, tight = tmp_path / "default.csv", tmp_path / "tight.csv"
        assert main(["solve", str(path), "--out", str(default)]) == EXIT_OK
        assert main(["solve", str(path), "--out", str(tight), "--tol", "1e-300"]) == EXIT_OK
        assert tight.read_bytes() == default.read_bytes()
        # and the file's equation names the kind: the library's first-order field
        pf = load_problem_file(path)
        golden = tmp_path / "lib.csv"
        write_field_csv(evaluate_field(solve_first_order(pf.solution.problem), pf.nx, pf.nt), golden)
        assert default.read_bytes() == golden.read_bytes()

    def test_runs_are_byte_identical(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", str(path), "--out", str(out1)]) == EXIT_OK
        assert main(["solve", str(path), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_grid_flags_override_file(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml")
        out = tmp_path / "field.csv"
        assert main(["solve", str(path), "--out", str(out), "--nx", "5", "--nt", "3"]) == EXIT_OK
        x, t, u = read_csv(out)
        assert len(u) == 15

    def test_unwritable_output_exits_4(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml")
        rc = main(["solve", str(path), "--out", str(tmp_path / "no" / "dir" / "o.csv")])
        assert rc == EXIT_IO

    def test_overflowing_profile_exits_3(self, tmp_path, capsys):
        # corners of the argument range stay finite, so the file validates,
        # but interior grid points overflow during evaluation
        path = write_problem(
            tmp_path / "p.yaml",
            alpha=1.0,
            f='"exp(800*sin(x))"',
            g='"0"',
            x_max=3.0,
            t_max=0.2,
        )
        rc = main(["solve", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    # at either order the cells at the pole x = 1 fail at the top degree of
    # the velocity table; a pole on a node would raise a division by zero,
    # which names g too
    @pytest.mark.parametrize("alpha", [0.8, 0.9])
    def test_pole_in_velocity_profile_exits_3(self, tmp_path, capsys, alpha):
        # the velocity table cannot integrate across the pole at x = 1
        path = write_problem(tmp_path / "p.yaml", alpha=alpha, g='"1/(x-1)"')
        rc = main(["solve", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: velocity profile g = (1.0 / (x - 1.0)) on [" in err
        assert not (tmp_path / "o.csv").exists()

    def test_singular_velocity_profile_exits_3(self, tmp_path, capsys):
        # 1/|x| near x = 0, finite at every node: no cell is accepted on its
        # own failing estimate, so the example1 shape exits 3, not 0 with a
        # wrong field
        path = write_problem(tmp_path / "p.yaml", alpha=0.9, g='"(x^2+1e-300)^-0.5"')
        rc = main(["solve", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure: velocity profile g =" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_t_major_ordering(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml")
        out = tmp_path / "field.csv"
        main(["solve", str(path), "--out", str(out), "--nx", "3", "--nt", "2"])
        x, t, _ = read_csv(out)
        assert list(t[:3]) == [0.0, 0.0, 0.0]
        assert x[0] < x[1] < x[2]


class TestVerifyCommand:
    @pytest.mark.parametrize("f", [
        pytest.param("1e308", id="matmul_overflow"),  # the residual holds NaN
        pytest.param("1e170", id="square_overflow"),  # finite, but its squares are not
    ])
    def test_non_finite_residual_exits_3_without_a_report(self, tmp_path, capsys, f):
        # a NaN or Infinity would make the report invalid JSON
        path = write_problem(tmp_path / "p.yaml", f=f'"{f}"')
        out = tmp_path / "report.json"
        assert main(["verify", str(path), "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: wave-equation residual on 64 x 64 cells has a non-finite l2 norm\n"
        )
        assert not out.exists()

    def test_first_order_problem_passes(self, tmp_path, capsys):
        path = write_problem(
            tmp_path / "p.yaml", equation="first_order", alpha=0.5, f='"sin(x)"', g='"0"'
        )
        out = tmp_path / "report.json"
        rc = main(["verify", str(path), "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["passed"]
        assert report["route_equivalence"]["applicable"]
        assert report["route_equivalence"]["max_deviation"] <= 1e-12
        assert "route equivalence" in capsys.readouterr().out

    def test_first_order_report_reads_no_abs_tol(self, tmp_path, capsys):
        reports = []
        for name, quadrature in (("default", None), ("loose", "{abs_tol: 1.0e-3}")):
            path = write_problem(tmp_path / f"{name}.yaml", equation="first_order", alpha=0.5,
                                 f='"sin(x)"', g='"0"', quadrature=quadrature)
            out = tmp_path / f"{name}.json"
            assert main(["verify", str(path), "--out", str(out)]) == EXIT_OK
            report = json.loads(out.read_text())
            assert report.pop("problem") == str(path)
            reports.append(report)
        assert reports[0] == reports[1]
        capsys.readouterr()

    def test_example_problem_passes(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.yaml", alpha=0.9)
        out = tmp_path / "report.json"
        rc = main(["verify", str(path), "--out", str(out), "--nx", "32", "--nt", "32"])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["passed"]
        assert report["initial_conditions"]["position_pass"]
        assert report["initial_conditions"]["velocity_pass"]
        assert report["residual"]["monotone"]
        linfs = [lv["linf"] for lv in report["residual"]["levels"]]
        assert linfs[0] > linfs[1] > linfs[2]
        assert report["candidate_forms"]["ic_max_error"]["cos_product"] > 0.5
        capsys.readouterr()

    def test_classical_problem_passes(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.yaml", alpha=1.0)
        out = tmp_path / "report.json"
        rc = main(["verify", str(path), "--out", str(out), "--nx", "32", "--nt", "32"])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["residual"]["monotone"]
        # classical solution is exact away from the boundary bands
        assert report["residual"]["levels"][-1]["core_linf"] <= 1e-6
        capsys.readouterr()

    def test_corrupted_candidate_fails_with_exit_5(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.yaml", f='"0"')
        out = tmp_path / "report.json"
        rc = main(
            ["verify", str(path), "--out", str(out), "--candidate-form", "cos_product",
             "--nx", "32", "--nt", "32"]
        )
        assert rc == EXIT_VERIFY
        report = json.loads(out.read_text())  # report still written
        assert not report["passed"]
        assert report["initial_conditions"]["position_max_error"] > 0.5
        stdout = capsys.readouterr().out
        assert "[FAIL]" in stdout.splitlines()[2]  # the u(x,0) line
        assert stdout.endswith("  result: FAIL\n")
        assert stdout == reference_text_block(report) + "\n"

    def test_route_disagreement_fails_with_exit_5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fracwave.cli.route_equivalence", lambda problem: 1e-9)
        out = tmp_path / "report.json"
        path = SHIPPED[0].parent / "first_order.yaml"
        assert main(["verify", str(path), "--out", str(out)]) == EXIT_VERIFY
        report = json.loads(out.read_text())
        assert report["failures"] == ["characteristics and transform routes disagree"]
        assert report["route_equivalence"]["max_deviation"] == 1e-9
        stdout = capsys.readouterr().out
        assert "  route equivalence: max deviation 1.000e-09  [FAIL]" in stdout.splitlines()
        assert stdout.endswith("  result: FAIL\n")
        assert stdout == reference_text_block(report) + "\n"

    def test_t_max_below_velocity_probe_window_exits_3(self, tmp_path, capsys):
        # at alpha 0.9 the t = 0 velocity probe reads u up to t = eps^(1/1.8),
        # about 2.0e-9, past this t_max, so it would need g beyond the
        # velocity table's scaled argument range
        path = write_problem(tmp_path / "p.yaml", alpha=0.9, t_max="1.0e-9")
        out = tmp_path / "report.json"
        assert main(["verify", str(path), "--out", str(out)]) == EXIT_NUMERICAL
        assert "outside the scaled argument range" in capsys.readouterr().err
        assert not out.exists()

    def test_candidate_form_requires_example_shape(self, tmp_path, capsys):
        # g off the example shape; then the example shape on a first-order
        # problem, whose travelling wave no d'Alembert product form describes
        for overrides, form in (({"g": '"cos(x)"'}, "cos_product"),
                                ({"equation": "first_order"}, "sin_product")):
            path = write_problem(tmp_path / "p.yaml", **overrides)
            out = tmp_path / "r.json"
            rc = main(["verify", str(path), "--out", str(out), "--candidate-form", form])
            assert rc == EXIT_INPUT
            err = capsys.readouterr().err
            assert_one_error_line(err)
            assert "requires a d'Alembert problem" in err
            assert not out.exists()


class TestShippedProblemFiles:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_verify_passes(self, path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", str(path), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["passed"] is True
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [[p.stem] for p in SHIPPED] + [["example2", "--candidate-form", "sin_product"]],
        ids=" ".join,
    )
    def test_verify_report_keys(self, argv, tmp_path, capsys):
        # the report's schema only ever gains keys; a removed or renamed key
        # breaks readers of earlier reports
        name, *flags = argv
        out = tmp_path / "report.json"
        path = SHIPPED[0].parent / f"{name}.yaml"
        assert main(["verify", str(path), "--out", str(out), *flags]) == EXIT_OK
        stdout = capsys.readouterr().out
        report = json.loads(out.read_text())
        assert stdout == reference_text_block(report) + "\n"
        first_order = name == "first_order"
        expected = REPORT_KEYS | IC_KEYS
        if first_order:
            expected |= FIRST_ORDER_KEYS
        else:
            expected |= DALEMBERT_KEYS | ({"candidate_form"} if flags else set())
        assert key_paths(report) == expected

        ic = report["initial_conditions"]
        assert ic["nx"] == IC_NX
        assert ic["position_abs_tol"] == POSITION_TOL
        assert ic["position_rel_tol"] == 0.0
        assert ic["velocity_tol"] == (None if first_order else VELOCITY_TOL)

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_solve_writes_one_row_per_point(self, path, tmp_path):
        out = tmp_path / "field.csv"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        pf = load_problem_file(path)
        x, t, u = read_csv(out)
        assert u.shape == (pf.nx * pf.nt,)
        assert np.unique(x).size == pf.nx and np.unique(t).size == pf.nt


class TestFiguresCommand:
    def test_emits_eight_datasets_with_readme(self, tmp_path, capsys):
        outdir = tmp_path / "figs"
        rc = main(["figures", "--out", str(outdir), "--nx", "17", "--nt", "17"])
        assert rc == EXIT_OK
        assert sorted(p.name for p in outdir.iterdir()) == ["README.md"] + [
            f"example{n}_alpha{alpha}.csv" for n in (1, 2) for alpha in ("0.7", "0.8", "0.9", "1")
        ]
        readme = (outdir / "README.md").read_text()
        assert "cos(X')" in readme and "sin(X')" in readme
        capsys.readouterr()

    def test_classical_datasets_match_closed_forms(self, tmp_path):
        outdir = tmp_path / "figs"
        main(["figures", "--out", str(outdir), "--nx", "17", "--nt", "17"])
        x, t, u = read_csv(outdir / "example1_alpha1.csv")
        assert np.abs(u - (x**2 + t**2 + np.sin(x) * np.sin(t))).max() <= 1e-10
        x, t, u = read_csv(outdir / "example2_alpha1.csv")
        assert np.abs(u - np.sin(x) * np.sin(t)).max() <= 1e-10

    def test_orders_produce_distinct_fields(self, tmp_path):
        outdir = tmp_path / "figs"
        main(["figures", "--out", str(outdir), "--nx", "17", "--nt", "17"])
        _, _, u07 = read_csv(outdir / "example1_alpha0.7.csv")
        _, _, u10 = read_csv(outdir / "example1_alpha1.csv")
        assert np.abs(u07 - u10).max() > 1e-3

    def test_unwritable_target_exits_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        rc = main(["figures", "--out", str(blocker)])
        assert rc == EXIT_IO


class TestSweepCommand:
    def test_emits_one_file_per_order(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml", nx=9, nt=9)
        outdir = tmp_path / "sweep"
        rc = main(["sweep", str(path), "--alphas", "0.7,0.8,0.9,1.0", "--out", str(outdir)])
        assert rc == EXIT_OK
        assert sorted(p.name for p in outdir.iterdir()) == [
            "alpha_0.7.csv", "alpha_0.8.csv", "alpha_0.9.csv", "alpha_1.csv",
        ]

    def test_singleton_matches_solve_output(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml", alpha=1.0, nx=9, nt=9)
        outdir = tmp_path / "sweep"
        solo = tmp_path / "solve.csv"
        assert main(["sweep", str(path), "--alphas", "1.0", "--out", str(outdir)]) == EXIT_OK
        assert main(["solve", str(path), "--out", str(solo)]) == EXIT_OK
        assert (outdir / "alpha_1.csv").read_bytes() == solo.read_bytes()

    def test_invalid_alpha_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.yaml")
        rc = main(["sweep", str(path), "--alphas", "1.5", "--out", str(tmp_path / "s")])
        assert rc == EXIT_INPUT
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas, named", [
        ("0.1234567,0.1234568", "alphas 0.1234567 and 0.1234568 both write alpha_0.123457.csv"),
        ("0.5,0.5", "alphas 0.5 and 0.5 both write alpha_0.5.csv"),
    ])
    def test_orders_sharing_a_file_exit_2_before_solving(self, tmp_path, capsys, alphas, named):
        path = write_problem(tmp_path / "p.yaml")
        outdir = tmp_path / "s"
        rc = main(["sweep", str(path), "--alphas", alphas, "--out", str(outdir)])
        assert rc == EXIT_INPUT
        assert named in capsys.readouterr().err
        assert not outdir.exists()


class TestGridFlagValidation:
    """Non-positive or non-finite --nx/--nt/--tol are input errors on every
    subcommand."""

    @staticmethod
    def argv(command, tmp_path):
        path = write_problem(tmp_path / "p.yaml")
        out = str(tmp_path / "out")
        if command == "figures":
            return ["figures", "--out", out]
        if command == "sweep":
            return ["sweep", str(path), "--alphas", "0.8", "--out", out]
        return [command, str(path), "--out", out]

    @pytest.mark.parametrize("command", ["solve", "verify", "sweep", "figures"])
    @pytest.mark.parametrize("tol", ["0", "-1", "inf", "nan"])
    def test_non_positive_or_non_finite_tol_exits_2(self, tmp_path, capsys, command, tol):
        rc = main(self.argv(command, tmp_path) + ["--tol", tol])
        assert rc == EXIT_INPUT
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "verify", "sweep", "figures"])
    @pytest.mark.parametrize("flags, named", [(["--nx", "0", "--nt", "3"], "--nx"),
                                              (["--nt", "0"], "--nt"),
                                              (["--nx", "-4"], "--nx")])
    def test_non_positive_grid_exits_2(self, tmp_path, capsys, command, flags, named):
        rc = main(self.argv(command, tmp_path) + flags)
        assert rc == EXIT_INPUT
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags, named", [
        ("solve", ["--nx", "1"], "--nx"),
        ("solve", ["--nt", "1"], "--nt"),
        ("sweep", ["--nx", "1"], "--nx"),
        ("figures", ["--nt", "1"], "--nt"),
        ("verify", ["--nx", "8"], "--nx"),
        ("verify", ["--nt", "31"], "--nt"),
    ])
    def test_grid_below_library_minimum_exits_2(self, tmp_path, capsys, command, flags, named):
        # too-small grids are input errors, not numerical failures
        rc = main(self.argv(command, tmp_path) + flags)
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert named in err and "at least" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, minimum", [("solve", MIN_GRID_POINTS),
                                                  ("verify", MIN_RESIDUAL_CELLS)])
    def test_grid_at_library_minimum_is_accepted(self, tmp_path, command, minimum):
        flags = ["--nx", str(minimum), "--nt", str(minimum)]
        rc = main(self.argv(command, tmp_path) + flags)
        assert rc == EXIT_OK
        assert (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", [
        *[(command, ["--nx", "100000000000000000000"])  # beyond NumPy's index range
          for command in ("solve", "verify", "sweep", "figures")],
        ("solve", ["--nx", "4096", "--nt", "4097"]),
        # verify's 32 x 1024 base cells: a finest grid of 129 x 4097 points
        # within the cap, but a 4097 x 4097 dense operator beyond it
        ("verify", ["--nx", "32", "--nt", "1024"]),
    ])
    def test_grid_beyond_cap_exits_2(self, tmp_path, capsys, command, flags):
        assert main(self.argv(command, tmp_path) + flags) == EXIT_INPUT
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert f"is too large for {command}: more than {MAX_GRID_POINTS} values" in err
        assert not (tmp_path / "out").exists()

    def test_file_grid_beyond_numpy_range(self, tmp_path, capsys):
        # solve evaluates the file's grid; verify studies its own residual grids
        path = write_problem(tmp_path / "p.yaml", nx=10**30)
        out = str(tmp_path / "out")
        assert main(["solve", str(path), "--out", out]) == EXIT_INPUT
        assert_one_error_line(capsys.readouterr().err)
        assert main(["verify", str(path), "--out", out]) == EXIT_OK


class TestModuleEntryPoint:
    def test_python_dash_m_runs_main(self, tmp_path):
        # `python -m fracwave.cli` is the command the benchmark times; the
        # child imports fracwave from where this process did, by an absolute
        # path, since a relative PYTHONPATH would not hold in its directory
        env = os.environ | {"PYTHONPATH": str(Path(fracwave.__file__).resolve().parent.parent)}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "fracwave.cli", *argv], cwd=tmp_path,
                                  env=env, capture_output=True, text=True)

        path, flags = SHIPPED[0].parent / "example1.yaml", ["--nx", "9", "--nt", "9"]
        child = run("solve", str(path), *flags, "--out", "child.csv")
        assert (child.returncode, child.stderr) == (EXIT_OK, "")
        assert main(["solve", str(path), *flags, "--out", str(tmp_path / "main.csv")]) == EXIT_OK
        assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()
        child = run("bogus")
        assert child.returncode == EXIT_INPUT
        assert_one_error_line(child.stderr)
