import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fracwave.cli import (
    EXIT_INPUT,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY,
    ProblemFileError,
    load_problem_file,
    main,
    write_field_csv,
)
from fracwave.core import FractionalOrder, Tolerance
from fracwave.expr import parse
from fracwave.solver import (
    MIN_GRID_POINTS,
    Field2D,
    WaveProblem,
    evaluate_field,
    solve_dalembert,
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


def read_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1], data[:, 2]


class TestProblemFile:
    def test_loads_valid_file(self, tmp_path):
        pf = load_problem_file(write_problem(tmp_path / "p.yaml"))
        assert pf.problem.alpha == 0.8
        assert pf.nx == 17 and pf.nt == 17
        assert pf.equation == "dalembert"

    def test_shipped_problem_files_are_valid(self):
        assert len(SHIPPED) == 4
        for path in SHIPPED:
            pf = load_problem_file(path)
            assert 0.0 < pf.problem.alpha <= 1.0

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

    def test_unsigned_exponent_explained(self, tmp_path, capsys):
        # YAML reads 1.0e300 as a string; it stays rejected, with the reason
        path = write_problem(tmp_path / "p.yaml", c="1.0e300")
        message = r"key 'c' must be a number, got '1\.0e300'; YAML reads an exponent without"
        with pytest.raises(ProblemFileError, match=message):
            load_problem_file(path)
        assert main(["solve", str(path), "--out", str(tmp_path / "o.csv")]) == EXIT_INPUT
        assert "write 1.0e+300" in capsys.readouterr().err
        accepted = write_problem(path, c="1.0e+300", f='"0"', g='"0"')
        assert load_problem_file(accepted).problem.speed == 1e300

    def test_overflowing_argument_range_rejected(self, tmp_path, capsys):
        # c^a T' overflows a double: the speed and horizon are named, no
        # RuntimeWarning escapes and the profiles are never blamed
        path = write_problem(tmp_path / "p.yaml", alpha=1.0, c="1.0e+300", t_max="1.0e+300")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_INPUT
        assert caught == []
        err = capsys.readouterr().err
        assert "overflows a double: wave speed c = 1e+300" in err
        assert "t_max = 1e+300" in err and "sub-expression" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("key", ["abs_tol"])
    def test_quadrature_overrides(self, tmp_path, key):
        path = tmp_path / "p.yaml"
        write_problem(path)
        with path.open("a") as fh:
            fh.write(f"quadrature:\n  {key}: 1.0e-8\n")
        pf = load_problem_file(path)
        assert pf.tol == Tolerance(1e-8)

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
            assert "requires a d'Alembert problem" in capsys.readouterr().err
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
        files = sorted(p.name for p in outdir.glob("*.csv"))
        assert len(files) == 8
        assert (outdir / "README.md").exists()
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
        assert sorted(p.name for p in outdir.glob("*.csv")) == [
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
