import json
import math
from pathlib import Path

import numpy as np
import pytest

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
from fracwave.core import FractionalOrder
from fracwave.expr import parse
from fracwave.fracops import QuadratureConfig
from fracwave.solver import (
    MIN_GRID_POINTS,
    Field2D,
    WaveProblem,
    evaluate_field,
    solve_dalembert,
)
from fracwave.verify import MIN_RESIDUAL_CELLS

TWO_PI = 2.0 * math.pi
SHIPPED = sorted((Path(__file__).parent.parent / "problems").glob("*.yaml"))


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

    def test_expression_error_has_position(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml", g='"sin("')
        with pytest.raises(ProblemFileError, match="position 4"):
            load_problem_file(path)

    def test_non_finite_exponent_rejected(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml", f='"x^((-8)^0.5)"')
        with pytest.raises(ProblemFileError, match="key 'f'.*finite real"):
            load_problem_file(path)

    def test_quadrature_overrides(self, tmp_path):
        path = tmp_path / "p.yaml"
        write_problem(path)
        with path.open("a") as fh:
            fh.write("quadrature:\n  abs_tol: 1.0e-8\n")
        pf = load_problem_file(path)
        assert pf.cfg.adaptive_tol.abs_tol == 1e-8

    @pytest.mark.parametrize("value", [".nan", ".inf", "abc", "true"])
    @pytest.mark.parametrize("key", ["abs_tol", "rel_tol"])
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
        # n_panels is rejected too: no solution reads a panel count
        for key in ("panels", "n_panels"):
            path = tmp_path / f"{key}.yaml"
            write_problem(path)
            with path.open("a") as fh:
                fh.write(f"quadrature:\n  {key}: 256\n")
            with pytest.raises(ProblemFileError, match="unknown quadrature keys"):
                load_problem_file(path)


class TestWriteFieldCsv:
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

    def test_output_matches_library_bit_for_bit(self, tmp_path):
        path = write_problem(tmp_path / "p.yaml")  # alpha = 0.8 example shape
        out = tmp_path / "cli.csv"
        assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
        problem = WaveProblem(
            FractionalOrder(0.8), 1.0, parse("x^2"), parse("sin(x)"), TWO_PI, TWO_PI
        )
        golden = tmp_path / "lib.csv"
        field = evaluate_field(solve_dalembert(problem, QuadratureConfig(1024)), 17, 17)
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
        capsys.readouterr()

    def test_candidate_form_requires_example_shape(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.yaml", g='"cos(x)"')
        rc = main(
            ["verify", str(path), "--out", str(tmp_path / "r.json"),
             "--candidate-form", "cos_product"]
        )
        assert rc == EXIT_INPUT
        capsys.readouterr()


class TestShippedProblemFiles:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_verify_passes(self, path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", str(path), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["passed"] is True
        capsys.readouterr()

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
