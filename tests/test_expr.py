import math

import numpy as np
import pytest

from fracwave.expr import (
    BinOp,
    EvaluationError,
    Func,
    Literal,
    Neg,
    ParseError,
    Pow,
    Var,
    evaluate,
    parse,
    to_text,
)


class TestParse:
    def test_square(self):
        assert parse("x^2") == Pow(Var(), 2.0)

    def test_sine(self):
        assert parse("sin(x)") == Func("sin", Var())

    def test_zero(self):
        assert parse("0") == Literal(0.0)

    def test_precedence(self):
        assert parse("1 + 2*x") == BinOp("+", Literal(1.0), BinOp("*", Literal(2.0), Var()))
        # unary minus binds looser than power
        assert parse("-x^2") == Neg(Pow(Var(), 2.0))

    def test_power_right_associative_constant_folded(self):
        # x^2^3 = x^(2^3)
        assert parse("x^2^3") == Pow(Var(), 8.0)

    def test_negative_exponent(self):
        assert parse("x^-2") == Pow(Var(), -2.0)

    def test_scientific_literals(self):
        assert parse("2.5e-3") == Literal(2.5e-3)

    def test_deterministic(self):
        text = "sin(2*x) - exp(-(x - 1)^2) / 3"
        assert parse(text) == parse(text)

    def test_unbalanced_paren_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("sin(")
        assert err.value.position == 4
        assert err.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'tan'"):
            parse("tan(x)")
        with pytest.raises(ParseError, match="unknown identifier 'y'"):
            parse("y + 1")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing input"):
            parse("2 x")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse("x + ")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("x % 2")
        assert err.value.position == 2

    def test_non_constant_exponent_rejected(self):
        with pytest.raises(ParseError, match="constant"):
            parse("2^x")

    @pytest.mark.parametrize(
        "text", ["x^(1/0)", "x^(10^400)", "x^(0^-1)", "x^((-8)^0.5)", "x^1e999"]
    )
    def test_exponent_must_fold_to_finite_real(self, text):
        # the exponent is folded by the evaluator, so its finite checks apply;
        # (-8)^0.5 must not fold to a complex exponent
        with pytest.raises(ParseError, match="finite real") as err:
            parse(text)
        assert err.value.position == 1


class TestEvaluate:
    def test_square_at_three(self):
        assert evaluate(parse("x^2"), 3.0) == 9.0

    def test_sine_at_zero(self):
        assert evaluate(parse("sin(x)"), 0.0) == 0.0

    def test_root_by_construction(self):
        assert evaluate(parse("x^2 - 2*x"), 2.0) == 0.0

    # round-trip corpus: DSL evaluation against direct arithmetic
    CORPUS = [
        ("x", lambda x: x, (-10, 10)),
        ("x^2", lambda x: x**2, (-10, 10)),
        ("x^3 - x + 0.25", lambda x: x**3 - x + 0.25, (-5, 5)),
        ("sin(x)", math.sin, (-10, 10)),
        ("cos(x)", math.cos, (-10, 10)),
        ("exp(x)", math.exp, (-5, 5)),
        ("x^2 - 2*x", lambda x: x**2 - 2 * x, (-10, 10)),
        ("2*x + 1", lambda x: 2 * x + 1, (-10, 10)),
        ("-x", lambda x: -x, (-10, 10)),
        ("x/2", lambda x: x / 2, (-10, 10)),
        ("1/(1 + x^2)", lambda x: 1 / (1 + x**2), (-10, 10)),
        ("sin(2*x)*cos(3*x)", lambda x: math.sin(2 * x) * math.cos(3 * x), (-6, 6)),
        ("exp(-(x - 1)^2)", lambda x: math.exp(-((x - 1) ** 2)), (-4, 6)),
        ("x^0.5", math.sqrt, (0.01, 20)),
        ("(x + 1)*(x - 1)", lambda x: (x + 1) * (x - 1), (-8, 8)),
        ("sin(x)^2 + cos(x)^2", lambda x: math.sin(x) ** 2 + math.cos(x) ** 2, (-7, 7)),
        ("2^3 + x", lambda x: 8.0 + x, (-10, 10)),
        ("3.5e-2*x", lambda x: 3.5e-2 * x, (-10, 10)),
        ("-(x - 0.5)^2 + exp(0.1*x)", lambda x: -((x - 0.5) ** 2) + math.exp(0.1 * x), (-5, 5)),
        ("x*x*x", lambda x: x * x * x, (-6, 6)),
    ]

    @pytest.mark.parametrize("text,oracle,span", CORPUS, ids=[c[0] for c in CORPUS])
    def test_round_trip_against_direct_arithmetic(self, text, oracle, span):
        expr = parse(text)
        for v in np.linspace(span[0], span[1], 100):
            v = float(v)
            expected = oracle(v)
            got = evaluate(expr, v)
            assert got == pytest.approx(expected, rel=1e-14, abs=1e-300)

    def test_array_evaluation_matches_scalar(self):
        expr = parse("sin(2*x) - x^2/4")
        xs = np.linspace(-3, 3, 41)
        vec = evaluate(expr, xs)
        assert isinstance(vec, np.ndarray)
        for i, v in enumerate(xs):
            assert vec[i] == evaluate(expr, float(v))

    def test_literal_broadcasts_over_arrays(self):
        out = evaluate(parse("2"), np.zeros(5))
        assert out.shape == (5,)
        assert np.all(out == 2.0)

    def test_division_by_zero_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/x"), 0.0)

    def test_fractional_power_of_negative_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("x^0.5"), -1.0)

    def test_zero_to_negative_power_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("x^-1"), 0.0)

    def test_integer_power_of_negative_is_fine(self):
        assert evaluate(parse("x^3"), -2.0) == -8.0

    def test_overflow_raises_not_inf(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("exp(x)"), 1000.0)

    def test_array_error_detected(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/x"), np.array([1.0, 0.0, 2.0]))

    def test_error_carries_subexpression(self):
        with pytest.raises(EvaluationError) as err:
            evaluate(parse("2 + 1/x"), 0.0)
        assert err.value.expression == BinOp("/", Literal(1.0), Var())


class TestToText:
    def test_round_trips_through_parser(self):
        for text, _, _ in TestEvaluate.CORPUS:
            expr = parse(text)
            assert parse(to_text(expr)) == expr
