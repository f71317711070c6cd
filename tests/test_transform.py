import math

import numpy as np
import pytest

from fracwave.core import DomainError, FractionalOrder, gamma
from fracwave.expr import BinOp, Literal, Pow, Var
from fracwave.fracops import QuadratureConfig, jumarie_derivative
from fracwave.transform import (
    FractalCoords,
    TransformSpec,
    from_fractal,
    operator_scale,
    to_fractal,
)


def spec(alpha, p=1.0, q=1.0):
    return TransformSpec(FractionalOrder(alpha), p, q)


class TestValidation:
    @pytest.mark.parametrize("p, q, named", [(0.0, 1.0, "space"), (-1.0, 1.0, "space"),
                                             (1.0, 0.0, "time"), (1.0, -2.0, "time")])
    def test_spec_rejects_non_positive_scale_factors(self, p, q, named):
        with pytest.raises(DomainError, match=f"{named} scale factor"):
            spec(0.5, p, q)

    @pytest.mark.parametrize("X, T", [(-1.0, 0.0), (0.0, -1.0)])
    def test_coords_reject_negative_values(self, X, T):
        with pytest.raises(DomainError, match="non-negative"):
            FractalCoords(X, T)


class TestToFractal:
    def test_origin_maps_to_origin(self):
        coords = to_fractal(0.0, 0.0, spec(0.6))
        assert coords == FractalCoords(0.0, 0.0)

    def test_identity_at_classical_order(self):
        coords = to_fractal(3.2, 1.7, spec(1.0))
        assert coords.X == pytest.approx(3.2, rel=1e-14)
        assert coords.T == pytest.approx(1.7, rel=1e-14)

    def test_half_order_value(self):
        # X = (1*4)^0.5 / gamma(1.5) = 2/gamma(1.5)
        coords = to_fractal(4.0, 0.0, spec(0.5))
        assert coords.X == pytest.approx(2.0 / math.gamma(1.5), rel=1e-13)
        assert coords.X == pytest.approx(2.256758334191025, rel=1e-13)

    def test_rejects_negative_coordinates(self):
        with pytest.raises(DomainError):
            to_fractal(-0.1, 0.0, spec(0.5))
        with pytest.raises(DomainError):
            to_fractal(0.0, -2.0, spec(0.5))

    def test_monotone_in_each_coordinate(self):
        s = spec(0.7, p=1.5, q=0.5)
        xs = np.linspace(0.0, 5.0, 40)
        X = [to_fractal(float(x), 1.0, s).X for x in xs]
        T = [to_fractal(1.0, float(t), s).T for t in xs]
        assert all(b > a for a, b in zip(X, X[1:]))
        assert all(b > a for a, b in zip(T, T[1:]))


class TestFromFractal:
    def test_origin(self):
        assert from_fractal(FractalCoords(0.0, 0.0), spec(0.4)) == (0.0, 0.0)

    def test_inverse_of_forward_example(self):
        x, _ = from_fractal(FractalCoords(2.256758334191025, 0.0), spec(0.5))
        assert x == pytest.approx(4.0, rel=1e-12)

    def test_round_trip_grid(self):
        for alpha in (0.3, 0.5, 0.7, 1.0):
            s = spec(alpha, p=2.0, q=0.75)
            for x in np.linspace(0.01, 9.0, 50):
                for t in np.linspace(0.01, 4.0, 50):
                    coords = to_fractal(float(x), float(t), s)
                    rx, rt = from_fractal(coords, s)
                    assert rx == pytest.approx(float(x), rel=1e-12)
                    assert rt == pytest.approx(float(t), rel=1e-12)


class TestOperatorScale:
    def test_unit_factor(self):
        assert operator_scale(spec(0.42), "space") == 1.0

    def test_classical(self):
        assert operator_scale(spec(1.0, p=3.0), "space") == pytest.approx(3.0)

    def test_half_order(self):
        assert operator_scale(spec(0.5, q=4.0), "time") == pytest.approx(2.0)

    def test_bad_axis(self):
        with pytest.raises(DomainError):
            operator_scale(spec(0.5), "diagonal")


class TestChainRuleConsistency:
    """The scaling rule D^alpha[w(X(x))] = p^alpha * w'(X(x)) is exact for
    affine profiles w (which is how the travelling waves use it); nonlinear
    profiles pick up order-dependent gamma-ratio corrections."""

    @pytest.mark.parametrize("alpha", [0.4, 0.6, 0.9])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_affine_profiles(self, alpha, p):
        a, b = 1.75, -0.6
        # u(x) = a*(p x)^alpha/gamma(1+alpha) + b as an expression
        coef = a * p ** alpha / gamma(1.0 + alpha)
        u = BinOp("+", BinOp("*", Literal(coef), Pow(Var(), alpha)), Literal(b))
        cfg = QuadratureConfig(4096)
        for x in (0.5, 1.0, 2.0):
            got = jumarie_derivative(u, alpha, x, cfg)
            expected = p ** alpha * a  # p^alpha * w'(X)
            assert got == pytest.approx(expected, rel=2e-4)
