import math

import numpy as np
import pytest

from fracwave.core import (
    DomainError,
    FractionalOrder,
    Tolerance,
    as_order,
    euler_power_coefficient,
    gamma,
)


class TestGamma:
    def test_trivial_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma(2.0) == pytest.approx(1.0, rel=1e-13)

    def test_half_integer_identity(self):
        # oracle: gamma(1/2) = sqrt(pi), so gamma(3/2) = sqrt(pi)/2
        assert gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_against_libm_on_contract_range(self):
        for z in np.linspace(1e-3, 30.0, 4001):
            assert gamma(float(z)) == pytest.approx(math.gamma(float(z)), rel=1e-13)

    def test_recurrence_property(self):
        # gamma(z + 1) = z * gamma(z), sampled densely on (0, 20]
        for z in np.linspace(0.01, 20.0, 3001):
            z = float(z)
            assert gamma(z + 1.0) == pytest.approx(z * gamma(z), rel=1e-12)

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            gamma(172.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            gamma(bad)


class TestFractionalOrder:
    def test_accepts_unit_interval(self):
        assert FractionalOrder(0.5).alpha == 0.5
        assert FractionalOrder(1.0).alpha == 1.0

    def test_classical_flag_is_exact(self):
        assert FractionalOrder(1.0).is_classical
        assert not FractionalOrder(1.0 - 1e-12).is_classical

    @pytest.mark.parametrize("bad", [0.0, -0.3, 1.0000000001, 2.0, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            FractionalOrder(bad)

    def test_as_order_coercion(self):
        assert as_order(0.7) == FractionalOrder(0.7)
        order = FractionalOrder(0.4)
        assert as_order(order) is order


class TestTolerance:
    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            Tolerance(0.0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Tolerance(-1e-3)

    @pytest.mark.parametrize("abs_tol", [math.nan, math.inf])
    def test_rejects_non_finite(self, abs_tol):
        with pytest.raises(DomainError, match="finite"):
            Tolerance(abs_tol)


class TestEulerPowerCoefficient:
    def test_power_alpha_gives_gamma_one_plus_alpha(self):
        for alpha in (0.3, 0.5, 0.8, 1.0):
            assert euler_power_coefficient(alpha, alpha) == pytest.approx(
                math.gamma(1.0 + alpha), rel=1e-13
            )

    def test_ordinary_derivative_of_x(self):
        assert euler_power_coefficient(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_half_order_of_x(self):
        # oracle: gamma(2)/gamma(1.5) = 2/sqrt(pi)
        assert euler_power_coefficient(1.0, 0.5) == pytest.approx(
            2.0 / math.sqrt(math.pi), rel=1e-12
        )
        assert euler_power_coefficient(1.0, 0.5) == pytest.approx(
            1.128379167095513, rel=1e-12
        )

    def test_classical_power_rule_property(self):
        for beta in np.linspace(0.05, 30.0, 600):
            assert euler_power_coefficient(float(beta), 1.0) == pytest.approx(
                float(beta), rel=1e-12
            )

    def test_domain_error_when_result_order_invalid(self):
        with pytest.raises(DomainError):
            euler_power_coefficient(-0.5, 0.9)
        with pytest.raises(DomainError):
            euler_power_coefficient(-2.0, 0.5)
