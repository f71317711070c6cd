"""Shared numeric primitives: the package's two numerical error types, the
gamma function, validated fractional orders, and the tolerance of the
velocity integral."""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Raised when an argument lies outside the mathematical domain of an operation."""


class QuadratureError(RuntimeError):
    """A quadrature rule failed to produce a finite, converged result."""


def gamma(z: float) -> float:
    """Gamma function for positive real arguments: math.gamma, which is exact
    at small integers (so alpha = 1 is exactly classical), behind the
    package's domain checks."""
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"gamma requires a finite argument > 0, got {z!r}")
    try:
        return math.gamma(z)
    except OverflowError:
        raise DomainError(f"gamma({z!r}) overflows a double") from None


@dataclass(frozen=True)
class FractionalOrder:
    """Order alpha of a fractional operator, restricted to 0 < alpha <= 1.

    alpha is stored as the exact binary double supplied by the caller, so the
    classical limit can be tested with ``alpha == 1.0`` rather than within an
    epsilon.
    """

    alpha: float

    def __post_init__(self) -> None:
        a = self.alpha
        if not (isinstance(a, (int, float)) and math.isfinite(a)) or not 0.0 < a <= 1.0:
            raise DomainError(f"fractional order must satisfy 0 < alpha <= 1, got {a!r}")
        object.__setattr__(self, "alpha", float(a))

    @property
    def is_classical(self) -> bool:
        return self.alpha == 1.0


def as_order(order: FractionalOrder | float) -> FractionalOrder:
    """Coerce a bare float into a validated FractionalOrder."""
    if isinstance(order, FractionalOrder):
        return order
    return FractionalOrder(order)


@dataclass(frozen=True)
class Tolerance:
    """Absolute tolerance of the velocity integral: finite and > 0."""

    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be finite and > 0, got {self.abs_tol!r}")


def euler_power_coefficient(beta: float, order: FractionalOrder | float) -> float:
    """Coefficient gamma(beta+1)/gamma(beta+1-alpha) of the power rule for
    fractional differentiation of x**beta.

    Requires beta + 1 - alpha > 0 so both gamma arguments are positive.
    """
    alpha = as_order(order).alpha
    if not math.isfinite(beta) or beta <= -1.0:
        raise DomainError(f"power-rule exponent must be > -1, got {beta!r}")
    if beta + 1.0 - alpha <= 0.0:
        raise DomainError(
            f"power rule undefined for beta={beta!r}, alpha={alpha!r}: "
            "beta + 1 - alpha must be positive"
        )
    return gamma(beta + 1.0) / gamma(beta + 1.0 - alpha)
