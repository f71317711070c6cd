"""Numerical fractional operators with lower terminal 0: the Riemann-Liouville
integral and derivative, the Caputo derivative, the Jumarie (shifted R-L)
derivative, the integral against (dx)^alpha, and a gridded Jumarie operator.

Weakly singular convolutions are evaluated by product integration against the
piecewise-linear interpolant of the integrand (the L1-style scheme): the kernel
moments are computed analytically per panel, so the rule is exact whenever the
integrand is piecewise linear on the panel grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .core import DomainError, FractionalOrder, Tolerance, as_order, gamma
from .expr import Expression, evaluate

IntegrandLike = Union[Expression, Callable]


class QuadratureError(RuntimeError):
    """A quadrature rule failed to produce a finite, converged result."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution knobs: panel count for the singular product rule, tolerance
    budget for the smooth adaptive integrals."""

    n_panels: int = 1024
    adaptive_tol: Tolerance = field(default_factory=Tolerance)

    def __post_init__(self) -> None:
        if self.n_panels < 8:
            raise DomainError(f"n_panels must be >= 8, got {self.n_panels}")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(eq=False)
class Samples1D:
    """Uniform samples of a function on [x0, x0 + n*dx]; values has length n+1."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 3:
            raise DomainError("Samples1D needs at least 3 values (n >= 2)")
        if not (self.dx > 0.0 and math.isfinite(self.dx)):
            raise DomainError(f"dx must be positive and finite, got {self.dx!r}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("Samples1D values must all be finite")

    @property
    def n(self) -> int:
        return self.values.size - 1

    @property
    def grid(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)


def _as_callable(f: IntegrandLike) -> Callable:
    if callable(f):
        return f
    return lambda x: evaluate(f, x)


# --- product-integration rule for int_0^u (u - xi)^(mu-1) f(xi) dxi ---------


def _kernel_node_weights(mu: float, upper: float, n: int) -> np.ndarray:
    """Node weights of the product rule on the uniform grid xi_j = j*upper/n.

    Exact for piecewise-linear f; valid for 0 < mu <= 1 (weakly singular or
    regular kernel).
    """
    h = upper / n
    k = np.arange(0, n + 1, dtype=float)
    s_mu = (k * h) ** mu
    s_mu1 = (k * h) ** (mu + 1.0)
    a = (s_mu[1:] - s_mu[:-1]) / mu                    # kernel mass of panel k
    b = (s_mu1[1:] - s_mu1[:-1]) / (mu + 1.0)
    r = b / h - np.arange(0, n, dtype=float) * a       # first-moment split
    w = np.zeros(n + 1)
    w[:-1] += r[::-1]
    w[1:] += (a - r)[::-1]
    return w


def _float_if_scalar(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def _singular_integral(fn: Callable, mu: float, upper: float, n: int):
    # fn maps the nodes to samples along its last axis; the result has the
    # shape of the remaining axes (a float for 1-D samples)
    if upper == 0.0:
        # an empty interval: zeros shaped like fn's rows, learnt at one node
        return _float_if_scalar(np.zeros(np.shape(fn(np.zeros(1)))[:-1]))
    if upper / n < np.finfo(float).tiny:
        # panels this narrow are subnormal or 0 wide (0/0 weights); on an
        # interval this short one panel resolves any continuous integrand
        n = 1
    nodes = np.linspace(0.0, upper, n + 1)
    fx = np.asarray(fn(nodes), dtype=float)
    out = fx @ _kernel_node_weights(mu, upper, n)
    if not np.all(np.isfinite(out)):
        raise QuadratureError(f"singular product rule returned {out!r}")
    return _float_if_scalar(out)


def _difference_step(x):
    # step policy for every outer/inner numerical derivative in this module;
    # elementwise on arrays
    return np.maximum(1e-5 * np.abs(x), 1e-8)


def _fn_derivative_on(fn: Callable, nodes: np.ndarray) -> np.ndarray:
    """Pointwise numerical derivative of fn at non-negative nodes, forward
    differencing where a central stencil would dip below 0."""
    h = _difference_step(nodes)
    forward = nodes - h < 0.0
    left = np.where(forward, nodes, nodes - h)
    right = nodes + h
    f_right = np.asarray(fn(right), dtype=float)
    f_left = np.asarray(fn(left), dtype=float)
    return (f_right - f_left) / np.where(forward, h, 2.0 * h)


# --- the operators ----------------------------------------------------------


def rl_integral(
    f: IntegrandLike,
    order: FractionalOrder | float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Riemann-Liouville integral of order alpha at x >= 0:
    (1/gamma(alpha)) * int_0^x (x - xi)^(alpha-1) f(xi) dxi."""
    alpha = as_order(order).alpha
    if x < 0.0:
        raise DomainError(f"lower terminal is 0; x must be >= 0, got {x!r}")
    fn = _as_callable(f)
    return _singular_integral(fn, alpha, x, cfg.n_panels) / gamma(alpha)


def _rl_derivative_fn(fn: Callable, alpha: float, x: float, cfg: QuadratureConfig):
    if x < 0.0:
        raise DomainError(f"lower terminal is 0; x must be >= 0, got {x!r}")
    if alpha == 1.0:
        w = fn
    else:
        inv_g = 1.0 / gamma(1.0 - alpha)
        # the (1 - alpha) R-L integral at each upper limit, along the last axis
        w = lambda ys: np.stack(
            [inv_g * _singular_integral(fn, 1.0 - alpha, y, cfg.n_panels) for y in ys], axis=-1
        )
    # outer derivative of w, forward where x - h would leave the domain (this
    # defines values at the left terminal as limits from the right)
    return _float_if_scalar(_fn_derivative_on(w, np.array([x]))[..., 0])


def rl_derivative(
    f: IntegrandLike,
    order: FractionalOrder | float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Riemann-Liouville derivative of order alpha in (0, 1]:
    d/dx of the (1-alpha) R-L integral, the outer derivative by differencing.

    Maps constants to K * x^(-alpha) / gamma(1-alpha), not to zero.
    """
    alpha = as_order(order).alpha
    return _rl_derivative_fn(_as_callable(f), alpha, x, cfg)


def jumarie_derivative(
    f: IntegrandLike,
    order: FractionalOrder | float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float | np.ndarray:
    """Jumarie (shifted Riemann-Liouville) derivative: the R-L derivative of
    f - f(0).  Annihilates constants; for smooth f it agrees with Caputo.

    A callable f may return samples along its last axis, one row per series;
    the result then holds one derivative per row (a float for 1-D samples).
    """
    alpha = as_order(order).alpha
    fn = _as_callable(f)
    f0 = np.asarray(fn(np.zeros(1)), dtype=float)
    return _rl_derivative_fn(lambda xs: fn(xs) - f0, alpha, x, cfg)


def caputo_derivative(
    f: IntegrandLike,
    order: FractionalOrder | float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float | np.ndarray:
    """Caputo derivative: the (1-alpha) R-L integral of f', with f' obtained by
    differencing f (this package's expressions carry no symbolic derivative).

    Rows of samples are handled as in jumarie_derivative, at every order."""
    alpha = as_order(order).alpha
    if x < 0.0:
        raise DomainError(f"lower terminal is 0; x must be >= 0, got {x!r}")
    fn = _as_callable(f)
    fprime = lambda nodes: _fn_derivative_on(fn, np.asarray(nodes, dtype=float))
    if alpha == 1.0:
        return _float_if_scalar(fprime(np.array([x]))[..., 0])
    return _singular_integral(fprime, 1.0 - alpha, x, cfg.n_panels) / gamma(1.0 - alpha)


def integral_dx_alpha(
    f: IntegrandLike,
    order: FractionalOrder | float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Integral of f against (dxi)^alpha over [0, x]:
    gamma(alpha + 1) times the alpha-order R-L integral.  With f = 1 this
    evaluates to x^alpha."""
    alpha = as_order(order).alpha
    return gamma(alpha + 1.0) * rl_integral(f, order, x, cfg)


# --- gridded operator --------------------------------------------------------


def grid_operator_matrix(n: int, dx: float, order: FractionalOrder | float) -> np.ndarray:
    """Dense matrix M with (M @ u)[i] the gridded Jumarie derivative of the
    samples u at node i: product integration of u - u[0] followed by central
    differencing (np.gradient), one-sided at both endpoints.  At alpha = 1
    this reduces to plain differencing of u."""
    alpha = as_order(order).alpha
    if alpha == 1.0:
        return np.gradient(np.eye(n + 1), dx, axis=0)
    # row i integrates over [0, i*dx]; its weight on node j >= 1 depends only
    # on the lag i - j, so one n-panel weight vector, reversed, fills the
    # lower triangle (a Toeplitz matrix)
    reversed_w = _kernel_node_weights(1.0 - alpha, n * dx, n)[::-1]
    lag = np.subtract.outer(np.arange(n + 1), np.arange(n + 1))
    w = np.tril(reversed_w[np.abs(lag)])
    # acting on u rather than u - u[0]: column 0 carries minus the row sum
    w[:, 0] = -w[:, 1:].sum(axis=1)
    return np.gradient(w, dx, axis=0) / gamma(1.0 - alpha)


def jumarie_derivative_grid(
    samples: Samples1D, order: FractionalOrder | float
) -> Samples1D:
    """Gridded Jumarie derivative of uniformly sampled values anchored at 0.

    Interior nodes use central differencing of the product-integrated kernel
    convolution; the endpoints are filled by one-sided differences and carry
    correspondingly lower accuracy.
    """
    if samples.x0 != 0.0:
        raise DomainError("gridded Jumarie derivative requires samples anchored at x0 = 0")
    if samples.n < 4:
        raise DomainError(f"grid too small: need n >= 4, got n = {samples.n}")
    m = grid_operator_matrix(samples.n, samples.dx, order)
    return Samples1D(samples.x0, samples.dx, m @ samples.values)
