"""Numerical fractional operators with lower terminal 0.

rl_integral is the one product rule: the Riemann-Liouville integral against
the piecewise-linear interpolant of the integrand (the L1-style scheme), its
kernel moments analytic per panel, so exact for piecewise-linear integrands.
Each other pointwise operator is built from it as its definition reads: the
R-L derivative d/dx I^(1-alpha) f, the Caputo derivative I^(1-alpha) f', the
Jumarie derivative (R-L of f - f(0)) and the integral against (dx)^alpha,
gamma(1+alpha) I^alpha f.  The gridded Jumarie operator shares its weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import DomainError, FractionalOrder, QuadratureError, as_order, gamma
from .expr import Expression, evaluate

__all__ = [
    "QuadratureConfig", "Samples1D", "caputo_derivative", "integral_dx_alpha",
    "jumarie_derivative", "jumarie_derivative_grid", "rl_derivative", "rl_integral",
]

IntegrandLike = Union[Expression, Callable]


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution of the singular product rule: its panel count."""

    n_panels: int = 1024

    def __post_init__(self) -> None:
        if self.n_panels < 8:
            raise DomainError(f"n_panels must be >= 8, got {self.n_panels}")


DEFAULT_CONFIG = QuadratureConfig()


class Samples1D:
    """Uniform samples of a function on [x0, x0 + n*dx]; values has length n+1."""

    def __init__(self, x0: float, dx: float, values) -> None:
        self.x0, self.dx = x0, dx
        self.values = np.asarray(values, dtype=float)
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


def _operand(f: IntegrandLike, order: FractionalOrder | float, x: float) -> tuple[Callable, float]:
    """The entry step of every pointwise operator: f as a callable and the
    order's alpha, once x is known to be finite and right of the terminal 0."""
    alpha = as_order(order).alpha
    if not 0.0 <= x < math.inf:
        raise DomainError(f"lower terminal is 0; x must be >= 0 and finite, got {x!r}")
    return (f if callable(f) else lambda xs: evaluate(f, xs)), alpha


# --- product-integration rule for int_0^u (u - xi)^(mu-1) f(xi) dxi ---------


def _kernel_node_weights(mu: float, upper: float, n: int) -> np.ndarray:
    """Node weights of the product rule on the uniform grid xi_j = j*upper/n.

    Exact for piecewise-linear f; valid for 0 < mu <= 1 (weakly singular or
    regular kernel).  The moments are taken on the unit grid and the weights
    scaled once by h^mu, formed as upper^mu n^-mu: h = upper/n underflows at
    a subnormal upper, and (k h)^(mu+1) overflows at a huge one.
    """
    k = np.arange(0, n + 1, dtype=float)
    a = np.diff(k**mu) / mu                            # kernel mass of panel k
    b = np.diff(k ** (mu + 1.0)) / (mu + 1.0)
    r = b - k[:-1] * a                                 # first-moment split
    w = np.zeros(n + 1)
    w[:-1] += r[::-1]
    w[1:] += (a - r)[::-1]
    return w * (upper**mu * n**-mu)


def _float_if_scalar(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def _difference_step(x, alpha: float = 1.0):
    # step policy for every outer/inner numerical derivative in this module;
    # elementwise on arrays.  At x = 0 the outer derivative of an order
    # alpha operator differences something that grows like h^(1-alpha): its
    # bias is O(h^alpha) and rounding is amplified by h^-alpha, which balance
    # at h = eps^(1/(2 alpha)) (sqrt(eps) at alpha = 1).  The floor at tiny
    # only keeps that window a positive normal double
    h = np.maximum(1e-5 * np.abs(x), 1e-8)
    window = max(np.finfo(float).eps ** (0.5 / alpha), np.finfo(float).tiny)
    return np.where(x == 0.0, window, h)


def _fn_derivative_on(fn: Callable, nodes: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Pointwise numerical derivative of fn at non-negative nodes, forward
    differencing where a central stencil would dip below 0; alpha is the
    order of the operator whose outer derivative this is."""
    h = _difference_step(nodes, alpha)
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
) -> float | np.ndarray:
    """Riemann-Liouville integral of order alpha at x >= 0:
    (1/gamma(alpha)) * int_0^x (x - xi)^(alpha-1) f(xi) dxi.

    A callable f may return samples along its last axis, one row per series;
    the result then holds one integral per row (a float for 1-D samples).
    """
    fn, alpha = _operand(f, order, x)
    if x == 0.0:
        # an empty interval: zeros shaped like fn's rows, learnt at one node
        return _float_if_scalar(np.zeros(np.shape(fn(np.zeros(1)))[:-1]))
    # the rule on [0, 1], scaled by x^alpha: a subnormal x keeps its digits
    # even where the weights on [0, x] would underflow (alpha = 1)
    fx = np.asarray(fn(np.linspace(0.0, x, cfg.n_panels + 1)), dtype=float)
    out = fx @ _kernel_node_weights(alpha, 1.0, cfg.n_panels) * x**alpha
    if not np.all(np.isfinite(out)):
        bad = np.count_nonzero(~np.isfinite(out))
        raise QuadratureError(
            f"singular product rule: {bad} of {np.size(out)} integrals are not finite")
    return _float_if_scalar(out) / gamma(alpha)


def rl_derivative(
    f: IntegrandLike,
    order: FractionalOrder | float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float | np.ndarray:
    """Riemann-Liouville derivative of order alpha in (0, 1]:
    d/dx of the (1-alpha) R-L integral, the outer derivative by differencing.

    Maps constants to K * x^(-alpha) / gamma(1-alpha), not to zero.

    Rows of samples are handled as in rl_integral, one derivative per row.
    """
    fn, alpha = _operand(f, order, x)
    if alpha == 1.0:
        w = fn
    else:
        # the (1 - alpha) R-L integral at each upper limit, along the last axis
        w = lambda ys: np.stack([rl_integral(fn, 1.0 - alpha, y, cfg) for y in ys], axis=-1)
    # outer derivative of w, forward where x - h would leave the domain (this
    # defines values at the left terminal as limits from the right)
    return _float_if_scalar(_fn_derivative_on(w, np.array([x]), alpha)[..., 0])


def jumarie_derivative(
    f: IntegrandLike,
    order: FractionalOrder | float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float | np.ndarray:
    """Jumarie (shifted Riemann-Liouville) derivative: the R-L derivative of
    f - f(0).  Annihilates constants; for smooth f it agrees with Caputo.
    Rows of samples are handled as in rl_derivative.
    """
    fn, alpha = _operand(f, order, x)
    f0 = np.asarray(fn(np.zeros(1)), dtype=float)
    return rl_derivative(lambda xs: fn(xs) - f0, alpha, x, cfg)


def caputo_derivative(
    f: IntegrandLike,
    order: FractionalOrder | float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float | np.ndarray:
    """Caputo derivative: the (1-alpha) R-L integral of f', with f' obtained by
    differencing f (this package's expressions carry no symbolic derivative).

    Rows of samples are handled as in rl_derivative, at every order."""
    fn, alpha = _operand(f, order, x)
    if alpha == 1.0:
        return rl_derivative(fn, 1.0, x, cfg)
    fprime = lambda nodes: _fn_derivative_on(fn, np.asarray(nodes, dtype=float))
    return rl_integral(fprime, 1.0 - alpha, x, cfg)


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
    # row i integrates over [0, i*dx]; its weight on node j <= i is the n-panel
    # weight of node n - i + j, and 0 above: the window starting at n - i of
    # the weights padded with n zeros (a lower-triangular Toeplitz matrix)
    padded = np.concatenate([_kernel_node_weights(1.0 - alpha, n * dx, n), np.zeros(n)])
    w = np.lib.stride_tricks.sliding_window_view(padded, n + 1)[::-1].copy()
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
