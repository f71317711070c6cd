"""Coordinate scaling between physical (x, t) and scaled (X, T) frames:
X = (p x)^alpha / gamma(1 + alpha), T = (q t)^alpha / gamma(1 + alpha).

Under this substitution an alpha-order derivative in x acts as p^alpha times
the ordinary derivative in X (and likewise in time), which is what turns the
fractional wave equations into classical ones.  The domain is the closed first
quadrant; negative and non-finite coordinates are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import DomainError, FractionalOrder, as_order, gamma


@dataclass(frozen=True)
class TransformSpec:
    """Order plus the positive space/time scale factors p and q (default 1)."""

    order: FractionalOrder
    p: float = 1.0
    q: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", as_order(self.order))
        if not 0.0 < self.p < np.inf:
            raise DomainError(f"space scale factor p must be finite and > 0, got {self.p!r}")
        if not 0.0 < self.q < np.inf:
            raise DomainError(f"time scale factor q must be finite and > 0, got {self.q!r}")


@dataclass(frozen=True)
class FractalCoords:
    X: float
    T: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.X < np.inf and 0.0 <= self.T < np.inf):
            raise DomainError(f"scaled coordinates are finite and non-negative, "
                              f"got ({self.X!r}, {self.T!r})")


def fractal_scale(v, alpha: float):
    """The scaling map v^alpha / gamma(1 + alpha), elementwise on scalars or
    arrays.  Every scaled coordinate in the package is computed here."""
    return np.power(v, alpha) / gamma(1.0 + alpha)


def to_fractal(x: float, t: float, spec: TransformSpec) -> FractalCoords:
    """Map physical (x, t) with finite x, t >= 0 into the scaled frame."""
    if not (0.0 <= x < np.inf and 0.0 <= t < np.inf):
        raise DomainError(f"transform domain is finite x >= 0, t >= 0; got ({x!r}, {t!r})")
    alpha = spec.order.alpha
    return FractalCoords(
        float(fractal_scale(spec.p * x, alpha)), float(fractal_scale(spec.q * t, alpha))
    )


def from_fractal(coords: FractalCoords, spec: TransformSpec) -> tuple[float, float]:
    """Inverse map; exact round-trip partner of to_fractal up to rounding.
    Raises DomainError when x or t is beyond the range of a double."""
    alpha = spec.order.alpha
    g = gamma(1.0 + alpha)
    try:
        x = (g * coords.X) ** (1.0 / alpha) / spec.p
        t = (g * coords.T) ** (1.0 / alpha) / spec.q
    except OverflowError:  # from **; a division overflows to inf
        x = t = np.inf
    if np.isinf(x) or np.isinf(t):
        raise DomainError(f"{coords} maps beyond the range of a double at alpha = {alpha!r}")
    return x, t


def operator_scale(spec: TransformSpec, axis: Literal["space", "time"]) -> float:
    """Factor by which the alpha-order derivative scales the ordinary one in
    the scaled frame: p^alpha for space, q^alpha for time."""
    alpha = spec.order.alpha
    if axis == "space":
        return spec.p ** alpha
    if axis == "time":
        return spec.q ** alpha
    raise DomainError(f"axis must be 'space' or 'time', got {axis!r}")
