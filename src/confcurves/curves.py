"""Pointwise curve data: the position Taylor coefficients ``(..., n,
order+1)`` of a curve at one parameter value per row, coefficient ``k``
being the ``k``-th derivative over ``k!``."""

from __future__ import annotations

import math

import numpy as np

from .jets import _dot

__all__ = ["DegenerateVelocityError", "VELOCITY_FLOOR", "coefficients", "derivatives"]

# Every formula in the package divides by powers of the speed; below this
# squared-speed threshold the quantities are numerically meaningless.
VELOCITY_FLOOR = 1e-12


class DegenerateVelocityError(ValueError):
    """The squared speed fell at or below the usable floor."""


def _speed_sq(coeffs, order, what):
    """Squared speed of every row of a position coefficient stack, after
    the entry checks of every stack: a component axis, finite entries,
    derivatives through ``order`` (for ``what``), and no row at or below
    the velocity floor."""
    if coeffs.ndim < 2:
        raise ValueError(f"{what} needs coefficients of shape (..., n, order+1), got {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"{what} needs finite coefficients")
    if coeffs.shape[-1] <= order:
        raise ValueError(
            f"{what} needs derivatives through order {order}, jet stores {coeffs.shape[-1] - 1}"
        )
    u2 = _dot(coeffs[..., 1], coeffs[..., 1])
    if np.any(u2 <= VELOCITY_FLOOR):
        raise DegenerateVelocityError(f"squared speed {np.min(u2):.3e} is below the floor")
    return u2


def derivatives(coeffs, count):
    """The first ``count`` derivative vectors ``[X, X', X'', ...]`` of a
    coefficient stack, each ``(..., n)``: coefficient ``k`` times ``k!``."""
    return [coeffs[..., k] * math.factorial(k) for k in range(count)]


def coefficients(derivs):
    """The coefficient stack ``(..., n, count)`` of the derivative vectors
    ``[X, X', X'', ...]``, each ``(..., n)``: the inverse of
    :func:`derivatives`, derivative ``k`` divided by ``k!``."""
    derivs = np.stack(derivs, axis=-1)
    return derivs / [math.factorial(k) for k in range(derivs.shape[-1])]
