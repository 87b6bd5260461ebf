"""Pointwise curve data: position and derivatives packaged as a jet."""

from __future__ import annotations

import math

import numpy as np

from .jets import JetScalar

__all__ = ["DegenerateVelocityError", "CurveJet", "VELOCITY_FLOOR"]

# Every formula in the package divides by powers of the speed; below this
# squared-speed threshold the quantities are numerically meaningless.
VELOCITY_FLOOR = 1e-12


class DegenerateVelocityError(ValueError):
    """The squared speed fell at or below the usable floor."""


def _check_speed(ts, u2):
    """Raise :class:`DegenerateVelocityError` for the first of the times
    ``ts`` whose squared speed in ``u2`` is at or below the floor."""
    for t, v in zip(ts, u2):
        if v <= VELOCITY_FLOOR:
            raise DegenerateVelocityError(f"squared speed {v:.3e} at t={float(t)} is below the floor")


class CurveJet:
    """Position and derivatives of a parametrized curve at one parameter value.

    ``derivative(k)`` returns the k-th derivative vector in geometric units;
    ``position`` exposes the underlying jet for exact differentiation of
    derived scalar and tractor data.
    """

    __slots__ = ("t", "position")

    def __init__(self, t, position):
        if not isinstance(position, JetScalar) or position.coeffs.ndim != 2:
            raise TypeError("CurveJet position must be a vector jet")
        if position.order < 1:
            raise ValueError("a curve jet needs at least the velocity level")
        self.t = float(t)
        self.position = position
        _check_speed([self.t], [self.u2])

    @classmethod
    def from_derivatives(cls, t, derivs):
        """Build from raw derivative vectors ``[X, X', X'', ...]``."""
        derivs = [np.asarray(d, dtype=float) for d in derivs]
        if len(derivs) < 2:
            raise ValueError("need at least position and velocity")
        dim = derivs[0].size
        if any(d.size != dim for d in derivs):
            raise ValueError("derivative vectors must share one dimension")
        rows = np.array([d / math.factorial(k) for k, d in enumerate(derivs)])
        return cls(t, JetScalar(rows.T))

    @property
    def dim(self):
        return self.position.dim

    @property
    def order(self):
        return self.position.order

    def derivative(self, k):
        return self.position.derivative(k)

    def require_order(self, order, what="operation"):
        if self.order < order:
            raise ValueError(
                f"{what} needs derivatives through order {order}, jet stores {self.order}"
            )

    @property
    def X(self):
        return self.position.value

    @property
    def U(self):
        return self.position.derivative(1)

    @property
    def A(self):
        return self.position.derivative(2)

    @property
    def Ap(self):
        return self.position.derivative(3)

    @property
    def App(self):
        return self.position.derivative(4)

    @property
    def u2(self):
        u = self.position.derivative(1)
        return float(u @ u)

    @property
    def u(self):
        return math.sqrt(self.u2)

    def velocity_jet(self):
        return self.position.differentiate()

    def __repr__(self):
        return f"CurveJet(t={self.t}, dim={self.dim}, order={self.order})"
