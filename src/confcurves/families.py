"""Closed-form distinguished curves used as ground truth in every
conservation test: projectively parametrized circles, logarithmic spirals,
and special-conformal images of spirals.

All position coefficients are produced by the Taylor kernels of
:mod:`confcurves.jets` on the defining formulas, so derivatives of any
order (up to the jet limit) carry no discretization error.  A family's
``jet`` evaluates them at one time, or at an array of times in one pass
with each product's operands in the kernels' order; the spiral's closed
forms and the transform's denominator take times the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import VELOCITY_FLOOR, DegenerateVelocityError
from .jets import _constant, _dot, _exp, _libm, _recip, _sincos, _stack_product, _sum_rows
from .symmetries import EQuantities

__all__ = [
    "FamilyError",
    "Circle",
    "LogSpiral",
    "TransformedSpiral",
]

DEFAULT_ORDER = 6
_VALID = 1e-12


class FamilyError(ValueError):
    """Invalid family parameters or an evaluation outside the usable window."""


def _times(a, value):
    """Coefficients ``a`` times a number or array, taken as a constant jet
    and put second in every product."""
    return _stack_product(a, _constant(value, a.shape[-1] - 1))


def conformal_image(coeffs, b):
    """The special conformal image ``(x - |x|^2 b) / (1 - 2 b.x + |b|^2 |x|^2)`` of a coefficient stack."""
    n2 = _sum_rows(_stack_product(coeffs, coeffs))
    bx = _sum_rows(_times(coeffs, b))
    den = _constant(1.0, coeffs.shape[-1] - 1) - _times(bx, 2.0) + _times(n2, float(b @ b))
    return _stack_product(coeffs - _times(n2[..., None, :], b), _recip(den)[..., None, :])


def _jet(self, times, order=DEFAULT_ORDER):
    """The position coefficients ``(n, order+1)`` at one time, or ``(times,
    n, order+1)`` at a list or 1-d array of times, every row's squared
    speed checked against the floor; the first slow time is named."""
    flat = np.atleast_1d(np.asarray(times, dtype=float))
    coeffs = self._coefficients(flat, order)
    for t, v in zip(flat.tolist(), _dot(coeffs[..., 1], coeffs[..., 1])):
        if v <= VELOCITY_FLOOR:
            raise DegenerateVelocityError(f"squared speed {v:.3e} at t={t} is below the floor")
    return coeffs if np.ndim(times) else coeffs[0]


@dataclass(frozen=True, eq=False)
class Circle:
    """Projectively parametrized circle through ``x0`` with unit initial
    velocity and an initial curvature vector orthogonal to it.

    Parameters within 1e-12 of valid are normalized and projected exactly;
    anything farther off is rejected.
    """

    x0: np.ndarray
    u0: np.ndarray
    a0: np.ndarray

    def __post_init__(self):
        x0, u0, a0 = (np.asarray(v, dtype=float) for v in (self.x0, self.u0, self.a0))
        if not x0.size == u0.size == a0.size:
            raise FamilyError("circle parameters must share one dimension")
        norm = float(np.linalg.norm(u0))
        if abs(norm - 1.0) > _VALID:
            raise FamilyError(f"|u0| = {norm} must equal 1")
        u0 = u0 / norm
        ua = float(u0 @ a0)
        if abs(ua) > _VALID * (1.0 + float(np.linalg.norm(a0))):
            raise FamilyError("a0 must be orthogonal to u0")
        a0 = a0 - ua * u0
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "a0", a0)

    @property
    def dim(self):
        return self.x0.size

    jet = _jet

    def _coefficients(self, times, order):
        """Position coefficients ``(times, n, order+1)``."""
        tau = _constant(times, order)  # the variable jets: t, then 1
        tau[:, 1] = 1.0
        tau2 = _stack_product(tau, tau)
        den = _recip(_times(tau2, float(self.a0 @ self.a0)) + _constant(1.0, order))
        num = _times(tau[:, None], self.u0) + _times(tau2[:, None], self.a0)
        return _stack_product(num, den[:, None]) + _constant(self.x0, order)


@dataclass(frozen=True, eq=False)
class LogSpiral:
    """Logarithmic spiral with pitch ``c`` in the plane spanned by the
    orthogonal equal-length vectors ``p0, q0``, offset by ``r0``."""

    c: float
    p0: np.ndarray
    q0: np.ndarray
    r0: np.ndarray

    def __post_init__(self):
        p0, q0, r0 = (np.asarray(v, dtype=float) for v in (self.p0, self.q0, self.r0))
        if not p0.size == q0.size == r0.size:
            raise FamilyError("spiral parameters must share one dimension")
        scale = float(np.linalg.norm(p0))
        if scale <= 0.0:
            raise FamilyError("p0 must be nonzero")
        if abs(float(p0 @ q0)) > _VALID * scale**2:
            raise FamilyError("p0 and q0 must be orthogonal")
        if abs(float(np.linalg.norm(q0)) - scale) > _VALID * scale:
            raise FamilyError("p0 and q0 must have equal length")
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "r0", r0)

    @property
    def dim(self):
        return self.p0.size

    def position(self, t):
        """The point ``(n,)`` at one time, or ``(times, n)`` at an array of times."""
        e = _libm(math.exp, t)[..., None]
        cos, sin = (_libm(f, self.c * t)[..., None] for f in (math.cos, math.sin))
        return e * cos * self.p0 + e * sin * self.q0 + self.r0

    jet = _jet

    def _coefficients(self, times, order):
        """Position coefficients ``(times, n, order+1)``."""
        tau = _constant(times, order)
        tau[:, 1] = 1.0
        growth = _exp(tau)
        sin, cos = _sincos(_times(tau, self.c))
        ec, es = (_stack_product(growth, f)[:, None] for f in (cos, sin))
        return _times(ec, self.p0) + _times(es, self.q0) + _constant(self.r0, order)

    def closed_derivatives(self, t):
        """First three derivative vectors in closed form, independent of the
        jet route: ``(n,)`` each at one time, ``(times, n)`` at an array.

        Note the velocity factors of ``c``: the derivative of
        ``e^t cos(ct)`` is ``e^t (cos(ct) - c sin(ct))``, which is what the
        stated squared speed ``e^{2t}(c^2+1)|p0|^2`` requires.
        """
        c = self.c
        e = _libm(math.exp, t)[..., None]
        cos, sin = (_libm(f, c * t)[..., None] for f in (math.cos, math.sin))
        U = e * (cos - c * sin) * self.p0 + e * (sin + c * cos) * self.q0
        A = (
            e * ((1 - c**2) * cos - 2 * c * sin) * self.p0
            + e * ((1 - c**2) * sin + 2 * c * cos) * self.q0
        )
        Ap = (
            e * ((c**3 - 3 * c) * sin + (1 - 3 * c**2) * cos) * self.p0
            - e * ((c**3 - 3 * c) * cos + (3 * c**2 - 1) * sin) * self.q0
        )
        return U, A, Ap

    def acceleration_tractor(self, t) -> np.ndarray:
        """The third canonical tractor along the spiral in closed form, as
        an ``(n+2)``-array at one time or ``(times, n+2)`` at an array of
        times; its metric square equals ``c^2 - 1`` for every ``t``."""
        c = self.c
        scale = float(np.linalg.norm(self.p0))
        root = math.sqrt(c**2 + 1.0)
        w0 = _libm(math.exp, -t) / (scale * root)
        cos, sin = (_libm(f, c * t)[..., None] for f in (math.cos, math.sin))
        wi = -root / scale * (cos * self.p0 + sin * self.q0)
        wN = -_libm(math.exp, t) * scale * root
        return np.concatenate([w0[..., None], wi, wN[..., None]], axis=-1)


@dataclass(frozen=True, eq=False)
class TransformedSpiral:
    """Special-conformal image of a logarithmic spiral with inversion
    center parameter ``b``; still a solution of the fourth-order flow, with
    a generically nonzero constant flow vector."""

    base: LogSpiral
    b: np.ndarray
    window: tuple = (-1.0, 1.0)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.size != self.base.dim:
            raise FamilyError("b must match the spiral dimension")
        object.__setattr__(self, "b", b)
        lo, hi = self.window
        scan = np.linspace(lo, hi, 33)
        # the denominator |b|^2 |x - b/|b|^2|^2 has a double zero, which a
        # grid can step over; the base radius e^t |p0| is monotone, so it
        # meets |b/|b|^2 - r0| = |b - |b|^2 r0| / |b|^2 once, at t*; Python
        # floats, so an extreme b makes t* inf or nan, not an error
        beta = math.hypot(*b.tolist())
        gap = math.hypot(*(v - beta * beta * r for v, r in zip(b.tolist(), self.base.r0.tolist())))
        if gap:
            t_star = math.log(gap) - 2.0 * math.log(beta) - math.log(math.hypot(*self.base.p0.tolist()))
            if lo <= t_star <= hi:
                scan = np.append(scan, t_star)
        near = np.flatnonzero(np.abs(self._denominator(scan)) < 1e-6)
        if near.size:
            raise FamilyError(f"transform denominator vanishes near t = {scan[near[0]]:.3f}")

    @property
    def dim(self):
        return self.base.dim

    def _denominator(self, t):
        """The transform denominator at one time, or at an array of times."""
        xh = self.base.position(t)
        return 1.0 - 2.0 * _dot(xh, self.b) + float(self.b @ self.b) * _dot(xh, xh)

    jet = _jet

    def _coefficients(self, times, order):
        """Position coefficients ``(times, n, order+1)``; the first time at
        which the transform denominator vanishes is named, and the base
        spiral's ``jet`` names the first at which its velocity does."""
        vanish = np.flatnonzero(np.abs(self._denominator(times)) < 1e-9)
        if vanish.size:
            raise FamilyError(f"transform denominator vanishes at t = {times[vanish[0]]}")
        return conformal_image(self.base.jet(times, order), self.b)

    def conserved_report(self) -> EQuantities:
        """Closed-form basis quantities along the image curve, for
        comparison against the evaluations from its jets: the flow vector
        gives the translation part, and the special conformal part does not
        depend on the transform parameter."""
        s = self.base
        b = self.b
        c = s.c
        p2 = float(s.p0 @ s.p0)
        b2 = float(b @ b)
        qb = float(s.q0 @ b)
        pb = float(s.p0 @ b)
        qr = float(s.q0 @ s.r0)
        pr = float(s.p0 @ s.r0)
        rb = float(s.r0 @ b)
        w = b2 * s.r0 - b
        C = (2.0 / p2) * (
            c * float(s.q0 @ w) * s.p0
            - c * float(s.p0 @ w) * s.q0
            - b2 * p2 * s.r0
            + (2 * c * pr * qb - 2 * c * qr * pb + (2 * rb - 1.0) * p2) * b
        )
        # an antisymmetric generator R has the rotation quantity <R, M>,
        # which is <R, M - M^T> / 2
        M = (
            c / p2 * np.outer(s.p0, s.q0)
            - 2.0 * np.outer(b, s.r0)
            + 2.0 * c / p2 * (pr * np.outer(s.q0, b) - qr * np.outer(s.p0, b))
        )
        E_D = -(1.0 - 2 * rb + (2 * c / p2) * (pb * qr - qb * pr))
        Y = -c * qr / p2 * s.p0 + c * pr / p2 * s.q0 + s.r0
        return EQuantities(-C, M - M.T, E_D, 2.0 * Y)
