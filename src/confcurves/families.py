"""Closed-form distinguished curves used as ground truth in every
conservation test: projectively parametrized circles, logarithmic spirals,
and special-conformal images of spirals.

All position coefficients are produced by the Taylor kernels of
:mod:`confcurves.jets` on the defining formulas, so derivatives of any
order (up to the jet limit) carry no discretization error.  A family's
``jet_stack`` evaluates them at many times in one pass, with each
product's operands in the kernels' order; its ``jet`` is the one-time
row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import _check_speed, derivatives
from .jets import _constant, _dot, _exp, _recip, _sincos, _stack_product, _sum_rows
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


def _jet(self, t, order=DEFAULT_ORDER):
    """The position coefficients ``(n, order+1)`` at ``t``, row 0 of
    ``jet_stack``, with the speed checked against the floor."""
    coeffs = self.jet_stack([t], order)[0]
    u = derivatives(coeffs, 2)[1]
    _check_speed([t], [u @ u])
    return coeffs


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
        x0 = np.asarray(self.x0, dtype=float)
        u0 = np.asarray(self.u0, dtype=float)
        a0 = np.asarray(self.a0, dtype=float)
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

    def jet_stack(self, times, order=DEFAULT_ORDER):
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
        p0 = np.asarray(self.p0, dtype=float)
        q0 = np.asarray(self.q0, dtype=float)
        r0 = np.asarray(self.r0, dtype=float)
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
        return (
            math.exp(t) * math.cos(self.c * t) * self.p0
            + math.exp(t) * math.sin(self.c * t) * self.q0
            + self.r0
        )

    jet = _jet

    def jet_stack(self, times, order=DEFAULT_ORDER):
        """Position coefficients ``(times, n, order+1)``."""
        tau = _constant(times, order)
        tau[:, 1] = 1.0
        growth = _exp(tau)
        sin, cos = _sincos(_times(tau, self.c))
        ec, es = (_stack_product(growth, f)[:, None] for f in (cos, sin))
        return _times(ec, self.p0) + _times(es, self.q0) + _constant(self.r0, order)

    def closed_derivatives(self, t):
        """First three derivative vectors in closed form, independent of the
        jet route.

        Note the velocity factors of ``c``: the derivative of
        ``e^t cos(ct)`` is ``e^t (cos(ct) - c sin(ct))``, which is what the
        stated squared speed ``e^{2t}(c^2+1)|p0|^2`` requires.
        """
        c = self.c
        e = math.exp(t)
        cos = math.cos(c * t)
        sin = math.sin(c * t)
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
        an ``(n+2)``-array; its metric square equals ``c^2 - 1`` for every
        ``t``."""
        c = self.c
        scale = float(np.linalg.norm(self.p0))
        root = math.sqrt(c**2 + 1.0)
        w0 = math.exp(-t) / (scale * root)
        wi = -root / scale * (
            math.cos(c * t) * self.p0 + math.sin(c * t) * self.q0
        )
        wN = -math.exp(t) * scale * root
        return np.concatenate([[w0], wi, [wN]])


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
        scan = list(np.linspace(lo, hi, 33))
        # the denominator |b|^2 |x - b/|b|^2|^2 has a double zero, which a
        # grid can step over; the base radius e^t |p0| is monotone, so it
        # meets |b/|b|^2 - r0| = |b - |b|^2 r0| / |b|^2 once, at t*; Python
        # floats, so an extreme b makes t* inf or nan, not an error
        beta = math.hypot(*b.tolist())
        gap = math.hypot(*(v - beta * beta * r for v, r in zip(b.tolist(), self.base.r0.tolist())))
        if gap:
            t_star = math.log(gap) - 2.0 * math.log(beta) - math.log(math.hypot(*self.base.p0.tolist()))
            if lo <= t_star <= hi:
                scan.append(t_star)
        for t in scan:
            if abs(self._denominator(t)) < 1e-6:
                raise FamilyError(f"transform denominator vanishes near t = {t:.3f}")

    @property
    def dim(self):
        return self.base.dim

    def _denominator(self, t):
        xh = self.base.position(t)
        return 1.0 - 2.0 * float(xh @ self.b) + float(self.b @ self.b) * float(xh @ xh)

    jet = _jet

    def jet_stack(self, times, order=DEFAULT_ORDER):
        """Position coefficients ``(times, n, order+1)``; a time at which
        the transform denominator or the spiral's velocity vanishes is
        rejected as that time's ``jet`` rejects it."""
        for t in times:
            if abs(self._denominator(t)) < 1e-9:
                raise FamilyError(f"transform denominator vanishes at t = {t}")
        x = self.base.jet_stack(times, order)
        _check_speed(times, _dot(x[..., 1], x[..., 1]))
        n2 = _sum_rows(_stack_product(x, x))
        bx = _sum_rows(_times(x, self.b))
        den = _constant(1.0, order) - _times(bx, 2.0) + _times(n2, float(self.b @ self.b))
        return _stack_product(x - _times(n2[:, None], self.b), _recip(den)[:, None])

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
