"""Closed-form distinguished curves used as ground truth in every
conservation test: projectively parametrized circles, logarithmic spirals,
and special-conformal images of spirals.

All jets are produced by exact jet arithmetic on the defining formulas, so
derivatives of any order (up to the jet limit) carry no discretization
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import CurveJet
from .jets import JetScalar

__all__ = [
    "FamilyError",
    "Circle",
    "LogSpiral",
    "TransformedSpiral",
    "TransformedSpiralReport",
]

DEFAULT_ORDER = 6
_VALID = 1e-12


class FamilyError(ValueError):
    """Invalid family parameters or an evaluation outside the usable window."""


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

    def jet(self, t, order=DEFAULT_ORDER) -> CurveJet:
        tau = JetScalar.variable(t, order)
        tau2 = tau * tau
        den = (tau2 * float(self.a0 @ self.a0) + 1.0).recip()
        num = tau * self.u0 + tau2 * self.a0
        return CurveJet(t, num * den + self.x0)


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

    def jet(self, t, order=DEFAULT_ORDER) -> CurveJet:
        tau = JetScalar.variable(t, order)
        growth = tau.exp()
        theta = tau * self.c
        ec = growth * theta.cos()
        es = growth * theta.sin()
        return CurveJet(t, ec * self.p0 + es * self.q0 + self.r0)

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
        for t in np.linspace(lo, hi, 33):
            if abs(self._denominator(t)) < 1e-6:
                raise FamilyError(f"transform denominator vanishes near t = {t:.3f}")

    @property
    def dim(self):
        return self.base.dim

    def _denominator(self, t):
        xh = self.base.position(t)
        return 1.0 - 2.0 * float(xh @ self.b) + float(self.b @ self.b) * float(xh @ xh)

    def jet(self, t, order=DEFAULT_ORDER) -> CurveJet:
        den_val = self._denominator(t)
        if abs(den_val) < 1e-9:
            raise FamilyError(f"transform denominator vanishes at t = {t}")
        base_jet = self.base.jet(t, order).position
        b = JetScalar.constant(self.b, order)
        n2 = base_jet.norm_sq()
        den = 1.0 - 2.0 * base_jet.dot(b) + float(self.b @ self.b) * n2
        return CurveJet(t, (base_jet - n2 * self.b) * den.recip())

    def conserved_report(self) -> "TransformedSpiralReport":
        """Closed-form values of the Noether quantities along the image
        curve, for comparison against the generic evaluations."""
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
        fd_rate = -(1.0 - 2 * rb + (2 * c / p2) * (pb * qr - qb * pr))
        Y = -c * qr / p2 * s.p0 + c * pr / p2 * s.q0 + s.r0
        return TransformedSpiralReport(C=C, dilatation_rate=fd_rate, Y=Y, base=s, b=b)


@dataclass(frozen=True, eq=False)
class TransformedSpiralReport:
    """Closed-form conserved data of a transformed spiral: the constant
    flow vector, the dilatation quantity per unit rate, and the vector
    whose pairing with the special-conformal parameter gives that family's
    quantity (independent of the transform parameter)."""

    C: np.ndarray
    dilatation_rate: float
    Y: np.ndarray
    base: LogSpiral
    b: np.ndarray

    def f_translation(self, T):
        return -float(np.asarray(T, dtype=float) @ self.C)

    def f_rotation(self, R):
        R = np.asarray(R, dtype=float)
        s, b = self.base, self.b
        p2 = float(s.p0 @ s.p0)

        def br(y, z):
            return float(np.einsum("ij,i,j->", R, y, z))

        return (
            s.c / p2 * br(s.p0, s.q0)
            - 2.0 * br(b, s.r0)
            + 2.0 * s.c / p2 * (br(s.q0, b) * float(s.p0 @ s.r0) - br(s.p0, b) * float(s.q0 @ s.r0))
        )

    def f_dilatation(self, a):
        return a * self.dilatation_rate

    def f_special_conformal(self, S):
        return 2.0 * float(np.asarray(S, dtype=float) @ self.Y)
