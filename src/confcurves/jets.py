"""Truncated Taylor (jet) arithmetic in one variable.

A jet of order ``m`` stores the coefficients ``f(t0), f'(t0), f''(t0)/2!,
..., f^(m)(t0)/m!`` of a function around an expansion point, with shape
``(m+1,)`` for a scalar and ``(dim, m+1)`` for a vector (one row per
component).  With the 1/k! scaling, multiplication is a plain Cauchy
product, convolved row by row with a scalar broadcast over a vector, and
every elementary function (scalar jets only) propagates through the
standard convolution recurrences, so high-order derivatives of closed-form
curves come out exact to round-off instead of via finite differences.

The operand order of each convolution is fixed, which keeps results
reproducible to the bit: a vector jet goes before a scalar jet, otherwise
the left operand goes first, and a number or array, taken as a constant
jet, goes second.  ``dot`` adds the componentwise products in order.

Jets of different orders never mix silently: combining them raises
``JetOrderError``.  Lowering the order is always an explicit
``truncated`` call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "JetError",
    "JetOrderError",
    "JetDomainError",
    "JetScalar",
]


class JetError(ArithmeticError):
    """Base class for jet arithmetic failures."""


class JetOrderError(JetError):
    """Mixed-order operands, or differentiating an order-0 jet."""


class JetDomainError(JetError):
    """Singular jet: division by a zero-constant-term jet, sqrt of a
    non-positive leading coefficient, and similar domain violations."""


def _constant(value, order):
    """Coefficients of the constant jet of a number or a 1-d array."""
    value = np.asarray(value, dtype=float)
    c = np.zeros(value.shape + (order + 1,))
    c[..., 0] = value
    return c


def _product(a, b):
    """Truncated Cauchy product of two coefficient arrays, ``a`` first in
    every ``np.convolve``; a 1-d operand is broadcast over the rows of a
    2-d one, two 2-d operands multiply row by row."""
    m = a.shape[-1]
    if a.ndim == 1 and b.ndim == 1:
        return np.convolve(a, b)[:m]
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape)
    for i in range(a.shape[0]):
        out[i] = np.convolve(a[i], b[i])[:m]
    return out


def _dot(a, b):
    """``np.dot`` of the last axes of ``a`` and ``b``, batched over the leading
    axes, with its bits: one ``np.matmul`` over contiguous copies."""
    lhs = np.ascontiguousarray(a)[..., None, :]
    rhs = np.ascontiguousarray(b)[..., None]
    return np.matmul(lhs, rhs)[..., 0, 0]


def _product_coefficient(a, b, j):
    """Coefficient ``j`` of :func:`_product` of operands with more than
    ``j`` coefficients, batched over leading axes, with the bits of
    ``np.convolve``: below the last coefficient, the dot of ``a[:j+1]`` and
    ``b[j::-1]`` it calls (:func:`_dot`); the last, its small-kernel sum of
    the terms in order from 0.0 (through 12 coefficients with numpy 2.4;
    round-off beyond)."""
    if j < a.shape[-1] - 1:
        return _dot(a[..., : j + 1], b[..., j::-1])
    acc = 0.0
    for p in range(j + 1):
        acc = acc + a[..., p] * b[..., j - p]
    return acc


def _stack_product(a, b):
    """:func:`_product` of operands batched (and broadcast) over leading
    axes, one :func:`_product_coefficient` per coefficient."""
    return np.stack([_product_coefficient(a, b, j) for j in range(a.shape[-1])], axis=-1)


def _sum_rows(a):
    """Sum over the second-to-last axis, the rows added in order as
    :meth:`JetScalar.dot` adds its components."""
    return functools.reduce(np.add, np.moveaxis(a, -2, 0))


def _recip(a):
    """Reciprocal recurrence over the last axis of ``(..., order+1)``
    coefficients, each coefficient's dot one :func:`_dot`."""
    if np.any(a[..., 0] == 0.0):
        raise JetDomainError("reciprocal of a jet with zero constant term")
    b = np.zeros(a.shape)
    b[..., 0] = 1.0 / a[..., 0]
    for k in range(1, a.shape[-1]):
        b[..., k] = -b[..., 0] * _dot(a[..., 1 : k + 1], b[..., k - 1 :: -1])
    return b


def _sqrt(a):
    """Square-root recurrence over the last axis of ``(..., order+1)``
    coefficients, each coefficient's dot one :func:`_dot`."""
    if np.any(a[..., 0] <= 0.0):
        raise JetDomainError("sqrt of a jet with non-positive constant term")
    b = np.zeros(a.shape)
    b[..., 0] = np.sqrt(a[..., 0])
    for k in range(1, a.shape[-1]):
        conv = _dot(b[..., 1:k], b[..., k - 1 : 0 : -1]) if k > 1 else 0.0
        b[..., k] = (a[..., k] - conv) / (2.0 * b[..., 0])
    return b


def _exp(a):
    """Exponential recurrence over the last axis of ``(..., order+1)``
    coefficients, each coefficient's dot one :func:`_dot`; the constant term
    is libm's, which ``np.exp`` does not always give, as are its errors."""
    b = np.zeros(a.shape)
    b[..., 0] = np.vectorize(math.exp, otypes=[float])(a[..., 0])
    for k in range(1, a.shape[-1]):
        b[..., k] = _dot(np.arange(1, k + 1) * a[..., 1 : k + 1], b[..., k - 1 :: -1]) / k
    return b


def _sincos(a):
    """Sine and cosine recurrences over the last axis of ``(..., order+1)``
    coefficients, each coefficient's dot one :func:`_dot`."""
    s, c = np.zeros(a.shape), np.zeros(a.shape)
    s[..., 0], c[..., 0] = (np.vectorize(f, otypes=[float])(a[..., 0]) for f in (math.sin, math.cos))
    for k in range(1, a.shape[-1]):
        ja = np.arange(1, k + 1) * a[..., 1 : k + 1]
        s[..., k] = _dot(ja, c[..., k - 1 :: -1]) / k
        c[..., k] = -_dot(ja, s[..., k - 1 :: -1]) / k
    return s, c


class JetScalar:
    """Taylor coefficients of a scalar or vector function, truncated at a
    fixed order."""

    __slots__ = ("coeffs",)
    # Defer binary operators with an ndarray on the left to the jet.
    __array_ufunc__ = None

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim > 2 or 0 in c.shape:
            raise ValueError("jet coefficients must form a non-empty 1-d or 2-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("jet coefficients must be finite")
        self.coeffs = c

    @classmethod
    def constant(cls, value, order):
        """Constant jet of a number (scalar jet) or a 1-d array (vector jet)."""
        return cls(_constant(value, order))

    @classmethod
    def variable(cls, value, order):
        """Jet of ``s -> value + s``, the expansion of the parameter itself."""
        if order < 1:
            raise JetOrderError("a variable jet needs order >= 1")
        c = np.zeros(order + 1)
        c[0] = value
        c[1] = 1.0
        return cls(c)

    @property
    def order(self):
        return self.coeffs.shape[-1] - 1

    @property
    def dim(self):
        """Number of components of a vector jet."""
        return len(self._vector())

    @property
    def value(self):
        """Value at the expansion point: a float, or an array for a vector."""
        return self.derivative(0)

    def derivative(self, k):
        """k-th derivative value at the expansion point (k! * coeffs[k])."""
        if not 0 <= k <= self.order:
            raise JetOrderError(f"derivative {k} beyond stored order {self.order}")
        d = self.coeffs[..., k] * math.factorial(k)
        return float(d) if d.ndim == 0 else d

    def truncated(self, order):
        if order > self.order:
            raise JetOrderError(f"cannot extend order {self.order} to {order}")
        return JetScalar(self.coeffs[..., : order + 1])

    def differentiate(self):
        """Jet of the derivative; the order drops by one."""
        if self.order < 1:
            raise JetOrderError("cannot differentiate an order-0 jet")
        k = np.arange(1, self.order + 1)
        return JetScalar(self.coeffs[..., 1:] * k)

    def __getitem__(self, index):
        """Component ``index`` of a vector jet as a scalar jet, or a slice
        of components as a vector jet."""
        return JetScalar(self._vector()[index])

    def _vector(self):
        if self.coeffs.ndim != 2:
            raise TypeError("expected a vector jet")
        return self.coeffs

    def _scalar(self):
        if self.coeffs.ndim != 1:
            raise TypeError("expected a scalar jet")
        return self.coeffs

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        """Coefficients of ``other`` at this jet's order, or None for an
        unsupported operand."""
        if isinstance(other, JetScalar):
            if other.order != self.order:
                raise JetOrderError(
                    f"mixed jet orders {self.order} and {other.order}"
                )
            c = other.coeffs
        elif isinstance(other, (int, float, np.integer, np.floating, np.ndarray)):
            c = _constant(other, self.order)
        else:
            return None
        if c.ndim == self.coeffs.ndim == 2 and len(c) != len(self.coeffs):
            raise ValueError(
                f"dimension mismatch: {len(self.coeffs)} and {len(c)} components"
            )
        return c

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return JetScalar(self.coeffs + o)

    __radd__ = __add__

    def __neg__(self):
        return JetScalar(-self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return JetScalar(self.coeffs - o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return JetScalar(o - self.coeffs)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(other, JetScalar) and o.ndim > self.coeffs.ndim:
            return JetScalar(_product(o, self.coeffs))
        return JetScalar(_product(self.coeffs, o))

    # Reached only with a number or array on the left, which goes second.
    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * JetScalar(o).recip()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return JetScalar(o) * self.recip()

    def dot(self, other):
        """Euclidean inner product of two vector jets, a scalar jet."""
        if not isinstance(other, JetScalar) or other.coeffs.ndim != 2:
            raise TypeError("dot expects a vector jet")
        rows = _product(self._vector(), self._coerce(other))
        acc = rows[0]
        for row in rows[1:]:
            acc = acc + row
        return JetScalar(acc)

    def norm_sq(self):
        return self.dot(self)

    # -- elementary compositions (scalar jets) ------------------------

    def recip(self):
        return JetScalar(_recip(self._scalar()))

    def sqrt(self):
        return JetScalar(_sqrt(self._scalar()))

    def exp(self):
        return JetScalar(_exp(self._scalar()))

    def sin(self):
        return self._sincos()[0]

    def cos(self):
        return self._sincos()[1]

    def _sincos(self):
        return tuple(map(JetScalar, _sincos(self._scalar())))

    def powi(self, k):
        """Integer power, negative allowed when the constant term is nonzero."""
        self._scalar()
        if k < 0:
            return self.recip().powi(-k)
        out = JetScalar.constant(1.0, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return f"JetScalar({self.coeffs.tolist()})"
