"""A jet type over per-row ``np.convolve`` products, the bit oracle of the
array kernels in :mod:`confcurves.jets`.

A jet holds coefficients ``(order+1,)`` for a scalar and ``(dim,
order+1)`` for a vector.  A vector jet goes before a scalar jet in a
product, otherwise the left operand goes first, and a number or array,
taken as a constant jet, goes second; ``dot`` adds the componentwise
products in order.  Mixing orders raises :class:`JetOrderError`.
"""

import functools
import math

import numpy as np

from confcurves.jets import JetError, _constant, _exp, _recip, _sincos, _sqrt


class JetOrderError(JetError):
    """Mixed-order operands, or differentiating an order-0 jet."""


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
        return cls([value, 1.0] + [0.0] * (order - 1))

    @property
    def order(self):
        return self.coeffs.shape[-1] - 1

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

    def _coerce(self, other):
        """Coefficients of ``other`` at this jet's order."""
        if isinstance(other, JetScalar):
            if other.order != self.order:
                raise JetOrderError(f"mixed jet orders {self.order} and {other.order}")
            c = other.coeffs
        elif isinstance(other, (int, float, np.integer, np.floating, np.ndarray)):
            c = _constant(other, self.order)
        else:
            raise TypeError(f"unsupported jet operand {type(other).__name__}")
        if c.ndim == self.coeffs.ndim == 2 and len(c) != len(self.coeffs):
            raise ValueError(f"dimension mismatch: {len(self.coeffs)} and {len(c)} components")
        return c

    def __add__(self, other):
        return JetScalar(self.coeffs + self._coerce(other))

    __radd__ = __add__

    def __neg__(self):
        return JetScalar(-self.coeffs)

    def __sub__(self, other):
        return JetScalar(self.coeffs - self._coerce(other))

    def __rsub__(self, other):
        return JetScalar(self._coerce(other) - self.coeffs)

    def __mul__(self, other):
        o = self._coerce(other)
        if isinstance(other, JetScalar) and o.ndim > self.coeffs.ndim:
            return JetScalar(_product(o, self.coeffs))
        return JetScalar(_product(self.coeffs, o))

    # Reached only with a number or array on the left, which goes second.
    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * JetScalar(self._coerce(other)).recip()

    def __rtruediv__(self, other):
        return JetScalar(self._coerce(other)) * self.recip()

    def dot(self, other):
        """Euclidean inner product of two vector jets, a scalar jet."""
        if not isinstance(other, JetScalar) or other.coeffs.ndim != 2:
            raise TypeError("dot expects a vector jet")
        return JetScalar(functools.reduce(np.add, _product(self._vector(), self._coerce(other))))

    def norm_sq(self):
        return self.dot(self)

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
