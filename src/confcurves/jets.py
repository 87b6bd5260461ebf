"""Truncated Taylor (jet) arithmetic in one variable, as array kernels.

A jet of order ``m`` stores ``f(t0), f'(t0), f''(t0)/2!, ..., f^(m)(t0)/m!``
on the last axis of an array ``(..., m+1)``; leading axes batch jets and
the components of vectors.  Multiplication is then a plain Cauchy product,
and the elementary functions propagate through the standard convolution
recurrences, so high-order derivatives come out exact to round-off.

Operand and summation orders are fixed, so results repeat to the bit: a
vector goes before a scalar factor, otherwise the left factor goes first,
a constant (:func:`_constant`) goes second, and inner products add their
components in order.  The per-row ``np.convolve`` jets of
``tests/jet_oracle.py`` check these bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["JetError", "JetDomainError"]


class JetError(ArithmeticError):
    """Base class for jet arithmetic failures."""


class JetDomainError(JetError):
    """Singular jet: division by a zero-constant-term jet, sqrt of a
    non-positive leading coefficient, and similar domain violations."""


def _constant(value, order):
    """Coefficients of the constant jet of a number or a 1-d array."""
    value = np.asarray(value, dtype=float)
    c = np.zeros(value.shape + (order + 1,))
    c[..., 0] = value
    return c


def _libm(f, x):
    """``f`` of every entry of a number or array ``x``, with libm's bits,
    which ``np.exp`` and its kin do not always give, and its errors."""
    return np.vectorize(f, otypes=[float])(x)


def _dot(a, b):
    """``np.dot`` of the last axes of ``a`` and ``b``, batched over the leading
    axes, with its bits: one ``np.matmul`` over contiguous copies."""
    lhs = np.ascontiguousarray(a)[..., None, :]
    rhs = np.ascontiguousarray(b)[..., None]
    return np.matmul(lhs, rhs)[..., 0, 0]


def _product_coefficient(a, b, j):
    """Coefficient ``j`` of the truncated Cauchy product of operands with
    more than ``j`` coefficients, batched over leading axes, with the bits
    of ``np.convolve(a, b)``: below the last coefficient, the dot of
    ``a[:j+1]`` and ``b[j::-1]`` it calls (:func:`_dot`); the last, its
    small-kernel sum of the terms in order from 0.0 (through 12
    coefficients with numpy 2.4; round-off beyond)."""
    if j < a.shape[-1] - 1:
        return _dot(a[..., : j + 1], b[..., j::-1])
    acc = 0.0
    for p in range(j + 1):
        acc = acc + a[..., p] * b[..., j - p]
    return acc


def _stack_product(a, b):
    """Truncated Cauchy product of coefficient arrays batched (and
    broadcast) over leading axes, one :func:`_product_coefficient` per
    coefficient: each row has the bits of ``np.convolve(a, b)[:m]``."""
    return np.stack([_product_coefficient(a, b, j) for j in range(a.shape[-1])], axis=-1)


def _sum_rows(a):
    """Sum over the second-to-last axis, the rows added in order from the
    first: the inner product of two vectors' componentwise products."""
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
    b[..., 0] = _libm(math.exp, a[..., 0])
    for k in range(1, a.shape[-1]):
        b[..., k] = _dot(np.arange(1, k + 1) * a[..., 1 : k + 1], b[..., k - 1 :: -1]) / k
    return b


def _sincos(a):
    """Sine and cosine recurrences over the last axis of ``(..., order+1)``
    coefficients, each coefficient's dot one :func:`_dot`."""
    s, c = np.zeros(a.shape), np.zeros(a.shape)
    s[..., 0], c[..., 0] = (_libm(f, a[..., 0]) for f in (math.sin, math.cos))
    for k in range(1, a.shape[-1]):
        ja = np.arange(1, k + 1) * a[..., 1 : k + 1]
        s[..., k] = _dot(ja, c[..., k - 1 :: -1]) / k
        c[..., k] = -_dot(ja, s[..., k - 1 :: -1]) / k
    return s, c
