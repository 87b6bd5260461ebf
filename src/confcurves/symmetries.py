"""Conformal Killing fields, their Noether quantities along the flow, the
phase-space basis quantities, and the identities relating the two families
of conserved quantities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import _speed_sq, derivatives
from .jets import _dot, _recip, _stack_product, _sum_rows
from .mercator import flow_vector_stack, hamiltonian_stack, poisson_bracket
from .multilinear import index_tuples
from .tractors import _pairing_families

__all__ = [
    "KillingField",
    "f_generic_stack",
    "noether_stack",
    "EQuantities",
    "e_stack",
    "q_phase",
    "quantity_identities",
    "three_d_reduction",
    "involutivity_check",
]


@dataclass(frozen=True, eq=False)
class KillingField:
    """Conformal Killing field ``v(x) = T + R^T x + a x + |x|^2 S - 2 (S.x) x``
    of dimension ``n``: a translation ``T``, a rotation generator ``R``, a
    dilatation rate ``a`` and a special conformal parameter ``S``.  A part
    not given is zero.  ``R`` is antisymmetrized exactly on construction;
    grossly asymmetric input, and a part whose shape does not match ``n``,
    is rejected."""

    n: int
    T: np.ndarray | None = None
    R: np.ndarray | None = None
    a: float = 0.0
    S: np.ndarray | None = None

    def __post_init__(self):
        n = self.n
        for name, shape in (("T", (n,)), ("R", (n, n)), ("S", (n,))):
            value = getattr(self, name)
            value = np.zeros(shape) if value is None else np.asarray(value, dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
            object.__setattr__(self, name, value)
        R = self.R
        skew = 0.5 * (R - R.T)
        scale = np.max(np.abs(R)) or 1.0
        if np.max(np.abs(R - skew)) > 1e-9 * scale:
            raise ValueError("rotation generator is not antisymmetric")
        object.__setattr__(self, "R", skew)
        object.__setattr__(self, "a", float(self.a))

    def pair(self, basis: EQuantities):
        """The quantity of this field from the basis quantities:
        ``T.E_T + <R, E_R>/2 + a E_D + S.E_S``; an array over the leading
        axes of stacked ones (:func:`noether_stack`, :func:`e_stack`)."""
        return (
            _dot(self.T, basis.E_T)
            + 0.5 * np.sum(self.R * basis.E_R, axis=(-2, -1))
            + self.a * basis.E_D
            + _dot(self.S, basis.E_S)
        )


def _ckv_stack(field: KillingField, c):
    """The field on every row of position coefficients ``(..., n, m)``, exact
    since it is polynomial in the position: the linear parts act on the
    coefficients directly, and each product puts the position first."""
    # S.x summed over the components in order
    s_dot_x = (field.S[:, None] * c).sum(axis=-2)
    coeffs = (
        field.R.T @ c
        + field.a * c
        + field.S[:, None] * _sum_rows(_stack_product(c, c))[..., None, :]
        - 2.0 * _stack_product(c, s_dot_x[..., None, :])
    )
    coeffs[..., 0] += field.T
    return coeffs


def f_generic_stack(field: KillingField, coeffs):
    """Noether quantity of a Killing field ``v`` at every row of a position
    coefficient stack ``(..., n, order+1)``, order at least 4, from its
    defining expression ``d/ds <w, v'> + <w', v'> - <C, v>`` (``w = u /
    |u|^2``, ``C`` the flow vector), independent of :func:`noether_stack`.
    Only coefficients 0-2 of ``v'`` and ``w`` enter, formed by the stack
    kernels in jet operand order."""
    coeffs = np.asarray(coeffs, dtype=float)
    _speed_sq(coeffs, 4, "generic Noether quantity")
    v = _ckv_stack(field, coeffs[..., :4])
    vp = v[..., 1:] * np.arange(1, 4)
    u = coeffs[..., 1:4] * np.arange(1, 4)
    w = _stack_product(u, _recip(_sum_rows(_stack_product(u, u)))[..., None, :])
    U, A, Ap = derivatives(coeffs, 4)[1:]
    dWVp = _sum_rows(_stack_product(w, vp))[..., 1]
    return dWVp + _dot(w[..., 1], vp[..., 0]) - _dot(flow_vector_stack(U, A, Ap), v[..., 0])


def _outer(a, b):
    """``np.outer`` of the last axes, over leading batch axes."""
    return a[..., :, None] * b[..., None, :]


def noether_stack(X, U, A, Ap) -> EQuantities:
    """The basis quantities in closed form in the curve data ``(X, U, A)``
    and the flow vector ``C`` over leading batch axes of ``(..., n)``
    derivative vectors, independent of :func:`e_stack`."""
    C = flow_vector_stack(U, A, Ap)
    u2, UA, CX, UX, AX, XX = (
        _dot(a, b)[..., None] for a, b in ((U, U), (U, A), (C, X), (U, X), (A, X), (X, X))
    )
    F_R = (_outer(U, A) - _outer(A, U)) / u2[..., None] + (_outer(C, X) - _outer(X, C))
    F_D = -(UA / u2 + CX)[..., 0]
    Y = UX / u2 * A - (1.0 + AX / u2) * U + (UA / u2 + CX) * X - 0.5 * XX * C
    return EQuantities(-C, F_R, F_D, 2.0 * Y)


@dataclass(frozen=True, eq=False)
class EQuantities:
    """The (n+1)(n+2)/2 basis quantities: one vector for translations, an
    antisymmetric matrix for rotations, a scalar for the dilatation, and one
    vector for the special conformal generators.  They come from the phase
    variables (:func:`e_stack`) or the curve data (:func:`noether_stack`),
    both with leading batch axes, or from a family's closed form;
    :meth:`KillingField.pair` gives a field's quantity from them."""

    E_T: np.ndarray
    E_R: np.ndarray
    E_D: float
    E_S: np.ndarray


def e_stack(X, U, P, R) -> EQuantities:
    """The basis quantities from the phase variables over leading batch
    axes of ``(..., n)`` phase components; ``E_D`` is an array."""
    XP, UR, XX, XU, XR = (
        _dot(a, b)[..., None] for a, b in ((X, P), (U, R), (X, X), (X, U), (X, R))
    )
    E_R = _outer(X, P) - _outer(P, X) + _outer(U, R) - _outer(R, U)
    E_D = XP + UR
    E_S = XX * P + 2.0 * XU * R - 2.0 * E_D * X - 2.0 * (1.0 + XR) * U
    return EQuantities(P.copy(), E_R, E_D[..., 0], E_S)


def q_phase(X, U, P, R):
    """The four pairing-quantity families as polynomials in the phase
    variables, an array ``(..., keys)`` in :func:`confcurves.tractors.q_keys`
    order like :func:`confcurves.tractors.q_stack`.

    They are the curve-data forms with ``(A, A')`` replaced by ``(R, P)`` and
    the weights ``(3 (U.A)/u^4, -1/u^2, 1/u^4)`` by ``(-U.R, 1, -1)``.
    """
    families = _pairing_families(X, U, R, P, (-_dot(U, R), 1.0, -1.0))
    return np.concatenate(families, axis=-1)


def quantity_identities(X, U, P, R):
    """Residuals of the four identities expressing the pairing quantities
    through the basis quantities, from ``(..., n)`` phase components.

    The pure-spatial identity is checked in multiplied-through form
    (``E_D`` times the quantity), so it is meaningful on the whole phase
    space.  Returns per-family dictionaries with the max absolute residual
    and the operand scale for relative comparisons, over the leading axes.
    """
    n = X.shape[-1]
    e = e_stack(X, U, P, R)
    # component axes first, batch axes last, so the gathers index them
    E_T, E_S = np.moveaxis(e.E_T, -1, 0), np.moveaxis(e.E_S, -1, 0)
    E_R, E_D = np.moveaxis(e.E_R, (-2, -1), (0, 1)), e.E_D
    # q_keys lays out C(n, 2), C(n, 3), C(n, 3) and C(n, 4) keys, family by family
    sizes = np.cumsum([math.comb(n, 2), math.comb(n, 3), math.comb(n, 3)])
    q2, q3, q3N, q4 = np.split(np.moveaxis(q_phase(X, U, P, R), -1, 0), sizes)
    (i, j), (a, b, c), (w, x, y, z) = (tuple(index_tuples(n, k).T) for k in (2, 3, 4))

    def split3(v):
        # the signed splits of each increasing triple into a pair and a slot
        return E_R[a, b] * v[c] - E_R[a, c] * v[b] + E_R[b, c] * v[a]

    # the six signed splits of each increasing quadruple into two pairs
    W = E_S[:, None] * E_T - E_T[:, None] * E_S
    split4 = (
        E_R[w, x] * W[y, z] - E_R[w, y] * W[x, z] + E_R[w, z] * W[x, y]
        + E_R[x, y] * W[w, z] - E_R[x, z] * W[w, y] + E_R[y, z] * W[w, x]
    )
    sides = {
        "0ijN": (q2, 0.5 * (E_T[i] * E_S[j] - E_T[j] * E_S[i]) - E_D * E_R[i, j]),
        "0ijk": (q3, 0.5 * split3(E_S)),
        "ijkN": (q3N, -split3(E_T)),
        "ijkl": (E_D * q4, 0.5 * split4),
    }
    report = {}
    for family, (lhs, rhs) in sides.items():
        # a vacuous family (no keys below dimension 4) reads 0
        resid = np.max(np.abs(lhs - rhs), axis=0, initial=0.0)
        scale = np.max(np.abs(np.concatenate([lhs, rhs])), axis=0, initial=0.0)
        report[family] = {"residual": resid, "scale": scale}
    return report


@dataclass(frozen=True, eq=False)
class ThreeDReduction:
    Q1: np.ndarray
    Q2: np.ndarray
    Q3: np.ndarray
    H_from_E: np.ndarray


def three_d_reduction(e: EQuantities) -> ThreeDReduction:
    """Dimension-three repackaging of the basis quantities ``e`` over their
    leading axes: the rank-2 quantities as an axial vector, single scalars
    for the two rank-3 families, and the Hamiltonian rewritten through the
    basis quantities."""
    if e.E_T.shape[-1] != 3:
        raise ValueError("reduction requires dimension 3")
    # the axial vector (E_R[1, 2], -E_R[0, 2], E_R[0, 1])
    er = e.E_R[..., (1, 0, 0), (2, 2, 1)] * np.array([1.0, -1.0, 1.0])
    E_D = np.asarray(e.E_D)
    q1 = 0.5 * np.cross(e.E_T, e.E_S) - E_D[..., None] * er
    q2 = 0.5 * _dot(er, e.E_S)
    q3 = -_dot(e.E_T, er)
    h = 0.5 * (_dot(er, er) - _dot(e.E_T, e.E_S) - np.float_power(E_D, 2))
    return ThreeDReduction(q1, q2, q3, h)


def involutivity_check(y):
    """Pairwise brackets among the five-element involutive set (the three
    translation quantities, the mixed rank-3 scalar, and the Hamiltonian)
    over the 3-d phase rows of ``y``, ``(..., 12)``; returns the max
    |bracket| per pair.

    Each pair is one :func:`confcurves.mercator.poisson_bracket` call, a
    complex step through :func:`e_stack`, :func:`three_d_reduction` and
    :func:`confcurves.mercator.hamiltonian_stack`, none of which casts to
    float; ``Q_3`` through :func:`q_phase`, whose determinants do, would
    read 0."""
    if np.shape(y)[-1] != 12:
        raise ValueError("involutivity table requires dimension 3")

    def et(i):
        return lambda X, U, P, R: P[..., i]

    fns = {
        "E_T1": et(0),
        "E_T2": et(1),
        "E_T3": et(2),
        "Q_3": lambda X, U, P, R: three_d_reduction(e_stack(X, U, P, R)).Q3,
        "H": lambda X, U, P, R: hamiltonian_stack(U, P, R),
    }
    return {
        (a, b): float(np.max(np.abs(poisson_bracket(fns[a], fns[b], y))))
        for a, b in itertools.combinations(fns, 2)
    }
