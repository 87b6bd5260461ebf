"""Conformal Killing fields, their Noether quantities along the flow, the
phase-space basis quantities, and the paper's relation between the two
families of conserved quantities: the basis quantities form the momentum
bivector ``M``, an antisymmetric slot matrix; the pairing quantities are
``-1/4 M^M`` and the Hamiltonian is its Casimir.
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
from .tractors import _pairing_layout, _parallel_minors

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


def _ckv_stack(fields, c):
    """The fields ``(len(fields), ..., n, m)`` on every row of position
    coefficients ``(..., n, m)``, exact since each is polynomial in the
    position: the linear parts act on the coefficients directly, ``|x|^2``
    is formed once, and each product puts the position first."""
    lead = (len(fields),) + (1,) * (c.ndim - 2)
    T, S, a = (np.reshape([getattr(f, k) for f in fields], lead + (-1, 1)) for k in "TSa")
    Rt = np.reshape([f.R.T for f in fields], lead + c.shape[-2:-1] * 2)
    # S.x summed over the components in order
    s_dot_x = (S * c).sum(axis=-2)
    coeffs = (
        Rt @ c
        + a * c
        + S * _sum_rows(_stack_product(c, c))[..., None, :]
        - 2.0 * _stack_product(c, s_dot_x[..., None, :])
    )
    coeffs[..., 0] += T[..., 0]
    return coeffs


def f_generic_stack(fields, coeffs):
    """Noether quantities ``(len(fields), ...)`` of Killing fields ``v`` at
    every row of a position coefficient stack ``(..., n, order+1)``, order
    at least 4, from the defining expression ``d/ds <w, v'> + <w', v'> -
    <C, v>`` (``w = u / |u|^2``, ``C`` the flow vector, both formed once),
    independent of :func:`noether_stack`.  Only coefficients 0-2 of ``v'``
    and ``w`` enter, formed by the stack kernels in jet operand order."""
    coeffs = np.asarray(coeffs, dtype=float)
    _speed_sq(coeffs, 4, "generic Noether quantity")
    v = _ckv_stack(fields, coeffs[..., :4])
    vp = v[..., 1:] * np.arange(1, 4)
    u = coeffs[..., 1:4] * np.arange(1, 4)
    w = _stack_product(u, _recip(_sum_rows(_stack_product(u, u)))[..., None, :])
    C = flow_vector_stack(*derivatives(coeffs, 4)[1:])
    dWVp = _sum_rows(_stack_product(w, vp))[..., 1]
    return dWVp + _dot(w[..., 1], vp[..., 0]) - _dot(C, v[..., 0])


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
    order like :func:`confcurves.tractors.q_stack`: the pairings with the
    parallel sections of the wedge of ``e_0``, ``(0, U, 0)``, ``(0, -R, 1)``
    and ``(0, P, -U.R)``, which is the wedge of the canonical tractors at
    the curve's point."""
    columns = np.zeros(X.shape[:-1] + (X.shape[-1] + 2, 4))
    columns[..., 0, 0] = columns[..., -1, 2] = 1.0
    columns[..., 1:-1, 1:] = np.stack([U, -R, P], axis=-1)
    columns[..., -1, 3] = -_dot(U, R)
    return _parallel_minors(columns, X)


def _momentum_bivector(e: EQuantities):
    """The basis quantities as one antisymmetric ``(..., n+2, n+2)`` slot
    matrix ``M`` in their dtype: ``M[0, i] = -E_S_i``, ``M[i, n+1] = -2
    E_T_i``, ``M[0, n+1] = 2 E_D`` and ``M[i, j] = 2 E_R_ij``."""
    n = e.E_T.shape[-1]
    M = np.zeros(e.E_T.shape[:-1] + (n + 2, n + 2), np.result_type(e.E_T, e.E_R, e.E_D, e.E_S))
    M[..., 0, 1:-1], M[..., 1:-1, -1], M[..., 0, -1] = -e.E_S, -2.0 * e.E_T, 2.0 * e.E_D
    M[..., 1:-1, 1:-1] = e.E_R
    return M - np.swapaxes(M, -1, -2)


def _bivector_square(e: EQuantities):
    """The pairing quantities ``-1/4 M^M`` of the momentum bivector: ``-1/4
    (M_ab M_cd - M_ac M_bd + M_ad M_bc)`` over the 4-tuples ``(a, b, c,
    d)``, gathered at the keys of :func:`confcurves.tractors.q_keys` with
    their orientations, an array ``(..., keys)``."""
    M = _momentum_bivector(e)
    pos, sign = _pairing_layout(M.shape[-1] - 2, 4)
    a, b, c, d = index_tuples(M.shape[-1], 4).T
    square = M[..., a, b] * M[..., c, d] - M[..., a, c] * M[..., b, d] + M[..., a, d] * M[..., b, c]
    return -0.25 * sign * square[..., pos]


def _casimir(e: EQuantities):
    """The Hamiltonian as the Casimir ``-tr((M G)^2) / 16 = sum M_ab M_a'b'
    / 16`` of the momentum bivector, ``G`` the slot swap ``a -> a'`` of
    slots 0 and ``n+1``."""
    M = _momentum_bivector(e)
    swap = np.r_[M.shape[-1] - 1, 1 : M.shape[-1] - 1, 0]
    return np.sum(M * M[..., swap[:, None], swap], axis=(-2, -1)) / 16.0


def quantity_identities(X, U, P, R):
    """Residuals of the paper's relation ``Q = -1/4 M^M`` between the pairing
    quantities (:func:`q_phase`) and the momentum bivector of the basis
    quantities (:func:`_bivector_square`), from ``(..., n)`` phase
    components: per-family dictionaries with the max absolute residual and
    the operand scale for relative comparisons, over the leading axes."""
    n = X.shape[-1]
    # q_keys lays out C(n, 2), C(n, 3), C(n, 3) and C(n, 4) keys, family by family
    sizes = np.cumsum([math.comb(n, 2), math.comb(n, 3), math.comb(n, 3)])
    sides = (np.split(q, sizes, axis=-1) for q in (q_phase(X, U, P, R), _bivector_square(e_stack(X, U, P, R))))
    report = {}
    for family, lhs, rhs in zip(("0ijN", "0ijk", "ijkN", "ijkl"), *sides):
        # a vacuous family (no keys below dimension 4) reads 0
        resid = np.max(np.abs(lhs - rhs), axis=-1, initial=0.0)
        scale = np.max(np.abs(np.concatenate([lhs, rhs], axis=-1)), axis=-1, initial=0.0)
        report[family] = {"residual": resid, "scale": scale}
    return report


@dataclass(frozen=True, eq=False)
class ThreeDReduction:
    Q1: np.ndarray
    Q2: np.ndarray
    Q3: np.ndarray
    H_from_E: np.ndarray


def three_d_reduction(e: EQuantities) -> ThreeDReduction:
    """Dimension-three view of the momentum bivector of the basis quantities
    ``e`` over their leading axes: the pairing quantities of
    :func:`_bivector_square`, ``0ijN`` as an axial vector and ``0ijk`` and
    ``ijkN`` as scalars, and the Hamiltonian as its Casimir."""
    if e.E_T.shape[-1] != 3:
        raise ValueError("reduction requires dimension 3")
    # keys (0,1,2,4), (0,1,3,4), (0,2,3,4), (0,1,2,3), (1,2,3,4)
    q = _bivector_square(e)
    return ThreeDReduction(q[..., (2, 1, 0)] * np.array([1.0, -1.0, 1.0]), q[..., 3], q[..., 4], _casimir(e))


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

    fns = {f"E_T{i + 1}": lambda X, U, P, R, i=i: P[..., i] for i in range(3)}
    fns["Q_3"] = lambda X, U, P, R: three_d_reduction(e_stack(X, U, P, R)).Q3
    fns["H"] = lambda X, U, P, R: hamiltonian_stack(U, P, R)
    return {
        (a, b): float(np.max(np.abs(poisson_bracket(fns[a], fns[b], y))))
        for a, b in itertools.combinations(fns, 2)
    }
