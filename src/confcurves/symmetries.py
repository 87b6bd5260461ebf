"""Conformal Killing fields, their Noether quantities along the flow, and
the paper's relation between the two families of conserved quantities.

The basis quantities have one format, the momentum bivector ``M``: an
antisymmetric ``(..., n+2, n+2)`` slot matrix with ``M[0, i] = -E_S_i``,
``M[i, n+1] = -2 E_T_i``, ``M[0, n+1] = 2 E_D`` and ``M[i, j] = 2 E_R_ij``,
read back by :func:`basis_parts`.  :func:`e_stack` gives it from the phase
variables, and :func:`confcurves.tractors._tractor_bivector` from the
canonical tractors of the curve; a field's quantity is a pairing with it,
the pairing quantities are ``-1/4 M^M`` and the Hamiltonian is its Casimir.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import _speed_sq, derivatives
from .jets import _dot, _recip, _stack_product, _sum_rows
from .mercator import flow_vector_stack
from .multilinear import index_tuples
from .tractors import _pairing_layout, _parallel_minors

__all__ = [
    "KillingField",
    "basis_parts",
    "f_generic_stack",
    "e_stack",
    "q_phase",
    "quantity_identities",
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

    def pair(self, M):
        """The quantity of this field from the momentum bivector ``M`` of the
        basis quantities, ``T.E_T + <R, E_R>/2 + a E_D + S.E_S``; an array
        over the leading axes of ``M``."""
        E_T, E_R, E_D, E_S = basis_parts(M)
        return (
            _dot(self.T, E_T)
            + 0.5 * np.sum(self.R * E_R, axis=(-2, -1))
            + self.a * E_D
            + _dot(self.S, E_S)
        )


def basis_parts(M):
    """The basis quantities ``(E_T, E_R, E_D, E_S)`` read off momentum
    bivectors ``M`` ``(..., n+2, n+2)``, ``E_R`` an antisymmetric matrix."""
    return -0.5 * M[..., 1:-1, -1], 0.5 * M[..., 1:-1, 1:-1], 0.5 * M[..., 0, -1], -M[..., 0, 1:-1]


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
    independent of the momentum bivector routes.  Only coefficients 0-2 of
    ``v'`` and ``w`` enter, formed by the stack kernels in jet operand order."""
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


def e_stack(X, U, P, R):
    """The momentum bivector ``M`` ``(..., n+2, n+2)`` from the phase
    variables over leading batch axes of ``(..., n)`` phase components, in
    their dtype."""
    XP, UR, XX, XU, XR = (
        _dot(a, b)[..., None] for a, b in ((X, P), (U, R), (X, X), (X, U), (X, R))
    )
    E_D = XP + UR
    n = X.shape[-1]
    M = np.zeros(X.shape[:-1] + (n + 2, n + 2), np.result_type(X, U, P, R))
    M[..., 0, 1:-1] = -(XX * P + 2.0 * XU * R - 2.0 * E_D * X - 2.0 * (1.0 + XR) * U)
    M[..., 1:-1, -1], M[..., 0, -1] = -2.0 * P, 2.0 * E_D[..., 0]
    M[..., 1:-1, 1:-1] = _outer(X, P) - _outer(P, X) + _outer(U, R) - _outer(R, U)
    return M - np.swapaxes(M, -1, -2)


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


def _bivector_square(M):
    """The pairing quantities ``-1/4 M^M`` of the momentum bivector: ``-1/4
    (M_ab M_cd - M_ac M_bd + M_ad M_bc)`` over the 4-tuples ``(a, b, c,
    d)``, gathered at the keys of :func:`confcurves.tractors.q_keys` with
    their orientations, an array ``(..., keys)``."""
    pos, sign = _pairing_layout(M.shape[-1] - 2, 4)
    a, b, c, d = index_tuples(M.shape[-1], 4).T
    square = M[..., a, b] * M[..., c, d] - M[..., a, c] * M[..., b, d] + M[..., a, d] * M[..., b, c]
    return -0.25 * sign * square[..., pos]


def _casimir(M):
    """The Hamiltonian as the Casimir ``-tr((M G)^2) / 16 = sum M_ab M_a'b'
    / 16`` of the momentum bivector, ``G`` the slot swap ``a -> a'`` of
    slots 0 and ``n+1``."""
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
