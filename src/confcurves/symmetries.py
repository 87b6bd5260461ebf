"""Conformal Killing fields, their Noether quantities along the flow, the
phase-space basis quantities, and the identities relating the two families
of conserved quantities.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .curves import _speed_sq, derivatives
from .jets import _dot, _recip, _stack_product, _sum_rows
from .mercator import PhasePoint, flow_vector_stack, hamiltonian, poisson_bracket_fd
from .multilinear import index_tuples
from .tractors import _pairing_families, q_keys, quantity_family

__all__ = [
    "KillingField",
    "ckv_eval",
    "conformal_factor",
    "f_generic_stack",
    "noether_stack",
    "EQuantities",
    "e_quantities",
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
        value = (
            _dot(self.T, basis.E_T)
            + 0.5 * np.sum(self.R * basis.E_R, axis=(-2, -1))
            + self.a * basis.E_D
            + _dot(self.S, basis.E_S)
        )
        return value if np.ndim(value) else float(value)


def ckv_eval(field: KillingField, x):
    """Value of the Killing field at a point."""
    x = np.asarray(x, dtype=float)
    return (
        field.T
        + field.R.T @ x
        + field.a * x
        + float(x @ x) * field.S
        - 2.0 * float(field.S @ x) * x
    )


def _ckv_stack(field: KillingField, c):
    """The field on every row of position coefficients ``(..., n, m)``, exact
    since it is polynomial in the position: the linear parts act on the
    coefficients directly, the products are those of the jet operators."""
    # S.x summed in component order, as JetScalar.dot does
    s_dot_x = (field.S[:, None] * c).sum(axis=-2)
    coeffs = (
        field.R.T @ c
        + field.a * c
        + field.S[:, None] * _sum_rows(_stack_product(c, c))[..., None, :]
        - 2.0 * _stack_product(c, s_dot_x[..., None, :])
    )
    coeffs[..., 0] += field.T
    return coeffs


def conformal_factor(field: KillingField, x):
    """The trace part of the Killing equation (divergence over dimension):
    the dilatation rate plus ``-2 S.x`` from the special conformal part;
    isometries contribute nothing."""
    x = np.asarray(x, dtype=float)
    return field.a - 2.0 * float(field.S @ x)


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
    variables (:func:`e_quantities`), from the curve data
    (:func:`noether_stack`) or from a family's closed form;
    :meth:`KillingField.pair` gives a field's quantity from them.
    :func:`e_stack` and :func:`noether_stack` give them with leading batch
    axes."""

    E_T: np.ndarray
    E_R: np.ndarray
    E_D: float
    E_S: np.ndarray

    def rotation_vector3(self):
        """3-d packing of the rotation matrix as an axial vector."""
        if self.E_T.size != 3:
            raise ValueError("axial packing needs dimension 3")
        return np.array([self.E_R[1, 2], -self.E_R[0, 2], self.E_R[0, 1]])


def e_stack(X, U, P, R) -> EQuantities:
    """The basis quantities of :func:`e_quantities` over leading batch axes
    of ``(..., n)`` phase components; ``E_D`` is an array."""
    XP, UR, XX, XU, XR = (
        _dot(a, b)[..., None] for a, b in ((X, P), (U, R), (X, X), (X, U), (X, R))
    )
    E_R = _outer(X, P) - _outer(P, X) + _outer(U, R) - _outer(R, U)
    E_D = XP + UR
    E_S = XX * P + 2.0 * XU * R - 2.0 * E_D * X - 2.0 * (1.0 + XR) * U
    return EQuantities(P.copy(), E_R, E_D[..., 0], E_S)


def e_quantities(p: PhasePoint) -> EQuantities:
    """The basis quantities from the phase variables (:func:`e_stack`), with
    a float ``E_D`` for one point."""
    e = e_stack(p.X, p.U, p.P, p.R)
    return e if e.E_D.ndim else replace(e, E_D=float(e.E_D))


def q_phase(p: PhasePoint):
    """The four pairing-quantity families as polynomials in the phase
    variables, an array ``(..., keys)`` in :func:`confcurves.tractors.q_keys`
    order like :func:`confcurves.tractors.q_stack`.

    They are the curve-data forms with ``(A, A')`` replaced by ``(R, P)`` and
    the weights ``(3 (U.A)/u^4, -1/u^2, 1/u^4)`` by ``(-U.R, 1, -1)``.
    """
    families = _pairing_families(p.X, p.U, p.R, p.P, (-_dot(p.U, p.R), 1.0, -1.0))
    return np.concatenate(families, axis=-1)


@functools.cache
def _family_sizes(n):
    """Sizes of the first three families of ``q_keys(n)``, which lists the
    four families one after another."""
    families = [quantity_family(key, n) for key in q_keys(n)]
    return tuple(families.count(f) for f in ("0ijN", "0ijk", "ijkN"))


def quantity_identities(p: PhasePoint):
    """Residuals of the four identities expressing the pairing quantities
    through the basis quantities.

    The pure-spatial identity is checked in multiplied-through form
    (``E_D`` times the quantity), so it is meaningful on the whole phase
    space.  Returns per-family dictionaries with the max absolute residual
    and the operand scale for relative comparisons: floats for one point,
    arrays over the leading axes for a stacked one.
    """
    n = p.dim
    e = e_stack(p.X, p.U, p.P, p.R)
    # component axes first, batch axes last, so the gathers index them
    E_T, E_S = np.moveaxis(e.E_T, -1, 0), np.moveaxis(e.E_S, -1, 0)
    E_R, E_D = np.moveaxis(e.E_R, (-2, -1), (0, 1)), e.E_D
    q2, q3, q3N, q4 = np.split(np.moveaxis(q_phase(p), -1, 0), np.cumsum(_family_sizes(n)))
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
        if not E_D.ndim:
            resid, scale = float(resid), float(scale)
        report[family] = {"residual": resid, "scale": scale}
    return report


@dataclass(frozen=True, eq=False)
class ThreeDReduction:
    Q1: np.ndarray
    Q2: float
    Q3: float
    H_from_E: float


def three_d_reduction(p: PhasePoint) -> ThreeDReduction:
    """Dimension-three repackaging: the rank-2 quantities as an axial
    vector, single scalars for the two rank-3 families, and the
    Hamiltonian rewritten through the basis quantities."""
    p.require_row("three_d_reduction")
    if p.dim != 3:
        raise ValueError("reduction requires dimension 3")
    e = e_quantities(p)
    er = e.rotation_vector3()
    q1 = 0.5 * np.cross(e.E_T, e.E_S) - e.E_D * er
    q2 = 0.5 * float(er @ e.E_S)
    q3 = -float(e.E_T @ er)
    h = 0.5 * (float(er @ er) - float(e.E_T @ e.E_S) - e.E_D**2)
    return ThreeDReduction(q1, q2, q3, h)


def involutivity_check(points, step: float = 1e-5):
    """Pairwise brackets among the five-element involutive set (the three
    translation quantities, the mixed rank-3 scalar, and the Hamiltonian)
    at each supplied 3-d phase point; returns the max |bracket| per pair."""

    def et(i):
        return lambda q: float(q.P[i])

    fns = {
        "E_T1": et(0),
        "E_T2": et(1),
        "E_T3": et(2),
        "Q_3": lambda q: three_d_reduction(q).Q3,
        "H": hamiltonian,
    }
    names = list(fns)
    table = {}
    for a, b in itertools.combinations(names, 2):
        worst = 0.0
        for p in points:
            if p.dim != 3:
                raise ValueError("involutivity table requires dimension 3")
            worst = max(worst, abs(poisson_bracket_fd(fns[a], fns[b], p, step)))
        table[(a, b)] = worst
    return table
