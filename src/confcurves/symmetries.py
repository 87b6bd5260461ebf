"""Conformal Killing fields, their Noether quantities along the flow, the
phase-space basis quantities, and the identities relating the two families
of conserved quantities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import CurveJet
from .jets import JetScalar
from .mercator import PhasePoint, hamiltonian, mercator_C, poisson_bracket_fd
from .multilinear import antisymmetrize, index_tuples
from .tractors import _pairing_families, q_keys

__all__ = [
    "KillingField",
    "ckv_eval",
    "conformal_factor",
    "f_generic",
    "noether_basis",
    "f_closed",
    "EQuantities",
    "e_quantities",
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
        ``T.E_T + <R, E_R>/2 + a E_D + S.E_S``."""
        return (
            float(self.T @ basis.E_T)
            + 0.5 * float(np.sum(self.R * basis.E_R))
            + self.a * basis.E_D
            + float(self.S @ basis.E_S)
        )


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


def _ckv_jet(field: KillingField, x: JetScalar) -> JetScalar:
    """The field evaluated on a position jet; exact since the field is
    polynomial in the position.  The parts linear in ``x`` act on the
    coefficients directly."""
    c = x.coeffs
    # S.x summed in component order, as JetScalar.dot does
    s_dot_x = JetScalar((field.S[:, None] * c).sum(axis=0))
    coeffs = (
        field.R.T @ c
        + field.a * c
        + np.outer(field.S, x.norm_sq().coeffs)
        - 2.0 * (x * s_dot_x).coeffs
    )
    coeffs[:, 0] += field.T
    return JetScalar(coeffs)


def conformal_factor(field: KillingField, x):
    """The trace part of the Killing equation (divergence over dimension):
    the dilatation rate plus ``-2 S.x`` from the special conformal part;
    isometries contribute nothing."""
    x = np.asarray(x, dtype=float)
    return field.a - 2.0 * float(field.S @ x)


def f_generic(field: KillingField, jet: CurveJet):
    """Noether quantity of the flow for an arbitrary Killing field,
    evaluated directly from its defining expression with every derivative
    taken through the jet."""
    jet.require_order(4, "generic Noether quantity")
    x = jet.position
    v = _ckv_jet(field, x)
    vp = v.differentiate()
    u_jet = x.differentiate()
    k = vp.order
    w = u_jet.truncated(k) * u_jet.truncated(k).norm_sq().recip()
    dWVp = w.dot(vp).differentiate().value
    WpVp = float(np.dot(w.differentiate().value, vp.value))
    C = mercator_C(jet)
    return dWVp + WpVp - float(C @ v.value)


def noether_basis(jet: CurveJet) -> EQuantities:
    """The basis quantities in closed form in the curve data ``(X, U, A)``
    and the flow vector ``C``, independent of the phase-space route of
    :func:`e_quantities`."""
    jet.require_order(3, "closed-form Noether quantity")
    X, U, A = jet.X, jet.U, jet.A
    u2 = jet.u2
    C = mercator_C(jet)
    F_R = (np.outer(U, A) - np.outer(A, U)) / u2 + (np.outer(C, X) - np.outer(X, C))
    F_D = -(float(U @ A) / u2 + float(C @ X))
    Y = (
        float(U @ X) / u2 * A
        - (1.0 + float(A @ X) / u2) * U
        + (float(U @ A) / u2 + float(C @ X)) * X
        - 0.5 * float(X @ X) * C
    )
    return EQuantities(-C, F_R, F_D, 2.0 * Y)


def f_closed(field: KillingField, jet: CurveJet):
    """Noether quantity in closed form: the field paired with
    :func:`noether_basis`."""
    return field.pair(noether_basis(jet))


@dataclass(frozen=True, eq=False)
class EQuantities:
    """The (n+1)(n+2)/2 basis quantities: one vector for translations, an
    antisymmetric matrix for rotations, a scalar for the dilatation, and one
    vector for the special conformal generators.  They come from the phase
    variables (:func:`e_quantities`), from the curve data
    (:func:`noether_basis`) or from a family's closed form;
    :meth:`KillingField.pair` gives a field's quantity from them."""

    E_T: np.ndarray
    E_R: np.ndarray
    E_D: float
    E_S: np.ndarray

    def rotation_pairs(self):
        n = self.E_T.size
        return {(i, j): self.E_R[i - 1, j - 1] for i, j in itertools.combinations(range(1, n + 1), 2)}

    def rotation_vector3(self):
        """3-d packing of the rotation matrix as an axial vector."""
        if self.E_T.size != 3:
            raise ValueError("axial packing needs dimension 3")
        return np.array([self.E_R[1, 2], -self.E_R[0, 2], self.E_R[0, 1]])


def e_quantities(p: PhasePoint) -> EQuantities:
    X, U, P, R = p.X, p.U, p.P, p.R
    E_R = np.outer(X, P) - np.outer(P, X) + np.outer(U, R) - np.outer(R, U)
    E_D = float(X @ P) + float(U @ R)
    E_S = (
        float(X @ X) * P
        + 2.0 * float(X @ U) * R
        - 2.0 * E_D * X
        - 2.0 * (1.0 + float(X @ R)) * U
    )
    return EQuantities(P.copy(), E_R, E_D, E_S)


def q_phase(p: PhasePoint):
    """The four pairing-quantity families as polynomials in the phase
    variables, keyed by :func:`confcurves.tractors.q_keys` like
    :func:`confcurves.tractors.q_quantities`.

    They are the curve-data forms with ``(A, A')`` replaced by ``(R, P)`` and
    the weights ``(3 (U.A)/u^4, -1/u^2, 1/u^4)`` by ``(-U.R, 1, -1)``.
    """
    families = _pairing_families(p.X, p.U, p.R, p.P, (-float(p.U @ p.R), 1.0, -1.0))
    return dict(zip(q_keys(p.dim), np.concatenate(families).tolist()))


def quantity_identities(p: PhasePoint):
    """Residuals of the four identities expressing the pairing quantities
    through the basis quantities.

    The pure-spatial identity is checked in multiplied-through form
    (``E_D`` times the quantity), so it is meaningful on the whole phase
    space.  Returns per-family dictionaries with the max absolute residual
    and the operand scale for relative comparisons.
    """
    n = p.dim
    e = e_quantities(p)
    E_T, E_R, E_D, E_S = e.E_T, e.E_R, e.E_D, e.E_S
    # q_phase lists its values in q_keys order, one family after another
    q = np.array(list(q_phase(p).values()))
    q2, q3, q3N, q4 = np.split(q, np.cumsum([math.comb(n, 2), math.comb(n, 3), math.comb(n, 3)]))
    (i, j), triples, quads = (tuple(index_tuples(n, k).T) for k in (2, 3, 4))
    sides = {
        "0ijN": (q2, 0.5 * (E_T[i] * E_S[j] - E_T[j] * E_S[i]) - E_D * E_R[i, j]),
        "0ijk": (q3, 1.5 * antisymmetrize(E_R[:, :, None] * E_S)[triples]),
        "ijkN": (q3N, -3.0 * antisymmetrize(E_R[:, :, None] * E_T)[triples]),
        "ijkl": (E_D * q4, 6.0 * antisymmetrize(E_R[:, :, None, None] * E_S[:, None] * E_T)[quads]),
    }
    report = {}
    for family, (lhs, rhs) in sides.items():
        resid = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
        scale = float(np.max(np.abs(np.concatenate([lhs, rhs])))) if lhs.size else 0.0
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
