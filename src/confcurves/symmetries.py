"""Conformal Killing fields, their Noether quantities along the flow, the
phase-space basis quantities, and the identities relating the two families
of conserved quantities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .curves import CurveJet
from .jets import JetScalar
from .mercator import PhasePoint, hamiltonian, mercator_C, poisson_bracket_fd
from .multilinear import antisymmetrize, epsilon

__all__ = [
    "Translation",
    "Rotation",
    "Dilatation",
    "SpecialConformal",
    "KillingField",
    "ckv_eval",
    "conformal_factor",
    "f_generic",
    "f_closed",
    "EQuantities",
    "e_quantities",
    "q_phase",
    "quantity_identities",
    "three_d_reduction",
    "involutivity_check",
]


@dataclass(frozen=True, eq=False)
class Translation:
    T: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "T", np.asarray(self.T, dtype=float))


@dataclass(frozen=True, eq=False)
class Rotation:
    """Infinitesimal rotation; the generator matrix is antisymmetrized
    exactly on construction, grossly asymmetric input is rejected."""

    R: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("rotation generator must be a square matrix")
        skew = 0.5 * (R - R.T)
        scale = np.max(np.abs(R)) or 1.0
        if np.max(np.abs(R - skew)) > 1e-9 * scale:
            raise ValueError("rotation generator is not antisymmetric")
        object.__setattr__(self, "R", skew)


@dataclass(frozen=True)
class Dilatation:
    a: float


@dataclass(frozen=True, eq=False)
class SpecialConformal:
    S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", np.asarray(self.S, dtype=float))


KillingField = Union[Translation, Rotation, Dilatation, SpecialConformal]


def ckv_eval(field: KillingField, x):
    """Value of the Killing field at a point."""
    x = np.asarray(x, dtype=float)
    if isinstance(field, Translation):
        return field.T.copy()
    if isinstance(field, Rotation):
        return field.R.T @ x
    if isinstance(field, Dilatation):
        return field.a * x
    if isinstance(field, SpecialConformal):
        return float(x @ x) * field.S - 2.0 * float(field.S @ x) * x
    raise TypeError(f"not a Killing field: {field!r}")


def _ckv_jet(field: KillingField, x: JetScalar) -> JetScalar:
    """The field evaluated on a position jet; exact since every generator
    is polynomial in the position."""
    if isinstance(field, Translation):
        return JetScalar.constant(field.T, x.order)
    if isinstance(field, Rotation):
        # R^T x, summed over the components of x in order
        v = x[0] * np.zeros(x.dim)
        for j in range(x.dim):
            v = v + x[j] * field.R[j]
        return v
    if isinstance(field, Dilatation):
        return x * field.a
    if isinstance(field, SpecialConformal):
        s = JetScalar.constant(field.S, x.order)
        return s * x.norm_sq() - x * (2.0 * x.dot(s))
    raise TypeError(f"not a Killing field: {field!r}")


def conformal_factor(field: KillingField, x):
    """The trace part of the Killing equation (divergence over dimension):
    zero for isometries, the rate for a dilatation, linear in the position
    for a special conformal generator."""
    x = np.asarray(x, dtype=float)
    if isinstance(field, (Translation, Rotation)):
        return 0.0
    if isinstance(field, Dilatation):
        return field.a
    if isinstance(field, SpecialConformal):
        return -2.0 * float(field.S @ x)
    raise TypeError(f"not a Killing field: {field!r}")


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


def f_closed(field: KillingField, jet: CurveJet):
    """Noether quantity in closed form, one expression per generator type."""
    jet.require_order(3, "closed-form Noether quantity")
    X, U, A = jet.X, jet.U, jet.A
    u2 = jet.u2
    C = mercator_C(jet)
    if isinstance(field, Translation):
        return -float(C @ field.T)
    if isinstance(field, Rotation):
        return float(np.einsum("ij,i,j->", field.R, U, A) / u2 + np.einsum("ij,i,j->", field.R, C, X))
    if isinstance(field, Dilatation):
        return -field.a * (float(U @ A) / u2 + float(C @ X))
    if isinstance(field, SpecialConformal):
        Y = (
            float(U @ X) / u2 * A
            - (1.0 + float(A @ X) / u2) * U
            + (float(U @ A) / u2 + float(C @ X)) * X
            - 0.5 * float(X @ X) * C
        )
        return 2.0 * float(field.S @ Y)
    raise TypeError(f"not a Killing field: {field!r}")


@dataclass(frozen=True, eq=False)
class EQuantities:
    """The (n+1)(n+2)/2 basis quantities in phase variables: one vector for
    translations, an antisymmetric matrix for rotations, a scalar for the
    dilatation, and one vector for the special conformal generators."""

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
    variables, keyed like :func:`confcurves.tractors.q_quantities`."""
    n = p.dim
    X, U, P, R = p.X, p.U, p.P, p.R
    UR = float(U @ R)
    X2 = float(X @ X)
    N = n + 1
    out = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        val = -UR * epsilon((i, j), U, R) + epsilon((i, j), U, P)
        val -= sum(epsilon((i, j, k), U, R, P) * X[k - 1] for k in range(1, n + 1))
        out[(0, i, j, N)] = val
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        val = (
            UR * epsilon((i, j, k), X, U, R)
            + epsilon((i, j, k), U, X, P)
            + 0.5 * X2 * epsilon((i, j, k), U, R, P)
        )
        val += sum(epsilon((i, j, k, l), X, U, R, P) * X[l - 1] for l in range(1, n + 1))
        out[(0, i, j, k)] = -val
        out[(i, j, k, N)] = -epsilon((i, j, k), U, R, P)
    for idx in itertools.combinations(range(1, n + 1), 4):
        out[idx] = -epsilon(idx, X, U, R, P)
    return out


def quantity_identities(p: PhasePoint):
    """Residuals of the four identities expressing the pairing quantities
    through the basis quantities.

    The pure-spatial identity is checked in multiplied-through form
    (``E_D`` times the quantity), so it is meaningful on the whole phase
    space.  Returns per-family dictionaries with the max absolute residual
    and the operand scale for relative comparisons.
    """
    n = p.dim
    q = q_phase(p)
    e = e_quantities(p)
    E_T, E_R, E_D, E_S = e.E_T, e.E_R, e.E_D, e.E_S

    report = {}

    def record(family, lhs, rhs):
        lhs = np.atleast_1d(lhs)
        rhs = np.atleast_1d(rhs)
        resid = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
        scale = float(np.max(np.abs(np.concatenate([lhs, rhs])))) if lhs.size else 0.0
        report[family] = {"residual": resid, "scale": scale}

    pairs = list(itertools.combinations(range(1, n + 1), 2))
    lhs1 = np.array([q[(0, i, j, n + 1)] for i, j in pairs])
    rhs1 = np.array(
        [
            0.5 * (E_T[i - 1] * E_S[j - 1] - E_T[j - 1] * E_S[i - 1]) - E_D * E_R[i - 1, j - 1]
            for i, j in pairs
        ]
    )
    record("0ijN", lhs1, rhs1)

    triples = list(itertools.combinations(range(1, n + 1), 3))
    rs = antisymmetrize(E_R[:, :, None] * E_S[None, None, :])
    rt = antisymmetrize(E_R[:, :, None] * E_T[None, None, :])
    lhs2 = np.array([q[(0, i, j, k)] for i, j, k in triples])
    rhs2 = np.array([1.5 * rs[i - 1, j - 1, k - 1] for i, j, k in triples])
    record("0ijk", lhs2, rhs2)
    lhs3 = np.array([q[(i, j, k, n + 1)] for i, j, k in triples])
    rhs3 = np.array([-3.0 * rt[i - 1, j - 1, k - 1] for i, j, k in triples])
    record("ijkN", lhs3, rhs3)

    quads = list(itertools.combinations(range(1, n + 1), 4))
    rst = antisymmetrize(E_R[:, :, None, None] * E_S[None, None, :, None] * E_T[None, None, None, :])
    lhs4 = np.array([E_D * q[idx] for idx in quads])
    rhs4 = np.array([6.0 * rst[i - 1, j - 1, k - 1, l - 1] for i, j, k, l in quads])
    record("ijkl", lhs4, rhs4)
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
