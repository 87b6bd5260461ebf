"""Canonical tractors along a curve, Gram invariants, and the conserved
quantities obtained by pairing parallel wedges with parallel sections.

The canonical sequence starts from the weighted inclusion ``u^{-1}`` in the
top null slot and repeatedly applies the connection ``d/dt + rho(velocity)``.
Each tractor is carried as an ``(n+2)``-vector jet, so parameter
derivatives of any derived scalar (alpha_1, delta_4) come out exact rather
than by finite differences.

Index conventions follow :mod:`confcurves.multilinear`: slot 0 and slot
``n+1`` are the null pair, slots ``1..n`` the Euclidean block.  Quantity
dictionaries are keyed by increasing slot tuples; ``quantity_family``
classifies a key into one of the four index families.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import CurveJet
from .jets import JetScalar
from .multilinear import minors, rho_wedge, tractor_metric_pair, wedge, wedge_pair

__all__ = [
    "UndefinedInvariantError",
    "GramInvariants",
    "canonical_tractor_jets",
    "canonical_tractors",
    "gram_invariants",
    "closed_form_alpha1_delta4",
    "is_conformal_circle",
    "q_keys",
    "q_quantities",
    "quantity_family",
    "parallel_section_oracle",
    "q_circle_quantities",
    "kappa1",
    "enforce_alpha1_stationary",
    "mercator_tractor_residuals",
    "IdentityResiduals",
    "parallel_defect",
]

# Relative band below which delta_4 counts as vanishing (the conformal
# circle class), scaled against the natural size of the Gram entries.
CIRCLE_BAND = 1e-9


class UndefinedInvariantError(ValueError):
    """Raised when an invariant is undefined on the given curve class
    (for example the spiral curvature on a conformal circle)."""


def canonical_tractor_jets(jet: CurveJet, count: int):
    """First ``count`` canonical tractors as ``(n+2)``-vector jets.

    ``count`` between 2 and 5; producing ``count`` tractors consumes
    position derivatives through order ``count``.
    """
    if not 2 <= count <= 5:
        raise ValueError("count must lie in 2..5")
    jet.require_order(count, "canonical tractor sequence")
    u_jet = jet.velocity_jet()
    order = u_jet.order
    u = u_jet.norm_sq().sqrt()
    first = np.zeros((jet.dim + 2, order + 1))
    first[0] = u.recip().coeffs
    seq = [JetScalar(first)]
    for _ in range(count - 1):
        cur = seq[-1]
        k = cur.order - 1
        if k < 0:
            raise ValueError("jet order exhausted in tractor recurrence")
        uk = u_jet.truncated(k)
        # slot by slot, in a fixed operand order, so values repeat to the bit
        d = cur.differentiate()
        low = cur.truncated(k)
        wi = d[1:-1] + uk * low[0]
        wN = d[-1] - low[1:-1].dot(uk)
        seq.append(JetScalar(np.vstack([d.coeffs[0], wi.coeffs, wN.coeffs])))
    return seq


def canonical_tractors(jet: CurveJet, count: int):
    """Pointwise values of the canonical tractor sequence, one
    ``(n+2)``-array each."""
    return [t.value for t in canonical_tractor_jets(jet, count)]


def _jet_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, entry in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = entry * _jet_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


@dataclass
class GramInvariants:
    """Determinant invariants of the canonical sequence and the squared
    lengths of the third and fourth tractors.  ``gram`` is the symmetric
    matrix of pairing values; alpha_1 and delta_4 also come as jets."""

    delta3: float
    delta4: float | None
    delta5: float | None
    alpha1: float
    alpha2: float | None
    alpha1_jet: JetScalar
    delta4_jet: JetScalar | None
    gram: np.ndarray

    def gram_scale(self, ell):
        return float(np.max(np.abs(self.gram[:ell, :ell])))

    def kappa1(self):
        """Relative curvature invariant of the negative-delta_4 class; needs
        the delta_4 jet through order 2, which a curve jet of order 6 gives."""
        d4 = self.delta4_jet
        if d4 is None or d4.order < 2:
            raise ValueError("kappa_1 needs the delta_4 jet through order 2")
        delta4 = d4.value
        if not delta4 < 0.0 or is_conformal_circle(delta4, self.alpha1):
            raise UndefinedInvariantError(
                f"kappa_1 undefined for delta_4 = {delta4:.3e}"
            )
        d4p = d4.differentiate()
        d4pp = d4p.differentiate()
        return (
            -0.5
            * (-delta4) ** -2.5
            * (
                self.alpha1 * delta4**2
                - 0.5 * delta4 * d4pp.value
                + 9.0 / 16.0 * d4p.value ** 2
            )
        )


def gram_invariants(jet: CurveJet, max_ell: int = 5) -> GramInvariants:
    """Gram-matrix data of the first ``max_ell`` canonical tractors."""
    if not 3 <= max_ell <= 5:
        raise ValueError("max_ell must lie in 3..5")
    trs = canonical_tractor_jets(jet, max_ell)
    pairs = {}
    for a, b in itertools.combinations_with_replacement(range(max_ell), 2):
        # each tractor has one order less than the one before it
        pairs[a, b] = pairs[b, a] = tractor_metric_pair(trs[a].truncated(trs[b].order), trs[b])
    gram = np.array([[pairs[a, b].value for b in range(max_ell)] for a in range(max_ell)])
    delta4_jet = None
    if max_ell >= 4:
        k = trs[3].order
        delta4_jet = _jet_det([[pairs[a, b].truncated(k) for b in range(4)] for a in range(4)])
    return GramInvariants(
        delta3=float(np.linalg.det(gram[:3, :3])),
        delta4=None if delta4_jet is None else delta4_jet.value,
        delta5=float(np.linalg.det(gram)) if max_ell == 5 else None,
        alpha1=float(gram[2, 2]),
        alpha2=float(gram[3, 3]) if max_ell >= 4 else None,
        alpha1_jet=pairs[2, 2],
        delta4_jet=delta4_jet,
        gram=gram,
    )


def closed_form_alpha1_delta4(jet: CurveJet):
    """The two lowest invariants from inner products of the derivatives
    alone (through the third derivative); an independent check against the
    Gram-determinant route."""
    jet.require_order(3, "closed-form invariants")
    U, A, Ap = jet.U, jet.A, jet.Ap
    u2 = jet.u2
    UA = float(U @ A)
    UAp = float(U @ Ap)
    AA = float(A @ A)
    AAp = float(A @ Ap)
    ApAp = float(Ap @ Ap)
    alpha1 = -6 * UA**2 / u2**2 + 2 * UAp / u2 + 3 * AA / u2
    delta4 = (
        9 * UA**4 / u2**4
        - 6 * UA**2 * UAp / u2**3
        - 9 * UA**2 * AA / u2**3
        + 6 * UA * AAp / u2**2
        + UAp**2 / u2**2
        - ApAp / u2
    )
    return alpha1, delta4


def is_conformal_circle(delta4, alpha1):
    """Vanishing-band classification of the fourth determinant invariant."""
    return abs(delta4) <= CIRCLE_BAND * (1.0 + alpha1**2)


def quantity_family(key, n):
    """Classify an increasing slot tuple into its index family, e.g.
    ``(0, i, j, n+1) -> '0ijN'``."""
    bottom = n + 1
    has0 = key[0] == 0
    hasN = key[-1] == bottom
    if len(key) == 4:
        if has0 and hasN:
            return "0ijN"
        if has0:
            return "0ijk"
        if hasN:
            return "ijkN"
        return "ijkl"
    if has0 and hasN:
        return "0iN"
    if has0:
        return "0ij"
    if hasN:
        return "ijN"
    return "ijk"


@functools.cache
def q_keys(n, rank=4):
    """Keys of the rank-``rank`` pairing quantities in dimension ``n``, family
    by family: ``(0, I, n+1)`` over the ``(rank-2)``-tuples ``I`` of spatial
    slots, then ``(0, I)`` and ``(I, n+1)`` over the ``(rank-1)``-tuples, then
    the ``rank``-tuples ``I``; each family in combinations order."""
    spatial = range(1, n + 1)
    N = n + 1
    keys = [(0, *t, N) for t in itertools.combinations(spatial, rank - 2)]
    keys += [(0, *t) for t in itertools.combinations(spatial, rank - 1)]
    keys += [(*t, N) for t in itertools.combinations(spatial, rank - 1)]
    keys += list(itertools.combinations(spatial, rank))
    return tuple(keys)


def _pairing_families(X, U, A, B, weights):
    """The four rank-4 families in :func:`q_keys` order, for a position ``X``,
    three vectors ``U, A, B`` and weights ``(w1, w2, w3)``, as minors of the
    column stack ``[X, U, A, B]`` (``eps`` is
    :func:`confcurves.multilinear.epsilon`):

    * ``0ijN``: ``w1 eps(ij; U,A) + w2 eps(ij; U,B) + w3 sum_l eps(ijl; U,A,B) X_l``
    * ``0ijk``: ``w1 eps(ijk; X,U,A) + w2 eps(ijk; X,U,B)
      + w3 (|X|^2/2 eps(ijk; U,A,B) + sum_l eps(ijkl; X,U,A,B) X_l)``
    * ``ijkN``: ``w3 eps(ijk; U,A,B)``
    * ``ijkl``: ``w3 eps(ijkl; X,U,A,B)``
    """
    w1, w2, w3 = weights
    M = np.column_stack([X, U, A, B])
    uab = minors(M[:, 1:])
    return (
        w1 * minors(M[:, [1, 2]]) + w2 * minors(M[:, [1, 3]]) + w3 * minors(M[:, 1:], X),
        w1 * minors(M[:, :3])
        + w2 * minors(M[:, [0, 1, 3]])
        + w3 * (0.5 * float(X @ X) * uab + minors(M, X)),
        w3 * uab,
        w3 * minors(M),
    )


def q_quantities(jet: CurveJet, scale_by_delta4: bool = False):
    """The four families of pairing quantities in terms of the position and
    its first three derivative vectors, keyed by :func:`q_keys`.

    Each family is a weighted sum of batched minors of ``[X, U, A, A']``
    with weights ``(3 (U.A)/u^4, -1/u^2, 1/u^4)``; see
    :func:`_pairing_families`.  With ``scale_by_delta4`` every value is
    multiplied by ``(-delta_4)^(-1/2)``, defined only on the negative-delta_4
    class.
    """
    jet.require_order(3, "pairing quantities")
    iu2 = 1.0 / jet.u2
    iu4 = iu2 * iu2
    factor = 1.0
    if scale_by_delta4:
        _, delta4 = closed_form_alpha1_delta4(jet)
        if not delta4 < 0.0:
            raise UndefinedInvariantError(
                f"scaling needs delta_4 < 0, got {delta4:.3e}"
            )
        factor = (-delta4) ** -0.5
    weights = (3 * iu4 * float(jet.U @ jet.A), -iu2, iu4)
    values = np.concatenate(_pairing_families(jet.X, jet.U, jet.A, jet.Ap, weights))
    return dict(zip(q_keys(jet.dim), (factor * values).tolist()))


def parallel_section_oracle(jet: CurveJet, rank: int = 4):
    """Quantities recomputed from first principles: for every basis element
    of the rank-``rank`` wedge space, transport it to a parallel section at
    the curve's position via the quadratic exponential of the nilpotent
    action, then pair with the wedge of the canonical tractors.

    Agrees with :func:`q_quantities` (rank 4) and
    :func:`q_circle_quantities` (rank 3).
    """
    if rank not in (3, 4):
        raise ValueError("rank must be 3 or 4")
    jet.require_order(rank, "section pairing")
    n = jet.dim
    slots = list(itertools.combinations(range(n + 2), rank))
    # Pairing fixes each quantity only up to the orientation of its basis
    # element.  For all-spatial indices plus the bottom null slot the metric
    # duality permutation is an odd 4-cycle; orienting those elements with a
    # minus sign gives the paired values the signs of the determinant
    # formulas of q_quantities (and hence of the phase-space expressions).
    basis = np.diag(
        [-1.0 if rank == 4 and idx[0] != 0 and idx[-1] == n + 1 else 1.0 for idx in slots]
    )
    r1 = rho_wedge(jet.X, basis, rank)
    r2 = rho_wedge(jet.X, r1, rank)
    sections = basis - r1 + 0.5 * r2
    paired = wedge_pair(wedge(canonical_tractors(jet, rank)), sections, rank)
    return dict(zip(slots, paired.tolist()))


def q_circle_quantities(jet: CurveJet):
    """The rank-3 pairing quantities (the conformal-circle family), keyed by
    ``q_keys(n, 3)``.

    The position-dependent rank-2 family sits at ``(0, i, j)``; the
    position-free one pairs with the spatial-plus-null elements and sits at
    ``(i, j, n+1)``.  Like :func:`q_quantities`, each family is a weighted
    sum of batched minors, here of ``[X, U, A]``.
    """
    jet.require_order(2, "circle quantities")
    X, U, A = jet.X, jet.U, jet.A
    iu1 = 1.0 / jet.u
    iu3 = iu1 / jet.u2
    M = np.column_stack([X, U, A])
    ua = minors(M[:, 1:])
    values = np.concatenate(
        [
            iu1 * U + iu3 * minors(M[:, 1:], X),
            -iu1 * minors(M[:, :2]) + iu3 * (0.5 * float(X @ X) * ua - minors(M, X)),
            iu3 * ua,
            iu3 * minors(M),
        ]
    )
    return dict(zip(q_keys(jet.dim, 3), values.tolist()))


def kappa1(jet: CurveJet):
    """Relative curvature invariant of the negative-delta_4 class; constant
    exactly on the logarithmic-spiral curves."""
    jet.require_order(6, "kappa_1")
    return gram_invariants(jet, max_ell=4).kappa1()


def enforce_alpha1_stationary(jet: CurveJet) -> CurveJet:
    """Shift the fourth derivative along the velocity so that the first
    invariant has zero parameter derivative at this point.

    The derivative of alpha_1 is linear in the fourth derivative with
    slope 2 per unit of velocity component, so a single scalar solve
    suffices; used to produce constrained random jets for the reduction
    identity tests.
    """
    jet.require_order(4, "alpha_1 constraint")
    g = gram_invariants(jet, max_ell=3)
    a1p = g.alpha1_jet.differentiate().value
    derivs = [jet.derivative(k) for k in range(jet.order + 1)]
    derivs[4] = derivs[4] - 0.5 * a1p * jet.U
    return CurveJet.from_derivatives(jet.t, derivs)


@dataclass
class IdentityResiduals:
    tractor_slot: np.ndarray
    mercator_expansion: np.ndarray
    identity_defect: float


def mercator_tractor_residuals(jet: CurveJet) -> IdentityResiduals:
    """Both sides of the consistency identity between the tractor route and
    the fourth-order flow: the spatial slot of the dependency combination
    of the fifth canonical tractor, and the expanded parameter derivative
    of the flow's constant vector.

    The defect ``max |expansion + u^{-1} * slot|`` vanishes exactly on jets
    with stationary alpha_1 (the slot is oriented to make the signs cancel
    that way round).
    """
    jet.require_order(4, "reduction identity")
    U, A, Ap, App = jet.U, jet.A, jet.Ap, jet.App
    u2 = jet.u2
    u = math.sqrt(u2)
    UA = float(U @ A)
    UAp = float(U @ Ap)
    UApp = float(U @ App)
    AA = float(A @ A)
    AAp = float(A @ Ap)

    mercator = (
        -24 * u2**-4 * UA**3 * U
        + 16 * u2**-3 * UA * UAp * U
        + 12 * u2**-3 * UA * AA * U
        + 12 * u2**-3 * UA**2 * A
        - 2 * u2**-2 * UApp * U
        - 4 * u2**-2 * AAp * U
        - 4 * u2**-2 * UAp * A
        - 3 * u2**-2 * AA * A
        - 4 * u2**-2 * UA * Ap
        + u2**-1 * App
    )
    # spatial slot of the dependency combination, with the fourth-derivative
    # inner product eliminated via stationarity of alpha_1
    slot = (
        -App / u
        + 4 * UA / u**3 * Ap
        - (12 * UA**2 / u**5 - 4 * UAp / u**3 - 3 * AA / u**3) * A
        + (6 * UA * AA / u**5 - 4 * AAp / u**3) * U
    )
    defect = float(np.max(np.abs(mercator + slot / u)))
    return IdentityResiduals(slot, mercator, defect)


def parallel_defect(curve, t, h, count=3, scaled=False):
    """Max-norm of the discrete connection derivative of the wedge of the
    first ``count`` canonical tractors along a curve sampler.

    ``curve`` maps a parameter value to a :class:`CurveJet`.  With
    ``scaled`` the wedge is normalized by ``(-delta_4)^(-1/2)`` first.  A
    parallel wedge decays at second order in ``h``; a non-parallel one
    stays bounded away from zero.
    """
    if h <= 0:
        raise ValueError("h must be positive")

    def wedge_at(s):
        j = curve(s)
        w = wedge(canonical_tractors(j, count))
        if scaled:
            _, d4 = closed_form_alpha1_delta4(j)
            if not d4 < 0.0:
                raise UndefinedInvariantError("scaled wedge needs delta_4 < 0")
            w = w * (-d4) ** -0.5
        return w

    wp = wedge_at(t + h)
    wm = wedge_at(t - h)
    w0 = wedge_at(t)
    center = curve(t)
    deriv = (wp - wm) * (0.5 / h) + rho_wedge(center.U, w0, count)
    return float(np.max(np.abs(deriv)))
