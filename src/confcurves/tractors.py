"""Canonical tractors along a curve, Gram invariants, and the conserved
quantities obtained by pairing parallel wedges with parallel sections.

The canonical sequence starts from the weighted inclusion ``u^{-1}`` in the
top null slot and repeatedly applies the connection ``d/dt + rho(velocity)``.
Each tractor is carried as ``(n+2)``-vector Taylor coefficients, so
parameter derivatives of any derived scalar (alpha_1, delta_4) come out
exact rather than by finite differences.  The ``*_stack`` functions do the
work for every row of a stack of position coefficients ``(..., n,
order+1)`` in one pass; one unbatched ``(n, order+1)`` row gives the bits
of row 0 of its stack.

Index conventions follow :mod:`confcurves.multilinear`: slot 0 and slot
``n+1`` are the null pair, slots ``1..n`` the Euclidean block.  Quantity
arrays follow :func:`q_keys`, increasing slot tuples; ``quantity_family``
classifies a key into one of the four index families.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .curves import _speed_sq, coefficients, derivatives
from .jets import _dot, _recip, _sqrt, _stack_product, _sum_rows
from .multilinear import minors, rho_wedge, tractor_metric_pair, wedge

__all__ = [
    "GramStack",
    "canonical_tractor_stack",
    "gram_stack",
    "is_conformal_circle",
    "q_keys",
    "q_stack",
    "quantity_family",
    "q_circle_stack",
    "alpha1_stationary_stack",
    "identity_residual_stack",
    "IdentityResiduals",
    "parallel_defect",
]

# Relative band below which delta_4 counts as vanishing (the conformal
# circle class), scaled against the natural size of the Gram entries.
CIRCLE_BAND = 1e-9


def canonical_tractor_stack(coeffs, count):
    """First ``count`` canonical tractors of every row of a position
    coefficient stack ``(..., n, order+1)``: the ``i``-th (from 0) as a
    coefficient array ``(..., n+2, order-i)``.

    ``count`` between 2 and 5; producing ``count`` tractors consumes
    position derivatives through order ``count``.
    """
    if not 2 <= count <= 5:
        raise ValueError("count must lie in 2..5")
    coeffs = np.asarray(coeffs, dtype=float)
    _speed_sq(coeffs, count, "canonical tractor sequence")
    order = coeffs.shape[-1] - 1
    u = coeffs[..., 1:] * np.arange(1, order + 1)
    first = np.zeros(coeffs.shape[:-2] + (coeffs.shape[-2] + 2, order))
    first[..., 0, :] = _recip(_sqrt(_sum_rows(_stack_product(u, u))))
    seq = [first]
    for _ in range(count - 1):
        cur = seq[-1]
        k = cur.shape[-1] - 2
        # slot by slot: the velocity before slot 0 in ``wi`` and after the
        # spatial slots in ``wN``, whose products add in component order
        # (the per-row jets of tests/jet_oracle.py check these bits)
        d = cur[..., 1:] * np.arange(1, k + 2)
        low, uk = cur[..., : k + 1], u[..., : k + 1]
        wi = d[..., 1:-1, :] + _stack_product(uk, low[..., :1, :])
        wN = d[..., -1:, :] - _sum_rows(_stack_product(low[..., 1:-1, :], uk))[..., None, :]
        seq.append(np.concatenate([d[..., :1, :], wi, wN], axis=-2))
    return seq


@functools.cache
def _row_orders(k):
    """Every assignment of Taylor orders to the four rows of a determinant
    whose total is at most ``k``, as a read-only ``(count, 4)`` array."""
    orders = [o for o in itertools.product(range(k + 1), repeat=4) if sum(o) <= k]
    orders = np.array(orders, dtype=np.intp)
    orders.flags.writeable = False
    return orders


def _pairing_jet(a, b):
    """Taylor coefficients of the metric pairing of two tractor coefficient
    arrays with the slot axis first and ``m`` coefficients last (leading
    axes broadcast): coefficient ``j`` adds the pairings of coefficient
    ``p`` of ``a`` with coefficient ``j-p`` of ``b`` in increasing ``p``."""
    m = a.shape[-1]
    pairs = tractor_metric_pair(a[..., :, None], b[..., None, :])
    total = np.add.outer(np.arange(m), np.arange(m))
    return np.stack([pairs[..., total == j].sum(axis=-1) for j in range(m)], axis=-1)


def _kappa1(delta4_jet, alpha1):
    """kappa_1, the curvature invariant constant exactly on logarithmic
    spirals, from the ``(..., k+1)`` coefficients (``k >= 2``) of the delta_4
    jet and from alpha_1; NaN off the negative-delta_4 class or inside the
    circle band."""
    delta4 = delta4_jet[..., 0]
    defined = (delta4 < 0.0) & ~is_conformal_circle(delta4, alpha1)
    # a stand-in value keeps the undefined rows clear of float errors
    d4 = np.where(defined, delta4, -1.0)
    d4p = delta4_jet[..., 1]
    d4pp = 2.0 * delta4_jet[..., 2]
    # ufunc powers: on the numpy scalars of one row ``**`` is libm's pow, off by an ulp
    value = -0.5 * np.power(-d4, -2.5) * (alpha1 * (d4 * d4) - 0.5 * d4 * d4pp + 0.5625 * (d4p * d4p))
    return np.where(defined, value, np.nan)


class GramStack(NamedTuple):
    """Determinant invariants, squared lengths of the third and fourth
    tractors and ``kappa1`` (NaN where undefined) of every row of a position
    coefficient stack, over its leading axes; ``gram`` is the symmetric
    pairing matrix, and delta_4 also comes as a jet ``(..., k+1)``.
    ``delta5`` is None at ``max_ell = 4``, ``kappa1`` below order 6."""

    delta3: np.ndarray
    delta4: np.ndarray
    delta5: np.ndarray | None
    alpha1: np.ndarray
    alpha2: np.ndarray
    kappa1: np.ndarray | None
    delta4_jet: np.ndarray
    gram: np.ndarray

    def gram_scale(self):
        """The largest ``|entry|`` of ``gram`` in each row."""
        return np.max(np.abs(self.gram), axis=(-2, -1))


def gram_stack(coeffs, max_ell: int = 5) -> GramStack:
    """Gram-matrix data of the first ``max_ell`` canonical tractors of every
    row of a position coefficient stack ``(..., n, order+1)``, in one pass."""
    if max_ell not in (4, 5):
        raise ValueError("max_ell must be 4 or 5")
    # the slot axis first, as tractor_metric_pair takes it
    trs = [np.moveaxis(t, -2, 0) for t in canonical_tractor_stack(coeffs, max_ell)]
    values = np.stack([t[..., 0] for t in trs], axis=-1)
    gram = tractor_metric_pair(values[..., :, None], values[..., None, :])
    # Taylor coefficients G_j of the pairings of the first four tractors;
    # each tractor has one order less than the one before it
    k = trs[3].shape[-1] - 1
    c = np.stack([t[..., : k + 1] for t in trs[:4]], axis=-2)
    G = np.moveaxis(_pairing_jet(c[..., :, None, :], c[..., None, :, :]), -1, -3)
    # the determinant is linear in each row: coefficient j sums the
    # determinants whose row r comes from G_{o_r}, over the orders o that
    # total j, added in table order as np.bincount adds them
    orders = _row_orders(k)
    dets = np.linalg.det(G[..., orders, np.arange(4), :])
    delta4_jet = np.zeros(dets.shape[:-1] + (k + 1,))
    np.add.at(np.moveaxis(delta4_jet, -1, 0), orders.sum(axis=1), np.moveaxis(dets, -1, 0))
    return GramStack(
        delta3=np.linalg.det(gram[..., :3, :3]),
        delta4=delta4_jet[..., 0],
        delta5=np.linalg.det(gram) if max_ell == 5 else None,
        alpha1=gram[..., 2, 2],
        alpha2=gram[..., 3, 3],
        kappa1=_kappa1(delta4_jet, gram[..., 2, 2]) if k >= 2 else None,
        delta4_jet=delta4_jet,
        gram=gram,
    )


def is_conformal_circle(delta4, alpha1):
    """Vanishing-band classification of the fourth determinant invariant."""
    return abs(delta4) <= CIRCLE_BAND * (1.0 + alpha1**2)


def quantity_family(key, n):
    """Classify an increasing slot tuple into its index family, e.g.
    ``(0, i, j, n+1) -> '0ijN'``: ``0`` if it holds slot 0, then one letter
    per spatial slot, then ``N`` if it holds slot ``n+1``."""
    head = "0" if key[0] == 0 else ""
    tail = "N" if key[-1] == n + 1 else ""
    return head + "ijkl"[: len(key) - len(head) - len(tail)] + tail


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
    column stack ``[X, U, A, B]`` (``eps(I; V..)`` is the minor of the
    rows ``I`` of the columns ``V..``):

    * ``0ijN``: ``w1 eps(ij; U,A) + w2 eps(ij; U,B) + w3 sum_l eps(ijl; U,A,B) X_l``
    * ``0ijk``: ``w1 eps(ijk; X,U,A) + w2 eps(ijk; X,U,B)
      + w3 (|X|^2/2 eps(ijk; U,A,B) + sum_l eps(ijkl; X,U,A,B) X_l)``
    * ``ijkN``: ``w3 eps(ijk; U,A,B)``
    * ``ijkl``: ``w3 eps(ijkl; X,U,A,B)``

    Leading axes of the vectors and the weights are batch axes.
    """
    w1, w2, w3 = (np.asarray(w)[..., None] for w in weights)
    M = np.stack([X, U, A, B], axis=-1)
    uab = minors(M[..., 1:])
    return (
        w1 * minors(M[..., [1, 2]]) + w2 * minors(M[..., [1, 3]]) + w3 * minors(M[..., 1:], X),
        w1 * minors(M[..., :3])
        + w2 * minors(M[..., [0, 1, 3]])
        + w3 * (0.5 * _dot(X, X)[..., None] * uab + minors(M, X)),
        w3 * uab,
        w3 * minors(M),
    )


def q_stack(coeffs):
    """The four families of pairing quantities of every row of a position
    coefficient stack ``(..., n, order+1)``, as an array with one entry per
    key of ``q_keys(n)``, in that order: weighted sums of batched minors of
    ``[X, U, A, A']`` with weights ``(3 (U.A)/u^4, -1/u^2, 1/u^4)``."""
    coeffs = np.asarray(coeffs, dtype=float)
    iu2 = 1.0 / _speed_sq(coeffs, 3, "pairing quantities")
    iu4 = iu2 * iu2
    X, U, A, Ap = derivatives(coeffs, 4)
    weights = (3 * iu4 * _dot(U, A), -iu2, iu4)
    return np.concatenate(_pairing_families(X, U, A, Ap, weights), axis=-1)


def q_circle_stack(coeffs):
    """The rank-3 pairing quantities (the conformal-circle family) of every
    row of a position coefficient stack ``(..., n, order+1)``, in the order
    of ``q_keys(n, 3)``: weighted sums of batched minors of ``[X, U, A]``;
    the rank-2 family sits at ``(0, i, j)`` and ``(i, j, n+1)``."""
    coeffs = np.asarray(coeffs, dtype=float)
    u2 = _speed_sq(coeffs, 2, "circle quantities")[..., None]
    X, U, A = derivatives(coeffs, 3)
    iu1 = 1.0 / np.sqrt(u2)
    iu3 = iu1 / u2
    M = np.stack([X, U, A], axis=-1)
    ua = minors(M[..., 1:])
    return np.concatenate(
        [
            iu1 * U + iu3 * minors(M[..., 1:], X),
            -iu1 * minors(M[..., :2]) + iu3 * (0.5 * _dot(X, X)[..., None] * ua - minors(M, X)),
            iu3 * ua,
            iu3 * minors(M),
        ],
        axis=-1,
    )


def alpha1_stationary_stack(coeffs):
    """Shift the fourth derivative of every row of a coefficient stack
    ``(..., n, order+1)`` along the velocity so that alpha_1 is stationary
    there: its derivative is linear in the fourth derivative, slope 2 per
    unit of velocity component, so one scalar solve per row suffices."""
    coeffs = np.asarray(coeffs, dtype=float)
    _speed_sq(coeffs, 4, "alpha_1 constraint")
    # alpha_1's jet: the metric square of the third tractor, slot axis first
    t2 = np.moveaxis(canonical_tractor_stack(coeffs, 3)[2], -2, 0)
    a1p = _pairing_jet(t2, t2)[..., 1]
    derivs = derivatives(coeffs, coeffs.shape[-1])
    derivs[4] = derivs[4] - (0.5 * a1p)[..., None] * derivs[1]
    return coefficients(derivs)


class IdentityResiduals(NamedTuple):
    """Both sides of the reduction identity and its defect, per row."""

    tractor_slot: np.ndarray
    mercator_expansion: np.ndarray
    identity_defect: np.ndarray


def identity_residual_stack(coeffs) -> IdentityResiduals:
    """Both sides of the identity between the tractor route and the flow for
    every row of a coefficient stack ``(..., n, order+1)``: the spatial slot
    of the dependency combination of the fifth canonical tractor, and the
    expanded derivative of the flow vector, whose defect ``max |expansion +
    slot / u|`` vanishes exactly where alpha_1 is stationary.  Inner products
    are :func:`_dot` columns and powers ``np.float_power``, libm's ``pow``."""
    coeffs = np.asarray(coeffs, dtype=float)
    u2 = _speed_sq(coeffs, 4, "reduction identity")[..., None]
    U, A, Ap, App = derivatives(coeffs, 5)[1:]
    u = np.sqrt(u2)
    pairs = ((U, A), (U, Ap), (U, App), (A, A), (A, Ap))
    UA, UAp, UApp, AA, AAp = (_dot(a, b)[..., None] for a, b in pairs)
    p = np.float_power
    mercator = (
        -24 * p(u2, -4) * p(UA, 3) * U
        + 16 * p(u2, -3) * UA * UAp * U
        + 12 * p(u2, -3) * UA * AA * U
        + 12 * p(u2, -3) * p(UA, 2) * A
        - 2 * p(u2, -2) * UApp * U
        - 4 * p(u2, -2) * AAp * U
        - 4 * p(u2, -2) * UAp * A
        - 3 * p(u2, -2) * AA * A
        - 4 * p(u2, -2) * UA * Ap
        + p(u2, -1) * App
    )
    # spatial slot of the dependency combination, with the fourth-derivative
    # inner product eliminated via stationarity of alpha_1
    slot = (
        -App / u
        + 4 * UA / p(u, 3) * Ap
        - (12 * p(UA, 2) / p(u, 5) - 4 * UAp / p(u, 3) - 3 * AA / p(u, 3)) * A
        + (6 * UA * AA / p(u, 5) - 4 * AAp / p(u, 3)) * U
    )
    return IdentityResiduals(slot, mercator, np.max(np.abs(mercator + slot / u), axis=-1))


def parallel_defect(curve, t, h, count=3):
    """Max-norm of the discrete connection derivative of the wedge of the
    first ``count`` canonical tractors along a curve sampler.

    ``curve`` maps a parameter value to a coefficient row.  A parallel
    wedge decays at second order in ``h``; a non-parallel one stays bounded
    away from zero.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    rows = np.stack([curve(s) for s in (t + h, t - h, t)])
    # one recurrence over the three sampled rows, then one wedge per row
    stack = canonical_tractor_stack(rows, count)
    wp, wm, w0 = (wedge([c[row, :, 0] for c in stack]) for row in range(3))
    deriv = (wp - wm) * (0.5 / h) + rho_wedge(rows[2, :, 1], w0, count)
    return float(np.max(np.abs(deriv)))
