"""Canonical tractors along a curve, Gram invariants, and the conserved
quantities obtained by pairing parallel wedges with parallel sections.

The canonical sequence starts from the weighted inclusion ``u^{-1}`` in the
top null slot and repeatedly applies the connection ``d/dt + rho(velocity)``.
:func:`canonical_tractor_stack` returns the tractor values as columns ``(...,
n+2, count)``; the connection preserves the metric, so their Gram matrix
gives the pairings' parameter derivatives (alpha_1, delta_4) exactly, and one
pass serves a stack's Gram data, acceleration tractor and conserved
quantities (``GramStack.columns``).  In the parallel frame the first four
tractors give both curve-side families of conserved quantities: the pairing
quantities are the minors of their wedge, and the basis (Noether)
quantities form the momentum bivector of :func:`_tractor_bivector`.  The
``*_stack`` functions work on every row of a stack of position coefficients
``(..., n, order+1)`` in one pass; one unbatched ``(n, order+1)`` row gives
the bits of row 0 of its stack.

Index conventions follow :mod:`confcurves.multilinear`: slot 0 and slot
``n+1`` are the null pair, slots ``1..n`` the Euclidean block.  Quantity
arrays follow :func:`q_keys`, increasing slot tuples; ``quantity_family``
classifies a key into one of the four index families.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .curves import _speed_sq, coefficients, derivatives
from .jets import _dot, _recip, _sqrt, _stack_product, _sum_rows
from .mercator import _STEP, flow_vector_stack
from .multilinear import index_tuples, minors, rho_wedge, tractor_metric_pair, wedge

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


def _tractor_coeffs(coeffs, count):
    """The canonical recurrence: the first ``count`` tractors of every row of
    a position coefficient stack ``(..., n, order+1)``, the ``i``-th (from
    0) as a coefficient array ``(..., n+2, order-i)``."""
    if count < 2:
        raise ValueError("count must be at least 2")
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


def canonical_tractor_stack(coeffs, count):
    """Values ``(..., n+2, count)`` of the first ``count >= 2`` canonical
    tractors of every row of a stack ``(..., n, order+1)``, order >= ``count``."""
    return np.stack([t[..., 0] for t in _tractor_coeffs(coeffs, count)], axis=-1)


@functools.cache
def _row_orders(k):
    """Every assignment of Taylor orders to the four rows of a determinant
    whose total is at most ``k``, as a read-only ``(count, 4)`` array."""
    orders = [o for o in itertools.product(range(k + 1), repeat=4) if sum(o) <= k]
    orders = np.array(orders, dtype=np.intp)
    orders.flags.writeable = False
    return orders


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
    ``delta5`` is None below order 5, ``kappa1`` below order 6.  ``columns``
    holds the values ``(..., n+2, order)`` of ``T_0 .. T_{order-1}``."""

    delta3: np.ndarray
    delta4: np.ndarray
    delta5: np.ndarray | None
    alpha1: np.ndarray
    alpha2: np.ndarray
    kappa1: np.ndarray | None
    delta4_jet: np.ndarray
    gram: np.ndarray
    columns: np.ndarray

    def gram_scale(self):
        """The largest ``|entry|`` of ``gram`` in each row."""
        return np.max(np.abs(self.gram), axis=(-2, -1))


def _gram_jet(full, k):
    """Taylor coefficients ``(..., k+1, 4, 4)`` of the pairings of the first
    four canonical tractors, from the Gram matrix ``full`` of the values of
    the first ``k+4`` or more.  The connection preserves the tractor metric,
    ``d/dt <T_a, T_b> = <T_{a+1}, T_b> + <T_a, T_{b+1}>``, so ``G_j[a, b] =
    sum_p full[a+p, b+j-p] / (p! (j-p)!)``, added in increasing ``p``."""
    G = [full[..., :4, :4]]  # the block itself, so a -0.0 entry keeps its sign
    for j in range(1, k + 1):
        terms = [
            full[..., p : p + 4, j - p : j - p + 4] / (math.factorial(p) * math.factorial(j - p))
            for p in range(j + 1)
        ]
        G.append(sum(terms[1:], terms[0]))
    return np.stack(G, axis=-3)


def gram_stack(coeffs) -> GramStack:
    """Gram-matrix data of every row of a position coefficient stack
    ``(..., n, order+1)``, order at least 4, from one Gram matrix of the
    values of its canonical tractors ``T_0 .. T_{order-1}``: ``gram`` is the
    leading ``5 x 5`` block (``4 x 4`` at order 4), and the delta_4 jet the
    determinant of :func:`_gram_jet`.

    delta_3 and the delta_4 jet are Laplace sums (:func:`minors`).  delta_5
    stays the LU determinant ``np.linalg.det``: on a spiral it is
    round-off, which ``perfbench``'s trace reference compares at an
    absolute 1e-13, and Laplace sums of the ``5 x 5`` matrices were slower.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    _speed_sq(coeffs, 4, "canonical tractor sequence")
    columns = canonical_tractor_stack(coeffs, coeffs.shape[-1] - 1)
    values = np.moveaxis(columns, -2, 0)  # the slot axis first, as tractor_metric_pair takes it
    full = tractor_metric_pair(values[..., :, None], values[..., None, :])
    gram = full[..., :5, :5]
    k = columns.shape[-1] - 4
    # the determinant is linear in each row: coefficient j sums the
    # determinants whose row r comes from G_{o_r}, over the orders o that
    # total j, added in table order as np.bincount adds them
    orders = _row_orders(k)
    dets = minors(_gram_jet(full, k)[..., orders, np.arange(4), :])[..., 0]
    delta4_jet = np.zeros(dets.shape[:-1] + (k + 1,))
    np.add.at(np.moveaxis(delta4_jet, -1, 0), orders.sum(axis=1), np.moveaxis(dets, -1, 0))
    return GramStack(
        delta3=minors(gram[..., :3, :3])[..., 0],
        delta4=delta4_jet[..., 0],
        delta5=np.linalg.det(gram) if k >= 1 else None,
        alpha1=gram[..., 2, 2],
        alpha2=gram[..., 3, 3],
        kappa1=_kappa1(delta4_jet, gram[..., 2, 2]) if k >= 2 else None,
        delta4_jet=delta4_jet,
        gram=gram,
        columns=columns,
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


@functools.cache
def _pairing_layout(n, k):
    """Read-only arrays: the position of each :func:`q_keys` ``(n, k)`` tuple
    among the ``k``-tuples of ``range(n+2)`` (by family: slots 0 and ``n+1``,
    0 only, ``n+1`` only, neither), and its orientation, -1 on the rank-4
    ``ijkN`` keys (their metric duals are odd permutations)."""
    t = index_tuples(n + 2, k)
    family = 2 * (t[:, 0] != 0) + (t[:, -1] != n + 1)
    pos = np.concatenate([np.flatnonzero(family == f) for f in range(4)])
    sign = np.where((k == 4) & (family[pos] == 2), -1.0, 1.0)
    pos.flags.writeable = sign.flags.writeable = False
    return pos, sign


def _parallel_frame(columns, X):
    """Tractor columns ``(..., n+2, k)`` at the position ``X`` ``(..., n)``
    moved to the parallel frame and lowered by the metric, the top slots of
    all but the first column ``T_0`` taken as 0 (they cancel in a wedge with
    ``T_0``): ``rho`` is skew, so the parallel sections ``exp(-rho(X))`` of
    the basis pair with the columns moved by ``exp(rho(X))``, ``(top, mid,
    bot) -> (top, mid + X top, bot - X.mid - |X|^2/2 top)``, and lowering
    swaps slots 0 and ``n+1``."""
    top = np.zeros_like(columns[..., :1, :])
    top[..., 0, 0], mid, bot = columns[..., 0, 0], columns[..., 1:-1, :], columns[..., -1:, :]
    bot = bot - _sum_rows(X[..., :, None] * mid)[..., None, :] - 0.5 * _dot(X, X)[..., None, None] * top
    return np.concatenate([bot, mid + X[..., :, None] * top, top], axis=-2)


def _parallel_minors(columns, X):
    """The pairings of the wedge of ``k`` tractor columns ``(..., n+2, k)`` at
    ``X`` with the parallel sections of the basis wedges, in :func:`q_keys`
    order: the minors of the :func:`_parallel_frame` columns."""
    pos, sign = _pairing_layout(X.shape[-1], columns.shape[-1])
    return minors(_parallel_frame(columns, X))[..., pos] * sign


def _tractor_bivector(columns, X):
    """The momentum bivector ``M = 2 (T_1^T_2 - T_0^(T_3 + alpha_1 T_1))``,
    an antisymmetric ``(..., n+2, n+2)`` slot matrix, from the values
    ``(..., n+2, >= 4)`` of the canonical tractors at the position ``X``.
    The top slot of ``T_k`` is ``u tau_k T_0``, so ``M = 2 (T_1'^T_2' -
    T_0^W)`` with ``T_k'`` the :func:`_parallel_frame` columns and ``W =
    T_3' + (|T_2 mid|^2 - u tau_2) T_1' - u tau_1 T_2'`` (``T_2``'s bottom
    slot is ``-u``): moved with the frame, the top slots, of order
    ``u^{-2k-1}``, would cancel in the wedges only to ``eps / u^2``."""
    t0, t1, t2, t3 = np.moveaxis(_parallel_frame(columns[..., :4], X), -1, 0)
    u_tau1, u_tau2 = np.moveaxis(columns[..., 0, 1:3] / columns[..., 0, :1], -1, 0)
    beta = _dot(columns[..., 1:-1, 2], columns[..., 1:-1, 2]) - u_tau2  # alpha_1 + u tau_2
    w = t3 + beta[..., None] * t1 - u_tau1[..., None] * t2
    M = t1[..., :, None] * t2[..., None, :] - t0[..., :, None] * w[..., None, :]
    return 2.0 * (M - np.swapaxes(M, -1, -2))


def _curve_pairings(coeffs, k, what):
    """The rank-``k`` pairing quantities of every row of a coefficient stack,
    order at least ``k - 1``, from its first ``k`` tractor values.  Only the
    top slot of ``T_{k-1}`` reads coefficient ``k``, and the kernel takes it
    as 0, so a zero pads the rows of order ``k - 1``."""
    coeffs = np.asarray(coeffs, dtype=float)
    _speed_sq(coeffs, k - 1, what)
    rows = np.zeros(coeffs.shape[:-1] + (max(k + 1, coeffs.shape[-1]),))
    rows[..., : coeffs.shape[-1]] = coeffs
    return _parallel_minors(canonical_tractor_stack(rows, k), coeffs[..., 0])


def q_stack(coeffs):
    """The four families of pairing quantities of every row of a position
    coefficient stack ``(..., n, order+1)``, one entry per key of
    ``q_keys(n)``, in that order: the pairings of the wedge of ``T_0 ..
    T_3`` with the parallel sections (:func:`_parallel_minors`)."""
    return _curve_pairings(coeffs, 4, "pairing quantities")


def q_circle_stack(coeffs):
    """The rank-3 pairing quantities (the conformal-circle family) of every
    row of a position coefficient stack ``(..., n, order+1)``, in the order
    of ``q_keys(n, 3)``: the pairings of the wedge of ``T_0 .. T_2`` with the
    parallel sections; the rank-2 family sits at ``(0, i, j)`` and ``(i, j, n+1)``."""
    return _curve_pairings(coeffs, 3, "circle quantities")


def alpha1_stationary_stack(coeffs):
    """Shift the fourth derivative of every row of a coefficient stack
    ``(..., n, order+1)`` along the velocity so that alpha_1 is stationary
    there: its derivative is linear in the fourth derivative, slope 2 per
    unit of velocity component, so one scalar solve per row suffices."""
    coeffs = np.asarray(coeffs, dtype=float)
    _speed_sq(coeffs, 4, "alpha_1 constraint")
    # alpha_1' = 2 <T_2, T_3>, of the tractor values with the slot axis first
    values = np.moveaxis(canonical_tractor_stack(coeffs, 4), -2, 0)
    derivs = derivatives(coeffs, coeffs.shape[-1])
    derivs[4] = derivs[4] - tractor_metric_pair(values[..., 2], values[..., 3])[..., None] * derivs[1]
    return coefficients(derivs)


class IdentityResiduals(NamedTuple):
    """Both sides of the reduction identity and its defect, per row."""

    tractor_slot: np.ndarray
    mercator_expansion: np.ndarray
    identity_defect: np.ndarray


def identity_residual_stack(coeffs) -> IdentityResiduals:
    """Both sides of the identity between the tractor route and the flow for
    every row of a coefficient stack ``(..., n, order+1)``, each from the
    package's own route: the spatial slot of ``-(T_4 + alpha_1 T_2)``, with
    the canonical tractors of :func:`canonical_tractor_stack`, and ``C'``,
    the derivative of :func:`confcurves.mercator.flow_vector_stack` along
    the jet, by a complex step.  The defect ``max |C' + slot / u|``
    vanishes where alpha_1 is stationary."""
    coeffs = np.asarray(coeffs, dtype=float)
    u = np.sqrt(_speed_sq(coeffs, 4, "reduction identity"))[..., None]
    # the spatial and bottom slots of T_4 do not read the fifth position
    # coefficient, so it is taken as zero
    rows = np.zeros(coeffs.shape[:-1] + (6,))
    rows[..., :5] = coeffs[..., :5]
    t2, t4 = np.moveaxis(canonical_tractor_stack(rows, 5)[..., 2::2], -1, 0)
    alpha1 = tractor_metric_pair(*[np.moveaxis(t2, -1, 0)] * 2)[..., None]
    slot = -(t4[..., 1:-1] + alpha1 * t2[..., 1:-1])
    # each derivative vector moves by i h times the next one
    d = derivatives(coeffs, 5)
    dflow = flow_vector_stack(*(d[k] + 1j * _STEP * d[k + 1] for k in (1, 2, 3))).imag / _STEP
    return IdentityResiduals(slot, dflow, np.max(np.abs(dflow + slot / u), axis=-1))


def parallel_defect(curve, t, steps, count=3):
    """Max-norms of the discrete connection derivative of the wedge of the
    first ``count`` canonical tractors along a curve sampler, one per step.

    ``curve`` maps a 1-d array of parameter values to a coefficient stack;
    one call samples ``t + h, t - h`` for each step ``h`` in turn, then
    ``t``.  A parallel wedge decays at second order in ``h``; a
    non-parallel one stays bounded away from zero.
    """
    steps = np.asarray(steps, dtype=float)
    if np.any(steps <= 0):
        raise ValueError("h must be positive")
    rows = curve(np.append(np.column_stack([t + steps, t - steps]), t))
    # one recurrence over the sampled rows, then one wedge per row
    columns = canonical_tractor_stack(rows, count)
    wedges = np.array([wedge(row.T) for row in columns])
    deriv = (wedges[:-1:2] - wedges[1::2]) * (0.5 / steps)[:, None]
    return np.max(np.abs(deriv + rho_wedge(rows[-1, :, 1], wedges[-1], count)), axis=-1)
