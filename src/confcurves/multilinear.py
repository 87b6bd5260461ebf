"""Dense small-vector algebra, alternating tensors, and wedge machinery.

Conventions used throughout the package:

* Spatial indices are 1-based (matching the superscripts of the conserved
  quantities), ambient slot indices run ``0, 1, ..., n, n+1`` where slot 0
  is the distinguished null direction paired with slot ``n+1`` by the
  metric, and slots ``1..n`` are the Euclidean block.
* ``minors`` gives, for every increasing index tuple at once, the
  determinant of the matrix whose rows are the selected components and
  whose columns are the argument vectors, by a Laplace recurrence over
  cached per-``(n, j)`` index tables: sums of products, exact on dyadic
  data.  ``wedge`` keeps LU determinants (see there).
* A tractor is an ``(n+2)``-vector in slot order ``0, 1..n, n+1``: an
  ndarray of values, or of Taylor coefficients ``(n+2, order+1)`` when its
  parameter derivatives are tracked.
* A rank-``k`` wedge is a plain array over the increasing slot tuples
  ``itertools.combinations(range(n + 2), k)``, in that order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

__all__ = [
    "index_tuples",
    "minors",
    "tractor_metric_pair",
    "wedge",
    "rho_wedge",
]


@functools.cache
def index_tuples(n, k):
    """The increasing ``k``-tuples of ``range(n)`` in ``itertools.combinations``
    order, as a read-only ``(C(n, k), k)`` index array: each ``(k-1)``-tuple
    in its order, followed in turn by every slot above its last."""
    if k == 0:
        tuples = np.zeros((1, 0), dtype=np.intp)
    else:
        prev = index_tuples(n, k - 1)
        first = prev[:, -1] + 1 if k > 1 else np.zeros(1, dtype=np.intp)
        counts = np.maximum(n - first, 0)
        tuples = np.empty((int(counts.sum()), k), dtype=np.intp)
        tuples[:, :-1] = np.repeat(prev, counts, axis=0)
        # slot first, first + 1, ... within each run of a repeated prefix
        starts = np.cumsum(counts) - counts
        tuples[:, -1] = np.arange(len(tuples)) + np.repeat(first - starts, counts)
    tuples.flags.writeable = False
    return tuples


@functools.cache
def _sub_positions(n, j):
    """For every increasing ``j``-tuple of ``range(n)``, the positions in
    :func:`index_tuples` ``(n, j-1)`` order of the tuple with its slot ``i``
    left out, as a read-only ``(j, C(n, j))`` array, row ``i`` for slot
    ``i``.  An increasing ``m``-tuple ``a`` has the lexicographic rank
    ``C(n, m) - 1 - sum_t C(n-1-a_t, m-t)`` (t from 0).  The positions
    are int32, half the size of ``index_tuples``: a level of ``2^31``
    tuples would not fit in memory."""
    tuples = index_tuples(n, j)
    # comb[r][x] = C(x, r), looked up at x = n-1-a_t and r = m - (place of a_t)
    comb = [np.array([math.comb(x, r) for x in range(n)], dtype=np.intp) for r in range(j)]
    sub = np.empty((j, len(tuples)), dtype=np.int32)
    for i in range(j):
        sub[i] = math.comb(n, j - 1) - 1
        for t in range(j):
            if t != i:
                # slot t sits at place t - (t > i) of the shorter tuple
                sub[i] -= comb[j - 1 - t + (t > i)][n - 1 - tuples[:, t]]
    sub.flags.writeable = False
    return sub


def _laplace_step(col, prev, m):
    """``sum_i (-1)^i col[I_i] prev[I without I_i]`` for every increasing
    ``m``-tuple ``I`` of ``range(n)``, ``n`` the length of ``col`` (``prev``
    over the ``(m-1)``-tuples), the terms added in order of ``i``."""
    n = col.shape[-1]
    tuples, sub = index_tuples(n, m), _sub_positions(n, m)
    # the gathers are fresh arrays, so the products and sums go in place
    acc = col[..., tuples[:, 0]]
    acc *= prev[..., sub[0]]
    for i in range(1, m):
        term = col[..., tuples[:, i]]
        term *= prev[..., sub[i]]
        if i % 2:
            acc -= term
        else:
            acc += term
    return acc


def minors(columns):
    """Minors of an ``(n, k)`` column stack ``[V_1 .. V_k]``, one per increasing
    row tuple ``I`` of ``k`` rows in :func:`index_tuples` order: the
    determinants of the rows ``I`` of the stack.  Leading axes of
    ``columns`` are batch axes.

    The values come by Laplace expansion, as sums of products: the minors
    of the last ``j`` columns expand along their first column into those
    of the last ``j - 1``.  Every sum adds in a fixed order, so integer or
    dyadic columns give the exact minors while they stay below ``2^53``,
    and a stacked call repeats the values of its rows to the bit.  The
    largest temporary has the size of one level ``(..., C(n, j))``.
    """
    mat = np.asarray(columns, dtype=float)
    k = mat.shape[-1]
    full = mat[..., k - 1].copy()
    for j in range(2, k + 1):
        full = _laplace_step(mat[..., k - j], full, j)
    return full


def tractor_metric_pair(a, b):
    """Indefinite pairing of two tractors: the two null slots cross-pair,
    the spatial block is Euclidean.  ``a`` and ``b`` have the slot axis
    first: arrays that broadcast against each other, such as ``(n+2, m,
    1)`` and ``(n+2, 1, m)`` column stacks for all pairings of ``m``
    tractors, or the vector jets of ``tests/jet_oracle.py``."""
    # spatial slots summed one by one in order, so stacked values repeat
    # one pairing's values to the bit
    spatial = functools.reduce(operator.add, a[1:-1] * b[1:-1])
    return a[0] * b[-1] + a[-1] * b[0] + spatial


@functools.cache
def _slot_tables(ambient, rank):
    """Read-only arrays ``(dst, src, comp, sign)`` of the nilpotent action on
    the wedges over ``index_tuples(ambient, rank)``, one entry per term in
    input-tuple order: ``sign * x[comp]`` times the coefficient at ``src``
    lands on ``dst``.  Slot ``b > a`` in the place of ``a``, sorted, has the
    sign ``(-1)^k``, ``k`` the tuple's slots strictly between the two."""
    n = ambient - 2
    slots = list(itertools.combinations(range(ambient), rank))
    position = {idx: k for k, idx in enumerate(slots)}
    terms = []
    for src, idx in enumerate(slots):
        for pos, a in enumerate(idx):
            # slot 0 -> sum_s x[s] * slot s; spatial slot a -> -x[a] * slot n+1
            if a == 0:
                targets = [(s, s - 1, 1) for s in range(1, n + 1)]
            elif a <= n:
                targets = [(n + 1, a - 1, -1)]
            else:
                continue
            for b, comp, sign in targets:
                if b in idx:
                    continue
                new = tuple(sorted(idx[:pos] + (b,) + idx[pos + 1 :]))
                terms.append((position[new], src, comp, sign * (-1) ** sum(a < s < b for s in idx)))
    terms = np.array(terms, dtype=np.intp).reshape(-1, 4)
    tables = (terms[:, 0], terms[:, 1], terms[:, 2], terms[:, 3].astype(float))
    for arr in tables:
        arr.flags.writeable = False
    return tables


def wedge(tractors):
    """Antisymmetric product of ``k`` tractors, k in {3, 4}, as an array over
    ``itertools.combinations(range(n + 2), k)``.

    The coefficients are the minors of the factors' column stack, so
    dependent tractors produce the zero wedge rather than an error.  They
    are LU determinants, ``np.linalg.det`` of the gathered ``k x k``
    matrices, not :func:`minors`' Laplace sums: the circle ``verify``'s
    ``t3_parallel_decay_order``, log2 of a ratio of O(h^2) wedge
    differences, is compared to a benchmark reference at 1e-13, and
    Laplace sums move the README circle's value by 5.5e-12 relative.
    """
    if len(tractors) not in (3, 4):
        raise ValueError("wedge supports rank 3 and 4 only")
    # column_stack raises ValueError on factors of different lengths
    mat = np.column_stack(tractors).astype(float)
    return np.linalg.det(mat[index_tuples(len(mat), len(tractors))])


def rho_wedge(x, w, rank):
    """Nilpotent slot action generated by a spatial vector ``x``, extended
    to rank-``rank`` wedges as a derivation: the top null slot feeds the
    spatial block, the spatial block feeds the bottom null slot with a minus
    sign, the bottom slot is annihilated.  ``w`` may carry trailing batch
    axes.  Each term is one entry of the :func:`_slot_tables` arrays."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    dst, src, comp, sign = _slot_tables(x.size + 2, rank)
    if w.shape[0] != math.comb(x.size + 2, rank):
        raise ValueError("spatial vector dimension mismatch")
    coef = (x[comp] * sign).reshape((-1,) + (1,) * (w.ndim - 1))
    out = np.zeros_like(w)
    # np.add.at sums each target in input-tuple order; the decay order of
    # parallel_defect is reported to round-off and depends on that order
    np.add.at(out, dst, coef * w[src])
    return out
