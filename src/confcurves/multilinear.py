"""Dense small-vector algebra, alternating tensors, and wedge machinery.

Conventions used throughout the package:

* Spatial indices are 1-based (matching the superscripts of the conserved
  quantities), ambient slot indices run ``0, 1, ..., n, n+1`` where slot 0
  is the distinguished null direction paired with slot ``n+1`` by the
  metric, and slots ``1..n`` are the Euclidean block.
* ``minors`` gives, for every increasing index tuple at once, the
  determinant of the matrix whose rows are the selected components and
  whose columns are the argument vectors, as one batched determinant.
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
from typing import NamedTuple

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
    order, as a read-only ``(C(n, k), k)`` index array."""
    tuples = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    tuples = tuples.reshape(math.comb(n, k), k)
    tuples.flags.writeable = False
    return tuples


# float64 elements (8 MiB) that one chunk of the gathered minor matrices may
# hold: rows * C(n, k) * k^2 up to this, such as 900 rows of the rank-4
# minors at n = 8, is one chunk
_MINORS_BUDGET = 1 << 20


def minors(columns, border=None):
    """Minors of an ``(n, k)`` column stack ``[V_1 .. V_k]``, one per increasing
    row tuple ``I`` in :func:`index_tuples` order; leading axes of
    ``columns`` (and of ``border``) are batch axes.

    Without ``border``, ``I`` runs over the ``k``-tuples and the values are
    the determinants of the rows ``I`` of the stack.  With a vector
    ``border``, ``I`` runs over the ``(k-1)``-tuples and the values are
    ``sum_l det(rows I + (l,)) * border[l]``: by multilinearity in the last
    row, the determinants of the rows ``I`` of the stack bordered below by
    the one row ``border @ [V_1 .. V_k]``.
    """
    mat = np.asarray(columns, dtype=float)
    n, k = mat.shape[-2:]
    tuples = index_tuples(n, k if border is None else k - 1)
    if border is not None:
        edge = (np.asarray(border, dtype=float)[..., None, :] @ mat)[..., None, :, :]
    # the gathered (..., tuples, k, k) matrices are built a chunk of tuples
    # at a time, at most _MINORS_BUDGET elements; det takes each matrix on
    # its own, so the chunking leaves every value unchanged
    step = max(1, _MINORS_BUDGET // max(1, k * k * math.prod(mat.shape[:-2])))
    parts = []
    for start in range(0, max(len(tuples), 1), step):
        rows = mat[..., tuples[start : start + step], :]
        if border is not None:
            rows = np.concatenate(
                [rows, np.broadcast_to(edge, rows.shape[:-2] + (1, k))], axis=-2
            )
        parts.append(np.linalg.det(rows))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _perm_sign(perm):
    """Sign of a permutation: the parity of its inversion count."""
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


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


class _SlotTables(NamedTuple):
    """Index tables of one wedge space, whose slot tuples are
    ``index_tuples(ambient, rank)``.

    Each term of the nilpotent action is one entry of the ``rho_*`` arrays,
    listed in input-tuple order: the coefficient at ``rho_src`` times
    ``rho_sign * x[rho_comp]`` lands on ``rho_dst``.
    """

    rho_dst: np.ndarray
    rho_src: np.ndarray
    rho_comp: np.ndarray
    rho_sign: np.ndarray


@functools.cache
def _slot_tables(ambient, rank):
    n = ambient - 2
    slots = list(itertools.combinations(range(ambient), rank))
    position = {idx: k for k, idx in enumerate(slots)}

    def sort_sign(seq):
        return _perm_sign(sorted(range(rank), key=seq.__getitem__))

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
                new = idx[:pos] + (b,) + idx[pos + 1 :]
                terms.append((position[tuple(sorted(new))], src, comp, sign * sort_sign(new)))
    terms = np.array(terms, dtype=np.intp).reshape(-1, 4)
    tables = _SlotTables(
        rho_dst=terms[:, 0],
        rho_src=terms[:, 1],
        rho_comp=terms[:, 2],
        rho_sign=terms[:, 3].astype(float),
    )
    for arr in tables:
        arr.flags.writeable = False
    return tables


def wedge(tractors):
    """Antisymmetric product of ``k`` tractors, k in {3, 4}, as an array over
    ``itertools.combinations(range(n + 2), k)``.

    The coefficients are the :func:`minors` of the factors' column stack,
    so dependent tractors produce the zero wedge rather than an error.
    """
    if len(tractors) not in (3, 4):
        raise ValueError("wedge supports rank 3 and 4 only")
    # column_stack raises ValueError on factors of different lengths
    return minors(np.column_stack(tractors))


def rho_wedge(x, w, rank):
    """Nilpotent slot action generated by a spatial vector ``x``, extended
    to rank-``rank`` wedges as a derivation: the top null slot feeds the
    spatial block, the spatial block feeds the bottom null slot with a minus
    sign, the bottom slot is annihilated.  ``w`` may carry trailing batch
    axes."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    tables = _slot_tables(x.size + 2, rank)
    if w.shape[0] != math.comb(x.size + 2, rank):
        raise ValueError("spatial vector dimension mismatch")
    coef = (x[tables.rho_comp] * tables.rho_sign).reshape((-1,) + (1,) * (w.ndim - 1))
    out = np.zeros_like(w)
    # np.add.at sums each target in input-tuple order; the decay order of
    # parallel_defect is reported to round-off and depends on that order
    np.add.at(out, tables.rho_dst, coef * w[tables.rho_src])
    return out
