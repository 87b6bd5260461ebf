"""Dense small-vector algebra, alternating tensors, and wedge machinery.

Conventions used throughout the package:

* Spatial indices are 1-based (matching the superscripts of the conserved
  quantities), ambient slot indices run ``0, 1, ..., n, n+1`` where slot 0
  is the distinguished null direction paired with slot ``n+1`` by the
  metric, and slots ``1..n`` are the Euclidean block.
* ``epsilon(idx, vectors)`` is the determinant of the matrix whose rows
  are the selected components and whose columns are the argument vectors,
  for *any* index tuple (repeats give 0, odd reorderings flip the sign).
* Antisymmetrization over bracketed indices includes the 1/m!
  normalization, so it is a projection.
* A tractor is an ``(n+2)``-vector in slot order ``0, 1..n, n+1``: an
  ndarray of values, or a vector jet when its parameter derivatives are
  tracked.
* A rank-``k`` wedge is a plain array over the increasing slot tuples
  ``itertools.combinations(range(n + 2), k)``, in that order.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "dot",
    "epsilon",
    "antisymmetrize",
    "tractor_metric_pair",
    "wedge",
    "wedge_pair",
    "rho_wedge",
]


def dot(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(a @ b)


def epsilon(idx, *vectors):
    """Alternating tensor of rank ``len(idx)`` evaluated on ``vectors``.

    ``idx`` holds 1-based component indices; the value is the determinant
    of the matrix with rows ``idx`` and one column per vector.
    """
    m = len(idx)
    if len(vectors) != m:
        raise ValueError(f"rank-{m} epsilon needs exactly {m} vectors")
    if len(set(idx)) < m:
        return 0.0
    mat = np.empty((m, m))
    for col, v in enumerate(vectors):
        v = np.asarray(v, dtype=float)
        for row, i in enumerate(idx):
            if not 1 <= i <= v.size:
                raise ValueError(f"index {i} out of range 1..{v.size}")
            mat[row, col] = v[i - 1]
    return float(np.linalg.det(mat))


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def antisymmetrize(array, axes=None):
    """Average of signed permutations of ``axes`` (all axes by default)."""
    arr = np.asarray(array, dtype=float)
    if axes is None:
        axes = tuple(range(arr.ndim))
    axes = tuple(axes)
    dims = {arr.shape[a] for a in axes}
    if len(dims) > 1:
        raise ValueError("antisymmetrized axes must have equal lengths")
    out = np.zeros_like(arr)
    for perm in itertools.permutations(range(len(axes))):
        order = list(range(arr.ndim))
        for pos, p in zip(axes, perm):
            order[pos] = axes[p]
        out += _perm_sign(perm) * np.transpose(arr, order)
    return out / math.factorial(len(axes))


def tractor_metric_pair(a, b):
    """Indefinite pairing of two tractors, arrays or vector jets: the two
    null slots cross-pair, the spatial block is Euclidean."""
    return a[0] * b[-1] + a[-1] * b[0] + a[1:-1].dot(b[1:-1])


class _SlotTables(NamedTuple):
    """Index tables of one wedge space.

    ``slots`` holds the slot tuples in combinations order.  Each term of the
    nilpotent action is one entry of the ``rho_*`` arrays, listed in
    input-tuple order: the coefficient at ``rho_src`` times
    ``rho_sign * x[rho_comp]`` lands on ``rho_dst``.  ``dual`` is the
    position of each tuple's metric dual and ``dual_sign`` the sign of
    their pairing.
    """

    slots: np.ndarray
    rho_dst: np.ndarray
    rho_src: np.ndarray
    rho_comp: np.ndarray
    rho_sign: np.ndarray
    dual: np.ndarray
    dual_sign: np.ndarray


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
    # the metric pairs slot 0 with slot n+1 and each spatial slot with itself
    partners = [tuple(n + 1 - a if a in (0, n + 1) else a for a in idx) for idx in slots]
    tables = _SlotTables(
        slots=np.array(slots, dtype=np.intp).reshape(-1, rank),
        rho_dst=terms[:, 0],
        rho_src=terms[:, 1],
        rho_comp=terms[:, 2],
        rho_sign=terms[:, 3].astype(float),
        dual=np.array([position[tuple(sorted(p))] for p in partners], dtype=np.intp),
        dual_sign=np.array([float(sort_sign(p)) for p in partners]),
    )
    for arr in tables:
        arr.flags.writeable = False
    return tables


def wedge(tractors):
    """Antisymmetric product of ``k`` tractors, k in {3, 4}, as an array over
    ``itertools.combinations(range(n + 2), k)``.

    The coefficient on each increasing slot tuple is the determinant of the
    corresponding component rows, so dependent tractors produce the zero
    wedge rather than an error.
    """
    k = len(tractors)
    if k not in (3, 4):
        raise ValueError("wedge supports rank 3 and 4 only")
    cols = [np.asarray(t, dtype=float) for t in tractors]
    ambient = cols[0].size
    if any(c.size != ambient for c in cols):
        raise ValueError("wedge factors must share the ambient dimension")
    mat = np.column_stack(cols)
    return np.linalg.det(mat[_slot_tables(ambient, k).slots])


def wedge_pair(a, b, rank):
    """Metric pairing of two rank-``rank`` wedges: the determinant pairing of
    simple wedges extended bilinearly to coefficient arrays.  ``b`` may
    carry trailing batch axes, giving one pairing per batch entry."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.shape[:1] != a.shape:
        raise ValueError("wedge rank or ambient dimension mismatch")
    ambient = rank
    while math.comb(ambient, rank) < a.size:
        ambient += 1
    tables = _slot_tables(ambient, rank)
    if len(tables.slots) != a.size:
        raise ValueError(f"{a.size} coefficients do not form a rank-{rank} wedge")
    return (a * tables.dual_sign) @ b[tables.dual]


def rho_wedge(x, w, rank):
    """Nilpotent slot action generated by a spatial vector ``x``, extended
    to rank-``rank`` wedges as a derivation: the top null slot feeds the
    spatial block, the spatial block feeds the bottom null slot with a minus
    sign, the bottom slot is annihilated.  ``w`` may carry trailing batch
    axes."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    tables = _slot_tables(x.size + 2, rank)
    if w.shape[0] != len(tables.slots):
        raise ValueError("spatial vector dimension mismatch")
    coef = (x[tables.rho_comp] * tables.rho_sign).reshape((-1,) + (1,) * (w.ndim - 1))
    out = np.zeros_like(w)
    # np.add.at sums each target in input-tuple order; the decay order of
    # parallel_defect is reported to round-off and depends on that order
    np.add.at(out, tables.rho_dst, coef * w[tables.rho_src])
    return out
