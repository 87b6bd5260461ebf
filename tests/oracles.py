"""Reference implementations that the package does not run, kept as the
independent oracles of its batched kernels: the per-tuple determinant
``epsilon`` (the oracle of :func:`confcurves.multilinear.minors`), the
pairing quantities from parallel sections (the oracle of ``q_stack`` and
``q_circle_stack``), the closed-form alpha_1 and delta_4 (the oracle of
``gram_stack``), the pointwise Killing field and its conformal factor, and
the inversion of the momentum definitions.
"""

import functools
import itertools
import math

import numpy as np

from confcurves.curves import _speed_sq, derivatives
from confcurves.jets import _dot
from confcurves.multilinear import rho_wedge, wedge
from confcurves.tractors import canonical_tractor_stack


def _check_row(coeffs, order, what, name):
    """The entry checks of :func:`confcurves.curves._speed_sq` on one
    coefficient row ``(n, order+1)``; the function ``name`` rejects a
    stack."""
    coeffs = np.asarray(coeffs, dtype=float)
    _speed_sq(coeffs, order, what)
    if coeffs.ndim > 2:
        raise ValueError(f"{name} takes one coefficient row, got a stack of shape {coeffs.shape[:-2]}")


def epsilon(idx, *vectors):
    """Alternating tensor of rank ``len(idx)`` evaluated on ``vectors``.

    ``idx`` holds 1-based component indices, in any order and with repeats
    (which give 0); the value is the determinant of the matrix with rows
    ``idx`` and one column per vector.
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
    """Sign of a permutation: the parity of its inversion count."""
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


@functools.cache
def _duals(ambient, rank):
    """The position of each slot tuple's metric dual among the increasing
    rank-``rank`` tuples of ``range(ambient)``, and the sign of their
    pairing."""
    n = ambient - 2
    slots = list(itertools.combinations(range(ambient), rank))
    position = {idx: k for k, idx in enumerate(slots)}
    # the metric pairs slot 0 with slot n+1 and each spatial slot with itself
    partners = [tuple(n + 1 - a if a in (0, n + 1) else a for a in idx) for idx in slots]
    dual = np.array([position[tuple(sorted(p))] for p in partners], dtype=np.intp)
    sign = np.array([float(_perm_sign(sorted(range(rank), key=p.__getitem__))) for p in partners])
    return dual, sign


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
    dual, sign = _duals(ambient, rank)
    if dual.size != a.size:
        raise ValueError(f"{a.size} coefficients do not form a rank-{rank} wedge")
    return (a * sign) @ b[dual]


def parallel_section_oracle(coeffs, rank=4):
    """Quantities of one coefficient row ``(n, order+1)`` from first
    principles, keyed by slot tuple: each basis element of the rank-``rank``
    wedge space, moved to a parallel section at the curve's position by the
    quadratic exponential of the nilpotent action, paired with the wedge of
    the canonical tractors; agrees with ``q_stack`` and ``q_circle_stack``."""
    if rank not in (3, 4):
        raise ValueError("rank must be 3 or 4")
    _check_row(coeffs, rank, "parallel sections", "parallel_section_oracle")
    tractors = [c[..., 0] for c in canonical_tractor_stack(coeffs, rank)]
    X = np.asarray(coeffs, dtype=float)[:, 0]
    n = X.size
    slots = list(itertools.combinations(range(n + 2), rank))
    # Pairing fixes each quantity only up to the orientation of its basis
    # element.  For all-spatial indices plus the bottom null slot the metric
    # duality permutation is an odd 4-cycle; orienting those elements with a
    # minus sign gives the paired values the signs of the determinant
    # formulas of q_stack (and hence of the phase-space expressions).
    basis = np.diag(
        [-1.0 if rank == 4 and idx[0] != 0 and idx[-1] == n + 1 else 1.0 for idx in slots]
    )
    r1 = rho_wedge(X, basis, rank)
    r2 = rho_wedge(X, r1, rank)
    sections = basis - r1 + 0.5 * r2
    paired = wedge_pair(wedge(tractors), sections, rank)
    return dict(zip(slots, paired.tolist()))


def closed_form_alpha1_delta4(coeffs):
    """The two lowest invariants of one coefficient row ``(n, order+1)``
    from inner products of the derivatives alone (through the third
    derivative); an independent check against the Gram-determinant route."""
    coeffs = np.asarray(coeffs, dtype=float)
    _check_row(coeffs, 3, "closed-form invariants", "closed_form_alpha1_delta4")
    _, U, A, Ap = derivatives(coeffs, 4)
    u2 = float(U @ U)
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


def ckv_eval(field, x):
    """Value of a ``KillingField`` at a point."""
    x = np.asarray(x, dtype=float)
    return (
        field.T
        + field.R.T @ x
        + field.a * x
        + float(x @ x) * field.S
        - 2.0 * float(field.S @ x) * x
    )


def conformal_factor(field, x):
    """The trace part of the Killing equation (divergence over dimension):
    the dilatation rate plus ``-2 S.x`` from the special conformal part;
    isometries contribute nothing."""
    x = np.asarray(x, dtype=float)
    return field.a - 2.0 * float(field.S @ x)


def accel_from_phase(y):
    """Invert the momentum definitions of phase rows ``y``, ``(..., 4n)``,
    for the second and third derivative vectors, over their leading axes."""
    _, U, P, R = np.split(y, 4, axis=-1)
    u2, UR, UP, R2 = (_dot(a, b)[..., None] for a, b in ((U, U), (U, R), (U, P), (R, R)))
    A = -2 * UR * U + u2 * R
    Ap = (2 * UP + 4 * np.float_power(UR, 2) - u2 * R2) * U - 2 * u2 * UR * R - u2 * P
    return A, Ap
