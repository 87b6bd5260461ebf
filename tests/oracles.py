"""Reference implementations that the package does not run, kept as the
independent oracles of its batched kernels: the per-tuple determinant
``epsilon`` (the oracle of :func:`confcurves.multilinear.minors`), the
pairing quantities from parallel sections and their hand-expanded sums of
weighted minors (the oracles of ``q_stack``, ``q_circle_stack`` and
``q_phase``), the hand-expanded sides of the identities between the
pairing and the basis quantities (the oracle of ``quantity_identities``),
the closed-form alpha_1 and delta_4 (the oracle of
``gram_stack``), the closed-form basis quantities of the curve data (the
oracle of ``tractors._tractor_bivector``), the five-element involutive set
of a 3-d phase point, the pointwise Killing field and its conformal factor, the
inversion of the momentum definitions, the per-item loops that the
batched ``f_generic_stack``, ``cli._spread`` and the ``relations`` draws
replaced, and the per-term last product coefficient and the
full-recompute Taylor lift that ``jets._product_coefficient`` and
``mercator.taylor_lift`` replaced.
"""

import functools
import itertools
import math

import numpy as np

from confcurves import cli
from confcurves.curves import _speed_sq, derivatives
from confcurves.jets import _dot, _recip, _stack_product, _sum_rows
from confcurves.mercator import flow_vector_stack, hamiltonian_stack, poisson_bracket
from confcurves.multilinear import index_tuples, minors, rho_wedge, wedge
from confcurves.symmetries import _bivector_square, basis_parts, e_stack, q_phase
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
    tractors = list(np.moveaxis(canonical_tractor_stack(coeffs, rank), -1, 0))
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


def bordered_minors(columns, border):
    """``sum_l det(rows I + (l,)) * border[l]`` of an ``(n, k)`` column stack,
    one per increasing ``(k-1)``-tuple ``I``: by multilinearity in the last
    row, the minors of the rows ``I`` bordered below by the row ``border @
    columns``.  The tuples ending in the border row ``n`` of the bordered
    stack come in the order of their first ``k-1`` slots."""
    n, k = columns.shape[-2:]
    edge = np.sum(border[..., :, None] * columns, axis=-2)
    full = minors(np.concatenate([columns, edge[..., None, :]], axis=-2))
    return full[..., index_tuples(n + 1, k)[:, -1] == n]


def pairing_families(X, U, A, B, weights):
    """The four rank-4 families in ``q_keys`` order, for a position ``X``,
    three vectors ``U, A, B`` and weights ``(w1, w2, w3)``, as minors of the
    column stack ``[X, U, A, B]`` (``eps(I; V..)`` is the minor of the
    rows ``I`` of the columns ``V..``):

    * ``0ijN``: ``w1 eps(ij; U,A) + w2 eps(ij; U,B) + w3 sum_l eps(ijl; U,A,B) X_l``
    * ``0ijk``: ``w1 eps(ijk; X,U,A) + w2 eps(ijk; X,U,B)
      + w3 (|X|^2/2 eps(ijk; U,A,B) + sum_l eps(ijkl; X,U,A,B) X_l)``
    * ``ijkN``: ``w3 eps(ijk; U,A,B)``
    * ``ijkl``: ``w3 eps(ijkl; X,U,A,B)``

    Leading axes of the vectors and the weights are batch axes.  It is the
    hand-expanded oracle of ``q_stack`` and ``q_phase``, which pair the
    canonical wedge with the parallel sections.
    """
    w1, w2, w3 = (np.asarray(w)[..., None] for w in weights)
    M = np.stack([X, U, A, B], axis=-1)
    uab = minors(M[..., 1:])
    return np.concatenate(
        [
            w1 * minors(M[..., [1, 2]]) + w2 * minors(M[..., [1, 3]]) + w3 * bordered_minors(M[..., 1:], X),
            w1 * minors(M[..., :3])
            + w2 * minors(M[..., [0, 1, 3]])
            + w3 * (0.5 * _dot(X, X)[..., None] * uab + bordered_minors(M, X)),
            w3 * uab,
            w3 * minors(M),
        ],
        axis=-1,
    )


def hand_q_stack(coeffs):
    """``q_stack`` by hand: :func:`pairing_families` of ``[X, U, A, A']``
    with the weights ``(3 (U.A)/u^4, -1/u^2, 1/u^4)``."""
    X, U, A, Ap = derivatives(np.asarray(coeffs, dtype=float), 4)
    iu2 = 1.0 / _dot(U, U)
    iu4 = iu2 * iu2
    return pairing_families(X, U, A, Ap, (3 * iu4 * _dot(U, A), -iu2, iu4))


def hand_q_phase(X, U, P, R):
    """``q_phase`` by hand: the curve-data form with ``(A, A')`` replaced by
    ``(R, P)`` and the weights by ``(-U.R, 1, -1)``."""
    return pairing_families(X, U, R, P, (-_dot(U, R), 1.0, -1.0))


def hand_quantity_identities(X, U, P, R):
    """The four identities between the pairing and the basis quantities as
    hand-expanded sides, ``family -> (lhs, rhs)`` arrays ``(..., keys)``
    from ``(..., n)`` phase components: ``lhs`` is the family's slice of
    ``q_phase``, multiplied by ``E_D`` for ``ijkl``, and ``rhs`` its sums
    of signed splits of the slot tuples.  The oracle of
    ``symmetries._bivector_square``, which reads them all off one square of
    the momentum bivector."""
    n = X.shape[-1]
    E_T, E_R, E_D, E_S = basis_parts(e_stack(X, U, P, R))
    E_D = E_D[..., None]
    sizes = np.cumsum([math.comb(n, 2), math.comb(n, 3), math.comb(n, 3)])
    q2, q3, q3N, q4 = np.split(q_phase(X, U, P, R), sizes, axis=-1)
    (i, j), (a, b, c), (w, x, y, z) = (tuple(index_tuples(n, k).T) for k in (2, 3, 4))

    def split3(v):
        # the signed splits of each increasing triple into a pair and a slot
        return E_R[..., a, b] * v[..., c] - E_R[..., a, c] * v[..., b] + E_R[..., b, c] * v[..., a]

    # the six signed splits of each increasing quadruple into two pairs
    W = E_S[..., :, None] * E_T[..., None, :] - E_T[..., :, None] * E_S[..., None, :]
    split4 = (
        E_R[..., w, x] * W[..., y, z] - E_R[..., w, y] * W[..., x, z] + E_R[..., w, z] * W[..., x, y]
        + E_R[..., x, y] * W[..., w, z] - E_R[..., x, z] * W[..., w, y] + E_R[..., y, z] * W[..., w, x]
    )
    return {
        "0ijN": (q2, 0.5 * (E_T[..., i] * E_S[..., j] - E_T[..., j] * E_S[..., i]) - E_D * E_R[..., i, j]),
        "0ijk": (q3, 0.5 * split3(E_S)),
        "ijkN": (q3N, -split3(E_T)),
        "ijkl": (E_D * q4, 0.5 * split4),
    }


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def noether_stack(X, U, A, Ap):
    """The momentum bivector in closed form in the curve data ``(X, U, A)``
    and the flow vector ``C`` over leading batch axes of ``(..., n)``
    derivative vectors: the oracle of the tractor route
    ``tractors._tractor_bivector``, independent of it and of ``e_stack``.
    The slot matrix holds ``M[0, i] = -E_S_i``, ``M[i, n+1] = -2 E_T_i``,
    ``M[0, n+1] = 2 E_D`` and ``M[i, j] = 2 E_R_ij``."""
    C = flow_vector_stack(U, A, Ap)
    u2, UA, CX, UX, AX, XX = (
        _dot(a, b)[..., None] for a, b in ((U, U), (U, A), (C, X), (U, X), (A, X), (X, X))
    )
    Y = UX / u2 * A - (1.0 + AX / u2) * U + (UA / u2 + CX) * X - 0.5 * XX * C
    n = X.shape[-1]
    M = np.zeros(X.shape[:-1] + (n + 2, n + 2))
    M[..., 0, 1:-1], M[..., 1:-1, -1], M[..., 0, -1] = -2.0 * Y, 2.0 * C, -2.0 * (UA / u2 + CX)[..., 0]
    M[..., 1:-1, 1:-1] = (_outer(U, A) - _outer(A, U)) / u2[..., None] + (_outer(C, X) - _outer(X, C))
    return M - np.swapaxes(M, -1, -2)


def involutivity_check(y):
    """Pairwise brackets among the five-element involutive set of 3-d phase
    rows ``y`` ``(..., 12)``: the three translation quantities, the mixed
    rank-4 pairing quantity ``Q_3`` (key ``1234``) read off ``-1/4 M^M``,
    and the Hamiltonian; the max |bracket| per pair.  Each pair is one
    complex-step ``poisson_bracket`` call through ``e_stack``,
    ``_bivector_square`` and ``hamiltonian_stack``, none of which casts to
    float; ``Q_3`` through ``q_phase``, whose determinants do, would read 0."""
    if np.shape(y)[-1] != 12:
        raise ValueError("involutivity table requires dimension 3")
    fns = {f"E_T{i + 1}": lambda X, U, P, R, i=i: P[..., i] for i in range(3)}
    fns["Q_3"] = lambda *p: _bivector_square(e_stack(*p))[..., 4]
    fns["H"] = lambda X, U, P, R: hamiltonian_stack(U, P, R)
    return {
        (a, b): float(np.max(np.abs(poisson_bracket(fns[a], fns[b], y))))
        for a, b in itertools.combinations(fns, 2)
    }


def hand_q_circle(coeffs):
    """``q_circle_stack`` by hand: weighted sums of minors of ``[X, U, A]``."""
    X, U, A = derivatives(np.asarray(coeffs, dtype=float), 3)
    u2 = _dot(U, U)[..., None]
    iu1 = 1.0 / np.sqrt(u2)
    iu3 = iu1 / u2
    M = np.stack([X, U, A], axis=-1)
    ua = minors(M[..., 1:])
    return np.concatenate(
        [
            iu1 * U + iu3 * bordered_minors(M[..., 1:], X),
            -iu1 * minors(M[..., :2]) + iu3 * (0.5 * _dot(X, X)[..., None] * ua - bordered_minors(M, X)),
            iu3 * ua,
            iu3 * minors(M),
        ],
        axis=-1,
    )


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


def field_ckv_stack(field, c):
    """The per-field body of ``symmetries._ckv_stack``: one field on every row
    of position coefficients ``(..., n, m)``, its own ``|x|^2`` jet and its
    own rotation matmul."""
    s_dot_x = (field.S[:, None] * c).sum(axis=-2)
    coeffs = (
        field.R.T @ c
        + field.a * c
        + field.S[:, None] * _sum_rows(_stack_product(c, c))[..., None, :]
        - 2.0 * _stack_product(c, s_dot_x[..., None, :])
    )
    coeffs[..., 0] += field.T
    return coeffs


def field_f_generic(field, coeffs):
    """The per-field body of ``f_generic_stack``: the Noether quantity of one
    field at every row of a coefficient stack, ``v``, ``w`` and ``C`` formed
    anew for the field."""
    coeffs = np.asarray(coeffs, dtype=float)
    _speed_sq(coeffs, 4, "generic Noether quantity")
    v = field_ckv_stack(field, coeffs[..., :4])
    vp = v[..., 1:] * np.arange(1, 4)
    u = coeffs[..., 1:4] * np.arange(1, 4)
    w = _stack_product(u, _recip(_sum_rows(_stack_product(u, u)))[..., None, :])
    U, A, Ap = derivatives(coeffs, 4)[1:]
    dWVp = _sum_rows(_stack_product(w, vp))[..., 1]
    return dWVp + _dot(w[..., 1], vp[..., 0]) - _dot(flow_vector_stack(U, A, Ap), v[..., 0])


def column_spread(values):
    """The per-column body of ``cli._spread``: one Python call per column of
    a 2-d table, the largest spread kept; a 1-d array is one column."""

    def spread(column):
        scale = 1.0 + float(np.max(np.abs(column)))
        return float(column.max() - column.min()) / scale

    values = np.asarray(values, dtype=float)
    return spread(values) if values.ndim == 1 else max(map(spread, values.T))


def scalar_phase_points(rng, n, count):
    """The per-draw body of ``cli._random_phase_points``: one ``4n`` draw at
    a time, kept when its squared speed is at least 0.1."""
    rows = []
    while len(rows) < count:
        y = rng.uniform(-1.0, 1.0, 4 * n)
        if float(y[n : 2 * n] @ y[n : 2 * n]) >= 0.1:
            rows.append(y)
    width = 16 * max(math.comb(n + 2, 4), (n + 2) ** 2)
    floor = cli._RELATIONS_ROWS if cli._RELATIONS_ROWS * width <= 8 * cli._RELATIONS_BUDGET else 1
    step = max(floor, cli._RELATIONS_BUDGET // width)
    return [np.split(np.array(rows[s : s + step]), 4, axis=-1) for s in range(0, count, step)]


def scalar_jet_identity_draws(rng, n, samples):
    """The per-vector draws of ``relations --jet-identity``, ``(5, samples,
    n)``: five ``n``-vectors per sample, the second redrawn until its
    square is at least 0.1."""
    draws = []
    for _ in range(samples):
        derivs = [rng.uniform(-1, 1, n) for _ in range(5)]
        while float(derivs[1] @ derivs[1]) < 0.1:
            derivs[1] = rng.uniform(-1, 1, n)
        draws.append(derivs)
    return np.swapaxes(draws, 0, 1)


def loop_product_coefficient(a, b, j):
    """The per-term body of ``jets._product_coefficient``: below the last
    coefficient the same dot, the last one product and one sum per term,
    added in order from 0.0."""
    if j < a.shape[-1] - 1:
        return _dot(a[..., : j + 1], b[..., j::-1])
    acc = 0.0
    for p in range(j + 1):
        acc = acc + a[..., p] * b[..., j - p]
    return acc


def full_taylor_lift(states, order=6):
    """The body of ``mercator.taylor_lift`` that recomputes all ``k+1``
    coefficients of ``U.U``, ``U.R`` and ``R.R`` at step ``k``, with
    :func:`loop_product_coefficient`, ``np.stack`` and ``np.moveaxis``."""
    states = np.asarray(states, dtype=float)
    n = states.shape[-1] // 4
    c = np.zeros(states.shape + (order + 1,))
    c[..., 0] = states
    for k in range(order):
        U, P, R = (c[..., i * n : (i + 1) * n, : k + 1] for i in (1, 2, 3))
        a, b = np.stack([U, U, R], axis=-3), np.stack([U, R, R], axis=-3)
        terms = np.stack([loop_product_coefficient(a, b, j) for j in range(k + 1)], axis=-1)
        u2, UR, R2 = np.moveaxis(functools.reduce(np.add, np.moveaxis(terms, -2, 0)), -2, 0)
        UR2, R2n = 0.0 + 2.0 * UR, 0.0 - R2
        scalars = np.stack([u2, UR2, R2n, UR2], axis=-2)[..., None, :]
        top = loop_product_coefficient(np.stack([R, U, U, R], axis=-3), scalars, k)
        u2R, URU, R2U, URR = np.moveaxis(top, -2, 0)
        c[..., :n, k + 1] = U[..., k] / (k + 1)
        c[..., n : 2 * n, k + 1] = (u2R - URU) / (k + 1)
        c[..., 3 * n :, k + 1] = (R2U + URR - P[..., k]) / (k + 1)
    return c[..., :n, :]
