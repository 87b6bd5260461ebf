"""The conformally invariant fourth-order curve flow and its Hamiltonian form.

The flow says that a particular vector ``C`` built from the first three
derivative vectors is constant along the curve.  Writing the associated
second-order Lagrangian in Ostrogradsky variables produces a polynomial
Hamiltonian on the 4n-dimensional phase space ``(X, U, P, R)``; the
functions here take curve data to phase rows ``[X, U, P, R]``, ``(...,
4n)``, integrate the flow with classical RK4, and evaluate Poisson brackets
by complex step.  A whole RK4 run is one loop of straight-line float code
generated and compiled once per dimension: the same bits on every CPU and
BLAS, and those of a loop over float lists.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .curves import VELOCITY_FLOOR, DegenerateVelocityError, _speed_sq, derivatives
from .jets import _dot, _product_coefficient, _sum_rows

__all__ = [
    "Trajectory",
    "flow_vector_stack",
    "momenta_stack",
    "hamiltonian_stack",
    "circle_residual_stack",
    "phase_from_jet",
    "integrate",
    "poisson_bracket",
    "taylor_lift",
]


def flow_vector_stack(U, A, Ap):
    """The conserved vector ``C`` of the fourth-order flow (zero on spirals
    and lines) from the derivative vectors ``(..., n)``, over batch axes.

    Inner products are :func:`confcurves.jets._dot`, kept as ``(..., 1)``
    columns, and squares ``np.float_power``, the libm ``pow`` that Python's
    ``**`` calls, so a row has the bits of the scalar formula."""
    u2, AU, AA, ApU = (_dot(a, b)[..., None] for a, b in ((U, U), (A, U), (A, A), (Ap, U)))
    return (
        Ap
        - AA / u2 * U
        - 2 * AU / u2 * A
        + 4 * np.float_power(AU, 2) / np.float_power(u2, 2) * U
        - 2 * ApU / u2 * U
    ) / u2


def circle_residual_stack(U, A, Ap):
    """Left side of the third-order conformal-circle equation (zero exactly
    on projective circles and lines), over leading batch axes."""
    u2, AU, AA = (_dot(a, b)[..., None] for a, b in ((U, U), (A, U), (A, A)))
    return Ap - 3 * AU / u2 * A + 1.5 * AA / u2 * U


def momenta_stack(U, A, Ap):
    """Ostrogradsky momenta ``(P, R)`` of :func:`phase_from_jet` over
    leading batch axes of ``(..., n)`` derivative vectors."""
    u2, UA = _dot(U, U)[..., None], _dot(U, A)[..., None]
    return -flow_vector_stack(U, A, Ap), A / u2 - 2 * UA / np.float_power(u2, 2) * U


def phase_from_jet(coeffs) -> np.ndarray:
    """The phase row ``[X, U, P, R]``, ``(..., 4n)``, of every row of a
    coefficient stack ``(..., n, order+1)``: ``P`` is minus the flow vector,
    ``R`` the velocity-weighted acceleration."""
    coeffs = np.asarray(coeffs, dtype=float)
    _speed_sq(coeffs, 3, "flow vector")
    X, U, A, Ap = derivatives(coeffs, 4)
    return np.concatenate([X, U, *momenta_stack(U, A, Ap)], axis=-1)


def hamiltonian_stack(U, P, R):
    """The Hamiltonian over leading batch axes of ``(..., n)`` phase
    components."""
    UR = _dot(R, U)
    return _dot(P, U) - np.float_power(UR, 2) + 0.5 * _dot(U, U) * _dot(R, R)


_TERMS = 256  # products per statement: the compiler's recursion stays shallow


def _stage(u, r, p, du, dr):
    """Statements of the rates ``du``, ``dr`` (``U'``, ``R'``) at ``(u, r,
    p)``, all lists of local names.  Inner products add in order from the
    first product; floats overflow silently, so a non-finite one raises.  A
    speed below the floor leaves the step loop."""
    lines = []
    for v, a, b in (("uu", u, u), ("ur", u, r), ("rr", r, r)):
        for s in range(0, len(a), _TERMS):
            terms = " + ".join(map("{} * {}".format, a[s : s + _TERMS], b[s : s + _TERMS]))
            lines.append(f"{v} = {v} + {terms}" if s else f"{v} = {terms}")
    return lines + [
        "if not (isfinite(uu) and isfinite(ur) and isfinite(rr)):",
        "    raise FloatingPointError('the flow leaves the float range')",
        "if uu <= VELOCITY_FLOOR:",
        "    break",
        "ur2, rrn = 2.0 * ur, -rr",
        *map("{} = uu * {} - ur2 * {}".format, du, r, u),
        *map("{} = rrn * {} + ur2 * {} - {}".format, dr, u, r, p),
    ]


def _kernel_source(n):
    """Python source of a float function ``run(x.., u.., p.., r.., q..,
    half, h, sixth, steps, store_every, store)`` for dimension ``n``: a
    loop of ``steps`` straight-line RK4 steps from the phase row ``x..,
    u.., p.., r..``, whose stages past the first see ``P = q``.  After step
    ``k + 1`` it hands ``((k + 1) h, row)`` to ``store`` when ``k + 1`` is a
    multiple of ``store_every`` or is ``steps``.  A stage below the
    velocity floor ends the loop before its step moves the row, so ``run``
    returns ``k`` and the row that step ``k`` starts from, or ``steps`` and
    the last row."""
    if type(n) is not int or n < 1:
        raise ValueError(f"the RK4 kernel needs a positive int dimension, got {n!r}")
    x, u, p, r, q = ([f"{c}{i}" for i in range(n)] for c in "xuprq")
    U, R = ([v] + [[f"{a}_{k}" for a in v] for k in (2, 3, 4)] for v in (u, r))
    dU, dR = ([[f"d{a}_{k}" for a in v] for k in (1, 2, 3, 4)] for v in (u, r))
    row = f"({', '.join(x + u + p + r)})"
    body = _stage(u, r, p, dU[0], dR[0])
    for k, width in ((1, "half"), (2, "half"), (3, "h")):
        body += map(f"{{}} = {{}} + {width} * {{}}".format, U[k] + R[k], u + r, dU[k - 1] + dR[k - 1])
        body += _stage(U[k], R[k], q, dU[k], dR[k])
    # (h/6) (((k1 + 2 k2) + 2 k3) + k4); the stage rates of X are the stage
    # velocities, so X moves on before U does
    update = "{0} = {0} + sixth * ({1} + 2.0 * {2} + 2.0 * {3} + {4})".format
    body += [*map(update, x + u, *(U[k] + dU[k] for k in range(4))), *map(update, r, *dR)]
    body += [*map("{} = {}".format, p, q), "if (k + 1) % store_every == 0 or k + 1 == steps:",
             f"    store(((k + 1) * h, {row}))"]
    head = f"def run({', '.join(x + u + p + r + q)}, half, h, sixth, steps, store_every, store):"
    loop = ["for k in range(steps):", *(f"    {line}" for line in body), "else:", "    k = steps"]
    return "\n    ".join([head, *loop, f"return k, {row}"]) + "\n"


@functools.cache
def _kernel(n):
    """The ``run`` of :func:`_kernel_source`, compiled once per ``n``."""
    namespace = dict(globals(), isfinite=math.isfinite)
    exec(compile(_kernel_source(n), f"<rk4 kernel, n = {n}>", "exec"), namespace)
    return namespace["run"]


@dataclass
class Trajectory:
    """Stored samples of an integrated flow (every ``store_every``-th step);
    ``np.split(states, 4, axis=-1)`` is their components ``(X, U, P, R)``."""

    ts: np.ndarray
    states: np.ndarray  # shape (len(ts), 4n)
    dim: int
    h: float


def _trajectory(ts, states, n, h, y):
    """The stored samples as a :class:`Trajectory`, once the stored states
    and the current state ``y`` are checked finite: an inf or nan in the
    positions reaches no inner product of the RK4 kernel."""
    states = np.array(states)
    if not (np.all(np.isfinite(states)) and all(map(math.isfinite, y))):
        raise FloatingPointError("the flow leaves the float range")
    return Trajectory(np.array(ts), states, n, h)


class FlowDegeneracyError(DegenerateVelocityError):
    """Velocity degenerated mid-flow; carries the failure time and the
    partial trajectory accumulated so far."""

    def __init__(self, t, trajectory):
        super().__init__(f"velocity degenerated at t = {t:.6g}")
        self.t = t
        self.trajectory = trajectory


def integrate(y0, t_end: float, h: float = 1e-3, store_every: int = 10) -> Trajectory:
    """Classical fixed-step RK4 for the first-order system from the phase row ``y0``, ``(4n,)``.

    Samples are stored every ``store_every`` steps (plus the final point).
    Velocity degeneracy anywhere in a stage aborts with
    :class:`FlowDegeneracyError` holding the partial trajectory; a state
    that leaves the float range raises ``FloatingPointError``.  A row below
    the floor fails the first stage, at ``t = 0``.  The whole run is one
    call of the compiled ``run`` (:func:`_kernel_source`) on the row ``(X,
    U, P, R)``, which hands each stored row to ``list.append``; past the
    run's first stage ``P`` is ``p + 0.0``, the bits of ``p + (0.5 h)
    0.0``.  Rows lie within round-off (3e-14 in 100 steps) of the same
    steps with ``np.dot``.
    """
    if h <= 0 or t_end <= 0:
        raise ValueError("need h > 0 and t_end > 0")
    n = np.size(y0) // 4
    if np.shape(y0) != (4 * n,) or not n:
        raise ValueError(f"need a phase row of shape (4n,), got {np.shape(y0)}")
    run, steps = _kernel(n), int(round(t_end / h))
    y = tuple(np.asarray(y0, dtype=float).tolist())
    stored, q = [(0.0, y)], (p + 0.0 for p in y[2 * n : 3 * n])
    # a fixed operand grouping keeps the bits: (0.5 h) k and (h/6) (((k1 + 2 k2) + 2 k3) + k4)
    k, y = run(*y, *q, 0.5 * h, h, h / 6.0, steps, store_every, stored.append)
    ts, states = zip(*stored)
    trajectory = _trajectory(ts, states, n, h, y)
    if k < steps:
        raise FlowDegeneracyError(k * h, trajectory)
    return trajectory


_STEP = 1e-30  # the complex step: far below round-off of any order-unity coordinate


def poisson_bracket(f, g, y):
    """Canonical bracket ``{f, g}`` of two phase functions at every phase
    row of ``y``, ``(..., 4n)``, over its leading axes.

    ``f`` and ``g`` map component arrays ``(X, U, P, R)`` with leading batch
    axes to their values over those axes, as :func:`hamiltonian_stack` and
    :func:`confcurves.symmetries.e_stack` do.  Each gradient is a complex
    step, ``Im f(y + i h e_k) / h`` with ``h = 1e-30`` for all ``4n``
    directions of every row in one complex batch: exact to round-off for
    real polynomials, with nothing to tune.  A function that casts its
    input to float (such as :func:`confcurves.symmetries.q_phase`, whose
    determinants do) loses the imaginary part, and reads a bracket of 0;
    numpy warns with a ``ComplexWarning``.
    """
    y = y[..., None, :] + 1j * _STEP * np.eye(y.shape[-1])
    df, dg = (np.imag(fun(*np.split(y, 4, axis=-1))) / _STEP for fun in (f, g))
    # the symplectic pairing: positions (X, U) against momenta (P, R)
    (fq, fm), (gq, gm) = np.split(df, 2, axis=-1), np.split(dg, 2, axis=-1)
    return _dot(fq, gm) - _dot(gq, fm)


def taylor_lift(states, order: int = 6) -> np.ndarray:
    """Taylor coefficients ``(..., n, order+1)`` of the positions of the flow
    through each phase row ``[X, U, P, R]`` of a ``(..., 4n)`` array.

    The right-hand side is polynomial, so the coefficients follow by
    repeated substitution: step ``k`` needs coefficients ``0 .. k`` of
    ``U.U``, ``U.R`` and ``R.R`` but only coefficient ``k`` of the products
    built from them.  The inner-product coefficients carry over from step
    to step; a step forms only its new last one and redoes the one before,
    which stops being the last and sums as a dot.  A product puts a vector
    before its scalar factor and sums as
    :func:`confcurves.jets._product_coefficient` does, and inner products
    add their components in order, so every row repeats the substitution
    in the per-row ``np.convolve`` jets of ``tests/jet_oracle.py`` to the
    bit, batched or alone, at the orders where that helper does.
    """
    states = np.asarray(states, dtype=float)
    n = states.shape[-1] // 4
    c = np.zeros(states.shape + (order + 1,))
    c[..., 0] = states
    dots = np.zeros(states.shape[:-1] + (3, order + 1))  # U.U, U.R and R.R
    for k in range(order):
        U, P, R = (c[..., i * n : (i + 1) * n, : k + 1] for i in (1, 2, 3))
        a, b = np.stack([U, U, R], axis=-3), np.stack([U, R, R], axis=-3)
        for j in range(max(k - 1, 0), k + 1):
            dots[..., j : j + 1] = _sum_rows(_product_coefficient(a, b, j)[..., None])
        u2, UR, R2 = (dots[..., i, : k + 1] for i in range(3))
        # 2 UR and -R2 as products with constant jets give them: 0.0 for -0.0
        UR2, R2n = 0.0 + 2.0 * UR, 0.0 - R2
        scalars = np.stack([u2, UR2, R2n, UR2], axis=-2)[..., None, :]
        top = _product_coefficient(np.stack([R, U, U, R], axis=-3), scalars, k)
        u2R, URU, R2U, URR = np.moveaxis(top, -2, 0)
        # the P rows stay zero: the position momentum is conserved
        c[..., :n, k + 1] = U[..., k] / (k + 1)
        c[..., n : 2 * n, k + 1] = (u2R - URU) / (k + 1)
        c[..., 3 * n :, k + 1] = (R2U + URR - P[..., k]) / (k + 1)
    return c[..., :n, :]
