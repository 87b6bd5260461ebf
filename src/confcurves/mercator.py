"""The conformally invariant fourth-order curve flow and its Hamiltonian form.

The flow says that a particular vector ``C`` built from the first three
derivative vectors is constant along the curve.  Writing the associated
second-order Lagrangian in Ostrogradsky variables produces a polynomial
Hamiltonian on the 4n-dimensional phase space ``(X, U, P, R)``; the
functions here convert between the two pictures, integrate the flow with
classical RK4, and evaluate Poisson brackets by central differences.  The
right-hand side never reads ``X`` and keeps ``P`` fixed, so RK4 stages
carry only ``(U, R)`` and ``X`` advances from the four stage velocities;
stages are plain float arithmetic, with the same bits on every CPU and BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import VELOCITY_FLOOR, DegenerateVelocityError, _speed_sq, derivatives
from .jets import JetScalar, _dot, _product_coefficient, _stack_product, _sum_rows

__all__ = [
    "PhasePoint",
    "Trajectory",
    "flow_vector_stack",
    "momenta_stack",
    "hamiltonian_stack",
    "lagrangians",
    "circle_residual_stack",
    "phase_from_jet",
    "accel_from_phase",
    "hamiltonian",
    "hamilton_rhs",
    "integrate",
    "poisson_bracket_fd",
    "taylor_lift",
]


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """State of the first-order system: position, velocity, and the two
    conjugate momenta.  The components share one ``(..., n)`` shape; leading
    axes stack points, and every row is checked against the velocity
    floor."""

    X: np.ndarray
    U: np.ndarray
    P: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for name in ("X", "U", "P", "R"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        shape = self.X.shape
        if not shape or any(getattr(self, k).shape != shape for k in ("U", "P", "R")):
            raise ValueError("phase components must share one (..., n) shape")
        u2 = _dot(self.U, self.U)
        if np.any(u2 <= VELOCITY_FLOOR):
            raise DegenerateVelocityError(f"squared speed {np.min(u2):.3e} below floor")

    @property
    def dim(self):
        return self.X.shape[-1]

    @property
    def u2(self):
        u2 = _dot(self.U, self.U)
        return float(u2) if u2.ndim == 0 else u2

    def require_row(self, what):
        if self.X.ndim != 1:
            raise ValueError(f"{what} takes one phase point, got a stack of shape {self.X.shape[:-1]}")

    def flat(self):
        return np.concatenate([self.X, self.U, self.P, self.R], axis=-1)

    @classmethod
    def from_flat(cls, y, n):
        """The point of each ``(..., 4n)`` row laid out like :meth:`flat`."""
        return cls(y[..., 0:n], y[..., n : 2 * n], y[..., 2 * n : 3 * n], y[..., 3 * n : 4 * n])


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


def lagrangians(coeffs):
    """Third- and second-order Lagrangians ``L``, ``L1`` of one row.

    They differ by the total derivative of ``u^{-2} <U, A>``, which is
    evaluated through the jet, so ``L`` needs one more derivative level.
    """
    _speed_sq(np.asarray(coeffs, dtype=float), 3, "Lagrangian", row="lagrangians")
    position = JetScalar(coeffs)
    U, A = position.derivative(1), position.derivative(2)
    u2 = float(U @ U)
    UA = float(U @ A)
    L1 = 0.5 * float(A @ A) / u2 - UA**2 / u2**2

    u_jet = position.differentiate()
    a_jet = u_jet.differentiate()
    k = a_jet.order
    q = u_jet.truncated(k).dot(a_jet) / u_jet.truncated(k).norm_sq()
    L = L1 + q.differentiate().value
    return L, L1


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


def phase_from_jet(coeffs) -> PhasePoint:
    """The phase point of every row of a coefficient stack ``(..., n,
    order+1)``: ``P`` is minus the flow vector, ``R`` the velocity-weighted
    acceleration."""
    coeffs = np.asarray(coeffs, dtype=float)
    _speed_sq(coeffs, 3, "flow vector")
    X, U, A, Ap = derivatives(coeffs, 4)
    return PhasePoint(X, U, *momenta_stack(U, A, Ap))


def accel_from_phase(p: PhasePoint):
    """Invert the momentum definitions for the second and third derivative
    vectors."""
    p.require_row("accel_from_phase")
    u2 = p.u2
    UR = float(p.U @ p.R)
    UP = float(p.U @ p.P)
    R2 = float(p.R @ p.R)
    A = -2 * UR * p.U + u2 * p.R
    Ap = (2 * UP + 4 * UR**2 - u2 * R2) * p.U - 2 * u2 * UR * p.R - u2 * p.P
    return A, Ap


def hamiltonian_stack(U, P, R):
    """The Hamiltonian over leading batch axes of ``(..., n)`` phase
    components."""
    UR = _dot(R, U)
    return _dot(P, U) - np.float_power(UR, 2) + 0.5 * _dot(U, U) * _dot(R, R)


def hamiltonian(p: PhasePoint):
    H = hamiltonian_stack(p.U, p.P, p.R)
    return float(H) if H.ndim == 0 else H


def _flow(U, R, P):
    """The rates ``(U', R')`` on float lists (``X' = U``, ``P' = 0``).

    Plain IEEE binary64 on every CPU and BLAS: each inner product adds its
    terms in order from the first (a lone ``-0.0`` keeps its sign), in a
    loop, as ``sum()`` of floats is compensated from Python 3.12.  Floats
    overflow to inf silently, so a non-finite product raises here."""
    pairs = zip(U, R)
    u, r = next(pairs)
    u2, UR, R2 = u * u, u * r, r * r
    for u, r in pairs:
        u2, UR, R2 = u2 + u * u, UR + u * r, R2 + r * r
    if not (math.isfinite(u2) and math.isfinite(UR) and math.isfinite(R2)):
        raise FloatingPointError("the flow leaves the float range")
    if u2 <= VELOCITY_FLOOR:
        raise DegenerateVelocityError(f"squared speed {u2:.3e} below floor")
    UR2, R2n = 2.0 * UR, -R2
    return (
        [u2 * r - UR2 * u for u, r in zip(U, R)],
        [R2n * u + UR2 * r - p for u, r, p in zip(U, R, P)],
    )


def hamilton_rhs(p: PhasePoint) -> np.ndarray:
    """Right-hand sides of the four first-order equations of motion, laid
    out like :meth:`PhasePoint.flat`, with the bits of an RK4 stage."""
    p.require_row("hamilton_rhs")
    U, P, R = p.U.tolist(), p.P.tolist(), p.R.tolist()
    dU, dR = _flow(U, R, P)
    return np.array(U + dU + [0.0] * p.dim + dR)


@dataclass
class Trajectory:
    """Stored samples of an integrated flow (every ``store_every``-th step)."""

    ts: np.ndarray
    states: np.ndarray  # shape (len(ts), 4n)
    dim: int
    h: float

    def __len__(self):
        return self.ts.size

    def phase_point(self, k) -> PhasePoint:
        return PhasePoint.from_flat(self.states[k], self.dim)


def _trajectory(ts, states, n, h, y):
    """The stored samples as a :class:`Trajectory`, once the stored states
    and the current state ``y`` are checked finite: an inf or nan in the
    positions reaches no inner product of :func:`_flow`."""
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


def integrate(p0: PhasePoint, t_end: float, h: float = 1e-3, store_every: int = 10) -> Trajectory:
    """Classical fixed-step RK4 for the first-order system.

    Samples are stored every ``store_every`` steps (plus the final point).
    Velocity degeneracy anywhere in a stage aborts with
    :class:`FlowDegeneracyError` holding the partial trajectory; a state
    that leaves the float range raises ``FloatingPointError``.  The stages
    carry only ``(U, R)``, as Python floats through :func:`_flow`; past the
    run's first stage ``P`` is ``p + 0.0``, the bits of ``p + (0.5 h) 0.0``,
    and ``X`` advances once per step from the four stage velocities.  Rows
    lie within round-off (3e-14 in 100 steps) of the same steps with ``np.dot``.
    """
    if h <= 0 or t_end <= 0:
        raise ValueError("need h > 0 and t_end > 0")
    n = p0.dim
    steps = int(round(t_end / h))
    X, U, P, R = (v.tolist() for v in (p0.X, p0.U, p0.P, p0.R))
    ts, states, t = [0.0], [X + U + P + R], 0.0
    Ps = [p + 0.0 for p in P]
    # a fixed operand grouping keeps the bits: (0.5 h) k and (h/6) (((k1 + 2 k2) + 2 k3) + k4)
    half, sixth = 0.5 * h, h / 6.0
    for k in range(steps):
        try:
            dU1, dR1 = _flow(U, R, P)
            U2, R2 = [a + half * b for a, b in zip(U, dU1)], [a + half * b for a, b in zip(R, dR1)]
            dU2, dR2 = _flow(U2, R2, Ps)
            U3, R3 = [a + half * b for a, b in zip(U, dU2)], [a + half * b for a, b in zip(R, dR2)]
            dU3, dR3 = _flow(U3, R3, Ps)
            U4, R4 = [a + h * b for a, b in zip(U, dU3)], [a + h * b for a, b in zip(R, dR3)]
            dU4, dR4 = _flow(U4, R4, Ps)
        except DegenerateVelocityError:
            raise FlowDegeneracyError(t, _trajectory(ts, states, n, h, X + U + P + R)) from None
        X, U, R = [
            [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(*ks)]
            for ks in ((X, U, U2, U3, U4), (U, dU1, dU2, dU3, dU4), (R, dR1, dR2, dR3, dR4))
        ]
        P = Ps
        t = (k + 1) * h
        if (k + 1) % store_every == 0 or k == steps - 1:
            ts.append(t)
            states.append(X + U + P + R)
    return _trajectory(ts, states, n, h, X + U + P + R)


def poisson_bracket_fd(f, g, p: PhasePoint, step: float = 1e-5):
    """Canonical bracket of two phase functions by central differences.

    The per-coordinate step is ``step * (1 + |coordinate|)``, balancing
    truncation against round-off for order-unity data.
    """
    n = p.dim
    y = p.flat()

    def grad(fun):
        out = np.empty(4 * n)
        for i in range(4 * n):
            hi = step * (1.0 + abs(y[i]))
            yp = y.copy()
            ym = y.copy()
            yp[i] += hi
            ym[i] -= hi
            out[i] = (
                fun(PhasePoint.from_flat(yp, n)) - fun(PhasePoint.from_flat(ym, n))
            ) / (2.0 * hi)
        return out

    df = grad(f)
    dg = grad(g)
    dfX, dfU, dfP, dfR = df[0:n], df[n : 2 * n], df[2 * n : 3 * n], df[3 * n :]
    dgX, dgU, dgP, dgR = dg[0:n], dg[n : 2 * n], dg[2 * n : 3 * n], dg[3 * n :]
    return float(dfX @ dgP + dfU @ dgR - dgX @ dfP - dgU @ dfR)


def taylor_lift(states, order: int = 6) -> np.ndarray:
    """Taylor coefficients ``(..., n, order+1)`` of the positions of the flow
    through each state of a ``(..., 4n)`` array, laid out like
    :meth:`PhasePoint.flat`.

    The right-hand side is polynomial, so the coefficients follow by
    repeated substitution: step ``k`` needs all ``k+1`` coefficients of
    ``U.U``, ``U.R`` and ``R.R`` but only coefficient ``k`` of the products
    built from them.  Products keep the operands and the summation of the
    jet product (:func:`confcurves.jets._product_coefficient`), and inner
    products add their components in order, so every row repeats the
    substitution in jet arithmetic to the bit, batched or alone, at the
    orders where that helper does.
    """
    states = np.asarray(states, dtype=float)
    n = states.shape[-1] // 4
    c = np.zeros(states.shape + (order + 1,))
    c[..., 0] = states
    for k in range(order):
        U, P, R = (c[..., i * n : (i + 1) * n, : k + 1] for i in (1, 2, 3))
        a, b = np.stack([U, U, R], axis=-3), np.stack([U, R, R], axis=-3)
        terms = _stack_product(a, b)
        u2, UR, R2 = np.moveaxis(_sum_rows(terms), -2, 0)
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
