import itertools
import math

import numpy as np
import pytest

from confcurves import (
    Circle,
    LogSpiral,
    TransformedSpiral,
    coefficients,
    derivatives,
    e_stack,
    hamiltonian_stack,
    three_d_reduction,
)
from confcurves.tractors import canonical_tractor_stack, q_keys


def random_curve_jet(rng, n, levels=5, min_u2=0.1):
    """Random derivative data with a well-conditioned velocity, as one row
    of position coefficients ``(n, levels)``."""
    derivs = [rng.uniform(-1.0, 1.0, n) for _ in range(levels)]
    while float(derivs[1] @ derivs[1]) < min_u2:
        derivs[1] = rng.uniform(-1.0, 1.0, n)
    return coefficients(derivs)


def random_phase_point(rng, n, min_u2=0.1):
    """A uniform phase row ``[X, U, P, R]`` from ``[-1, 1]^{4n}`` whose
    velocity has squared speed at least ``min_u2``."""
    while True:
        y = rng.uniform(-1.0, 1.0, 4 * n)
        if float(y[n : 2 * n] @ y[n : 2 * n]) >= min_u2:
            return y


def energy(X, U, P, R):
    """The Hamiltonian as a phase function over batch axes."""
    return hamiltonian_stack(U, P, R)


def three_d_functions():
    """The fifteen conserved quantities of a 3-d phase point by name, as
    phase functions ``(X, U, P, R)`` over batch axes: the five reduced
    pairing quantities of ``three_d_reduction`` and the ten basis
    quantities of ``e_stack``."""

    def reduced(*y):
        return three_d_reduction(e_stack(*y))

    fns = {f"Q1_{i}": lambda *y, i=i: reduced(*y).Q1[..., i] for i in range(3)}
    fns["Q2"] = lambda *y: reduced(*y).Q2
    fns["Q3"] = lambda *y: reduced(*y).Q3
    for i in range(3):
        fns[f"E_T{i}"] = lambda *y, i=i: e_stack(*y).E_T[..., i]
        fns[f"E_S{i}"] = lambda *y, i=i: e_stack(*y).E_S[..., i]
    for i, j in itertools.combinations(range(3), 2):
        fns[f"E_R{i}{j}"] = lambda *y, i=i, j=j: e_stack(*y).E_R[..., i, j]
    fns["E_D"] = lambda *y: e_stack(*y).E_D
    return fns


def central_difference_bracket(f, g, y, step=1e-5):
    """Canonical bracket of two phase functions ``(X, U, P, R)`` at one phase
    row ``y`` by central differences: the oracle of the complex-step
    ``poisson_bracket``.  The step along coordinate ``i`` is ``step * (1 +
    |y_i|)``, balancing truncation against round-off for order-unity data;
    the ``4n`` shifted points of each sign are one batch."""
    hi = step * (1.0 + np.abs(y))

    def grad(fun):
        plus, minus = (fun(*np.split(y + sign * np.diag(hi), 4, axis=-1)) for sign in (1.0, -1.0))
        return (plus - minus) / (2.0 * hi)

    dfX, dfU, dfP, dfR = np.split(grad(f), 4)
    dgX, dgU, dgP, dgR = np.split(grad(g), 4)
    return float(dfX @ dgP + dfU @ dgR - dgX @ dfP - dgU @ dfR)


def random_spiral(rng, n, c=None):
    """Spiral with an exactly orthogonal equal-length plane frame."""
    if c is None:
        c = float(rng.uniform(0.6, 2.4))
    p0 = rng.uniform(-1.0, 1.0, n)
    p0 /= np.linalg.norm(p0)
    q0 = rng.uniform(-1.0, 1.0, n)
    q0 -= (q0 @ p0) * p0
    q0 /= np.linalg.norm(q0)
    scale = float(rng.uniform(0.5, 1.5))
    r0 = rng.uniform(-0.5, 0.5, n)
    return LogSpiral(c, scale * p0, scale * q0, r0)


def random_circle(rng, n):
    u0 = rng.uniform(-1.0, 1.0, n)
    u0 /= np.linalg.norm(u0)
    a0 = rng.uniform(-1.0, 1.0, n)
    a0 -= (a0 @ u0) * u0
    return Circle(rng.uniform(-0.5, 0.5, n), u0, a0)


def random_transformed_spiral(rng, n, max_b=0.3):
    spiral = random_spiral(rng, n)
    b = rng.uniform(-1.0, 1.0, n)
    b *= max_b * rng.uniform(0.3, 1.0) / np.linalg.norm(b)
    return TransformedSpiral(spiral, b)


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


@pytest.fixture
def planar_unit_spiral():
    """The worked 2-d pitch-one spiral used in the hand examples."""
    return LogSpiral(1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2))


def row_sets(rng, count=9):
    """Coefficient rows to stack for the row-batched oracles: random
    derivative data, points along a spiral and points along a circle, in
    dimensions 2 to 8."""
    for n in range(2, 9):
        yield [random_curve_jet(rng, n) for _ in range(count)]
        for family in (random_spiral(rng, n), random_circle(rng, n)):
            yield [family.jet(float(t)) for t in np.linspace(-1.0, 1.0, count)]


def tractor_values(jet, count):
    """Values of the first ``count`` canonical tractors of one coefficient
    row, one ``(n+2)``-array each."""
    return [t[..., 0] for t in canonical_tractor_stack(jet, count)]


def identity_term_scale(jet):
    """The speed ``u`` of one coefficient row and ``tau = (m / u^2) max(1,
    m / u)^2``, ``m`` the largest of ``|A|, |A'|, |A''|``: a bound, up to a
    constant, on the largest term of the hand-expanded ``C'`` of
    ``test_tractors.jet_identity_residuals``, whose slot terms are ``u``
    times as large.  Round-off of either side scales with it, not with the
    sides themselves, which cancel."""
    U, A, Ap, App = derivatives(jet, 5)[1:]
    u = math.sqrt(float(U @ U))
    m = max(float(np.linalg.norm(v)) for v in (A, Ap, App))
    return u, m / u**2 * max(1.0, m / u) ** 2


def keyed(values, n, rank=4):
    """One row of pairing quantities as a dict keyed by ``q_keys(n, rank)``."""
    return dict(zip(q_keys(n, rank), np.asarray(values).tolist()))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
