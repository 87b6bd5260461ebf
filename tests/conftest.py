import numpy as np
import pytest

from confcurves import Circle, LogSpiral, PhasePoint, TransformedSpiral, coefficients
from confcurves.tractors import canonical_tractor_stack, q_keys


def random_curve_jet(rng, n, levels=5, min_u2=0.1):
    """Random derivative data with a well-conditioned velocity, as one row
    of position coefficients ``(n, levels)``."""
    derivs = [rng.uniform(-1.0, 1.0, n) for _ in range(levels)]
    while float(derivs[1] @ derivs[1]) < min_u2:
        derivs[1] = rng.uniform(-1.0, 1.0, n)
    return coefficients(derivs)


def random_phase_point(rng, n, min_u2=0.1):
    while True:
        y = rng.uniform(-1.0, 1.0, 4 * n)
        if float(y[n : 2 * n] @ y[n : 2 * n]) >= min_u2:
            return PhasePoint.from_flat(y, n)


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


def keyed(values, n, rank=4):
    """One row of pairing quantities as a dict keyed by ``q_keys(n, rank)``."""
    return dict(zip(q_keys(n, rank), np.asarray(values).tolist()))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
