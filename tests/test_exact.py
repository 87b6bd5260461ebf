"""Exact certificates of the paper's main relation, on dyadic data.

The identities between the pairing quantities and the basis quantities,
and the tractor and Noether routes against the phase route, are polynomial
identities once ``1/u^2`` is exact.  Integer entries with ``|U|^2 = 2``
keep every product, every ``1/u^2`` and ``1/u^4``, every ``k!`` scaling and
every ``0.5`` a dyadic rational far below ``2^53``, and the minors are
Laplace sums of products, so float64 arithmetic is exact.  The tractor
route also divides by ``u`` itself: its canonical tractors start from
``1/u``, which is dyadic only when ``u`` is, so its rows have ``|U|^2 =
4``, one entry of ``+-2``.  A true identity then gives a residual of
exactly ``0.0``.  A false one is nonzero at a random point with
probability at least ``1 - d/|S|`` (Schwartz-Zippel), ``d <= 5`` the degree
and ``S`` the 129 values an entry takes, so a few hundred points make a
miss negligible.  Each test asserts that its operands stay below
``2^53 / 64``, where no sum of a few such terms can round.
"""

import numpy as np
import pytest

from confcurves import derivatives, e_stack, noether_stack
from confcurves.mercator import phase_from_jet
from confcurves.symmetries import q_phase, quantity_identities
from confcurves.tractors import q_stack

BOUND = 64  # integer entries in [-64, 64]
EXACT = 2.0**53 / 64
POINTS = 100


def assert_exact_range(*arrays):
    for arr in arrays:
        assert np.all(np.abs(arr) < EXACT)


def speed_two_velocities(rng, n, count):
    """``count`` velocities with two entries of +-1 and the rest 0, so that
    ``|U|^2 = 2``."""
    U = np.zeros((count, n))
    slots = np.argsort(rng.random((count, n)), axis=1)[:, :2]
    U[np.arange(count)[:, None], slots] = rng.choice([-1.0, 1.0], (count, 2))
    return U


def speed_two_dyadic_velocities(rng, n, count):
    """``count`` velocities with one entry of +-2 and the rest 0, so that
    ``u = 2``."""
    U = np.zeros((count, n))
    U[np.arange(count), rng.integers(0, n, count)] = rng.choice([-2.0, 2.0], count)
    return U


def integers(rng, *shape):
    return rng.integers(-BOUND, BOUND + 1, shape).astype(float)


def dyadic_rows(rng, n, velocities=speed_two_velocities):
    """Coefficient rows ``[X, U, C2, C3]`` with integer entries and the
    velocities of ``velocities``, ``|U|^2 = 2`` by default."""
    X, C2, C3 = integers(rng, 3, POINTS, n)
    return np.stack([X, velocities(rng, n, POINTS), C2, C3], axis=-1)


@pytest.mark.parametrize("n", range(2, 9))
def test_quantity_identities_hold_exactly(n):
    rng = np.random.default_rng(100 + n)
    X, P, R = integers(rng, 3, POINTS, n)
    p = (X, speed_two_velocities(rng, n, POINTS), P, R)
    e = e_stack(*p)
    assert_exact_range(e.E_R, e.E_D, e.E_S, q_phase(*p))
    report = quantity_identities(*p)
    for family, rep in report.items():
        assert_exact_range(rep["scale"])
        assert np.all(rep["residual"] == 0.0), family
    # every family with keys measured something
    assert np.all(report["0ijN"]["scale"] > 0.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_tractor_route_equals_phase_route_exactly(n):
    coeffs = dyadic_rows(np.random.default_rng(200 + n), n, speed_two_dyadic_velocities)
    p = np.split(phase_from_jet(coeffs), 4, axis=-1)
    tractor, phase = q_stack(coeffs), q_phase(*p)
    assert_exact_range(p[2], p[3], tractor, phase)
    assert np.any(tractor != 0.0)
    assert np.all(tractor - phase == 0.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_noether_route_equals_phase_route_exactly(n):
    coeffs = dyadic_rows(np.random.default_rng(300 + n), n)
    p = np.split(phase_from_jet(coeffs), 4, axis=-1)
    noether = noether_stack(*derivatives(coeffs, 4))
    phase = e_stack(*p)
    assert_exact_range(p[2], p[3])
    for name in ("E_T", "E_R", "E_D", "E_S"):
        got, want = getattr(noether, name), getattr(phase, name)
        assert_exact_range(got, want)
        assert np.any(want != 0.0), name
        assert np.all(got - want == 0.0), name
