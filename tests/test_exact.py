"""Exact certificates of the paper's main relation, on dyadic data.

The identities between the pairing quantities and the basis quantities,
and the tractor routes to both against the phase route, are polynomial
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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from confcurves import derivatives, e_stack, symmetries
from confcurves.mercator import hamiltonian_stack, phase_from_jet
from confcurves.symmetries import _bivector_square, _casimir, q_phase, quantity_identities
from confcurves.tractors import q_stack
from conftest import tractor_basis
from oracles import noether_stack

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
    assert_exact_range(e_stack(*p), q_phase(*p))
    report = quantity_identities(*p)
    for family, rep in report.items():
        assert_exact_range(rep["scale"])
        assert np.all(rep["residual"] == 0.0), family
    # every family with keys measured something
    assert np.all(report["0ijN"]["scale"] > 0.0)


# the four blocks of the momentum bivector: E_S, E_T, E_D and E_R entries
BLOCKS = {
    "0i": (slice(0, 1), slice(1, -1)),
    "iN": (slice(1, -1), slice(-1, None)),
    "0N": (slice(0, 1), slice(-1, None)),
    "ij": (slice(1, -1), slice(1, -1)),
}


def offset_bivector(M, block):
    """``M`` with the weight of one block moved by ``2^-10`` of itself,
    antisymmetrically."""
    M = M.copy()
    rows, cols = BLOCKS[block]
    M[..., rows, cols] *= 1.0 + 2.0**-10
    if block != "ij":
        M[..., cols, rows] *= 1.0 + 2.0**-10
    return M


def integer_phase_points(rng, n):
    """Phase components ``(X, U, P, R)`` with integer entries: the basis
    quantities, the Hamiltonian and ``q_phase`` do not divide by the
    speed, so ``U`` need not have ``|U|^2 = 2``."""
    return tuple(integers(rng, 4, POINTS, n))


@pytest.mark.parametrize("block", [None, *BLOCKS])
@pytest.mark.parametrize("n", range(1, 9))
def test_bivector_square_and_casimir_hold_exactly(n, block):
    # Q = -1/4 M^M and H = -tr((M G)^2)/16; a 2^-10 move of any one block
    # weight breaks both
    p = integer_phase_points(np.random.default_rng(400 + n), n)
    M = e_stack(*p)
    if block is not None:
        M = offset_bivector(M, block)
    square, q = _bivector_square(M), q_phase(*p)
    casimir, energy = _casimir(M), hamiltonian_stack(*p[1:])
    assert_exact_range(M, square, q, casimir, energy)
    assert np.any(energy != 0.0)
    if block is None:
        assert np.all(square == q) and np.all(casimir == energy)
    else:
        # n = 1 has no pairing quantities and no rotation block
        assert n == 1 or np.any(square != q)
        assert (n, block) == (1, "ij") or np.any(casimir != energy)


@pytest.mark.parametrize("n", range(4, 9))
def test_ijkl_identity_sees_a_shift_where_e_d_vanishes(monkeypatch, n):
    # on points with E_D = X.P + U.R = 0 exactly, an E_D-multiplied form of
    # the ijkl identity reads 0 whatever the ijkl quantities are
    X, U, P, R = integer_phase_points(np.random.default_rng(500 + n), n)
    X[:, 0] = 1.0
    P[:, 0] = -(np.sum(X[:, 1:] * P[:, 1:], axis=-1) + np.sum(U * R, axis=-1))
    M = e_stack(X, U, P, R)
    assert_exact_range(M, q_phase(X, U, P, R))
    assert np.all(M[..., 0, -1] == 0.0)
    delta = 2.0**-10
    exact = symmetries.q_phase

    def shifted(*p):
        q = exact(*p)
        q[..., -math.comb(n, 4):] += delta
        return q

    monkeypatch.setattr(symmetries, "q_phase", shifted)
    report = quantity_identities(X, U, P, R)
    assert np.all(report["ijkl"]["residual"] >= delta)
    for family in ("0ijN", "0ijk", "ijkN"):
        assert np.all(report[family]["residual"] == 0.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_tractor_route_equals_phase_route_exactly(n):
    coeffs = dyadic_rows(np.random.default_rng(200 + n), n, speed_two_dyadic_velocities)
    p = np.split(phase_from_jet(coeffs), 4, axis=-1)
    tractor, phase = q_stack(coeffs), q_phase(*p)
    assert_exact_range(p[2], p[3], tractor, phase)
    assert np.any(tractor != 0.0)
    assert np.all(tractor - phase == 0.0)


def dyadic_bivectors(n):
    """The momentum bivectors of dyadic rows with ``u = 2`` by the tractor
    route and by the phase route.  The tractor route reads the coefficients
    through order 3 only, and :func:`conftest.tractor_basis` pads them with
    a zero coefficient."""
    coeffs = dyadic_rows(np.random.default_rng(300 + n), n, speed_two_dyadic_velocities)
    p = np.split(phase_from_jet(coeffs), 4, axis=-1)
    assert_exact_range(p[2], p[3])
    return tractor_basis(coeffs), e_stack(*p)


@pytest.mark.parametrize("n", range(1, 9))
def test_noether_route_equals_phase_route_exactly(n):
    # the basis (Noether) quantities of the curve, read off its canonical
    # tractors, against those of its phase point: every block nonzero, every
    # entry equal
    tractor, phase = dyadic_bivectors(n)
    assert_exact_range(tractor, phase)
    for block, (rows, cols) in BLOCKS.items():
        assert n == 1 and block == "ij" or np.any(phase[..., rows, cols] != 0.0), block
    assert np.all(tractor == phase)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n", range(1, 9))
def test_noether_route_certificate_sees_a_moved_block(n, block):
    tractor, phase = dyadic_bivectors(n)
    if n > 1 or block != "ij":
        assert np.any(offset_bivector(tractor, block) != phase)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 8).flatmap(lambda n: arrays(float, (n, 5), elements=st.floats(-1.0, 1.0))))
def test_noether_route_matches_the_closed_form(coeffs):
    # against the closed form of tests/oracles.py, within round-off of the
    # largest entry; 20,000 uniform draws per n read at most 1.7e-14
    if float(coeffs[:, 1] @ coeffs[:, 1]) < 0.1:
        coeffs[:, 1] = 1.0
    tractor, closed = tractor_basis(coeffs), noether_stack(*derivatives(coeffs, 4))
    assert np.max(np.abs(tractor - closed)) <= 1e-13 * (1.0 + np.max(np.abs(closed)))
