import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcurves import JetDomainError, JetOrderError, JetScalar
from confcurves.jets import _exp, _recip, _sincos, _sqrt

from conftest import random_spiral


def jet_of_poly(coeffs, order):
    c = np.zeros(order + 1)
    c[: len(coeffs)] = coeffs[: order + 1]
    return JetScalar(c)


class TestArithmetic:
    def test_polynomial_product(self):
        a = jet_of_poly([1.0, 1.0], 2)  # 1 + t
        b = jet_of_poly([1.0, -1.0], 2)  # 1 - t
        assert np.array_equal((a * b).coeffs, [1.0, 0.0, -1.0])

    def test_geometric_series(self):
        one = JetScalar.constant(1.0, 3)
        b = jet_of_poly([1.0, -1.0], 3)
        assert np.allclose((one / b).coeffs, [1.0, 1.0, 1.0, 1.0], atol=0, rtol=0)

    def test_truncation_drops_t_squared(self):
        t = JetScalar.variable(0.0, 1)
        assert np.array_equal((t * t).coeffs, [0.0, 0.0])

    def test_scalar_operands_broadcast(self):
        t = JetScalar.variable(2.0, 3)
        assert np.array_equal((1.0 + t).coeffs, [3.0, 1.0, 0.0, 0.0])
        assert np.array_equal((2.0 * t).coeffs, [4.0, 2.0, 0.0, 0.0])
        assert np.allclose((1.0 / JetScalar.constant(4.0, 2)).coeffs, [0.25, 0, 0])

    def test_mixed_orders_rejected(self):
        with pytest.raises(JetOrderError):
            JetScalar.constant(1.0, 2) + JetScalar.constant(1.0, 3)

    def test_division_by_singular_jet(self):
        t = JetScalar.variable(0.0, 2)
        with pytest.raises(JetDomainError):
            JetScalar.constant(1.0, 2) / t

    @given(
        st.lists(st.integers(-8, 8), min_size=1, max_size=7),
        st.lists(st.integers(-8, 8), min_size=1, max_size=7),
    )
    @settings(max_examples=200, deadline=None)
    def test_product_matches_polynomial_multiplication(self, p, q):
        # integer coefficients make both routes exact, so equality is strict
        order = 6
        full = np.convolve(p, q).astype(float)[: order + 1]
        full = np.pad(full, (0, order + 1 - full.size))
        got = (jet_of_poly([float(v) for v in p], order) * jet_of_poly([float(v) for v in q], order)).coeffs
        assert np.array_equal(got, full)


def assert_bitwise(got, expected):
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def truncated_convolve(a, b):
    return np.convolve(a, b)[: a.size]


class TestVectorJets:
    # The operand order of every np.convolve is part of the contract: it
    # fixes the round-off of everything built on jets, down to the last bit.
    def test_product_and_dot_follow_component_rule(self, rng):
        order = 6
        for _ in range(20):
            dim = int(rng.integers(3, 6))
            V = JetScalar(rng.uniform(-1, 1, (dim, order + 1)))
            W = JetScalar(rng.uniform(-1, 1, (dim, order + 1)))
            s = JetScalar(rng.uniform(-1, 1, order + 1))
            rows = np.array([truncated_convolve(v, s.coeffs) for v in V.coeffs])
            assert_bitwise((V * s).coeffs, rows)
            assert_bitwise((s * V).coeffs, rows)
            c = float(rng.uniform(-2, 2))
            const = JetScalar.constant(c, order).coeffs
            scaled = np.array([truncated_convolve(v, const) for v in V.coeffs])
            assert_bitwise((V * c).coeffs, scaled)
            assert_bitwise((c * V).coeffs, scaled)
            acc = truncated_convolve(V.coeffs[0], W.coeffs[0])
            for v, w in zip(V.coeffs[1:], W.coeffs[1:]):
                acc = acc + truncated_convolve(v, w)
            assert_bitwise(V.dot(W).coeffs, acc)

    def test_slicing(self, rng):
        V = JetScalar(rng.uniform(-1, 1, (5, 7)))
        assert V.dim == 5 and V.order == 6
        assert np.array_equal(V[1:3].coeffs, V.coeffs[1:3]) and V[1:3].dim == 2
        assert V[4].coeffs.ndim == 1 and np.array_equal(V[4].coeffs, V.coeffs[4])
        assert np.array_equal(V.value, V.coeffs[:, 0])
        assert np.array_equal(V.derivative(2), 2.0 * V.coeffs[:, 2])

    def test_constant_from_array(self):
        c = JetScalar.constant(np.array([1.0, -2.0, 3.0]), 2)
        assert np.array_equal(c.coeffs, [[1.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        assert c.dim == 3

    def test_mixed_orders_rejected(self, rng):
        V = JetScalar(rng.uniform(-1, 1, (3, 7)))
        low = JetScalar(rng.uniform(-1, 1, (3, 6)))
        for op in (
            lambda: V + low,
            lambda: V * JetScalar.constant(1.0, 5),
            lambda: V.dot(low),
        ):
            with pytest.raises(JetOrderError):
                op()


class TestElementary:
    def test_exp_series(self):
        t = JetScalar.variable(0.0, 4)
        assert np.allclose(
            t.exp().coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0], rtol=0, atol=1e-16
        )

    def test_sqrt_of_constant(self):
        assert np.array_equal(JetScalar.constant(4.0, 2).sqrt().coeffs, [2.0, 0.0, 0.0])

    def test_sqrt_of_perfect_square(self):
        # (1 + t)^2 = 1 + 2t + t^2
        sq = jet_of_poly([1.0, 2.0, 1.0], 2)
        assert np.allclose(sq.sqrt().coeffs, [1.0, 1.0, 0.0], atol=1e-15)

    def test_sqrt_domain(self):
        with pytest.raises(JetDomainError):
            jet_of_poly([0.0, 1.0], 2).sqrt()
        with pytest.raises(JetDomainError):
            JetScalar.constant(-1.0, 2).sqrt()

    def test_sincos_derivatives(self):
        t = JetScalar.variable(0.7, 5)
        s = t.sin()
        for k in range(6):
            exact = math.sin(0.7 + k * math.pi / 2)
            assert s.derivative(k) == pytest.approx(exact, abs=1e-14)

    def test_powi(self):
        t = 1.0 + JetScalar.variable(0.0, 4)
        cubed = t.powi(3)
        assert np.allclose(cubed.coeffs, [1, 3, 3, 1, 0], atol=1e-15)
        inv2 = t.powi(-2)
        # (1+t)^-2 = 1 - 2t + 3t^2 - 4t^3 + 5t^4
        assert np.allclose(inv2.coeffs, [1, -2, 3, -4, 5], atol=1e-13)

    @given(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_chain_rule_for_exp(self, coeffs):
        order = len(coeffs) - 1
        a = JetScalar(coeffs)
        lhs = a.exp().differentiate()
        rhs = a.exp().truncated(order - 1) * a.differentiate()
        scale = 1.0 + np.max(np.abs(rhs.coeffs))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-14 * scale


def dot_recip(a):
    """The reciprocal recurrence row by row with ``np.dot``, the oracle."""
    b = np.zeros_like(a)
    b[0] = 1.0 / a[0]
    for k in range(1, a.size):
        b[k] = -b[0] * np.dot(a[1 : k + 1], b[k - 1 :: -1])
    return b


def dot_sqrt(a):
    """The square-root recurrence row by row with ``np.dot``, the oracle."""
    b = np.zeros_like(a)
    b[0] = math.sqrt(a[0])
    for k in range(1, a.size):
        conv = np.dot(b[1:k], b[k - 1 : 0 : -1]) if k > 1 else 0.0
        b[k] = (a[k] - conv) / (2.0 * b[0])
    return b


def dot_exp(a):
    """The exponential recurrence row by row with ``np.dot``, the oracle."""
    b = np.zeros_like(a)
    b[0] = math.exp(a[0])
    j = np.arange(1, a.size)
    for k in range(1, a.size):
        b[k] = np.dot(j[:k] * a[1 : k + 1], b[k - 1 :: -1]) / k
    return b


def dot_sincos(a):
    """The sine and cosine recurrences row by row with ``np.dot``, the
    oracle."""
    s = np.zeros_like(a)
    c = np.zeros_like(a)
    s[0] = math.sin(a[0])
    c[0] = math.cos(a[0])
    j = np.arange(1, a.size)
    for k in range(1, a.size):
        ja = j[:k] * a[1 : k + 1]
        s[k] = np.dot(ja, c[k - 1 :: -1]) / k
        c[k] = -np.dot(ja, s[k - 1 :: -1]) / k
    return s, c


class TestBatchedRecurrences:
    def test_exp_and_sincos_repeat_the_dot_recurrence(self, rng):
        for order in range(1, 13):
            # constant terms up to 20 in size, where np.exp and math.exp
            # disagree in a few percent of values
            a = rng.uniform(-1, 1, (4, 3, order + 1))
            a[..., 0] = rng.uniform(-20.0, 20.0, (4, 3))
            e = _exp(a)
            s, c = _sincos(a)
            for idx in np.ndindex(a.shape[:-1]):
                assert_bitwise(e[idx], dot_exp(a[idx]))
                want_s, want_c = dot_sincos(a[idx])
                assert_bitwise(s[idx], want_s)
                assert_bitwise(c[idx], want_c)
                jet = JetScalar(a[idx])
                assert_bitwise(jet.exp().coeffs, e[idx])
                assert_bitwise(jet.sin().coeffs, s[idx])
                assert_bitwise(jet.cos().coeffs, c[idx])

    def test_exp_overflow_raises_for_the_batch(self, rng):
        a = rng.uniform(-1, 1, (3, 5))
        a[1, 0] = 800.0
        with pytest.raises(OverflowError):
            _exp(a)

    def test_batch_repeats_the_dot_recurrence(self, rng):
        for order in range(1, 13):
            a = rng.uniform(-1, 1, (4, 3, order + 1))
            a[..., 0] = rng.uniform(0.1, 2.0, (4, 3))
            for batched, oracle, method in (
                (_recip, dot_recip, JetScalar.recip),
                (_sqrt, dot_sqrt, JetScalar.sqrt),
            ):
                got = batched(a)
                for idx in np.ndindex(a.shape[:-1]):
                    assert_bitwise(got[idx], oracle(a[idx]))
                    assert_bitwise(method(JetScalar(a[idx])).coeffs, got[idx])

    def test_one_singular_row_fails_the_batch(self, rng):
        a = rng.uniform(0.5, 1.0, (5, 4))
        a[3, 0] = 0.0
        for batched in (_recip, _sqrt):
            with pytest.raises(JetDomainError):
                batched(a)


class TestDifferentiate:
    def test_shift_exp_prefix(self):
        assert np.array_equal(JetScalar([1.0, 1.0, 0.5]).differentiate().coeffs, [1.0, 1.0])

    def test_shift_constant(self):
        assert np.array_equal(JetScalar([5.0, 0.0, 0.0]).differentiate().coeffs, [0.0, 0.0])

    def test_shift_3t_squared(self):
        assert np.array_equal(JetScalar([0.0, 0.0, 3.0]).differentiate().coeffs, [0.0, 6.0])

    def test_order_zero_rejected(self):
        with pytest.raises(JetOrderError):
            JetScalar.constant(1.0, 0).differentiate()


class TestSpiralJets:
    def test_jets_reproduce_closed_derivatives(self, rng):
        for _ in range(12):
            n = int(rng.integers(2, 5))
            spiral = random_spiral(rng, n)
            t = float(rng.uniform(-1, 1))
            jet = JetScalar(spiral.jet(t, order=3))
            U, A, Ap = spiral.closed_derivatives(t)
            scale = 1.0 + max(np.max(np.abs(v)) for v in (U, A, Ap))
            assert np.max(np.abs(jet.derivative(1) - U)) <= 1e-12 * scale
            assert np.max(np.abs(jet.derivative(2) - A)) <= 1e-12 * scale
            assert np.max(np.abs(jet.derivative(3) - Ap)) <= 1e-12 * scale
