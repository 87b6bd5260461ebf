import itertools
import math
import tracemalloc

import numpy as np
import pytest

from confcurves import derivatives, wedge
from confcurves import multilinear
from confcurves.multilinear import minors, rho_wedge, tractor_metric_pair

from conftest import random_curve_jet, tractor_values
from jet_oracle import JetScalar
from oracles import _perm_sign, epsilon, wedge_pair


class TestEpsilon:
    def test_identity_determinant(self):
        assert epsilon((1, 2), [1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_two_by_two(self):
        assert epsilon((1, 2), [1.0, 1.0], [0.0, 2.0]) == 2.0

    def test_repeated_vector_vanishes(self):
        y = [0.3, -0.2, 0.9]
        z = [1.0, 0.4, 0.0]
        assert epsilon((1, 2, 3), y, y, z) == pytest.approx(0.0, abs=1e-15)

    def test_repeated_index_vanishes(self):
        assert epsilon((1, 1, 2), [1.0, 2, 3], [4.0, 5, 6], [7.0, 8, 9]) == 0.0

    def test_vector_count_checked(self):
        with pytest.raises(ValueError):
            epsilon((1, 2, 3), [1.0, 0, 0], [0.0, 1, 0])

    def test_perm_sign_is_the_permutation_determinant(self):
        for length in range(1, 6):
            for perm in itertools.permutations(range(length)):
                matrix = np.eye(length)[list(perm)]
                assert _perm_sign(perm) == np.sign(np.linalg.det(matrix))

    def test_alternating_in_arguments(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, min(n, 4) + 1))
            idx = tuple(sorted(rng.choice(np.arange(1, n + 1), size=m, replace=False)))
            vecs = [rng.normal(size=n) for _ in range(m)]
            base = epsilon(idx, *vecs)
            swapped = list(vecs)
            swapped[0], swapped[1] = swapped[1], swapped[0]
            assert epsilon(idx, *swapped) == pytest.approx(-base, rel=1e-12, abs=1e-12)

    def test_alternating_in_indices(self, rng):
        u, a = rng.normal(size=4), rng.normal(size=4)
        assert epsilon((3, 1), u, a) == pytest.approx(-epsilon((1, 3), u, a))

    def test_laplace_expansion_identity(self, rng):
        # contraction of the rank-4 tensor with the first vector expands into
        # four rank-3 terms weighted by inner products
        for n in (4, 5):
            for _ in range(20):
                X, U, R, P = (rng.normal(size=n) for _ in range(4))
                for i, j, k in itertools.combinations(range(1, n + 1), 3):
                    lhs = sum(
                        epsilon((i, j, k, l), X, U, R, P) * X[l - 1]
                        for l in range(1, n + 1)
                    )
                    rhs = (
                        -float(X @ X) * epsilon((i, j, k), U, R, P)
                        + float(X @ U) * epsilon((i, j, k), X, R, P)
                        - float(X @ R) * epsilon((i, j, k), X, U, P)
                        + float(X @ P) * epsilon((i, j, k), X, U, R)
                    )
                    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def epsilon_loops(cols):
    """``minors`` through per-tuple ``epsilon`` calls (1-based indices)."""
    n, k = cols.shape
    return [epsilon(idx, *cols.T) for idx in itertools.combinations(range(1, n + 1), k)]


def exact_minors(cols):
    """``minors`` of an integer stack by the Leibniz formula in Python ints."""
    cols = cols.astype(int).tolist()
    n, k = len(cols), len(cols[0])

    def det(rows):
        return sum(
            (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
            * math.prod(row[c] for row, c in zip(rows, perm))
            for perm in itertools.permutations(range(k))
        )

    return [det([cols[i] for i in I]) for I in itertools.combinations(range(n), k)]


class TestMinors:
    def test_matches_epsilon_loops(self, rng):
        for n in range(2, 8):
            for k in range(1, 5):
                cols = rng.uniform(-1.0, 1.0, (n, k))
                got = minors(cols)
                expect = np.array(epsilon_loops(cols))
                assert got.shape == expect.shape == (math.comb(n, k),)
                assert np.all(np.abs(got - expect) <= 1e-14 * (1.0 + np.abs(expect)))

    def test_leading_axes_are_batch_axes(self, rng):
        for n in range(2, 8):
            for k in range(1, 5):
                cols = rng.uniform(-1.0, 1.0, (3, 2, n, k))
                got = minors(cols)
                for idx in np.ndindex(3, 2):
                    assert np.array_equal(got[idx], minors(cols[idx]))

    def test_peak_is_a_few_levels(self, rng):
        # the Laplace levels need no chunks: a stacked call holds a few
        # (rows, C(n, j)) arrays, where the gathered k x k minor matrices of
        # an LU path would take k^2 = 16 of them
        rows, n, k = 200, 16, 4
        cols = rng.uniform(-1.0, 1.0, (rows, n, k))
        level = rows * math.comb(n, k) * 8
        minors(cols)  # fill the per-(n, j) caches first
        tracemalloc.start()
        try:
            got = minors(cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.nbytes == level
        assert peak <= 6 * level

    def test_tables_match_itertools(self):
        for n in range(0, 10):
            for j in range(1, 6):
                tuples = list(itertools.combinations(range(n), j))
                assert multilinear.index_tuples(n, j).tolist() == [list(t) for t in tuples]
                position = {t: p for p, t in enumerate(itertools.combinations(range(n), j - 1))}
                sub = multilinear._sub_positions(n, j)
                assert sub.shape == (j, math.comb(n, j)) and not sub.flags.writeable
                for col, t in enumerate(tuples):
                    assert [sub[i, col] for i in range(j)] == [
                        position[t[:i] + t[i + 1 :]] for i in range(j)
                    ]

    def test_integer_columns_round_to_the_exact_minors(self, rng):
        # Laplace minors are sums of products, exact on small integers; the
        # LU determinants of epsilon come back within round-off of them
        for n in range(2, 8):
            for k in range(1, 5):
                cols = rng.integers(-3, 4, (n, k)).astype(float)
                exact = np.array(exact_minors(cols), dtype=float)
                assert np.array_equal(minors(cols), exact)
                loops = np.array(epsilon_loops(cols))
                assert np.all(np.abs(loops - exact) <= 1e-13 * (1.0 + np.abs(exact)))


def basis_tractor(ambient, slot):
    arr = np.zeros(ambient)
    arr[slot] = 1.0
    return arr


def slot_position(ambient, rank):
    return {idx: k for k, idx in enumerate(itertools.combinations(range(ambient), rank))}


def basis_wedge(ambient, idx):
    pos = slot_position(ambient, len(idx))
    w = np.zeros(len(pos))
    w[pos[idx]] = 1.0
    return w


class TestWedge:
    def test_dependent_factors_vanish(self, rng):
        n = 3
        a = rng.normal(size=n + 2)
        b = rng.normal(size=n + 2)
        w = wedge([a, b, 2.0 * a - b])
        assert np.max(np.abs(w)) <= 1e-14

    def test_basis_wedge(self):
        n = 3
        e = [basis_tractor(n + 2, k) for k in (0, 1, 2, n + 1)]
        w = wedge(e)
        k = slot_position(n + 2, 4)[(0, 1, 2, n + 1)]
        assert w[k] == 1.0
        assert np.sum(np.abs(np.delete(w, k))) == 0.0

    def test_explicit_four_wedge_components(self, rng):
        # coefficients of the wedge of the first four canonical tractors,
        # collected on increasing tuples, against the determinant formulas
        for n in (3, 4):
            jet = random_curve_jet(rng, n)
            w = wedge(tractor_values(jet, 4))
            pos = slot_position(n + 2, 4)
            X, U, A, Ap = derivatives(jet, 4)
            u2 = float(U @ U)
            UA = float(U @ A)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                expect = -3 * u2**-2 * UA * epsilon((i, j), U, A) + u2**-1 * epsilon(
                    (i, j), U, Ap
                )
                assert w[pos[(0, i, j, n + 1)]] == pytest.approx(expect, rel=1e-11, abs=1e-12)
            for i, j, k in itertools.combinations(range(1, n + 1), 3):
                expect = u2**-2 * epsilon((i, j, k), U, A, Ap)
                assert w[pos[(0, i, j, k)]] == pytest.approx(expect, rel=1e-11, abs=1e-12)


class TestWedgePair:
    def test_cross_null_pair(self):
        n = 3
        e0, e1, e2, eN = (basis_tractor(n + 2, k) for k in (0, 1, 2, n + 1))
        assert wedge_pair(wedge([e0, e1, e2]), wedge([eN, e1, e2]), 3) == 1.0

    def test_null_direction_self_pair(self):
        n = 3
        e0, e1, e2 = (basis_tractor(n + 2, k) for k in (0, 1, 2))
        w = wedge([e0, e1, e2])
        assert wedge_pair(w, w, 3) == 0.0

    def test_signature_of_orthonormal_wedges(self):
        n = 3
        e0 = basis_tractor(n + 2, 0)
        eN = basis_tractor(n + 2, n + 1)
        e1 = basis_tractor(n + 2, 1)
        e2 = basis_tractor(n + 2, 2)
        plus = (e0 + eN) / np.sqrt(2.0)  # unit spacelike
        minus = (e0 - eN) / np.sqrt(2.0)  # unit timelike
        assert wedge_pair(wedge([plus, e1, e2]), wedge([plus, e1, e2]), 3) == pytest.approx(1.0)
        assert wedge_pair(wedge([minus, e1, e2]), wedge([minus, e1, e2]), 3) == pytest.approx(-1.0)
        spatial = wedge([e1, e2, basis_tractor(n + 2, 3)])
        assert wedge_pair(spatial, spatial, 3) == pytest.approx(1.0)


class TestRhoWedge:
    def test_three_dimensional_action_table(self, rng):
        # the five rank-4 basis elements in ambient dimension five map as:
        # e_{0123} -> -x1 e_{0234} + x2 e_{0134} - x3 e_{0124},
        # e_{0124} -> x3 e_{1234}, e_{0134} -> -x2 e_{1234},
        # e_{0234} -> x1 e_{1234}, e_{1234} -> 0
        x = rng.normal(size=3)
        amb = 5

        def act(idx):
            return rho_wedge(x, basis_wedge(amb, idx), 4)

        def expect(terms):
            return sum(c * basis_wedge(amb, idx) for idx, c in terms.items())

        got = act((0, 1, 2, 3))
        assert got == pytest.approx(
            expect({(0, 2, 3, 4): -x[0], (0, 1, 3, 4): x[1], (0, 1, 2, 4): -x[2]})
        )
        assert act((0, 1, 2, 4)) == pytest.approx(expect({(1, 2, 3, 4): x[2]}))
        assert act((0, 1, 3, 4)) == pytest.approx(expect({(1, 2, 3, 4): -x[1]}))
        assert act((0, 2, 3, 4)) == pytest.approx(expect({(1, 2, 3, 4): x[0]}))
        assert not np.any(act((1, 2, 3, 4)))

    def test_derivation_property(self, rng):
        # rho on a wedge of vectors equals the sum over factors; at n = 5
        # both ranks have C(7, 3) = C(7, 4) = 35 coefficients
        for n, rank in ((4, 3), (5, 3), (5, 4)):
            x = rng.normal(size=n)
            cols = [rng.normal(size=n + 2) for _ in range(rank)]

            def rho_vec(v):
                out = np.zeros(n + 2)
                out[1 : n + 1] = v[0] * x
                out[n + 1] = -float(v[1 : n + 1] @ x)
                return out

            lhs = rho_wedge(x, wedge(cols), rank)
            rhs = 0.0
            for k in range(rank):
                factors = list(cols)
                factors[k] = rho_vec(cols[k])
                rhs = rhs + wedge(factors)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestTractorValues:
    def test_metric_pair_array_matches_constant_jet(self, rng):
        # integer slots keep every sum exact, whatever its order
        for n in (1, 2, 5):
            a = rng.integers(-9, 10, n + 2).astype(float)
            b = rng.integers(-9, 10, n + 2).astype(float)
            ja = JetScalar.constant(a, 3)
            jb = JetScalar.constant(b, 3)
            assert tractor_metric_pair(ja, jb).value == tractor_metric_pair(a, b)
            assert tractor_metric_pair(a, b) == a[0] * b[-1] + a[-1] * b[0] + a[1:-1] @ b[1:-1]
