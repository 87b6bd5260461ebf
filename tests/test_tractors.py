import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcurves import (
    DegenerateVelocityError,
    alpha1_stationary_stack,
    coefficients,
    derivatives,
    flow_vector_stack,
    identity_residual_stack,
    is_conformal_circle,
    parallel_defect,
    phase_from_jet,
    q_circle_stack,
    q_phase,
    quantity_family,
)
from confcurves.curves import VELOCITY_FLOOR
from confcurves.multilinear import index_tuples, minors, rho_wedge, tractor_metric_pair, wedge
from confcurves.tractors import (
    _gram_jet,
    _pairing_layout,
    _parallel_frame,
    _parallel_minors,
    _tractor_coeffs,
    canonical_tractor_stack,
    gram_stack,
    q_keys,
    q_stack,
)
from conftest import (
    curve_term_scales,
    identity_term_scale,
    keyed,
    pairing_term_scale,
    random_circle,
    random_curve_jet,
    random_spiral,
    random_transformed_spiral,
    tractor_basis,
    tractor_values,
)
from jet_oracle import JetScalar
from oracles import (
    closed_form_alpha1_delta4,
    epsilon,
    hand_q_circle,
    hand_q_phase,
    hand_q_stack,
    parallel_section_oracle,
)


def straight_line_jet(n=3, order=4):
    derivs = [np.zeros(n) for _ in range(order + 1)]
    derivs[1][0] = 1.0
    return coefficients(derivs)


def tractor_jets(jet, count):
    """The canonical tractors of one coefficient row as vector jets."""
    return [JetScalar(c) for c in _tractor_coeffs(jet, count)]


def displayed_sequence(jet):
    """Closed forms of the second through fourth canonical tractors straight
    from the derivative vectors; the oracle for the recurrence."""
    _, U, A, Ap = derivatives(jet, 4)
    App = derivatives(jet, 5)[4] if jet.shape[-1] > 4 else None
    u = math.sqrt(float(U @ U))
    UA = float(U @ A)
    AA = float(A @ A)
    UAp = float(U @ Ap)
    AAp = float(A @ Ap)
    t_u = (-(u**-3) * UA, u**-1 * U, 0.0)
    t_a = (
        3 * u**-5 * UA**2 - u**-3 * (AA + UAp),
        -2 * u**-3 * UA * U + u**-1 * A,
        -u,
    )
    t_ap = None
    if App is not None:
        UApp = float(U @ App)
        t_ap = (
            -15 * u**-7 * UA**3 + 9 * u**-5 * UA * (AA + UAp) - 3 * u**-3 * AAp - u**-3 * UApp,
            9 * u**-5 * UA**2 * U - 3 * u**-3 * (AA + UAp) * U - 3 * u**-3 * UA * A + u**-1 * Ap,
            0.0,
        )
    return t_u, t_a, t_ap


def operator_tractor_jets(jet, count):
    """The canonical recurrence in jet operators, as an oracle."""
    u_jet = JetScalar(jet).differentiate()
    first = np.zeros((jet.shape[0] + 2, u_jet.order + 1))
    first[0] = u_jet.norm_sq().sqrt().recip().coeffs
    seq = [JetScalar(first)]
    for _ in range(count - 1):
        cur = seq[-1]
        k = cur.order - 1
        uk = u_jet.truncated(k)
        d = cur.differentiate()
        low = cur.truncated(k)
        wi = d[1:-1] + uk * low[0]
        wN = d[-1] - low[1:-1].dot(uk)
        seq.append(JetScalar(np.vstack([d.coeffs[0], wi.coeffs, wN.coeffs])))
    return seq


def alpha1_jet(jet):
    """Taylor coefficients of alpha_1 of one coefficient row: the metric
    square of the third tractor of :func:`operator_tractor_jets`, whose
    coefficient ``j`` adds the pairings of coefficients ``p`` and ``j - p``
    in increasing ``p``."""
    t = operator_tractor_jets(jet, 3)[2].coeffs
    return np.array([tractor_metric_pair(t[:, : j + 1], t[:, j::-1]).sum() for j in range(t.shape[-1])])


class TestCanonicalSequence:
    def test_array_recurrence_repeats_jet_operators(self, rng):
        for n in range(2, 9):
            for count in range(2, 6):
                for levels in (count + 1, 7):
                    jet = random_curve_jet(rng, n, levels=levels)
                    got = _tractor_coeffs(jet, count)
                    want = operator_tractor_jets(jet, count)
                    assert len(got) == count
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w.coeffs)
                    # the public stack: the values, one column per tractor
                    values = np.stack([w.value for w in want], axis=-1)
                    assert np.array_equal(canonical_tractor_stack(jet, count), values)

    def test_straight_line(self):
        trs = tractor_values(straight_line_jet(), 3)
        assert np.allclose(trs[0], [1, 0, 0, 0, 0], atol=1e-15)
        assert np.allclose(trs[1], [0, 1, 0, 0, 0], atol=1e-15)
        assert np.allclose(trs[2], [0, 0, 0, 0, -1], atol=1e-15)

    def test_unit_pitch_spiral_acceleration_slot(self, planar_unit_spiral):
        # top slot 3 u^-5 <U,A>^2 - u^-3 (<A,A> + <U,A'>) = sqrt(2)/2 by hand
        jet = planar_unit_spiral.jet(0.0)
        acc = tractor_values(jet, 3)[2]
        assert acc[0] == pytest.approx(math.sqrt(2) / 2, abs=1e-14)
        assert np.allclose(acc[1:-1], [-math.sqrt(2), 0.0], atol=1e-14)
        assert acc[-1] == pytest.approx(-math.sqrt(2), abs=1e-14)

    def test_recurrence_matches_displayed_forms(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n)
            trs = tractor_values(jet, 4)
            for displayed, got in zip(displayed_sequence(jet), trs[1:]):
                w0, wi, wN = displayed
                scale = 1.0 + max(abs(w0), float(np.max(np.abs(wi))), abs(wN))
                assert abs(got[0] - w0) <= 1e-12 * scale
                assert np.max(np.abs(got[1:-1] - wi)) <= 1e-12 * scale
                assert abs(got[-1] - wN) <= 1e-12 * scale

    def test_insufficient_order_rejected(self, rng):
        jet = random_curve_jet(rng, 3, levels=3)
        with pytest.raises(ValueError):
            canonical_tractor_stack(jet, 4)

    def test_degenerate_velocity_rejected(self):
        with pytest.raises(DegenerateVelocityError):
            canonical_tractor_stack(coefficients([np.zeros(3), np.zeros(3), np.ones(3)]), 2)


def pair_jets(trs, count):
    """Pairing jets of the first ``count`` tractors, each truncated to the
    lower order of its two factors."""
    return {
        (a, b): tractor_metric_pair(trs[a].truncated(trs[b].order), trs[b])
        for a in range(count)
        for b in range(count)
        if a <= b
    }


def cofactor_det(rows):
    """Laplace expansion along the first row in jet arithmetic."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, entry in enumerate(rows[0]):
        term = entry * cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


class TestGramInvariants:
    def test_gram_repeats_the_jet_pairings(self, rng):
        for trial in range(35):
            n = 2 + trial % 7
            jet = random_curve_jet(rng, n, levels=6)
            pairs = pair_jets(tractor_jets(jet, 5), 5)
            expect = np.array([[pairs[min(a, b), max(a, b)].value for b in range(5)] for a in range(5)])
            assert np.array_equal(gram_stack(jet).gram, expect)

    def test_delta4_jet_matches_cofactor_expansion(self, rng):
        for trial in range(56):
            n = 2 + trial % 7
            levels = 5 + trial % 4  # delta_4 jets of order 0 to 3
            jet = random_curve_jet(rng, n, levels=levels)
            trs = tractor_jets(jet, 4)
            k = trs[3].order
            pairs = pair_jets(trs, 4)
            rows = [[pairs[min(a, b), max(a, b)].truncated(k) for b in range(4)] for a in range(4)]
            expect = cofactor_det(rows).coeffs
            got = gram_stack(jet).delta4_jet
            assert got.shape == expect.shape == (k + 1,)
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_pairing_jets_follow_from_the_value_gram(self, rng):
        # the connection preserves the metric, so the Taylor coefficients of
        # the pairings are sums over the Gram matrix of the tractor values
        for n in range(2, 9):
            for levels in range(6, 10):  # orders 5 to 8
                jet = random_curve_jet(rng, n, levels=levels)
                values = np.array(tractor_values(jet, levels - 1)).T
                full = tractor_metric_pair(values[:, :, None], values[:, None, :])
                G = _gram_jet(full, levels - 5)
                pairs = pair_jets(tractor_jets(jet, 4), 4)
                for j in range(1, min(levels - 5, 3) + 1):
                    want = [[pairs[min(a, b), max(a, b)].coeffs[j] for b in range(4)] for a in range(4)]
                    want = np.array(want)
                    assert np.max(np.abs(G[j] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_spiral_values(self, rng):
        for c in (0.8, 1.0, 2.0):
            spiral = random_spiral(rng, 3, c=c)
            for t in (-0.5, 0.0, 0.7):
                g = gram_stack(spiral.jet(t))
                assert g.alpha1 == pytest.approx(c**2 - 1.0, abs=1e-10)
                assert g.alpha2 == pytest.approx(c**4 - c**2 + 1.0, abs=1e-9)
                assert g.delta4 == pytest.approx(-(c**2), abs=1e-9)
                assert abs(g.delta5) <= 1e-8 * max(1.0, g.gram_scale()) ** 5

    def test_unit_pitch_point_by_hand(self, planar_unit_spiral):
        # 9 - 18 + 12 - 4 = -1 through the closed form at the worked point
        jet = planar_unit_spiral.jet(0.0)
        alpha1, delta4 = closed_form_alpha1_delta4(jet)
        assert alpha1 == pytest.approx(0.0, abs=1e-14)
        assert delta4 == pytest.approx(-1.0, abs=1e-14)
        g = gram_stack(jet)
        assert g.delta4 == pytest.approx(-1.0, abs=1e-12)

    def test_circle_delta4_vanishes(self, rng):
        for _ in range(5):
            circle = random_circle(rng, 3)
            g = gram_stack(circle.jet(float(rng.uniform(-1, 1))))
            assert is_conformal_circle(g.delta4, g.alpha1)

    def test_closed_form_agrees_with_gram(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n)
            alpha1, delta4 = closed_form_alpha1_delta4(jet)
            g = gram_stack(jet)
            scale = 1.0 + abs(alpha1) + abs(delta4)
            assert abs(g.alpha1 - alpha1) <= 1e-10 * scale
            assert abs(g.delta4 - delta4) <= 1e-10 * scale

    def test_straight_line_closed_form(self):
        alpha1, delta4 = closed_form_alpha1_delta4(straight_line_jet())
        assert alpha1 == 0.0 and delta4 == 0.0

    def test_closed_form_names_a_stack(self, rng):
        stack = np.stack([random_curve_jet(rng, 3) for _ in range(2)])
        message = r"^closed_form_alpha1_delta4 takes one coefficient row, got a stack of shape \(2,\)$"
        with pytest.raises(ValueError, match=message):
            closed_form_alpha1_delta4(stack)

    def test_delta3_and_nonpositivity(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            g = gram_stack(random_curve_jet(rng, n))
            assert abs(g.delta3 + 1.0) <= 1e-10
            assert g.delta4 <= 1e-10

    def test_metric_pattern_entries(self, rng):
        # the printed Gram pattern, including the jet-tracked derivative
        # entries of the first invariant
        for _ in range(25):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n, levels=6)
            g = gram_stack(jet)
            a1 = JetScalar(alpha1_jet(jet))
            a1p = a1.differentiate()
            tol = 1e-10 * (1.0 + g.gram_scale())
            G = g.gram
            assert np.array_equal(G, G.T)
            assert abs(G[0, 0]) <= tol
            assert abs(G[0, 1]) <= tol
            assert abs(G[0, 2] + 1.0) <= tol
            assert abs(G[0, 3]) <= tol
            assert abs(G[1, 1] - 1.0) <= tol
            assert abs(G[1, 2]) <= tol
            assert abs(G[1, 3] + a1.value) <= tol
            assert abs(G[2, 3] - 0.5 * a1p.value) <= tol
            assert abs(G[0, 4] - a1.value) <= tol
            assert abs(G[1, 4] + 1.5 * a1p.value) <= tol
            assert abs(G[2, 4] - (0.5 * a1p.differentiate().value - g.alpha2)) <= tol

    def test_dependency_combination_on_circles(self, rng):
        # fourth tractor of a circle lies in the span of the first two:
        # A' + alpha1 * U + (alpha1'/2) * T = 0
        for _ in range(5):
            circle = random_circle(rng, 3)
            for t in np.linspace(-1, 1, 5):
                jet = circle.jet(float(t))
                trs = tractor_values(jet, 4)
                a1, a1p = alpha1_jet(jet)[:2]
                comb = trs[3] + a1 * trs[1] + 0.5 * a1p * trs[0]
                assert np.max(np.abs(comb)) <= 1e-9


class TestQQuantities:
    def test_spiral_closed_values(self, rng):
        for n in (3, 4):
            spiral = random_spiral(rng, n)
            c = spiral.c
            p2 = float(spiral.p0 @ spiral.p0)
            q = keyed(q_stack(spiral.jet(0.33)), n)
            for i, j in itertools.combinations(range(1, n + 1), 2):
                assert q[(0, i, j, n + 1)] == pytest.approx(
                    c / p2 * epsilon((i, j), spiral.p0, spiral.q0), abs=1e-10
                )
            for i, j, k in itertools.combinations(range(1, n + 1), 3):
                assert q[(0, i, j, k)] == pytest.approx(
                    c / p2 * epsilon((i, j, k), spiral.p0, spiral.q0, spiral.r0),
                    abs=1e-10,
                )
                assert q[(i, j, k, n + 1)] == pytest.approx(0.0, abs=1e-10)
            for idx in itertools.combinations(range(1, n + 1), 4):
                assert q[idx] == pytest.approx(0.0, abs=1e-10)

    def test_unit_pitch_hand_value(self, planar_unit_spiral):
        # 3/2 * 2 - 1/2 * 4 = 1
        q = keyed(q_stack(planar_unit_spiral.jet(0.0)), 2)
        assert q[(0, 1, 2, 3)] == pytest.approx(1.0, abs=1e-13)

    def test_straight_line_all_zero(self):
        q = q_stack(straight_line_jet())
        assert all(abs(v) <= 1e-15 for v in q)

    def test_constancy_along_spiral_and_transform(self, rng):
        for family in (random_spiral(rng, 3), random_transformed_spiral(rng, 3)):
            samples = [keyed(q_stack(family.jet(float(t))), 3) for t in np.linspace(-1, 1, 11)]
            for key in samples[0]:
                vals = np.array([s[key] for s in samples])
                spread = vals.max() - vals.min()
                assert spread <= 1e-8 * (1.0 + np.max(np.abs(vals)))

    def test_family_classifier(self):
        assert quantity_family((0, 1, 2, 4), 3) == "0ijN"
        assert quantity_family((0, 1, 2, 3), 3) == "0ijk"
        assert quantity_family((1, 2, 3, 4), 3) == "ijkN"
        assert quantity_family((1, 2, 3, 4), 5) == "ijkl"
        assert quantity_family((0, 2, 4), 3) == "0iN"
        assert quantity_family((1, 3, 4), 3) == "ijN"
        assert quantity_family((0, 1, 2), 3) == "0ij"
        assert quantity_family((1, 2, 3), 3) == "ijk"

    def test_pairing_layout_matches_the_keys(self):
        # the dict of every slot tuple's position, looked up key by key
        for n in range(0, 13):
            for k in (3, 4):
                position = {t: p for p, t in enumerate(itertools.combinations(range(n + 2), k))}
                keys = q_keys(n, k)
                pos, sign = _pairing_layout(n, k)
                assert pos.tolist() == [position[key] for key in keys]
                assert sign.tolist() == [-1.0 if k == 4 and quantity_family(key, n) == "ijkN" else 1.0 for key in keys]
                assert not pos.flags.writeable and not sign.flags.writeable

    def test_pairing_layout_peak_on_a_cold_cache(self):
        # a dict over the C(62, 4) = 557,845 slot tuples and the list of
        # q_keys peak near 135 MB; the family masks need a few arrays of
        # C(62, 4) entries, near 14 MB
        index_tuples(62, 4)
        _pairing_layout.cache_clear()
        q_keys.cache_clear()
        tracemalloc.start()
        try:
            pos, _ = _pairing_layout(60, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pos) == math.comb(62, 4) and peak <= 40e6


class TestParallelSectionOracle:
    def test_names_a_stack(self, rng):
        stack = np.stack([random_curve_jet(rng, 4) for _ in range(3)])
        message = r"^parallel_section_oracle takes one coefficient row, got a stack of shape \(3,\)$"
        with pytest.raises(ValueError, match=message):
            parallel_section_oracle(stack)

    def test_matches_closed_forms(self, rng):
        worst = 0.0
        for trial in range(50):
            n = 2 + trial % 7
            jet = random_curve_jet(rng, n)
            q = keyed(q_stack(jet), n)
            oracle = parallel_section_oracle(jet)
            assert set(oracle) == set(q)
            for key, v in q.items():
                worst = max(worst, abs(v - oracle[key]) / (1.0 + abs(v)))
        assert worst <= 1e-10

    def test_at_origin_reduces_to_bare_pairing(self, rng):
        # with the position at the origin the transported sections are the
        # (oriented) basis elements themselves
        n = 4
        derivs = [np.zeros(n)] + [rng.uniform(-1, 1, n) for _ in range(4)]
        while float(derivs[1] @ derivs[1]) < 0.1:
            derivs[1] = rng.uniform(-1, 1, n)
        jet = coefficients(derivs)
        oracle = parallel_section_oracle(jet)
        _, U, A, Ap = derivatives(jet, 4)
        u2 = float(U @ U)
        for i, j, k in itertools.combinations(range(1, n + 1), 3):
            expect = u2**-2 * epsilon((i, j, k), U, A, Ap)
            assert oracle[(i, j, k, n + 1)] == pytest.approx(expect, rel=1e-11, abs=1e-12)

    def test_three_dimensional_reduction_formulas(self, rng):
        # cross/triple-product shape of the five quantities in dimension 3
        jet = random_curve_jet(rng, 3)
        X, U, A, Ap = derivatives(jet, 4)
        u2 = float(U @ U)
        UA = float(U @ A)
        triple = float(np.linalg.det(np.column_stack([U, A, Ap])))
        q = keyed(q_stack(jet), 3)
        oracle = parallel_section_oracle(jet)

        def type1(i, j, xk):
            cross_ua = epsilon((i, j), U, A)
            cross_uap = epsilon((i, j), U, Ap)
            return 3 * u2**-2 * UA * cross_ua - u2**-1 * cross_uap + u2**-2 * xk * triple

        assert q[(0, 1, 2, 4)] == pytest.approx(type1(1, 2, X[2]), rel=1e-11, abs=1e-13)
        assert q[(0, 1, 3, 4)] == pytest.approx(type1(1, 3, -X[1]), rel=1e-11, abs=1e-13)
        assert q[(0, 2, 3, 4)] == pytest.approx(type1(2, 3, X[0]), rel=1e-11, abs=1e-13)
        expect_0123 = (
            3 * u2**-2 * UA * float(np.linalg.det(np.column_stack([X, U, A])))
            - u2**-1 * float(np.linalg.det(np.column_stack([X, U, Ap])))
            + 0.5 * float(X @ X) * u2**-2 * triple
        )
        assert q[(0, 1, 2, 3)] == pytest.approx(expect_0123, rel=1e-11, abs=1e-13)
        assert q[(1, 2, 3, 4)] == pytest.approx(u2**-2 * triple, rel=1e-11, abs=1e-13)
        for key in q:
            assert oracle[key] == pytest.approx(q[key], rel=1e-11, abs=1e-12)


class TestCircleQuantities:
    def test_straight_line(self):
        q = keyed(q_circle_stack(straight_line_jet()), 3, 3)
        assert q[(0, 1, 4)] == pytest.approx(1.0)
        for key, v in q.items():
            if key != (0, 1, 4):
                assert v == pytest.approx(0.0, abs=1e-15)

    def test_unit_circle_rotation_quantity(self):
        for t in (-0.7, 0.0, 1.2):
            derivs = [
                np.array([math.cos(t), math.sin(t)]),
                np.array([-math.sin(t), math.cos(t)]),
                np.array([-math.cos(t), -math.sin(t)]),
            ]
            q = keyed(q_circle_stack(coefficients(derivs)), 2, 3)
            assert q[(1, 2, 3)] == pytest.approx(1.0, abs=1e-13)

    def test_constancy_along_circle_family(self, rng):
        for _ in range(5):
            circle = random_circle(rng, 3)
            samples = [
                keyed(q_circle_stack(circle.jet(float(t))), 3, 3) for t in np.linspace(-1, 1, 11)
            ]
            for key in samples[0]:
                vals = np.array([s[key] for s in samples])
                assert vals.max() - vals.min() <= 1e-9 * (1.0 + np.max(np.abs(vals)))

    def test_rank3_oracle_agreement(self, rng):
        for trial in range(20):
            n = 2 + trial % 7
            jet = random_curve_jet(rng, n, levels=4)
            q = keyed(q_circle_stack(jet), n, 3)
            oracle = parallel_section_oracle(jet, rank=3)
            for key, v in q.items():
                assert oracle[key] == pytest.approx(v, rel=1e-10, abs=1e-12)


def uniform_jets(rng, n, count, min_u2=0.1):
    """``count`` order-6 coefficient rows drawn as ``random_curve_jet`` draws
    them, as one stack."""
    return np.stack([random_curve_jet(rng, n, levels=7, min_u2=min_u2) for _ in range(count)])


def compound(M, k):
    """The rank-``k`` compound matrix of a square ``M`` by Cauchy-Binet: column
    ``J`` holds the minors of the columns ``J`` of ``M``, rows and columns
    over the increasing ``k``-tuples in combinations order."""
    return np.stack([minors(M[:, J]) for J in index_tuples(len(M), k)], axis=-1)


def moved_quantities(M, q, n, k):
    """The quantities ``q``, in ``q_keys(n, k)`` order, of tractors moved by
    ``M``: the rank-``k`` compound matrix of ``G M G`` (``G`` the swap of
    slots 0 and ``n+1``, which lowers by the metric) on the minors ``sign *
    q``, ``sign`` -1 on the rank-4 ``ijkN`` keys."""
    swap = np.arange(n + 2)
    swap[[0, -1]] = swap[[-1, 0]]
    position = {t: p for p, t in enumerate(itertools.combinations(range(n + 2), k))}
    keys = q_keys(n, k)
    pos = [position[key] for key in keys]
    sign = np.array([-1.0 if k == 4 and quantity_family(key, n) == "ijkN" else 1.0 for key in keys])
    C = compound(M[np.ix_(swap, swap)], k)[np.ix_(pos, pos)]
    return sign * (C @ (sign * q))


@st.composite
def motion_cases(draw):
    """An order-6 random jet in dimension 2 to 5 drawn from a seed, a
    translation ``a`` with ``|a_i| <= 1`` and an orthogonal ``O``, the Q
    factor of a Gaussian matrix from the same seed."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jet = random_curve_jet(rng, n, levels=7)
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return jet, a, np.linalg.qr(rng.normal(size=(n, n)))[0]


MOTION_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
QUANTITIES = {4: (q_stack, 0), 3: (q_circle_stack, 1)}


class TestPairingHandForms:
    """The pairing quantities, computed as the pairings of the parallel
    tractor wedge with the parallel sections, against the hand-expanded
    sums of weighted minors that the package used before
    (``oracles.hand_q_*``), and their covariance under Euclidean motions.

    Gaps are measured against the size of the hand forms' terms
    (``conftest.pairing_term_scale``), not against the row's largest
    quantity: at n = 2 a row holds one rank-4 key, which can be small.  Over
    3,000 uniform order-6 jets per n = 1-8 with ``|U|^2 >= 0.1`` the worst
    gap was 9.5e-16 of the term scale for ``q_stack``, 9.0e-16 for
    ``q_circle_stack`` and 1.0e-16 for ``q_phase``; against the row's
    largest quantity, ``q_stack`` reached 1.5e-12 at n = 2.  Over 800
    draws, n = 2-5, the motions moved Q off the compound-matrix image by at
    most 6.5e-16 of the term scale."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_match_the_hand_forms(self, rng, n):
        coeffs = uniform_jets(rng, n, 200)
        scale4, scale3 = curve_term_scales(coeffs)
        X, U, P, R = np.split(phase_from_jet(coeffs), 4, axis=-1)
        scalep = pairing_term_scale(X, U, R, P, (np.sum(U * R, axis=-1), 1.0, 1.0))
        for got, want, scale in (
            (q_stack(coeffs), hand_q_stack(coeffs), scale4),
            (q_circle_stack(coeffs), hand_q_circle(coeffs), scale3),
            (q_phase(X, U, P, R), hand_q_phase(X, U, P, R), scalep),
        ):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * scale[:, None])

    def test_slow_rows_keep_their_digits(self, rng):
        # at |U|^2 = 9e-6 the top slots of T_1 .. T_{k-1} are 1/u^2 to 1/u^4
        # times larger than the wedge's entries.  They leave the wedge
        # unchanged, since T_0 spans the top slot; kept, they cancel in the
        # minors and cost up to 5e-7 of the rank-3 term scale and 3e-3 of
        # the rank-4 one.  Dropped, the worst gaps over 200 rows per n were
        # 5.7e-16 and 3.7e-13: T_3 itself carries terms of order 1/u^5
        for n in (1, 2, 3):
            coeffs = uniform_jets(rng, n, 50)
            coeffs[..., 1] *= 3e-3 / np.linalg.norm(coeffs[..., 1], axis=-1, keepdims=True)
            scale4, scale3 = curve_term_scales(coeffs)
            assert np.all(np.abs(q_circle_stack(coeffs) - hand_q_circle(coeffs)) <= 1e-14 * scale3[:, None])
            assert np.all(np.abs(q_stack(coeffs) - hand_q_stack(coeffs)) <= 2e-12 * scale4[:, None])

    @pytest.mark.parametrize("rank", (4, 3))
    @MOTION_SETTINGS
    @given(case=motion_cases())
    def test_translation_moves_q_by_the_compound_matrix(self, rank, case):
        jet, a, _ = case
        n = len(a)
        quantities, which = QUANTITIES[rank]
        moved = jet.copy()
        moved[:, 0] += a
        # exp(rho(a)): the top slot feeds a and -|a|^2/2, the spatial block -a
        E = np.eye(n + 2)
        E[1:-1, 0], E[-1, 0], E[-1, 1:-1] = a, -0.5 * float(a @ a), -a
        want = moved_quantities(E, quantities(jet), n, rank)
        scale = curve_term_scales(moved)[which] * (1.0 + float(np.linalg.norm(a))) ** 2
        assert np.max(np.abs(quantities(moved) - want)) <= 1e-14 * scale

    @pytest.mark.parametrize("rank", (4, 3))
    @MOTION_SETTINGS
    @given(case=motion_cases())
    def test_rotation_moves_q_by_the_compound_matrix(self, rank, case):
        jet, _, O = case
        n = len(O)
        quantities, which = QUANTITIES[rank]
        D = np.eye(n + 2)
        D[1:-1, 1:-1] = O
        want = moved_quantities(D, quantities(jet), n, rank)
        scale = curve_term_scales(jet)[which]
        assert np.max(np.abs(quantities(O @ jet) - want)) <= 1e-14 * scale


class TestKappa1:
    def test_spiral_value_and_constancy(self, rng):
        for c in (0.8, 2.0):
            spiral = random_spiral(rng, 3, c=c)
            vals = [gram_stack(spiral.jet(float(t))).kappa1 for t in np.linspace(-1, 1, 9)]
            expect = -(c**2 - 1.0) / (2.0 * c)
            assert vals[0] == pytest.approx(expect, abs=1e-10)
            assert max(vals) - min(vals) <= 1e-8 * (1.0 + abs(expect))

    def test_unit_pitch_vanishes(self, planar_unit_spiral):
        assert gram_stack(planar_unit_spiral.jet(0.2)).kappa1 == pytest.approx(0.0, abs=1e-12)

    def test_undefined_on_circles(self, rng):
        circle = random_circle(rng, 3)
        assert np.isnan(gram_stack(circle.jet(0.0, order=6)).kappa1)

    def test_needs_order_six(self, rng):
        # an order-5 row reaches delta_4's first derivative only
        assert gram_stack(random_curve_jet(rng, 3, levels=6)).kappa1 is None


class TestReductionIdentity:
    def test_spiral_both_sides_vanish(self, rng):
        spiral = random_spiral(rng, 3)
        for t in (-0.5, 0.4):
            res = identity_residual_stack(spiral.jet(float(t)))
            assert np.max(np.abs(res.mercator_expansion)) <= 1e-9
            assert np.max(np.abs(res.tractor_slot)) <= 1e-9
            assert res.identity_defect <= 1e-9

    def test_straight_line_zero(self):
        res = identity_residual_stack(straight_line_jet())
        assert np.max(np.abs(res.mercator_expansion)) == 0.0
        assert np.max(np.abs(res.tractor_slot)) == 0.0

    def test_constrained_random_jets(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            jet = alpha1_stationary_stack(random_curve_jet(rng, n))
            assert abs(alpha1_jet(jet)[1]) <= 1e-12
            res = identity_residual_stack(jet)
            scale = 1.0 + max(
                np.max(np.abs(res.tractor_slot)), np.max(np.abs(res.mercator_expansion))
            )
            assert res.identity_defect <= 1e-9 * scale

    def test_unconstrained_jets_have_nonzero_defect(self, rng):
        # negative control: the identity needs the constraint
        defects = []
        for _ in range(10):
            jet = random_curve_jet(rng, 3)
            defects.append(identity_residual_stack(jet).identity_defect)
        assert max(defects) > 1e-3

    def test_slot_matches_jet_pipeline(self, rng):
        # the hand-expanded slot of the oracle equals minus the spatial slot
        # of (fifth tractor + alpha1 * third tractor) computed by the
        # recurrence, which identity_residual_stack itself reads
        for _ in range(20):
            n = int(rng.integers(2, 5))
            jet = alpha1_stationary_stack(random_curve_jet(rng, n, levels=6))
            trs = tractor_values(jet, 5)
            pipeline = -(trs[4][1:-1] + alpha1_jet(jet)[0] * trs[2][1:-1])
            slot = jet_identity_residuals(jet)[0]
            scale = 1.0 + np.max(np.abs(pipeline))
            assert np.max(np.abs(slot - pipeline)) <= 1e-9 * scale

    def test_bottom_slot_vanishes(self, rng):
        # the third residual, beside the spatial slot: the bottom null slot
        # of -(T_4 + alpha_1 T_2) is u <T_4 + alpha_1 T_2, T_0>, and the
        # Gram pattern gives <T_4, T_0> = alpha_1 = -<T_2, T_0> on every jet,
        # stationary or not
        for _ in range(40):
            n = int(rng.integers(1, 9))
            jet = random_curve_jet(rng, n, levels=6)
            for row in (alpha1_stationary_stack(jet), jet):
                t = tractor_values(row, 5)
                bottom = -(t[4][-1] + tractor_metric_pair(t[2], t[2]) * t[2][-1])
                u, tau = identity_term_scale(row)
                assert abs(bottom) <= 1e-13 * u * tau

    def test_mercator_expansion_is_flow_derivative(self, rng):
        # expansion equals the jet derivative of the flow vector
        for _ in range(20):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n, levels=6)
            res = identity_residual_stack(jet)
            h = 1e-6
            order = jet.shape[-1] - 1
            d = derivatives(jet, order + 1)

            def c_at(s):
                derivs = [
                    sum(d[k + m] * s**m / math.factorial(m) for m in range(order + 1 - k))
                    for k in range(4)
                ]
                return flow_vector_stack(*derivs[1:])

            fd = (c_at(h) - c_at(-h)) / (2 * h)
            scale = 1.0 + np.max(np.abs(res.mercator_expansion))
            assert np.max(np.abs(fd - res.mercator_expansion)) <= 1e-7 * scale


def row_parallel_defect(curve, t, h, count=3, scaled=False):
    """The per-time body of ``parallel_defect`` that the three-row tractor
    stack replaced: one sampled jet and one tractor recurrence per time.
    With ``scaled`` each wedge is normalized by ``(-delta_4)^(-1/2)``
    first."""

    def wedge_at(s):
        j = curve(s)
        w = wedge(tractor_values(j, count))
        if scaled:
            _, d4 = closed_form_alpha1_delta4(j)
            w = w * (-d4) ** -0.5
        return w

    wp = wedge_at(t + h)
    wm = wedge_at(t - h)
    w0 = wedge_at(t)
    center = curve(t)
    deriv = (wp - wm) * (0.5 / h) + rho_wedge(derivatives(center, 2)[1], w0, count)
    return float(np.max(np.abs(deriv)))


def assert_defects(curve, t, steps, count=3):
    """``parallel_defect`` over ``steps``, one call, asserted equal step by
    step to its per-time body; ``curve`` takes one time or an array."""
    d = parallel_defect(curve, t, steps, count=count)
    assert d.shape == (len(steps),)
    for h, got in zip(steps, d):
        assert got == row_parallel_defect(curve, t, h, count)
    return d


def by_time(row):
    """A curve sampler of one time or an array of times from a sampler
    ``row`` of one time."""
    return lambda ts: np.stack([row(s) for s in ts]) if np.ndim(ts) else row(ts)


class TestParallelTransport:
    def test_circle_second_order_decay(self, rng):
        circle = random_circle(rng, 3)
        d1, d2 = assert_defects(lambda t: circle.jet(t, 4), 0.1, (0.02, 0.01), count=3)
        order = math.log2(d1 / d2)
        assert 1.6 <= order <= 2.4

    def test_circle_steps_match_the_per_time_body(self, rng):
        # the circle steps of verify (0.02, 0.01 at mid-window), of the
        # acceptance suite (0.02, 0.01 at 0), of the family tests (0.01 at
        # 0) and of the transport demo (0.08 down to 0.01 at 0), in
        # dimensions 2 to 6; one call over the steps equals one per step
        for n in range(2, 7):
            circle = random_circle(rng, n)
            for t in (0.0, 0.1, 0.5, -0.35):
                for steps in ((0.02, 0.01), (0.01,), (0.08, 0.04, 0.02, 0.01), (0.005,)):
                    d = assert_defects(lambda s: circle.jet(s, 4), t, steps, count=3)
                    for h, got in zip(steps, d):
                        assert parallel_defect(lambda s: circle.jet(s, 4), t, (h,), count=3)[0] == got

    def test_verify_steps_on_the_verify_times(self, rng):
        # the mid-window time of a verify window, as cmd_verify forms it
        for n in range(2, 7):
            for samples in (2, 5, 21):
                times = np.linspace(-1.0, 1.0, samples)
                circle = random_circle(rng, n)
                assert_defects(lambda s: circle.jet(s, 4), float(times[samples // 2]), (0.02, 0.01))

    def test_spiral_scaled_wedge_parallel(self, rng):
        spiral = random_spiral(rng, 3, c=1.7)
        steps = (0.02, 0.01)
        for h, d in zip(steps, assert_defects(lambda t: spiral.jet(t, 5), 0.1, steps, count=4)):
            assert d <= 1.0 * h**2

    def test_reparametrized_spiral_needs_scaling(self, rng):
        # composing with a non-affine parameter change keeps the fifth
        # invariant zero but makes the fourth non-constant: the bare wedge
        # stops being parallel while the normalized one stays parallel
        spiral = random_spiral(rng, 3, c=1.5)

        def repar(t, order=5):
            tau = JetScalar.variable(t, order)
            sigma = tau + 0.25 * tau * tau
            e = sigma.exp()
            th = sigma * spiral.c
            ec, es = e * th.cos(), e * th.sin()
            return (ec * spiral.p0 + es * spiral.q0 + spiral.r0).coeffs

        g = gram_stack(repar(0.2, 6))
        assert abs(g.delta5) <= 1e-8 * max(1.0, g.gram_scale()) ** 5
        assert abs(JetScalar(g.delta4_jet).differentiate().value) > 1e-3
        (bare,) = assert_defects(by_time(repar), 0.2, (0.01,), count=4)
        scaled = row_parallel_defect(repar, 0.2, 0.01, count=4, scaled=True)
        assert bare > 1e-2
        assert scaled <= 1e-10

    def test_generic_curve_not_parallel(self, rng):
        coeffs = [rng.uniform(-1, 1, 3) for _ in range(6)]
        coeffs[1] += np.array([1.5, 0.0, 0.0])

        def poly(t, order=4):
            tau = JetScalar.variable(t, order)
            acc = JetScalar.constant(coeffs[0], order)
            power = JetScalar.constant(1.0, order)
            for k in range(1, 6):
                power = power * tau
                acc = acc + power * coeffs[k]
            return acc.coeffs

        defects = assert_defects(by_time(poly), 0.1, (0.02, 0.01, 0.005), count=3)
        assert min(defects) > 0.1
        assert abs(defects[-1] / defects[-2] - 1.0) < 0.2

    def test_rejects_nonpositive_step(self, rng):
        circle = random_circle(rng, 3)
        for steps in ((0.0,), (0.02, -0.01)):
            with pytest.raises(ValueError):
                parallel_defect(lambda t: circle.jet(t, 4), 0.0, steps)


def mixed_rows(rng, n):
    """Order-6 coefficient rows in dimension ``n``: random, spiral, circle
    and straight-line rows interleaved."""
    line = [np.zeros(n) for _ in range(7)]
    line[0] = rng.uniform(-1, 1, n)
    line[1][0] = 0.7
    jets = []
    for _ in range(2):
        jets.append(random_curve_jet(rng, n, levels=7))
        jets.append(random_spiral(rng, n).jet(float(rng.uniform(-1, 1))))
        jets.append(random_circle(rng, n).jet(float(rng.uniform(-1, 1))))
        jets.append(coefficients(line))
    return jets


def stack_of(jets):
    return np.stack(jets)


class TestStacks:
    """The row-batched kernels against their one-row calls."""

    def test_tractors_match_one_row_calls(self, rng):
        for n in range(2, 9):
            jets = mixed_rows(rng, n)
            stack = canonical_tractor_stack(stack_of(jets), 5)
            assert stack.shape == (len(jets), n + 2, 5)
            for i, jet in enumerate(jets):
                assert np.array_equal(stack[i], canonical_tractor_stack(jet, 5))

    def test_gram_delta4_and_kappa1_bit_identical(self, rng):
        undefined = 0
        for n in range(2, 9):
            jets = mixed_rows(rng, n)
            g = gram_stack(stack_of(jets))
            for i, jet in enumerate(jets):
                one = gram_stack(jet)
                assert np.array_equal(g.gram[i], one.gram)
                for name in ("delta3", "delta4", "delta5", "alpha1", "alpha2"):
                    assert np.array_equal(getattr(g, name)[i], getattr(one, name))
                assert np.array_equal(g.delta4_jet[i], one.delta4_jet)
                undefined += bool(np.isnan(one.kappa1))
                assert np.array_equal(g.kappa1[i], one.kappa1, equal_nan=True)
        # every circle and straight-line row
        assert undefined >= 7 * 4

    def test_q_matches_one_row_calls(self, rng):
        for n in range(2, 9):
            jets = mixed_rows(rng, n)
            values = q_stack(stack_of(jets))
            assert values.shape == (len(jets), len(q_keys(n)))
            for row, jet in zip(values, jets):
                want = q_stack(jet)
                scale = 1.0 + np.max(np.abs(want))
                assert np.max(np.abs(row - want)) <= 1e-13 * scale

    def test_gram_columns_give_the_pairing_quantities(self, rng):
        # the one pass of verify and the quantity table: Q from gram_stack's
        # columns is q_stack (and the rank-3 family q_circle_stack) bit for bit
        for n in range(2, 9):
            coeffs = stack_of(mixed_rows(rng, n))
            g = gram_stack(coeffs)
            assert g.columns.shape == (len(coeffs), n + 2, 6)
            assert np.array_equal(_parallel_minors(g.columns[..., :4], coeffs[..., 0]), q_stack(coeffs))
            assert np.array_equal(_parallel_minors(g.columns[..., :3], coeffs[..., 0]), q_circle_stack(coeffs))

    def test_row_at_the_velocity_floor_is_degenerate(self, rng):
        coeffs = stack_of(mixed_rows(rng, 3))
        for speed_sq in (0.0, VELOCITY_FLOOR):
            coeffs[2, :, 1] = [np.sqrt(speed_sq), 0.0, 0.0]
            # checked before the sqrt and recip recurrences divide by it,
            # under the error state the command line runs in
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for call in (
                    lambda: canonical_tractor_stack(coeffs, 3),
                    lambda: gram_stack(coeffs),
                    lambda: q_stack(coeffs),
                ):
                    with pytest.raises(DegenerateVelocityError):
                        call()

    def test_insufficient_order_rejected(self, rng):
        coeffs = stack_of([random_curve_jet(rng, 3, levels=4) for _ in range(3)])
        with pytest.raises(ValueError, match="needs derivatives through order 4, jet stores 3$"):
            gram_stack(coeffs)
        with pytest.raises(ValueError):
            q_stack(coeffs[..., :3])


# The per-jet bodies that the sample-axis stacks replaced, kept as oracles.


def jet_alpha1_stationary(jet):
    # alpha_1' = 2 <T_2, T_3>: the connection preserves the tractor metric
    t2, t3 = tractor_values(jet, 4)[2:]
    a1p = 2.0 * tractor_metric_pair(t2, t3)
    # the coefficient-1 pairing of the third tractor's jet, the former oracle
    pairing = alpha1_jet(jet)[1]
    assert abs(a1p - pairing) <= 1e-12 * abs(pairing)
    derivs = derivatives(jet, jet.shape[-1])
    derivs[4] = derivs[4] - 0.5 * a1p * derivs[1]
    return coefficients(derivs)


def jet_identity_residuals(jet):
    U, A, Ap, App = derivatives(jet, 5)[1:]
    u2 = float(U @ U)
    u = math.sqrt(u2)
    UA = float(U @ A)
    UAp = float(U @ Ap)
    UApp = float(U @ App)
    AA = float(A @ A)
    AAp = float(A @ Ap)
    mercator = (
        -24 * u2**-4 * UA**3 * U
        + 16 * u2**-3 * UA * UAp * U
        + 12 * u2**-3 * UA * AA * U
        + 12 * u2**-3 * UA**2 * A
        - 2 * u2**-2 * UApp * U
        - 4 * u2**-2 * AAp * U
        - 4 * u2**-2 * UAp * A
        - 3 * u2**-2 * AA * A
        - 4 * u2**-2 * UA * Ap
        + u2**-1 * App
    )
    slot = (
        -App / u
        + 4 * UA / u**3 * Ap
        - (12 * UA**2 / u**5 - 4 * UAp / u**3 - 3 * AA / u**3) * A
        + (6 * UA * AA / u**5 - 4 * AAp / u**3) * U
    )
    return slot, mercator, float(np.max(np.abs(mercator + slot / u)))


class TestSampleStacks:
    """The stacks over the sample axis against their one-row calls and the
    per-jet bodies they replaced, bit for bit, and against hand-expanded
    forms (the jet identity's and the rank-3 quantities') to round-off."""

    def test_jet_identity_repeats_the_per_sample_loop(self, rng):
        # drawn as `relations --jet-identity` draws its samples; the stacked
        # rows repeat their one-row calls bit for bit, and the two routes
        # agree with the hand-expanded forms to round-off of their largest
        # term
        for n in range(1, 9):
            draws = []
            for _ in range(12):
                derivs = [rng.uniform(-1, 1, n) for _ in range(5)]
                while float(derivs[1] @ derivs[1]) < 0.1:
                    derivs[1] = rng.uniform(-1, 1, n)
                draws.append(derivs)
            jets = [coefficients(d) for d in draws]
            stationary = alpha1_stationary_stack(stack_of(jets))
            res = identity_residual_stack(stationary)
            for k, jet in enumerate(jets):
                want = jet_alpha1_stationary(jet)
                assert np.array_equal(stationary[k], want)
                assert np.array_equal(alpha1_stationary_stack(jet), stationary[k])
                one = identity_residual_stack(want)
                for got, rows in zip(one, res):
                    assert np.array_equal(got, rows[k])
                assert isinstance(one.identity_defect, float)
                slot, expansion, defect = jet_identity_residuals(want)
                u, tau = identity_term_scale(want)
                assert np.max(np.abs(res.tractor_slot[k] - slot)) <= 1e-13 * u * tau
                assert np.max(np.abs(res.mercator_expansion[k] - expansion)) <= 1e-13 * tau
                assert max(res.identity_defect[k], defect) <= 1e-13 * tau

    def test_circle_quantities_repeat_the_per_jet_body(self, rng):
        # the stacked rows repeat their one-row calls bit for bit, and agree
        # with the hand-expanded form to round-off of its terms
        for n in range(2, 9):
            jets = mixed_rows(rng, n)
            coeffs = stack_of(jets)
            values = q_circle_stack(coeffs)
            for row, jet in zip(values, jets):
                assert row.tolist() == q_circle_stack(jet).tolist()
            scale = curve_term_scales(coeffs)[1]
            assert np.all(np.abs(values - hand_q_circle(coeffs)) <= 1e-14 * scale[:, None])


def _moved(M, B):
    """``B M B^T`` over the leading axes of ``M``."""
    return B @ M @ B.T


class TestMomentumBivector:
    """The momentum bivector of the tractor route moves with the curve under
    the Euclidean and dilatation parts of the Moebius group, as the adjoint
    action of the slot matrix of each motion; the special conformal part is
    not covered."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.25, 4.0),
    )
    def test_moebius_motions(self, n, seed, lam):
        rng = np.random.default_rng(seed)
        coeffs = np.stack([random_curve_jet(rng, n) for _ in range(3)])
        M = tractor_basis(coeffs)
        G = np.eye(n + 2)[np.r_[n + 1, 1 : n + 1, 0]]  # the slot swap
        # translation x -> x + b: A = exp(rho(b)), raised from the lowered
        # frame of _parallel_frame
        b = rng.uniform(-1.0, 1.0, n)
        A = G @ _parallel_frame(np.eye(n + 2), b)
        shifted = coeffs.copy()
        shifted[..., 0] += b
        # rotation x -> O x and dilatation x -> lam x
        O = np.linalg.qr(rng.normal(size=(n, n)))[0]
        B = np.eye(n + 2)
        B[1:-1, 1:-1] = O
        D = np.diag([lam, *[1.0] * n, 1.0 / lam])
        for got, want in (
            (tractor_basis(shifted), _moved(M, G @ A @ G)),
            (tractor_basis(O @ coeffs), _moved(M, B)),
            (tractor_basis(lam * coeffs), _moved(M, D)),
        ):
            scale = 1.0 + np.max(np.abs(want), axis=(-2, -1))[:, None, None]
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

