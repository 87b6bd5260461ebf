import itertools
import math

import numpy as np
import pytest

from confcurves import (
    DegenerateVelocityError,
    alpha1_stationary_stack,
    coefficients,
    derivatives,
    flow_vector_stack,
    identity_residual_stack,
    is_conformal_circle,
    parallel_defect,
    q_circle_stack,
    quantity_family,
)
from confcurves.curves import VELOCITY_FLOOR
from confcurves.multilinear import minors, rho_wedge, tractor_metric_pair, wedge
from confcurves.tractors import canonical_tractor_stack, gram_stack, q_keys, q_stack
from conftest import (
    keyed,
    random_circle,
    random_curve_jet,
    random_spiral,
    random_transformed_spiral,
    tractor_values,
)
from jet_oracle import JetScalar
from oracles import closed_form_alpha1_delta4, epsilon, parallel_section_oracle


def straight_line_jet(n=3, order=4):
    derivs = [np.zeros(n) for _ in range(order + 1)]
    derivs[1][0] = 1.0
    return coefficients(derivs)


def tractor_jets(jet, count):
    """The canonical tractors of one coefficient row as vector jets."""
    return [JetScalar(c) for c in canonical_tractor_stack(jet, count)]


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
                    got = canonical_tractor_stack(jet, count)
                    want = operator_tractor_jets(jet, count)
                    assert len(got) == count
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w.coeffs)

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
            assert np.array_equal(gram_stack(jet, 5).gram, expect)

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
            got = gram_stack(jet, 4).delta4_jet
            assert got.shape == expect.shape == (k + 1,)
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_spiral_values(self, rng):
        for c in (0.8, 1.0, 2.0):
            spiral = random_spiral(rng, 3, c=c)
            for t in (-0.5, 0.0, 0.7):
                g = gram_stack(spiral.jet(t), 5)
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
        g = gram_stack(jet, 4)
        assert g.delta4 == pytest.approx(-1.0, abs=1e-12)

    def test_circle_delta4_vanishes(self, rng):
        for _ in range(5):
            circle = random_circle(rng, 3)
            g = gram_stack(circle.jet(float(rng.uniform(-1, 1))), 4)
            assert is_conformal_circle(g.delta4, g.alpha1)

    def test_closed_form_agrees_with_gram(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n)
            alpha1, delta4 = closed_form_alpha1_delta4(jet)
            g = gram_stack(jet, 4)
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
            g = gram_stack(random_curve_jet(rng, n), 4)
            assert abs(g.delta3 + 1.0) <= 1e-10
            assert g.delta4 <= 1e-10

    def test_metric_pattern_entries(self, rng):
        # the printed Gram pattern, including the jet-tracked derivative
        # entries of the first invariant
        for _ in range(25):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n, levels=6)
            g = gram_stack(jet, 5)
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


class TestKappa1:
    def test_spiral_value_and_constancy(self, rng):
        for c in (0.8, 2.0):
            spiral = random_spiral(rng, 3, c=c)
            vals = [gram_stack(spiral.jet(float(t)), 4).kappa1 for t in np.linspace(-1, 1, 9)]
            expect = -(c**2 - 1.0) / (2.0 * c)
            assert vals[0] == pytest.approx(expect, abs=1e-10)
            assert max(vals) - min(vals) <= 1e-8 * (1.0 + abs(expect))

    def test_unit_pitch_vanishes(self, planar_unit_spiral):
        assert gram_stack(planar_unit_spiral.jet(0.2), 4).kappa1 == pytest.approx(0.0, abs=1e-12)

    def test_undefined_on_circles(self, rng):
        circle = random_circle(rng, 3)
        assert np.isnan(gram_stack(circle.jet(0.0, order=6), 4).kappa1)

    def test_needs_order_six(self, rng):
        # an order-5 row reaches delta_4's first derivative only
        assert gram_stack(random_curve_jet(rng, 3, levels=6), 4).kappa1 is None


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
        # the implemented slot expression equals minus the spatial slot of
        # (fifth tractor + alpha1 * third tractor) computed by the recurrence
        for _ in range(20):
            n = int(rng.integers(2, 5))
            jet = alpha1_stationary_stack(random_curve_jet(rng, n, levels=6))
            trs = tractor_values(jet, 5)
            pipeline = -(trs[4][1:-1] + alpha1_jet(jet)[0] * trs[2][1:-1])
            res = identity_residual_stack(jet)
            scale = 1.0 + np.max(np.abs(pipeline))
            assert np.max(np.abs(res.tractor_slot - pipeline)) <= 1e-9 * scale

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


def assert_defect(curve, t, h, count=3):
    """``parallel_defect``, asserted equal to its per-time body."""
    d = parallel_defect(curve, t, h, count=count)
    assert d == row_parallel_defect(curve, t, h, count)
    return d


class TestParallelTransport:
    def test_circle_second_order_decay(self, rng):
        circle = random_circle(rng, 3)
        d1 = assert_defect(lambda t: circle.jet(t, 4), 0.1, 0.02, count=3)
        d2 = assert_defect(lambda t: circle.jet(t, 4), 0.1, 0.01, count=3)
        order = math.log2(d1 / d2)
        assert 1.6 <= order <= 2.4

    def test_circle_steps_match_the_per_time_body(self, rng):
        # the circle steps of verify, the acceptance suite, the family
        # tests and the transport demo: times 0 and mid-window, h 0.02 and
        # 0.01, the demo's coarser 0.08 and 0.04, dimensions 2 to 6
        for n in range(2, 7):
            circle = random_circle(rng, n)
            for t in (0.0, 0.1, 0.5, -0.35):
                for h in (0.08, 0.04, 0.02, 0.01, 0.005):
                    assert_defect(lambda s: circle.jet(s, 4), t, h, count=3)

    def test_spiral_scaled_wedge_parallel(self, rng):
        spiral = random_spiral(rng, 3, c=1.7)
        for h in (0.02, 0.01):
            d = assert_defect(lambda t: spiral.jet(t, 5), 0.1, h, count=4)
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

        g = gram_stack(repar(0.2, 6), 5)
        assert abs(g.delta5) <= 1e-8 * max(1.0, g.gram_scale()) ** 5
        assert abs(JetScalar(g.delta4_jet).differentiate().value) > 1e-3
        bare = assert_defect(repar, 0.2, 0.01, count=4)
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

        defects = [assert_defect(poly, 0.1, h, count=3) for h in (0.02, 0.01, 0.005)]
        assert min(defects) > 0.1
        assert abs(defects[-1] / defects[-2] - 1.0) < 0.2

    def test_rejects_nonpositive_step(self, rng):
        circle = random_circle(rng, 3)
        with pytest.raises(ValueError):
            parallel_defect(lambda t: circle.jet(t, 4), 0.0, 0.0)


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
            for i, jet in enumerate(jets):
                for got, want in zip(stack, canonical_tractor_stack(jet, 5)):
                    assert np.array_equal(got[i], want)

    def test_gram_delta4_and_kappa1_bit_identical(self, rng):
        undefined = 0
        for n in range(2, 9):
            jets = mixed_rows(rng, n)
            for max_ell in (4, 5):
                g = gram_stack(stack_of(jets), max_ell)
                for i, jet in enumerate(jets):
                    one = gram_stack(jet, max_ell)
                    assert np.array_equal(g.gram[i], one.gram)
                    for name in ("delta3", "delta4", "delta5", "alpha1", "alpha2"):
                        value = getattr(one, name)
                        assert (getattr(g, name) is None) == (value is None)
                        if value is not None:
                            assert np.array_equal(getattr(g, name)[i], value)
                    assert np.array_equal(g.delta4_jet[i], one.delta4_jet)
                    undefined += bool(np.isnan(one.kappa1))
                    assert np.array_equal(g.kappa1[i], one.kappa1, equal_nan=True)
        # every circle and straight-line row, at max_ell 4 and 5
        assert undefined >= 7 * 2 * 4

    def test_q_matches_one_row_calls(self, rng):
        for n in range(2, 9):
            jets = mixed_rows(rng, n)
            values = q_stack(stack_of(jets))
            assert values.shape == (len(jets), len(q_keys(n)))
            for row, jet in zip(values, jets):
                want = q_stack(jet)
                scale = 1.0 + np.max(np.abs(want))
                assert np.max(np.abs(row - want)) <= 1e-13 * scale

    def test_row_at_the_velocity_floor_is_degenerate(self, rng):
        coeffs = stack_of(mixed_rows(rng, 3))
        for speed_sq in (0.0, VELOCITY_FLOOR):
            coeffs[2, :, 1] = [np.sqrt(speed_sq), 0.0, 0.0]
            # checked before the sqrt and recip recurrences divide by it,
            # under the error state the command line runs in
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for call in (
                    lambda: canonical_tractor_stack(coeffs, 3),
                    lambda: gram_stack(coeffs, 5),
                    lambda: q_stack(coeffs),
                ):
                    with pytest.raises(DegenerateVelocityError):
                        call()

    def test_gram_needs_four_or_five_tractors(self, rng):
        coeffs = stack_of([random_curve_jet(rng, 3, levels=7) for _ in range(3)])
        for max_ell in (3, 6):
            with pytest.raises(ValueError, match="^max_ell must be 4 or 5$"):
                gram_stack(coeffs, max_ell)

    def test_insufficient_order_rejected(self, rng):
        coeffs = stack_of([random_curve_jet(rng, 3, levels=4) for _ in range(3)])
        with pytest.raises(ValueError):
            gram_stack(coeffs, 4)
        with pytest.raises(ValueError):
            q_stack(coeffs[..., :3])


# The per-jet bodies that the sample-axis stacks replaced, kept as oracles.


def jet_alpha1_stationary(jet):
    a1p = alpha1_jet(jet)[1]
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


def jet_q_circle(jet):
    X, U, A = derivatives(jet, 3)
    u2 = float(U @ U)
    iu1 = 1.0 / math.sqrt(u2)
    iu3 = iu1 / u2
    M = np.column_stack([X, U, A])
    ua = minors(M[:, 1:])
    return np.concatenate(
        [
            iu1 * U + iu3 * minors(M[:, 1:], X),
            -iu1 * minors(M[:, :2]) + iu3 * (0.5 * float(X @ X) * ua - minors(M, X)),
            iu3 * ua,
            iu3 * minors(M),
        ]
    )


class TestSampleStacks:
    """The stacks over the sample axis against the per-jet bodies they
    replaced, bit for bit."""

    def test_jet_identity_repeats_the_per_sample_loop(self, rng):
        # drawn as `relations --jet-identity` draws its samples
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
                slot, expansion, defect = jet_identity_residuals(want)
                assert np.array_equal(res.tractor_slot[k], slot)
                assert np.array_equal(res.mercator_expansion[k], expansion)
                assert res.identity_defect[k] == defect
                one = identity_residual_stack(want)
                assert one.identity_defect == defect and isinstance(one.identity_defect, float)

    def test_circle_quantities_repeat_the_per_jet_body(self, rng):
        for n in range(2, 9):
            jets = mixed_rows(rng, n)
            values = q_circle_stack(stack_of(jets))
            for row, jet in zip(values, jets):
                want = jet_q_circle(jet)
                assert np.array_equal(row, want)
                assert q_circle_stack(jet).tolist() == want.tolist()
