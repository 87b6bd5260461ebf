import itertools
import math

import numpy as np
import pytest

from confcurves import (
    CurveJet,
    DegenerateVelocityError,
    JetScalar,
    UndefinedInvariantError,
    canonical_tractor_jets,
    canonical_tractors,
    closed_form_alpha1_delta4,
    enforce_alpha1_stationary,
    epsilon,
    gram_invariants,
    is_conformal_circle,
    kappa1,
    mercator_tractor_residuals,
    parallel_defect,
    parallel_section_oracle,
    q_circle_quantities,
    q_quantities,
    quantity_family,
)
from conftest import (
    random_circle,
    random_curve_jet,
    random_spiral,
    random_transformed_spiral,
)


def straight_line_jet(n=3, order=4):
    derivs = [np.zeros(n) for _ in range(order + 1)]
    derivs[1][0] = 1.0
    return CurveJet.from_derivatives(0.0, derivs)


def displayed_sequence(jet):
    """Closed forms of the second through fourth canonical tractors straight
    from the derivative vectors; the oracle for the recurrence."""
    U, A, Ap = jet.U, jet.A, jet.Ap
    App = jet.App if jet.order >= 4 else None
    u = jet.u
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


class TestCanonicalSequence:
    def test_straight_line(self):
        trs = canonical_tractors(straight_line_jet(), 3)
        assert np.allclose(trs[0], [1, 0, 0, 0, 0], atol=1e-15)
        assert np.allclose(trs[1], [0, 1, 0, 0, 0], atol=1e-15)
        assert np.allclose(trs[2], [0, 0, 0, 0, -1], atol=1e-15)

    def test_unit_pitch_spiral_acceleration_slot(self, planar_unit_spiral):
        # top slot 3 u^-5 <U,A>^2 - u^-3 (<A,A> + <U,A'>) = sqrt(2)/2 by hand
        jet = planar_unit_spiral.jet(0.0)
        acc = canonical_tractors(jet, 3)[2]
        assert acc[0] == pytest.approx(math.sqrt(2) / 2, abs=1e-14)
        assert np.allclose(acc[1:-1], [-math.sqrt(2), 0.0], atol=1e-14)
        assert acc[-1] == pytest.approx(-math.sqrt(2), abs=1e-14)

    def test_recurrence_matches_displayed_forms(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n)
            trs = canonical_tractors(jet, 4)
            for displayed, got in zip(displayed_sequence(jet), trs[1:]):
                w0, wi, wN = displayed
                scale = 1.0 + max(abs(w0), float(np.max(np.abs(wi))), abs(wN))
                assert abs(got[0] - w0) <= 1e-12 * scale
                assert np.max(np.abs(got[1:-1] - wi)) <= 1e-12 * scale
                assert abs(got[-1] - wN) <= 1e-12 * scale

    def test_insufficient_order_rejected(self, rng):
        jet = random_curve_jet(rng, 3, levels=3)
        with pytest.raises(ValueError):
            canonical_tractors(jet, 4)

    def test_degenerate_velocity_rejected(self):
        with pytest.raises(DegenerateVelocityError):
            CurveJet.from_derivatives(0.0, [np.zeros(3), np.zeros(3), np.ones(3)])


class TestGramInvariants:
    def test_spiral_values(self, rng):
        for c in (0.8, 1.0, 2.0):
            spiral = random_spiral(rng, 3, c=c)
            for t in (-0.5, 0.0, 0.7):
                g = gram_invariants(spiral.jet(t), 5)
                assert g.alpha1 == pytest.approx(c**2 - 1.0, abs=1e-10)
                assert g.alpha2 == pytest.approx(c**4 - c**2 + 1.0, abs=1e-9)
                assert g.delta4 == pytest.approx(-(c**2), abs=1e-9)
                assert abs(g.delta5) <= 1e-8 * max(1.0, g.gram_scale(5)) ** 5

    def test_unit_pitch_point_by_hand(self, planar_unit_spiral):
        # 9 - 18 + 12 - 4 = -1 through the closed form at the worked point
        jet = planar_unit_spiral.jet(0.0)
        alpha1, delta4 = closed_form_alpha1_delta4(jet)
        assert alpha1 == pytest.approx(0.0, abs=1e-14)
        assert delta4 == pytest.approx(-1.0, abs=1e-14)
        g = gram_invariants(jet, 4)
        assert g.delta4 == pytest.approx(-1.0, abs=1e-12)

    def test_circle_delta4_vanishes(self, rng):
        for _ in range(5):
            circle = random_circle(rng, 3)
            g = gram_invariants(circle.jet(float(rng.uniform(-1, 1))), 4)
            assert is_conformal_circle(g.delta4, g.alpha1)

    def test_closed_form_agrees_with_gram(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n)
            alpha1, delta4 = closed_form_alpha1_delta4(jet)
            g = gram_invariants(jet, 4)
            scale = 1.0 + abs(alpha1) + abs(delta4)
            assert abs(g.alpha1 - alpha1) <= 1e-10 * scale
            assert abs(g.delta4 - delta4) <= 1e-10 * scale

    def test_straight_line_closed_form(self):
        alpha1, delta4 = closed_form_alpha1_delta4(straight_line_jet())
        assert alpha1 == 0.0 and delta4 == 0.0

    def test_delta3_and_nonpositivity(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            g = gram_invariants(random_curve_jet(rng, n), 4)
            assert abs(g.delta3 + 1.0) <= 1e-10
            assert g.delta4 <= 1e-10

    def test_metric_pattern_entries(self, rng):
        # the printed Gram pattern, including the jet-tracked derivative
        # entries of the first invariant
        for _ in range(25):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n, levels=6)
            g = gram_invariants(jet, 5)
            a1 = g.alpha1_jet
            a1p = a1.differentiate()
            tol = 1e-10 * (1.0 + g.gram_scale(5))
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
                trs = canonical_tractor_jets(jet, 4)
                g = gram_invariants(jet, 4)
                a1p = g.alpha1_jet.differentiate().value
                comb = trs[3].value + g.alpha1 * trs[1].value + 0.5 * a1p * trs[0].value
                assert np.max(np.abs(comb)) <= 1e-9


class TestQQuantities:
    def test_spiral_closed_values(self, rng):
        for n in (3, 4):
            spiral = random_spiral(rng, n)
            c = spiral.c
            p2 = float(spiral.p0 @ spiral.p0)
            q = q_quantities(spiral.jet(0.33))
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
        q = q_quantities(planar_unit_spiral.jet(0.0))
        assert q[(0, 1, 2, 3)] == pytest.approx(1.0, abs=1e-13)

    def test_straight_line_all_zero(self):
        q = q_quantities(straight_line_jet())
        assert all(abs(v) <= 1e-15 for v in q.values())

    def test_constancy_along_spiral_and_transform(self, rng):
        for family in (random_spiral(rng, 3), random_transformed_spiral(rng, 3)):
            samples = [q_quantities(family.jet(float(t))) for t in np.linspace(-1, 1, 11)]
            for key in samples[0]:
                vals = np.array([s[key] for s in samples])
                spread = vals.max() - vals.min()
                assert spread <= 1e-8 * (1.0 + np.max(np.abs(vals)))

    def test_scaled_variant(self, rng):
        spiral = random_spiral(rng, 3, c=2.0)
        jet = spiral.jet(0.1)
        plain = q_quantities(jet)
        scaled = q_quantities(jet, scale_by_delta4=True)
        for key, v in plain.items():
            assert scaled[key] == pytest.approx(v / 2.0, abs=1e-12)

    def test_scaled_variant_rejected_on_circles(self, rng):
        circle = random_circle(rng, 3)
        with pytest.raises(UndefinedInvariantError):
            q_quantities(circle.jet(0.0), scale_by_delta4=True)

    def test_family_classifier(self):
        assert quantity_family((0, 1, 2, 4), 3) == "0ijN"
        assert quantity_family((0, 1, 2, 3), 3) == "0ijk"
        assert quantity_family((1, 2, 3, 4), 3) == "ijkN"
        assert quantity_family((1, 2, 3, 4), 5) == "ijkl"
        assert quantity_family((0, 2, 4), 3) == "0iN"
        assert quantity_family((1, 3, 4), 3) == "ijN"


class TestParallelSectionOracle:
    def test_matches_closed_forms(self, rng):
        worst = 0.0
        for trial in range(50):
            n = 2 + trial % 7
            jet = random_curve_jet(rng, n)
            q = q_quantities(jet)
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
        jet = CurveJet.from_derivatives(0.0, derivs)
        oracle = parallel_section_oracle(jet)
        u2 = jet.u2
        for i, j, k in itertools.combinations(range(1, n + 1), 3):
            expect = u2**-2 * epsilon((i, j, k), jet.U, jet.A, jet.Ap)
            assert oracle[(i, j, k, n + 1)] == pytest.approx(expect, rel=1e-11, abs=1e-12)

    def test_three_dimensional_reduction_formulas(self, rng):
        # cross/triple-product shape of the five quantities in dimension 3
        jet = random_curve_jet(rng, 3)
        X, U, A, Ap = jet.X, jet.U, jet.A, jet.Ap
        u2 = jet.u2
        UA = float(U @ A)
        triple = float(np.linalg.det(np.column_stack([U, A, Ap])))
        q = q_quantities(jet)
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
        q = q_circle_quantities(straight_line_jet())
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
            jet = CurveJet.from_derivatives(t, derivs)
            q = q_circle_quantities(jet)
            assert q[(1, 2, 3)] == pytest.approx(1.0, abs=1e-13)

    def test_constancy_along_circle_family(self, rng):
        for _ in range(5):
            circle = random_circle(rng, 3)
            samples = [
                q_circle_quantities(circle.jet(float(t))) for t in np.linspace(-1, 1, 11)
            ]
            for key in samples[0]:
                vals = np.array([s[key] for s in samples])
                assert vals.max() - vals.min() <= 1e-9 * (1.0 + np.max(np.abs(vals)))

    def test_rank3_oracle_agreement(self, rng):
        for trial in range(20):
            n = 2 + trial % 7
            jet = random_curve_jet(rng, n, levels=4)
            q = q_circle_quantities(jet)
            oracle = parallel_section_oracle(jet, rank=3)
            for key, v in q.items():
                assert oracle[key] == pytest.approx(v, rel=1e-10, abs=1e-12)


class TestKappa1:
    def test_spiral_value_and_constancy(self, rng):
        for c in (0.8, 2.0):
            spiral = random_spiral(rng, 3, c=c)
            vals = [kappa1(spiral.jet(float(t))) for t in np.linspace(-1, 1, 9)]
            expect = -(c**2 - 1.0) / (2.0 * c)
            assert vals[0] == pytest.approx(expect, abs=1e-10)
            assert max(vals) - min(vals) <= 1e-8 * (1.0 + abs(expect))

    def test_unit_pitch_vanishes(self, planar_unit_spiral):
        assert kappa1(planar_unit_spiral.jet(0.2)) == pytest.approx(0.0, abs=1e-12)

    def test_undefined_on_circles(self, rng):
        circle = random_circle(rng, 3)
        with pytest.raises(UndefinedInvariantError):
            kappa1(circle.jet(0.0, order=6))

    def test_needs_order_six(self, rng):
        with pytest.raises(ValueError):
            kappa1(random_curve_jet(rng, 3, levels=6))


class TestReductionIdentity:
    def test_spiral_both_sides_vanish(self, rng):
        spiral = random_spiral(rng, 3)
        for t in (-0.5, 0.4):
            res = mercator_tractor_residuals(spiral.jet(float(t)))
            assert np.max(np.abs(res.mercator_expansion)) <= 1e-9
            assert np.max(np.abs(res.tractor_slot)) <= 1e-9
            assert res.identity_defect <= 1e-9

    def test_straight_line_zero(self):
        res = mercator_tractor_residuals(straight_line_jet())
        assert np.max(np.abs(res.mercator_expansion)) == 0.0
        assert np.max(np.abs(res.tractor_slot)) == 0.0

    def test_constrained_random_jets(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            jet = enforce_alpha1_stationary(random_curve_jet(rng, n))
            g = gram_invariants(jet, max_ell=3)
            assert abs(g.alpha1_jet.differentiate().value) <= 1e-12
            res = mercator_tractor_residuals(jet)
            scale = 1.0 + max(
                np.max(np.abs(res.tractor_slot)), np.max(np.abs(res.mercator_expansion))
            )
            assert res.identity_defect <= 1e-9 * scale

    def test_unconstrained_jets_have_nonzero_defect(self, rng):
        # negative control: the identity needs the constraint
        defects = []
        for _ in range(10):
            jet = random_curve_jet(rng, 3)
            defects.append(mercator_tractor_residuals(jet).identity_defect)
        assert max(defects) > 1e-3

    def test_slot_matches_jet_pipeline(self, rng):
        # the implemented slot expression equals minus the spatial slot of
        # (fifth tractor + alpha1 * third tractor) computed by the recurrence
        for _ in range(20):
            n = int(rng.integers(2, 5))
            jet = enforce_alpha1_stationary(random_curve_jet(rng, n, levels=6))
            trs = canonical_tractor_jets(jet, 5)
            g = gram_invariants(jet, max_ell=3)
            pipeline = -(trs[4][1:-1].value + g.alpha1 * trs[2][1:-1].value)
            res = mercator_tractor_residuals(jet)
            scale = 1.0 + np.max(np.abs(pipeline))
            assert np.max(np.abs(res.tractor_slot - pipeline)) <= 1e-9 * scale

    def test_mercator_expansion_is_flow_derivative(self, rng):
        # expansion equals the jet derivative of the flow vector
        from confcurves import mercator_C

        for _ in range(20):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n, levels=6)
            res = mercator_tractor_residuals(jet)
            h = 1e-6

            def c_at(s):
                derivs = [
                    sum(
                        jet.derivative(k + m) * s**m / math.factorial(m)
                        for m in range(jet.order + 1 - k)
                    )
                    for k in range(4)
                ]
                return mercator_C(CurveJet.from_derivatives(s, derivs))

            fd = (c_at(h) - c_at(-h)) / (2 * h)
            scale = 1.0 + np.max(np.abs(res.mercator_expansion))
            assert np.max(np.abs(fd - res.mercator_expansion)) <= 1e-7 * scale


class TestParallelTransport:
    def test_circle_second_order_decay(self, rng):
        circle = random_circle(rng, 3)
        d1 = parallel_defect(lambda t: circle.jet(t, 4), 0.1, 0.02, count=3)
        d2 = parallel_defect(lambda t: circle.jet(t, 4), 0.1, 0.01, count=3)
        order = math.log2(d1 / d2)
        assert 1.6 <= order <= 2.4

    def test_spiral_scaled_wedge_parallel(self, rng):
        spiral = random_spiral(rng, 3, c=1.7)
        for h in (0.02, 0.01):
            d = parallel_defect(lambda t: spiral.jet(t, 5), 0.1, h, count=4)
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
            return CurveJet(t, ec * spiral.p0 + es * spiral.q0 + spiral.r0)

        g = gram_invariants(repar(0.2, 6), 5)
        assert abs(g.delta5) <= 1e-8 * max(1.0, g.gram_scale(5)) ** 5
        assert abs(g.delta4_jet.differentiate().value) > 1e-3
        bare = parallel_defect(repar, 0.2, 0.01, count=4, scaled=False)
        scaled = parallel_defect(repar, 0.2, 0.01, count=4, scaled=True)
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
            return CurveJet(t, acc)

        defects = [parallel_defect(poly, 0.1, h, count=3) for h in (0.02, 0.01, 0.005)]
        assert min(defects) > 0.1
        assert abs(defects[-1] / defects[-2] - 1.0) < 0.2

    def test_rejects_nonpositive_step(self, rng):
        circle = random_circle(rng, 3)
        with pytest.raises(ValueError):
            parallel_defect(lambda t: circle.jet(t, 4), 0.0, 0.0)
