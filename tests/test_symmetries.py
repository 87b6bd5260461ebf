import itertools

import numpy as np
import pytest

from confcurves import (
    KillingField,
    PhasePoint,
    ckv_eval,
    conformal_factor,
    e_quantities,
    f_closed,
    f_generic,
    hamiltonian,
    involutivity_check,
    mercator_C,
    phase_from_jet,
    poisson_bracket_fd,
    q_phase,
    q_quantities,
    quantity_identities,
    three_d_reduction,
)
from conftest import (
    random_circle,
    random_curve_jet,
    random_phase_point,
    random_spiral,
    random_transformed_spiral,
)


def basis_rotation(n, i, j):
    rot = np.zeros((n, n))
    rot[i - 1, j - 1] = 1.0
    rot[j - 1, i - 1] = -1.0
    return KillingField(n, R=rot)


def sample_fields(rng, n):
    """One field per generator type, then their sum, a general field with
    all four parts nonzero."""
    translation, rotation, dilatation, special = (
        KillingField(n, T=rng.uniform(-1, 1, n)),
        basis_rotation(n, 1, 2),
        KillingField(n, a=float(rng.uniform(0.5, 1.5))),
        KillingField(n, S=rng.uniform(-1, 1, n)),
    )
    general = KillingField(n, T=translation.T, R=rotation.R, a=dilatation.a, S=special.S)
    return [translation, rotation, dilatation, special, general]


class TestFieldEvaluation:
    def test_translation(self):
        assert np.array_equal(ckv_eval(KillingField(2, T=[1.0, 2.0]), [5.0, -3.0]), [1.0, 2.0])

    def test_dilatation(self):
        assert np.array_equal(ckv_eval(KillingField(2, a=1.0), [2.0, 0.0]), [2.0, 0.0])

    def test_special_conformal_hand_value(self):
        got = ckv_eval(KillingField(2, S=[1.0, 0.0]), [1.0, 1.0])
        assert np.allclose(got, [0.0, -2.0])

    def test_rotation_antisymmetrized(self):
        rot = KillingField(2, R=np.array([[1e-12, 1.0], [-1.0, -1e-12]]))
        assert np.array_equal(rot.R, -rot.R.T)
        for part in (
            {"R": np.array([[0.0, 1.0], [1.0, 0.0]])},
            {"R": np.zeros((3, 3))},
            {"T": np.ones(3)},
            {"S": np.ones((2, 2))},
        ):
            with pytest.raises(ValueError):
                KillingField(2, **part)

    def test_conformal_factor_values(self, rng):
        n = 3
        x = rng.normal(size=n)
        assert conformal_factor(basis_rotation(n, 1, 3), x) == 0.0
        assert conformal_factor(KillingField(n, T=np.ones(n)), x) == 0.0
        assert conformal_factor(KillingField(n, a=0.7), x) == 0.7
        S = rng.normal(size=n)
        assert conformal_factor(KillingField(n, S=S), x) == pytest.approx(-2 * float(S @ x))

    def test_conformal_factor_is_divergence_over_n(self, rng):
        # finite-difference divergence of each generator
        n = 3
        x = rng.normal(size=n)
        h = 1e-6
        for field in sample_fields(rng, n):
            div = 0.0
            for i in range(n):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                div += (ckv_eval(field, xp)[i] - ckv_eval(field, xm)[i]) / (2 * h)
            assert conformal_factor(field, x) == pytest.approx(div / n, abs=1e-8)


class TestNoetherQuantities:
    def test_generic_matches_closed_on_families(self, rng):
        for family in (
            random_spiral(rng, 3),
            random_circle(rng, 3),
            random_transformed_spiral(rng, 3),
        ):
            for field in sample_fields(rng, 3):
                vals_g = [f_generic(field, family.jet(float(t))) for t in np.linspace(-1, 1, 7)]
                vals_c = [f_closed(field, family.jet(float(t))) for t in np.linspace(-1, 1, 7)]
                scale = 1.0 + max(abs(v) for v in vals_c)
                assert max(abs(a - b) for a, b in zip(vals_g, vals_c)) <= 1e-9 * scale
                assert (max(vals_c) - min(vals_c)) <= 1e-8 * scale

    def test_translation_reduces_to_flow_vector(self, rng):
        jet = random_curve_jet(rng, 3)
        T = rng.normal(size=3)
        assert f_generic(KillingField(3, T=T), jet) == pytest.approx(
            -float(mercator_C(jet) @ T), rel=1e-12, abs=1e-12
        )

    def test_spiral_printed_values(self, rng):
        spiral = random_spiral(rng, 3, c=1.3)
        jet = spiral.jet(0.45)
        T = rng.normal(size=3)
        assert f_closed(KillingField(3, T=T), jet) == pytest.approx(0.0, abs=1e-10)
        assert f_closed(KillingField(3, a=0.9), jet) == pytest.approx(-0.9, abs=1e-10)

    def test_loxodrome_rotation_quantity_is_pitch(self):
        from confcurves import LogSpiral

        for c in (0.6, 1.7):
            lox = LogSpiral(c, np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2))
            rot = basis_rotation(2, 1, 2)
            for t in (-0.5, 0.0, 0.8):
                assert f_closed(rot, lox.jet(t)) == pytest.approx(c, abs=1e-10)
                assert f_generic(rot, lox.jet(t)) == pytest.approx(c, abs=1e-10)

    def test_circle_quantity_from_double_derivative(self, rng):
        # on circles the quantity collapses to d/dt <W', V> for the
        # isometry and dilatation generators
        circle = random_circle(rng, 3)
        for field in sample_fields(rng, 3)[:3]:
            for t in (-0.4, 0.3):
                jet = circle.jet(float(t))
                x = jet.position
                from confcurves.symmetries import _ckv_jet

                v = _ckv_jet(field, x)
                u_jet = x.differentiate()
                k = u_jet.order - 1
                w = u_jet.truncated(k + 1) * u_jet.truncated(k + 1).norm_sq().recip()
                rate = w.differentiate().truncated(k - 1).dot(
                    v.truncated(k - 1)
                ).differentiate().value
                assert f_generic(field, jet) == pytest.approx(rate, rel=1e-9, abs=1e-9)

    def test_transformed_spiral_dilatation_report(self, rng):
        for _ in range(5):
            ts = random_transformed_spiral(rng, 3)
            rep = ts.conserved_report()
            got = f_closed(KillingField(3, a=1.0), ts.jet(0.2))
            assert got == pytest.approx(rep.E_D, rel=1e-9, abs=1e-9)


class TestEQuantities:
    def test_unit_pitch_hand_values(self, planar_unit_spiral):
        e = e_quantities(phase_from_jet(planar_unit_spiral.jet(0.0)))
        assert np.allclose(e.E_T, 0.0, atol=1e-14)
        assert e.E_R[0, 1] == pytest.approx(1.0, abs=1e-14)
        assert e.E_D == pytest.approx(-1.0, abs=1e-14)
        assert np.allclose(e.E_S, 0.0, atol=1e-13)

    def test_free_point_special_conformal_only(self):
        p = PhasePoint(np.zeros(3), np.array([0.4, 0, 0]), np.zeros(3), np.zeros(3))
        e = e_quantities(p)
        assert np.allclose(e.E_T, 0.0) and e.E_D == 0.0
        assert np.allclose(e.E_R, 0.0)
        assert np.allclose(e.E_S, -2.0 * p.U)

    def test_spiral_general_values(self, rng):
        spiral = random_spiral(rng, 3, c=1.9)
        p2 = float(spiral.p0 @ spiral.p0)
        from confcurves import epsilon

        for t in (-0.6, 0.5):
            e = e_quantities(phase_from_jet(spiral.jet(float(t))))
            assert np.allclose(e.E_T, 0.0, atol=1e-10)
            assert e.E_D == pytest.approx(-1.0, abs=1e-10)
            for (i, j), value in e.rotation_pairs().items():
                assert value == pytest.approx(
                    spiral.c / p2 * epsilon((i, j), spiral.p0, spiral.q0), abs=1e-10
                )
            expect_s = (
                -2 * spiral.c * float(spiral.q0 @ spiral.r0) / p2 * spiral.p0
                + 2 * spiral.c * float(spiral.p0 @ spiral.r0) / p2 * spiral.q0
                + 2 * spiral.r0
            )
            assert np.max(np.abs(e.E_S - expect_s)) <= 1e-9

    def test_killing_pairings_match_closed_forms(self, rng):
        # the Noether value of each generator equals the pairing of its
        # parameters with the basis quantities
        for _ in range(25):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n)
            e = e_quantities(phase_from_jet(jet))
            T = rng.normal(size=n)
            assert f_closed(KillingField(n, T=T), jet) == pytest.approx(
                float(T @ e.E_T), rel=1e-12, abs=1e-12
            )
            i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
            assert f_closed(basis_rotation(n, i, j), jet) == pytest.approx(
                e.E_R[i - 1, j - 1], rel=1e-12, abs=1e-12
            )
            a = float(rng.uniform(0.5, 2.0))
            assert f_closed(KillingField(n, a=a), jet) == pytest.approx(
                a * e.E_D, rel=1e-12, abs=1e-12
            )
            S = rng.normal(size=n)
            assert f_closed(KillingField(n, S=S), jet) == pytest.approx(
                float(S @ e.E_S), rel=1e-12, abs=1e-12
            )
            R = rng.normal(size=(n, n))
            R = R - R.T
            general = KillingField(n, T=T, R=R, a=a, S=S)
            pairing = float(T @ e.E_T) + 0.5 * float(np.sum(R * e.E_R)) + a * e.E_D + float(S @ e.E_S)
            assert f_closed(general, jet) == pytest.approx(pairing, rel=1e-12, abs=1e-12)


class TestQPhase:
    def test_unit_pitch_hand_value(self, planar_unit_spiral):
        q = q_phase(phase_from_jet(planar_unit_spiral.jet(0.0)))
        assert q[(0, 1, 2, 3)] == pytest.approx(1.0, abs=1e-14)

    def test_matches_derivative_route(self, rng):
        for trial in range(100):
            n = 2 + trial % 7
            jet = random_curve_jet(rng, n)
            qj = q_quantities(jet)
            qp = q_phase(phase_from_jet(jet))
            for key, v in qj.items():
                assert qp[key] == pytest.approx(v, rel=1e-10, abs=1e-10)

    def test_zero_momenta_vanish(self):
        p = PhasePoint(np.ones(4), np.array([1.0, 0, 0, 0]), np.zeros(4), np.zeros(4))
        assert all(abs(v) <= 1e-15 for v in q_phase(p).values())


class TestQuantityIdentities:
    def test_unit_pitch_hand_identity(self, planar_unit_spiral):
        p = phase_from_jet(planar_unit_spiral.jet(0.0))
        e = e_quantities(p)
        q = q_phase(p)
        assert q[(0, 1, 2, 3)] == pytest.approx(
            0.5 * 0.0 - e.E_D * e.E_R[0, 1], abs=1e-13
        )
        rep = quantity_identities(p)
        assert rep["0ijN"]["residual"] <= 1e-13

    def test_zero_translation_quantity_kills_two_families(self, rng):
        n = 4
        p = PhasePoint(
            rng.uniform(-1, 1, n),
            rng.uniform(-1, 1, n) + np.array([1.5, 0, 0, 0]),
            np.zeros(n),
            rng.uniform(-1, 1, n),
        )
        q = q_phase(p)
        for i, j, k in itertools.combinations(range(1, n + 1), 3):
            assert q[(i, j, k, n + 1)] == pytest.approx(0.0, abs=1e-13)
        for idx in itertools.combinations(range(1, n + 1), 4):
            assert q[idx] == pytest.approx(0.0, abs=1e-13)

    def test_residuals_on_random_points(self, rng):
        for _ in range(100):
            p = random_phase_point(rng, 4)
            rep = quantity_identities(p)
            for fam, rec in rep.items():
                assert rec["residual"] <= 1e-10 * (1.0 + rec["scale"])


class TestThreeDReduction:
    def test_repackaging_matches_q_phase(self, rng):
        for _ in range(100):
            p = random_phase_point(rng, 3)
            red = three_d_reduction(p)
            q = q_phase(p)
            assert red.Q1[0] == pytest.approx(q[(0, 2, 3, 4)], rel=1e-12, abs=1e-12)
            assert red.Q1[1] == pytest.approx(-q[(0, 1, 3, 4)], rel=1e-12, abs=1e-12)
            assert red.Q1[2] == pytest.approx(q[(0, 1, 2, 4)], rel=1e-12, abs=1e-12)
            assert red.Q2 == pytest.approx(q[(0, 1, 2, 3)], rel=1e-12, abs=1e-12)
            assert red.Q3 == pytest.approx(q[(1, 2, 3, 4)], rel=1e-12, abs=1e-12)

    def test_energy_identity(self, rng):
        for _ in range(100):
            p = random_phase_point(rng, 3)
            assert three_d_reduction(p).H_from_E == pytest.approx(
                hamiltonian(p), rel=1e-12, abs=1e-12
            )

    def test_spiral_mixed_quantity_vanishes(self, rng):
        spiral = random_spiral(rng, 3, c=1.2)
        p = phase_from_jet(spiral.jet(0.7))
        assert three_d_reduction(p).Q3 == pytest.approx(0.0, abs=1e-10)

    def test_dimension_checked(self, rng):
        with pytest.raises(ValueError):
            three_d_reduction(random_phase_point(rng, 4))


class TestPoissonStructure:
    def test_translation_brackets_vanish_exactly(self, rng):
        p = random_phase_point(rng, 3)
        for i, j in itertools.combinations(range(3), 2):
            val = poisson_bracket_fd(
                lambda q, i=i: float(q.P[i]), lambda q, j=j: float(q.P[j]), p
            )
            assert val == 0.0

    def test_involutive_set(self, rng):
        points = [random_phase_point(rng, 3) for _ in range(10)]
        table = involutivity_check(points)
        for pair, val in table.items():
            assert val <= 1e-6, pair

    def test_all_quantities_commute_with_energy(self, rng):
        fns = []
        for i in range(3):
            fns.append(lambda p, i=i: float(e_quantities(p).E_T[i]))
            fns.append(lambda p, i=i: float(e_quantities(p).E_S[i]))
        for i, j in itertools.combinations(range(3), 2):
            fns.append(lambda p, i=i, j=j: float(e_quantities(p).E_R[i, j]))
        fns.append(lambda p: e_quantities(p).E_D)
        keys = [(0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (0, 1, 2, 3), (1, 2, 3, 4)]
        for key in keys:
            fns.append(lambda p, key=key: q_phase(p)[key])
        for _ in range(10):
            p = random_phase_point(rng, 3)
            for f in fns:
                assert abs(poisson_bracket_fd(f, hamiltonian, p)) <= 1e-6

    def test_basis_brackets_close_in_span(self, rng):
        # brackets of basis quantities are fixed linear combinations of
        # basis quantities: fit coefficients on half the points, check the
        # rest (no assertion about which combination appears)
        def components(p):
            e = e_quantities(p)
            out = [e.E_D, *e.E_T, *e.E_S]
            out += [e.E_R[i, j] for i, j in itertools.combinations(range(3), 2)]
            return np.array(out)

        pairs = [
            (lambda p: float(e_quantities(p).E_T[0]), lambda p: float(e_quantities(p).E_S[0])),
            (lambda p: float(e_quantities(p).E_T[0]), lambda p: float(e_quantities(p).E_S[1])),
            (lambda p: float(e_quantities(p).E_R[0, 1]), lambda p: float(e_quantities(p).E_R[1, 2])),
            (lambda p: e_quantities(p).E_D, lambda p: float(e_quantities(p).E_S[2])),
        ]
        points = [random_phase_point(rng, 3) for _ in range(26)]
        basis = np.array([components(p) for p in points])
        for f, g in pairs:
            brackets = np.array([poisson_bracket_fd(f, g, p) for p in points])
            coeffs, *_ = np.linalg.lstsq(basis[:13], brackets[:13], rcond=None)
            predicted = basis[13:] @ coeffs
            assert np.max(np.abs(predicted - brackets[13:])) <= 1e-5 * (
                1.0 + np.max(np.abs(brackets))
            )
