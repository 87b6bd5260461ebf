import itertools
import json
import math

import numpy as np
import pytest

from confcurves import (
    KillingField,
    derivatives,
    e_stack,
    f_generic_stack,
    flow_vector_stack,
    phase_from_jet,
    poisson_bracket,
    q_phase,
    quantity_identities,
)
from confcurves.cli import main
from confcurves.symmetries import _bivector_square, _casimir, _ckv_stack, basis_parts
from confcurves.curves import DegenerateVelocityError
from confcurves.tractors import q_keys, q_stack, quantity_family
from conftest import (
    assert_same_bits,
    central_difference_bracket,
    energy,
    keyed,
    pairing_term_scale,
    random_circle,
    random_curve_jet,
    random_phase_point,
    random_spiral,
    random_transformed_spiral,
    row_sets,
    three_d_functions,
    three_d_view,
    tractor_basis,
)
from jet_oracle import JetScalar
from oracles import (
    ckv_eval,
    conformal_factor,
    epsilon,
    field_ckv_stack,
    field_f_generic,
    hand_q_phase,
    hand_quantity_identities,
    involutivity_check,
    noether_stack,
)


def phase_basis(y):
    """:func:`e_stack` of the components of phase rows ``y``: the momentum
    bivector ``M``."""
    return e_stack(*np.split(y, 4, axis=-1))


def closed_basis(jet):
    """The momentum bivector of one coefficient row from its canonical
    tractors, the route the CLI runs."""
    return tractor_basis(jet)


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
            fields = sample_fields(rng, 3)
            jets = [family.jet(float(t)) for t in np.linspace(-1, 1, 7)]
            for field, vals_g in zip(fields, f_generic_stack(fields, np.array(jets)).tolist()):
                vals_c = [field.pair(closed_basis(jet)) for jet in jets]
                scale = 1.0 + max(abs(v) for v in vals_c)
                assert max(abs(a - b) for a, b in zip(vals_g, vals_c)) <= 1e-9 * scale
                assert (max(vals_c) - min(vals_c)) <= 1e-8 * scale

    def test_translation_reduces_to_flow_vector(self, rng):
        jet = random_curve_jet(rng, 3)
        T = rng.normal(size=3)
        assert f_generic_stack([KillingField(3, T=T)], jet)[0] == pytest.approx(
            -float(flow_vector_stack(*derivatives(jet, 4)[1:]) @ T), rel=1e-12, abs=1e-12
        )

    def test_spiral_printed_values(self, rng):
        spiral = random_spiral(rng, 3, c=1.3)
        jet = spiral.jet(0.45)
        T = rng.normal(size=3)
        assert KillingField(3, T=T).pair(closed_basis(jet)) == pytest.approx(0.0, abs=1e-10)
        assert KillingField(3, a=0.9).pair(closed_basis(jet)) == pytest.approx(-0.9, abs=1e-10)

    def test_loxodrome_rotation_quantity_is_pitch(self):
        from confcurves import LogSpiral

        for c in (0.6, 1.7):
            lox = LogSpiral(c, np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2))
            rot = basis_rotation(2, 1, 2)
            for t in (-0.5, 0.0, 0.8):
                assert rot.pair(closed_basis(lox.jet(t))) == pytest.approx(c, abs=1e-10)
                assert f_generic_stack([rot], lox.jet(t))[0] == pytest.approx(c, abs=1e-10)

    def test_circle_quantity_from_double_derivative(self, rng):
        # on circles the quantity collapses to d/dt <W', V> for the
        # isometry and dilatation generators
        circle = random_circle(rng, 3)
        for field in sample_fields(rng, 3)[:3]:
            for t in (-0.4, 0.3):
                jet = circle.jet(float(t))
                x = JetScalar(jet)
                v = JetScalar(field_ckv_stack(field, x.coeffs))
                u_jet = x.differentiate()
                k = u_jet.order - 1
                w = u_jet.truncated(k + 1) * u_jet.truncated(k + 1).norm_sq().recip()
                rate = w.differentiate().truncated(k - 1).dot(
                    v.truncated(k - 1)
                ).differentiate().value
                assert f_generic_stack([field], jet)[0] == pytest.approx(rate, rel=1e-9, abs=1e-9)

    def test_transformed_spiral_dilatation_report(self, rng):
        for _ in range(5):
            ts = random_transformed_spiral(rng, 3)
            E_D = basis_parts(ts.conserved_report())[2]
            got = KillingField(3, a=1.0).pair(closed_basis(ts.jet(0.2)))
            assert got == pytest.approx(E_D, rel=1e-9, abs=1e-9)


class TestEQuantities:
    def test_unit_pitch_hand_values(self, planar_unit_spiral):
        M = phase_basis(phase_from_jet(planar_unit_spiral.jet(0.0)))
        assert M.shape == (4, 4) and np.array_equal(M, -M.T)
        E_T, E_R, E_D, E_S = basis_parts(M)
        assert np.allclose(E_T, 0.0, atol=1e-14)
        assert E_R[0, 1] == pytest.approx(1.0, abs=1e-14)
        assert E_D == pytest.approx(-1.0, abs=1e-14)
        assert np.allclose(E_S, 0.0, atol=1e-13)

    def test_free_point_special_conformal_only(self):
        U = np.array([0.4, 0, 0])
        E_T, E_R, E_D, E_S = basis_parts(e_stack(np.zeros(3), U, np.zeros(3), np.zeros(3)))
        assert np.allclose(E_T, 0.0) and E_D == 0.0
        assert np.allclose(E_R, 0.0)
        assert np.allclose(E_S, -2.0 * U)

    def test_spiral_general_values(self, rng):
        spiral = random_spiral(rng, 3, c=1.9)
        p2 = float(spiral.p0 @ spiral.p0)
        for t in (-0.6, 0.5):
            E_T, E_R, E_D, E_S = basis_parts(phase_basis(phase_from_jet(spiral.jet(float(t)))))
            assert np.allclose(E_T, 0.0, atol=1e-10)
            assert E_D == pytest.approx(-1.0, abs=1e-10)
            for i, j in itertools.combinations(range(1, 4), 2):
                assert E_R[i - 1, j - 1] == pytest.approx(
                    spiral.c / p2 * epsilon((i, j), spiral.p0, spiral.q0), abs=1e-10
                )
            expect_s = (
                -2 * spiral.c * float(spiral.q0 @ spiral.r0) / p2 * spiral.p0
                + 2 * spiral.c * float(spiral.p0 @ spiral.r0) / p2 * spiral.q0
                + 2 * spiral.r0
            )
            assert np.max(np.abs(E_S - expect_s)) <= 1e-9

    def test_killing_pairings_match_closed_forms(self, rng):
        # the Noether value of each generator equals the pairing of its
        # parameters with the basis quantities
        for _ in range(25):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n)
            E_T, E_R, E_D, E_S = basis_parts(phase_basis(phase_from_jet(jet)))
            basis = closed_basis(jet)
            T = rng.normal(size=n)
            assert KillingField(n, T=T).pair(basis) == pytest.approx(
                float(T @ E_T), rel=1e-12, abs=1e-12
            )
            i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
            assert basis_rotation(n, i, j).pair(basis) == pytest.approx(
                E_R[i - 1, j - 1], rel=1e-12, abs=1e-12
            )
            a = float(rng.uniform(0.5, 2.0))
            assert KillingField(n, a=a).pair(basis) == pytest.approx(
                a * E_D, rel=1e-12, abs=1e-12
            )
            S = rng.normal(size=n)
            assert KillingField(n, S=S).pair(basis) == pytest.approx(
                float(S @ E_S), rel=1e-12, abs=1e-12
            )
            R = rng.normal(size=(n, n))
            R = R - R.T
            general = KillingField(n, T=T, R=R, a=a, S=S)
            pairing = float(T @ E_T) + 0.5 * float(np.sum(R * E_R)) + a * E_D + float(S @ E_S)
            assert general.pair(basis) == pytest.approx(pairing, rel=1e-12, abs=1e-12)


class TestQPhase:
    def test_unit_pitch_hand_value(self, planar_unit_spiral):
        q = keyed(q_phase(*np.split(phase_from_jet(planar_unit_spiral.jet(0.0)), 4)), 2)
        assert q[(0, 1, 2, 3)] == pytest.approx(1.0, abs=1e-14)

    def test_matches_derivative_route(self, rng):
        for trial in range(100):
            n = 2 + trial % 7
            jet = random_curve_jet(rng, n)
            qj = keyed(q_stack(jet), n)
            qp = keyed(q_phase(*np.split(phase_from_jet(jet), 4)), n)
            for key, v in qj.items():
                assert qp[key] == pytest.approx(v, rel=1e-10, abs=1e-10)

    def test_zero_momenta_vanish(self):
        q = q_phase(np.ones(4), np.array([1.0, 0, 0, 0]), np.zeros(4), np.zeros(4))
        assert all(abs(v) <= 1e-15 for v in q)


class TestQuantityIdentities:
    def test_unit_pitch_hand_identity(self, planar_unit_spiral):
        y = np.split(phase_from_jet(planar_unit_spiral.jet(0.0)), 4)
        _, E_R, E_D, _ = basis_parts(e_stack(*y))
        q = keyed(q_phase(*y), 2)
        assert q[(0, 1, 2, 3)] == pytest.approx(
            0.5 * 0.0 - E_D * E_R[0, 1], abs=1e-13
        )
        rep = quantity_identities(*y)
        assert rep["0ijN"]["residual"] <= 1e-13

    def test_zero_translation_quantity_kills_two_families(self, rng):
        n = 4
        q = q_phase(
            rng.uniform(-1, 1, n),
            rng.uniform(-1, 1, n) + np.array([1.5, 0, 0, 0]),
            np.zeros(n),
            rng.uniform(-1, 1, n),
        )
        q = keyed(q, n)
        for i, j, k in itertools.combinations(range(1, n + 1), 3):
            assert q[(i, j, k, n + 1)] == pytest.approx(0.0, abs=1e-13)
        for idx in itertools.combinations(range(1, n + 1), 4):
            assert q[idx] == pytest.approx(0.0, abs=1e-13)

    def test_residuals_on_random_points(self, rng):
        for trial in range(100):
            rep = quantity_identities(*np.split(random_phase_point(rng, 2 + trial % 7), 4))
            for fam, rec in rep.items():
                assert rec["residual"] <= 1e-10 * (1.0 + rec["scale"])


class TestThreeDReduction:
    """The dimension-three view of the momentum bivector, read off its
    square and its Casimir."""

    def test_repackaging_matches_q_phase(self, rng):
        for _ in range(100):
            p = random_phase_point(rng, 3)
            Q1, Q2, Q3 = three_d_view(phase_basis(p))
            q = keyed(q_phase(*np.split(p, 4)), 3)
            assert Q1[0] == pytest.approx(q[(0, 2, 3, 4)], rel=1e-12, abs=1e-12)
            assert Q1[1] == pytest.approx(-q[(0, 1, 3, 4)], rel=1e-12, abs=1e-12)
            assert Q1[2] == pytest.approx(q[(0, 1, 2, 4)], rel=1e-12, abs=1e-12)
            assert Q2 == pytest.approx(q[(0, 1, 2, 3)], rel=1e-12, abs=1e-12)
            assert Q3 == pytest.approx(q[(1, 2, 3, 4)], rel=1e-12, abs=1e-12)

    def test_energy_identity(self, rng):
        for _ in range(100):
            p = random_phase_point(rng, 3)
            assert _casimir(phase_basis(p)) == pytest.approx(
                energy(*np.split(p, 4)), rel=1e-12, abs=1e-12
            )

    def test_spiral_mixed_quantity_vanishes(self, rng):
        spiral = random_spiral(rng, 3, c=1.2)
        p = phase_from_jet(spiral.jet(0.7))
        assert three_d_view(phase_basis(p))[2] == pytest.approx(0.0, abs=1e-10)


class TestPoissonStructure:
    def test_translation_brackets_vanish_exactly(self, rng):
        p = random_phase_point(rng, 3)
        for i, j in itertools.combinations(range(3), 2):
            val = poisson_bracket(lambda *y, i=i: y[2][..., i], lambda *y, j=j: y[2][..., j], p)
            assert val == 0.0

    def test_involutive_set(self, rng):
        points = np.stack([random_phase_point(rng, 3) for _ in range(10)])
        table = involutivity_check(points)
        for pair, val in table.items():
            assert val <= 1e-12, pair

    def test_involutive_set_needs_dimension_three(self, rng):
        with pytest.raises(ValueError, match="dimension 3"):
            involutivity_check(np.stack([random_phase_point(rng, 4) for _ in range(2)]))

    def test_all_quantities_commute_with_energy(self, rng):
        points = np.stack([random_phase_point(rng, 3) for _ in range(10)])
        for name, f in three_d_functions().items():
            assert np.max(np.abs(poisson_bracket(f, energy, points))) <= 1e-12, name

    def test_complex_step_matches_central_differences(self):
        # the central-difference oracle at criterion 8's points, against the
        # energy and against E_S0, whose brackets with the others are O(1)
        rng = np.random.default_rng(23)
        rows = [random_phase_point(rng, 3) for _ in range(50)]
        fns = three_d_functions()
        for g in (energy, fns["E_S0"]):
            for name, f in fns.items():
                got = poisson_bracket(f, g, np.stack(rows))
                want = [central_difference_bracket(f, g, p) for p in rows]
                assert np.max(np.abs(got - want)) <= 1e-6, name

    def test_a_float_cast_warns(self, rng):
        # a function that casts to float has no imaginary part to read
        def q3(X, U, P, R):
            return q_phase(X, U, P, R)[..., -1]

        with pytest.warns(np.exceptions.ComplexWarning):
            poisson_bracket(q3, energy, random_phase_point(rng, 3))

    def test_basis_brackets_close_in_span(self, rng):
        # brackets of basis quantities are fixed linear combinations of
        # basis quantities: fit coefficients on half the points, check the
        # rest (no assertion about which combination appears)
        fns = three_d_functions()
        names = ["E_D", "E_T0", "E_T1", "E_T2", "E_S0", "E_S1", "E_S2", "E_R01", "E_R02", "E_R12"]
        pairs = [("E_T0", "E_S0"), ("E_T0", "E_S1"), ("E_R01", "E_R12"), ("E_D", "E_S2")]
        points = np.stack([random_phase_point(rng, 3) for _ in range(26)])
        y = np.split(points, 4, axis=-1)
        basis = np.stack([fns[name](*y) for name in names], axis=-1)
        for f, g in pairs:
            brackets = poisson_bracket(fns[f], fns[g], points)
            coeffs, *_ = np.linalg.lstsq(basis[:13], brackets[:13], rcond=None)
            predicted = basis[13:] @ coeffs
            assert np.max(np.abs(predicted - brackets[13:])) <= 1e-12 * (
                1.0 + np.max(np.abs(brackets))
            )


def row_e_quantities(X, U, P, R):
    E_R = np.outer(X, P) - np.outer(P, X) + np.outer(U, R) - np.outer(R, U)
    E_D = float(X @ P) + float(U @ R)
    E_S = (
        float(X @ X) * P
        + 2.0 * float(X @ U) * R
        - 2.0 * E_D * X
        - 2.0 * (1.0 + float(X @ R)) * U
    )
    return P.copy(), E_R, E_D, E_S


def row_noether_basis(jet):
    X, U, A, Ap = derivatives(jet, 4)
    u2 = float(U @ U)
    C = flow_vector_stack(U, A, Ap)
    F_R = (np.outer(U, A) - np.outer(A, U)) / u2 + (np.outer(C, X) - np.outer(X, C))
    F_D = -(float(U @ A) / u2 + float(C @ X))
    Y = (
        float(U @ X) / u2 * A
        - (1.0 + float(A @ X) / u2) * U
        + (float(U @ A) / u2 + float(C @ X)) * X
        - 0.5 * float(X @ X) * C
    )
    return -C, F_R, F_D, 2.0 * Y


def assert_basis(got, k, want):
    """Row ``k`` of batched momentum bivectors (``k`` None for one row)
    holds the bits of the one-row formula's parts ``want``."""
    row = got if k is None else got[k]
    parts = (-0.5 * row[1:-1, -1], row[1:-1, 1:-1], 0.5 * row[0, -1], -row[0, 1:-1])
    E_T, E_R, E_D, E_S = want
    for value, expected in zip(parts, (E_T, E_R - E_R.T, E_D, E_S)):
        assert_same_bits(value, expected)


class TestRowBatched:
    """The batched basis quantities against the one-row float formulas they
    replaced, bit for bit, and the tractor route over a stack against its
    one-row calls."""

    def test_e_quantities(self, rng):
        for jets in row_sets(rng):
            points = [phase_from_jet(j) for j in jets]
            batched = phase_basis(np.stack(points))
            for k, p in enumerate(points):
                want = row_e_quantities(*np.split(p, 4))
                assert_basis(batched, k, want)
                one = phase_basis(p)
                assert_basis(one, None, want)
                assert one.shape == (p.size // 4 + 2,) * 2

    def test_noether_basis(self, rng):
        # the tractor route has the bits of its one-row calls, and the
        # closed-form oracle those of the one-row closed form; the two agree
        # to round-off
        for jets in row_sets(rng):
            batched = tractor_basis(np.stack(jets))
            closed = noether_stack(*derivatives(np.stack(jets), 4))
            for k, jet in enumerate(jets):
                assert_same_bits(batched[k], closed_basis(jet))
                assert_basis(closed, k, row_noether_basis(jet))
                assert np.max(np.abs(batched[k] - closed[k])) <= 1e-13 * (1.0 + np.max(np.abs(closed[k])))

    def test_pair_over_stacked_bases(self, rng):
        # the one-row pairing formula, with Python floats
        for jets in row_sets(rng, count=5):
            n = jets[0].shape[0]
            bases = tractor_basis(np.stack(jets))
            for field in sample_fields(rng, n):
                values = field.pair(bases)
                for k, jet in enumerate(jets):
                    b = closed_basis(jet)
                    E_T, E_R, E_D, E_S = basis_parts(b)
                    want = (
                        float(field.T @ E_T)
                        + 0.5 * float(np.sum(field.R * E_R))
                        + field.a * E_D
                        + float(field.S @ E_S)
                    )
                    assert values[k] == want and field.pair(b) == want
                    assert isinstance(field.pair(b), float)


def jet_ckv(field, x):
    """The field on a position jet, the one-row body the stack replaced."""
    c = x.coeffs
    s_dot_x = JetScalar((field.S[:, None] * c).sum(axis=0))
    coeffs = (
        field.R.T @ c
        + field.a * c
        + np.outer(field.S, x.norm_sq().coeffs)
        - 2.0 * (x * s_dot_x).coeffs
    )
    coeffs[:, 0] += field.T
    return JetScalar(coeffs)


def jet_f_generic(field, jet):
    """The per-jet body of ``f_generic`` that the stack replaced: every
    derivative through jet objects of the full order."""
    x = JetScalar(jet)
    v = jet_ckv(field, x)
    vp = v.differentiate()
    u_jet = x.differentiate()
    k = vp.order
    w = u_jet.truncated(k) * u_jet.truncated(k).norm_sq().recip()
    dWVp = w.dot(vp).differentiate().value
    WpVp = float(np.dot(w.differentiate().value, vp.value))
    C = flow_vector_stack(*derivatives(jet, 4)[1:])
    return dWVp + WpVp - float(C @ v.value)


class TestGenericStack:
    def test_stack_matches_the_per_jet_body(self, rng):
        worst = 0.0
        for n in range(2, 9):
            families = (random_spiral(rng, n), random_circle(rng, n), random_transformed_spiral(rng, n))
            for family in families:
                times = np.linspace(-1.0, 1.0, 9)
                coeffs = family.jet(times)
                fields = sample_fields(rng, n)
                stacked = f_generic_stack(fields, coeffs)
                assert stacked.shape == (len(fields), len(times))
                for k, t in enumerate(times):
                    # every field at one row is that row of the stack
                    assert np.array_equal(f_generic_stack(fields, family.jet(float(t))), stacked[:, k])
                for field, got in zip(fields, stacked):
                    # one call over the fields has the bits of one call per field
                    assert np.array_equal(got, field_f_generic(field, coeffs))
                    for t, value in zip(times, got):
                        want = jet_f_generic(field, family.jet(float(t)))
                        worst = max(worst, abs(value - want) / (1.0 + abs(want)))
        assert worst <= 1e-13

    def test_random_jets_and_order_check(self, rng):
        for n in range(2, 6):
            jets = [random_curve_jet(rng, n) for _ in range(6)]
            coeffs = np.stack(jets)
            fields = sample_fields(rng, n)
            for field, values in zip(fields, f_generic_stack(fields, coeffs)):
                assert np.array_equal(values, field_f_generic(field, coeffs))
                for jet, value in zip(jets, values):
                    want = jet_f_generic(field, jet)
                    assert abs(value - want) <= 1e-13 * (1.0 + abs(want))
        with pytest.raises(ValueError, match="through order 4"):
            f_generic_stack([KillingField(3, a=1.0)], np.ones((2, 3, 4)))

    def test_one_lift_has_the_bits_of_one_lift_per_field(self, rng):
        # fields with all four parts nonzero, on one leading axis, two, and
        # one unbatched row: the shared |x|^2 jet, the one product with the
        # stacked S.x jets and the one stacked rotation matmul repeat the
        # per-field lift and quantity of tests/oracles.py bit for bit
        for n in range(2, 9):
            fields = []
            for _ in range(4):
                R = rng.uniform(-1.0, 1.0, (n, n))
                fields.append(
                    KillingField(n, T=rng.uniform(-1, 1, n), R=R - R.T, a=rng.uniform(0.5, 1.5), S=rng.uniform(-1, 1, n))
                )
            jets = np.stack([random_curve_jet(rng, n, levels=7) for _ in range(6)])
            for coeffs in (jets, jets.reshape(2, 3, n, 7), jets[4]):
                lifted, values = _ckv_stack(fields, coeffs[..., :4]), f_generic_stack(fields, coeffs)
                assert lifted.shape == (4, *coeffs.shape[:-1], 4) and values.shape == (4, *coeffs.shape[:-2])
                for field, lift, got in zip(fields, lifted, values):
                    assert np.array_equal(lift, field_ckv_stack(field, coeffs[..., :4]))
                    assert np.array_equal(got, field_f_generic(field, coeffs))


def row_q_phase(p):
    """``q_phase`` of one phase point, keyed."""
    X, U, P, R = np.split(p, 4)
    return dict(zip(q_keys(X.size), q_phase(X, U, P, R).tolist()))


def bivector_term_scale(X, U, P, R):
    """The largest entry of the momentum bivector at each phase point, one
    more than it: the products of two entries bound the terms of the
    rank-4 hand forms, those of three the ``E_D``-multiplied ``ijkl`` one."""
    return 1.0 + np.max(np.abs(e_stack(X, U, P, R)), axis=(-2, -1))


def hand_report(X, U, P, R):
    """``quantity_identities``' report from the hand-expanded sides."""
    report = {}
    for family, (lhs, rhs) in hand_quantity_identities(X, U, P, R).items():
        resid = np.max(np.abs(lhs - rhs), axis=-1, initial=0.0)
        scale = np.max(np.abs(np.concatenate([lhs, rhs], axis=-1)), axis=-1, initial=0.0)
        report[family] = {"residual": resid, "scale": scale}
    return report


def relation_draws(seed, n, count):
    """The phase points ``relations`` draws for ``--seed``, one by one."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        y = rng.uniform(-1.0, 1.0, 4 * n)
        if float(y[n : 2 * n] @ y[n : 2 * n]) >= 0.1:
            points.append(y)
    return points


class TestStackedPhasePoints:
    """``q_phase`` and ``quantity_identities`` on stacked phase rows against
    their one-point calls, bit for bit, and ``q_phase`` and the bivector
    square against their hand-expanded forms to round-off."""

    def test_stack_matches_the_per_point_bodies(self, rng):
        for n in range(1, 9):
            points = [random_phase_point(rng, n) for _ in range(25)]
            stack = np.split(np.stack(points), 4, axis=-1)
            q = q_phase(*stack)
            rep = quantity_identities(*stack)
            assert q.shape == (25, len(q_keys(n))) and list(rep) == ["0ijN", "0ijk", "ijkN", "ijkl"]
            X, U, P, R = stack
            scale = pairing_term_scale(X, U, R, P, (np.sum(U * R, axis=-1), 1.0, 1.0))
            assert np.all(np.abs(q - hand_q_phase(*stack)) <= 1e-14 * scale[:, None])
            for k, p in enumerate(points):
                assert q[k].tolist() == list(row_q_phase(p).values())
                want = quantity_identities(*np.split(p, 4))
                for family, rec in rep.items():
                    assert rec["residual"][k] == want[family]["residual"]
                    assert rec["scale"][k] == want[family]["scale"]
            # the square of the momentum bivector against the hand forms
            term = bivector_term_scale(*stack)[:, None]
            M = e_stack(*stack)
            E_D = 0.5 * M[:, 0, -1:]
            sizes = np.cumsum([math.comb(n, 2), math.comb(n, 3), math.comb(n, 3)])
            square = np.split(_bivector_square(M), sizes, axis=-1)
            for got, (family, (lhs, rhs)) in zip(square, hand_quantity_identities(*stack).items()):
                power = 2
                if family == "ijkl":
                    got, power = E_D * got, 3
                assert np.all(np.abs(got - rhs) <= 1e-14 * term**power), family
                assert np.all(np.abs(lhs - rhs) <= 1e-14 * term**power), family

    def test_vacuous_families_below_dimension_four(self, rng):
        for n in (1, 2, 3):
            stack = np.split(np.stack([random_phase_point(rng, n) for _ in range(4)]), 4, axis=-1)
            sizes = [quantity_family(key, n) for key in q_keys(n)]
            for family, rec in quantity_identities(*stack).items():
                if family not in sizes:
                    assert_same_bits(rec["residual"], np.zeros(4))
                    assert_same_bits(rec["scale"], np.zeros(4))

    def test_one_point_gives_python_floats(self, rng):
        p = np.split(random_phase_point(rng, 4), 4)
        assert q_phase(*p).shape == (len(q_keys(4)),)
        for rec in quantity_identities(*p).values():
            assert isinstance(rec["residual"], float) and isinstance(rec["scale"], float)

    def test_e_quantities_over_the_stack(self, rng):
        points = [random_phase_point(rng, 3) for _ in range(4)]
        M = phase_basis(np.stack(points))
        for k, p in enumerate(points):
            assert_same_bits(M[k], phase_basis(p))

    def test_three_d_reduction_is_per_row(self, rng):
        # the n = 3 view and the Casimir of stacked bivectors, row by row
        points = [random_phase_point(rng, 3) for _ in range(4)]
        M = phase_basis(np.stack(points))
        rows = [phase_basis(p) for p in points]
        for got, want in zip(three_d_view(M), zip(*map(three_d_view, rows))):
            assert_same_bits(got, want)
        assert_same_bits(_casimir(M), [_casimir(m) for m in rows])

    def test_one_slow_row_is_degenerate(self, rng):
        # the floor is checked where a speed divides: phase_from_jet over a
        # coefficient stack refuses it for one slow row among five
        coeffs = np.stack([random_curve_jet(rng, 3) for _ in range(5)])
        coeffs[3, :, 1] = 1e-9
        with pytest.raises(DegenerateVelocityError):
            phase_from_jet(coeffs)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_relations_report_matches_the_per_sample_loop(self, tmp_path, n):
        # the fold of the per-sample loop that one stacked call replaced,
        # and of the hand-expanded sides to round-off
        points = relation_draws(11, n, 40)
        worst = {"0ijN": 0.0, "0ijk": 0.0, "ijkN": 0.0, "ijkl": 0.0}
        for p in points:
            for family, rec in quantity_identities(*np.split(p, 4)).items():
                worst[family] = max(worst[family], rec["residual"] / (1.0 + rec["scale"]))
        hand = hand_report(*np.split(np.stack(points), 4, axis=-1))
        for family, rec in hand.items():
            assert np.max(rec["residual"] / (1.0 + rec["scale"])) <= 1e-14
            assert worst[family] <= 1e-14
        sizes = {quantity_family(key, n) for key in q_keys(n)}
        out = tmp_path / "rel.json"
        code = main(["relations", "--n", str(n), "--samples", "40", "--seed", "11", "--out", str(out)])
        if not sizes:
            # every family is vacuous in dimension 1: nothing checked
            assert code == 2 and not out.exists()
            return
        assert code == 0
        measured = {r["name"]: r["measured"] for r in json.loads(out.read_text())["checks"]}
        assert measured == {f"identity_{f}": v for f, v in worst.items() if f in sizes}
