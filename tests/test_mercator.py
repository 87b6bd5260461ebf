import itertools

import numpy as np
import pytest

from confcurves import (
    JetScalar,
    LogSpiral,
    PhasePoint,
    accel_from_phase,
    circle_residual_stack,
    coefficients,
    derivatives,
    e_quantities,
    hamilton_rhs,
    hamiltonian,
    integrate,
    lagrangians,
    phase_from_jet,
    poisson_bracket_fd,
    q_phase,
    Trajectory,
    flow_vector_stack,
    hamiltonian_stack,
    momenta_stack,
    taylor_lift,
)
from confcurves.curves import VELOCITY_FLOOR, DegenerateVelocityError
from confcurves.mercator import FlowDegeneracyError

from conftest import (
    assert_same_bits,
    random_circle,
    random_curve_jet,
    random_phase_point,
    random_spiral,
    random_transformed_spiral,
    row_sets,
)


def straight_line_jet(n=2):
    derivs = [np.zeros(n) for _ in range(5)]
    derivs[1][0] = 1.0
    return coefficients(derivs)


def flow_vector(jet):
    """The flow vector of one coefficient row, an unbatched stack call."""
    return flow_vector_stack(*derivatives(jet, 4)[1:])


class TestFlowVector:
    def test_vanishes_on_spirals(self, rng):
        spiral = random_spiral(rng, 3)
        for t in np.linspace(-1, 1, 7):
            assert np.max(np.abs(flow_vector(spiral.jet(float(t))))) <= 1e-10

    def test_vanishes_on_straight_line(self):
        assert np.max(np.abs(flow_vector(straight_line_jet()))) == 0.0

    def test_unit_pitch_hand_evaluation(self, planar_unit_spiral):
        assert np.allclose(flow_vector(planar_unit_spiral.jet(0.0)), [0.0, 0.0], atol=1e-14)

    def test_constant_along_families(self, rng):
        for family in (
            random_spiral(rng, 3),
            random_circle(rng, 3),
            random_transformed_spiral(rng, 3),
        ):
            c_vals = [flow_vector(family.jet(float(t))) for t in (-0.8, 0.1, 0.9)]
            for c in c_vals[1:]:
                assert np.max(np.abs(c - c_vals[0])) <= 1e-10 * (
                    1.0 + np.max(np.abs(c_vals[0]))
                )


def row_mercator_C(jet):
    _, U, A, Ap = derivatives(jet, 4)
    u2 = float(U @ U)
    AU = float(A @ U)
    AA = float(A @ A)
    ApU = float(Ap @ U)
    return (
        Ap - AA / u2 * U - 2 * AU / u2 * A + 4 * AU**2 / u2**2 * U - 2 * ApU / u2 * U
    ) / u2


def row_momenta(jet):
    _, U, A = derivatives(jet, 3)
    u2 = float(U @ U)
    return -row_mercator_C(jet), A / u2 - 2 * float(U @ A) / u2**2 * U


def row_hamiltonian(U, P, R):
    UR = float(R @ U)
    return float(P @ U) - UR**2 + 0.5 * float(U @ U) * float(R @ R)


class TestRowBatched:
    """The batched flow vector, momenta and Hamiltonian against the
    one-row float formulas they replaced, bit for bit."""

    def test_flow_vector(self, rng):
        for jets in row_sets(rng):
            batched = flow_vector_stack(*derivatives(np.stack(jets), 4)[1:])
            for jet, row in zip(jets, batched):
                want = row_mercator_C(jet)
                assert_same_bits(row, want)
                assert_same_bits(flow_vector(jet), want)

    def test_momenta_and_hamiltonian(self, rng):
        for jets in row_sets(rng):
            U, A, Ap = derivatives(np.stack(jets), 4)[1:]
            P, R = momenta_stack(U, A, Ap)
            H = hamiltonian_stack(U, P, R)
            points = phase_from_jet(np.stack(jets))
            assert_same_bits(points.P, P)
            assert_same_bits(points.R, R)
            for k, jet in enumerate(jets):
                want_P, want_R = row_momenta(jet)
                assert_same_bits(P[k], want_P)
                assert_same_bits(R[k], want_R)
                p = phase_from_jet(jet)
                assert_same_bits(p.P, want_P)
                assert_same_bits(p.R, want_R)
                want_H = row_hamiltonian(derivatives(jet, 2)[1], want_P, want_R)
                assert_same_bits(H[k], want_H)
                assert hamiltonian(p) == want_H and isinstance(hamiltonian(p), float)


class TestLagrangians:
    def test_straight_line(self):
        L, L1 = lagrangians(straight_line_jet())
        assert L == 0.0 and L1 == 0.0

    def test_unit_pitch_point(self, planar_unit_spiral):
        # L1 = 1/2 * (1/2) * 4 - (1/4) * 4 = 0
        L, L1 = lagrangians(planar_unit_spiral.jet(0.0))
        assert L1 == pytest.approx(0.0, abs=1e-14)

    def test_difference_is_total_derivative(self, rng):
        # d/dt of u^-2 <U, A> expanded by hand:
        # u^-2 (<A,A> + <U,A'>) - 2 u^-4 <U,A>^2
        for _ in range(100):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n)
            L, L1 = lagrangians(jet)
            _, U, A, Ap = derivatives(jet, 4)
            u2 = float(U @ U)
            expect = (float(A @ A) + float(U @ Ap)) / u2 - 2 * float(U @ A) ** 2 / u2**2
            assert L - L1 == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_names_a_stack(self, rng):
        stack = np.stack([random_curve_jet(rng, 3) for _ in range(2)])
        message = r"^lagrangians takes one coefficient row, got a stack of shape \(2,\)$"
        with pytest.raises(ValueError, match=message):
            lagrangians(stack)


def circle_residual(jet):
    """The circle residual of one coefficient row, an unbatched stack call."""
    return circle_residual_stack(*derivatives(jet, 4)[1:])


class TestCircleResidual:
    def test_zero_on_circle_family(self, rng):
        circle = random_circle(rng, 3)
        for t in np.linspace(-1, 1, 9):
            assert np.max(np.abs(circle_residual(circle.jet(float(t))))) <= 1e-10

    def test_zero_on_straight_line(self):
        assert np.max(np.abs(circle_residual(straight_line_jet()))) == 0.0

    def test_spirals_are_not_circles(self, planar_unit_spiral):
        # hand substitution: (-2,2) - 3*(1/2)*2*(0,2) + (3/2)*(1/2)*4*(1,1)
        res = circle_residual(planar_unit_spiral.jet(0.0))
        assert np.allclose(res, [1.0, -1.0], atol=1e-13)
        assert np.linalg.norm(res) > 0.5

    def test_stack_repeats_the_one_row_formula(self, rng):
        for jets in row_sets(rng):
            batched = circle_residual_stack(*derivatives(np.stack(jets), 4)[1:])
            for jet, row in zip(jets, batched):
                _, U, A, Ap = derivatives(jet, 4)
                u2 = float(U @ U)
                want = Ap - 3 * float(A @ U) / u2 * A + 1.5 * float(A @ A) / u2 * U
                assert_same_bits(row, want)
                assert_same_bits(circle_residual(jet), want)


class TestPhaseConversions:
    def test_unit_pitch_momenta(self, planar_unit_spiral):
        p = phase_from_jet(planar_unit_spiral.jet(0.0))
        assert np.allclose(p.P, [0.0, 0.0], atol=1e-14)
        assert np.allclose(p.R, [-1.0, 0.0], atol=1e-14)

    def test_straight_line_momenta(self):
        p = phase_from_jet(straight_line_jet())
        assert np.allclose(p.P, 0.0) and np.allclose(p.R, 0.0)

    def test_inversion_formulas(self, planar_unit_spiral):
        p = phase_from_jet(planar_unit_spiral.jet(0.0))
        A, Ap = accel_from_phase(p)
        assert np.allclose(A, [0.0, 2.0], atol=1e-13)
        assert np.allclose(Ap, [-2.0, 2.0], atol=1e-13)

    def test_zero_momenta_invert_to_zero(self):
        p = PhasePoint(np.zeros(3), np.array([1.0, 0, 0]), np.zeros(3), np.zeros(3))
        A, Ap = accel_from_phase(p)
        assert np.allclose(A, 0.0) and np.allclose(Ap, 0.0)

    def test_round_trip(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n)
            p = phase_from_jet(jet)
            A, Ap = accel_from_phase(p)
            _, _, jet_A, jet_Ap = derivatives(jet, 4)
            scale = 1.0 + np.max(np.abs(jet_Ap))
            assert np.max(np.abs(A - jet_A)) <= 1e-12 * scale
            assert np.max(np.abs(Ap - jet_Ap)) <= 1e-12 * scale

    def test_idempotence(self, rng):
        jet = random_curve_jet(rng, 3)
        p = phase_from_jet(jet)
        A, Ap = accel_from_phase(p)
        rebuilt = coefficients([p.X, p.U, A, Ap])
        p2 = phase_from_jet(rebuilt)
        for name in ("X", "U", "P", "R"):
            assert np.max(np.abs(getattr(p, name) - getattr(p2, name))) <= 1e-12


class TestHamiltonian:
    def test_unit_pitch_value(self, planar_unit_spiral):
        assert hamiltonian(phase_from_jet(planar_unit_spiral.jet(0.0))) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_zero_momenta(self):
        p = PhasePoint(np.zeros(2), np.array([2.0, 0.0]), np.zeros(2), np.zeros(2))
        assert hamiltonian(p) == 0.0

    def test_spiral_energy_level(self, rng):
        # along any spiral of pitch c the Hamiltonian is (c^2 - 1)/2
        for c in (0.7, 2.0):
            spiral = random_spiral(rng, 3, c=c)
            for t in (-0.4, 0.8):
                h = hamiltonian(phase_from_jet(spiral.jet(float(t))))
                assert h == pytest.approx((c**2 - 1.0) / 2.0, abs=1e-10)

    def test_three_d_energy_identity(self, rng):
        for _ in range(100):
            p = random_phase_point(rng, 3)
            e = e_quantities(p)
            er = e.rotation_vector3()
            rhs = 0.5 * (float(er @ er) - float(e.E_T @ e.E_S) - e.E_D**2)
            assert hamiltonian(p) == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestHamiltonRHS:
    def test_free_motion(self):
        p = PhasePoint(np.zeros(3), np.array([0.7, 0, 0]), np.zeros(3), np.zeros(3))
        rhs = hamilton_rhs(p)
        X, U, P, R = np.split(rhs, 4)
        assert np.allclose(X, p.U)
        assert np.allclose(U, 0.0) and np.allclose(P, 0.0) and np.allclose(R, 0.0)

    def test_velocity_equation_recovers_acceleration(self, planar_unit_spiral):
        p = phase_from_jet(planar_unit_spiral.jet(0.0))
        U = np.split(hamilton_rhs(p), 4)[1]
        assert np.allclose(U, [0.0, 2.0], atol=1e-13)

    def test_matches_symplectic_gradient(self, rng):
        # central differences of H paired through the canonical structure
        for _ in range(100):
            n = int(rng.integers(2, 4))
            p = random_phase_point(rng, n)
            rhs = hamilton_rhs(p)
            y = p.flat()
            grad = np.empty(4 * n)
            for i in range(4 * n):
                hstep = 1e-6 * (1.0 + abs(y[i]))
                yp, ym = y.copy(), y.copy()
                yp[i] += hstep
                ym[i] -= hstep
                grad[i] = (
                    hamiltonian(PhasePoint.from_flat(yp, n))
                    - hamiltonian(PhasePoint.from_flat(ym, n))
                ) / (2 * hstep)
            expect = np.concatenate(
                [grad[2 * n : 3 * n], grad[3 * n :], -grad[0:n], -grad[n : 2 * n]]
            )
            assert np.max(np.abs(rhs - expect)) <= 1e-6 * (
                1.0 + np.max(np.abs(expect))
            )


def ordered_dot(a, b):
    """The products of two vectors added in order from the first one, the
    inner product of the float-list loop."""
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total = total + x * y
    return total


def array_rhs(y, n, dot=ordered_dot):
    U = y[n : 2 * n]
    P = y[2 * n : 3 * n]
    R = y[3 * n : 4 * n]
    u2 = dot(U, U)
    if u2 <= VELOCITY_FLOOR:
        raise DegenerateVelocityError(f"squared speed {u2:.3e} below floor")
    UR = dot(U, R)
    out = np.empty_like(y)
    out[0:n] = U
    out[n : 2 * n] = u2 * R - 2.0 * UR * U
    out[2 * n : 3 * n] = 0.0
    out[3 * n : 4 * n] = -dot(R, R) * U + 2.0 * UR * R - P
    return out


def array_rk4(p0, t_end, h, store_every, dot=ordered_dot):
    """Classical RK4 with the state as a numpy array, the oracle of the
    float-list loop of :func:`integrate`; ``dot`` takes the inner products
    of the right-hand side."""
    n = p0.dim
    steps = int(round(t_end / h))
    y = p0.flat().copy()
    ts = [0.0]
    states = [y.copy()]
    t = 0.0
    for k in range(steps):
        try:
            k1 = array_rhs(y, n, dot)
            k2 = array_rhs(y + 0.5 * h * k1, n, dot)
            k3 = array_rhs(y + 0.5 * h * k2, n, dot)
            k4 = array_rhs(y + h * k3, n, dot)
        except DegenerateVelocityError:
            partial = Trajectory(np.array(ts), np.array(states), n, h)
            raise FlowDegeneracyError(t, partial) from None
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = (k + 1) * h
        if (k + 1) % store_every == 0 or k == steps - 1:
            ts.append(t)
            states.append(y.copy())
    return Trajectory(np.array(ts), np.array(states), n, h)


class TestFloatLoop:
    @pytest.mark.parametrize("store_every", (1, 7, 10))
    def test_matches_array_rk4(self, rng, store_every):
        for n in range(1, 9):
            points = [random_phase_point(rng, n) for _ in range(3)]
            if n >= 2:
                points.append(phase_from_jet(random_spiral(rng, n).jet(0.0)))
            for p0 in points:
                got = integrate(p0, 1.0, h=1e-2, store_every=store_every)
                want = array_rk4(p0, 1.0, 1e-2, store_every)
                assert_same_bits(got.ts, want.ts)
                assert_same_bits(got.states, want.states)

    @pytest.mark.parametrize("store_every", (1, 7, 10))
    def test_degeneracy_matches_array_rk4(self, store_every):
        # the speed passes through zero mid-flow
        for n in (1, 2, 3):
            U, R = np.zeros(n), np.zeros(n)
            U[0], R[0] = 1.0, 5.0
            p0 = PhasePoint(np.zeros(n), U, np.zeros(n), R)
            with pytest.raises(FlowDegeneracyError) as got:
                integrate(p0, 5.0, h=1e-2, store_every=store_every)
            with pytest.raises(FlowDegeneracyError) as want:
                array_rk4(p0, 5.0, 1e-2, store_every)
            assert 0.0 < got.value.t == want.value.t < 5.0
            assert_same_bits(got.value.trajectory.ts, want.value.trajectory.ts)
            assert_same_bits(got.value.trajectory.states, want.value.trajectory.states)

    def test_overflow_raises(self):
        # Python float products overflow to inf without raising; the loop
        # must not carry the inf on, whatever numpy's error state says
        p0 = PhasePoint(np.zeros(3), [1e150, 0, 0], np.zeros(3), [0, 1e10, 0])
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            integrate(p0, 1.0, h=1e-3)

    @pytest.mark.parametrize("store_every", range(1, 6))
    def test_signed_zeros_match_array_rk4(self, rng, store_every):
        # the stages see P as p + 0.0 after the run's first one, and a -0.0
        # in P flips the sign of a zero R' entry; uniform and np.zeros
        # draws never give -0.0
        for n in (1, 2, 3, 6):
            for d in range(6):
                # -0.0, 0.0 and a uniform draw in turn, so each block gets all three
                y = rng.uniform(-1.0, 1.0, 4 * n)
                pick = (np.arange(4 * n) + d) % 3
                y[pick == 0], y[pick == 1] = -0.0, 0.0
                if d >= 3:
                    # P and R signed zeros only: R stays zero, and the sign of
                    # each R' entry is that of the P the stage sees
                    y[2 * n :] = np.where(pick[2 * n :] == 0, -0.0, 0.0)
                y[n] = 1.0
                p0 = PhasePoint.from_flat(y, n)
                got = integrate(p0, 0.2, h=1e-2, store_every=store_every)
                want = array_rk4(p0, 0.2, 1e-2, store_every)
                assert_same_bits(got.ts, want.ts)
                assert_same_bits(got.states, want.states)
                assert_same_bits(hamilton_rhs(p0), array_rhs(p0.flat(), n))

    def test_one_dimensional_zero_signs_follow_ddot(self):
        # U = 1, P = +0.0, R = -0.0: U.R is the lone product -0.0, so
        # U' = -0.0 - (-0.0) and R' = (-0.0 + 0.0) - 0.0 are both +0.0
        p0 = PhasePoint([-0.0], [1.0], [0.0], [-0.0])
        assert_same_bits(hamilton_rhs(p0), [1.0, 0.0, 0.0, 0.0])
        states = integrate(p0, 0.02, h=1e-2, store_every=1).states
        assert_same_bits(states[:, 2:], [[0.0, -0.0], [0.0, 0.0], [0.0, 0.0]])

    def test_first_step_degeneracy_matches_array_rk4(self):
        # U' = -r on U = (1, 0), R = (r, 0): the second stage of the first
        # step has U = 1 - (0.5 h) r = 0, with P still as given
        for n in (1, 2, 3):
            U, P, R = np.zeros(n), np.full(n, -0.0), np.zeros(n)
            U[0], R[0] = 1.0, 200.0
            p0 = PhasePoint(np.full(n, -0.0), U, P, R)
            with pytest.raises(FlowDegeneracyError) as got:
                integrate(p0, 1.0, h=1e-2)
            with pytest.raises(FlowDegeneracyError) as want:
                array_rk4(p0, 1.0, 1e-2, 10)
            assert got.value.t == want.value.t == 0.0
            assert_same_bits(got.value.trajectory.ts, want.value.trajectory.ts)
            assert_same_bits(got.value.trajectory.states, want.value.trajectory.states)
            assert_same_bits(got.value.trajectory.states, p0.flat()[None])

    @pytest.mark.parametrize("store_every", (1, 10))
    def test_position_overflow_raises(self, store_every):
        # only X leaves the float range: the stage inner products stay
        # finite, so the end-of-run check is the one that sees it
        p0 = PhasePoint([1.7e308, 0.0], [1.0, 0.0], np.zeros(2), np.zeros(2))
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            array_rk4(p0, 1e308, 1e308, store_every)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            integrate(p0, 1e308, h=1e308, store_every=store_every)

    def test_hamilton_rhs_matches_array_rhs(self, rng):
        for n in range(1, 9):
            p = random_phase_point(rng, n)
            assert_same_bits(hamilton_rhs(p), array_rhs(p.flat(), n))

    @pytest.mark.parametrize(
        "point, final",
        [
            (
                ([0.5], [1.0], [0.25], [-0.125]),
                ["0x1.0585d041bdc04p+0", "0x1.19654412f7c69p+0", "0x1.0000000000000p-2",
                 "-0x1.dbd75dd8b7db9p-3"],
            ),
            (
                ([0.5, -0.25, 0.75], [0.75, 0.5, -0.625], [0.125, -0.25, 0.375], [0.25, -0.375, 0.5]),
                ["0x1.eb841dac9df96p-1", "-0x1.66d50ae393e98p-6", "0x1.df690c97b9f4cp-2",
                 "0x1.10f8ca2891aacp+0", "0x1.a17ad32173e37p-2", "-0x1.ffcd29974293fp-2",
                 "0x1.0000000000000p-3", "-0x1.0000000000000p-2", "0x1.8000000000000p-2",
                 "0x1.f81fca1cd1de4p-6", "-0x1.e08a9db0102abp-3", "0x1.27ec42bbc6938p-2"],
            ),
        ],
        ids=("n1", "n3"),
    )
    def test_final_state_bits(self, point, final):
        # a dyadic point and step, so no dot outside the loop rounds; the
        # in-order sums are plain binary64, the same on every CPU and BLAS
        # (at n = 3 the same steps with np.dot end 2 ulps away in one entry)
        p0 = PhasePoint(*point)
        states = integrate(p0, 0.5, h=0.015625, store_every=8).states
        assert [float(v).hex() for v in states[-1]] == final

    def test_near_the_ddot_loop(self, rng):
        # the same steps with np.dot inner products: round-off apart only
        for n in range(1, 9):
            for _ in range(20):
                p0 = random_phase_point(rng, n)
                got = integrate(p0, 1.0, h=1e-2, store_every=1).states
                want = array_rk4(p0, 1.0, 1e-2, 1, dot=np.dot).states
                scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
                assert np.max(np.abs(got - want) / scale) <= 1e-13


class TestIntegrate:
    def test_free_motion_is_exact(self):
        p0 = PhasePoint(np.zeros(2), np.array([0.3, -0.4]), np.zeros(2), np.zeros(2))
        traj = integrate(p0, 1.0, h=1e-2, store_every=5)
        for k, t in enumerate(traj.ts):
            assert np.max(np.abs(traj.phase_point(k).X - t * p0.U)) <= 1e-13

    def test_momentum_exactly_conserved(self, rng):
        p0 = random_phase_point(rng, 3)
        traj = integrate(p0, 1.0, h=1e-2)
        drift = np.max(np.abs(traj.states[:, 6:9] - traj.states[0, 6:9]))
        assert drift <= 1e-12

    def test_fourth_order_convergence(self, rng):
        p0 = random_phase_point(rng, 3)

        def h_drift(h):
            traj = integrate(p0, 1.0, h=h)
            hs = [hamiltonian(traj.phase_point(k)) for k in range(len(traj))]
            return max(abs(v - hs[0]) for v in hs)

        d1, d2 = h_drift(2e-3), h_drift(1e-3)
        assert d1 / d2 == pytest.approx(16.0, rel=0.35)

    def test_position_error_is_fourth_order(self):
        # the README spiral: the error at t = 1 against the closed form falls
        # about 16x per halving of h (3.3e-5 at h = 4e-2 to 8.3e-9 at 5e-3)
        spiral = LogSpiral(2.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, -0.2, 0.5])
        p0 = phase_from_jet(spiral.jet(0.0))
        errors = [
            np.max(np.abs(integrate(p0, 1.0, h=h).states[-1, :3] - spiral.position(1.0)))
            for h in (4e-2, 2e-2, 1e-2, 5e-3)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert 14.0 <= coarse / fine <= 18.0

    def test_spiral_matches_closed_form(self, rng):
        spiral = random_spiral(rng, 3, c=1.4)
        p0 = phase_from_jet(spiral.jet(0.0))
        traj = integrate(p0, 1.0, h=1e-3)
        worst = max(
            float(np.max(np.abs(traj.phase_point(k).X - spiral.position(float(t)))))
            for k, t in enumerate(traj.ts)
        )
        assert worst <= 1e-9

    def test_conserved_quantities_drift(self, rng):
        p0 = random_phase_point(rng, 3)
        traj = integrate(p0, 1.0, h=1e-3)
        rows = []
        for k in range(len(traj)):
            pt = traj.phase_point(k)
            e = e_quantities(pt)
            q = q_phase(pt)
            rows.append(
                [hamiltonian(pt), e.E_D, *e.E_T, *e.E_S]
                + [e.E_R[i - 1, j - 1] for i, j in itertools.combinations(range(1, 4), 2)]
                + list(q)
            )
        rows = np.array(rows)
        drift = np.max(np.abs(rows - rows[0]), axis=0) / (1.0 + np.abs(rows[0]))
        assert float(np.max(drift)) <= 1e-8

    def test_degeneracy_aborts_with_partial_trace(self):
        p0 = PhasePoint(
            np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), np.array([5.0, 0.0])
        )
        with pytest.raises(FlowDegeneracyError) as info:
            integrate(p0, 5.0, h=1e-2)
        assert info.value.trajectory.ts.size >= 1
        assert 0.0 < info.value.t < 5.0

    def test_rejects_bad_steps(self, rng):
        p0 = random_phase_point(rng, 2)
        with pytest.raises(ValueError):
            integrate(p0, 1.0, h=0.0)
        with pytest.raises(ValueError):
            integrate(p0, -1.0, h=1e-3)


class TestPoissonBracket:
    def test_canonical_pairs(self, rng):
        p = random_phase_point(rng, 3)
        for i in range(3):
            bracket = poisson_bracket_fd(
                lambda q, i=i: q.X[i], lambda q, i=i: q.P[i], p
            )
            assert bracket == pytest.approx(1.0, abs=1e-9)
            bracket = poisson_bracket_fd(
                lambda q, i=i: q.U[i], lambda q, i=i: q.R[i], p
            )
            assert bracket == pytest.approx(1.0, abs=1e-9)
            bracket = poisson_bracket_fd(
                lambda q, i=i: q.X[i], lambda q, i=i: q.R[i], p
            )
            assert bracket == pytest.approx(0.0, abs=1e-9)

    def test_self_bracket_vanishes(self, rng):
        p = random_phase_point(rng, 3)
        assert abs(poisson_bracket_fd(hamiltonian, hamiltonian, p)) <= 1e-10

    def test_dilatation_quantity_conserved(self, rng):
        def e_d(q):
            return float(q.X @ q.P) + float(q.U @ q.R)

        for _ in range(50):
            p = random_phase_point(rng, 3)
            assert abs(poisson_bracket_fd(e_d, hamiltonian, p)) <= 1e-6


def substitution_lift(y, n, order):
    """The Taylor lift by repeated substitution of the state jet into the
    equations of motion in jet arithmetic, as an oracle."""
    coeffs = np.zeros((4 * n, order + 1))
    coeffs[:, 0] = y
    for k in range(order):
        state = JetScalar(coeffs[:, : k + 1])
        U, P, R = state[n : 2 * n], state[2 * n : 3 * n], state[3 * n :]
        u2, UR, R2 = U.norm_sq(), U.dot(R), R.norm_sq()
        coeffs[0:n, k + 1] = U.coeffs[:, k] / (k + 1)
        coeffs[n : 2 * n, k + 1] = (u2 * R - 2.0 * UR * U).coeffs[:, k] / (k + 1)
        coeffs[3 * n :, k + 1] = (-1.0 * R2 * U + 2.0 * UR * R - P).coeffs[:, k] / (k + 1)
    return coeffs[:n]


class TestSolutionJet:
    def test_matches_spiral_jet(self, rng):
        spiral = random_spiral(rng, 3, c=1.6)
        j0 = spiral.jet(0.0)
        lifted = taylor_lift(phase_from_jet(j0).flat(), 6)
        for got, want in zip(derivatives(lifted, 7), derivatives(j0, 7)):
            scale = 1.0 + np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-10 * scale

    def test_lift_satisfies_flow(self, rng):
        # the flow vector of the lifted jet equals minus the momentum
        for _ in range(20):
            p = random_phase_point(rng, 3)
            lifted = taylor_lift(p.flat(), 4)
            assert np.max(np.abs(flow_vector(lifted) + p.P)) <= 1e-11 * (
                1.0 + np.max(np.abs(p.P))
            )

    def test_batched_rows_equal_single_rows(self, rng):
        for n in (1, 3, 6):
            states = np.array([random_phase_point(rng, n).flat() for _ in range(25)])
            batched = taylor_lift(states, 6)
            assert batched.shape == (25, n, 7)
            for y, row in zip(states, batched):
                assert np.array_equal(taylor_lift(y, 6), row)

    def test_matches_jet_substitution(self, rng):
        for n in range(1, 9):
            for order in range(1, 7):
                for _ in range(4):
                    y = random_phase_point(rng, n).flat()
                    got = taylor_lift(y, order)
                    want = substitution_lift(y, n, order)
                    assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


def four_row_point(rng, n=3):
    return PhasePoint.from_flat(np.stack([random_phase_point(rng, n).flat() for _ in range(4)]), n)


class TestStackedPointHelpers:
    """The one-row helpers on a four-row point: the stack kernels work over
    its leading axis, the rest raise one ``ValueError`` naming the helper and
    the batch shape."""

    def rows(self, stack):
        return [PhasePoint.from_flat(y, stack.dim) for y in stack.flat()]

    def test_u2_is_per_row(self, rng):
        stack = four_row_point(rng)
        assert_same_bits(stack.u2, [p.u2 for p in self.rows(stack)])
        assert all(type(p.u2) is float for p in self.rows(stack))

    def test_hamiltonian_is_per_row(self, rng):
        stack = four_row_point(rng)
        assert_same_bits(hamiltonian(stack), [hamiltonian(p) for p in self.rows(stack)])

    @pytest.mark.parametrize(
        "helper", [hamilton_rhs, accel_from_phase], ids=lambda f: f.__name__
    )
    def test_one_row_helper_names_the_stack(self, rng, helper):
        message = rf"^{helper.__name__} takes one phase point, got a stack of shape \(4,\)$"
        with pytest.raises(ValueError, match=message):
            helper(four_row_point(rng))
