import itertools

import numpy as np
import pytest

from confcurves import (
    LogSpiral,
    PhasePoint,
    circle_residual_stack,
    coefficients,
    derivatives,
    e_stack,
    integrate,
    phase_from_jet,
    poisson_bracket,
    q_phase,
    Trajectory,
    flow_vector_stack,
    hamiltonian_stack,
    momenta_stack,
    taylor_lift,
)
from confcurves.curves import VELOCITY_FLOOR, DegenerateVelocityError
from confcurves.jets import _dot
from confcurves.mercator import FlowDegeneracyError, _kernel_source

from conftest import (
    assert_same_bits,
    energy,
    random_circle,
    random_curve_jet,
    random_phase_point,
    random_spiral,
    random_transformed_spiral,
    row_sets,
    stacked,
)
from jet_oracle import JetScalar
from oracles import accel_from_phase


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
                assert hamiltonian_stack(p.U, p.P, p.R) == want_H


class TestLagrangians:
    """The Lagrangians by the jet route, :func:`jet_lagrangians`."""

    def test_straight_line(self):
        L, L1 = jet_lagrangians(straight_line_jet())
        assert L == 0.0 and L1 == 0.0

    def test_unit_pitch_point(self, planar_unit_spiral):
        # L1 = 1/2 * (1/2) * 4 - (1/4) * 4 = 0
        L, L1 = jet_lagrangians(planar_unit_spiral.jet(0.0))
        assert L1 == pytest.approx(0.0, abs=1e-14)

    def test_difference_is_total_derivative(self, rng):
        # d/dt of u^-2 <U, A> expanded by hand:
        # u^-2 (<A,A> + <U,A'>) - 2 u^-4 <U,A>^2
        for _ in range(100):
            n = int(rng.integers(2, 5))
            jet = random_curve_jet(rng, n)
            L, L1 = jet_lagrangians(jet)
            _, U, A, Ap = derivatives(jet, 4)
            u2 = float(U @ U)
            expect = (float(A @ A) + float(U @ Ap)) / u2 - 2 * float(U @ A) ** 2 / u2**2
            assert L - L1 == pytest.approx(expect, rel=1e-12, abs=1e-12)


def jet_lagrangians(coeffs):
    """The third- and second-order Lagrangians ``L`` and ``L1`` of one
    coefficient row, with ``L - L1`` the derivative of the jet of ``u^{-2}
    <U, A>``."""
    position = JetScalar(coeffs)
    U, A = position.derivative(1), position.derivative(2)
    u2 = float(U @ U)
    UA = float(U @ A)
    L1 = 0.5 * float(A @ A) / u2 - UA**2 / u2**2
    u_jet = position.differentiate()
    a_jet = u_jet.differentiate()
    k = a_jet.order
    q = u_jet.truncated(k).dot(a_jet) / u_jet.truncated(k).norm_sq()
    return L1 + q.differentiate().value, L1


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
        p = phase_from_jet(planar_unit_spiral.jet(0.0))
        assert hamiltonian_stack(p.U, p.P, p.R) == pytest.approx(0.0, abs=1e-14)

    def test_zero_momenta(self):
        p = PhasePoint(np.zeros(2), np.array([2.0, 0.0]), np.zeros(2), np.zeros(2))
        assert hamiltonian_stack(p.U, p.P, p.R) == 0.0

    def test_spiral_energy_level(self, rng):
        # along any spiral of pitch c the Hamiltonian is (c^2 - 1)/2
        for c in (0.7, 2.0):
            spiral = random_spiral(rng, 3, c=c)
            p = phase_from_jet(spiral.jet([-0.4, 0.8]))
            h = hamiltonian_stack(p.U, p.P, p.R)
            assert np.max(np.abs(h - (c**2 - 1.0) / 2.0)) <= 1e-10

    def test_three_d_energy_identity(self, rng):
        for _ in range(100):
            p = random_phase_point(rng, 3)
            e = e_stack(p.X, p.U, p.P, p.R)
            er = np.array([e.E_R[1, 2], -e.E_R[0, 2], e.E_R[0, 1]])
            rhs = 0.5 * (float(er @ er) - float(e.E_T @ e.E_S) - e.E_D**2)
            assert hamiltonian_stack(p.U, p.P, p.R) == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestHamiltonRHS:
    """The equations of motion of :func:`array_rhs`, the RK4 oracle."""

    def test_free_motion(self):
        p = PhasePoint(np.zeros(3), np.array([0.7, 0, 0]), np.zeros(3), np.zeros(3))
        rhs = array_rhs(p.flat(), 3)
        X, U, P, R = np.split(rhs, 4)
        assert np.allclose(X, p.U)
        assert np.allclose(U, 0.0) and np.allclose(P, 0.0) and np.allclose(R, 0.0)

    def test_velocity_equation_recovers_acceleration(self, planar_unit_spiral):
        p = phase_from_jet(planar_unit_spiral.jet(0.0))
        U = np.split(array_rhs(p.flat(), 2), 4)[1]
        assert np.allclose(U, [0.0, 2.0], atol=1e-13)

    def test_matches_symplectic_gradient(self, rng):
        # central differences of H paired through the canonical structure
        for _ in range(100):
            n = int(rng.integers(2, 4))
            p = random_phase_point(rng, n)
            y = p.flat()
            rhs = array_rhs(y, n)
            grad = np.empty(4 * n)
            for i in range(4 * n):
                hstep = 1e-6 * (1.0 + abs(y[i]))
                yp, ym = y.copy(), y.copy()
                yp[i] += hstep
                ym[i] -= hstep
                grad[i] = (energy(*np.split(yp, 4)) - energy(*np.split(ym, 4))) / (2 * hstep)
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


def stage_velocities(p0, h, steps):
    """The first velocity component of every RK4 stage of :func:`array_rk4`
    from ``p0``, in order, up to the first stage at or below the velocity
    floor or the end of ``steps`` steps."""
    n, y, out = p0.dim, p0.flat().copy(), []
    for _ in range(steps):
        ks = []
        for w in (None, 0.5 * h, 0.5 * h, h):
            z = y if w is None else y + w * ks[-1]
            out.append(float(z[n]))
            try:
                ks.append(array_rhs(z, n))
            except DegenerateVelocityError:
                return out
        y = y + (h / 6.0) * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
    return out


def first_nonfinite_stage(p0, h):
    """The first RK4 stage of the first step of :func:`array_rk4` whose
    inner products are not all finite, or ``None``."""
    n, y, ks = p0.dim, p0.flat().copy(), []
    with np.errstate(all="ignore"):
        for stage, w in enumerate((None, 0.5 * h, 0.5 * h, h), start=1):
            z = y if w is None else y + w * ks[-1]
            U, R = z[n : 2 * n], z[3 * n :]
            if not all(np.isfinite(ordered_dot(a, b)) for a, b in ((U, U), (U, R), (R, R))):
                return stage
            ks.append(array_rhs(z, n))
    return None


# the kernel source of n = 2, the text that integrate runs
KERNEL_N2 = """\
def step(x0, x1, u0, u1, p0, p1, r0, r1, q0, q1, half, h, sixth):
    uu = u0 * u0 + u1 * u1
    ur = u0 * r0 + u1 * r1
    rr = r0 * r0 + r1 * r1
    if not (isfinite(uu) and isfinite(ur) and isfinite(rr)):
        raise FloatingPointError('the flow leaves the float range')
    if uu <= VELOCITY_FLOOR:
        raise DegenerateVelocityError(f'squared speed {uu:.3e} below floor')
    ur2, rrn = 2.0 * ur, -rr
    du0_1 = uu * r0 - ur2 * u0
    du1_1 = uu * r1 - ur2 * u1
    dr0_1 = rrn * u0 + ur2 * r0 - p0
    dr1_1 = rrn * u1 + ur2 * r1 - p1
    u0_2 = u0 + half * du0_1
    u1_2 = u1 + half * du1_1
    r0_2 = r0 + half * dr0_1
    r1_2 = r1 + half * dr1_1
    uu = u0_2 * u0_2 + u1_2 * u1_2
    ur = u0_2 * r0_2 + u1_2 * r1_2
    rr = r0_2 * r0_2 + r1_2 * r1_2
    if not (isfinite(uu) and isfinite(ur) and isfinite(rr)):
        raise FloatingPointError('the flow leaves the float range')
    if uu <= VELOCITY_FLOOR:
        raise DegenerateVelocityError(f'squared speed {uu:.3e} below floor')
    ur2, rrn = 2.0 * ur, -rr
    du0_2 = uu * r0_2 - ur2 * u0_2
    du1_2 = uu * r1_2 - ur2 * u1_2
    dr0_2 = rrn * u0_2 + ur2 * r0_2 - q0
    dr1_2 = rrn * u1_2 + ur2 * r1_2 - q1
    u0_3 = u0 + half * du0_2
    u1_3 = u1 + half * du1_2
    r0_3 = r0 + half * dr0_2
    r1_3 = r1 + half * dr1_2
    uu = u0_3 * u0_3 + u1_3 * u1_3
    ur = u0_3 * r0_3 + u1_3 * r1_3
    rr = r0_3 * r0_3 + r1_3 * r1_3
    if not (isfinite(uu) and isfinite(ur) and isfinite(rr)):
        raise FloatingPointError('the flow leaves the float range')
    if uu <= VELOCITY_FLOOR:
        raise DegenerateVelocityError(f'squared speed {uu:.3e} below floor')
    ur2, rrn = 2.0 * ur, -rr
    du0_3 = uu * r0_3 - ur2 * u0_3
    du1_3 = uu * r1_3 - ur2 * u1_3
    dr0_3 = rrn * u0_3 + ur2 * r0_3 - q0
    dr1_3 = rrn * u1_3 + ur2 * r1_3 - q1
    u0_4 = u0 + h * du0_3
    u1_4 = u1 + h * du1_3
    r0_4 = r0 + h * dr0_3
    r1_4 = r1 + h * dr1_3
    uu = u0_4 * u0_4 + u1_4 * u1_4
    ur = u0_4 * r0_4 + u1_4 * r1_4
    rr = r0_4 * r0_4 + r1_4 * r1_4
    if not (isfinite(uu) and isfinite(ur) and isfinite(rr)):
        raise FloatingPointError('the flow leaves the float range')
    if uu <= VELOCITY_FLOOR:
        raise DegenerateVelocityError(f'squared speed {uu:.3e} below floor')
    ur2, rrn = 2.0 * ur, -rr
    du0_4 = uu * r0_4 - ur2 * u0_4
    du1_4 = uu * r1_4 - ur2 * u1_4
    dr0_4 = rrn * u0_4 + ur2 * r0_4 - q0
    dr1_4 = rrn * u1_4 + ur2 * r1_4 - q1
    return (
        x0 + sixth * (u0 + 2.0 * u0_2 + 2.0 * u0_3 + u0_4),
        x1 + sixth * (u1 + 2.0 * u1_2 + 2.0 * u1_3 + u1_4),
        u0 + sixth * (du0_1 + 2.0 * du0_2 + 2.0 * du0_3 + du0_4),
        u1 + sixth * (du1_1 + 2.0 * du1_2 + 2.0 * du1_3 + du1_4),
        q0,
        q1,
        r0 + sixth * (dr0_1 + 2.0 * dr0_2 + 2.0 * dr0_3 + dr0_4),
        r1 + sixth * (dr1_1 + 2.0 * dr1_2 + 2.0 * dr1_3 + dr1_4),
    )
"""


class TestFloatLoop:
    @pytest.mark.parametrize("store_every", (1, 7, 10))
    def test_matches_array_rk4(self, rng, store_every):
        for n in (*range(1, 9), 12, 24):
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

    def test_one_dimensional_zero_signs_follow_ddot(self):
        # U = 1, P = +0.0, R = -0.0: U.R is the lone product -0.0, so
        # U' = -0.0 - (-0.0) and R' = (-0.0 + 0.0) - 0.0 are both +0.0
        p0 = PhasePoint([-0.0], [1.0], [0.0], [-0.0])
        assert_same_bits(array_rhs(p0.flat(), 1), [1.0, 0.0, 0.0, 0.0])
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

    @pytest.mark.parametrize("stage, scale", [(2, 1e100), (3, 1e50), (4, 1e20)])
    def test_overflow_in_a_later_stage_raises(self, stage, scale):
        # U = e_1, R = scale e_2: the first stage stays finite, and the
        # growth of R' reaches inf first in the named stage
        for n in (2, 3, 6):
            U, R = np.zeros(n), np.zeros(n)
            U[0], R[1] = 1.0, scale
            p0 = PhasePoint(np.zeros(n), U, np.zeros(n), R)
            assert first_nonfinite_stage(p0, 1e-2) == stage
            with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as got:
                integrate(p0, 1.0, h=1e-2)
            # the stage check raises it, not the end-of-run check
            assert got.traceback[-1].frame.code.raw.co_filename.startswith("<rk4 kernel")

    @pytest.mark.parametrize("stage, lo, hi", [(3, 143.8, 144.0), (4, 143.6, 143.8)])
    def test_later_stage_degeneracy_matches_array_rk4(self, stage, lo, hi):
        # U = e_1, R = r e_1, P = -300 e_1: the velocity stays on e_1, and
        # the r at which it vanishes in the given stage of the third step
        # is found by bisection; every earlier stage keeps |U_1| > 0.1
        def point(r, n):
            U, P, R = np.zeros(n), np.zeros(n), np.zeros(n)
            U[0], P[0], R[0] = 1.0, -300.0, r
            return PhasePoint(np.zeros(n), U, P, R)

        def velocity(r):
            return stage_velocities(point(r, 1), 1e-2, 3)[8 + stage - 1]

        assert velocity(lo) * velocity(hi) < 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if (velocity(mid) < 0.0) == (velocity(lo) < 0.0) else (lo, mid)
        for n in (1, 2, 3):
            p0 = point(lo, n)
            speeds = np.square(stage_velocities(p0, 1e-2, 3))
            assert len(speeds) == 8 + stage and speeds[-1] <= VELOCITY_FLOOR
            assert np.min(speeds[:-1]) > 0.01
            for store_every in (1, 2):
                with pytest.raises(FlowDegeneracyError) as got:
                    integrate(p0, 1.0, h=1e-2, store_every=store_every)
                with pytest.raises(FlowDegeneracyError) as want:
                    array_rk4(p0, 1.0, 1e-2, store_every)
                assert got.value.t == want.value.t == 2 * 1e-2
                assert_same_bits(got.value.trajectory.ts, want.value.trajectory.ts)
                assert_same_bits(got.value.trajectory.states, want.value.trajectory.states)

    def test_chunked_inner_products_match_array_rk4(self, rng):
        # past 256 components an inner product spans two statements
        p0 = random_phase_point(rng, 300)
        got = integrate(p0, 0.05, h=1e-2, store_every=1)
        want = array_rk4(p0, 0.05, 1e-2, 1)
        assert_same_bits(got.states, want.states)

    def test_kernel_source_n2(self):
        assert _kernel_source(2) == KERNEL_N2

    @pytest.mark.parametrize("n", [0, -1, True, False, 2.0, "2", np.int64(2), None])
    def test_kernel_needs_a_positive_int(self, n):
        with pytest.raises(ValueError, match="positive int"):
            _kernel_source(n)

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
        X = PhasePoint.from_flat(traj.states, traj.dim).X
        assert np.max(np.abs(X - traj.ts[:, None] * p0.U)) <= 1e-13

    def test_momentum_exactly_conserved(self, rng):
        p0 = random_phase_point(rng, 3)
        traj = integrate(p0, 1.0, h=1e-2)
        drift = np.max(np.abs(traj.states[:, 6:9] - traj.states[0, 6:9]))
        assert drift <= 1e-12

    def test_fourth_order_convergence(self, rng):
        p0 = random_phase_point(rng, 3)

        def h_drift(h):
            points = PhasePoint.from_flat(integrate(p0, 1.0, h=h).states, 3)
            hs = hamiltonian_stack(points.U, points.P, points.R)
            return np.max(np.abs(hs - hs[0]))

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
        closed = np.array([spiral.position(float(t)) for t in traj.ts])
        assert np.max(np.abs(PhasePoint.from_flat(traj.states, 3).X - closed)) <= 1e-9

    def test_conserved_quantities_drift(self, rng):
        p0 = random_phase_point(rng, 3)
        pts = PhasePoint.from_flat(integrate(p0, 1.0, h=1e-3).states, 3)
        e = e_stack(pts.X, pts.U, pts.P, pts.R)
        i, j = np.triu_indices(3, 1)
        rows = np.column_stack([
            hamiltonian_stack(pts.U, pts.P, pts.R), e.E_D, e.E_T, e.E_S, e.E_R[:, i, j], q_phase(pts)
        ])
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


def coordinate(k):
    """The ``k``-th coordinate of :meth:`PhasePoint.flat` as a phase function."""
    return lambda *y: np.concatenate(y, axis=-1)[..., k]


class TestPoissonBracket:
    def test_canonical_pairs(self, rng):
        # {y_j, y_k} over a stack: 1 for (position, its momentum), -1 for
        # the reverse, 0 otherwise, with no round-off
        for n in range(1, 5):
            points = stacked([random_phase_point(rng, n) for _ in range(5)])
            zero, one = np.zeros((2 * n, 2 * n)), np.eye(2 * n)
            form = np.block([[zero, one], [-one, zero]])
            for j, k in itertools.product(range(4 * n), repeat=2):
                bracket = poisson_bracket(coordinate(j), coordinate(k), points)
                assert np.array_equal(bracket, np.full(5, form[j, k]))

    def test_coordinate_brackets_with_energy_are_the_rhs(self, rng):
        # {y_k, H} is the k-th equation of motion: the route reads the flow,
        # not 0 by construction
        for n in range(1, 9):
            for _ in range(10):
                p = random_phase_point(rng, n)
                rhs = array_rhs(p.flat(), n)
                got = np.array([poisson_bracket(coordinate(k), energy, p) for k in range(4 * n)])
                assert np.max(np.abs(got - rhs)) <= 1e-14 * np.max(np.abs(rhs))

    def test_self_bracket_vanishes(self, rng):
        p = random_phase_point(rng, 3)
        assert abs(poisson_bracket(energy, energy, p)) <= 1e-12

    def test_dilatation_quantity_conserved(self, rng):
        def e_d(X, U, P, R):
            return _dot(X, P) + _dot(U, R)

        points = stacked([random_phase_point(rng, 3) for _ in range(50)])
        assert np.max(np.abs(poisson_bracket(e_d, energy, points))) <= 1e-12

    def test_stacked_bracket_equals_its_rows(self, rng):
        for n in (1, 3, 6):
            rows = [random_phase_point(rng, n) for _ in range(6)]
            got = poisson_bracket(coordinate(1), energy, stacked(rows))
            assert_same_bits(got, [poisson_bracket(coordinate(1), energy, p) for p in rows])


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
    """The phase helpers on a four-row point work over its leading axis,
    with the bits of each row on its own."""

    def rows(self, stack):
        return [PhasePoint.from_flat(y, stack.dim) for y in stack.flat()]

    def test_hamiltonian_is_per_row(self, rng):
        stack = four_row_point(rng)
        want = [hamiltonian_stack(p.U, p.P, p.R) for p in self.rows(stack)]
        assert_same_bits(hamiltonian_stack(stack.U, stack.P, stack.R), want)

    def test_accel_from_phase_is_per_row(self, rng):
        stack = four_row_point(rng)
        for got, want in zip(accel_from_phase(stack), zip(*map(accel_from_phase, self.rows(stack)))):
            assert_same_bits(got, want)
