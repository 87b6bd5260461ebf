"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated elsewhere.
"""

import itertools
import math
import time

import numpy as np

from confcurves import (
    KillingField,
    LogSpiral,
    alpha1_stationary_stack,
    derivatives,
    e_stack,
    f_generic_stack,
    flow_vector_stack,
    gram_stack,
    hamiltonian_stack,
    identity_residual_stack,
    integrate,
    parallel_defect,
    phase_from_jet,
    poisson_bracket,
    q_circle_stack,
    q_phase,
    q_stack,
)
from confcurves.symmetries import basis_parts
from confcurves.multilinear import tractor_metric_pair

from conftest import (
    energy,
    keyed,
    random_circle,
    random_curve_jet,
    random_phase_point,
    random_spiral,
    random_transformed_spiral,
    three_d_functions,
    tractor_basis,
)
from oracles import accel_from_phase, closed_form_alpha1_delta4, epsilon, involutivity_check, parallel_section_oracle

ACCEPTANCE_SPIRAL = LogSpiral(
    2.0,
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.3, -0.2, 0.5]),
)

WINDOW = np.linspace(-1.0, 1.0, 21)


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_spiral_invariant_suite():
    start = time.perf_counter()
    spiral = ACCEPTANCE_SPIRAL
    jets = [spiral.jet(float(t)) for t in WINDOW]
    grams = [gram_stack(j) for j in jets]
    ok = all(abs(g.delta3 + 1.0) <= 1e-9 for g in grams)
    ok &= all(abs(g.delta4 + 4.0) <= 1e-8 for g in grams)
    ok &= all(
        abs(g.delta5) <= 1e-6 * max(1.0, g.gram_scale()) ** 5 for g in grams
    )
    ok &= all(abs(g.alpha1 - 3.0) <= 1e-9 for g in grams)
    ok &= all(abs(g.alpha2 - 13.0) <= 1e-9 for g in grams)
    ok &= all(float(np.max(np.abs(flow_vector_stack(*derivatives(j, 4)[1:])))) <= 1e-10 for j in jets)
    qs = [keyed(q_stack(j), 3) for j in jets]
    spread = 0.0
    for key in qs[0]:
        vals = np.array([q[key] for q in qs])
        spread = max(spread, (vals.max() - vals.min()) / (1.0 + np.max(np.abs(vals))))
    ok &= spread <= 1e-8
    for i, j in itertools.combinations(range(1, 4), 2):
        expected = 2.0 * epsilon((i, j), spiral.p0, spiral.q0)
        ok &= abs(qs[0][(0, i, j, 4)] - expected) <= 1e-8
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, ok, f"spiral invariants (q spread {spread:.2e}, {elapsed:.2f}s)")


def test_criterion_2_circle_suite():
    rng = np.random.default_rng(101)
    worst_res, worst_d4, worst_q = 0.0, 0.0, 0.0
    orders = []
    for _ in range(3):
        circle = random_circle(rng, 3)
        from confcurves import circle_residual_stack

        samples = []
        for t in WINDOW:
            jet = circle.jet(float(t))
            residual = circle_residual_stack(*derivatives(jet, 4)[1:])
            worst_res = max(worst_res, float(np.max(np.abs(residual))))
            worst_d4 = max(worst_d4, abs(gram_stack(jet).delta4))
            samples.append(keyed(q_circle_stack(jet), 3, 3))
        for key in samples[0]:
            vals = np.array([s[key] for s in samples])
            worst_q = max(
                worst_q, (vals.max() - vals.min()) / (1.0 + np.max(np.abs(vals)))
            )
        d1, d2 = parallel_defect(lambda s: circle.jet(s, 4), 0.0, (0.02, 0.01), count=3)
        orders.append(math.log2(d1 / d2))
    ok = worst_res <= 1e-10 and worst_d4 <= 1e-9 and worst_q <= 1e-9
    ok &= all(1.6 <= o <= 2.4 for o in orders)
    report(
        2,
        ok,
        f"circle residual {worst_res:.2e}, delta4 {worst_d4:.2e}, "
        f"decay orders {['%.2f' % o for o in orders]}, q spread {worst_q:.2e}",
    )


def _trajectory_drifts(p0, h):
    traj = integrate(p0, 1.0, h=h, store_every=10)
    X, U, P, R = np.split(traj.states, 4, axis=-1)
    E_T, E_R, E_D, E_S = basis_parts(e_stack(X, U, P, R))
    i, j = np.triu_indices(3, 1)
    rows = np.column_stack([
        hamiltonian_stack(U, P, R), E_D, E_T, E_S, E_R[:, i, j], q_phase(X, U, P, R)
    ])
    drift = float(
        np.max(np.max(np.abs(rows - rows[0]), axis=0) / (1.0 + np.abs(rows[0])))
    )
    p_drift = float(np.max(np.abs(traj.states[:, 6:9] - traj.states[0, 6:9])))
    return drift, p_drift


def test_criterion_3_hamiltonian_conservation():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    points = [random_phase_point(rng, 3) for _ in range(10)]
    worst, worst_half, worst_p = 0.0, 0.0, 0.0
    for p0 in points:
        drift, p_drift = _trajectory_drifts(p0, 1e-3)
        drift_half, _ = _trajectory_drifts(p0, 5e-4)
        worst = max(worst, drift)
        worst_half = max(worst_half, drift_half)
        worst_p = max(worst_p, p_drift)
    ratio = worst / worst_half
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and worst_p <= 1e-12 and 12.0 <= ratio <= 20.0 and elapsed < 5.0
    report(
        3,
        ok,
        f"drift {worst:.2e}, momentum drift {worst_p:.2e}, "
        f"halving ratio {ratio:.1f}, {elapsed:.2f}s",
    )


def test_criterion_4_identity_relations():
    rng = np.random.default_rng(42)
    from confcurves import quantity_identities

    worst = 0.0
    for _ in range(100):
        p = random_phase_point(rng, 4)
        rep = quantity_identities(*np.split(p, 4))
        for rec in rep.values():
            worst = max(worst, rec["residual"] / (1.0 + rec["scale"]))
    ok = worst <= 1e-10
    report(4, ok, f"max scaled residual {worst:.2e} over 100 points in dimension 4")


def test_criterion_5_noether_cross_check():
    rng = np.random.default_rng(7)
    families = [
        random_spiral(rng, 3),
        random_circle(rng, 3),
        random_transformed_spiral(rng, 3, max_b=0.3),
    ]
    rot = np.zeros((3, 3))
    rot[0, 1], rot[1, 0] = 1.0, -1.0
    fields = [
        KillingField(3, T=rng.uniform(-1, 1, 3)),
        KillingField(3, R=rot),
        KillingField(3, a=float(rng.uniform(0.5, 1.5))),
        KillingField(3, S=rng.uniform(-1, 1, 3)),
    ]
    worst_agree, worst_spread = 0.0, 0.0
    times = np.linspace(-1, 1, 9)
    for family in families:
        jets = [family.jet(float(t)) for t in times]
        for field, generic in zip(fields, f_generic_stack(fields, np.array(jets)).tolist()):
            closed = [field.pair(tractor_basis(jet)) for jet in jets]
            scale = 1.0 + max(abs(v) for v in closed)
            worst_agree = max(
                worst_agree, max(abs(a - b) for a, b in zip(generic, closed)) / scale
            )
            worst_spread = max(worst_spread, (max(closed) - min(closed)) / scale)
    lox_err = 0.0
    for c in (0.8, 1.7):
        lox = LogSpiral(c, np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2))
        r2 = KillingField(2, R=np.array([[0.0, 1.0], [-1.0, 0.0]]))
        lox_err = max(lox_err, abs(r2.pair(tractor_basis(lox.jet(0.3))) - c))
    ok = worst_agree <= 1e-9 and worst_spread <= 1e-8 and lox_err <= 1e-10
    report(
        5,
        ok,
        f"generic/closed gap {worst_agree:.2e}, spread {worst_spread:.2e}, "
        f"loxodrome pitch error {lox_err:.2e}",
    )


def test_criterion_6_oracle_equivalences():
    rng = np.random.default_rng(13)
    worst_pairing = 0.0
    for _ in range(50):
        n = int(rng.choice([3, 4, 5]))
        jet = random_curve_jet(rng, n)
        q = keyed(q_stack(jet), n)
        oracle = parallel_section_oracle(jet)
        for key, v in q.items():
            worst_pairing = max(worst_pairing, abs(v - oracle[key]) / (1.0 + abs(v)))
    worst_gram = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        jet = random_curve_jet(rng, n)
        a1, d4 = closed_form_alpha1_delta4(jet)
        g = gram_stack(jet)
        scale = 1.0 + abs(a1) + abs(d4)
        worst_gram = max(
            worst_gram, abs(g.alpha1 - a1) / scale, abs(g.delta4 - d4) / scale
        )
    worst_jet = 0.0
    for _ in range(25):
        spiral = random_spiral(rng, int(rng.integers(2, 5)))
        t = float(rng.uniform(-1, 1))
        jet = spiral.jet(t, 3)
        for got, expect in zip(derivatives(jet, 4)[1:], spiral.closed_derivatives(t)):
            worst_jet = max(
                worst_jet,
                float(np.max(np.abs(got - expect))) / (1.0 + float(np.max(np.abs(expect)))),
            )
    worst_round = 0.0
    for _ in range(50):
        jet = random_curve_jet(rng, int(rng.integers(2, 5)))
        A, Ap = accel_from_phase(phase_from_jet(jet))
        _, _, jet_A, jet_Ap = derivatives(jet, 4)
        scale = 1.0 + float(np.max(np.abs(jet_Ap)))
        worst_round = max(
            worst_round,
            float(np.max(np.abs(A - jet_A))) / scale,
            float(np.max(np.abs(Ap - jet_Ap))) / scale,
        )
    ok = (
        worst_pairing <= 1e-10
        and worst_gram <= 1e-10
        and worst_jet <= 1e-12
        and worst_round <= 1e-12
    )
    report(
        6,
        ok,
        f"pairing {worst_pairing:.2e}, gram {worst_gram:.2e}, "
        f"spiral jets {worst_jet:.2e}, round trip {worst_round:.2e}",
    )


def test_criterion_7_reduction_identity():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        jet = alpha1_stationary_stack(random_curve_jet(rng, n))
        res = identity_residual_stack(jet)
        scale = 1.0 + max(
            float(np.max(np.abs(res.tractor_slot))),
            float(np.max(np.abs(res.mercator_expansion))),
        )
        worst = max(worst, res.identity_defect / scale)
    ok = worst <= 1e-9
    report(7, ok, f"max scaled defect {worst:.2e} on 100 constrained jets")


def test_criterion_8_poisson_suite():
    rng = np.random.default_rng(23)
    points = np.stack([random_phase_point(rng, 3) for _ in range(50)])
    worst = max(
        float(np.max(np.abs(poisson_bracket(f, energy, points))))
        for f in three_d_functions().values()
    )
    table = involutivity_check(points)
    worst_inv = max(table.values())
    ok = worst <= 1e-12 and worst_inv <= 1e-12
    report(
        8,
        ok,
        f"max |{{f, H}}| {worst:.2e}, five-element involutive set max {worst_inv:.2e}",
    )


def test_criterion_9_spiral_tractor_and_curvature():
    rng = np.random.default_rng(29)
    worst_sq, worst_k = 0.0, 0.0
    for c in (0.7, 1.0, 2.0):
        spiral = random_spiral(rng, 3, c=c)
        kappas = []
        for t in np.linspace(-1, 1, 9):
            tr = spiral.acceleration_tractor(float(t))
            worst_sq = max(
                worst_sq, abs(tractor_metric_pair(tr, tr) - (c**2 - 1.0))
            )
            kappas.append(gram_stack(spiral.jet(float(t))).kappa1)
        expect = -(c**2 - 1.0) / (2.0 * c)
        worst_k = max(worst_k, max(abs(k - expect) for k in kappas))
        worst_k = max(worst_k, max(kappas) - min(kappas))
    ok = worst_sq <= 1e-10 and worst_k <= 1e-8
    report(
        9,
        ok,
        f"tractor square error {worst_sq:.2e}, curvature error {worst_k:.2e}",
    )
