"""Integrating the first-order system with RK4 and watching every
conserved quantity hold its value.

The position momentum has an exactly zero right-hand side, so it is
conserved to round-off; everything else drifts at fourth order in the
step, dropping ~16x when the step is halved.
"""

import itertools

import numpy as np

from confcurves import (
    LogSpiral,
    e_quantities,
    hamiltonian,
    integrate,
    phase_from_jet,
    q_phase,
)

spiral = LogSpiral(
    1.4,
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.2, 0.1, -0.3]),
)
p0 = phase_from_jet(spiral.jet(0.0))
print(f"start on a pitch-1.4 spiral: H = {hamiltonian(p0):.6f} (expected (c^2-1)/2 = 0.48)")

traj = integrate(p0, 1.0, h=1e-3, store_every=10)
worst_pos = max(
    float(np.max(np.abs(traj.phase_point(k).X - spiral.position(float(t)))))
    for k, t in enumerate(traj.ts)
)
print(f"trajectory vs closed-form spiral over [0,1]: max error {worst_pos:.2e}")

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
print(f"max relative drift across H and all basis/pairing quantities: {np.max(drift):.2e}")

print()
print("fourth-order convergence of the energy drift:")
rng = np.random.default_rng(3)
y = rng.uniform(-1, 1, 12)
while y[3:6] @ y[3:6] < 0.3:
    y = rng.uniform(-1, 1, 12)
from confcurves import PhasePoint

start = PhasePoint.from_flat(y, 3)
prev = None
for h in (4e-3, 2e-3, 1e-3):
    t = integrate(start, 1.0, h=h)
    hs = np.array([hamiltonian(t.phase_point(k)) for k in range(len(t))])
    d = float(np.max(np.abs(hs - hs[0])))
    note = f"  ratio {prev / d:.1f}" if prev else ""
    print(f"  h={h:.0e}: drift {d:.3e}{note}")
    prev = d
