"""Integrating the first-order system with RK4 and watching every
conserved quantity hold its value.

The position momentum has an exactly zero right-hand side, so it is
conserved to round-off; everything else drifts at fourth order in the
step, dropping ~16x when the step is halved.
"""

import numpy as np

from confcurves import (
    LogSpiral,
    PhasePoint,
    e_stack,
    hamiltonian_stack,
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
H0 = hamiltonian_stack(p0.U, p0.P, p0.R)
print(f"start on a pitch-1.4 spiral: H = {H0:.6f} (expected (c^2-1)/2 = 0.48)")

traj = integrate(p0, 1.0, h=1e-3, store_every=10)
# every stored state as one stacked phase point
pts = PhasePoint.from_flat(traj.states, traj.dim)
closed = spiral.position(traj.ts)
print(f"trajectory vs closed-form spiral over [0,1]: max error {np.max(np.abs(pts.X - closed)):.2e}")

# one row per stored state: H, the basis quantities (E_R above the
# diagonal) and the pairing quantities
e = e_stack(pts.X, pts.U, pts.P, pts.R)
i, j = np.triu_indices(3, 1)
rows = np.column_stack([
    hamiltonian_stack(pts.U, pts.P, pts.R), e.E_D, e.E_T, e.E_S, e.E_R[:, i, j], q_phase(pts)
])
drift = np.max(np.abs(rows - rows[0]), axis=0) / (1.0 + np.abs(rows[0]))
print(f"max relative drift across H and all basis/pairing quantities: {np.max(drift):.2e}")

print()
print("fourth-order convergence of the energy drift:")
rng = np.random.default_rng(3)
y = rng.uniform(-1, 1, 12)
while y[3:6] @ y[3:6] < 0.3:
    y = rng.uniform(-1, 1, 12)

start = PhasePoint.from_flat(y, 3)
prev = None
for h in (4e-3, 2e-3, 1e-3):
    t = PhasePoint.from_flat(integrate(start, 1.0, h=h).states, 3)
    hs = hamiltonian_stack(t.U, t.P, t.R)
    d = float(np.max(np.abs(hs - hs[0])))
    note = f"  ratio {prev / d:.1f}" if prev else ""
    print(f"  h={h:.0e}: drift {d:.3e}{note}")
    prev = d
