"""Integrating the first-order system with RK4 and watching every
conserved quantity hold its value.

The position momentum has an exactly zero right-hand side, so it is
conserved to round-off; everything else drifts at fourth order in the
step, dropping ~16x when the step is halved.
"""

import numpy as np

from confcurves import (
    LogSpiral,
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
X0, U0, P0, R0 = np.split(p0, 4)
H0 = hamiltonian_stack(U0, P0, R0)
print(f"start on a pitch-1.4 spiral: H = {H0:.6f} (expected (c^2-1)/2 = 0.48)")

traj = integrate(p0, 1.0, h=1e-3, store_every=10)
# the components of every stored state, each (rows, 3)
X, U, P, R = np.split(traj.states, 4, axis=-1)
closed = spiral.position(traj.ts)
print(f"trajectory vs closed-form spiral over [0,1]: max error {np.max(np.abs(X - closed)):.2e}")

# one row per stored state: H, the basis quantities (the entries of the
# momentum bivector above its diagonal) and the pairing quantities
i, j = np.triu_indices(5, 1)
rows = np.column_stack([hamiltonian_stack(U, P, R), e_stack(X, U, P, R)[:, i, j], q_phase(X, U, P, R)])
drift = np.max(np.abs(rows - rows[0]), axis=0) / (1.0 + np.abs(rows[0]))
print(f"max relative drift across H and all basis/pairing quantities: {np.max(drift):.2e}")

print()
print("fourth-order convergence of the energy drift:")
rng = np.random.default_rng(3)
y = rng.uniform(-1, 1, 12)
while y[3:6] @ y[3:6] < 0.3:
    y = rng.uniform(-1, 1, 12)

prev = None
for h in (4e-3, 2e-3, 1e-3):
    _, U, P, R = np.split(integrate(y, 1.0, h=h).states, 4, axis=-1)
    hs = hamiltonian_stack(U, P, R)
    d = float(np.max(np.abs(hs - hs[0])))
    note = f"  ratio {prev / d:.1f}" if prev else ""
    print(f"  h={h:.0e}: drift {d:.3e}{note}")
    prev = d
