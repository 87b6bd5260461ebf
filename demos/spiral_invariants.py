"""Determinant invariants and pairing quantities along logarithmic spirals.

A spiral of pitch c has a constant fourth invariant -c^2, a vanishing
fifth invariant, constant tractor lengths c^2-1 and c^4-c^2+1, and a
constant curvature -(c^2-1)/(2c); its pairing quantities collapse to
rank-2/rank-3 determinants of the plane frame.
"""

import numpy as np

from confcurves import LogSpiral, derivatives, flow_vector_stack, gram_stack, q_stack
from confcurves.tractors import q_keys

spiral = LogSpiral(
    2.0,
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.3, -0.2, 0.5]),
)
c = spiral.c

print(f"pitch c = {c}")
print("expected: delta4 = -c^2 = -4, alpha1 = 3, alpha2 = 13, kappa1 = -0.75")
print()
print(f"{'t':>6} {'delta3':>10} {'delta4':>10} {'delta5':>12} {'alpha1':>10} {'kappa1':>10} {'|C|':>10}")
for t in np.linspace(-1.0, 1.0, 9):
    jet = spiral.jet(float(t))
    g = gram_stack(jet)
    c_norm = float(np.max(np.abs(flow_vector_stack(*derivatives(jet, 4)[1:]))))
    print(
        f"{t:6.2f} {g.delta3:10.6f} {g.delta4:10.6f} {g.delta5:12.2e}"
        f" {g.alpha1:10.6f} {g.kappa1:10.6f} {c_norm:10.2e}"
    )

print()
print("pairing quantities at t = 0 (constant along the curve):")
q0 = dict(zip(q_keys(3), q_stack(spiral.jet(0.0)).tolist()))
q1 = dict(zip(q_keys(3), q_stack(spiral.jet(0.8)).tolist()))
for key in sorted(q0):
    print(f"  Q{key}: {q0[key]:+.12f}   drift to t=0.8: {abs(q1[key] - q0[key]):.2e}")
print()
print("the (0,i,j,N) values are c/|p0|^2 times the plane-frame determinants,")
print("the (0,i,j,k) value adds the offset vector, the rest vanish")
