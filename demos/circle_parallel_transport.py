"""Projectively parametrized circles: the third-order equation, the
vanishing fourth invariant, and second-order decay of the discrete
connection derivative of the three-tractor wedge.
"""

import numpy as np

from confcurves import (
    Circle,
    circle_residual_stack,
    derivatives,
    gram_stack,
    parallel_defect,
    q_circle_stack,
)
from confcurves.tractors import q_keys

circle = Circle(
    np.array([0.2, -0.1, 0.4]),
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 0.8, 0.3]),
)

print("residual of the circle equation and the fourth invariant:")
for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
    jet = circle.jet(t)
    res = float(np.max(np.abs(circle_residual_stack(*derivatives(jet, 4)[1:]))))
    d4 = gram_stack(jet).delta4
    print(f"  t={t:5.2f}: residual {res:.2e}   delta4 {d4:+.2e}")

print()
print("discrete connection derivative of the three-wedge (parallel along circles):")
prev = None
steps = (0.08, 0.04, 0.02, 0.01)
for h, d in zip(steps, parallel_defect(lambda s: circle.jet(s, 4), 0.0, steps, count=3)):
    note = f"  ratio {prev / d:.2f}" if prev else ""
    print(f"  h={h:5.3f}: defect {d:.3e}{note}")
    prev = d
print("halving h divides the defect by ~4: the wedge is parallel")

print()
print("rank-3 pairing quantities stay constant along the circle:")
q0 = dict(zip(q_keys(3, 3), q_circle_stack(circle.jet(-1.0)).tolist()))
q1 = dict(zip(q_keys(3, 3), q_circle_stack(circle.jet(1.0)).tolist()))
worst = max(abs(q1[k] - q0[k]) for k in q0)
print(f"  max drift across the window: {worst:.2e}")
for key in list(sorted(q0))[:4]:
    print(f"  Q{key}: {q0[key]:+.10f}")
