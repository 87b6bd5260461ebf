"""Noether quantities of the fourth-order flow for conformal Killing
fields, evaluated two independent ways on each closed-form solution family.

A field ``v(x) = T + R^T x + a x + |x|^2 S - 2 (S.x) x`` has the quantity
``T.E_T + <R, E_R>/2 + a E_D + S.E_S``: a pairing with the basis
quantities, so one basis per curve point gives every field's value.  The
basis is the momentum bivector ``M``, read off the first four canonical
tractors of the curve; the other route is the defining expression of the
Noether quantity, ``f_generic_stack``.
"""

import numpy as np

from confcurves import (
    Circle,
    KillingField,
    LogSpiral,
    TransformedSpiral,
    canonical_tractor_stack,
    f_generic_stack,
)
from confcurves.symmetries import basis_parts
from confcurves.tractors import _tractor_bivector

rng = np.random.default_rng(11)
rot = np.zeros((3, 3))
rot[0, 1], rot[1, 0] = 1.0, -1.0
T, S = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
fields = {
    "translation": KillingField(3, T=T),
    "rotation": KillingField(3, R=rot),
    "dilatation": KillingField(3, a=0.9),
    "special conformal": KillingField(3, S=S),
    "general": KillingField(3, T=T, R=rot, a=0.9, S=S),
}

spiral = LogSpiral(1.5, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0.2, 0.1, -0.3]))
circle = Circle(np.array([0.1, 0.2, -0.1]), np.array([0, 1.0, 0]), np.array([0.4, 0, 0.3]))
tspiral = TransformedSpiral(spiral, np.array([0.1, -0.1, 0.15]))


def basis(jets):
    """The momentum bivector ``M`` of curve points, from their tractors."""
    return _tractor_bivector(canonical_tractor_stack(jets, 4), jets[..., 0])


for name, family in (("spiral", spiral), ("circle", circle), ("transformed spiral", tspiral)):
    print(f"{name}:")
    jets = family.jet(np.linspace(-1, 1, 9))
    generic = f_generic_stack(list(fields.values()), jets)
    M = basis(jets)
    for (label, field), vals_generic in zip(fields.items(), generic.tolist()):
        vals_closed = field.pair(M).tolist()
        gap = max(abs(a - b) for a, b in zip(vals_closed, vals_generic))
        spread = max(vals_closed) - min(vals_closed)
        print(
            f"  {label:18s} value {vals_closed[0]:+.8f}   spread {spread:.2e}   "
            f"closed-vs-generic {gap:.2e}"
        )
    print()

print("two-dimensional loxodromes: the rotation quantity equals the pitch")
for c in (0.5, 1.0, 2.5):
    lox = LogSpiral(c, np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2))
    r2 = KillingField(2, R=np.array([[0.0, 1.0], [-1.0, 0.0]]))
    print(f"  c = {c}: F_R = {r2.pair(basis(lox.jet(0.3))):.12f}")

print()
print("transformed spiral against its closed-form bivector:")
rep = tspiral.conserved_report()
evaluated = basis(tspiral.jet(0.4))
(E_T, _, E_D, _), evaluated_D = basis_parts(rep), basis_parts(evaluated)[2]
print(f"  constant flow vector: {np.round(-E_T, 8)}")
print(f"  dilatation rate {E_D:+.8f} vs evaluated {evaluated_D:+.8f}")
print(f"  largest bivector gap {np.max(np.abs(rep - evaluated)):.2e}")
