"""The paper's relation tying the two conserved-quantity families
together: the basis quantities form the momentum bivector M, the pairing
quantities are Q = -1/4 M^M and the Hamiltonian is the Casimir of M,
checked pointwise on the whole phase space, plus the constrained-jet
identity between the tractor route and the flow route.
"""

import numpy as np

from confcurves import (
    alpha1_stationary_stack,
    coefficients,
    e_stack,
    hamiltonian_stack,
    identity_residual_stack,
    involutivity_check,
    q_phase,
    quantity_identities,
    three_d_reduction,
)
from confcurves.symmetries import _bivector_square, _casimir, _momentum_bivector
from confcurves.tractors import q_keys

rng = np.random.default_rng(42)


def random_row(n):
    """A uniform phase row [X, U, P, R] from [-1, 1]^{4n} with |U|^2 >= 0.1."""
    while True:
        y = rng.uniform(-1, 1, 4 * n)
        if y[n : 2 * n] @ y[n : 2 * n] >= 0.1:
            return y


print("the momentum bivector M of the basis quantities at one random point in")
print("dimension 4, its square against the pairing quantities (s the key's")
print("orientation, -1 on the ijkN keys), and its Casimir:")
X, U, P, R = np.split(random_row(4), 4)
e = e_stack(X, U, P, R)
M = _momentum_bivector(e)
print(f"  M is {M.shape[0]} x {M.shape[1]}, max |M + M^T| = {np.max(np.abs(M + M.T)):.1e}")
for key, q, square in list(zip(q_keys(4), q_phase(X, U, P, R), _bivector_square(e)))[::4]:
    print(f"  Q{key} = {q:+.12f}   -s/4 (M^M){key} = {square:+.12f}")
print(f"  H = {hamiltonian_stack(U, P, R):.12f}   -tr((M G)^2)/16 = {_casimir(e):.12f}")

print()
print("pairing quantities rewritten through the basis quantities")
print("(four identity families, 100 random points in dimension 4):")
points = np.stack([random_row(4) for _ in range(100)])
for fam, rec in quantity_identities(*np.split(points, 4, axis=-1)).items():
    print(f"  {fam}: max scaled residual {np.max(rec['residual'] / (1.0 + rec['scale'])):.2e}")

print()
print("dimension-3 view of the momentum bivector at one random point:")
red = three_d_reduction(e_stack(*np.split(random_row(3), 4)))
print(f"  Q1 = {np.round(red.Q1, 6)}  Q2 = {red.Q2:.6f}  Q3 = {red.Q3:.6f}")
print(f"  energy as the Casimir of the bivector: {red.H_from_E:.6f}")

print()
print("five-element involutive set {E_T1, E_T2, E_T3, Q3, H}, by complex step:")
table = involutivity_check(np.stack([random_row(3) for _ in range(20)]))
print(f"  max |bracket| over all pairs and 20 points: {max(table.values()):.2e}")

print()
print("tractor/flow reduction identity on jets with stationary alpha_1:")
worst = 0.0
for _ in range(100):
    n = int(rng.integers(2, 5))
    derivs = [rng.uniform(-1, 1, n) for _ in range(5)]
    while derivs[1] @ derivs[1] < 0.1:
        derivs[1] = rng.uniform(-1, 1, n)
    res = identity_residual_stack(alpha1_stationary_stack(coefficients(derivs)))
    scale = 1.0 + max(
        float(np.max(np.abs(res.tractor_slot))),
        float(np.max(np.abs(res.mercator_expansion))),
    )
    worst = max(worst, res.identity_defect / scale)
print(f"  max scaled defect over 100 constrained jets: {worst:.2e}")
