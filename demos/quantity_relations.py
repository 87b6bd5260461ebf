"""The paper's relation tying the two conserved-quantity families
together: the basis quantities form the momentum bivector M, the pairing
quantities are Q = -1/4 M^M and the Hamiltonian is the Casimir of M,
checked pointwise on the whole phase space, plus the constrained-jet
identity between the tractor route and the flow route.
"""

import numpy as np

import itertools

from confcurves import (
    alpha1_stationary_stack,
    coefficients,
    e_stack,
    hamiltonian_stack,
    identity_residual_stack,
    poisson_bracket,
    q_phase,
    quantity_identities,
)
from confcurves.symmetries import _bivector_square, _casimir
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
M = e_stack(X, U, P, R)
print(f"  M is {M.shape[0]} x {M.shape[1]}, max |M + M^T| = {np.max(np.abs(M + M.T)):.1e}")
for key, q, square in list(zip(q_keys(4), q_phase(X, U, P, R), _bivector_square(M)))[::4]:
    print(f"  Q{key} = {q:+.12f}   -s/4 (M^M){key} = {square:+.12f}")
print(f"  H = {hamiltonian_stack(U, P, R):.12f}   -tr((M G)^2)/16 = {_casimir(M):.12f}")

print()
print("pairing quantities rewritten through the basis quantities")
print("(four identity families, 100 random points in dimension 4):")
points = np.stack([random_row(4) for _ in range(100)])
for fam, rec in quantity_identities(*np.split(points, 4, axis=-1)).items():
    print(f"  {fam}: max scaled residual {np.max(rec['residual'] / (1.0 + rec['scale'])):.2e}")

print()
print("dimension-3 view of the momentum bivector at one random point:")
# keys (0,1,2,4), (0,1,3,4), (0,2,3,4), (0,1,2,3), (1,2,3,4): the 0ijN
# family is an axial vector Q1, the other two are scalars
M3 = e_stack(*np.split(random_row(3), 4))
q = _bivector_square(M3)
print(f"  Q1 = {np.round(q[[2, 1, 0]] * [1, -1, 1], 6)}  Q2 = {q[3]:.6f}  Q3 = {q[4]:.6f}")
print(f"  energy as the Casimir of the bivector: {_casimir(M3):.6f}")

print()
print("five-element involutive set {E_T1, E_T2, E_T3, Q3, H}, by complex step:")
# E_T = P; each bracket is one complex-step call over all 20 points
fns = [lambda X, U, P, R, i=i: P[..., i] for i in range(3)]
fns += [lambda *p: _bivector_square(e_stack(*p))[..., 4], lambda X, U, P, R: hamiltonian_stack(U, P, R)]
points = np.stack([random_row(3) for _ in range(20)])
worst = max(np.max(np.abs(poisson_bracket(f, g, points))) for f, g in itertools.combinations(fns, 2))
print(f"  max |bracket| over all pairs and 20 points: {worst:.2e}")

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
