"""Conserved quantities of distinguished curves on the flat conformal sphere.

The package provides Taylor (jet) kernels over coefficient arrays, the
canonical tractor sequence of a parametrized curve with its determinant
invariants, the conserved quantities obtained from parallel wedges, the
conformally invariant fourth-order curve flow with its Hamiltonian form and
Noether quantities, the closed-form solution families used as oracles, and
a CLI for running the verification suites.
"""

from .curves import DegenerateVelocityError, coefficients, derivatives
from .families import Circle, FamilyError, LogSpiral, TransformedSpiral
from .jets import JetDomainError, JetError
from .mercator import (
    Trajectory,
    circle_residual_stack,
    flow_vector_stack,
    hamiltonian_stack,
    integrate,
    momenta_stack,
    phase_from_jet,
    poisson_bracket,
    taylor_lift,
)
from .multilinear import wedge
from .symmetries import (
    KillingField,
    e_stack,
    f_generic_stack,
    q_phase,
    quantity_identities,
)
from .tractors import (
    GramStack,
    IdentityResiduals,
    canonical_tractor_stack,
    alpha1_stationary_stack,
    gram_stack,
    identity_residual_stack,
    is_conformal_circle,
    parallel_defect,
    q_circle_stack,
    q_stack,
    quantity_family,
)

__version__ = "0.1.0"
