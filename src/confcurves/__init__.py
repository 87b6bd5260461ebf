"""Conserved quantities of distinguished curves on the flat conformal sphere.

The package provides exact jet arithmetic, the canonical tractor sequence
of a parametrized curve with its determinant invariants, the conserved
quantities obtained from parallel wedges, the conformally invariant
fourth-order curve flow with its Hamiltonian form and Noether quantities,
the closed-form solution families used as oracles, and a CLI for running
the verification suites.
"""

from .curves import DegenerateVelocityError, coefficients, derivatives
from .families import Circle, FamilyError, LogSpiral, TransformedSpiral
from .jets import JetDomainError, JetError, JetOrderError, JetScalar
from .mercator import (
    PhasePoint,
    Trajectory,
    accel_from_phase,
    circle_residual_stack,
    flow_vector_stack,
    hamilton_rhs,
    hamiltonian,
    hamiltonian_stack,
    integrate,
    lagrangians,
    momenta_stack,
    phase_from_jet,
    poisson_bracket_fd,
    taylor_lift,
)
from .multilinear import (
    epsilon,
    wedge,
    wedge_pair,
)
from .symmetries import (
    EQuantities,
    KillingField,
    ckv_eval,
    conformal_factor,
    e_quantities,
    e_stack,
    f_generic_stack,
    involutivity_check,
    noether_stack,
    q_phase,
    quantity_identities,
    three_d_reduction,
)
from .tractors import (
    GramStack,
    IdentityResiduals,
    UndefinedInvariantError,
    canonical_tractor_stack,
    closed_form_alpha1_delta4,
    alpha1_stationary_stack,
    gram_stack,
    identity_residual_stack,
    is_conformal_circle,
    parallel_defect,
    parallel_section_oracle,
    q_circle_stack,
    q_stack,
    quantity_family,
)

__version__ = "0.1.0"
