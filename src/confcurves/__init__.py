"""Conserved quantities of distinguished curves on the flat conformal sphere.

The package provides exact jet arithmetic, the canonical tractor sequence
of a parametrized curve with its determinant invariants, the conserved
quantities obtained from parallel wedges, the conformally invariant
fourth-order curve flow with its Hamiltonian form and Noether quantities,
the closed-form solution families used as oracles, and a CLI for running
the verification suites.
"""

from .curves import CurveJet, DegenerateVelocityError
from .families import Circle, FamilyError, LogSpiral, TransformedSpiral
from .jets import JetDomainError, JetError, JetOrderError, JetScalar
from .mercator import (
    PhasePoint,
    Trajectory,
    accel_from_phase,
    circle_residual,
    hamilton_rhs,
    hamiltonian,
    integrate,
    lagrangians,
    mercator_C,
    phase_from_jet,
    poisson_bracket_fd,
    solution_jet,
)
from .multilinear import (
    antisymmetrize,
    dot,
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
    f_closed,
    f_generic,
    involutivity_check,
    noether_basis,
    q_phase,
    quantity_identities,
    three_d_reduction,
)
from .tractors import (
    GramInvariants,
    IdentityResiduals,
    UndefinedInvariantError,
    canonical_tractors,
    canonical_tractor_jets,
    closed_form_alpha1_delta4,
    enforce_alpha1_stationary,
    gram_invariants,
    is_conformal_circle,
    kappa1,
    mercator_tractor_residuals,
    parallel_defect,
    parallel_section_oracle,
    q_circle_quantities,
    q_quantities,
    quantity_family,
)

__version__ = "0.1.0"
