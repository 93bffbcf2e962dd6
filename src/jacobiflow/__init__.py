"""Extended phase space mechanics on R^(2n+2).

Coordinates are ordered (q1, p1, ..., qn, pn, eps, t) throughout; `forms`
holds the two canonical bilinear forms and finite-difference plumbing,
`groups` the translation/symplectic/time-reversal matrix groups acting on
them, `systems` and `dynamics` the Hamiltonian flows, and `verify` the
invariance certification layer.
"""

__version__ = "0.1.0"

from .forms import (
    Dimension,
    MapHandle,
    canonical_zeta,
    canonical_eta,
    zeta_reduced,
    form_residual,
    numeric_jacobian,
    block_permutation,
    interleaved_to_block,
    block_to_interleaved,
)
from .groups import (
    HeisenbergElement,
    SymplecticBlock,
    JacobiElement,
    IglElement,
    VfrView,
    FactorError,
    NotSymplectic,
    NotTimePreserving,
    PatternViolation,
    NotARotation,
    heisenberg_mul,
    heisenberg_inv,
    heisenberg_generators,
    conjugate_by_sp,
    jacobi_matrix,
    jacobi_mul,
    jacobi_inv,
    jacobi_factor,
    igl_factor,
    euclidean_element,
    vfr_convert,
    heisenberg_from_vfr,
    random_symplectic,
    random_jacobi,
)
from .systems import HamiltonianSystem, builtin_system, BUILTIN_SYSTEMS
from .dynamics import (
    Trajectory,
    RhoTransform,
    extended_vector_field,
    field_jacobian,
    integrate_flow,
    make_rho,
    write_csv,
)
from .verify import (
    InvarianceReport,
    EnergyLedger,
    check_invariance,
    check_flow_jacobians,
    hamilton_residual,
    energy_ledger,
    noncommutativity_check,
    trajectory_probes,
    box_probes,
)
