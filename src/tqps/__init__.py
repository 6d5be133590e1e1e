"""Exact-arithmetic toolkit for a Toeplitz-algebra multipullback model of
complex projective space and its covering lattice.
"""

from .circle_hopf import Scalar
from .classical_cpn import (
    ChartPoint,
    CoveringSet,
    chart,
    chart_inv,
    classical_freeness,
    lattice_L,
    lattice_R,
    transition,
    transition_agreement,
)
from .multipullback import (
    ExtensionError,
    FreenessEvidence,
    IncompatiblePartialFamily,
    PullbackElement,
    extend,
    is_member,
    sample_kernel_intersection,
    verify_freeness,
    witness_TmI,
    witness_xI,
)
from .order_lattice import (
    AntichainForm,
    FiniteDistributiveLattice,
    FreenessReport,
    LatticeError,
    Poset,
    antichain_count,
    birkhoff_transform,
    check_freeness_criterion,
    fdl_enumerate,
    fdl_join,
    fdl_leq,
    fdl_meet,
    freeness_by_types,
    meet_irreducibles,
    upper_sets,
)
from .tensor_gluing import (
    QuotientClass,
    TensorElement,
    chi,
    chi_inv,
    cocycle_check,
    glue,
    kernel_image_check,
    lift_circle,
    phi,
    project_slots,
    psi,
    psi_ij,
    psi_ij_inv,
    psi_involution_check,
    slot_for,
    slot_symbol,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
