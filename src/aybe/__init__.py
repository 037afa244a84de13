"""Explicit solutions of the associative Yang-Baxter equation and their
numerical verification, plus the vector-bundle combinatorics on cycles of
projective lines that produces them."""

from .bundles import (
    MasseyMap,
    SplittingMatrix,
    bd_from_matrix,
    hom_dim,
    is_simple,
    massey_closed,
    massey_oracle,
    massey_r,
    massey_tensor,
    matrix_from_sequence,
    matrix_tau,
    realizable,
    row_sum_rule_holds,
    sequence_from_structure,
    star_order,
    tau_free_matrix,
)
from .solutions import (
    PoleError,
    RFun,
    abc_parts,
    classical_r0,
    difference_form,
    gauge_transform,
    laurent_r0,
    laurent_r1,
    multiplicative_r,
    nilpotent_r,
    orbit_symmetry,
    quantum_R,
    rational_R,
    s_product,
    trigonometric_r,
    u_only_r,
)
from .structures import (
    BDStructure,
    CyclicPermutation,
    InvalidStructure,
    OrderedBDStructure,
    enumerate_ordered,
    enumerate_structures,
    structure_from_json,
    structure_to_json,
)
from .tensors import (
    Tensor2,
    Tensor3,
    compose2,
    diag_P0,
    embed,
    is_nondegenerate,
    perm_P,
    project_sl,
    swap_factors,
    sym_commutator,
    tensor_of,
    unit2,
)
from .verify import (
    Report,
    SamplePlan,
    perturb,
    residual_abc,
    residual_aybe,
    residual_aybe2,
    residual_cubic,
    residual_cybe,
    residual_h_equation,
    residual_laurent_identity,
    residual_qybe,
    residual_qybe_unitarity,
    residual_s_identity,
    residual_symmetry,
    residual_unitarity,
)

__version__ = "0.1.0"
