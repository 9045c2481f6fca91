"""Numerical laboratory for matrix Walsh systems under biased product states:
weighted L^p geometry, state-preserving filtrations, partial-sum projections,
two-block tensor variants, and the commutative dyadic picture.
"""

__version__ = "0.1.0"

from .linalg import (
    apply_factor_maps,
    dagger,
    gns_inner,
    kron,
    matrix_from_json,
    matrix_to_json,
    schatten_norm,
)
from .states import (
    LpContext,
    StateSpec,
    cond_expect,
    lp_norm,
    mart_diff,
    modular_flow,
    rho_value,
    state_density,
)
from .walsh import (
    MEANZERO,
    PAPER,
    binary_digits,
    block_support,
    rademacher_block,
    rademacher_matrix,
    walsh_coefficients,
    walsh_matrix,
    walsh_product_index,
    walsh_synthesize,
)
from .schauder import (
    NormReport,
    OperatorHandle,
    SignSweepReport,
    basis_constant_sweep,
    estimate_norm_lp,
    exact_norm_p2,
    identity_residual,
    partial_sum,
    subset_projection,
    unconditionality_constant,
)
from .tensor import (
    TensorContext,
    double_walsh,
    factor_expectation,
    factor_projection,
    shell_decomposition_check,
    shell_index,
    shell_pair,
    tensor_identity_residual,
    tensor_partial_sum,
)
from .classical import (
    StepFunction,
    classical_walsh_values,
    diag_index_map,
    diag_to_step,
    mu_weight,
    step_lp_norm,
)
