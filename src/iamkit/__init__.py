"""iamkit: exact enumeration and verification for maximal I_k-avoiding
(0,1)-matrices, their path-family and plane-partition encodings, and
maximal fillings of skew shapes.

Every closed formula exposed here has a brute-force twin in `oracle`;
the test suite insists they agree wherever both are feasible.
"""

from .core import (
    BinaryMatrix,
    Filling,
    Partition,
    SkewShape,
    VerificationError,
    contains_ik,
    contains_ik_in_shape,
    is_maximal_filling,
    is_maximal_iam,
    longest_increasing_chain,
    max_ones,
)
from .oracle import (
    BudgetExceeded,
    EnumerationBudget,
    enumerate_maximal_fillings,
    enumerate_maximal_iams,
    naive_enumerate,
    oracle_count,
    oracle_count_shape,
)
from .bijection import (
    PathFamily,
    PlanePartition,
    count_zigzag_decompositions,
    enumerate_pp,
    matrix_to_paths,
    matrix_to_pp,
    path_endpoints,
    paths_to_matrix,
    pp_layers,
    pp_to_matrix,
)
from .formulas import (
    SYMMETRY_TAGS,
    check_product_relations,
    count_iams,
    count_symmetry,
    hprod,
)
from .genfunc import (
    QPoly,
    StatRecord,
    gf_lhs,
    gf_rhs,
    pp_volume_gf,
    stat_d,
    stat_record,
    stat_v,
    stat_v_cell,
    stat_vd,
    stat_w_cell,
    volume_gf,
    weight_at,
)
from .skew import (
    TruncatedRect,
    count_skew_fillings,
    count_truncated_rect,
    dual_shape,
    gamma,
    kratt_lhs,
    kratt_rhs,
    kreweras_f,
    lgv_count,
    reflection_count,
    reflection_det,
    validate_skew,
)
from .symmetry import apply, brute_count_class, classes_of

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
