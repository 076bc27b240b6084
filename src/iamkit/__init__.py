"""iamkit: exact enumeration and verification for maximal I_k-avoiding
(0,1)-matrices, their path-family and plane-partition encodings, and
maximal fillings of skew shapes.

Every closed formula exposed here has a brute-force twin in `oracle`;
the test suite insists they agree wherever both are feasible.

`import iamkit` loads no submodule: each name below is imported from its
module the first time it is read (PEP 562), so a command that needs only
the closed formulas never compiles the searches.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOMES = {
    "core": (
        "BinaryMatrix", "BudgetExceeded", "EnumerationBudget", "Filling",
        "Partition", "SkewShape", "VerificationError", "contains_ik",
        "contains_ik_in_shape", "is_maximal_filling", "is_maximal_iam",
        "longest_increasing_chain", "max_ones",
    ),
    "oracle": (
        "enumerate_maximal_fillings", "enumerate_maximal_iams",
        "naive_enumerate", "oracle_count", "oracle_count_shape",
    ),
    "bijection": (
        "PathFamily", "PlanePartition", "count_zigzag_decompositions",
        "enumerate_pp", "matrix_to_paths", "matrix_to_pp", "path_endpoints",
        "paths_to_matrix", "pp_layers", "pp_to_matrix",
    ),
    "formulas": (
        "SYMMETRY_TAGS", "check_product_relations", "count_iams",
        "count_symmetry", "hprod",
    ),
    "genfunc": (
        "QPoly", "StatRecord", "gf_lhs", "gf_rhs", "pp_volume_gf", "stat_d",
        "stat_record", "stat_v", "stat_v_cell", "stat_vd", "stat_w_cell",
        "volume_gf", "weight_at",
    ),
    "skew": (
        "TruncatedRect", "count_skew_fillings", "count_truncated_rect",
        "dual_shape", "gamma", "kratt_lhs", "kratt_rhs", "kreweras_f",
        "lgv_count", "reflection_count", "reflection_det", "validate_skew",
    ),
    "symmetry": ("apply", "brute_count_class", "classes_of"),
}
_HOME = {name: mod for mod, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOME, *_HOMES])


def __getattr__(name):
    if name in _HOMES:
        return import_module("." + name, __name__)
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + mod, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
