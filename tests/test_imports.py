"""Which iamkit modules each command loads, and the lazy `import iamkit`
namespace.

Each command runs in a fresh interpreter, which then lists the iamkit
modules left in sys.modules.  The file needs no pytest, so it also runs as
a script under any interpreter:

    PYTHONPATH=src python tests/test_imports.py
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs one command in process, its stdout captured, and prints the exit
# code, the iamkit modules loaded and whether dataclasses was.
PROBE = """
import io, sys
from iamkit.cli import main
code = 0
if sys.argv[1:]:
    sys.stdout = io.StringIO()
    code = main(sys.argv[1:])
    sys.stdout = sys.__stdout__
print((code, sorted(m for m in sys.modules if m.startswith("iamkit.")),
       "dataclasses" in sys.modules))
"""

MATRIX = '{"m":3,"n":4,"rows":[[0,1,1,1],[1,1,0,1],[1,1,1,1]]}'
PP = '{"a":1,"b":2,"c":2,"pi":[[2,1]]}'

# what `from iamkit.cli import main` loads by itself
BASE = {"cli", "core", "formulas"}
GENFUNC = {"genfunc", "bijection", "oracle"}

# (command line, stdin, modules loaded beyond BASE)
FOOTPRINTS = [
    ("", "", set()),
    ("count --m 9 --n 7 --k 5", "", set()),
    ("count --m 9 --n 7 --k 5 --format json", "", set()),
    ("count --class DS --n 5 --k 3", "", set()),
    ("count --m 4 --n 4 --k 3 --with-oracle", "", {"oracle"}),
    ("count --m 3 --n 3 --k 2 --t 1", "", {"skew"}),
    ("count --m 3 --n 3 --k 2 --t 1 --with-oracle", "", {"skew", "oracle"}),
    ("count --lambda 4,4,4 --k 3", "", {"skew"}),
    ("count --lambda 4,4,4 --k 3 --with-oracle", "", {"skew", "oracle"}),
    # symmetry lists fixed points with the oracle's row search
    ("count --class DS --n 5 --k 3 --with-oracle", "",
     {"symmetry", "oracle"}),
    ("enumerate --m 3 --n 4 --k 3", "", {"oracle"}),
    ("enumerate --lambda 3,3 --k 2", "", {"oracle"}),
    ("biject --to pp --k 3", MATRIX, {"bijection"}),
    ("biject --to paths --k 3", MATRIX, {"bijection"}),
    ("biject --to matrix", PP, {"bijection"}),
    ("genfunc --m 3 --n 4 --k 3 --t1", "", GENFUNC),
    ("genfunc --m 3 --n 4 --k 3 --points 2", "", GENFUNC),
    ("selftest --quick", "", GENFUNC | {"skew"}),
]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def footprint(command, stdin=""):
    """(exit code, iamkit modules loaded, dataclasses loaded?) of one
    command in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", PROBE] + command.split(),
                          input=stdin.encode(), capture_output=True,
                          env=_env(), timeout=120)
    if proc.returncode != 0 or proc.stderr:
        raise RuntimeError("probe of %r failed: %r" % (command, proc.stderr))
    code, mods, dataclasses = ast.literal_eval(proc.stdout.decode())
    return code, {m[len("iamkit."):] for m in mods}, dataclasses


def test_each_command_loads_only_the_modules_it_runs():
    wrong = []
    for command, stdin, extra in FOOTPRINTS:
        got = footprint(command, stdin)
        want = (0, BASE | extra, False)
        if got != want:
            wrong.append((command, got, want))
    assert wrong == [], wrong


# ---------------------------------------------------------------------------
# the namespace

# The names `iamkit` exports, by the module that exports them.  Both budget
# types live in core and are exported by oracle too.
EXPORTS = {
    "core": [
        "BinaryMatrix", "BudgetExceeded", "EnumerationBudget", "Filling",
        "Partition", "SkewShape", "VerificationError", "contains_ik",
        "contains_ik_in_shape", "is_maximal_filling", "is_maximal_iam",
        "longest_increasing_chain", "max_ones",
    ],
    "oracle": [
        "BudgetExceeded", "EnumerationBudget", "enumerate_maximal_fillings",
        "enumerate_maximal_iams", "naive_enumerate", "oracle_count",
        "oracle_count_shape",
    ],
    "bijection": [
        "PathFamily", "PlanePartition", "count_zigzag_decompositions",
        "enumerate_pp", "matrix_to_paths", "matrix_to_pp", "path_endpoints",
        "paths_to_matrix", "pp_layers", "pp_to_matrix",
    ],
    "formulas": [
        "SYMMETRY_TAGS", "check_product_relations", "count_iams",
        "count_symmetry", "hprod",
    ],
    "genfunc": [
        "QPoly", "StatRecord", "gf_lhs", "gf_rhs", "pp_volume_gf", "stat_d",
        "stat_record", "stat_v", "stat_v_cell", "stat_vd", "stat_w_cell",
        "volume_gf", "weight_at",
    ],
    "skew": [
        "TruncatedRect", "count_skew_fillings", "count_truncated_rect",
        "dual_shape", "gamma", "kratt_lhs", "kratt_rhs", "kreweras_f",
        "lgv_count", "reflection_count", "reflection_det", "validate_skew",
    ],
    "symmetry": ["apply", "brute_count_class", "classes_of"],
}


def test_all_pins_the_exported_names_and_modules():
    import iamkit
    names = {name for names in EXPORTS.values() for name in names}
    assert len(names) == 61
    assert sorted(iamkit.__all__) == sorted(names | set(EXPORTS))
    assert len(iamkit.__all__) == 68


def test_every_name_is_the_object_of_its_module():
    import iamkit
    for mod, names in EXPORTS.items():
        home = importlib.import_module("iamkit." + mod)
        assert getattr(iamkit, mod) is home
        for name in names:
            assert getattr(iamkit, name) is getattr(home, name), name


def test_star_import_binds_every_name():
    ns = {}
    exec("from iamkit import *", ns)
    import iamkit
    assert all(ns[name] is getattr(iamkit, name) for name in iamkit.__all__)
    assert inspect.ismodule(ns["oracle"])


def test_an_unknown_name_raises_attribute_error():
    import iamkit
    try:
        iamkit.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("iamkit.no_such_name did not raise")
    assert not hasattr(iamkit, "dataclass")


LAZY = """
import sys
import iamkit
loaded = lambda: sorted(m for m in sys.modules if m.startswith("iamkit."))
print(loaded())
print(iamkit.count_iams(9, 7, 5), loaded())
print(iamkit.oracle.oracle_count(3, 4, 3), loaded())
"""


def test_plain_import_loads_no_submodule_until_a_name_is_read():
    proc = subprocess.run([sys.executable, "-c", LAZY], capture_output=True,
                          env=_env(), timeout=120)
    assert proc.stderr == b""
    assert proc.stdout.decode().splitlines() == [
        "[]",
        "116424 ['iamkit.core', 'iamkit.formulas']",
        "6 ['iamkit.core', 'iamkit.formulas', 'iamkit.oracle']",
    ]


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail
            failed += 1
            print("FAIL %s: %r" % (name, exc))
        else:
            print("PASS %s" % name)
    sys.exit(1 if failed else 0)
