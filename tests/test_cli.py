"""Exercise the CLI in process through main(argv)."""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iamkit.bijection
import iamkit.core
import iamkit.formulas
import iamkit.genfunc
import iamkit.oracle
from iamkit.cli import main
from test_skew import SINGULAR

M5_JSON = '{"m":3,"n":4,"rows":[[0,1,1,1],[1,1,0,1],[1,1,1,1]]}'


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out


def test_count_plain(capsys):
    rc, out = run(capsys, ["count", "--m", "9", "--n", "7", "--k", "5"])
    assert rc == 0
    assert out == "116424\n"


@contextlib.contextmanager
def no_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_prints_counts_past_the_int_digit_limit(capsys):
    # 4,936 digits, past the 4,300 that str() takes by default
    limit = sys.get_int_max_str_digits()
    count = iamkit.formulas.count_iams(240, 240, 120)
    with no_int_digit_limit():
        digits = str(count)
    assert len(digits) == 4936
    board = ["count", "--m", "240", "--n", "240", "--k", "120"]
    outs = {}
    for fmt in ("text", "json", "csv"):
        rc, outs[fmt] = run(capsys, board + ["--format", fmt])
        assert rc == 0
    # printed whole, and the caller's limit left as it was
    assert sys.get_int_max_str_digits() == limit
    assert outs["text"] == digits + "\n"
    assert outs["csv"] == ("id,formula,oracle,verdict\n"
                           "m=240;n=240;k=120,%s,,\n" % digits)
    with no_int_digit_limit():
        assert json.loads(outs["json"]) == {"id": "m=240,n=240,k=120",
                                            "formula": count}


def test_count_with_oracle_text(capsys):
    rc, out = run(capsys, ["count", "--m", "4", "--n", "4", "--k", "2",
                           "--with-oracle"])
    assert rc == 0
    assert out == "20 20 AGREE\n"


def test_count_truncated(capsys):
    rc, out = run(capsys, ["count", "--m", "3", "--n", "3", "--k", "2",
                           "--t", "1", "--with-oracle"])
    assert rc == 0
    assert out == "5 5 AGREE\n"


def test_count_json(capsys):
    rc, out = run(capsys, ["count", "--m", "3", "--n", "4", "--k", "3",
                           "--format", "json", "--with-oracle"])
    assert rc == 0
    assert json.loads(out) == {"id": "m=3,n=4,k=3", "formula": 6,
                               "oracle": 6, "verdict": "AGREE"}


def test_count_csv(capsys):
    rc, out = run(capsys, ["count", "--m", "3", "--n", "4", "--k", "3",
                           "--format", "csv", "--with-oracle"])
    assert rc == 0
    assert out == "id,formula,oracle,verdict\nm=3;n=4;k=3,6,6,AGREE\n"


def test_count_class(capsys):
    rc, out = run(capsys, ["count", "--class", "DS", "--n", "3", "--k", "3",
                           "--with-oracle"])
    assert rc == 0
    assert out == "3 3 AGREE\n"


def test_count_skew(capsys):
    rc, out = run(capsys, ["count", "--lambda", "3,3,2", "--mu", "1",
                           "--k", "2", "--with-oracle"])
    assert rc == 0
    assert out == "4 4 AGREE\n"


@pytest.mark.parametrize("lam,mu,k", [case[:3] for case in SINGULAR])
def test_count_skew_exits_2_on_a_determinant_below_one(capsys, lam, mu, k):
    # each shape has maximal fillings, but its determinant is 0
    rc = main(["count", "--lambda", ",".join(map(str, lam)),
               "--mu", ",".join(map(str, mu)), "--k", str(k)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("verification failed: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_enumerate_json_lines(capsys):
    rc, out = run(capsys, ["enumerate", "--m", "2", "--n", "2", "--k", "2"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert obj["m"] == 2 and obj["n"] == 2 and len(obj["rows"]) == 2


def test_enumerate_is_deterministic(capsys):
    argv = ["enumerate", "--m", "4", "--n", "4", "--k", "3"]
    rc1, out1 = run(capsys, argv)
    rc2, out2 = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert len(out1.strip().split("\n")) == 20


def test_enumerate_max_results(capsys):
    rc, out = run(capsys, ["enumerate", "--m", "4", "--n", "4", "--k", "3",
                           "--max-results", "3"])
    assert rc == 0
    assert len(out.strip().split("\n")) == 3


@pytest.mark.parametrize("shape", [["--m", "4", "--n", "4"],
                                   ["--lambda", "3,3,3"]])
def test_enumerate_max_results_zero_and_negative(capsys, shape):
    rc, out = run(capsys, ["enumerate", "--k", "3", "--max-results", "0"]
                  + shape)
    assert rc == 0
    assert out == ""
    rc = main(["enumerate", "--k", "3", "--max-results", "-1"] + shape)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "max_results" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("bad", ["true", "1.0"])
def test_biject_rejects_entries_that_are_not_integers(capsys, monkeypatch,
                                                      bad):
    # M5_JSON with its first 1 written as JSON true or as a float
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(M5_JSON.replace("[[0,1,", "[[0,%s," % bad)))
    rc = main(["biject", "--to", "pp", "--k", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("invalid input: entries must be 0 or 1, got %s\n"
                            % {"true": "True", "1.0": "1.0"}[bad])


@pytest.mark.parametrize("to", ["pp", "paths"])
@pytest.mark.parametrize("old,new,dims", [
    ('"m":3', '"m":3.0', "3.0 x 4"),
    ('"n":4', '"n":4.0', "3 x 4.0"),
    ('"m":3', '"m":true', "True x 4"),
])
def test_biject_rejects_declared_dimensions_that_are_not_integers(
        capsys, monkeypatch, to, old, new, dims):
    # M5_JSON with a declared side written as a float or as JSON true; 3.0
    # and 4.0 once compared equal to the rows' and were accepted
    monkeypatch.setattr("sys.stdin", io.StringIO(M5_JSON.replace(old, new)))
    rc = main(["biject", "--to", to, "--k", "3"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == ("invalid input: declared dimensions must be "
                            "integers, got %s\n" % dims)


@pytest.mark.parametrize("payload,bad", [
    ('{"a":1,"b":1,"c":1,"pi":[[1.5]]}', "entries must be integers, got 1.5"),
    ('{"a":1,"b":1,"c":1,"pi":[[true]]}', "entries must be integers, got True"),
    ('{"a":1,"b":1,"c":1,"pi":[["1"]]}', "entries must be integers, got '1'"),
    ('{"a":1.0,"b":1,"c":1,"pi":[[1]]}',
     "box sides must be integers, got 1.0"),
])
def test_biject_rejects_plane_partitions_that_are_not_integers(
        capsys, monkeypatch, payload, bad):
    # int() once read 1.5, true and "1" as 1 and printed a matrix
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    rc = main(["biject", "--to", "matrix"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "invalid input: %s\n" % bad


_SCALARS = (st.none() | st.booleans() | st.integers(-3, 12)
            | st.floats(-3, 12) | st.sampled_from(["", "1", "rows"]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.sampled_from(
                       ["m", "n", "rows", "a", "b", "c", "pi"]), inner,
                       max_size=7)),
    max_leaves=25)
# near misses, so that most payloads get past the first key lookup: a
# grid is clean (entries 0..3) or carries any scalar, and some payloads are
# true maximal matrices and their plane partitions
_GRID = st.lists(st.lists(st.integers(0, 3) | _SCALARS, max_size=5),
                 max_size=5)
_CLEAN_GRID = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 1), min_size=n, max_size=n),
    min_size=1, max_size=4))
_MATRIX = (st.fixed_dictionaries(
    {"m": st.integers(0, 5) | _SCALARS, "n": st.integers(0, 5) | _SCALARS,
     "rows": _GRID | _JSON})
    | _CLEAN_GRID.map(lambda rows: {"m": len(rows), "n": len(rows[0]),
                                    "rows": rows}))
_PP = st.fixed_dictionaries(
    {"a": st.integers(0, 3) | _SCALARS, "b": st.integers(0, 3) | _SCALARS,
     "c": st.integers(0, 3) | _SCALARS, "pi": _GRID | _JSON})


def _good_payloads():
    """True maximal matrices and their plane partitions, built on the first
    draw, not at import: a fault in the row search then fails the tests
    that draw them, not the collection of this file."""
    maximal = [M for (m, n, k) in [(3, 4, 3), (4, 4, 2), (4, 3, 3)]
               for M in iamkit.oracle.enumerate_maximal_iams(m, n, k)]
    return st.sampled_from(
        [M.to_json_dict() for M in maximal]
        + [iamkit.bijection.matrix_to_pp(M, 3).to_json_dict()
           for M in maximal if min(M.m, M.n) == 3])


_GOOD = st.deferred(_good_payloads)


@settings(max_examples=200, deadline=None)
@given(payload=_JSON | _MATRIX | _PP | _GOOD,
       to=st.sampled_from(["pp", "paths", "matrix"]),
       k=st.integers(-1, 4) | st.none())
def test_biject_never_raises_on_any_json(payload, to, k):
    # whatever the JSON on stdin, biject ends in a documented exit code
    # with at most one line on stderr.  Box sides and entries are kept
    # small: a large c asks for a (a+c) x (b+c) matrix.
    argv = ["biject", "--to", to] + ([] if k is None else ["--k", str(k)])
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(payload))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    if rc == 0:
        assert len(out.getvalue().splitlines()) == 1 and not err.getvalue()


def test_enumerate_shape(capsys):
    rc, out = run(capsys, ["enumerate", "--lambda", "3,3,3", "--k", "3"])
    assert rc == 0
    assert len(out.strip().split("\n")) == 3


def test_biject_to_pp(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(M5_JSON))
    rc, out = run(capsys, ["biject", "--to", "pp", "--k", "3"])
    assert rc == 0
    assert out == '{"a":1,"b":2,"c":2,"pi":[[2,1]]}\n'


def test_biject_to_matrix_derives_k(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO('{"a":1,"b":2,"c":2,"pi":[[2,1]]}'))
    rc, out = run(capsys, ["biject", "--to", "matrix"])
    assert rc == 0
    assert json.loads(out) == json.loads(M5_JSON)


def test_biject_to_matrix_checks_the_board_against_the_budget(capsys,
                                                             monkeypatch):
    # a 33-byte plane partition asks for a 401 x 401 matrix: refused
    # before it is decoded
    def decode(pp, m, n, k):
        raise AssertionError("decoded a board over the budget")

    monkeypatch.setattr(iamkit.bijection, "pp_to_matrix", decode)
    monkeypatch.setattr("sys.stdin",
                        io.StringIO('{"a":1,"b":1,"c":400,"pi":[[0]]}'))
    rc = main(["biject", "--to", "matrix"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == ("budget exceeded: board has 160801 cells, "
                            "budget allows 64\n")


def test_biject_to_matrix_decodes_within_the_budget(capsys, monkeypatch):
    pp = '{"a":1,"b":1,"c":10,"pi":[[3]]}'   # an 11 x 11 board
    monkeypatch.setattr("sys.stdin", io.StringIO(pp))
    assert main(["biject", "--to", "matrix", "--budget", "120"]) == 3
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(pp))
    rc, out = run(capsys, ["biject", "--to", "matrix", "--budget", "121"])
    assert rc == 0
    M = iamkit.core.BinaryMatrix.from_json_dict(json.loads(out))
    assert (M.m, M.n) == (11, 11)
    assert iamkit.bijection.matrix_to_pp(M, 11).to_json_dict() == \
        json.loads(pp)


def test_biject_to_paths_round_trip(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(M5_JSON))
    rc, out = run(capsys, ["biject", "--to", "paths", "--k", "3"])
    assert rc == 0
    fam = json.loads(out)
    assert fam == [[[1, 0], [2, 0], [3, 0], [3, 1]],
                   [[0, 1], [1, 1], [1, 2], [2, 2]]]


def test_biject_detects_broken_round_trip(capsys, monkeypatch):
    # force the inverse to return the wrong matrix; the CLI must notice
    import iamkit.core
    wrong = iamkit.core.BinaryMatrix([[1, 1, 1, 1]] * 3)

    monkeypatch.setattr(iamkit.bijection, "pp_to_matrix",
                        lambda pp, m, n, k: wrong)
    monkeypatch.setattr("sys.stdin", io.StringIO(M5_JSON))
    rc, out = run(capsys, ["biject", "--to", "pp", "--k", "3"])
    assert rc == 2
    assert out == "round trip failed\n"


def test_genfunc_t1(capsys):
    rc, out = run(capsys, ["genfunc", "--m", "3", "--n", "4", "--k", "3",
                           "--t1"])
    assert rc == 0
    assert out == "1,1,2,1,1\n"


def test_genfunc_points(capsys):
    rc, out = run(capsys, ["genfunc", "--m", "2", "--n", "2", "--k", "2",
                           "--points", "3"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert all(line.endswith("OK") for line in lines[:3])
    assert lines[3] == "genfunc identity: 3/3 points agree"


@pytest.mark.parametrize("points", ["0", "-2"])
def test_genfunc_refuses_fewer_than_one_point(capsys, points):
    rc = main(["genfunc", "--m", "3", "--n", "4", "--k", "3",
               "--points", points])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("invalid input: --points must be at least 1, "
                            "got %s\n" % points)


def test_genfunc_honours_budget(capsys):
    # 9 x 8, k = 8: 72 cells over the default budget, but only 36 maximal
    # matrices, so a larger budget lets it run
    rc, out = run(capsys, ["genfunc", "--m", "9", "--n", "8", "--k", "8",
                           "--t1", "--budget", "100"])
    assert rc == 0
    assert out == ",".join(
        map(str, iamkit.genfunc.pp_volume_gf(2, 1, 7).to_list())) + "\n"
    for argv in (["--m", "9", "--n", "8", "--k", "8", "--t1"],
                 ["--m", "3", "--n", "3", "--k", "2", "--t1",
                  "--budget", "4"],
                 ["--m", "3", "--n", "3", "--k", "2", "--points", "2",
                  "--budget", "4"]):
        rc = main(["genfunc"] + argv)
        captured = capsys.readouterr()
        assert rc == 3, argv
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "budget exceeded" in captured.err


def test_genfunc_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(iamkit.genfunc, "gf_rhs",
                        lambda m, n, k, q, t: 0)
    rc, out = run(capsys, ["genfunc", "--m", "2", "--n", "2", "--k", "2",
                           "--points", "2"])
    assert rc == 2
    assert "0/2 points agree" in out


def test_count_disagreement_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(iamkit.formulas, "count_iams",
                        lambda m, n, k: 999)
    rc, out = run(capsys, ["count", "--m", "3", "--n", "4", "--k", "3",
                           "--with-oracle"])
    assert rc == 2
    assert out == "999 6 DISAGREE\n"


def test_selftest_quick(capsys):
    rc, out = run(capsys, ["selftest", "--quick"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "selftest: 0 failure(s)"
    assert sum(1 for line in lines if line.startswith("PASS ")) == 5


def test_usage_errors_exit_1(capsys):
    assert main(["count"]) == 1                      # missing dimensions
    capsys.readouterr()
    assert main(["count", "--m", "3", "--n", "3", "--k", "9"]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["biject", "--to", "pp"]) == 1       # missing --k
    capsys.readouterr()


@pytest.mark.parametrize("argv,refused", [
    (["count", "--m", "4", "--n", "4", "--k", "3", "--mu", "1"],
     "--mu is not read without --lambda"),
    (["count", "--m", "3", "--n", "3", "--k", "2", "--t", "1", "--mu", "1"],
     "--mu is not read without --lambda"),
    (["count", "--class", "HS", "--n", "5", "--k", "3", "--t", "1"],
     "--t is not read with --class"),
    (["count", "--class", "DS", "--n", "4", "--k", "2", "--lambda", "4,4"],
     "--lambda is not read with --class"),
    (["count", "--m", "3", "--n", "3", "--k", "3", "--lambda", "3,3"],
     "--m is not read with --lambda"),
    (["count", "--n", "3", "--k", "2", "--lambda", "3,3", "--with-oracle"],
     "--n is not read with --lambda"),
    (["count", "--k", "2", "--t", "1", "--lambda", "3,3"],
     "--t is not read with --lambda"),
    (["enumerate", "--m", "9", "--n", "9", "--k", "2", "--lambda", "2,2"],
     "--m is not read with --lambda"),
    (["enumerate", "--m", "2", "--n", "2", "--k", "2", "--mu", "1"],
     "--mu is not read without --lambda"),
    (["count", "--m", "4", "--n", "4", "--k", "3", "--budget", "1"],
     "--budget is not read without --with-oracle"),
    (["count", "--k", "3", "--lambda", "4,4,4", "--budget", "1"],
     "--budget is not read without --with-oracle"),
    (["genfunc", "--m", "3", "--n", "4", "--k", "3", "--t1", "--points", "0"],
     "--points is not read with --t1"),
    (["genfunc", "--m", "3", "--n", "4", "--k", "3", "--t1", "--seed", "5"],
     "--seed is not read with --t1"),
    (["biject", "--to", "pp", "--k", "3", "--budget", "1"],
     "--budget is not read with --to pp"),
    (["biject", "--to", "paths", "--k", "3", "--budget", "1"],
     "--budget is not read with --to paths"),
])
def test_options_the_command_would_not_read_are_refused(capsys, argv,
                                                        refused):
    # each of these once printed the answer to another question, the
    # option dropped without a word
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "invalid input: %s\n" % refused)


def test_a_shape_with_no_rows_exits_1(capsys):
    # the listing once raised an IndexError on it, a traceback at the CLI
    assert main(["enumerate", "--lambda", "", "--k", "2"]) == 1
    assert capsys.readouterr() == (
        "", "invalid input: the shape has no rows\n")


def test_a_zero_part_adds_no_row(capsys):
    # one diagram is one shape: 4,4,0 is 4,4, and a lambda of zero parts
    # has no rows, as an empty one has none
    assert run(capsys, ["count", "--lambda", "4,4,0", "--k", "2"]) == \
        run(capsys, ["count", "--lambda", "4,4", "--k", "2"]) == (0, "4\n")
    assert run(capsys, ["enumerate", "--lambda", "3,0", "--mu", "1",
                        "--k", "2"]) == \
        (0, '{"lambda":[3],"mu":[1],"rows":[[1,1]]}\n')
    for lam in ("0", "0,0"):
        assert main(["enumerate", "--lambda", lam, "--k", "2"]) == 1
        assert capsys.readouterr() == (
            "", "invalid input: the shape has no rows\n")
        assert main(["count", "--lambda", lam, "--k", "2"]) == 1
        assert capsys.readouterr() == (
            "", "invalid input: shape fails the staircase admissibility "
                "conditions\n")


def test_argparse_errors_end_in_one_line(capsys):
    # argparse's own refusals print no usage text, only the error
    assert main(["count", "--m", "x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid input: argument --m: invalid int "
                            "value: 'x'\n")
    # each subcommand takes only the options it reads
    unread = (["count", "--seed", "1"], ["enumerate", "--seed", "1"],
              ["biject", "--to", "pp", "--seed", "1"],
              ["selftest", "--seed", "1"],
              ["biject", "--to", "pp", "--format", "json"],
              ["biject", "--to", "pp", "--m", "3"],
              ["biject", "--to", "pp", "--n", "4"],
              ["selftest", "--budget", "64"])
    for argv in unread:
        assert main(argv) == 1, argv
        assert capsys.readouterr() == (
            "", "invalid input: unrecognized arguments: %s\n"
            % " ".join(argv[-2:]))
    for argv in ([], ["no-such-command"], ["count", "--class", "XS"],
                 ["biject"], ["count", "--m", "3", "--stray"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, argv
        assert captured.err.startswith("invalid input: "), argv
    # --help still prints its text and succeeds
    assert main(["count", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: iamkit count")
    assert captured.err == ""


_COUNT_VALUES = (st.integers(-1, 6).map(str)
                 | st.sampled_from(["", "x", "2.5", "3,2", "4,4,2", "3,3,3",
                                    "2,1", "1", "U", "DS", "HTS", "TS", "XS",
                                    "text", "json", "csv"]))
# near misses: most options get a value of their own kind, and most lists
# start from a valid board, so that they get past the parser and reach the
# counts; about half end in a stray value
_PARTS = st.sampled_from(["", "1", "2,1", "3,2", "3,3,2", "4,4,2", "3,3,3"])
_COUNT_OPTIONS = {
    "--m": st.integers(1, 6).map(str), "--n": st.integers(1, 6).map(str),
    "--k": st.integers(2, 4).map(str), "--t": st.integers(0, 3).map(str),
    "--lambda": _PARTS, "--mu": _PARTS,
    "--class": st.sampled_from(iamkit.formulas.SYMMETRY_TAGS),
    "--format": st.sampled_from(["text", "json", "csv"]),
    "--budget": st.integers(0, 64).map(str),
}
_COUNT_OPTION = st.sampled_from(sorted(_COUNT_OPTIONS)).flatmap(
    lambda opt: (_COUNT_OPTIONS[opt] | _COUNT_VALUES).map(
        lambda v: [opt, v]))
_COUNT_ARGS = st.tuples(
    st.tuples(st.integers(2, 6), st.integers(2, 6)).flatmap(
        lambda mn: st.integers(2, min(mn)).map(
            lambda k: ["--m", str(mn[0]), "--n", str(mn[1]), "--k", str(k)]))
    | st.just([]),
    st.lists(_COUNT_OPTION | st.just(["--with-oracle"]), max_size=3),
    st.just(()) | _COUNT_VALUES.map(lambda v: (v,)),
).map(lambda p: p[0] + [t for part in p[1] for t in part] + list(p[2]))


@settings(max_examples=200, deadline=None)
@given(args=_COUNT_ARGS)
def test_count_never_raises_on_any_arguments(args):
    # whatever the argument list, count ends in a documented exit code with
    # at most one line on stderr and no traceback.  Sides and parts are kept
    # small, so that --with-oracle stays quick.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["count"] + args)
    assert rc in (0, 1, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        assert out.getvalue() and not err.getvalue()


def test_budget_exit_3(capsys):
    assert main(["enumerate", "--m", "9", "--n", "9", "--k", "3"]) == 3
    capsys.readouterr()
    # raising the budget clears the refusal (keep the stream tiny)
    rc = main(["enumerate", "--m", "9", "--n", "9", "--k", "3",
               "--budget", "81", "--max-results", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == 2


def test_count_with_oracle_honours_budget(capsys):
    for extra in ([], ["--class", "DS"]):
        rc = main(["count", "--m", "3", "--n", "3", "--k", "2",
                   "--with-oracle", "--budget", "4"] + extra)
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "budget exceeded" in captured.err
        assert "Traceback" not in captured.err
    # the default budget refuses 9 x 9; raising it lets the count run
    assert main(["count", "--m", "9", "--n", "9", "--k", "5",
                 "--with-oracle"]) == 3
    capsys.readouterr()
    rc, out = run(capsys, ["count", "--m", "9", "--n", "9", "--k", "5",
                           "--with-oracle", "--budget", "81"])
    assert rc == 0
    assert out == "16818516 16818516 AGREE\n"


@pytest.mark.parametrize("argv", [
    ["count", "--m", "2", "--n", "2", "--k", "2", "--with-oracle"],
    ["count", "--class", "HTS", "--n", "2", "--k", "2", "--with-oracle"],
    ["count", "--lambda", "4,4,4", "--k", "3", "--with-oracle"],
    ["enumerate", "--m", "2", "--n", "2", "--k", "2"],
    ["genfunc", "--m", "2", "--n", "2", "--k", "2", "--t1"],
])
def test_a_negative_budget_is_invalid_input(capsys, argv):
    # a budget below 0 is refused as input, not reported as a board over
    # it; a budget of 0 is a budget, which refuses every board
    rc = main(argv + ["--budget", "-1"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err.startswith("invalid input: ")
    assert len(captured.err.splitlines()) == 1
    rc = main(argv + ["--budget", "0"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert captured.err.startswith("budget exceeded: ")


def test_out_file(capsys, tmp_path):
    target = tmp_path / "result.txt"
    rc = main(["count", "--m", "9", "--n", "7", "--k", "5",
               "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "116424\n"


def test_out_to_missing_directory_exits_1(capsys, tmp_path):
    rc = main(["count", "--m", "3", "--n", "3", "--k", "2",
               "--out", str(tmp_path / "missing" / "x")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_enumerate_rejects_csv(capsys):
    # enumerate always writes JSON lines and takes no --format at all
    for fmt in ("csv", "json", "text"):
        rc = main(["enumerate", "--m", "2", "--n", "2", "--k", "2",
                   "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == ("invalid input: unrecognized arguments: "
                                "--format %s\n" % fmt)
    rc, out = run(capsys, ["enumerate", "--m", "2", "--n", "2", "--k", "2"])
    assert rc == 0
    assert out == ('{"m":2,"n":2,"rows":[[0,1],[1,1]]}\n'
                   '{"m":2,"n":2,"rows":[[1,1],[1,0]]}\n')


@pytest.mark.parametrize("argv", [
    ["genfunc", "--m", "2", "--n", "2", "--k", "2", "--t1"],
    ["selftest", "--quick"],
])
def test_text_only_subcommands_reject_json(capsys, argv):
    rc = main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("invalid input: unrecognized arguments: "
                            "--format json\n")


def test_verification_error_exits_2(capsys, monkeypatch):
    # the forward sum and the product expansion of the volume polynomial
    # disagree: a fault of iamkit, reported as one line
    monkeypatch.setattr(iamkit.genfunc, "_row_shares",
                        lambda m, n, k, budget=None: iter(()))
    rc = main(["genfunc", "--m", "2", "--n", "2", "--k", "2", "--t1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("verification failed: stream and product "
                            "expansions disagree\n")


# ---------------------------------------------------------------------------
# the installed command line, as a subprocess

SRC = str(Path(__file__).resolve().parents[1] / "src")


def iamkit_process(args, optimize=False, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    flags = ["-O"] if optimize else []
    return subprocess.Popen([sys.executable] + flags + ["-m", "iamkit.cli"]
                            + args, env=env, **kwargs)


@pytest.mark.parametrize("command", [
    "count --m 1200 --n 2 --k 2 --with-oracle --budget 2400",
    "enumerate --m 1200 --n 2 --k 2 --budget 2400 --max-results 1",
])
def test_boards_taller_than_the_recursion_limit(command):
    # a board of 1,200 rows used to end in a RecursionError traceback
    proc = iamkit_process(command.split(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    if command.startswith("count"):
        assert out == b"1200 1200 AGREE\n"
    else:
        line, = out.decode().splitlines()
        assert json.loads(line)["rows"] == [[0, 1]] * 1199 + [[1, 1]]


def test_enumerate_into_a_closed_pipe_ends_quietly():
    # 1,764 lines, far more than a pipe buffer holds, so the writer is
    # still writing when the reader goes away
    proc = iamkit_process(["enumerate", "--m", "6", "--n", "6", "--k", "3"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first.startswith(b'{"m":6,"n":6,')
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses every write")
@pytest.mark.parametrize("args", [
    ["count", "--m", "3", "--n", "3", "--k", "2"],
    ["selftest", "--quick", "--out", "/dev/full"],
])
def test_an_output_that_cannot_be_written_exits_1_in_one_line(args):
    # a write to a full device used to end in an OSError traceback, on
    # stdout from the flush and on --out from closing the file
    with open("/dev/full", "wb") as full:
        proc = iamkit_process(args, stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert len(err.splitlines()) == 1
    assert err.startswith(b"i/o error: ") and b"Traceback" not in err


@pytest.mark.parametrize("optimize", [False, True])
def test_biject_non_maximal_exits_1_also_under_python_O(optimize):
    # validation must not rest on assert, which python -O strips
    proc = iamkit_process(["biject", "--to", "pp", "--k", "2"], optimize,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    out, err = proc.communicate(b'{"m":2,"n":2,"rows":[[1,0],[0,1]]}',
                                timeout=60)
    assert proc.returncode == 1
    assert out == b""
    assert len(err.splitlines()) == 1
    assert b"maximal" in err and b"Traceback" not in err


@pytest.mark.parametrize("optimize", [False, True])
def test_biject_rejects_a_float_plane_partition_also_under_python_O(optimize):
    proc = iamkit_process(["biject", "--to", "matrix"], optimize,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    out, err = proc.communicate(b'{"a":1,"b":1,"c":1,"pi":[[1.5]]}',
                                timeout=60)
    assert proc.returncode == 1
    assert out == b""
    assert err == b"invalid input: entries must be integers, got 1.5\n"


# Run with and without -O; it cannot use assert, which -O strips.
EXACTNESS_SCRIPT = """
import sys
from fractions import Fraction
import iamkit.genfunc
from iamkit.cli import main
from iamkit.core import VerificationError
from iamkit.formulas import _int_of
from iamkit.genfunc import QPoly
try:
    QPoly([1, 1, 1]).exact_div(QPoly([1, -1]))
    sys.exit("exact_div returned a quotient for a division with remainder")
except ValueError:
    pass
try:
    _int_of(Fraction(1, 2))
    sys.exit("_int_of returned an integer for 1/2")
except VerificationError:
    pass
iamkit.genfunc._row_shares = lambda m, n, k, budget=None: iter(())
sys.exit(main(["genfunc", "--m", "2", "--n", "2", "--k", "2", "--t1"]))
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_exactness_checks_raise_also_under_python_O(optimize):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable] + flags + ["-c", EXACTNESS_SCRIPT],
                          env=env, capture_output=True, timeout=60)
    assert proc.stdout == b""
    assert proc.stderr == (b"verification failed: stream and product "
                           b"expansions disagree\n")
    assert proc.returncode == 2


def test_package_holds_no_assert_statement():
    # python -O strips assert, so no check in iamkit may rest on one
    found = []
    for path in sorted(Path(SRC, "iamkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def _pinned_command_lines():
    """(argv, stdin) of each command line whose bytes are pinned: every
    subcommand and its refusals, with no line whose output argparse
    writes, since its wording differs between Python versions."""
    lines = []
    for m, n, k in [(2, 2, 2), (3, 3, 2), (3, 4, 3), (4, 3, 2), (4, 4, 3),
                    (5, 5, 3), (4, 6, 4), (6, 5, 3)]:
        board = ["--m", str(m), "--n", str(n), "--k", str(k)]
        for fmt in ("text", "json", "csv"):
            lines.append((["count"] + board + ["--format", fmt], ""))
            lines.append((["count"] + board + ["--format", fmt,
                                               "--with-oracle"], ""))
        for tag in iamkit.formulas.SYMMETRY_TAGS:
            lines.append((["count", "--class", tag] + board
                          + ["--with-oracle"], ""))
        for t in (m - k, m - k + 1):  # refused when m > n
            lines.append((["count"] + board + ["--t", str(t),
                                               "--with-oracle"], ""))
        lines.append((["enumerate"] + board + ["--max-results", "5"], ""))
        lines.append((["genfunc"] + board + ["--t1"], ""))
        lines.append((["genfunc"] + board + ["--points", "2"], ""))
    # the last three shapes fail the determinant's conditions, so count
    # refuses them, but they are listed
    for lam, mu, k in [("3,3,2", "", 2), ("4,4,3", "2", 2), ("4,4,2", "1", 2),
                       ("4,4,4,3", "1,1", 2), ("5,5,5,4", "2,1", 2),
                       ("4,4,4", "", 3), ("4,4,4,3", "1", 3),
                       ("5,5,5,3", "2", 3), ("4,3,2,1", "", 2),
                       ("3,0", "", 2), ("2,2", "2", 2)]:
        shape = ["--lambda", lam] + (["--mu", mu] if mu else []) + [
            "--k", str(k)]
        for fmt in ("text", "json", "csv"):
            lines.append((["count"] + shape + ["--format", fmt,
                                               "--with-oracle"], ""))
        lines.append((["count"] + shape, ""))
        lines.append((["enumerate"] + shape + ["--max-results", "9"], ""))
    for M in iamkit.oracle.enumerate_maximal_iams(3, 4, 3):
        matrix = json.dumps(M.to_json_dict())
        lines.append((["biject", "--to", "pp", "--k", "3"], matrix))
        lines.append((["biject", "--to", "paths", "--k", "3"], matrix))
        pp = iamkit.bijection.matrix_to_pp(M, 3).to_json_dict()
        lines.append((["biject", "--to", "matrix"], json.dumps(pp)))
        lines.append((["biject", "--to", "matrix", "--k", "2"],
                      json.dumps(pp)))
    for payload in ['{"m":2,"n":2,"rows":[[1,0],[0,1]]}',
                    '{"m":2,"n":3,"rows":[[1,1],[1,0]]}',
                    '{"m":2,"n":2,"rows":[[1,2],[1,0]]}',
                    '{"m":2,"n":2}', '{"a":1,"b":1,"c":1,"rows":[[2]]}']:
        for to in ("pp", "paths", "matrix"):
            lines.append((["biject", "--to", to, "--k", "2"], payload))
    lines.append((["selftest", "--quick"], ""))
    for argv in (["count", "--m", "3"], ["count", "--m", "1", "--n", "3",
                                         "--k", "2"],
                 ["count", "--m", "3", "--n", "3", "--k", "2", "--budget",
                  "9"],
                 ["count", "--m", "3", "--n", "3", "--k", "2", "--mu", "1"],
                 ["count", "--class", "DS", "--n", "3", "--k", "2", "--t",
                  "1"],
                 ["count", "--class", "HS", "--m", "3"],
                 ["count", "--lambda", "3,a", "--k", "2"],
                 ["count", "--lambda", "2,3", "--k", "2", "--with-oracle"],
                 ["count", "--lambda", "3", "--m", "3", "--k", "2"],
                 ["count", "--m", "9", "--n", "9", "--k", "5",
                  "--with-oracle"],
                 ["count", "--m", "3", "--n", "3", "--k", "2", "--t", "5"],
                 ["enumerate", "--m", "3", "--n", "3"],
                 ["enumerate", "--m", "3", "--k", "2"],
                 ["enumerate", "--m", "3", "--n", "3", "--k", "2", "--mu",
                  "1"],
                 ["enumerate", "--lambda", "3,3", "--m", "3", "--k", "2"],
                 ["enumerate", "--m", "3", "--n", "3", "--k", "2",
                  "--max-results", "-1"],
                 ["enumerate", "--m", "9", "--n", "9", "--k", "3"],
                 ["genfunc", "--m", "3", "--n", "3"],
                 ["genfunc", "--m", "3", "--n", "3", "--k", "2", "--points",
                  "0"],
                 ["genfunc", "--m", "3", "--n", "3", "--k", "2", "--t1",
                  "--points", "3"],
                 ["genfunc", "--m", "3", "--n", "3", "--k", "2", "--t1",
                  "--seed", "3"],
                 ["genfunc", "--m", "9", "--n", "9", "--k", "3", "--t1"],
                 ["biject", "--to", "pp"],
                 ["biject", "--to", "paths", "--k", "2", "--budget", "4"]):
        lines.append((argv, ""))
    return lines


CLI_DIGEST = \
    "7ab9bc2389219e1d8ec6bb18d5887ab158477ef638ec09f54106e7b8e47f8416"


def test_cli_bytes_are_pinned():
    # the exit code and every byte of stdout and stderr of each line
    # above, as one sha256, frozen from the CLI before the row search took
    # row spans: a change to any count, listing, payload or message of the
    # CLI moves it
    digest = hashlib.sha256()
    lines = _pinned_command_lines()
    assert len(lines) == 287
    for argv, stdin in lines:
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(stdin)), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = main(argv)
        digest.update(repr((argv, stdin, rc, out.getvalue(),
                            err.getvalue())).encode())
    assert digest.hexdigest() == CLI_DIGEST
