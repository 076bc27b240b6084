"""Command-line interface.

Subcommands: count, enumerate, biject, genfunc, selftest.  Exit codes:
0 success / agreement, 1 usage, invalid parameters or an output that
cannot be written (each with one line on stderr, never a traceback),
2 verification failure or disagreement, 3 budget exceeded.  A reader
that closes the output pipe early ends the run quietly.  All output is
deterministic for fixed arguments (fixed default seed, sorted iteration
everywhere).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Only what every command needs is imported here; each command imports the
# modules it runs, so `count` by formula never loads the searches.
from . import formulas
from .core import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    BinaryMatrix,
    BudgetExceeded,
    EnumerationBudget,
    SkewShape,
    VerificationError,
    check_budget,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3


def _parse_parts(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _emit(out, text):
    out.write(text + "\n")


def _json_compact(obj):
    return json.dumps(obj, separators=(",", ":"))


# str(), "%d" and json refuse an int longer than the interpreter's limit
# (sys.get_int_max_str_digits(): 4300 digits by default, 640 at the
# least), and a count can be longer; ints under _SHORT are printed whole
_SHORT = 10 ** 600


def _digits(n):
    """The decimal digits of the count n >= 0, however many, without
    touching the interpreter-wide limit: a long n is cut at a power of ten
    near half its length, and each half printed the same way."""
    if n < _SHORT:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the digits, never more
    hi, lo = divmod(n, 10 ** half)
    return _digits(hi) + _digits(lo).zfill(half)


# the options that some branch of a command does not read
_DESTS = {"--m": "m", "--n": "n", "--t": "t", "--lambda": "lam", "--mu": "mu",
          "--budget": "budget", "--points": "points", "--seed": "seed"}


def _budget(args, max_results=None):
    """The budget of --budget, the default cap when it is not given."""
    cells = DEFAULT_BUDGET.max_cells if args.budget is None else args.budget
    return EnumerationBudget(max_cells=cells, max_results=max_results)


def _refuse(args, why, *options):
    """Refuse the first of these options that was given: the branch that
    runs (`why`) does not read it, so its answer would not be the one
    asked for."""
    for opt in options:
        if getattr(args, _DESTS[opt]) is not None:
            raise ValueError("%s is not read %s" % (opt, why))


# ---------------------------------------------------------------------------
# count


def _cmd_count(args, out):
    fmt = args.format
    if not args.with_oracle:
        _refuse(args, "without --with-oracle", "--budget")
    budget = _budget(args)
    oracle_val = None
    if args.lam is None:
        _refuse(args, "without --lambda", "--mu")
    if args.cls is not None:
        _refuse(args, "with --class", "--t", "--lambda")
        m = args.m if args.m is not None else args.n
        n = args.n if args.n is not None else args.m
        if m is None or n is None or args.k is None:
            raise ValueError("--class needs --m/--n and --k")
        ident = "class=%s,m=%d,n=%d,k=%d" % (args.cls, m, n, k := args.k)
        formula = formulas.count_symmetry(args.cls, m, n, k)
        if args.with_oracle:
            from . import symmetry
            oracle_val = symmetry.brute_count_class(args.cls, m, n, k, budget)
    elif args.lam is not None:
        _refuse(args, "with --lambda", "--m", "--n", "--t")
        if args.k is None:
            raise ValueError("--lambda needs --k")
        from . import skew
        shape = SkewShape(_parse_parts(args.lam),
                          _parse_parts(args.mu) if args.mu else ())
        ident = "lambda=%s,mu=%s,k=%d" % (
            ",".join(map(str, shape.lam.parts)),
            ",".join(map(str, shape.mu.parts)), args.k)
        formula = skew.count_skew_fillings(shape, args.k)
        if args.with_oracle:
            from . import oracle
            oracle_val = oracle.oracle_count_shape(shape, args.k, budget)
    elif args.t is not None:
        if None in (args.m, args.n, args.k):
            raise ValueError("--t needs --m --n --k")
        from . import skew
        m, n, k, t = args.m, args.n, args.k, args.t
        ident = "m=%d,n=%d,k=%d,t=%d" % (m, n, k, t)
        formula = skew.count_truncated_rect(m, n, k, t)
        if args.with_oracle:
            from . import oracle
            oracle_val = oracle.oracle_count_shape(
                skew.TruncatedRect(m, n, k, t).shape(), k, budget)
    else:
        if None in (args.m, args.n, args.k):
            raise ValueError("count needs --m --n --k")
        m, n, k = args.m, args.n, args.k
        ident = "m=%d,n=%d,k=%d" % (m, n, k)
        formula = formulas.count_iams(m, n, k)
        if args.with_oracle:
            from . import oracle
            oracle_val = oracle.oracle_count(m, n, k, budget)

    verdict = None
    if oracle_val is not None:
        verdict = "AGREE" if formula == oracle_val else "DISAGREE"

    if fmt == "json":
        # built by hand: json.dumps would refuse a count past the digit limit
        fields = ['"id":%s' % json.dumps(ident),
                  '"formula":%s' % _digits(formula)]
        if oracle_val is not None:
            fields.append('"oracle":%s' % _digits(oracle_val))
            fields.append('"verdict":"%s"' % verdict)
        _emit(out, "{%s}" % ",".join(fields))
    elif fmt == "csv":
        _emit(out, "id,formula,oracle,verdict")
        _emit(out, "%s,%s,%s,%s" % (
            ident.replace(",", ";"), _digits(formula),
            "" if oracle_val is None else _digits(oracle_val),
            "" if verdict is None else verdict))
    else:
        if oracle_val is None:
            _emit(out, _digits(formula))
        else:
            _emit(out, "%s %s %s" % (_digits(formula), _digits(oracle_val),
                                     verdict))
    return EXIT_VERIFY if verdict == "DISAGREE" else EXIT_OK


# ---------------------------------------------------------------------------
# enumerate


def _cmd_enumerate(args, out):
    if args.k is None:
        raise ValueError("enumerate needs --k")
    from . import oracle
    budget = _budget(args, args.max_results)
    if args.lam is not None:
        _refuse(args, "with --lambda", "--m", "--n")
        shape = SkewShape(_parse_parts(args.lam),
                          _parse_parts(args.mu) if args.mu else ())
        stream = oracle.enumerate_maximal_fillings(shape, args.k, budget)
        for F in stream:
            _emit(out, _json_compact(F.to_json_dict()))
    else:
        _refuse(args, "without --lambda", "--mu")
        if args.m is None or args.n is None:
            raise ValueError("enumerate needs --m --n or --lambda")
        stream = oracle.enumerate_maximal_iams(args.m, args.n, args.k, budget)
        for M in stream:
            _emit(out, _json_compact(M.to_json_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# biject


def _cmd_biject(args, out):
    if args.to != "matrix":
        if args.k is None:
            raise ValueError("biject needs --k")
        _refuse(args, "with --to %s" % args.to, "--budget")
    from . import bijection
    payload = json.load(sys.stdin)
    if args.to == "matrix":
        pp = bijection.PlanePartition.from_json_dict(payload)
        k = pp.c + 1
        if args.k is not None and args.k != k:
            raise ValueError("--k disagrees with the array box")
        m, n = pp.a + pp.c, pp.b + pp.c
        # a few bytes of box sides can ask for a huge matrix
        check_budget(m * n, _budget(args))
        M = bijection.pp_to_matrix(pp, m, n, k)
        ok, doc = bijection.matrix_to_pp(M, k) == pp, M.to_json_dict()
    else:
        M = BinaryMatrix.from_json_dict(payload)
        there, back = ((bijection.matrix_to_pp, bijection.pp_to_matrix)
                       if args.to == "pp" else
                       (bijection.matrix_to_paths, bijection.paths_to_matrix))
        obj = there(M, args.k)
        ok = back(obj, M.m, M.n, args.k) == M
        doc = obj.to_json_dict() if args.to == "pp" else obj.to_json()
    if not ok:
        _emit(out, "round trip failed")
        return EXIT_VERIFY
    _emit(out, _json_compact(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# genfunc


def _cmd_genfunc(args, out):
    if None in (args.m, args.n, args.k):
        raise ValueError("genfunc needs --m --n --k")
    from . import genfunc
    m, n, k = args.m, args.n, args.k
    budget = _budget(args)
    if args.t1:
        _refuse(args, "with --t1", "--points", "--seed")
        poly = genfunc.volume_gf(m, n, k, budget)
        _emit(out, ",".join(str(c) for c in poly.to_list()))
        return EXIT_OK
    points = 20 if args.points is None else args.points
    if points < 1:
        raise ValueError("--points must be at least 1, got %d" % points)
    pts = genfunc.seeded_points(
        points, seed=DEFAULT_SEED if args.seed is None else args.seed,
        span=m + n + k)
    bad = 0
    for (q, t) in pts:
        lhs = genfunc.gf_lhs(m, n, k, q, t, budget)
        rhs = genfunc.gf_rhs(m, n, k, q, t)
        status = "OK" if lhs == rhs else "MISMATCH"
        if lhs != rhs:
            bad += 1
        _emit(out, "q=%s t=%s lhs=%s rhs=%s %s" % (q, t, lhs, rhs, status))
    _emit(out, "genfunc identity: %d/%d points agree" %
          (len(pts) - bad, len(pts)))
    return EXIT_VERIFY if bad else EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks(quick):
    """(name, callable) pairs, each entry marked whether --quick runs it;
    each callable returns a bool."""
    from . import bijection, genfunc, oracle, skew

    def six_matrices():
        stream = list(oracle.enumerate_maximal_iams(3, 4, 3))
        if len(stream) != 6:
            return False
        want = {
            ((3, 3), (3, 4)): (0, 0, (0, 0)),
            ((2, 2), (3, 4)): (1, 1, (1, 0)),
            ((2, 2), (2, 3)): (2, 1, (1, 0)),
            ((1, 1), (3, 4)): (2, 2, (1, 1)),
            ((1, 1), (2, 3)): (3, 2, (1, 1)),
            ((1, 1), (1, 2)): (4, 2, (1, 1)),
        }
        for M in stream:
            key = tuple(M.zero_cells())
            got = (genfunc.stat_v(M), genfunc.stat_vd(M), genfunc.stat_d(M, 3))
            if want.get(key) != got:
                return False
        return True

    def counts():
        sizes = [(3, 4, 3), (4, 4, 2), (4, 4, 3), (4, 4, 4), (5, 5, 3)]
        return all(formulas.count_iams(m, n, k) == oracle.oracle_count(m, n, k)
                   for (m, n, k) in sizes)

    def roundtrips():
        for M in oracle.enumerate_maximal_iams(4, 4, 3):
            pp = bijection.matrix_to_pp(M, 3)
            if bijection.pp_to_matrix(pp, 4, 4, 3) != M:
                return False
            fam = bijection.matrix_to_paths(M, 3)
            if bijection.paths_to_matrix(fam, 4, 4, 3) != M:
                return False
        return True

    def zigzag():
        return all(bijection.count_zigzag_decompositions(M, 3) == 2
                   for M in oracle.enumerate_maximal_iams(3, 4, 3))

    def gfid():
        pts = genfunc.seeded_points(5)
        return all(genfunc.gf_lhs(3, 4, 3, q, t) == genfunc.gf_rhs(3, 4, 3, q, t)
                   for (q, t) in pts)

    def volume():
        return genfunc.volume_gf(3, 4, 3).to_list() == [1, 1, 2, 1, 1]

    def truncated():
        for (m, n, k, t) in [(2, 2, 2, 0), (2, 2, 2, 1), (3, 3, 2, 1),
                             (3, 4, 3, 1)]:
            f = skew.count_truncated_rect(m, n, k, t)
            r = skew.reflection_det(m, n, k, t)
            starts, ends = bijection.path_endpoints(m, n, k)
            l = skew.lgv_count(starts, ends, skew.truncated_region(m, n, t))
            o = oracle.oracle_count_shape(skew.TruncatedRect(m, n, k, t).shape(), k)
            if not (f == r == l == o):
                return False
        return True

    def skewdet():
        sh = SkewShape((4, 4, 4))
        if skew.count_skew_fillings(sh, 3) != 6:
            return False
        if skew.count_skew_fillings(sh, 3) != oracle.oracle_count_shape(sh, 3):
            return False
        sh2 = SkewShape((3, 3, 2), (1, 0, 0))
        return (skew.count_skew_fillings(sh2, 2)
                == oracle.oracle_count_shape(sh2, 2) == 4)

    def kratt():
        import random
        rng = random.Random(DEFAULT_SEED)
        for _ in range(20):
            d = rng.randint(1, 4)
            A = rng.randint(0, 10)
            c = rng.choice((0, 1))
            L = [rng.randint(c - A - d, d) for _ in range(d)]
            if skew.kratt_lhs(d, A, L, c) != skew.kratt_rhs(d, A, L, c):
                return False
        return True

    def products():
        for n in range(3, 10):
            for kk in range(2, (n + 1) // 2 + 1):
                if 2 * kk - 1 > n:
                    continue
                if formulas.check_product_relations(n, kk) != (True, True):
                    return False
        return True

    checks = [
        ("six-matrix-statistics", six_matrices, True),
        ("counts-vs-oracle", counts, False),
        ("round-trips", roundtrips, False),
        ("zigzag-decompositions", zigzag, False),
        ("genfunc-identity", gfid, False),
        ("volume-polynomial", volume, True),
        ("truncated-rectangles", truncated, False),
        ("skew-determinant", skewdet, True),
        ("binomial-determinant", kratt, True),
        ("product-relations", products, True),
    ]
    return [(name, fn) for name, fn, in_quick in checks
            if in_quick or not quick]


def _cmd_selftest(args, out):
    failures = 0
    for name, fn in _selftest_checks(args.quick):
        try:
            ok = fn()
        except Exception as exc:  # a crash is a failure, not an excuse
            ok = False
            _emit(out, "FAIL %s (%s)" % (name, exc))
            failures += 1
            continue
        _emit(out, ("PASS " if ok else "FAIL ") + name)
        if not ok:
            failures += 1
    _emit(out, "selftest: %d failure(s)" % failures)
    return EXIT_VERIFY if failures else EXIT_OK


# ---------------------------------------------------------------------------
# wiring


class _UsageError(Exception):
    """A command line argparse refuses; `main` reports it in one line."""


class _Parser(argparse.ArgumentParser):
    # argparse prints the usage text before its error and exits 2; raise
    # instead, so that a usage error ends like any other invalid input
    # (subparsers are built from this class too)
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    p = _Parser(
        prog="iamkit",
        description="Exact counts, enumeration and bijections for maximal "
                    "I_k-avoiding matrices and skew-shape fillings.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, run, dims=("--m", "--n", "--k"), budget=True):
        sp.set_defaults(run=run)
        for opt in dims:
            sp.add_argument(opt, type=int)
        # None, not the default cap: `count` without --with-oracle and
        # `biject --to pp|paths` refuse a budget that was given
        if budget:
            sp.add_argument("--budget", type=int, default=None,
                            help="largest board (cells) a search may touch")
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("count", help="closed-form counts, optionally "
                                      "checked against the search oracle")
    add_common(sp, _cmd_count)
    sp.add_argument("--format", choices=("text", "json", "csv"),
                    default="text")
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--lambda", dest="lam", type=str, default=None)
    sp.add_argument("--mu", type=str, default=None)
    sp.add_argument("--class", dest="cls", type=str, default=None,
                    choices=formulas.SYMMETRY_TAGS)
    sp.add_argument("--with-oracle", action="store_true")

    sp = sub.add_parser("enumerate", help="stream all maximal objects as "
                                          "JSON lines")
    add_common(sp, _cmd_enumerate)
    sp.add_argument("--lambda", dest="lam", type=str, default=None)
    sp.add_argument("--mu", type=str, default=None)
    sp.add_argument("--max-results", type=int, default=None)

    sp = sub.add_parser("biject", help="convert matrix/pp/paths, verifying "
                                       "the round trip")
    add_common(sp, _cmd_biject, dims=("--k",))
    sp.add_argument("--to", choices=("pp", "paths", "matrix"), required=True)

    sp = sub.add_parser("genfunc", help="volume polynomial or the (q,t) "
                                        "identity at sampled points")
    add_common(sp, _cmd_genfunc)
    # --t1 draws no points, so these are refused with it, and ones not
    # given are told apart from their defaults
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--t1", action="store_true",
                    help="print the t=1 volume polynomial coefficients")
    sp.add_argument("--points", type=int, default=None)

    sp = sub.add_parser("selftest", help="run the built-in checks")
    add_common(sp, _cmd_selftest, dims=(), budget=False)
    sp.add_argument("--quick", action="store_true")

    return p


def _quiet_stdout():
    """Point stdout at the null device, so that the interpreter's own flush
    at exit does not fail again on a pipe the reader has closed."""
    try:
        fd = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(fd, sys.stdout.fileno())
        finally:
            os.close(fd)
    except (OSError, ValueError):
        pass  # stdout is not a real file: nothing will flush into the pipe


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit:
        return EXIT_OK  # --help, the only exit left to argparse

    try:
        sink = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        print("cannot open --out file: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        try:
            code = args.run(args, sink)
            sink.flush()
        finally:
            if sink is not sys.stdout:
                sink.close()
        return code
    except OSError as exc:
        # output left unwritten must not be flushed again at exit.  A
        # reader that stopped early (`iamkit enumerate ... | head`) is no
        # error of this command, so it ends quietly; a full disk is one
        if sink is sys.stdout:
            _quiet_stdout()
        if isinstance(exc, BrokenPipeError):
            return EXIT_OK
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
