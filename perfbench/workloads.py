"""The four benchmark workloads.

Each workload builds its inputs from the seed (`build`), runs one pass of
its fixed check list (`run_pass`) and climbs a fixed board ladder one step
at a time (`ladder_step`).  Every call into iamkit goes through the `ik`
namespace that `bind` returns, so a traced run can record a span around it.
The seed only picks sampled parameters, sampled objects and the visiting
order; the amount of work in a pass does not depend on it.

Why these four:

* rect-count -- formula against pruned search, symmetry census and the
  prune-free certifier on rectangles: the rectangle counting engine.
* skew-count -- truncated rectangles four ways, the skew catalog and the
  binomial determinants: the skew-shape search, which is nearly all of it.
* stream -- every maximal matrix up to 6x6 materialised in order and put
  through the per-object routes: bijections, statistics, symmetry tags.
* cli -- the README's commands as subprocesses: interpreter start and
  `import iamkit` dominate, so import-time work shows here.
"""

import importlib
import json
import os
import random
import subprocess
import sys
import time
import types
from collections import Counter
from fractions import Fraction
from math import factorial

# every iamkit function a workload calls, as <module>.<function>
API = (
    "core.BinaryMatrix", "core.SkewShape", "core.is_maximal_iam",
    "core.is_maximal_iam_by_flips",
    "oracle.oracle_count", "oracle.naive_enumerate",
    "oracle.enumerate_maximal_iams", "oracle.oracle_count_shape",
    "formulas.count_iams", "formulas.count_symmetry", "formulas.hprod",
    "symmetry.class_histogram", "symmetry.classes_of",
    "skew.TruncatedRect", "skew.count_truncated_rect", "skew.reflection_det",
    "skew.lgv_count", "skew.truncated_region", "skew.count_skew_fillings",
    "skew.kratt_lhs", "skew.kratt_rhs",
    "bijection.PlanePartition", "bijection.path_endpoints",
    "bijection.matrix_to_pp", "bijection.pp_to_matrix",
    "bijection.matrix_to_paths", "bijection.paths_to_matrix",
    "bijection.count_zigzag_decompositions",
    "genfunc.stat_record", "genfunc.gf_lhs", "genfunc.gf_rhs",
    "genfunc.volume_gf", "genfunc.pp_volume_gf",
)
CLI_COMMANDS = ("count", "enumerate", "biject", "genfunc", "selftest")

# what the `iamkit` console script runs
CLI_MAIN = "import sys; from iamkit.cli import main; sys.exit(main())"

RECT_TAGS = ("U", "VS", "HS", "VHS", "HTS")
ALL_TAGS = ("U", "DS", "AS", "DAS", "VS", "HS", "VHS", "QTS", "HTS", "TS")

# the criterion 09 catalog: lambda, mu, k, pinned count
SKEW_CATALOG = (
    ((2, 2), (), 2, 2), ((3, 3), (), 2, 3), ((3, 3, 2), (), 2, 5),
    ((3, 3, 3), (), 2, 6), ((4, 4), (), 2, 4), ((4, 4, 2), (), 2, 7),
    ((4, 4, 3), (), 2, 9), ((4, 4, 4, 2), (), 2, 16), ((3, 3, 2, 2), (), 2, 7),
    ((3, 3, 3, 3), (), 2, 10), ((3, 3, 2), (1, 0, 0), 2, 4),
    ((4, 4, 3), (2, 0, 0), 2, 6), ((4, 4, 2), (1, 0, 0), 2, 6),
    ((5, 5, 3), (), 2, 12), ((5, 5, 2), (2, 0, 0), 2, 6),
    ((4, 4, 4, 3), (1, 1, 0, 0), 2, 15), ((5, 5, 5, 4), (2, 1, 0, 0), 2, 27),
    ((3, 3, 3), (), 3, 3), ((4, 4, 4), (), 3, 6), ((4, 4, 4, 3), (), 3, 14),
    ((5, 5, 5), (), 3, 10), ((4, 4, 4, 4), (), 3, 20),
    ((5, 5, 5, 4), (), 3, 40), ((4, 4, 4, 3), (1, 0, 0, 0), 3, 9),
    ((5, 5, 5, 3), (2, 0, 0, 0), 3, 9), ((5, 5, 5, 5), (1, 0, 0, 0), 3, 40),
)


def bind(tracer, root, cli_log):
    """Namespace ik.<module>.<function> over iamkit, each function wrapped
    by the tracer; classes stay unwrapped.  ik.cli.<subcommand> runs the
    command line of the checkout at `root` and logs its latency."""
    funcs = cli_runner(root, cli_log)
    for qual in API:
        mod, name = qual.split(".")
        funcs[qual] = getattr(importlib.import_module("iamkit." + mod), name)
    spaces = {}
    for qual, fn in funcs.items():
        mod, name = qual.split(".")
        setattr(spaces.setdefault(mod, types.SimpleNamespace()), name,
                fn if isinstance(fn, type) else tracer.wrap(qual, fn))
    return types.SimpleNamespace(**spaces)


def square_rung(n):
    """The ladder board n x n with k = max(2, ceil(n / 2))."""
    return n, max(2, -(-n // 2))


def _boards(lo, hi, upper_only):
    """(m, n, k) for lo <= m, n <= hi and 2 <= k <= min(m, n)."""
    return [(m, n, k) for m in range(lo, hi + 1)
            for n in range(m if upper_only else lo, hi + 1)
            for k in range(2, min(m, n) + 1)]


class _Specs:
    """A workload whose inputs are (kind, *args) specs, each checked by the
    method _<kind>(ik, checks, *args)."""

    def run_pass(self, ik, specs, checks):
        for kind, *args in specs:
            check = getattr(self, "_" + kind)
            checks.run("%s %s" % (kind, args),
                       lambda: check(ik, checks, *args))


# ---------------------------------------------------------------------------
# rect-count


class RectCount(_Specs):
    name = "rect-count"
    budget_s = 7.0
    ladder = range(2, 10)

    def build(self, ik, seed, tiny):
        # sized so that several passes fit in a run: boards up to 7 x 6,
        # and the certifier up to 14 cells; 7 x 7 is the ladder's
        top = 4 if tiny else 7
        specs = [("count",) + b for b in _boards(2, top, True)
                 if b[0] * b[1] < top * top]
        specs += [("census",) + b for b in _boards(2, top, False)
                  if b[0] * b[1] < top * top]
        specs += [("certify",) + b for b in _boards(2, top, False)
                  if b[0] * b[1] <= (9 if tiny else 14)]
        random.Random(seed).shuffle(specs)
        return specs

    @staticmethod
    def _count(ik, checks, m, n, k):
        got = ik.oracle.oracle_count(m, n, k)
        checks.tally("oracle.objects_counted", got)
        return got == ik.formulas.count_iams(m, n, k)

    @staticmethod
    def _certify(ik, checks, m, n, k):
        stream = list(ik.oracle.enumerate_maximal_iams(m, n, k))
        checks.tally("oracle.objects_enumerated", len(stream))
        return ik.oracle.naive_enumerate(m, n, k) == stream

    @staticmethod
    def _census(ik, checks, m, n, k):
        hist = ik.symmetry.class_histogram(m, n, k)
        tags = ALL_TAGS if m == n else RECT_TAGS
        return all(ik.formulas.count_symmetry(t, m, n, k) == hist[t]
                   for t in tags)

    def ladder_step(self, ik, specs, n):
        n, k = square_rung(n)
        return (ik.oracle.oracle_count(n, n, k)
                == ik.formulas.count_iams(n, n, k))


# ---------------------------------------------------------------------------
# skew-count


class SkewCount(_Specs):
    name = "skew-count"
    budget_s = 1.0
    ladder = range(3, 9)

    def build(self, ik, seed, tiny):
        rng = random.Random(seed)
        # 6 x 6 truncated boards take seconds each; they are the ladder's
        top = 3 if tiny else 6
        specs = [("truncated", m, n, k, t)
                 for (m, n, k) in _boards(2, top, True)
                 if m < top for t in (m - k, m - k + 1)]
        specs += [("catalog",) + entry
                  for entry in SKEW_CATALOG[:5 if tiny else None]]
        specs += [("rectdet",) + b for b in _boards(2, 4 if tiny else 8, True)]
        for _ in range(1 if tiny else 10):
            # ten evaluations a check, drawn as in criterion 10, so that
            # the seed moves no check's cost by much
            batch = []
            for _ in range(10):
                d = rng.randint(1, 5)
                A = rng.randint(0, 12)
                c = rng.choice((0, 1))
                L = tuple(sorted(rng.sample(range(c - A - d, d + 1), d)))
                batch.append((d, A, L, c))
            specs.append(("kratt", tuple(batch)))
        rng.shuffle(specs)
        return specs

    @staticmethod
    def _truncated(ik, checks, m, n, k, t):
        product = ik.skew.count_truncated_rect(m, n, k, t)
        starts, ends = ik.bijection.path_endpoints(m, n, k)
        region = ik.skew.truncated_region(m, n, t)
        found = ik.oracle.oracle_count_shape(
            ik.skew.TruncatedRect(m, n, k, t).shape(), k)
        checks.tally("oracle.fillings_counted", found)
        return (ik.skew.reflection_det(m, n, k, t) == product
                and ik.skew.lgv_count(starts, ends, region) == product
                and found == product)

    @staticmethod
    def _catalog(ik, checks, lam, mu, k, expected):
        shape = ik.core.SkewShape(lam, mu)
        found = ik.oracle.oracle_count_shape(shape, k)
        checks.tally("oracle.fillings_counted", found)
        return ik.skew.count_skew_fillings(shape, k) == expected == found

    @staticmethod
    def _rectdet(ik, checks, m, n, k):
        return (ik.skew.count_skew_fillings(ik.core.SkewShape([n] * m), k)
                == ik.formulas.hprod(m - k + 1, n - k + 1, k - 1))

    @staticmethod
    def _kratt(ik, checks, batch):
        return all(ik.skew.kratt_lhs(*args) == ik.skew.kratt_rhs(*args)
                   for args in batch)

    def ladder_step(self, ik, specs, n):
        n, k = square_rung(n)
        shape = ik.skew.TruncatedRect(n, n, k, n - k).shape()
        return (ik.oracle.oracle_count_shape(shape, k)
                == ik.skew.count_truncated_rect(n, n, k, n - k))


# ---------------------------------------------------------------------------
# stream


def rational_points(rng, count, span):
    """`count` exact (q, t) points with 0 < q < 1 and no vanishing factor
    1 - t q^e for 0 <= e <= span."""
    pts = []
    while len(pts) < count:
        qn = rng.randint(1, 8)
        q = Fraction(qn, rng.randint(qn + 1, 9))
        t = Fraction(rng.choice((1, -1)) * rng.randint(1, 9),
                     rng.randint(1, 9))
        if all(t * q ** e != 1 for e in range(span + 1)):
            pts.append((q, t))
    return pts


def enumerate_ok(ik, m, n, k, out):
    """The stream, collected into `out`: as many objects as the formula
    says, in strictly increasing row-major order."""
    out.extend(ik.oracle.enumerate_maximal_iams(m, n, k))
    return (len(out) == ik.formulas.count_iams(m, n, k)
            and all(a.masks < b.masks for a, b in zip(out, out[1:])))


def object_ok(ik, M, m, n, k, pps, tags):
    """The per-object routes: maximality, both bijection round trips,
    statistics (v equals the plane partition's volume) and symmetry tags.
    Adds the object's plane partition to `pps` and its tags to `tags`."""
    if not ik.core.is_maximal_iam(M, k):
        return False
    pp = ik.bijection.matrix_to_pp(M, k)
    if ik.bijection.pp_to_matrix(pp, m, n, k) != M:
        return False
    fam = ik.bijection.matrix_to_paths(M, k)
    if ik.bijection.paths_to_matrix(fam, m, n, k) != M:
        return False
    rec = ik.genfunc.stat_record(M, k)
    if rec.v != pp.volume() or len(rec.d) != k - 1:
        return False
    pps.add(pp)
    tags.update(ik.symmetry.classes_of(M, k))
    return True


class Stream:
    name = "stream"
    budget_s = 3.0
    ladder = range(2, 9)
    ZIGZAG_SHARE = 8     # one object in this many gets the zigzag count

    def build(self, ik, seed, tiny):
        rng = random.Random(seed)
        top = 4 if tiny else 6
        boards = []
        for (m, n, k) in _boards(2, top, False):
            total = ik.formulas.count_iams(m, n, k)
            sample = frozenset(rng.sample(range(total),
                                          -(-total // self.ZIGZAG_SHARE)))
            pts = (rational_points(rng, 2, m + n + k)
                   if max(m, n) <= top - 1 else [])
            boards.append((m, n, k, sample, pts))
        rng.shuffle(boards)
        return boards

    def run_pass(self, ik, boards, checks):
        for (m, n, k, sample, pts) in boards:
            label = "%dx%d k=%d" % (m, n, k)
            objects = []
            pps = set()
            tags = Counter()
            checks.run("enumerate " + label,
                       lambda: enumerate_ok(ik, m, n, k, objects))
            checks.tally("oracle.objects_enumerated", len(objects))
            for index, M in enumerate(objects):
                if index in sample:
                    checks.run("object+zigzag " + label, lambda: (
                        object_ok(ik, M, m, n, k, pps, tags)
                        and ik.bijection.count_zigzag_decompositions(M, k)
                        == factorial(k - 1)))
                else:
                    checks.run("object " + label,
                               lambda: object_ok(ik, M, m, n, k, pps, tags))
            checks.run("images " + label, lambda: len(pps) == len(objects))
            checks.run("classes " + label, lambda: all(
                ik.formulas.count_symmetry(t, m, n, k) == tags[t]
                for t in (ALL_TAGS if m == n else RECT_TAGS)))
            checks.run("volume " + label, lambda: (
                ik.genfunc.volume_gf(m, n, k)
                == ik.genfunc.pp_volume_gf(m - k + 1, n - k + 1, k - 1)))
            for (q, t) in pts:
                checks.run("gf %s q=%s t=%s" % (label, q, t), lambda: (
                    ik.genfunc.gf_lhs(m, n, k, q, t)
                    == ik.genfunc.gf_rhs(m, n, k, q, t)))

    def ladder_step(self, ik, boards, n):
        n, k = square_rung(n)
        objects = []
        pps = set()
        tags = Counter()
        return (enumerate_ok(ik, n, n, k, objects)
                and all(object_ok(ik, M, n, n, k, pps, tags)
                        for M in objects)
                and len(pps) == len(objects))


# ---------------------------------------------------------------------------
# cli


def _compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def cli_runner(root, log):
    """<module>.<function> entries that run one `iamkit` subcommand in a
    fresh interpreter, importing iamkit from the checkout's src/, and append
    (subcommand, seconds) to `log`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def command(sub):
        def run(*args, stdin=None):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", CLI_MAIN, sub, *map(str, args)],
                input=stdin, capture_output=True, env=env, cwd=root)
            log.append((sub, time.perf_counter() - start))
            return proc
        return run

    return {"cli." + sub: command(sub) for sub in CLI_COMMANDS}


def _random_pp(rng, a, b, c):
    rows = []
    for i in range(a):
        row = []
        for j in range(b):
            hi = min(rows[i - 1][j] if i else c, row[j - 1] if j else c)
            row.append(rng.randint(0, hi))
        rows.append(row)
    return rows


class Cli:
    name = "cli"
    budget_s = 1.0
    ladder = range(3, 9)
    # five fixed boards a command (the README's first), so that the command
    # mix, and with it the cost of a pass, is the same for every seed; the
    # seed draws the biject payloads, the genfunc point seeds and the order
    RECT = ((5, 5, 3), (3, 4, 3), (4, 4, 3), (4, 5, 2), (4, 6, 3))
    BIG = ((9, 7, 5), (8, 8, 4), (10, 12, 6), (12, 12, 3), (11, 9, 4))
    TRUNCATED = ((3, 3, 2, 1), (3, 4, 3, 1), (4, 4, 2, 2), (4, 5, 3, 1),
                 (4, 4, 3, 1))
    CLASSES = (("DS", 5, 3), ("HTS", 4, 2), ("AS", 5, 3), ("TS", 3, 3),
               ("VS", 5, 3))
    SHAPES = (((4, 4, 4), (), 3, 6), ((3, 3, 2), (1, 0, 0), 2, 4),
              ((5, 5, 5, 4), (), 3, 40), ((4, 4, 4, 3), (1, 1, 0, 0), 2, 15),
              ((4, 4, 3), (), 2, 9))
    SMALL = ((3, 4, 3), (4, 4, 3), (4, 5, 3), (5, 5, 3), (3, 5, 3))

    def build(self, ik, seed, tiny):
        rng = random.Random(seed)
        calls = []   # (subcommand, args, stdin, expected)
        for i in range(1 if tiny else len(self.RECT)):
            m, n, k = self.RECT[i]
            f = ik.formulas.count_iams(m, n, k)
            calls.append(("count", ("--m", m, "--n", n, "--k", k,
                                    "--with-oracle"), None,
                          "%d %d AGREE\n" % (f, f)))
            m, n, k = self.BIG[i]
            calls.append(("count", ("--m", m, "--n", n, "--k", k), None,
                          "%d\n" % ik.formulas.count_iams(m, n, k)))
            m, n, k, t = self.TRUNCATED[i]
            f = ik.skew.count_truncated_rect(m, n, k, t)
            calls.append(("count", ("--m", m, "--n", n, "--k", k, "--t", t,
                                    "--with-oracle"), None,
                          "%d %d AGREE\n" % (f, f)))
            tag, n, k = self.CLASSES[i]
            f = ik.formulas.count_symmetry(tag, n, n, k)
            calls.append(("count", ("--class", tag, "--n", n, "--k", k,
                                    "--with-oracle"), None,
                          "%d %d AGREE\n" % (f, f)))
            lam, mu, k, f = self.SHAPES[i]
            args = ("--lambda", ",".join(map(str, lam)), "--k", k)
            if mu:
                args += ("--mu", ",".join(map(str, mu)))
            calls.append(("count", args + ("--with-oracle",), None,
                          "%d %d AGREE\n" % (f, f)))
            m, n, k = self.SMALL[i]
            calls.append(("enumerate", ("--m", m, "--n", n, "--k", k), None,
                          ("stream", m, n, k)))
            pp = ik.bijection.PlanePartition(
                m - k + 1, n - k + 1, k - 1,
                _random_pp(rng, m - k + 1, n - k + 1, k - 1))
            M = ik.bijection.pp_to_matrix(pp, m, n, k)
            matrix = _compact(M.to_json_dict())
            calls.append(("biject", ("--to", "pp", "--k", k), matrix,
                          _compact(pp.to_json_dict()) + "\n"))
            paths = ik.bijection.matrix_to_paths(M, k).to_json()
            calls.append(("biject", ("--to", "paths", "--k", k), matrix,
                          _compact(paths) + "\n"))
            calls.append(("biject", ("--to", "matrix"),
                          _compact(pp.to_json_dict()), matrix + "\n"))
            poly = ik.genfunc.pp_volume_gf(m - k + 1, n - k + 1, k - 1)
            calls.append(("genfunc", ("--m", m, "--n", n, "--k", k, "--t1"),
                          None, ",".join(map(str, poly.to_list())) + "\n"))
            calls.append(("genfunc", ("--m", 3, "--n", 4, "--k", 3, "--points",
                                      20, "--seed", rng.randint(1, 10**6)),
                          None, ("points", 20)))
            calls.append(("selftest", ("--quick",), None, ("selftest", 5)))
        rng.shuffle(calls)
        return calls

    def run_pass(self, ik, calls, checks):
        for sub, args, stdin, expected in calls:
            checks.run("%s %s" % (sub, " ".join(map(str, args))),
                       lambda: self._call_ok(ik, sub, args, stdin, expected))

    @staticmethod
    def _call_ok(ik, sub, args, stdin, expected):
        proc = getattr(ik.cli, sub)(
            *args, stdin=None if stdin is None else stdin.encode())
        if proc.returncode != 0 or proc.stderr:
            return False
        out = proc.stdout.decode()
        if isinstance(expected, str):
            return out == expected
        kind = expected[0]
        lines = out.splitlines()
        if out and not out.endswith("\n"):
            return False
        if kind == "stream":
            # compact JSON lines, strictly increasing, each maximal by the
            # flip test, as many as the formula says
            _, m, n, k = expected
            objs = [json.loads(line) for line in lines]
            if any(_compact(o) != line for o, line in zip(objs, lines)):
                return False
            rows = [o["rows"] for o in objs]
            if rows != sorted(rows) or len(set(map(str, rows))) != len(rows):
                return False
            return (len(rows) == ik.formulas.count_iams(m, n, k)
                    and all(ik.core.is_maximal_iam_by_flips(
                        ik.core.BinaryMatrix.from_json_dict(o), k)
                        for o in objs))
        if kind == "points":
            count = expected[1]
            if len(lines) != count + 1:
                return False
            for line in lines[:-1]:
                fields = dict(f.split("=", 1) for f in line.split()[:4])
                if not line.endswith(" OK") or fields["lhs"] != fields["rhs"]:
                    return False
            return lines[-1] == "genfunc identity: %d/%d points agree" % (
                count, count)
        # selftest
        count = expected[1]
        return (len(lines) == count + 1
                and all(line.startswith("PASS ") for line in lines[:-1])
                and lines[-1] == "selftest: 0 failure(s)")

    def ladder_step(self, ik, calls, n):
        # the skew-count ladder through the command line
        n, k = square_rung(n)
        f = ik.skew.count_truncated_rect(n, n, k, n - k)
        return self._call_ok(ik, "count", ("--m", n, "--n", n, "--k", k,
                                           "--t", n - k, "--with-oracle"),
                             None, "%d %d AGREE\n" % (f, f))


WORKLOADS = {w.name: w for w in (RectCount(), SkewCount(), Stream(), Cli())}
