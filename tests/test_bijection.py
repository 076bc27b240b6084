"""Matrix <-> paths <-> plane partition: fixtures and round trips."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import iamkit.bijection
import zigzag_walker
from iamkit.bijection import (
    PathFamily,
    PlanePartition,
    _staircase_masks,
    count_zigzag_decompositions,
    enumerate_pp,
    matrix_to_paths,
    matrix_to_pp,
    path_endpoints,
    paths_to_matrix,
    pp_layers,
    pp_to_matrix,
)
from iamkit.core import DEFAULT_SEED, BinaryMatrix, max_ones
from iamkit.formulas import hprod
from iamkit.genfunc import stat_record
from iamkit.oracle import enumerate_maximal_iams
from iamkit.symmetry import classes_of
from test_cli import SRC

# ---------------------------------------------------------------------------
# frozen fixtures: the six maximal 3x4 matrices for k=3 with their encodings

SIX = [
    ([[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 0, 0]], [[0, 0]]),
    ([[1, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 0]], [[1, 0]]),
    ([[1, 1, 1, 1], [1, 0, 0, 1], [1, 1, 1, 1]], [[1, 1]]),
    ([[0, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 0]], [[2, 0]]),
    ([[0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]], [[2, 1]]),
    ([[0, 0, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]], [[2, 2]]),
]

# a 9x7 matrix, maximal for k=5, with a known plane-partition image
BIG = BinaryMatrix([
    [1, 1, 1, 1, 1, 1, 1],
    [1, 0, 0, 1, 1, 1, 1],
    [1, 0, 0, 1, 0, 1, 1],
    [1, 0, 1, 1, 0, 1, 1],
    [1, 1, 1, 0, 1, 1, 1],
    [1, 1, 1, 1, 1, 0, 1],
    [1, 1, 1, 0, 0, 1, 1],
    [1, 1, 1, 0, 1, 1, 0],
    [1, 1, 1, 1, 1, 0, 0],
])
BIG_PI = ((3, 3, 2), (3, 3, 2), (3, 2, 1), (1, 1, 0), (1, 0, 0))


@pytest.mark.parametrize("rows,pi", SIX)
def test_three_by_four_images(rows, pi):
    M = BinaryMatrix(rows)
    pp = matrix_to_pp(M, 3)
    assert (pp.a, pp.b, pp.c) == (1, 2, 2)
    assert [list(r) for r in pp.pi] == pi
    assert pp_to_matrix(pp, 3, 4, 3) == M


def test_three_by_four_images_are_all_of_pp():
    got = {matrix_to_pp(M, 3).pi for M in enumerate_maximal_iams(3, 4, 3)}
    assert got == {pp.pi for pp in enumerate_pp(1, 2, 2)}
    assert len(got) == 6


def test_big_fixture_pp():
    pp = matrix_to_pp(BIG, 5)
    assert (pp.a, pp.b, pp.c) == (5, 3, 4)
    assert pp.pi == BIG_PI
    assert pp_to_matrix(pp, 9, 7, 5) == BIG
    assert BIG.ones_count() == max_ones(9, 7, 5) == 48


def test_big_fixture_layers():
    layers = pp_layers(matrix_to_pp(BIG, 5))
    assert [tuple(l.parts) for l in layers] == [
        (3, 3, 3, 2, 1), (3, 3, 2), (2, 2, 1), ()]


def test_big_fixture_paths():
    fam = matrix_to_paths(BIG, 5)
    assert len(fam.paths) == 4
    starts, ends = path_endpoints(9, 7, 5)
    for s, path in enumerate(fam.paths):
        assert path[0] == starts[s] and path[-1] == ends[s]
    assert paths_to_matrix(fam, 9, 7, 5) == BIG


def test_board_tables_are_built_once_per_board():
    # the endpoints and the corner staircases depend only on (m, n, k):
    # each is built once per board, as tuples, so a second call hands back
    # the same object and no caller can change what the next one reads
    for m in range(2, 9):
        for n in range(2, 9):
            for k in range(2, min(m, n) + 1):
                starts = [(k - 1 - s, s - 1) for s in range(1, k)]
                ends = [(n - s, m - k + s) for s in range(1, k)]
                # lower-left: j <= k-1 and i >= m-k+j+1; upper-right:
                # i <= k-1 and j >= n-k+i+1
                stairs = [sum(1 << (n - j) for j in range(1, n + 1)
                              if j <= k - 1 and i >= m - k + j + 1
                              or i <= k - 1 and j >= n - k + i + 1)
                          for i in range(1, m + 1)]
                points = path_endpoints(m, n, k)
                masks = _staircase_masks(m, n, k)
                assert points == (tuple(starts), tuple(ends)), (m, n, k)
                assert masks == tuple(stairs), (m, n, k)
                assert type(masks) is tuple and \
                    all(type(p) is tuple for p in points), (m, n, k)
                assert path_endpoints(m, n, k) is points
                assert _staircase_masks(m, n, k) is masks


# Run with and without -O; it cannot use assert, which -O strips.  Each
# whole-matrix chain sweep is counted by wrapping core._longest_chain.
VERDICT_SCRIPT = """
import sys
from itertools import islice
import iamkit.core as core
from iamkit.bijection import (count_zigzag_decompositions, matrix_to_paths,
                              matrix_to_pp, paths_to_matrix, pp_to_matrix)
from iamkit.core import BinaryMatrix, is_maximal_iam
from iamkit.genfunc import stat_record
from iamkit.oracle import enumerate_maximal_iams
from iamkit.symmetry import apply, classes_of

sweeps = 0
longest_chain = core._longest_chain


def counted(masks, limit=None):
    global sweeps
    sweeps += 1
    return longest_chain(masks, limit)


core._longest_chain = counted


def check(ok, what):
    if not ok:
        sys.exit(what)


def swept(call, *args):
    before = sweeps
    result = call(*args)
    return result, sweeps - before


k = 4
M = next(islice(enumerate_maximal_iams(6, 6, k), 100, None))
check(swept(is_maximal_iam, M, k) == (True, 1), "the stream set a verdict")
check(pp_to_matrix(matrix_to_pp(M, k), 6, 6, k) == M, "pp round trip")
check(paths_to_matrix(matrix_to_paths(M, k), 6, 6, k) == M, "path round trip")
stat_record(M, k)
classes_of(M, k)
count_zigzag_decompositions(M, k)
check(sweeps == 3, "%d sweeps, not 3: the input and the two bijection "
      "outputs once each" % sweeps)

# maximal for at most one k: a verdict for k does not answer k + 1
check(swept(is_maximal_iam, M, k + 1) == (False, 1), "k + 1")
check(swept(is_maximal_iam, M, k) == (True, 0), "the verdict for k")

# a non-maximal matrix is swept on every call, and every route refuses it
top, *rest = M.masks
N = BinaryMatrix.from_masks(6, 6, (top & (top - 1),) + tuple(rest))
for _ in range(2):
    check(swept(is_maximal_iam, N, k) == (False, 1), "non-maximal")
for route in (matrix_to_pp, matrix_to_paths, stat_record, classes_of,
              count_zigzag_decompositions):
    before = sweeps
    try:
        route(N, k)
    except ValueError:
        check(sweeps == before + 1, "%s did not sweep" % route.__name__)
    else:
        sys.exit("%s took a non-maximal matrix" % route.__name__)

# constructors start with no verdict; == and hash ignore it
for copy in (BinaryMatrix(M.to_lists()),
             BinaryMatrix.from_masks(6, 6, M.masks),
             BinaryMatrix.from_json_dict(M.to_json_dict()), apply(M, "id")):
    check(copy == M and hash(copy) == hash(M), "== or hash read the verdict")
    check(swept(is_maximal_iam, copy, k) == (True, 1), "a copy kept a verdict")
check(swept(is_maximal_iam, apply(M, "rot180"), k) == (True, 1),
      "apply kept a verdict")
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_each_matrix_is_verified_once_also_under_python_O(optimize):
    # a matrix keeps the k that is_maximal_iam found it maximal for, so
    # the routes after the first check do not sweep it again; the
    # bijections still verify the matrices they build
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable] + flags + ["-c", VERDICT_SCRIPT],
                          env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")


def test_zigzag_counts():
    for rows, _ in SIX:
        assert count_zigzag_decompositions(BinaryMatrix(rows), 3) == 2
    assert count_zigzag_decompositions(BIG, 5) == 24
    # k = 2: a single zigzag covering everything, always unique
    for M in enumerate_maximal_iams(2, 4, 2):
        assert count_zigzag_decompositions(M, 2) == 1


def test_zigzag_level_sum_equals_the_walker():
    # the walker lists every decomposition through every level; the level
    # sum must count as many on every maximal matrix up to 5x5, and on a
    # seeded sample of the 6x6 and 7x7 ones at k <= 6
    walker = zigzag_walker.count_zigzag_decompositions
    for m in range(2, 6):
        for n in range(2, 6):
            for k in range(2, min(m, n) + 1):
                for M in enumerate_maximal_iams(m, n, k):
                    assert count_zigzag_decompositions(M, k) == walker(M, k)
    rng = random.Random(DEFAULT_SEED)
    for side in (6, 7):
        for k in range(2, 7):
            stream = list(enumerate_maximal_iams(side, side, k))
            for M in rng.sample(stream, min(len(stream), 6)):
                assert count_zigzag_decompositions(M, k) == walker(M, k)


def test_zigzag_level_sum_equals_the_walker_on_any_ones(monkeypatch):
    # with the maximality and extremality guards lifted, both count the
    # splits of any set of ones into k-1 zigzag paths of the prescribed
    # lengths; levels of equal size whose points do not pair up east/north
    # index by index occur here and on no maximal matrix
    ones = [0]
    for module in (iamkit.bijection, zigzag_walker):
        monkeypatch.setattr(module, "_require_maximal", lambda M, k: None)
        monkeypatch.setattr(module, "max_ones", lambda m, n, k: ones[0])
    walker = zigzag_walker.count_zigzag_decompositions
    rng = random.Random(DEFAULT_SEED)
    boards = [(3, 3, code) for code in range(1 << 9)]
    boards += [(4, 4, rng.getrandbits(16)) for _ in range(300)]
    nonzero = 0
    for m, n, code in boards:
        M = BinaryMatrix.from_masks(
            m, n, [code >> (n * i) & ((1 << n) - 1) for i in range(m)])
        ones[0] = M.ones_count()
        for k in range(2, m + 1):
            got = count_zigzag_decompositions(M, k)
            assert got == walker(M, k), (M.masks, k)
            nonzero += got > 0
    assert nonzero > 0


def test_roundtrips_small_boards():
    for m in range(2, 6):
        for n in range(2, 6):
            for k in range(2, min(m, n) + 1):
                seen = set()
                for M in enumerate_maximal_iams(m, n, k):
                    pp = matrix_to_pp(M, k)
                    assert pp_to_matrix(pp, m, n, k) == M
                    fam = matrix_to_paths(M, k)
                    assert paths_to_matrix(fam, m, n, k) == M
                    seen.add(pp.pi)
                want = {pp.pi for pp in enumerate_pp(m - k + 1, n - k + 1, k - 1)}
                assert seen == want


def test_path_count_invariant():
    # total ones = (k-1)(m+n-2k+3) on the paths plus two corner staircases
    for (m, n, k) in [(4, 5, 3), (5, 5, 4), (5, 6, 5)]:
        stair = (k - 2) * (k - 1) // 2
        for M in enumerate_maximal_iams(m, n, k):
            fam = matrix_to_paths(M, k)
            assert sum(len(p) for p in fam.paths) == (k - 1) * (m + n - 2 * k + 3)
            assert M.ones_count() == (k - 1) * (m + n - 2 * k + 3) + 2 * stair


def test_matrix_to_pp_rejects_non_maximal():
    # a ValueError, not an assert, so the check survives python -O
    with pytest.raises(ValueError):
        matrix_to_pp(BinaryMatrix([[1, 0], [0, 1]]), 2)
    with pytest.raises(ValueError):
        matrix_to_paths(BinaryMatrix([[1, 0], [0, 1]]), 2)


def test_paths_to_matrix_rejects_crossing_paths():
    fam = matrix_to_paths(BinaryMatrix(SIX[0][0]), 3)
    # swap the two paths: endpoints no longer match
    swapped = PathFamily((fam.paths[1], fam.paths[0]))
    with pytest.raises(ValueError):
        paths_to_matrix(swapped, 3, 4, 3)


def test_paths_to_matrix_rejects_intersecting_paths():
    # right endpoints and unit steps, but both paths pass (1, 1) and (2, 1)
    fam = [[(1, 0), (1, 1), (2, 1), (3, 1)], [(0, 1), (1, 1), (2, 1), (2, 2)]]
    with pytest.raises(ValueError, match=r"intersect at \(1, 1\)"):
        paths_to_matrix(fam, 3, 4, 3)


# sha256 of every per-object route over every maximal matrix on every board
# up to 6x6 (5,816 objects), measured when each route still read the matrix
# cell by cell
ROUTES_DIGEST = \
    "f681561fe06fa3869eaa66ae117af62da273604b46eadeb145ebd140968d0909"


def test_per_object_routes_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for m in range(2, 7):
        for n in range(2, 7):
            for k in range(2, min(m, n) + 1):
                for M in enumerate_maximal_iams(m, n, k):
                    rec = stat_record(M, k)
                    row = [m, n, k, list(M.masks),
                           matrix_to_pp(M, k).to_json_dict(),
                           matrix_to_paths(M, k).to_json(),
                           [rec.v, rec.v_d, list(rec.d)],
                           sorted(classes_of(M, k)),
                           count_zigzag_decompositions(M, k)]
                    digest.update(json.dumps(row, separators=(",", ":"))
                                  .encode() + b"\n")
                    count += 1
    assert count == 5816
    assert digest.hexdigest() == ROUTES_DIGEST


def test_pp_validation():
    with pytest.raises(ValueError):
        PlanePartition(1, 2, 2, [[1, 2]])  # row increases
    with pytest.raises(ValueError):
        PlanePartition(2, 1, 2, [[1], [2]])  # column increases
    with pytest.raises(ValueError):
        PlanePartition(1, 1, 2, [[3]])  # exceeds the box
    pp = PlanePartition(2, 2, 3, [[3, 1], [2, 0]])
    assert pp.volume() == 6 and pp.trace() == 3


@pytest.mark.parametrize("sides,pi", [
    ((1, 1, 1), [[1.5]]),
    ((1, 1, 1), [[True]]),
    ((1, 1, 1), [["1"]]),
    ((1, 1, 1), [[1.0]]),
    ((1.0, 1, 1), [[1]]),
    ((1, True, 1), [[1]]),
    ((1, 1, "1"), [[1]]),
])
def test_pp_rejects_what_is_not_an_integer(sides, pi):
    # each of these compares equal to, or converts to, a valid integer
    with pytest.raises(ValueError, match="must be integers"):
        PlanePartition(*sides, pi)


@pytest.mark.parametrize("point", [
    (1.5, 0.9), (True, 0), (0, False), (0, 1.0), ("0", 1), (0, None),
    (0, 1, 2), (0,), "01", 0, None,
])
def test_path_family_rejects_what_is_not_an_integer_pair(point):
    # each point is a pair of integers; a bool, a float or a string that
    # converts to one is not, nor is a point with another number of parts
    paths = [[(0, 0), point]]
    with pytest.raises(ValueError):
        PathFamily(paths)
    with pytest.raises(ValueError):
        paths_to_matrix(paths, 2, 2, 2)


def test_path_family_does_not_round_points_to_integers():
    # int() would make this ((1, 0), (1, 2))
    with pytest.raises(ValueError, match="must be integers"):
        PathFamily([[(1.5, 0.9), (True, "2")]])


def test_path_family_takes_lists_and_tuples():
    fam = PathFamily([[[0, 1], (1, 1)]])
    assert fam.paths == (((0, 1), (1, 1)),)
    assert PathFamily.from_json(fam.to_json()) == fam


def test_pp_json_roundtrip():
    pp = PlanePartition(2, 3, 4, [[4, 2, 1], [2, 2, 0]])
    assert PlanePartition.from_json_dict(pp.to_json_dict()) == pp


def test_enumerate_pp_counts():
    assert sum(1 for _ in enumerate_pp(1, 2, 2)) == hprod(1, 2, 2) == 6
    assert sum(1 for _ in enumerate_pp(2, 2, 2)) == hprod(2, 2, 2) == 20
    assert sum(1 for _ in enumerate_pp(3, 3, 1)) == hprod(3, 3, 1) == 20
    assert sum(1 for _ in enumerate_pp(0, 3, 2)) == 1  # the empty array


def test_pp_layers_are_nested():
    for pp in enumerate_pp(3, 3, 3):
        layers = pp_layers(pp)
        assert len(layers) == 3
        for a, b in zip(layers, layers[1:]):
            assert a.contains(b)
