"""Chain detectors, maximality tests, and the basic shape types."""

import functools
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iamkit.core import (
    BinaryMatrix,
    EnumerationBudget,
    Filling,
    Partition,
    SkewShape,
    _at_or_left,
    _chain_across,
    _profile,
    _sweep,
    _tails_below,
    _zero_bounds,
    contains_ik,
    contains_ik_in_shape,
    is_maximal_filling,
    is_maximal_iam,
    is_maximal_iam_by_flips,
    longest_increasing_chain,
    longest_increasing_chain_quadratic,
    max_ones,
)
from iamkit.bijection import PathFamily, PlanePartition
from iamkit.genfunc import QPoly, StatRecord
from iamkit.oracle import enumerate_maximal_fillings, enumerate_maximal_iams
from iamkit.skew import TruncatedRect


def all_matrices(m, n):
    for bits in itertools.product((0, 1), repeat=m * n):
        yield BinaryMatrix([bits[r * n:(r + 1) * n] for r in range(m)])


def test_chain_detectors_agree_exhaustively():
    # every matrix with at most 4 rows and columns
    for m in range(1, 5):
        for n in range(1, 5):
            for M in all_matrices(m, n):
                assert longest_increasing_chain(M) == \
                    longest_increasing_chain_quadratic(M)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=6, max_size=6),
                min_size=5, max_size=5))
def test_chain_detectors_agree_random(rows):
    M = BinaryMatrix(rows)
    assert longest_increasing_chain(M) == longest_increasing_chain_quadratic(M)


def _masks_of(n, max_rows):
    """Row masks over n columns, one to `max_rows` rows."""
    return st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=max_rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n),
                                                      _masks_of(n, 12))))
def test_mask_chain_routine_matches_the_quadratic_twin(board):
    # rectangles of any size up to 12x12 and any density, nearly never
    # maximal
    n, masks = board
    M = BinaryMatrix.from_masks(len(masks), n, masks)
    longest = longest_increasing_chain_quadratic(M)
    assert longest_increasing_chain(M) == longest
    for k in range(1, min(M.m, n) + 2):
        assert contains_ik(M, k) == (longest >= k)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n),
                                                      _masks_of(n, 10))))
def test_thresholds_match_their_definition(board):
    # threshold p is the bit of the least column c at which the rows, cut
    # to columns <= c, hold a chain of length p+1
    n, masks = board
    m = len(masks)
    want = []
    for c in range(1, n + 1):
        cut = BinaryMatrix.from_masks(m, c, [mk >> (n - c) for mk in masks])
        while len(want) < longest_increasing_chain_quadratic(cut):
            want.append(n - c)
    tails = []
    assert _sweep(tails, masks) == len(want)
    assert tails == want
    # the row search advances a tuple of thresholds one row at a time
    state = ()
    for mk in masks:
        nxt = list(state)
        _sweep(nxt, (mk,))
        state = tuple(nxt)
    assert state == tuple(want)


def _swept(m, n):
    """Every thresholds tuple that some list of at most m rows of n bits
    sweeps to, reached row by row."""
    seen, layer = {()}, {()}
    for _ in range(m):
        after = set()
        for tails in layer:
            for mk in range(1 << n):
                nxt = list(tails)
                _sweep(nxt, (mk,))
                after.add(tuple(nxt))
        layer = after
        seen |= after
    return sorted(seen)


def test_profile_and_chain_across_match_their_definitions():
    # thresholds swept from every list of rows on boards up to 5x5: the
    # profile is the chain at or left of each column, and the chain across
    # two blocks the best, over columns c, of the upper block's chain at or
    # left of c and the turned lower block's at or left of n-c
    for n in range(1, 6):
        swept = _swept(5, n)
        for tails in swept:
            assert _profile(tails, n) == \
                [_at_or_left(tails, n, c) for c in range(n + 1)], (n, tails)
        for above in swept:
            for below in swept:
                assert _chain_across(above, below, n) == max(
                    _at_or_left(above, n, c) + _at_or_left(below, n, n - c)
                    for c in range(n + 1)), (n, above, below)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n),
                                                      _masks_of(n, 10))))
def test_chain_across_a_cut_is_the_longest_chain(board):
    # the rows cut after any row: the chain across the cut, read off the
    # upper rows' thresholds and the lower rows' turned a half turn, is
    # the longest chain of the whole board
    n, masks = board
    M = BinaryMatrix.from_masks(len(masks), n, masks)
    longest = longest_increasing_chain_quadratic(M)
    above = []
    for mk, below in zip(masks, _tails_below(masks, n)):
        _sweep(above, (mk,))
        assert _chain_across(tuple(above), below, n) == longest


@st.composite
def _fillings(draw):
    """A random 0/1 filling of a random skew shape in a 12x12 box."""
    lam = sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=12)),
                 reverse=True)
    mu = [draw(st.integers(0, part - 1)) for part in lam]
    mu = [min(mu[:i + 1]) for i in range(len(mu))]  # weakly decreasing
    sh = SkewShape(lam, mu)
    n = sh.n_cols
    masks = []
    for i in range(1, sh.n_rows + 1):
        lo, hi = sh.row_span(i)
        inside = ((1 << (hi - lo)) - 1) << (n - hi)
        masks.append(draw(st.integers(0, (1 << n) - 1)) & inside)
    return Filling.from_masks(sh, masks)


@settings(max_examples=100, deadline=None)
@given(_fillings())
def test_mask_chain_routine_matches_the_quadratic_twin_on_fillings(F):
    sh = F.shape
    M = BinaryMatrix.from_masks(sh.n_rows, sh.n_cols, F.masks)
    assert longest_increasing_chain(F) == longest_increasing_chain_quadratic(M)


def test_chain_known_values():
    assert longest_increasing_chain(BinaryMatrix([[0, 0], [0, 0]])) == 0
    assert longest_increasing_chain(BinaryMatrix([[1, 1], [1, 1]])) == 2
    assert longest_increasing_chain(BinaryMatrix([[0, 1], [1, 0]])) == 1
    I3 = BinaryMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert longest_increasing_chain(I3) == 3
    # one long row never chains
    assert longest_increasing_chain(BinaryMatrix([[1, 1, 1, 1, 1]])) == 1


def test_contains_ik():
    M = BinaryMatrix([[1, 0], [0, 1]])
    assert contains_ik(M, 1) and contains_ik(M, 2) and not contains_ik(M, 3)
    with pytest.raises(ValueError):
        contains_ik(M, 0)


def test_max_ones_values():
    assert max_ones(3, 4, 3) == 10
    assert max_ones(2, 2, 2) == 3
    assert max_ones(9, 7, 5) == 48
    assert max_ones(9, 12, 5) == 68
    for bad in [(3, 4, 1), (3, 4, 4), (2, 5, 3)]:
        with pytest.raises(ValueError):
            max_ones(*bad)


@pytest.mark.parametrize("bad", [
    (3.5, 3, 2), (3, 3.0, 2), (3, 3, 2.0), (True, 3, 2), (3, True, 2),
    (3, 3, True), ("3", 3, 2), (3, 3, None)])
def test_board_sides_must_be_ints(bad):
    # 3.5 x 3 once gave 5.5 ones, and a bool passed as 1
    with pytest.raises(ValueError, match="must be integers"):
        max_ones(*bad)


def test_maximality_tests_agree_exhaustively():
    for m, n in [(2, 2), (2, 3), (3, 3), (2, 4)]:
        for M in all_matrices(m, n):
            for k in range(2, min(m, n) + 1):
                assert is_maximal_iam(M, k) == is_maximal_iam_by_flips(M, k)


@functools.cache
def _listed_maximal(m, n, k):
    return [M.masks for M in enumerate_maximal_iams(m, n, k)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_maximality_tests_agree_random(data):
    # boards from 2x2 to 6x6, with every k they admit; half the matrices
    # are random, half listed maximal ones with at most one bit flipped,
    # so that the zero loop also meets nearly maximal ones
    m, n = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 6))
    k = data.draw(st.integers(2, min(m, n)))
    if data.draw(st.booleans()):
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                   min_size=m, max_size=m))
    else:
        masks = list(data.draw(st.sampled_from(_listed_maximal(m, n, k))))
        cell = data.draw(st.integers(-1, m * n - 1))
        if cell >= 0:
            masks[cell // n] ^= 1 << (cell % n)
    M = BinaryMatrix.from_masks(m, n, masks)
    assert is_maximal_iam(M, k) == is_maximal_iam_by_flips(M, k)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n),
                                                      _masks_of(n, 8))))
def test_zero_bounds_match_the_quadratic_twin(board):
    # each zero's bounds, read off the thresholds of the rows above and of
    # the rows below turned a half turn, are the longest chains of the
    # sub-boards strictly above-left and strictly below-right of it
    n, masks = board
    m = len(masks)
    got = list(_zero_bounds(masks, n, [(0, n)] * m))
    M = BinaryMatrix.from_masks(m, n, masks)
    assert [(i, j) for i, j, _, _ in got] == M.zero_cells()
    for i, j, up, down in got:
        above_left = [mk >> (n - j + 1) for mk in masks[:i - 1]]
        below_right = [mk & ((1 << (n - j)) - 1) for mk in masks[i:]]
        for rows, width, bound in ((above_left, j - 1, up),
                                   (below_right, n - j, down)):
            want = (longest_increasing_chain_quadratic(
                BinaryMatrix.from_masks(len(rows), width, rows))
                if rows and width else 0)
            assert bound == want, (i, j)


def test_matrix_json_roundtrip():
    M = BinaryMatrix([[0, 1, 1], [1, 1, 0]])
    assert BinaryMatrix.from_json_dict(M.to_json_dict()) == M
    with pytest.raises(ValueError):
        BinaryMatrix.from_json_dict({"m": 3, "n": 3, "rows": [[0, 1, 1], [1, 1, 0]]})


def test_matrix_json_needs_integer_dimensions():
    # a declared side of true or 2.0 once compared equal to the row count
    # and was accepted
    for m, n in ((True, 2), (1.0, 2), (1, 2.0), (1, "2"), (None, 2)):
        with pytest.raises(ValueError, match="must be integers"):
            BinaryMatrix.from_json_dict({"m": m, "n": n, "rows": [[1, 0]]})
    assert BinaryMatrix.from_json_dict({"m": 1, "n": 2, "rows": [[1, 0]]}) \
        == BinaryMatrix([[1, 0]])


def test_matrix_validation():
    with pytest.raises(ValueError):
        BinaryMatrix([[0, 2]])
    with pytest.raises(ValueError):
        BinaryMatrix([[0, 1], [1]])
    with pytest.raises(ValueError):
        BinaryMatrix([])
    # JSON true and 1.0 compare equal to 1, but are not entries
    for x in (True, False, 1.0, 0.0):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            BinaryMatrix([[0, x]])


def test_packed_grids_share_their_cell_lists():
    M = BinaryMatrix([[0, 1, 1], [1, 0, 0]])
    assert M.one_cells() == [(1, 2), (1, 3), (2, 1)]
    assert M.zero_cells() == [(1, 1), (2, 2), (2, 3)]
    assert M.ones_count() == 3 and M.masks == (0b011, 0b100)
    # a filling's zeros are its in-shape zeros only
    sh = SkewShape((3, 2), (1, 0))
    F = Filling(sh, {(1, 2): 1, (1, 3): 0, (2, 1): 0, (2, 2): 1})
    assert F.one_cells() == [(1, 2), (2, 2)]
    assert F.zero_cells() == [(1, 3), (2, 1)]
    assert F.ones_count() == 2 and F.masks == (0b010, 0b010)


def test_partition_basics():
    p = Partition((4, 2, 2, 1))
    assert p.part(1) == 4 and p.part(5) == 0
    assert p.size() == 9
    assert p.contains((3, 2, 1)) and not p.contains((5,))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_durfee():
    assert Partition(()).durfee() == 0
    assert Partition((1,)).durfee() == 1
    assert Partition((3, 3, 1)).durfee() == 2
    assert Partition((5, 4, 3)).durfee() == 3
    assert Partition((2, 2, 2, 2)).durfee() == 2


def test_skew_shape_cells():
    sh = SkewShape((3, 3, 2), (1, 0, 0))
    assert sh.cell_count() == 7
    assert sh.contains_cell(1, 2) and not sh.contains_cell(1, 1)
    assert not sh.contains_cell(3, 3)
    assert sh.row_span(1) == (1, 3)
    assert not sh.is_rectangle()
    assert SkewShape((4, 4, 4)).is_rectangle()
    with pytest.raises(ValueError):
        SkewShape((2, 2), (3, 0))
    with pytest.raises(ValueError):
        SkewShape((2,), (1, 1))


def test_zero_parts_of_lambda_are_dropped():
    # they cut out no cells, so the shape is the same diagram without them;
    # a Partition keeps them as given
    assert SkewShape((3, 0)) == SkewShape((3,))
    assert hash(SkewShape((3, 0))) == hash(SkewShape((3,)))
    assert SkewShape((3, 2, 0, 0), (1,)) == SkewShape((3, 2), (1, 0))
    assert SkewShape((3, 0), (1, 0)).to_json_dict() == \
        {"lambda": [3], "mu": [1]}
    assert SkewShape((0,)) == SkewShape(()) and SkewShape((0,)).n_rows == 0
    with pytest.raises(ValueError):
        SkewShape((3, 0), (1, 1))  # mu is checked before the drop


def test_filling_construction_and_json():
    sh = SkewShape((3, 2), (1, 0))
    cells = sh.cells()
    F = Filling(sh, {c: 1 for c in cells})
    assert F.ones_count() == 4
    assert Filling.from_json_dict(F.to_json_dict()) == F
    with pytest.raises(ValueError):
        Filling(sh, {(1, 2): 1})  # missing cells
    with pytest.raises(KeyError):
        F.value(1, 1)


def test_filling_json_needs_one_row_per_shape_row():
    # an extra row is refused whether or not it is empty, and so is a
    # missing one, even when the shape's other rows hold every cell
    for rows in ([[1, 0], []], [[1, 0], [], [], []], [[1, 0], [1]], []):
        with pytest.raises(ValueError, match="expected 1 rows"):
            Filling.from_json_dict({"lambda": [2], "rows": rows})
    sh = SkewShape((2, 2), (2, 0))  # row 1 holds no cell
    with pytest.raises(ValueError, match="expected 2 rows"):
        Filling.from_json_dict({"lambda": [2, 2], "mu": [2],
                                "rows": [[1, 1]]})
    F = Filling.from_masks(sh, (0, 0b10))
    assert F.to_json_dict()["rows"] == [[], [1, 0]]
    assert Filling.from_json_dict(F.to_json_dict()) == F


def test_partitions_and_fillings_take_only_ints():
    # JSON true and 2.7 are not parts, nor true and 1.0 entries; none is
    # truncated or cast
    with pytest.raises(ValueError, match="parts must be integers"):
        Partition((2.7, 1))
    with pytest.raises(ValueError, match="parts must be integers"):
        SkewShape.from_json_dict({"lambda": [3.9, 2], "mu": [True]})
    with pytest.raises(ValueError, match="parts must be integers"):
        SkewShape((3, 2), (True,))
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        Filling.from_json_dict({"lambda": [2, 2], "mu": [],
                                "rows": [[True, 1.0], [0, 0]]})
    for x in (True, False, 1.0, 0.0):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            Filling(SkewShape((2,)), {(1, 1): 0, (1, 2): x})
    assert Partition((3, 0)).parts == (3, 0)


def all_fillings(sh):
    cells = sh.cells()
    for bits in itertools.product((0, 1), repeat=len(cells)):
        yield Filling(sh, dict(zip(cells, bits)))


@pytest.mark.parametrize("lam,mu", [
    ((3, 3, 2), (1, 0, 0)),
    ((3, 3, 3), ()),
    ((4, 3, 2), (2, 1, 0)),
    ((3, 2, 2), (0, 0, 0)),
])
def test_in_shape_box_containment_matches_chains(lam, mu):
    # For skew shapes the box corners required by the literal containment
    # test are automatic, so it must agree with plain chain containment.
    sh = SkewShape(lam, mu)
    for F in all_fillings(sh):
        for k in (2, 3):
            assert contains_ik_in_shape(F, k) == \
                (longest_increasing_chain(F) >= k)


def _maximal_by_literal_flips(F, k):
    """Maximality of a filling by the box definition of containment: flip
    each in-shape zero and re-test."""
    if contains_ik_in_shape(F, k):
        return False
    for (i, j) in F.zero_cells():
        vals = dict(F.items())
        vals[(i, j)] = 1
        if not contains_ik_in_shape(Filling(F.shape, vals), k):
            return False
    return True


@st.composite
def _near_maximal_fillings(draw):
    """A listed maximal filling of a skew shape in a 5x5 box, k = 2 or 3,
    with one in-shape bit flipped or none."""
    lam = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=5)),
                 reverse=True)
    mu = [draw(st.integers(0, part - 1)) for part in lam]
    sh = SkewShape(lam, [min(mu[:i + 1]) for i in range(len(mu))])
    k = draw(st.integers(2, 3))
    listed = list(enumerate_maximal_fillings(sh, k))  # never empty
    masks = list(draw(st.sampled_from(listed)).masks)
    cell = draw(st.sampled_from([None] + sh.cells()))
    if cell is not None:
        masks[cell[0] - 1] ^= 1 << (sh.n_cols - cell[1])
    return Filling.from_masks(sh, masks), k


def test_filling_maximality_against_literal_flips_exhaustively():
    sh = SkewShape((3, 3, 2), (1, 0, 0))
    for F in all_fillings(sh):
        assert is_maximal_filling(F, 2) == _maximal_by_literal_flips(F, 2)


@settings(max_examples=100, deadline=None)
@given(_fillings(), st.integers(2, 3), _near_maximal_fillings())
def test_filling_maximality_against_literal_flips(F, k, near):
    # random fillings, and maximal ones with at most one bit flipped, so
    # that both answers occur
    assert is_maximal_filling(F, k) == _maximal_by_literal_flips(F, k)
    G, k = near
    assert is_maximal_filling(G, k) == _maximal_by_literal_flips(G, k)


def test_rectangular_filling_embeds():
    sh = SkewShape((2, 2))
    F = Filling(sh, {(1, 1): 1, (1, 2): 0, (2, 1): 1, (2, 2): 1})
    assert F.as_matrix() == BinaryMatrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        Filling(SkewShape((2, 1)), {(1, 1): 1, (1, 2): 1, (2, 1): 1}).as_matrix()


# ---------------------------------------------------------------------------
# the small immutable records


@pytest.mark.parametrize("make, other, text", [
    (lambda: EnumerationBudget(max_cells=9), EnumerationBudget(),
     "EnumerationBudget(max_cells=9, max_results=None)"),
    (lambda: TruncatedRect(3, 4, 2, 1), TruncatedRect(3, 4, 2, 2),
     "TruncatedRect(m=3, n=4, k=2, t=1)"),
    (lambda: StatRecord(v=1, v_d=0, d=(1, 0)), StatRecord(1, 0, (0, 1)),
     "StatRecord(v=1, v_d=0, d=(1, 0))"),
    (lambda: PlanePartition(2, 2, 1, [[1, 0], [0, 0]]),
     PlanePartition(2, 2, 1, [[1, 1], [0, 0]]),
     "PlanePartition(a=2, b=2, c=1, pi=((1, 0), (0, 0)))"),
    (lambda: PathFamily([[(1, 0), (2, 0), (2, 1)]]),
     PathFamily([[(1, 0), (1, 1), (2, 1)]]),
     "PathFamily(paths=(((1, 0), (2, 0), (2, 1)),))"),
    (lambda: Partition((3, 1)), Partition((3, 1, 0)),
     "Partition(parts=(3, 1))"),
    (lambda: SkewShape((3, 3), (1, 0)), SkewShape((3, 3)),
     "SkewShape(lam=Partition(parts=(3, 3)), mu=Partition(parts=(1, 0)))"),
    (lambda: QPoly([1, 2]), QPoly([1, 2, 1]), "QPoly(coeffs=(1, 2))"),
])
def test_records_are_immutable_values(make, other, text):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != other
    assert repr(a) == text
    # equal only to the same type, never to a tuple of the same fields
    assert a != tuple(getattr(a, f) for f in a.__slots__)
    for field in a.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert pickle.loads(pickle.dumps(a)) == a


def test_a_plane_partition_in_a_set_stays_found():
    # the stream keeps each matrix's plane partition in a set; an
    # assignment that went through would change its hash and lose it there
    pp = PlanePartition(2, 2, 1, [[1, 0], [0, 0]])
    pps = {pp}
    with pytest.raises(AttributeError):
        pp.c = 5
    assert pp.c == 1 and pp in pps
    assert PlanePartition(2, 2, 1, [[1, 0], [0, 0]]) in pps


def test_budget_refuses_max_results_that_are_not_ints():
    # True once listed one object, 1.5 and 2.0 failed later inside islice
    # with its own message, and "3" raised TypeError
    for bad in (True, False, 1.5, 2.0, "3", -1):
        with pytest.raises(ValueError, match="max_results"):
            EnumerationBudget(max_results=bad)
    assert EnumerationBudget(max_results=None).max_results is None
    assert EnumerationBudget(max_results=3).max_results == 3


def test_records_validate_their_fields():
    assert EnumerationBudget(max_results=0).max_results == 0
    with pytest.raises(ValueError):
        EnumerationBudget(max_results=-1)
    assert EnumerationBudget(max_cells=0).max_cells == 0
    for cells in (-1, True, False, 2.0, "4", None):
        with pytest.raises(ValueError, match="max_cells"):
            EnumerationBudget(max_cells=cells)
    with pytest.raises(ValueError):
        TruncatedRect(3, 4, 2, 0)   # t must be m-k or m-k+1
    with pytest.raises(ValueError):
        TruncatedRect(4, 3, 2, 2)   # m <= n
