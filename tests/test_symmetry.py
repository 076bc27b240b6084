"""Dihedral action, class membership, and plane-partition symmetries."""

import functools
import hashlib
import operator
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iamkit.bijection import enumerate_pp, matrix_to_pp
from iamkit.core import BinaryMatrix
from iamkit.formulas import _SQUARE_ONLY, SYMMETRY_TAGS, count_symmetry
from iamkit.oracle import (
    BudgetExceeded,
    EnumerationBudget,
    _board,
    _Search,
    enumerate_maximal_iams,
    oracle_count,
)
from iamkit.symmetry import (
    D8_ELEMENTS,
    _ELEMENTS,
    _TAG_ELEMENTS,
    _cell_images,
    _fold_count,
    _orbits,
    _tags_of,
    apply,
    brute_count_class,
    class_histogram,
    classes_of,
    compose,
    enumerate_fixed_points,
    is_S,
    is_SC,
    is_SSC,
    is_TC,
    pp_complement,
    pp_reflect,
)


def test_apply_shapes():
    M = BinaryMatrix([[1, 0, 1], [0, 1, 1]])
    assert apply(M, "transpose").to_lists() == [[1, 0], [0, 1], [1, 1]]
    assert apply(M, "fliph").to_lists() == [[0, 1, 1], [1, 0, 1]]
    assert apply(M, "flipv").to_lists() == [[1, 0, 1], [1, 1, 0]]
    assert apply(M, "rot180").to_lists() == [[1, 1, 0], [1, 0, 1]]
    assert apply(M, "rot90").to_lists() == [[0, 1], [1, 0], [1, 1]]
    with pytest.raises(ValueError):
        apply(M, "spin")


def test_group_composition_table():
    # closure and the composition law on a matrix with trivial stabilizer
    M = BinaryMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 0]])
    for g in D8_ELEMENTS:
        for h in D8_ELEMENTS:
            assert apply(apply(M, h), g) == apply(M, compose(g, h))


def test_group_inverses():
    M = BinaryMatrix([[1, 1, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0]])
    pairs = [("rot90", "rot270"), ("transpose", "transpose"),
             ("fliph", "fliph"), ("flipv", "flipv"),
             ("rot180", "rot180"), ("antitranspose", "antitranspose")]
    for g, ginv in pairs:
        assert apply(apply(M, g), ginv) == M


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_rot90_has_order_four(rows):
    M = BinaryMatrix(rows)
    R = M
    for _ in range(4):
        R = apply(R, "rot90")
    assert R == M


def reference_apply(rows, g):
    """The dihedral action by index arithmetic on nested lists."""
    m, n = len(rows), len(rows[0])
    at = {
        "id": (m, n, lambda i, j: rows[i][j]),
        "rot180": (m, n, lambda i, j: rows[m - 1 - i][n - 1 - j]),
        "fliph": (m, n, lambda i, j: rows[m - 1 - i][j]),
        "flipv": (m, n, lambda i, j: rows[i][n - 1 - j]),
        "transpose": (n, m, lambda i, j: rows[j][i]),
        "antitranspose": (n, m, lambda i, j: rows[m - 1 - j][n - 1 - i]),
        "rot90": (n, m, lambda i, j: rows[m - 1 - j][i]),
        "rot270": (n, m, lambda i, j: rows[j][n - 1 - i]),
    }
    rows_out, cols_out, entry = at[g]
    return [[entry(i, j) for j in range(cols_out)] for i in range(rows_out)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 19).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                       min_size=1, max_size=19)))
def test_apply_matches_list_reference(rows):
    # widths past 8 bits exercise the chunked table lookups
    M = BinaryMatrix(rows)
    for g in D8_ELEMENTS:
        assert apply(M, g).to_lists() == reference_apply(rows, g), g


def test_classes_of_wide_fixture():
    # 9 x 12 matrix, maximal for k = 5, fixed by both axis reflections
    rows = []
    for i in range(1, 10):
        if i in (1, 2, 8, 9):
            rows.append([1] * 12)
        else:
            rows.append([1, 1] + [0] * 8 + [1, 1])
    M = BinaryMatrix(rows)
    tags = classes_of(M, 5)
    assert {"U", "VS", "HS", "VHS", "HTS"} <= tags
    assert "DS" not in tags and "QTS" not in tags  # not square


# Each tag and the group elements that fix a matrix carrying it, written
# out apart from the census's own table: TS lists the whole group.
SUBGROUPS = {"VS": ("flipv",), "HS": ("fliph",), "VHS": ("flipv", "fliph"),
             "HTS": ("rot180",)}
SQUARE_SUBGROUPS = {"DS": ("transpose",), "AS": ("antitranspose",),
                    "DAS": ("transpose", "antitranspose"), "QTS": ("rot90",),
                    "TS": D8_ELEMENTS}


def subgroups(m, n):
    """The subgroups of the tags an m x n matrix can carry besides U."""
    return {**SUBGROUPS, **(SQUARE_SUBGROUPS if m == n else {})}


def _tags_by_apply(M):
    """The tags of M from their definition, through `apply` alone."""
    fixed = {g: apply(M, g) == M for g in D8_ELEMENTS}
    tags = {"U"}
    tags.update(tag for tag, gs in subgroups(M.m, M.n).items()
                if all(fixed[g] for g in gs))
    return frozenset(tags)


def test_tags_equal_their_apply_definition():
    # every maximal matrix on every board up to 5x5
    for m in range(2, 6):
        for n in range(2, 6):
            for k in range(2, min(m, n) + 1):
                for M in enumerate_maximal_iams(m, n, k):
                    assert classes_of(M, k) == _tags_by_apply(M)


def _generated(elements):
    """Every element of the subgroup these elements generate."""
    group, todo = {"id"}, ["id"]
    while todo:
        g = todo.pop()
        for e in elements:
            h = compose(e, g)
            if h not in group:
                group.add(h)
                todo.append(h)
    return group


def _symmetrized(M, elements):
    """M made fixed by these elements: each cell the OR over its orbit."""
    images = [apply(M, g).masks for g in _generated(elements)]
    return BinaryMatrix.from_masks(M.m, M.n, [functools.reduce(
        operator.or_, rows) for rows in zip(*images)])


def _rule_keeps(orbits, masks):
    """Does every row obey its entry of the orbit table, read row by row as
    `oracle._Search._listed` reads it?"""
    for d, mask in enumerate(masks):
        fixed, sources, keep = orbits[d]
        values = 0
        for bit, i0, shift in sources:
            if (masks[i0] >> shift) & 1:
                values |= bit
        if mask & fixed != values or (keep is not None and not keep(mask)):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda mn: st.tuples(
        st.just(mn),
        st.lists(st.integers(0, (1 << mn[1]) - 1),
                 min_size=mn[0], max_size=mn[0]),
        st.none() | st.sampled_from(sorted(subgroups(*mn))))))
def test_orbit_rule_keeps_exactly_the_fixed_matrices(case):
    # random matrices, half of them made symmetric under one tag's
    # subgroup (each cell the OR over its orbit), so that fixed ones occur
    (m, n), masks, sym = case
    M = BinaryMatrix.from_masks(m, n, masks)
    if sym is not None:
        M = _symmetrized(M, subgroups(m, n)[sym])
        assert all(apply(M, g) == M for g in subgroups(m, n)[sym])
    for tag, elements in subgroups(m, n).items():
        want = all(apply(M, g) == M for g in elements)
        assert _rule_keeps(_orbits(elements, m, n), M.masks) == want, \
            (M, tag)
    # on a square board the odd elements alone as well
    if m == n:
        for g in D8_ELEMENTS:
            assert _rule_keeps(_orbits((g,), m, n), M.masks) == \
                (apply(M, g) == M), (M, g)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda m: st.tuples(st.just(m), st.just(m) | st.integers(1, 12))).flatmap(
    lambda mn: st.tuples(
        st.just(mn),
        st.lists(st.integers(0, (1 << mn[1]) - 1),
                 min_size=mn[0], max_size=mn[0]),
        st.none() | st.sampled_from(sorted(subgroups(*mn))))))
def test_tags_past_the_lookup_tables_equal_their_apply_definition(case):
    # random matrices, not only maximal ones, with sides up to 12, so the
    # transposing images go through more than one 8-bit table chunk; half
    # are made symmetric under one tag's subgroup, so that tags occur
    (m, n), masks, sym = case
    M = BinaryMatrix.from_masks(m, n, masks)
    if sym is not None:
        M = _symmetrized(M, subgroups(m, n)[sym])
    assert _tags_of(M.masks, m, n) == _tags_by_apply(M)


def _cell_images_by_coordinates(g, m, n):
    """Where g moves each cell, by coordinates: g's base image in
    `_ELEMENTS`, then the row order reversed if g asks for it.  An
    independent twin of `_cell_images`, which reads the images off
    `apply` on bit-plane matrices."""
    base, reverse = _ELEMENTS[g]
    image = []
    for i in range(m):
        for j in range(n):
            if base == "flipv":
                i2, j2 = i, n - 1 - j
            elif base == "transpose":
                i2, j2 = j, i
            elif base == "rot90":  # the transpose of the rows reversed
                i2, j2 = j, m - 1 - i
            else:
                i2, j2 = i, j
            if reverse:
                i2 = m - 1 - i2
            image.append(i2 * n + j2)
    return image


def test_cell_images_equal_their_apply_definition():
    # every board up to 6x6, and two long thin boards; the odd elements
    # only on square boards, where they keep the shape
    odd = {"rot90", "rot270", "transpose", "antitranspose"}
    sides = [(m, n) for m in range(1, 7) for n in range(1, 7)]
    for m, n in sides + [(2, 1200), (1200, 2)]:
        for g in D8_ELEMENTS:
            if m != n and g in odd:
                with pytest.raises(ValueError):
                    _cell_images(g, m, n)
            else:
                assert _cell_images(g, m, n) == \
                    _cell_images_by_coordinates(g, m, n), (g, m, n)


def test_classes_of_rejects_non_maximal():
    with pytest.raises(ValueError):
        classes_of(BinaryMatrix([[1, 0], [0, 1]]), 2)


def test_brute_counts_spot():
    assert brute_count_class("DS", 3, 3, 3) == 3
    assert brute_count_class("HTS", 3, 4, 3) == 2
    assert brute_count_class("U", 4, 4, 3) == 20
    hist = class_histogram(5, 5, 3)
    for tag in ("U", "DS", "AS", "HTS", "DAS", "VS"):
        assert hist[tag] == count_symmetry(tag, 5, 5, 3)


def boards(top):
    return [(m, n, k) for m in range(2, top + 1) for n in range(2, top + 1)
            for k in range(2, min(m, n) + 1)]


def test_class_histogram_equals_tagging_the_stream():
    # the census searches fixed points; the twin tags every listed matrix
    for m, n, k in boards(6):
        twin = Counter()
        for M in enumerate_maximal_iams(m, n, k):
            twin.update(classes_of(M, k))
        assert class_histogram(m, n, k) == twin, (m, n, k)


def test_fixed_points_equal_the_filtered_stream():
    # every element, the odd ones on square boards only
    for m, n, k in boards(5):
        stream = list(enumerate_maximal_iams(m, n, k))
        for g in D8_ELEMENTS:
            if m != n and apply(stream[0], g).m != m:
                continue
            want = [M for M in stream if apply(M, g) == M]
            assert list(enumerate_fixed_points(m, n, k, g)) == want, \
                (m, n, k, g)


def test_brute_count_class_equals_the_census():
    # brute_count_class runs only the one search that counts its tag
    for m, n, k in boards(6):
        hist = class_histogram(m, n, k)
        for tag in SYMMETRY_TAGS:
            assert brute_count_class(tag, m, n, k) == hist[tag], (m, n, k, tag)
    with pytest.raises(ValueError):
        brute_count_class("XS", 3, 3, 2)


def test_census_lists_each_orbit_table_once(monkeypatch):
    # on a square board VS and HS are both the fixed points of flipv on
    # one board, so the census lists them once and reads that count twice;
    # on every board, no (board, orbit table) pair is listed twice
    started = []
    start = _Search.start

    def recording(self, orbits=None):
        started.append((self.m, self.n, orbits))
        return start(self, orbits)

    monkeypatch.setattr(_Search, "start", recording)
    for m, n, k in boards(5):
        started.clear()
        hist = class_histogram(m, n, k)
        assert len(started) == len(set(started)), (m, n, k)
        flipv = _orbits(("flipv",), m, n)
        assert sum(orbits is flipv for _, _, orbits in started) == 1, \
            (m, n, k)
        for tag in SYMMETRY_TAGS:
            if m == n or tag not in _SQUARE_ONLY:
                assert hist[tag] == count_symmetry(tag, m, n, k), \
                    (m, n, k, tag)


def wide_boards(top_m, top_n):
    """(m, n, k) for every board with m < n, m <= top_m, n <= top_n."""
    return [(m, n, k) for m in range(2, top_m + 1)
            for n in range(m + 1, top_n + 1) for k in range(2, m + 1)]


def test_transpose_swaps_the_fixed_points_of_flipv_and_fliph():
    # a wide board's census runs on its transpose and counts VS there as
    # HS and HS as VS; the counts cannot show a missing swap (VS = HS =
    # VHS is 0 or 1 on every non-square board), so the listings do
    for m, n, k in wide_boards(6, 7):
        for g, image in (("fliph", "flipv"), ("flipv", "fliph"),
                         ("rot180", "rot180")):
            turned = {apply(M, "transpose")
                      for M in enumerate_fixed_points(m, n, k, g)}
            assert turned == set(enumerate_fixed_points(n, m, k, image)), \
                (m, n, k, g)


def test_wide_row_searches_equal_the_narrow_side():
    # counts and censuses of a wide board run U, HTS and VHS on its
    # transpose, so the search over the long rows is kept covered here:
    # its count, its fold and each tag's orbit listing on it must equal
    # what the census reports
    for m, n, k in wide_boards(7, 7):
        search = _board(m, n, k)
        assert search.total() == oracle_count(m, n, k), (m, n, k)
        hist = class_histogram(m, n, k)
        for tag, elements in _TAG_ELEMENTS.items():
            if tag == "U":
                want = search.total()
            elif tag == "HTS":
                want = _fold_count(search)
            elif tag in _SQUARE_ONLY:
                want = 0
            else:
                want = sum(1 for _ in search.start(_orbits(elements, m, n)))
            assert want == hist[tag], (m, n, k, tag)


def test_fold_count_equals_the_orbit_rule_listing():
    # every board up to 7x7, so odd heights (a middle row, left free by the
    # fold) and m > n too; the census and brute_count_class count HTS by
    # folding, so the listing under the rot180 orbit table is its twin here
    for m, n, k in boards(7):
        search = _board(m, n, k)
        listed = sum(1 for _ in search.start(_orbits(("rot180",), m, n)))
        assert _fold_count(search) == listed, (m, n, k)


def test_fold_count_on_tall_and_wide_boards():
    # the fold counts the top half's ones on the levels that lie wholly
    # inside it whatever its state, which on a tall board takes in levels
    # of the window and both kinds of corner level; every board with
    # n <= 6 <= m <= 40, in both orientations, against the HTS formula
    for n in range(2, 7):
        for m in range(6, 41):
            for k in range(2, n + 1):
                budget = EnumerationBudget(max_cells=m * n)
                for a, b in ((m, n), (n, m)):
                    assert brute_count_class("HTS", a, b, k, budget) == \
                        count_symmetry("HTS", a, b, k), (a, b, k)


def test_a_lone_fold_sums_only_the_top_half():
    # the fold reads the count's layer after the top m // 2 rows (and, on
    # an odd board, the successor rows after it as the middle row), so on
    # a fresh search it sums no layer past that one
    for m, n, k in [(2, 2, 2), (5, 4, 3), (6, 6, 3), (7, 5, 4), (8, 3, 2)]:
        search = _board(m, n, k)
        _fold_count(search)
        assert len(search._layers) == m // 2 + 1, (m, n, k)


def test_fliph_fixed_points_equal_the_orbit_rule_listing():
    # the fixed points of fliph are listed as the transposes of the flipv-
    # fixed matrices of the transposed board, sorted; on every board up to
    # 7x7 they must be the listing under fliph's own orbit table on the
    # board itself, matrix for matrix and in the same order
    for m, n, k in boards(7):
        search = _board(m, n, k)
        want = list(search.start(_orbits(("fliph",), m, n)))
        got = [M.masks for M in enumerate_fixed_points(m, n, k, "fliph")]
        assert got == want, (m, n, k)


def test_listings_on_a_shared_search_equal_fresh_ones():
    # the listing keeps each state's children, before any orbit table, on
    # the search, and every listing on it reads them: the DS, AS, VS, ...
    # listings of a census after its U count, the certifier's stream.  On
    # every board up to 6x6, each subgroup's listing and the unrestricted
    # one, run twice in turn on one search after its U count, must each
    # equal that listing on a fresh search.  A copy that keeps the children
    # the table left instead fails here: the table listings run first, and
    # the unrestricted one then misses matrices
    for m, n, k in boards(6):
        listings = [(tag, _orbits(elements, m, n))
                    for tag, elements in sorted(subgroups(m, n).items())]
        listings.append(("U", None))
        fresh = {name: list(_board(m, n, k).start(orbits))
                 for name, orbits in listings}
        shared = _board(m, n, k)
        shared.total()
        for _ in range(2):
            for name, orbits in listings:
                assert list(shared.start(orbits)) == fresh[name], \
                    (m, n, k, name)


def test_fold_and_transpose_on_boards_taller_than_the_recursion_limit():
    # the fold sums the top half row by row, so it does not use Python's
    # call stack; HS is VS of the transposed board, two rows of m columns,
    # whose rows are built column by column in a loop
    for m in (1200, 1201):
        assert m > sys.getrecursionlimit()
        budget = EnumerationBudget(max_cells=2 * m)
        for tag in ("HTS", "HS"):
            assert brute_count_class(tag, m, 2, 2, budget) == \
                count_symmetry(tag, m, 2, 2), (m, tag)


@pytest.mark.parametrize("g,size,digest", [
    ("rot180", 120,
     "090069368bf50e99d85d2bcd8647f054f7d6a9b173f61d9a90c31e9fed168a39"),
    ("transpose", 672,
     "8d218f8a91af959c0121bb29a56f57c08ccc9710f403b537c57636e81fdcebf3"),
])
def test_fixed_points_are_pinned(g, size, digest):
    # frozen from the rectangle search that kept the ones count in its
    # state: the same matrices in the same order
    masks = [M.masks for M in enumerate_fixed_points(
        7, 7, 4, g, EnumerationBudget(max_cells=49))]
    assert len(masks) == size
    assert hashlib.sha256(repr(masks).encode()).hexdigest() == digest


def test_fixed_points_reject_other_elements():
    with pytest.raises(ValueError):
        enumerate_fixed_points(3, 3, 2, "spin")
    for g in ("transpose", "antitranspose", "rot90", "rot270"):
        with pytest.raises(ValueError):
            enumerate_fixed_points(3, 4, 2, g)
    # the identity fixes the whole stream; a quarter turn either way fixes
    # the same matrices
    assert list(enumerate_fixed_points(3, 3, 2, "id")) == \
        list(enumerate_maximal_iams(3, 3, 2))
    quarter = list(enumerate_fixed_points(5, 5, 3, "rot90"))
    assert quarter == list(enumerate_fixed_points(5, 5, 3, "rot270"))
    assert len(quarter) == count_symmetry("QTS", 5, 5, 3) == 1


def test_census_keeps_the_listing_budget():
    # the census still lists the fixed points of every tag but U and HTS,
    # which it counts by the forward sum and the fold, so the default
    # 64-cell cap applies
    with pytest.raises(BudgetExceeded):
        class_histogram(9, 9, 5)
    with pytest.raises(BudgetExceeded):
        enumerate_fixed_points(9, 9, 5, "transpose")
    assert len(list(enumerate_fixed_points(
        5, 5, 3, "transpose", EnumerationBudget(max_results=2)))) == 2
    with pytest.raises(BudgetExceeded):
        class_histogram(3, 3, 2, EnumerationBudget(max_cells=8))
    assert class_histogram(4, 4, 3, EnumerationBudget(max_cells=16))["U"] \
        == count_symmetry("U", 4, 4, 3)


# ---------------------------------------------------------------------------
# transport to plane-partition symmetries


def transported(M, k):
    return matrix_to_pp(M, k)


def test_class_transport_on_squares():
    # transpose-fixed <-> symmetric array, half-turn-fixed <-> self-
    # complementary, antitranspose-fixed <-> transpose-complementary
    for n in range(2, 6):
        for k in range(2, n + 1):
            for M in enumerate_maximal_iams(n, n, k):
                tags = classes_of(M, k)
                pp = transported(M, k)
                assert ("DS" in tags) == is_S(pp)
                assert ("AS" in tags) == is_TC(pp)
                assert ("HTS" in tags) == is_SC(pp)
                assert ("DAS" in tags) == is_SSC(pp)


def test_class_transport_half_turn_rectangles():
    for (m, n, k) in [(3, 4, 3), (4, 5, 3), (3, 5, 3), (4, 6, 4)]:
        for M in enumerate_maximal_iams(m, n, k):
            pp = transported(M, k)
            assert ("HTS" in classes_of(M, k)) == is_SC(pp)


def test_pp_reflect_and_complement_are_involutions():
    for pp in enumerate_pp(2, 2, 3):
        assert pp_complement(pp_complement(pp)) == pp
        assert pp_reflect(pp_reflect(pp)) == pp
    with pytest.raises(ValueError):
        pp_reflect(next(enumerate_pp(2, 3, 1)))


def test_symmetric_intersection_law():
    # on symmetric arrays, transpose-complementary and self-complementary
    # coincide (reflection fixes the array, so both reduce to the same test)
    for c in (1, 2, 3):
        for pp in enumerate_pp(3, 3, c):
            if is_S(pp):
                assert is_TC(pp) == is_SC(pp)
