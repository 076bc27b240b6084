"""Matrices, partitions, skew shapes and the increasing-chain predicates.

Everything downstream (oracles, bijections, counting formulas) is phrased in
terms of the objects defined here, and every search takes its budget type
from here.  Matrices are 1-indexed with row 1 at the top, like a printed
array.  An *increasing chain* of length k is a sequence of k one-entries
(i_1,j_1),...,(i_k,j_k) with i_1 < ... < i_k and j_1 < ... < j_k; a matrix
"contains I_k" when such a chain exists.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from operator import add, attrgetter


# ---------------------------------------------------------------------------
# binary matrices


class _PackedGrid:
    """Rows stored packed as integers, bit (w - j) holding column j of the
    grid's w columns, so integer order on a row mask equals lexicographic
    order on its entries.  Shared by BinaryMatrix and Filling, each of
    which gives its width (`_width`) and the span of each row, the
    half-open column pair (lo, hi] that holds its cells (`_spans`)."""

    __slots__ = ("_rows",)

    @property
    def masks(self):
        return self._rows

    def ones_count(self):
        return sum(mk.bit_count() for mk in self._rows)

    def one_cells(self):
        """All (i, j) with a 1, in row-major order."""
        return self._cells(self._rows)

    def zero_cells(self):
        """The cells inside the rows' spans holding a 0, in row-major
        order: every cell of a matrix, the shape's cells of a filling."""
        n = self._width()
        return self._cells(((1 << (hi - lo)) - 1) << (n - hi) & ~mk
                           for mk, (lo, hi) in zip(self._rows, self._spans()))

    def _cells(self, rows):
        """All (i, j) whose bit is set in the i-th of `rows`, row-major."""
        out = []
        n = self._width()
        for i, mk in enumerate(rows, start=1):
            while mk:  # highest bit first: columns ascending
                b = mk.bit_length()
                out.append((i, n + 1 - b))
                mk ^= 1 << (b - 1)
        return out


class BinaryMatrix(_PackedGrid):
    """An m-by-n (0,1)-matrix, rows packed with bit (n - j) holding
    column j.

    No function of iamkit changes a matrix's size or entries once it is
    built, but nothing refuses an assignment either: `M.n = 2` succeeds
    and changes M's equality and hash, so a matrix must not be assigned
    to once it sits in a set or a dict.  Unlike the `_Record` value types
    its slots are left unguarded, since three matrices are built per
    listed matrix of a stream.

    A matrix remembers the k for which `is_maximal_iam` found it maximal,
    so a later check with that k returns at once.  Only that function's
    own sweep sets it: every constructor, `symmetry.apply` and the
    listings start without one, the bijections verify each matrix they
    build afresh, and equality and hashing ignore it.  A matrix is
    maximal for at most one k, since flipping a zero of a maximal
    I_k-avoiding matrix makes a chain of exactly k.
    """

    __slots__ = ("m", "n", "_maximal_for")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        n = len(rows[0])
        masks = []
        for r in rows:
            if len(r) != n:
                raise ValueError("ragged rows")
            mask = 0
            for x in r:
                if type(x) is not int or x not in (0, 1):  # not bool
                    raise ValueError("entries must be 0 or 1, got %r" % (x,))
                mask = (mask << 1) | x
            masks.append(mask)
        self.m = len(rows)
        self.n = n
        self._rows = tuple(masks)
        self._maximal_for = None

    @classmethod
    def from_masks(cls, m, n, masks):
        """Fast constructor from packed row masks (bit n-j = column j)."""
        if m < 1 or n < 1:
            raise ValueError("matrix needs at least one row and one column")
        masks = tuple(masks)
        if len(masks) != m:
            raise ValueError("expected %d row masks" % m)
        top = 1 << n
        for mk in masks:
            if not 0 <= mk < top:
                raise ValueError("row mask out of range for %d columns" % n)
        obj = object.__new__(cls)
        obj.m = m
        obj.n = n
        obj._rows = masks
        obj._maximal_for = None
        return obj

    # -- access ------------------------------------------------------------

    def entry(self, i, j):
        """Entry at row i, column j (both 1-indexed)."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexError((i, j))
        return (self._rows[i - 1] >> (self.n - j)) & 1

    def _width(self):
        return self.n

    def _spans(self):
        return ((0, self.n),) * self.m

    def to_lists(self):
        n = self.n
        return [[(mk >> (n - j)) & 1 for j in range(1, n + 1)] for mk in self._rows]

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {"m": self.m, "n": self.n, "rows": self.to_lists()}

    @classmethod
    def from_json_dict(cls, obj):
        rows = obj["rows"]
        M = cls(rows)
        if type(obj["m"]) is not int or type(obj["n"]) is not int:
            raise ValueError("declared dimensions must be integers, got "
                             "%r x %r" % (obj["m"], obj["n"]))
        if M.m != obj["m"] or M.n != obj["n"]:
            raise ValueError("declared dimensions do not match rows")
        return M

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return (self.m, self.n, self._rows) == (other.m, other.n, other._rows)

    def __hash__(self):
        return hash((self.m, self.n, self._rows))

    def __repr__(self):
        return "BinaryMatrix(%r)" % (self.to_lists(),)

    def __str__(self):
        n = self.n
        return "\n".join(
            "".join(str((mk >> (n - j)) & 1) for j in range(1, n + 1))
            for mk in self._rows
        )


# ---------------------------------------------------------------------------
# increasing chains


def _sweep(tails, masks, limit=None):
    """Advance the thresholds `tails` of the rows above past the packed
    rows `masks` (bit n-j = column j of n), in place; return how many there
    are, or `limit` as soon as that many are found.

    Patience-sorting threshold sweep (Aldous-Diaconis 1999): tails[p] is
    the bit of the least column at which a chain of length p+1 ends among
    the rows so far, so the longest chain ending at or left of a column is
    the number of thresholds at or left of it.  The ones strictly right of
    that column are the bits below it, and the first of them is the
    highest.  Each row moves every threshold from the one before it, read
    before the row: O(len(tails)) per row.  Cells outside a skew shape
    never hold ones, so one routine serves matrices, fillings, the row
    search of `oracle`, which carries the thresholds as its state, and the
    per-cell chain bounds of the maximality tests (`_zero_bounds`), which
    sweep the rows below a cell turned a half turn.
    """
    for mk in masks:
        right = mk  # the ones right of column 0
        for p, old in enumerate(tails):
            if not right:
                break  # nothing right of this threshold, so of any later one
            t = right.bit_length() - 1
            right = mk & ((1 << old) - 1)  # read before threshold p moves
            if t > old:
                tails[p] = t
        else:
            if right:
                tails.append(right.bit_length() - 1)
                if len(tails) == limit:
                    return limit
    return len(tails)


def _longest_chain(masks, limit=None):
    """Longest increasing chain among the ones of packed rows, or `limit`
    as soon as a chain that long is found."""
    return _sweep([], masks, limit)


def _at_or_left(tails, n, c):
    """The longest chain ending at or left of column c, for thresholds
    `tails` over n columns: the number of them at or left of c."""
    return sum(t >= n - c for t in tails)


def _profile(tails, n):
    """[_at_or_left(tails, n, c) for c = 0..n], in one pass: a threshold at
    bit t is counted from column n-t on."""
    steps = [0] * (n + 1)
    for t in tails:
        steps[n - t] += 1
    return list(accumulate(steps))


def _chain_across(above, below, n):
    """The longest chain over two blocks of rows, one above the other, for
    the thresholds `above` of the upper block and `below` of the lower one
    turned a half turn.  A chain ending at or left of column c above goes
    on strictly right of c below, which the turn takes to at or left of
    column n-c: the best sum of the two profiles read in opposite
    directions."""
    return max(map(add, _profile(above, n), reversed(_profile(below, n))))


# Row masks are reversed and transposed through lookup tables indexed by up
# to _CHUNK bits at a time, wider masks chunk by chunk; the tables are built
# on first use, one per width or row count.
_CHUNK = 8
_CHUNK_MASK = (1 << _CHUNK) - 1


@functools.cache
def _rev_table(w):
    """rev[x] = the w low bits of x in reverse order."""
    rev = [0] * (1 << w)
    for x in range(1, 1 << w):
        rev[x] = (rev[x >> 1] >> 1) | ((x & 1) << (w - 1))
    return tuple(rev)


def _bitrev(mask, n):
    out = 0
    while n > _CHUNK:
        out = (out << _CHUNK) | _rev_table(_CHUNK)[mask & _CHUNK_MASK]
        mask >>= _CHUNK
        n -= _CHUNK
    return (out << n) | _rev_table(n)[mask]


@functools.cache
def _spread_table(stride):
    """spread[x] = x with bit t moved to bit t * stride."""
    spread = [0] * (1 << _CHUNK)
    for x in range(1, 1 << _CHUNK):
        low = x & -x
        spread[x] = spread[x ^ low] | (1 << ((low.bit_length() - 1) * stride))
    return tuple(spread)


def _transpose_masks(masks, m, n):
    """Row masks of the transpose of the m x n matrix with these rows."""
    # lay the rows out interleaved: column j's bits end up in one m-bit field,
    # row 1 in its high bit
    spread = _spread_table(m)
    acc = 0
    for r in masks:
        acc <<= 1
        shift = 0
        while r:
            acc |= spread[r & _CHUNK_MASK] << shift
            r >>= _CHUNK
            shift += _CHUNK * m
    full = (1 << m) - 1
    return tuple((acc >> (t * m)) & full for t in range(n - 1, -1, -1))


def _tails_below(masks, n):
    """For each of the packed rows, the thresholds of the rows after it
    turned a half turn: their order reversed, each mask bit-reversed.  The
    turn keeps chains increasing and takes column j to n+1-j, so the
    longest chain strictly below and right of a cell in column j is the
    number of these thresholds at or left of column n-j."""
    out = []
    tails = []
    for mk in reversed(masks):
        out.append(tuple(tails))
        _sweep(tails, (_bitrev(mk, n),))
    out.reverse()
    return out


def _zero_bounds(masks, n, spans):
    """(i, j, up, down) for each 0 of the packed rows inside their spans
    (column pairs (lo, hi], one per row), row-major.  up is the longest
    chain strictly above and left of (i, j), read off the thresholds of the
    rows above it; down is the longest strictly below and right of it, read
    off those of the rows below it turned a half turn."""
    above = []
    for i, (mk, (lo, hi), below) in enumerate(
            zip(masks, spans, _tails_below(masks, n)), start=1):
        for j in range(lo + 1, hi + 1):
            if not (mk >> (n - j)) & 1:
                yield (i, j, _at_or_left(above, n, j - 1),
                       _at_or_left(below, n, n - j))
        _sweep(above, (mk,))


def _zeros_justified(masks, n, spans, k):
    """Does every 0 inside the spans complete a k-chain when flipped?"""
    return all(up + 1 + down >= k
               for _, _, up, down in _zero_bounds(masks, n, spans))


def longest_increasing_chain(M):
    """Length of the longest increasing chain of ones in M."""
    return _longest_chain(M.masks)


def longest_increasing_chain_quadratic(M):
    """O(N^2) reference implementation, kept for cross-checking."""
    cells = M.one_cells()
    best = []
    out = 0
    for t, (i, j) in enumerate(cells):
        b = 1
        for s in range(t):
            i2, j2 = cells[s]
            if i2 < i and j2 < j and best[s] + 1 > b:
                b = best[s] + 1
        best.append(b)
        if b > out:
            out = b
    return out


def contains_ik(M, k):
    """Does M contain an increasing chain of k ones?"""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _longest_chain(M.masks, k) >= k


def max_ones(m, n, k):
    """Extremal number of ones: (k-1)(m+n-k+1).  Requires 2 <= k <= min(m,n)."""
    check_mnk(m, n, k)
    return (k - 1) * (m + n - k + 1)


class VerificationError(RuntimeError):
    """Two routes that must agree did not, or a value claimed to be exact
    was not: a fault of iamkit, never of its input."""


def check_mnk(m, n, k):
    """ValueError unless m, n and k are integers with 2 <= k <= min(m, n).
    A float or a bool would pass the range test and then reach the
    arithmetic, or a cache keyed by the board, where 3.0 and 3 collide."""
    if not (type(m) is type(n) is type(k) is int):  # not bool, float or str
        raise ValueError("m, n and k must be integers, got m=%r n=%r k=%r"
                         % (m, n, k))
    if not (2 <= k <= min(m, n)):
        raise ValueError("need 2 <= k <= min(m, n), got m=%d n=%d k=%d" % (m, n, k))


def check_box(a, b, c):
    """ValueError unless a, b and c are nonnegative integers: the sides of
    a box of plane partitions."""
    for side in (a, b, c):
        if type(side) is not int:  # not bool, float or str
            raise ValueError("box sides must be integers, got %r" % (side,))
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box sides must be nonnegative")


# The seed of every sampled check: `genfunc.seeded_points` and the CLI's
# `genfunc --seed` default.
DEFAULT_SEED = 20260814


# ---------------------------------------------------------------------------
# small immutable records and search budgets


class _Record:
    """Base of the small immutable value types.  The fields are the
    subclass's __slots__, each set once by `_set`; assignment and deletion
    raise AttributeError.  Two instances of one class with equal fields
    are equal and hash alike, an instance prints as Name(field=value, ...),
    as a frozen dataclass does, and pickles by calling the class on its
    fields, so every subclass's __init__ takes them in slot order."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # built once per class, as a plane partition is built and hashed
        # once per listed matrix: _values reads the fields as a tuple, or
        # the field itself when there is only one, and _setters holds the
        # slots' own setters, which skip the refusing __setattr__
        cls._values = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__
                             for name in cls.__slots__)

    def _set(self, *values):
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):
        # rebuild through __init__: the default would assign the fields
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)


class BudgetExceeded(RuntimeError):
    """A search was asked to touch a board larger than its budget allows."""


class EnumerationBudget(_Record):
    """Caps for a search: refuse big boards, optionally cut a stream after
    its first `max_results` objects (0 lists nothing)."""

    __slots__ = ("max_cells", "max_results")

    def __init__(self, max_cells=64, max_results=None):
        if type(max_cells) is not int or max_cells < 0:  # not bool
            raise ValueError("max_cells must be an int of at least 0, got %r"
                             % (max_cells,))
        if max_results is not None and type(max_results) is not int:
            raise ValueError("max_results must be None or an int, got %r"
                             % (max_results,))  # not bool, float or str
        if max_results is not None and max_results < 0:
            raise ValueError("max_results must not be negative, got %r"
                             % (max_results,))
        self._set(max_cells, max_results)


DEFAULT_BUDGET = EnumerationBudget()


def check_budget(cells, budget):
    """Refuse more cells than the budget (None: DEFAULT_BUDGET); return it."""
    if budget is None:
        budget = DEFAULT_BUDGET
    if cells > budget.max_cells:
        raise BudgetExceeded(
            "board has %d cells, budget allows %d" % (cells, budget.max_cells))
    return budget


def is_maximal_iam(M, k):
    """Is M an I_k-avoiding matrix to which no further 1 can be added?

    Fast path: an avoiding matrix holding the extremal number of ones is
    always maximal.  Otherwise every 0 must complete a chain of length k
    when flipped, by the chain bounds of `_zero_bounds`.  A True verdict
    is kept on M (see `BinaryMatrix`), and a later call with the same k
    returns it without a sweep or a second check of the board; any other
    call checks and sweeps again.
    """
    if M._maximal_for == k and type(k) is int:
        return True  # the board was checked when the verdict was kept
    m, n, masks = M.m, M.n, M.masks
    check_mnk(m, n, k)
    if _longest_chain(masks, k) >= k:
        return False
    # the extremal number is max_ones(m, n, k), whose check ran above
    extremal = sum(map(int.bit_count, masks)) == (k - 1) * (m + n - k + 1)
    if not (extremal or _zeros_justified(masks, n, M._spans(), k)):
        return False
    M._maximal_for = k
    return True


def is_maximal_iam_by_flips(M, k):
    """Literal definition of maximality: flip each zero and re-test.

    Slow; exists so that the production test above has an independent twin.
    """
    check_mnk(M.m, M.n, k)
    if longest_increasing_chain_quadratic(M) >= k:
        return False
    n = M.n
    for i, j in M.zero_cells():
        masks = list(M.masks)
        masks[i - 1] |= 1 << (n - j)
        flipped = BinaryMatrix.from_masks(M.m, n, masks)
        if longest_increasing_chain_quadratic(flipped) < k:
            return False
    return True


# ---------------------------------------------------------------------------
# diagonal scans (read by genfunc's per-cell statistics)


def diag_ones_below(M, i, j):
    """Number of d > 0 with a 1 at (i+d, j+d)."""
    c = 0
    d = 1
    while i + d <= M.m and j + d <= M.n:
        c += M.entry(i + d, j + d)
        d += 1
    return c


def diag_zeros_above(M, i, j):
    """Number of d > 0 with a 0 at (i-d, j-d)."""
    c = 0
    d = 1
    while i - d >= 1 and j - d >= 1:
        c += 1 - M.entry(i - d, j - d)
        d += 1
    return c


# ---------------------------------------------------------------------------
# partitions and skew shapes


class Partition(_Record):
    """A weakly decreasing tuple of nonnegative integers; () is the empty one.

    Trailing zero parts are kept as given: (3, 0) and (3,) are distinct as
    sequences even though they cut out the same diagram.  A partition also
    equals the tuple of its parts, and hashes as it does.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            parts = parts.parts
        parts = tuple(parts)
        for p in parts:
            if type(p) is not int:  # not bool, float or str
                raise ValueError("parts must be integers, got %r" % (p,))
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        if parts and parts[-1] < 0:
            raise ValueError("parts must be nonnegative: %r" % (parts,))
        self._set(parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def part(self, i):
        """1-indexed part access; rows past the end are 0."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def size(self):
        return sum(self.parts)

    def contains(self, other):
        other = Partition(other)
        return all(self.part(i) >= other.part(i)
                   for i in range(1, len(other) + 1))

    def durfee(self):
        """Side of the largest square fitting in the diagram."""
        d = 0
        for i, p in enumerate(self.parts, start=1):
            if p >= i:
                d = i
        return d

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)


class SkewShape(_Record):
    """The diagram lambda/mu: cells (i, j) with mu_i < j <= lambda_i.

    mu is zero-padded to the length of lambda and must fit inside it.  The
    zero parts of lambda, and the parts of mu past them, are then dropped:
    they cut out no cells, so each diagram is one shape, (3, 0) being (3,).
    """

    __slots__ = ("lam", "mu")

    def __init__(self, lam, mu=()):
        lam = Partition(lam)
        mu = Partition(mu)
        if len(mu) > len(lam):
            raise ValueError("mu has more parts than lambda")
        padded = tuple(mu.parts) + (0,) * (len(lam) - len(mu))
        if not lam.contains(padded):
            raise ValueError("mu must fit inside lambda")
        rows = len(lam) - lam.parts.count(0)
        self._set(Partition(lam.parts[:rows]), Partition(padded[:rows]))

    @property
    def n_rows(self):
        return len(self.lam)

    @property
    def n_cols(self):
        return self.lam.parts[0] if self.lam.parts else 0

    def row_span(self, i):
        """Columns of row i as the half-open pair (mu_i, lambda_i]."""
        return self.mu.part(i), self.lam.part(i)

    def spans(self):
        """row_span of every row, top to bottom: the one description of
        the rows that the row search, the maximality test and a filling's
        rows read."""
        return tuple(zip(self.mu.parts, self.lam.parts))

    def contains_cell(self, i, j):
        if not 1 <= i <= self.n_rows:
            return False
        lo, hi = self.row_span(i)
        return lo < j <= hi

    def cells(self):
        return [(i, j) for i, (lo, hi) in enumerate(self.spans(), start=1)
                for j in range(lo + 1, hi + 1)]

    def cell_count(self):
        return self.lam.size() - self.mu.size()

    def is_rectangle(self):
        ps = self.lam.parts
        return (self.mu.size() == 0 and len(ps) > 0
                and all(p == ps[0] for p in ps) and ps[0] > 0)

    def to_json_dict(self):
        return {"lambda": list(self.lam.parts), "mu": list(self.mu.parts)}

    @classmethod
    def from_json_dict(cls, obj):
        return cls(obj["lambda"], obj.get("mu", ()))


class Filling(_PackedGrid):
    """A 0/1 value on every cell of a skew shape (packed row masks).

    Row masks use the same convention as BinaryMatrix over the full column
    range 1..lambda_1; bits outside the shape are zero.
    """

    __slots__ = ("shape",)

    def __init__(self, shape, values):
        """values: mapping (i, j) -> 0/1 whose domain is exactly the cells."""
        if not isinstance(shape, SkewShape):
            raise TypeError("shape must be a SkewShape")
        cells = shape.cells()
        if set(values) != set(cells):
            raise ValueError("values must cover exactly the cells of the shape")
        n = shape.n_cols
        masks = [0] * shape.n_rows
        for (i, j), v in values.items():
            if type(v) is not int or v not in (0, 1):  # not bool
                raise ValueError("entries must be 0 or 1, got %r" % (v,))
            if v:
                masks[i - 1] |= 1 << (n - j)
        self.shape = shape
        self._rows = tuple(masks)

    @classmethod
    def from_masks(cls, shape, masks):
        obj = object.__new__(cls)
        obj.shape = shape
        obj._rows = tuple(masks)
        return obj

    def _width(self):
        return self.shape.n_cols

    def _spans(self):
        return self.shape.spans()

    def value(self, i, j):
        if not self.shape.contains_cell(i, j):
            raise KeyError((i, j))
        return (self._rows[i - 1] >> (self.shape.n_cols - j)) & 1

    def items(self):
        return [((i, j), self.value(i, j)) for (i, j) in self.shape.cells()]

    def as_matrix(self):
        """Embed a rectangular filling as a BinaryMatrix."""
        if not self.shape.is_rectangle():
            raise ValueError("only rectangular fillings embed as matrices")
        return BinaryMatrix.from_masks(self.shape.n_rows, self.shape.n_cols,
                                       self._rows)

    def to_json_dict(self):
        n = self.shape.n_cols
        d = self.shape.to_json_dict()
        d["rows"] = [[(mk >> (n - j)) & 1 for j in range(lo + 1, hi + 1)]
                     for mk, (lo, hi) in zip(self._rows, self.shape.spans())]
        return d

    @classmethod
    def from_json_dict(cls, obj):
        sh = SkewShape.from_json_dict(obj)
        rows = obj["rows"]
        if len(rows) != sh.n_rows:
            raise ValueError("expected %d rows" % sh.n_rows)
        values = {}
        for i, (row, (lo, hi)) in enumerate(zip(rows, sh.spans()), start=1):
            if len(row) != hi - lo:
                raise ValueError("row %d has wrong length" % i)
            for off, v in enumerate(row):
                values[(i, lo + 1 + off)] = v
        return cls(sh, values)

    def __eq__(self, other):
        if not isinstance(other, Filling):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self):
        return hash((self.shape, self._rows))

    def __repr__(self):
        return "Filling(%r, ones=%r)" % (self.shape, self.one_cells())


# ---------------------------------------------------------------------------
# in-shape containment


def _box_in_shape(shape, i1, j1, i2, j2):
    """Are all four corners of the axis box spanned by the two cells inside?"""
    return (shape.contains_cell(i1, j1) and shape.contains_cell(i1, j2)
            and shape.contains_cell(i2, j1) and shape.contains_cell(i2, j2))


def contains_ik_in_shape(F, k):
    """In-shape containment of I_k, by the literal box definition.

    A chain of k ones counts only if, for every pair of its cells, the full
    axis-aligned box spanned by the pair lies inside the shape.  (For skew
    shapes this is equivalent to plain chain containment; the equivalence is
    exercised in tests, but this routine does not assume it.)
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    ones = F.one_cells()
    shape = F.shape
    total = len(ones)

    def extend(chain, start):
        if len(chain) == k:
            return True
        for t in range(start, total):
            i2, j2 = ones[t]
            li, lj = chain[-1]
            if i2 > li and j2 > lj:
                ok = all(_box_in_shape(shape, a, b, i2, j2) for (a, b) in chain)
                if ok and extend(chain + [(i2, j2)], t + 1):
                    return True
        return False

    for s in range(total):
        if extend([ones[s]], s + 1):
            return True
    return False


def is_maximal_filling(F, k):
    """Avoids I_k inside the shape, and no in-shape 0 can be flipped to 1."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if _longest_chain(F.masks, k) >= k:
        return False
    return _zeros_justified(F.masks, F.shape.n_cols, F.shape.spans(), k)
