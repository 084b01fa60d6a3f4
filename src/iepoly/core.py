"""Exact computation of inclusion-exclusion polynomials.

An inclusion-exclusion polynomial is determined by pairwise coprime integers
q_1 < q_2 < ... < q_k (all >= 2).  With m = q_1 q_2 ... q_k it is the quotient

          prod over even-size subsets S of (1 - x^(m / prod_{i in S} q_i))
    Q  =  ------------------------------------------------------------------
          prod over odd-size  subsets S of (1 - x^(m / prod_{i in S} q_i))

which is always a polynomial, of degree prod (q_j - 1).  When every q_j is
prime, Q is the cyclotomic polynomial of index m.

``expand`` computes the coefficient vector exactly by streaming the signed
factors through a window of degree+1 coefficients, ``low_half`` through the
first floor(degree/2)+1, all a height needs.  ``degree_cap`` bounds that
window, and SUBSET_CAP bounds k, since the factors are all 2^k subsets.
Multiplication by (1 - x^d) is a high-to-low subtraction sweep, division by
(1 - x^d) a low-to-high prefix-sum sweep with stride d (the truncated
geometric series), a row of d entries at a time from ROW_SWEEP_MIN on.
A factor whose d exceeds the window is the identity on the truncation and
is skipped; in particular the d = m factor never materializes.

The unit of work is a run: tuples that share q_1 ... q_(k-1) and differ in
q_k, as a lexicographic enumeration yields them.  The 2^(k-1) subsets that
hold q_k give factors whose d does not depend on q_k; their product is the
series 1 / Q_(q_1 ... q_(k-1)) (Q_(rho + q)(x) = Q_rho(x^q) / Q_rho(x)).
``factor_system`` is the one enumeration of the subsets; the sweep order,
``ordered_factors``, is a sort of it, and its first half is that shared
half.  A run sweeps that half once, over its longest window.
Each tuple's own 2^(k-1) factors have d = q_k d' for the d' of that half,
the same for every tuple of the run, so the tuples continue side by side:
a block lays each tuple's first entries out in rows of q_k, the tuples'
columns next to each other, and one sweep of stride d' times the block's
width applies a factor to every tuple at once (``_block``).  So every
array of a run is one of three kinds:

- the shared array, the run's only array built from 1, in which the last
  tuple continues;
- a block of several tuples before the last, of at most SWEEP_BLOCK / 2
  entries;
- a copy of a tuple's own prefix of the shared array, in which a tuple
  before the last that fits no block with another continues alone.

A block is swept whole, so every cell holds its tuple's coefficient at
that index, 0 past the degree.  ``heights`` takes every height of a block
from its column extremes, for search, and ``expansions`` each tuple's
array, for oracle-check.
``expand`` and ``low_half`` are the run of one tuple, in place.

The coefficients live in one numpy array and one sweep loop serves both of
its dtypes: int64 first, carrying a proven bound on the largest magnitude
that each sweep multiplies by its growth factor, and scanning the array
only when that bound passes INT64_SAFE_LIMIT (see there).  A block or a
copy starts from the shared array's bound, which bounds every entry it
copies.  If the scanned height is past the limit too, the array promotes
at that step, whichever array it is: int64 sums are exact modulo 2^64 and
each step is invertible (``_strided_prefix_sum`` undoes
``_shifted_difference`` and the reverse), so the other kernel restores the
values before the step, all within the limit; the array becomes Python
integers (``astype(object)``), the step runs again, and so does every
later one.  Every applied factor runs once, plus one undo and one redo per
promotion, and no array starts again from 1.  Each array of a run
promotes as a whole: a tuple swept by itself is in Python integers exactly
when some prefix of its sweep passes the limit, and a tuple of a run may
be where by itself it stays in int64, with the same values.
The multiplication sweep runs top-down in blocks (SWEEP_BLOCK), so it needs
no copy of the window.  That array is the one polynomial type: ``expand``
and ``low_half`` return it, index i holding the x^i coefficient, and
``height``, ``is_palindromic`` and ``eval_at_one`` take it, in either
dtype.  A tuple is a CoprimeTuple, a NamedTuple like every result record
of the package.

numpy is imported only by the functions that allocate an array, so
``import iepoly`` stays cheap and numpy loads on the first expansion.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DegreeCapExceeded,
    EmptyTuple,
    EntryBelowTwo,
    InvalidParameter,
    NotCoprime,
    NotIncreasing,
    TupleTooLarge,
    _big,
)

if TYPE_CHECKING:
    import numpy as np

# Post-sweep magnitude limit for the int64 lane.  If every stored value is
# within L = 2^62 - 1 after each sweep, no step can have wrapped silently:
# a multiplication step computes |a - b| <= 2L < 2^63 from pre-sweep values,
# and the first division step able to wrap would need an already-final
# operand of magnitude > L, which the same post-sweep check rejects.
# The int64 lane proves most of those checks instead of scanning: with B a
# bound on max |c| before a sweep, multiplying by (1 - x^d) leaves at most
# 2B, since |a - b| <= 2 max, and a truncated division over n entries at
# most ceil(n/d) B, since each output and each partial sum on the way is a
# sum of at most ceil(n/d) entries.  While the carried bound stays within L
# the check provably passes; once it passes L the sweep measures the height,
# promotes the array at that step if that is past L (see the module
# docstring) and otherwise carries on from the measured value.  So an
# array promotes where a scan after every sweep would promote it.
INT64_SAFE_LIMIT = (1 << 62) - 1

# Longest slice one multiplication step subtracts at a time.  A block longer
# than d overlaps its own source, and numpy then copies the source first, so
# a block bounds that copy to SWEEP_BLOCK entries instead of the window.
SWEEP_BLOCK = 1 << 16

# Smallest d whose division sweep adds whole rows one after another.  A
# (rows, d) cumsum walks its view column by column, with a stride of 8d
# bytes; from about this d on, adding row i - 1 onto row i is faster, and
# below it the Python loop over n / d rows costs more than it saves.
ROW_SWEEP_MIN = 512

DEFAULT_DEGREE_CAP = 1 << 28
SUBSET_CAP = 20

# Sign convention for factors: +1 multiplies by (1 - x^d), -1 divides.
Factor = tuple[int, int]


class CoprimeTuple(NamedTuple):
    """Strictly increasing pairwise coprime integers and their product m."""

    qs: tuple[int, ...]
    m: int

    @property
    def k(self) -> int:
        return len(self.qs)

    def __str__(self) -> str:
        return "{" + ",".join(_big(q) for q in self.qs) + "}"


def validate_tuple(values: Iterable[int]) -> CoprimeTuple:
    """Check k >= 1, all q >= 2, strict increase, pairwise coprimality; compute m."""
    qs = tuple(int(v) for v in values)
    if not qs:
        raise EmptyTuple()
    for idx, q in enumerate(qs):
        if q < 2:
            raise EntryBelowTwo(idx, q)
    for idx in range(len(qs) - 1):
        if qs[idx] >= qs[idx + 1]:
            raise NotIncreasing(idx, qs[idx], qs[idx + 1])
    for i, j in combinations(range(len(qs)), 2):
        g = math.gcd(qs[i], qs[j])
        if g != 1:
            raise NotCoprime(i, j, qs[i], qs[j], g)
    return CoprimeTuple(qs, _product(qs))


def degree_of(rho: CoprimeTuple) -> int:
    """Degree of the expanded polynomial: prod (q_j - 1)."""
    return _product(rho.qs, 1)


def _product(values: Sequence[int], less: int = 0) -> int:
    # The product of v - less over values, its halves multiplied
    # recursively: each product is of two operands of about equal length,
    # where one entry at a time would multiply the whole product so far by
    # each small entry.  Three entries multiply as a chain.
    n = len(values)
    if n < 4:
        product = 1
        for v in values:
            product *= v - less
        return product
    return _product(values[: n // 2], less) * _product(values[n // 2 :], less)


def check_subset_cap(k: int) -> None:
    """Raise TupleTooLarge when k exceeds SUBSET_CAP: 2^k subsets are too many to enumerate."""
    if k > SUBSET_CAP:
        raise TupleTooLarge(k, SUBSET_CAP)


def factor_system(rho: CoprimeTuple) -> tuple[Factor, ...]:
    """All 2^k subsets as signed factors (d = m / prod q_i, sign = parity): the
    one enumeration of them, which ``ordered_factors`` and the oracle sort."""
    check_subset_cap(rho.k)
    factors = []
    for size in range(rho.k + 1):
        sign = -1 if size % 2 else 1
        for subset in combinations(rho.qs, size):
            d = rho.m
            for q in subset:
                d //= q
            factors.append((d, sign))
    return tuple(factors)


def ordered_factors(rho: CoprimeTuple) -> list[Factor]:
    """Sweep order: the 2^(k-1) factors whose d is not a multiple of q_k,
    then the 2^(k-1) whose d is; in each half multiplications ascending by
    d, then divisions.

    The first half is the subsets that hold q_k.  Their d = m' / prod S' does
    not depend on q_k (m' = q_1 ... q_(k-1)), and their product is the series
    1 / Q_(q_1 ... q_(k-1)), so tuples that differ only in q_k share that half
    and a run sweeps it once; the second half is ``_flipped(first, q_k)``.
    Multiplying first in each half (Arnold and Monagan, Math. Comp. 80,
    2011) keeps the int64 sweep's coefficients small.
    """
    q = rho.qs[-1]
    return sorted(factor_system(rho), key=lambda f: (f[0] % q == 0, f[1] < 0, f[0]))


def _flipped(factors: Sequence[Factor], q: int) -> list[Factor]:
    # (q d, -sign) for each factor, multiplications first: from factors in
    # ascending d, each sign's group stays ascending.
    return [(q * d, 1) for d, sign in factors if sign < 0] + [(q * d, -1) for d, sign in factors if sign > 0]


def expand(rho: CoprimeTuple, degree_cap: int = DEFAULT_DEGREE_CAP) -> np.ndarray:
    """Coefficients 0 .. degree of Q, exactly; index i holds the x^i coefficient."""
    return next(expansions([rho], degree_cap))


def low_half(rho: CoprimeTuple, degree_cap: int = DEFAULT_DEGREE_CAP) -> np.ndarray:
    """Coefficients 0 .. floor(degree/2) of Q, exactly: every value of Q in half the memory.

    A truncated sweep gives the low coefficients exactly.  Each (1 - x^d) is
    -x^d (1 - x^-d), with 2^(k-1) factors on each side of the quotient, so
    x^degree Q(1/x) = Q(x): coefficient degree - i equals coefficient i.
    """
    return next(_arrays([rho], [degree_of(rho) // 2 + 1], degree_cap))


def heights(run: Sequence[CoprimeTuple], degree_cap: int = DEFAULT_DEGREE_CAP) -> Iterator[int]:
    """``height(low_half(rho))`` of each tuple of ``run``, in turn: tuples that
    share q_1 .. q_(k-1), ascending in q_k.

    An array of the run (see the module docstring) is a block of columns:
    its column maxima and minima, reduced over each tuple's columns, give
    every height in it at once, in either dtype.  Every cell holds its
    tuple's coefficient at that index, 0 past the degree, and the cells
    past the window move no height (Q is palindromic and its constant term
    is 1).  The run holds the shared array and one other array of it.
    DegreeCapExceeded names the first window past ``degree_cap``.
    """
    import numpy as np

    for block, widths in _truncated(run, [degree_of(rho) // 2 + 1 for rho in run], degree_cap):
        offsets = [0, *accumulate(widths[:-1])]
        top = np.maximum.reduceat(block.max(axis=0), offsets).tolist()
        bottom = np.minimum.reduceat(block.min(axis=0), offsets).tolist()
        del block
        yield from (max(a, -b) for a, b in zip(top, bottom))


def expansions(run: Sequence[CoprimeTuple], degree_cap: int = DEFAULT_DEGREE_CAP) -> Iterator[np.ndarray]:
    """``expand`` of each tuple of ``run``, in turn, as ``heights`` sweeps a run.

    A tuple of a block of several comes as a copy of its columns; the run
    holds the shared array, one other array of it (see the module
    docstring) and that copy, if the consumer drops each array before the
    next.
    """
    return _arrays(run, [degree_of(rho) + 1 for rho in run], degree_cap)


def _arrays(run: Sequence[CoprimeTuple], windows: Sequence[int], degree_cap: int) -> Iterator[np.ndarray]:
    # Coefficient i of the tuple in columns off .. off + w - 1 is at row
    # i // w, column off + i % w; reshape copies unless it has the block alone.
    window = iter(windows)
    for block, widths in _truncated(run, windows, degree_cap):
        for off, w in zip(accumulate(widths, initial=0), widths):
            c = block[:, off : off + w].reshape(-1)[: next(window)]
            yield c
            del c  # so the consumer's array is gone before the next copy
        del block  # and the block before the next block


def _truncated(run: Sequence[CoprimeTuple], windows: Sequence[int],
               degree_cap: int) -> Iterator[tuple[np.ndarray, list[int]]]:
    # The arrays of the run's tuples, a block at a time: (block, widths),
    # the block's columns split into the tuples' in run order.  An array of
    # one tuple comes as a block of one column.
    for a, b in zip(run, run[1:]):
        if a.qs[:-1] != b.qs[:-1] or a.qs[-1] >= b.qs[-1]:
            raise InvalidParameter(f"a run shares q_1 .. q_(k-1) and ascends in q_k: {a} then {b}")
    for window in windows:
        if window > degree_cap:
            raise DegreeCapExceeded(window, degree_cap)
    if not run:
        return
    # The shared array's bound, or its scanned height, bounds every prefix
    # of it, so each block and each copy of a prefix starts from it.
    widest = windows[-1]
    factors = ordered_factors(run[0])[: 1 << (run[0].k - 1)]
    members = [(rho.qs[-1], window) for rho, window in zip(run, windows)]
    shared, bound = _sweep(_unit(widest), factors, 1)
    # Each array is built in the yield, so no name keeps it while the next
    # one is built.
    for group in _groups(members[:-1], widest):
        if len(group) > 1:
            yield _block(shared, bound, factors, group), [q for q, _ in group]
        else:
            q, window = group[0]
            yield _sweep(shared[:window].copy(), _flipped(factors, q), bound)[0][:, None], [1]
    # The last tuple continues in the shared array itself, handed over so
    # that no name here keeps the int64 array once a promotion converts it.
    held = [shared]
    del shared
    c, _ = _sweep(held.pop(), _flipped(factors, members[-1][0]), bound)
    yield c[:, None], [1]


def _groups(members: Sequence[tuple[int, int]], widest: int) -> Iterator[list[tuple[int, int]]]:
    # Consecutive (q_k, window) pairs whose block of R rows, R the largest
    # ceil(window / q_k), by the sum of their q_k columns fits half of
    # SWEEP_BLOCK entries, since a multiplication sweep copies its
    # overlapping source, up to the block again; and whose columns the
    # shared array fills: R q_k <= widest.  A tuple that fits no block with
    # another is a group of one, which continues alone in a copy of its
    # prefix of the shared array (see the module docstring).
    group: list[tuple[int, int]] = []
    rows = columns = 0
    for q, window in members:
        grown = max(rows, -(-window // q))
        if group and (2 * grown * (columns + q) > SWEEP_BLOCK or grown * q > widest):
            yield group
            group, grown, columns = [], -(-window // q), 0
        group.append((q, window))
        rows, columns = grown, columns + q
    if group:
        yield group


def _block(shared: np.ndarray, bound: int, factors: Sequence[Factor],
           group: Sequence[tuple[int, int]]) -> np.ndarray:
    """The group's tuples, several of them, continued from ``shared`` side
    by side, in its dtype: a run's second kind of array (see the module
    docstring).

    The tuple of last entry q takes q columns, cell (r, b) its coefficient
    r q + b, so each of its own factors, of d a multiple of q, moves d / q
    rows, and a row of C columns makes every tuple's factor one stride of
    (d / q) C: ``_flipped(factors, C)``, swept once over the whole block.
    Every cell is then its tuple's coefficient at that index, 0 past the
    degree, and the block promotes as a whole.
    """
    import numpy as np

    rows = max(-(-window // q) for q, window in group)
    columns = sum(q for q, _ in group)
    # Built in the call, so no name keeps the int64 block once it promotes.
    c, _ = _sweep(np.concatenate([shared[: rows * q].reshape(rows, q) for q, _ in group], axis=1).reshape(-1),
                  _flipped(factors, columns), bound)
    return c.reshape(rows, columns)


def _unit(window: int) -> np.ndarray:
    # The constant polynomial 1, truncated to ``window`` coefficients.
    import numpy as np

    c = np.zeros(window, dtype=np.int64)
    c[0] = 1
    return c


def _sweep(c: np.ndarray, factors: Sequence[Factor], bound: int) -> tuple[np.ndarray, int]:
    # Apply ``factors`` to c, truncated to its length: the array and a proven
    # bound on max |c|, which ``bound`` is on entry (see INT64_SAFE_LIMIT).
    # The same slices run on int64 and on object arrays.  An int64 step
    # after which the scanned height passes the limit is undone by the other
    # kernel and redone in Python integers, the lane of every later step
    # (see the module docstring); a promoted array is a new one, returned.
    window = c.shape[0]
    checked = c.dtype == "int64"
    for d, sign in factors:
        if d >= window:
            continue
        if sign > 0:
            _shifted_difference(c, d)
            bound *= 2
        else:
            _strided_prefix_sum(c, d)
            bound *= -(-window // d)
        if bound > INT64_SAFE_LIMIT and checked:
            measured = height(c)
            if measured <= INT64_SAFE_LIMIT:
                bound = measured
            else:
                (_strided_prefix_sum if sign > 0 else _shifted_difference)(c, d)
                c = c.astype(object)
                (_shifted_difference if sign > 0 else _strided_prefix_sum)(c, d)
                checked = False
    return c, bound


def _shifted_difference(c: np.ndarray, d: int) -> None:
    # c[i] -= c[i-d] for i descending, as c[d:] -= c[:n-d] computes it, but
    # a block of at most max(d, SWEEP_BLOCK) entries at a time, from the top:
    # every source entry is read before the block below overwrites it.
    block = max(d, SWEEP_BLOCK)
    for end in range(c.shape[0], d, -block):
        start = max(d, end - block)
        c[start:end] -= c[start - d : end - d]


def _strided_prefix_sum(c: np.ndarray, d: int) -> None:
    # c[i] += c[i-d] for i ascending: cumulative sums along each residue
    # class mod d.  From ROW_SWEEP_MIN on, a row at a time, the ragged tail
    # included.  Below it, full rows vectorize as a 2-d cumsum; the ragged
    # tail needs one extra shifted add since its predecessors are then final.
    n = c.shape[0]
    if d >= ROW_SWEEP_MIN:
        for start in range(d, n, d):
            end = min(start + d, n)
            c[start:end] += c[start - d : end - d]
        return
    rows = n // d
    if rows >= 2:
        head = c[: rows * d].reshape(rows, d)
        head.cumsum(axis=0, out=head)
    if rows * d < n:
        c[rows * d :] += c[(rows - 1) * d : n - d]


def height(c: np.ndarray) -> int:
    """Largest coefficient magnitude."""
    return max(int(c.max()), -int(c.min()))


def is_palindromic(c: np.ndarray) -> bool:
    """Whether c reads the same reversed: its low half against its reversed top half."""
    half = c.shape[0] // 2
    return same_coeffs(c[:half], c[::-1][:half])


def same_coeffs(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a and b, of either dtype, are equal: a block at a time, with no boolean array of the window."""
    import numpy as np

    return len(a) == len(b) and not any(
        np.count_nonzero(a[i : i + SWEEP_BLOCK] != b[i : i + SWEEP_BLOCK])
        for i in range(0, len(a), SWEEP_BLOCK)
    )


def eval_at_one(c: np.ndarray) -> int:
    """Coefficient sum; q_1 for a single-entry tuple and 1 otherwise."""
    # An int64 sum can wrap.  The sums of the high and low 32-bit halves of
    # a SWEEP_BLOCK-entry block cannot, and summing a block at a time keeps
    # the temporaries at one block instead of the window.  The halves are
    # exact on Python integers too: x = (x >> 32) 2^32 + (x & 0xFFFFFFFF).
    high = low = 0
    for start in range(0, c.shape[0], SWEEP_BLOCK):
        block = c[start : start + SWEEP_BLOCK]
        high += int((block >> 32).sum())
        low += int((block & 0xFFFFFFFF).sum())
    return (high << 32) + low
