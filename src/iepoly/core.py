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
``low_halves`` sweeps that half once, over the run's longest window, and
each tuple continues from a copy of its first entries with its own 2^(k-1)
factors, those whose d is a multiple of q_k; the last tuple continues in
the shared array itself.  ``expansions`` does the same over full windows,
for oracle-check.  ``expand`` and ``low_half`` are the run of one tuple, in
place, and ``ordered_factors`` is that order.

The coefficients live in one numpy array and one sweep loop serves both of
its dtypes: int64 first, carrying a proven bound on the largest magnitude
that each sweep multiplies by its growth factor, and scanning the array
only when that bound passes INT64_SAFE_LIMIT (see there).  A continuation
starts from the shared array's bound, which bounds every prefix of that
array.  If the scanned height is past the limit too, the tuple runs again
from 1 in an object array of Python integers; if the shared sweep is past
it, each tuple of the run runs alone.  A wrapped array is never carried on,
and is dropped before its replacement is built.
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
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    DegreeCapExceeded,
    EmptyTuple,
    EntryBelowTwo,
    InvalidParameter,
    NotCoprime,
    NotIncreasing,
    TupleTooLarge,
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
# restarts if that is past L and otherwise carries on from the measured
# value.  So the lane and restart decisions are those of a scan after
# every sweep, at the same step.
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
        return "{" + ",".join(str(q) for q in self.qs) + "}"


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
    m = 1
    for q in qs:
        m *= q
    return CoprimeTuple(qs, m)


def degree_of(rho: CoprimeTuple) -> int:
    """Degree of the expanded polynomial: prod (q_j - 1)."""
    deg = 1
    for q in rho.qs:
        deg *= q - 1
    return deg


def check_subset_cap(k: int) -> None:
    """Raise TupleTooLarge when k exceeds SUBSET_CAP: 2^k subsets are too many to enumerate."""
    if k > SUBSET_CAP:
        raise TupleTooLarge(k, SUBSET_CAP)


def factor_system(rho: CoprimeTuple) -> tuple[Factor, ...]:
    """Enumerate all 2^k subsets as signed factors (d = m / prod q_i, sign = parity)."""
    check_subset_cap(rho.k)
    return tuple(_subset_factors(rho.qs, rho.m))


def _subset_factors(qs: Sequence[int], m: int) -> list[Factor]:
    factors: list[Factor] = []
    for size in range(len(qs) + 1):
        sign = 1 if size % 2 == 0 else -1
        for subset in combinations(qs, size):
            d = m
            for q in subset:
                d //= q
            factors.append((d, sign))
    return factors


def ordered_factors(rho: CoprimeTuple) -> list[Factor]:
    """Default application order: the 2^(k-1) factors whose d is not a multiple
    of q_k, then the 2^(k-1) whose d is; in each half multiplications ascending
    by d, then divisions.

    The first half is the subsets that hold q_k.  Their d = m' / prod S' does
    not depend on q_k (m' = q_1 ... q_(k-1)), and their product is the series
    1 / Q_(q_1 ... q_(k-1)), so tuples that differ only in q_k share that half
    and ``low_halves`` sweeps it once per run.  Multiplying first within each
    half keeps intermediate coefficients small, so the int64 sweep rarely
    needs to restart in Python integers.
    """
    shared = _shared_factors(rho)
    return shared + _flipped(shared, rho.qs[-1])


def _shared_factors(rho: CoprimeTuple) -> list[Factor]:
    # The subsets that hold q_k, S' + {q_k} for S' of the prefix, give the
    # prefix's factors with the sign flipped: 1 / Q_prefix.  The subsets S'
    # alone, the other half, flip them back and scale d by q_k.
    check_subset_cap(rho.k)
    prefix = _subset_factors(rho.qs[:-1], rho.m // rho.qs[-1])
    prefix.sort()
    return _flipped(prefix, 1)


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
    return next(low_halves([rho], degree_cap))


def low_halves(run: Sequence[CoprimeTuple], degree_cap: int = DEFAULT_DEGREE_CAP) -> Iterator[np.ndarray]:
    """``low_half`` of each tuple of ``run``, in turn: tuples that share
    q_1 .. q_(k-1), ascending in q_k.

    The shared half of ``ordered_factors`` is swept once, over the last
    (longest) window; each tuple continues from a copy of its first entries,
    and the last in that array itself.  So the run holds the shared array and
    at most one shorter copy, if the consumer drops each array before the
    next.  DegreeCapExceeded names the first window past ``degree_cap``.
    """
    return _truncated(run, [degree_of(rho) // 2 + 1 for rho in run], degree_cap)


def expansions(run: Sequence[CoprimeTuple], degree_cap: int = DEFAULT_DEGREE_CAP) -> Iterator[np.ndarray]:
    """``expand`` of each tuple of ``run``, in turn: ``low_halves`` over full windows.

    The run holds the shared array and at most one shorter copy, as there.
    """
    return _truncated(run, [degree_of(rho) + 1 for rho in run], degree_cap)


def _truncated(run: Sequence[CoprimeTuple], windows: Sequence[int], degree_cap: int) -> Iterator[np.ndarray]:
    for a, b in zip(run, run[1:]):
        if a.qs[:-1] != b.qs[:-1] or a.qs[-1] >= b.qs[-1]:
            raise InvalidParameter(f"a run shares q_1 .. q_(k-1) and ascends in q_k: {a} then {b}")
    for window in windows:
        if window > degree_cap:
            raise DegreeCapExceeded(window, degree_cap)
    if not run:
        return
    # The shared array's bound, or its scanned height, bounds every prefix
    # of it, so each continuation starts from it.  If the shared sweep could
    # have wrapped, each tuple runs alone, straight in Python integers at
    # the widest window, where int64 would wrap at the same step; a tuple
    # whose continuation could have wrapped starts again from 1 in them.
    widest = windows[-1]
    shared = _unit(widest, "int64")
    factors = _shared_factors(run[0])
    bound = _sweep(shared, factors, 1)
    if bound is None:
        del shared  # not carried on, so not kept beside each tuple's own array
    last = len(run) - 1
    for i, (rho, window) in enumerate(zip(run, windows)):
        own = _flipped(factors, rho.qs[-1])
        if bound is None:
            yield _restart(window, factors + own) if window == widest else apply_factors(window, factors + own)
            continue
        c = shared if i == last else shared[:window].copy()
        if _sweep(c, own, bound) is None:
            del c  # nor is a wrapped copy kept beside its restart
            c = _restart(window, factors + own)
        yield c
        del c  # so the consumer's array is gone before the next copy


def apply_factors(window: int, factors: Sequence[Factor]) -> np.ndarray:
    """Apply signed (1 - x^d) factors in the given order to the constant polynomial 1.

    The result is the truncation to ``window`` coefficients: an int64 array,
    or an object array of Python integers when an int64 sweep could have
    wrapped, in which case every factor is applied again from 1.
    """
    c = _unit(window, "int64")
    if _sweep(c, factors, 1) is None:
        c = _restart(window, factors)
    return c


def _unit(window: int, dtype: str | type) -> np.ndarray:
    # The constant polynomial 1, truncated to ``window`` coefficients.
    import numpy as np

    c = np.zeros(window, dtype=dtype)
    c[0] = 1
    return c


def _restart(window: int, factors: Sequence[Factor]) -> np.ndarray:
    c = _unit(window, object)
    _sweep(c, factors, 1)
    return c


def _sweep(c: np.ndarray, factors: Sequence[Factor], bound: int) -> Optional[int]:
    # Apply ``factors`` to c in place, truncated to its length.  The same
    # slices run on int64 and on object arrays.  Only int64 can wrap; None
    # reports a sweep after which a coefficient left INT64_SAFE_LIMIT, so the
    # array can no longer be trusted.  ``bound`` is a proven bound on max |c|
    # (see INT64_SAFE_LIMIT), on entry and on return.
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
        if checked and bound > INT64_SAFE_LIMIT:
            bound = height(c)
            if bound > INT64_SAFE_LIMIT:
                return None
    return bound


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
    return bool((c == c[::-1]).all())


def eval_at_one(c: np.ndarray) -> int:
    """Coefficient sum; q_1 for a single-entry tuple and 1 otherwise."""
    if c.dtype == object:
        return int(c.sum())
    # An int64 sum can wrap.  The sums of the high and low 32-bit halves of
    # a SWEEP_BLOCK-entry block cannot, and summing a block at a time keeps
    # the temporaries at one block instead of the window.
    high = low = 0
    for start in range(0, c.shape[0], SWEEP_BLOCK):
        block = c[start : start + SWEEP_BLOCK]
        high += int((block >> 32).sum())
        low += int((block & 0xFFFFFFFF).sum())
    return (high << 32) + low
