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
is skipped; in particular the d = m factor never materializes.  The
coefficients live in one numpy array and one sweep loop
serves both of its dtypes: int64 first, carrying a proven bound on the
largest magnitude that each sweep multiplies by its growth factor, and
scanning the array only when that bound passes INT64_SAFE_LIMIT (see there);
if the scanned height is past the limit too, the whole expansion runs again
from 1 in an object array of Python integers.  A wrapped array is never
carried on.  The multiplication sweep runs top-down in blocks (SWEEP_BLOCK),
so it needs no copy of the window.  That array is the one polynomial type:
``expand`` and ``low_half`` return it, index i holding the x^i coefficient,
and ``height``, ``is_palindromic`` and ``eval_at_one`` take it, in either
dtype.  A tuple is a CoprimeTuple, a NamedTuple like every result record
of the package.

numpy is imported only by the functions that allocate an array, so
``import iepoly`` stays cheap and numpy loads on the first expansion.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DegreeCapExceeded,
    EmptyTuple,
    EntryBelowTwo,
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
    factors: list[Factor] = []
    for size in range(rho.k + 1):
        sign = 1 if size % 2 == 0 else -1
        for subset in combinations(rho.qs, size):
            d = rho.m
            for q in subset:
                d //= q
            factors.append((d, sign))
    return tuple(factors)


def ordered_factors(factors: Sequence[Factor]) -> list[Factor]:
    """Default application order: multiplications ascending by d, then divisions.

    Multiplying first keeps intermediate coefficients small, so the int64
    sweep rarely needs to restart in Python integers.
    """
    multiplications = sorted(f for f in factors if f[1] > 0)
    divisions = sorted(f for f in factors if f[1] < 0)
    return multiplications + divisions


def expand(rho: CoprimeTuple, degree_cap: int = DEFAULT_DEGREE_CAP) -> np.ndarray:
    """Coefficients 0 .. degree of Q, exactly; index i holds the x^i coefficient."""
    return _truncated(rho, degree_of(rho) + 1, degree_cap)


def low_half(rho: CoprimeTuple, degree_cap: int = DEFAULT_DEGREE_CAP) -> np.ndarray:
    """Coefficients 0 .. floor(degree/2) of Q, exactly: every value of Q in half the memory.

    A truncated sweep gives the low coefficients exactly.  Each (1 - x^d) is
    -x^d (1 - x^-d), with 2^(k-1) factors on each side of the quotient, so
    x^degree Q(1/x) = Q(x): coefficient degree - i equals coefficient i.
    """
    return _truncated(rho, degree_of(rho) // 2 + 1, degree_cap)


def _truncated(rho: CoprimeTuple, window: int, degree_cap: int) -> np.ndarray:
    if window > degree_cap:
        raise DegreeCapExceeded(window, degree_cap)
    return apply_factors(window, ordered_factors(factor_system(rho)))


def apply_factors(window: int, factors: Sequence[Factor]) -> np.ndarray:
    """Apply signed (1 - x^d) factors in the given order to the constant polynomial 1.

    The result is the truncation to ``window`` coefficients: an int64 array,
    or an object array of Python integers when an int64 sweep could have
    wrapped, in which case every factor is applied again from 1.
    """
    c = _sweep(window, factors, "int64")
    if c is None:
        c = _sweep(window, factors, object)
    return c


def _sweep(window: int, factors: Sequence[Factor], dtype: str | type) -> Optional[np.ndarray]:
    # The same slices run on int64 and on object arrays.  Only int64 can
    # wrap; None reports a sweep after which a coefficient left
    # INT64_SAFE_LIMIT, so the array can no longer be trusted.  ``bound``
    # is a proven bound on max |c| (see INT64_SAFE_LIMIT).
    import numpy as np

    c = np.zeros(window, dtype=dtype)
    c[0] = 1
    checked = c.dtype == "int64"
    bound = 1
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
    return c


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
