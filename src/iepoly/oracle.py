"""Independent reference route for inclusion-exclusion polynomials.

Deliberately a different algorithm from ``core.expand``: multiply all
positive-sign factors of ``core.factor_system`` into the full, untruncated
product in ascending d, then divide by each negative-sign factor in
descending d from the top down, requiring a zero remainder at every step.
Agreement between the two routes is the main correctness evidence for
both.

The route runs in one numpy array, allocated once at the length of the
untruncated product, 1 + (prod (q+1) + prod (q-1)) / 2 coefficients;
``degree_cap`` bounds that length as it bounds the window of
``core.expand``, and no step allocates more than ``core.SWEEP_BLOCK``
entries beside it.  Multiplying by (1 - x^d) is a shifted subtraction in
blocks from the top of the growing product; dividing by it is one
descending cumulative sum with stride d, in place (by rows for large d),
after which minus the quotient is the view past the d remainder entries:
the route never negates before a division, and restores the sign once at
the end when the number of divisions, 2^(k-1), is odd (k = 1).  The zero
remainder is checked after every division as before, since a remainder
vanishes exactly when minus it does.  The route keeps its own loops and
calls none of ``core``'s sweep functions.

It runs in int64 first and carries a proven bound on the largest magnitude:
times 2 per multiplication, times ceil(n/d) per division of n entries.
Only when that bound passes ``core.INT64_SAFE_LIMIT`` does it measure the
array; a measured peak within the limit proves that no step wrapped (the
argument of ``core``) and becomes the new bound, and one past it starts the
route again from 1 in Python integers (dtype=object).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .core import (
    DEFAULT_DEGREE_CAP,
    INT64_SAFE_LIMIT,
    ROW_SWEEP_MIN,
    SWEEP_BLOCK,
    CoprimeTuple,
    factor_system,
)
from .errors import DegreeCapExceeded, NonzeroRemainder

if TYPE_CHECKING:
    import numpy as np


def _multiply(c: np.ndarray, d: int) -> None:
    # c(x) * (1 - x^d) in place, where the top d entries of c are zero:
    # c[i] -= c[i-d] for i descending, a block of at most max(d, SWEEP_BLOCK)
    # entries at a time, so every source entry is read before it changes.  A
    # block longer than d overlaps its source, which numpy then copies.
    block = max(d, SWEEP_BLOCK)
    for end in range(c.shape[0], d, -block):
        start = max(d, end - block)
        c[start:end] -= c[start - d : end - d]


def _divide(c: np.ndarray, d: int) -> np.ndarray:
    # Minus c(x) / (1 - x^d), in place, from the top: the quotient is
    # q_j = q_{j+d} - c_{j+d}.  The entries become s_i = c_i + c_{i+d} +
    # c_{i+2d} + ..., a prefix sum down each residue class mod d of the
    # reversed array: from core.ROW_SWEEP_MIN on, d entries at a time from
    # the top, in c's own direction (numpy adds negative strides more
    # slowly); below it, full rows as one 2-d cumsum, then the ragged tail
    # at the bottom of c, whose predecessors are final by then.  s[d:] is
    # minus the quotient, which the caller's sign restores; the recurrence
    # continued below x^d gives s[:d], minus the remainder, which must vanish.
    import numpy as np

    n = c.shape[0]
    if n <= d:
        raise ValueError(f"{n} coefficients cannot be divided by 1 - x^{d}")
    if d >= ROW_SWEEP_MIN:
        for top in range(n - d, 0, -d):
            bottom = max(top - d, 0)
            c[bottom:top] += c[bottom + d : top + d]
    else:
        r = c[::-1]
        rows, tail = divmod(n, d)
        if rows >= 2:
            head = r[: rows * d].reshape(rows, d)
            np.add.accumulate(head, axis=0, out=head)
        if tail:
            c[:tail] += c[d : d + tail]
    if np.count_nonzero(c[:d]):
        raise NonzeroRemainder(f"1 - x^{d} leaves a nonzero remainder")
    return c[d:]


def _peak(c: np.ndarray) -> int:
    return max(int(c.max()), -int(c.min()))


def _route(
    length: int, multipliers: Sequence[int], divisors: Sequence[int], dtype: str | type
) -> Optional[np.ndarray]:
    # None reports an int64 step after which a value left INT64_SAFE_LIMIT.
    # From operands within the limit a difference cannot wrap, and a
    # cumulative sum can first wrap only after a quotient entry beyond it.
    # ``bound`` proves most of those checks: a difference at most doubles
    # max |c|, and each entry or partial sum of a division of n entries sums
    # at most ceil(n/d) of them.  Only a bound past the limit is measured,
    # so every step the check could fail at is measured.  The remainder may
    # be read first: int64 sums are exact modulo 2^64, so a zero remainder
    # reads zero, and a nonzero one reads zero only after a wrap, which
    # measuring the quotient then reports.
    import numpy as np

    c = np.zeros(length, dtype=dtype)
    c[0] = 1
    checked = c.dtype == "int64"
    bound = n = 1
    for d in multipliers:
        n += d
        _multiply(c[:n], d)
        bound *= 2
        if checked and bound > INT64_SAFE_LIMIT:
            bound = _peak(c[:n])
            if bound > INT64_SAFE_LIMIT:
                return None
    for d in divisors:
        bound *= -(-c.shape[0] // d)
        c = _divide(c, d)
        if checked and bound > INT64_SAFE_LIMIT:
            bound = _peak(c)
            if bound > INT64_SAFE_LIMIT:
                return None
    # Each division left minus its quotient.
    if len(divisors) % 2:
        np.negative(c, out=c)
    return c


def product_length(rho: CoprimeTuple) -> int:
    """Coefficients of the untruncated product, the longest array of ``oracle_expand``.

    The product's degree is the sum of m / prod_S q over the even-size
    subsets S: m times the even part of prod (1 + 1/q), which is
    (prod (1 + 1/q) + prod (1 - 1/q)) / 2.
    """
    plus = minus = 1
    for q in rho.qs:
        plus *= q + 1
        minus *= q - 1
    return 1 + (plus + minus) // 2


def oracle_expand(rho: CoprimeTuple, degree_cap: int = DEFAULT_DEGREE_CAP) -> np.ndarray:
    """Expand via the full product of even-subset factors, then exact division.

    The product is the longest array, about m coefficients for small k;
    DegreeCapExceeded is raised when its length passes ``degree_cap``.  The
    result is a view into that array.  A NonzeroRemainder here means an
    arithmetic bug: the quotient is a polynomial for every valid tuple.
    """
    length = product_length(rho)
    if length > degree_cap:
        raise DegreeCapExceeded(length, degree_cap)
    factors = factor_system(rho)
    # Ascending d keeps the growing product short longest, and descending d
    # keeps the quotient's degree shrinking fastest.
    multipliers = sorted(d for d, sign in factors if sign > 0)
    divisors = sorted((d for d, sign in factors if sign < 0), reverse=True)
    c = _route(length, multipliers, divisors, "int64")
    if c is None:
        c = _route(length, multipliers, divisors, object)
    return c
