"""Independent reference route for inclusion-exclusion polynomials.

Deliberately a different algorithm from ``core.expand``: multiply all
positive-sign factors into the full, untruncated product, then divide by
each negative-sign factor from the top down, requiring a zero remainder at
every step.  Agreement between the two routes is the main correctness
evidence for both.

Each step is linear in the length of one numpy array: multiplying by
(1 - x^d) is one shifted subtraction into an array d entries longer,
dividing by it one descending cumulative sum with stride d.  A step runs in
int64 when its operand lies within ``core.INT64_SAFE_LIMIT``: a product
cannot wrap there, and a quotient that leaves the limit is computed again
in Python integers (dtype=object).  Any other operand runs in Python
integers, so a possibly wrapped array is never returned.

The longest array is the untruncated product, 1 + (prod (q+1) + prod (q-1)) / 2
coefficients; ``degree_cap`` bounds it as it bounds the window of
``core.expand``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import DEFAULT_DEGREE_CAP, INT64_SAFE_LIMIT, CoprimeTuple, IEPolynomial, factor_system
from .errors import DegreeCapExceeded, NonzeroRemainder

if TYPE_CHECKING:
    import numpy as np


def mul_one_minus_x_pow(c: np.ndarray, d: int) -> np.ndarray:
    """Coefficients of c(x) * (1 - x^d), d entries longer than ``c``."""
    import numpy as np

    c = _exact_operand(c)
    n = c.shape[0]
    out = np.zeros(n + d, dtype=c.dtype)
    out[:n] = c
    out[d:] -= c
    return out


def div_one_minus_x_pow(c: np.ndarray, d: int) -> np.ndarray:
    """Coefficients of c(x) / (1 - x^d), d entries shorter than ``c``.

    Raises NonzeroRemainder unless (1 - x^d) divides c(x).
    """
    if c.shape[0] <= d:
        raise ValueError(f"{c.shape[0]} coefficients cannot be divided by 1 - x^{d}")
    c = _exact_operand(c)
    s = _negated_suffix_sums(c, d)
    if s.dtype == "int64" and not _fits(s):
        s = _negated_suffix_sums(c.astype(object), d)
    # s[d:] is the quotient, from the top: q_j = q_{j+d} - c_{j+d}.  The
    # recurrence continued below x^d gives s[:d], the remainder.
    if s[:d].any():
        raise NonzeroRemainder(f"1 - x^{d} leaves a nonzero remainder")
    return s[d:]


def _exact_operand(c: np.ndarray) -> np.ndarray:
    # As in core: from int64 operands within L = INT64_SAFE_LIMIT, a
    # difference cannot wrap, and a cumulative sum can first wrap only after
    # a final value beyond L, which the check on the sums rejects.
    return c if c.dtype == "int64" and _fits(c) else c.astype(object, copy=False)


def _fits(c: np.ndarray) -> bool:
    return -INT64_SAFE_LIMIT <= int(c.min()) and int(c.max()) <= INT64_SAFE_LIMIT


def _negated_suffix_sums(c: np.ndarray, d: int) -> np.ndarray:
    # s_i = -(c_i + c_{i+d} + c_{i+2d} + ...).  Reversed, that is a prefix
    # sum down each residue class mod d: full rows as one 2-d cumsum, then
    # the ragged tail, whose predecessors are final by then.
    import numpy as np

    r = np.negative(c[::-1])
    n = r.shape[0]
    rows = n // d
    if rows >= 2:
        head = r[: rows * d].reshape(rows, d)
        head.cumsum(axis=0, out=head)
    if rows * d < n:
        r[rows * d :] += r[(rows - 1) * d : n - d]
    return r[::-1]


def _product_length(rho: CoprimeTuple) -> int:
    # The product's degree is the sum of m / prod_S q over the even-size
    # subsets S: m times the even part of prod (1 + 1/q), which is
    # (prod (1 + 1/q) + prod (1 - 1/q)) / 2.
    plus = minus = 1
    for q in rho.qs:
        plus *= q + 1
        minus *= q - 1
    return 1 + (plus + minus) // 2


def oracle_expand(rho: CoprimeTuple, degree_cap: int = DEFAULT_DEGREE_CAP) -> IEPolynomial:
    """Expand via the full product of even-subset factors, then exact division.

    The product is the longest array, about m coefficients for small k;
    DegreeCapExceeded is raised when its length passes ``degree_cap``.  A
    NonzeroRemainder here means an arithmetic bug: the quotient is a
    polynomial for every valid tuple.
    """
    import numpy as np

    length = _product_length(rho)
    if length > degree_cap:
        raise DegreeCapExceeded(length, degree_cap)
    factors = factor_system(rho).factors
    c = np.ones(1, dtype=np.int64)
    for d, sign in factors:
        if sign > 0:
            c = mul_one_minus_x_pow(c, d)
    # Descending d keeps intermediate degrees shrinking fastest.
    for d, sign in sorted(factors, reverse=True):
        if sign < 0:
            c = div_one_minus_x_pow(c, d)
    return IEPolynomial(c)
