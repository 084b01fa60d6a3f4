"""Height normalization, ratio identities, the limiting constant, and tuple search.

The scale against which coefficient heights are measured is the normalizer
M = prod_{j=1}^{k-2} q_j^(2^(k-j-1) - 1) (empty product 1 for k <= 2); the
reported statistic is the normalized ratio (A / M)^(2^-k) where A is the
height.  M alone overflows double-precision range at moderate k, so the
ratio is never formed in floating point: ``normalized_ratio`` brackets
A / M in integers, takes k integer square roots and returns the correctly
rounded float.  The predicted ratio and the limiting constant are evaluated
through logarithms with mpmath, at MANTISSA_BITS bits of working
precision.  A large exact integer enters mpmath as its odd part shifted by
its power of two (``_log_int``): mpmath strips trailing zero bits a byte at
a time, shifting the whole integer each time, so r^(2^(k-1)) would
otherwise cost quadratic time before the logarithm starts.  mpmath is
imported by the functions that compute with it, so ``import iepoly`` and
the commands that report no real beside normalized ratios never load it.

``limit_constant`` evaluates prod_{j>=1} (4j - 2)^(-2^(-j-1)), the limiting
value of the constructed families' predicted ratio, together with a proven
truncation bound (derivation in the docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .construction import family_parameters
from .core import DEFAULT_DEGREE_CAP, CoprimeTuple, degree_of, height, low_half
from .errors import CapExceeded, IdentityMismatch, InvalidParameter

if TYPE_CHECKING:
    import numpy as np
    from mpmath import mp

# Working precision of every mpmath real, and the bits of normalized_ratio's
# first bracket: far above the 53 bits a reported float keeps, and above
# the identity check's tolerance.
MANTISSA_BITS = 128
# predicted_ratio's two routes must agree to this relative error.
IDENTITY_REL_TOL = 1e-9
# Route (a) of predicted_ratio takes the logarithm of r^(2^(k-1)) as an
# exact integer up to this many bits (k <= 17 for N = 1), and scaled
# logarithms of r and the q_j beyond.
EXACT_BITS_CAP = 1 << 22
DEFAULT_SEARCH_EXPAND_CAP = 10**5
MAX_ENUM_PRODUCT = 10**7

# Opaque literature bracket for the double-limit supremum of normalized
# ratios; used purely to annotate search reports.
RATIO_BRACKET_LOW = 0.487
RATIO_BRACKET_HIGH = 0.9541


@dataclass(frozen=True)
class HeightReport:
    rho: CoprimeTuple
    height: int
    normalizer: int
    degree: int
    normalized_ratio: float


@dataclass(frozen=True)
class ConstantResult:
    value: "mp.mpf"
    terms_used: int
    error_bound: "mp.mpf"


def normalizer(rho: CoprimeTuple) -> int:
    """M = prod_{j=1}^{k-2} q_j^(2^(k-j-1) - 1); 1 for k <= 2.

    Built as P = (((q_1)^2 q_2)^2 ... q_{k-2})^2 = prod q_j^(2^(k-j-1)) and
    divided exactly by prod q_j: k - 2 squarings and small multiplications,
    where one power per member would spend a full multiplication per
    exponent bit.
    """
    P = 1
    base = 1
    for q in rho.qs[: rho.k - 2]:
        P = P * P * q
        base *= q
    return P * P // base


def _log_int(n: int) -> "mp.mpf":
    """mp.log(n) for an integer n >= 1, bit-identical and in linear time."""
    from mpmath import mp

    tz = (n & -n).bit_length() - 1
    return mp.log(mp.ldexp(n >> tz, tz))


def _bracket(A: int, M: int, width: int) -> tuple[int, int, int]:
    # lo * 2^e <= A / M <= hi * 2^e with lo of about ``width`` bits and e
    # even.  A and M are cut to their top ``width`` bits first, rounded down
    # and up (exactly when no dropped bit is set), so the cost is linear in
    # their length.
    ta = max(0, A.bit_length() - width)
    tm = max(0, M.bit_length() - width)
    a, m = A >> ta, M >> tm
    a_up = a + ((a << ta) != A)
    m_up = m + ((m << tm) != M)
    s = width + m.bit_length() - a.bit_length() + 1
    s += (ta - tm - s) & 1
    return (a << s) // m_up, -(-(a_up << s) // m), ta - tm - s


def _to_float(n: int, e: int) -> float:
    # Correctly rounded n * 2^e: int true division rounds correctly.
    return float(n << e) if e >= 0 else n / (1 << -e)


def normalized_ratio(A: int, M: int, k: int) -> float:
    """(A / M)^(2^-k), correctly rounded to a float, in integer arithmetic.

    A bracket lo * 2^e <= A / M <= hi * 2^e of 2 * MANTISSA_BITS bits goes
    through k square roots, lo rounded down and hi up, each widened back to
    that many bits with an even exponent first.  Rounding to nearest is
    monotone, so when both ends round to the same float, so does the exact
    value; otherwise the bracket doubles its bits and starts again.  A ratio
    past the float range (A / M >= 2^(1024 * 2^k)) raises OverflowError.
    """
    if A < 1 or M < 1 or k < 1:
        raise InvalidParameter(f"need A >= 1, M >= 1, k >= 1, got A={A}, M={M}, k={k}")
    bits = MANTISSA_BITS
    while True:
        lo, hi, e = _bracket(A, M, 2 * bits)
        for _ in range(k):
            shift = max(0, 2 * bits - lo.bit_length())
            shift += (e - shift) & 1
            lo, hi, e = lo << shift, hi << shift, e - shift
            root = math.isqrt(hi)
            lo, hi, e = math.isqrt(lo), root + (root * root != hi), e // 2
        value = _to_float(lo, e)
        if value == _to_float(hi, e):
            return value
        bits *= 2


def height_report(rho: CoprimeTuple, coeffs: np.ndarray) -> HeightReport:
    """Measure and normalize Q_rho from ``coeffs``: all its coefficients, or ``low_half(rho)``.

    Q is palindromic, so its low half holds every coefficient value and the
    same height; a caller that needs only the height sweeps only that half.
    """
    A = height(coeffs)
    M = normalizer(rho)
    return HeightReport(rho, A, M, degree_of(rho), normalized_ratio(A, M, rho.k))


def predicted_ratio(N: int, k: int) -> "mp.mpf":
    """Predicted normalized ratio of the (N, k) family, checked two ways.

    Route (a) takes logarithms of the exact integers r^(2^(k-1)), m, and M;
    route (b) evaluates the per-member product (r/q_k) * prod (r/q_j)^(2^(k-j-1))
    in the log domain.  The two arrangements are algebraically identical, so
    disagreement beyond IDENTITY_REL_TOL relative error raises
    IdentityMismatch.  When the exact integers would exceed EXACT_BITS_CAP
    bits, route (a) falls back to scaled logarithms of r and the q_j.
    """
    from mpmath import mp

    r, qs = family_parameters(N, k)
    with mp.workprec(MANTISSA_BITS):
        log_r = mp.log(r)
        logs_q = [mp.log(q) for q in qs]
        chain = log_r - logs_q[-1]
        for j in range(1, k):
            chain += (1 << (k - j - 1)) * (log_r - logs_q[j - 1])
        value_b = mp.exp(chain / (1 << k))

        m = 1
        for q in qs:
            m *= q
        if (1 << (k - 1)) * r.bit_length() <= EXACT_BITS_CAP:
            numerator = r ** (1 << (k - 1))
            M = normalizer(CoprimeTuple(tuple(qs), m))
            grouped = _log_int(numerator) - mp.log(m) - mp.log(M)
        else:
            log_M = mp.mpf(0)
            for j in range(1, k - 1):
                log_M += ((1 << (k - j - 1)) - 1) * logs_q[j - 1]
            grouped = (1 << (k - 1)) * log_r - mp.log(m) - log_M
        value_a = mp.exp(grouped / (1 << k))

        if abs(value_a - value_b) > mp.mpf(IDENTITY_REL_TOL) * abs(value_b):
            raise IdentityMismatch(
                f"ratio routes disagree for N={N}, k={k}: {value_a} vs {value_b}"
            )
    return value_a


def constant_log_tail_bound(terms: int) -> "mp.mpf":
    """Majorant for the dropped log-sum tail sum_{j>T} 2^(-j-1) ln(4j-2).

    Write j = T + 1 + i with i >= 0.  Then 4j - 2 = (4T + 2) + 4i, and for
    T >= 1 we have (4T + 2) * 2^i >= (4T + 2)(1 + i) >= (4T + 2) + 4i, so
    ln(4j - 2) <= ln(4T + 2) + i ln 2.  Summing the geometric majorants:

        sum_{j>T} 2^(-j-1) ln(4j-2)
          <= 2^(-T-2) [ ln(4T+2) sum_i 2^(-i) + ln 2 sum_i i 2^(-i) ]
          =  2^(-T-2) [ 2 ln(4T+2) + 2 ln 2 ]
          =  2^(-T-1) (ln(4T+2) + ln 2).

    Checked against direct summation out to 200 terms in the test suite.
    """
    from mpmath import mp

    if terms < 1:
        raise InvalidParameter(f"terms must be >= 1, got {terms}")
    return mp.ldexp(mp.log(4 * terms + 2) + mp.log(2), -(terms + 1))


def limit_constant(terms: int) -> ConstantResult:
    """Partial product prod_{j=1}^{terms} (4j - 2)^(-2^(-j-1)) with a rigorous error bar.

    The value is exp(-S) for the partial log sum S; the true limit lies in
    [value * exp(-tail), value] for the proven tail bound, so
    value * tail dominates the truncation error.  Rounding error at
    MANTISSA_BITS is orders of magnitude below the reported bound.
    """
    from mpmath import mp

    if terms < 1:
        raise InvalidParameter(f"terms must be >= 1, got {terms}")
    with mp.workprec(MANTISSA_BITS):
        log_sum = mp.mpf(0)
        for j in range(1, terms + 1):
            log_sum += mp.ldexp(mp.log(4 * j - 2), -(j + 1))
        value = mp.exp(-log_sum)
        error_bound = value * constant_log_tail_bound(terms)
    return ConstantResult(value, terms, error_bound)


def coprime_tuples(k: int, m_cap: int) -> Iterator[CoprimeTuple]:
    """All valid tuples with exactly k entries and product <= m_cap, lexicographic order.

    Recursive extension with pruning: entries are chosen ascending, and a
    branch dies as soon as the cheapest completion q(q+1)...(q+t-1) pushes
    the product past the cap.  An m_cap above MAX_ENUM_PRODUCT raises
    CapExceeded.
    """
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {k}")
    if m_cap < 1:
        raise InvalidParameter(f"m_cap must be >= 1, got {m_cap}")
    if m_cap > MAX_ENUM_PRODUCT:
        raise CapExceeded(f"m_cap = {m_cap} exceeds enumeration cap {MAX_ENUM_PRODUCT}")

    def extend(prefix: tuple[int, ...], product: int, start: int, remaining: int) -> Iterator[CoprimeTuple]:
        if remaining == 0:
            yield CoprimeTuple(prefix, product)
            return
        q = start
        while True:
            cheapest = 1
            for t in range(remaining):
                cheapest *= q + t
            if product * cheapest > m_cap:
                return
            if all(math.gcd(q, p) == 1 for p in prefix):
                yield from extend(prefix + (q,), product * q, q + 1, remaining - 1)
            q += 1

    yield from extend((), 1, 2, k)


def search_max_ratio(
    m_cap: int,
    k: int,
    expand_cap: int = DEFAULT_SEARCH_EXPAND_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> list[HeightReport]:
    """Rank every enumerable tuple (given k, m <= m_cap, degree <= expand_cap) by ratio.

    Each tuple sweeps only its low half, of at most ``degree_cap`` entries.
    The output is a finite-sample statistic over the enumerated set, nothing
    more.  The ranking compares the exact fractions A / M, of which the ratio
    is an increasing function at fixed k, and breaks ties by lexicographic
    tuple order, so it is a pure function of the enumerated set.
    """
    reports = []
    for rho in coprime_tuples(k, m_cap):
        if degree_of(rho) <= expand_cap:
            reports.append(height_report(rho, low_half(rho, degree_cap)))
    reports.sort(key=lambda rep: (-Fraction(rep.height, rep.normalizer), rep.rho.qs))
    return reports
