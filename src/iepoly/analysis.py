"""Height normalization, ratio identities, the limiting constant, and tuple search.

The scale against which coefficient heights are measured is the normalizer
M = prod_{j=1}^{k-2} q_j^(2^(k-j-1) - 1) (empty product 1 for k <= 2); the
reported statistic is the normalized ratio (A / M)^(2^-k) where A is the
height.  M alone overflows double-precision range at moderate k, so the
ratio is never formed in floating point.  Every real this module reports
is one chain y -> sqrt(y n / d) from y = 1, evaluated in integer
arithmetic by ``_roots``: a fixed-point bracket of y, its low end rounded
down and its high end up, goes through ``math.isqrt`` one step at a time,
and the float both ends round to (``_correctly_rounded``) is the correctly
rounded answer.  ``normalized_ratio`` is the step (A, M) and k - 1 plain
roots, ``predicted_ratio`` k + 1 steps of r / q_j, and ``limit_constant``
up to terms + 1 steps of 1 / (4j - 2).  No real passes through a
logarithm except the truncation bound's ln(8T + 4), which ``decimal``
takes at LOG_DIGITS digits.

``limit_constant`` evaluates prod_{j>=1} (4j - 2)^(-2^(-j-1)), the limiting
value of the constructed families' predicted ratio, together with a proven
bound on the distance from the reported float to the limit (derivation in
the docstrings).

The tuples of a search come from ``coprime_runs``, one run at a time: the
tuples that share q_1 .. q_(k-1), at most RUN_LENGTH candidates for q_k
apiece, which ``core.heights`` (and ``oracle-check``'s
``core.expansions``) sweep as one.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .construction import CongruenceFamily
from .core import DEFAULT_DEGREE_CAP, CoprimeTuple, degree_of, height, heights
from .errors import CapExceeded, IdentityMismatch, InvalidParameter, _big

if TYPE_CHECKING:
    import numpy as np

# Bits of every root in the first bracket (the bracket itself is twice as
# wide before each root): far above the 53 bits a reported float keeps.
MANTISSA_BITS = 128
# Decimal digits of ln(8T + 4) in constant_log_tail_bound.
LOG_DIGITS = 50
DEFAULT_SEARCH_EXPAND_CAP = 10**5
MAX_ENUM_PRODUCT = 10**7
# Candidates for q_k per run of coprime_runs: bounds a run's list whatever
# m_cap is; no run is split below m_cap = 4098.
RUN_LENGTH = 4096

# Opaque literature bracket for the double-limit supremum of normalized
# ratios; used purely to annotate search reports.
RATIO_BRACKET_LOW = 0.487
RATIO_BRACKET_HIGH = 0.9541


class HeightReport(NamedTuple):
    rho: CoprimeTuple
    height: int
    normalizer: int
    degree: int
    normalized_ratio: float


class ConstantResult(NamedTuple):
    value: float
    terms_used: int
    error_bound: float


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


def _roots(steps: Iterable[tuple[int, int]], width: int) -> tuple[int, int, int]:
    # From y = 1, take y -> sqrt(y * n / d) for each step (n, d), as a bracket
    # lo * 2^e <= y <= hi * 2^e.  n and d are cut to their top ``width`` bits,
    # n down and d up for lo and the reverse for hi (exactly when no dropped
    # bit is set), so a step costs time linear in its length.  The product is
    # rounded down at lo and up at hi, after a shift that gives it at least
    # ``width`` bits and an even exponent, so each root keeps about width / 2
    # bits.  A plain root (n == d) only shifts.
    lo = hi = 1
    e = 0
    for n, d in steps:
        tn, td = max(0, n.bit_length() - width), max(0, d.bit_length() - width)
        n_lo, d_lo = n >> tn, d >> td
        e += tn - td
        shift = max(0, width + d_lo.bit_length() - n_lo.bit_length() - lo.bit_length() + 1)
        shift += (e - shift) & 1
        if n == d:
            lo, hi = lo << shift, hi << shift
        else:
            n_hi, d_hi = n_lo + ((n_lo << tn) != n), d_lo + ((d_lo << td) != d)
            lo, hi = (lo * n_lo << shift) // d_hi, -(-(hi * n_hi << shift) // d_lo)
        e -= shift
        root = math.isqrt(hi)
        lo, hi, e = math.isqrt(lo), root + (root * root != hi), e // 2
    return lo, hi, e


def _to_float(n: int, e: int) -> float:
    # Correctly rounded n * 2^e: int true division rounds correctly.
    return float(n << e) if e >= 0 else n / (1 << -e)


def _to_fraction(n: int, e: int) -> Fraction:
    return Fraction(n << e) if e >= 0 else Fraction(n, 1 << -e)


def _correctly_rounded(bracket: Callable[[int], tuple[int, int, int]]) -> tuple[float, int, int, int, int]:
    """The float both ends of ``bracket(width)`` round to, with that width and bracket.

    Rounding to nearest is monotone, so when both ends round to the same
    float, so does the exact value; otherwise the width doubles and the
    bracket starts again.  Returns (float, width, lo, hi, e).
    """
    width = 2 * MANTISSA_BITS
    while True:
        lo, hi, e = bracket(width)
        value = _to_float(lo, e)
        if value == _to_float(hi, e):
            return value, width, lo, hi, e
        width *= 2


def normalized_ratio(A: int, M: int, k: int) -> float:
    """(A / M)^(2^-k), correctly rounded to a float, in integer arithmetic.

    The chain of ``_roots`` is one step (A, M), with A and M cut to the
    bracket's width of 2 * MANTISSA_BITS bits, then k - 1 plain roots, lo
    rounded down and hi up.  When both ends round to different floats the
    width doubles and the chain starts again.  A ratio past the float range
    (A / M >= 2^(1024 * 2^k)) raises OverflowError.
    """
    if A < 1 or M < 1 or k < 1:
        raise InvalidParameter(f"need A >= 1, M >= 1, k >= 1, got A={_big(A)}, M={_big(M)}, k={_big(k)}")
    return _correctly_rounded(lambda width: _roots([(A, M)] + [(1, 1)] * (k - 1), width))[0]


def height_report(rho: CoprimeTuple, coeffs: np.ndarray) -> HeightReport:
    """Measure and normalize Q_rho from ``coeffs``: all its coefficients, or ``low_half(rho)``.

    Q is palindromic, so its low half holds every coefficient value and the
    same height; a caller that needs only the height sweeps only that half.
    """
    A = height(coeffs)
    M = normalizer(rho)
    return HeightReport(rho, A, M, degree_of(rho), normalized_ratio(A, M, rho.k))


def predicted_ratio(fam: CongruenceFamily) -> float:
    """Predicted normalized ratio of the (N, k) family, correctly rounded, checked two ways.

    The ratio is (r^(2^(k-1)) / (m M))^(2^-k).  Route (b) writes it per
    member: with a_j = r / q_j it is a_k^(2^-k) prod_{j<k} a_j^(2^-(j+1)) =
    sqrt(sqrt(a_1 sqrt(a_2 ... sqrt(a_{k-1} sqrt(a_k^2))))), k + 1 roots of
    small rationals.  Route (a) is normalized_ratio of r^(2^(k-1)) over
    m M, the lemma bound over M; it runs where congruence_family built that
    bound (below BOUND_BITS_CAP bits), and raises its own power of r in
    binary, independent of the decimal one that is printed.  Both routes
    return the correctly rounded float of the same real, so any difference
    raises IdentityMismatch.
    """
    r, qs, k = fam.r, fam.rho.qs, fam.k
    steps = [(r * r, qs[-1] * qs[-1])] + [(r, q) for q in reversed(qs[:-1])] + [(1, 1)]
    value = _correctly_rounded(lambda width: _roots(steps, width))[0]
    if fam.height_bound is not None:
        exact = normalized_ratio(r ** (1 << (k - 1)), fam.rho.m * normalizer(fam.rho), k)
        if exact != value:
            raise IdentityMismatch(f"ratio routes disagree for N={_big(fam.N)}, k={k}: {exact!r} vs {value!r}")
    return value


def constant_log_tail_bound(terms: int) -> Fraction:
    """Majorant for the dropped log-sum tail sum_{j>T} 2^(-j-1) ln(4j-2).

    Write j = T + 1 + i with i >= 0.  Then 4j - 2 = (4T + 2) + 4i, and for
    T >= 1 we have (4T + 2) * 2^i >= (4T + 2)(1 + i) >= (4T + 2) + 4i, so
    ln(4j - 2) <= ln(4T + 2) + i ln 2.  Summing the geometric majorants:

        sum_{j>T} 2^(-j-1) ln(4j-2)
          <= 2^(-T-2) [ ln(4T+2) sum_i 2^(-i) + ln 2 sum_i i 2^(-i) ]
          =  2^(-T-2) [ 2 ln(4T+2) + 2 ln 2 ]
          =  2^(-T-1) ln(8T+4).

    Returned as an exact rational: ``decimal`` rounds ln(8T + 4) to nearest
    at LOG_DIGITS digits, and the next decimal up bounds it.  Checked
    against direct summation out to 200 terms in the test suite.
    """
    if terms < 1:
        raise InvalidParameter(f"terms must be >= 1, got {_big(terms)}")
    context = decimal.Context(prec=LOG_DIGITS)
    log = context.next_plus(decimal.Decimal(8 * terms + 4).ln(context))
    return Fraction(log) / (1 << (terms + 1))


def _constant_steps(terms: int) -> Iterator[tuple[int, int]]:
    # P_T = prod_{j<=T} (4j - 2)^(-2^(-j-1)) = sqrt(sqrt(1/2 sqrt(1/6 ... sqrt(1/(4T - 2))))).
    for j in range(terms, 0, -1):
        yield 1, 4 * j - 2
    yield 1, 1


def _constant_bracket(terms: float, width: int) -> tuple[int, int, int]:
    # Bracket of P_T from min(T, W) + 1 nested roots, W = width.  The factors
    # past the W-th scale P_W by exp(-s) with 0 <= s <= t_W, so for T > W
    # (math.inf for the limit) the bracket is [P_W (1 - t_W), P_W].
    n = min(terms, width)
    lo, hi, e = _roots(_constant_steps(n), width)
    if terms > n:
        tail = constant_log_tail_bound(n)
        lo -= -(-lo * tail.numerator // tail.denominator)
    return lo, hi, e


def limit_constant(terms: int) -> ConstantResult:
    """Partial product prod_{j=1}^{terms} (4j - 2)^(-2^(-j-1)) with a rigorous error bar.

    ``value`` is the correctly rounded float of the partial product P_T.
    ``error_bound`` bounds |value - L| for the limit L, the rounding of
    ``value`` included.  P_T exp(-t_T) <= L <= P_T for the tail majorant
    t_T of constant_log_tail_bound, so P_T t_T bounds the truncation; that
    product, rounded to nearest, is reported wherever it bounds |value - L|
    (every T <= 56).  Elsewhere the report is the larger distance from
    ``value`` to the two ends of a bracket of L, rounded up.  The bracket,
    [P_W (1 - t_W), P_W] for the working width W in bits, is also the
    bracket of P_T itself for T > W, so no count costs more than about 2W
    roots.

    From T = W + 2 on, P_T t_T is not formed, nor the 2^(T+1) in t_T, so
    no count costs more than T = W + 1.  With l <= P_W the bracket's low
    end before the tail comes off, the bracket is at least l t_W wide and
    the distance at least l t_W / 2.  The product would be lo t_T for the
    bracket's low end lo <= l, and t_T falls with T, so t_T <= t_(W+2) <
    t_W / 3 (t_(W+2) / t_W = ln(8W + 20) / (4 ln(8W + 4))): it would come to
    less than two thirds of the distance, and the distance would be
    reported.
    """
    if terms < 1:
        raise InvalidParameter(f"terms must be >= 1, got {_big(terms)}")
    value, width, lo, hi, e = _correctly_rounded(lambda width: _constant_bracket(terms, width))
    error_bound = 0.0
    if terms < width + 2:
        error_bound = float(_to_fraction(lo, e) * constant_log_tail_bound(terms))
    if terms <= width:
        lo, hi, e = _constant_bracket(math.inf, width)
    distance = max(Fraction(value) - _to_fraction(lo, e), _to_fraction(hi, e) - Fraction(value))
    if error_bound < distance:
        error_bound = float(distance)
        if error_bound < distance:
            error_bound = math.nextafter(error_bound, math.inf)
    return ConstantResult(value, terms, error_bound)


def coprime_runs(k: int, m_cap: int, max_degree: int | None = None) -> Iterator[list[CoprimeTuple]]:
    """All valid tuples with exactly k entries and product <= m_cap, as runs.

    A run is a non-empty list of tuples that share q_1 .. q_(k-1), ascending
    in q_k, drawn from at most RUN_LENGTH consecutive candidates for q_k, so
    no run holds more than RUN_LENGTH tuples however large m_cap is.  Runs
    come in lexicographic order, and so do the tuples of their
    concatenation.  Prefixes are extended ascending, and a branch dies
    as soon as the cheapest completion q(q+1)...(q+t-1) pushes the product
    past the cap; that product stops growing once it passes the cap, so an
    absurd k costs a few multiplications.  An entry is coprime to the
    entries before it exactly when it is coprime to their product, so each
    candidate costs one gcd, and the candidates for q_k are q_(k-1) + 1 ..
    m_cap // prefix product.  With ``max_degree`` they also stop where the
    degree prod (q_j - 1), which rises with q_k, would pass it: q_k - 1 <=
    max_degree // prod (q_j - 1) over the prefix.  An m_cap above
    MAX_ENUM_PRODUCT raises CapExceeded.
    """
    if k < 1:
        raise InvalidParameter(f"k must be >= 1, got {_big(k)}")
    if m_cap < 1:
        raise InvalidParameter(f"m_cap must be >= 1, got {_big(m_cap)}")
    if m_cap > MAX_ENUM_PRODUCT:
        raise CapExceeded(f"m_cap = {_big(m_cap)} exceeds enumeration cap {MAX_ENUM_PRODUCT}")

    def fits(product: int, q: int, remaining: int) -> bool:
        # product * q (q + 1) ... (q + remaining - 1) <= m_cap
        for t in range(remaining):
            product *= q + t
            if product > m_cap:
                return False
        return True

    def prefixes(prefix: tuple[int, ...], product: int, start: int,
                 remaining: int) -> Iterator[tuple[tuple[int, ...], int]]:
        # Each coprime prefix of k - 1 entries that leaves room for q_k, with its product.
        if remaining == 1:
            yield prefix, product
            return
        q = start
        while fits(product, q, remaining):
            if math.gcd(q, product) == 1:
                yield from prefixes(prefix + (q,), product * q, q + 1, remaining - 1)
            q += 1

    for prefix, product in prefixes((), 1, 2, k):
        stop = m_cap // product + 1
        if max_degree is not None:
            stop = min(stop, max_degree // math.prod(q - 1 for q in prefix) + 2)
        for low in range(prefix[-1] + 1 if prefix else 2, stop, RUN_LENGTH):
            run = [CoprimeTuple(prefix + (q,), product * q)
                   for q in range(low, min(low + RUN_LENGTH, stop)) if math.gcd(q, product) == 1]
            if run:
                yield run


def search_max_ratio(
    m_cap: int,
    k: int,
    expand_cap: int = DEFAULT_SEARCH_EXPAND_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> list[HeightReport]:
    """Rank every enumerable tuple (given k, m <= m_cap, degree <= expand_cap) by ratio.

    Each tuple sweeps only its low half, of at most ``degree_cap`` entries,
    and each run of ``coprime_runs``, the tuples that share q_1 .. q_(k-1),
    goes through ``heights`` as one.  The output is a finite-sample
    statistic over the enumerated set, nothing more.  The ranking compares
    the exact fractions A / M, of which the ratio is an increasing function
    at fixed k, and breaks ties by lexicographic tuple order, so it is a pure
    function of the enumerated set.  M depends on q_1 .. q_(k-2) only, so it
    is built once per run, and many tuples share an (A, M) pair (44 pairs
    among 3,957 tuples at k = 3, m <= 5006), so within one call each distinct
    pair is rooted once and each distinct fraction ranked once; the sort key
    is (rank, qs).
    """
    if expand_cap < 1:
        raise InvalidParameter(f"expand_cap must be >= 1, got {_big(expand_cap)}")
    reports = []
    ratios: dict[tuple[int, int], float] = {}
    for run in coprime_runs(k, m_cap, max_degree=expand_cap):
        M = normalizer(run[0])
        for rho, A in zip(run, heights(run, degree_cap)):
            if (A, M) not in ratios:
                ratios[A, M] = normalized_ratio(A, M, k)
            reports.append(HeightReport(rho, A, M, degree_of(rho), ratios[A, M]))
    fractions = {pair: Fraction(*pair) for pair in ratios}
    ranks = {value: i for i, value in enumerate(sorted(set(fractions.values()), reverse=True))}
    rank = {pair: ranks[value] for pair, value in fractions.items()}
    reports.sort(key=lambda rep: (rank[rep.height, rep.normalizer], rep.rho.qs))
    return reports
