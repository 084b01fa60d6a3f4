"""Extremal coprime families built from factorial-scaled congruence classes.

The family with parameters (N, k) sets r = N * k! and q_j = (4j - 2) r + 1.
Every pair is coprime: gcd(q_i, q_j) reduces by one Euclid step to
gcd(4(i - j) r, q_j), and every prime divisor of 4(i - j) r divides N or is
at most k, while q_j = 1 (mod both).  Each member satisfies
q_j = 2r + 1 (mod 4r), which guarantees the coefficient height of the
expanded polynomial is at least r^(2^(k-1)) / m.

height_lower_bound is the one home of that lemma bound.  It is None past
BOUND_BITS_CAP bits (bound_fits), where the family still constructs;
below, r and m enter exact decimal through errors._big, not the quadratic
Decimal(int), and r^(2^(k-1)) and its ceiling over m are raised there, to
print by str() and compare exactly with an int height.  The fraction is
in lowest terms: each q_j = +-1 (mod r), so gcd(r, m) = 1.
Results are NamedTuples: immutable, and they unpack and compare as tuples.
"""

from __future__ import annotations

import decimal
import math
from typing import NamedTuple, Optional

from .core import CoprimeTuple, validate_tuple
from .errors import _EXACT, CapExceeded, CongruenceNotSatisfied, InvalidParameter, _big

# Exact bounds are materialized only below this size (bound_fits).  It is
# part of the output contract, not a speed setting: it decides for which
# (N, k) construct, and for which (r, k) verify, reports lemma_bound and
# height_floor (construct: k <= 14 for N < 2 * 10^8); past it both print
# null and compare no height.  It caps each of those numbers at about 158k
# decimal digits.
BOUND_BITS_CAP = 1 << 19
# Largest k a family is built for.  construct's cost grows steeply with k:
# k entries of about k log k bits, k (k - 1) / 2 gcds of them and the
# conversions of the output, with m and the degree each a balanced product
# tree.  With N = 1, in process on a 2-vCPU VM, k = 320 takes about 0.3 s,
# k = 400 0.6 s and k = 500 1.1 s.
FAMILY_K_CAP = 320


class ElementResidue(NamedTuple):
    """Residue check of a single element against 2r - 1 / 2r + 1 mod 4r."""

    q: int
    residue: int
    ok: bool
    branch: Optional[str]  # "plus", "minus", or None when the check fails


class CongruenceReport(NamedTuple):
    r: int
    modulus: int
    elements: tuple[ElementResidue, ...]
    ok: bool


class HeightBound(NamedTuple):
    """r^(2^(k-1)) / m, as its numerator over rho.m, and its ceiling: integers in exact decimal."""

    numerator: decimal.Decimal
    floor: decimal.Decimal


class CongruenceFamily(NamedTuple):
    N: int
    k: int
    r: int
    rho: CoprimeTuple
    height_bound: Optional[HeightBound]  # None when larger than BOUND_BITS_CAP bits


def check_congruence(rho: CoprimeTuple, r: int) -> CongruenceReport:
    """Report, per element, whether q = 2r - 1 or 2r + 1 modulo 4r."""
    if r < 1:
        raise InvalidParameter(f"r must be positive, got {_big(r)}")
    modulus = 4 * r
    elements = []
    for q in rho.qs:
        residue = q % modulus
        if residue == (2 * r + 1) % modulus:
            elements.append(ElementResidue(q, residue, True, "plus"))
        elif residue == (2 * r - 1) % modulus:
            elements.append(ElementResidue(q, residue, True, "minus"))
        else:
            elements.append(ElementResidue(q, residue, False, None))
    return CongruenceReport(r, modulus, tuple(elements), all(e.ok for e in elements))


def height_lower_bound(rho: CoprimeTuple, r: int) -> Optional[HeightBound]:
    """Exact bound r^(2^(k-1)) / m, valid only under the congruence hypothesis; None past bound_fits."""
    report = check_congruence(rho, r)
    if not report.ok:
        bad = ", ".join(_big(e.q) for e in report.elements if not e.ok)
        raise CongruenceNotSatisfied(
            f"elements [{bad}] are not congruent to 2r +- 1 mod {_big(report.modulus)} (r = {_big(r)})"
        )
    if not bound_fits(r, rho.k):
        return None
    with decimal.localcontext(_EXACT):
        numerator, m = decimal.Decimal(_big(r)) ** (1 << (rho.k - 1)), decimal.Decimal(_big(rho.m))
        return HeightBound(numerator, (numerator + m - 1) // m)


def bound_fits(r: int, k: int) -> bool:
    """Whether r^(2^(k-1)) is small enough to build: 2^(k-1) times r's bit length within BOUND_BITS_CAP."""
    return (1 << (k - 1)) * r.bit_length() <= BOUND_BITS_CAP


def family_parameters(N: int, k: int) -> tuple[int, list[int]]:
    """r = N * k! and the member list q_j = (4j - 2) r + 1."""
    if N < 1:
        raise InvalidParameter(f"N must be positive, got {_big(N)}")
    if k < 1:
        raise InvalidParameter(f"k must be positive, got {_big(k)}")
    if k > FAMILY_K_CAP:
        raise CapExceeded(f"k = {_big(k)} exceeds family cap {FAMILY_K_CAP}")
    r = N * math.factorial(k)
    return r, [(4 * j - 2) * r + 1 for j in range(1, k + 1)]


def congruence_family(N: int, k: int) -> CongruenceFamily:
    """Build the (N, k) family and re-check every property it is supposed to have."""
    r, qs = family_parameters(N, k)
    rho = validate_tuple(qs)
    if rho.qs[0] <= N:
        raise AssertionError(f"constructed q_1 = {_big(rho.qs[0])} does not exceed N = {_big(N)}")
    report = check_congruence(rho, r)
    if not report.ok or any(e.branch != "plus" for e in report.elements):
        raise AssertionError("constructed family must sit on the 2r + 1 branch")
    return CongruenceFamily(N, k, r, rho, height_lower_bound(rho, r))
