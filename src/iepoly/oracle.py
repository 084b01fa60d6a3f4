"""Brute-force reference route for inclusion-exclusion polynomials.

Deliberately uses a different algorithm from ``core.expand``: multiply all
positive-sign factors into one dense polynomial, then long-divide by each
negative-sign factor, requiring a zero remainder at every step.  Agreement
between the two routes is the main correctness evidence for both.

Schoolbook arithmetic only, intentionally small-scale (m is capped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import CoprimeTuple, IEPolynomial, factor_system
from .errors import NonzeroRemainder, OracleCapExceeded

DEFAULT_ORACLE_CAP = 10**4


@dataclass(frozen=True)
class DensePoly:
    """Dense integer polynomial; trailing coefficient nonzero unless zero poly."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs


def poly(coeffs: Sequence[int]) -> DensePoly:
    """Build a DensePoly, trimming trailing zeros."""
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return DensePoly(tuple(coeffs[:end]))


def one_minus_x_pow(d: int) -> DensePoly:
    return poly([1] + [0] * (d - 1) + [-1])


def dense_mul(a: DensePoly, b: DensePoly) -> DensePoly:
    if a.is_zero() or b.is_zero():
        return poly([])
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb:
                out[i + j] += ca * cb
    return poly(out)


def exact_div(num: DensePoly, den: DensePoly) -> DensePoly:
    """Long division requiring a zero remainder; den must have a +-1 leading coefficient."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lead = den.coeffs[-1]
    if lead not in (1, -1):
        raise ValueError(f"leading coefficient {lead} is not invertible over the integers")
    if num.is_zero():
        return poly([])
    if num.degree < den.degree:
        raise NonzeroRemainder(f"degree {num.degree} numerator not divisible by degree {den.degree}")
    rem = list(num.coeffs)
    dn = den.degree
    support = [(j, c) for j, c in enumerate(den.coeffs) if c != 0 and j != dn]
    quot = [0] * (len(rem) - dn)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        t = c * lead  # c / lead for lead = +-1
        quot[i - dn] = t
        rem[i] = 0
        for j, dc in support:
            rem[i - dn + j] -= t * dc
    if any(rem):
        raise NonzeroRemainder("division left a nonzero remainder")
    return poly(quot)


def oracle_expand(rho: CoprimeTuple, oracle_cap: int = DEFAULT_ORACLE_CAP) -> IEPolynomial:
    """Expand via full multiplication of even-subset factors, then exact division.

    Intermediate degrees reach roughly m * 2^(k-1), hence the cap on m.
    A NonzeroRemainder here means an arithmetic bug: the quotient is a
    polynomial for every valid tuple.  Under the cap every coefficient fits
    in int64, so the result is an int64 array like ``expand``'s.
    """
    import numpy as np

    if rho.m > oracle_cap:
        raise OracleCapExceeded(rho.m, oracle_cap)
    system = factor_system(rho)
    num = poly([1])
    for d, sign in system.factors:
        if sign > 0:
            num = dense_mul(num, one_minus_x_pow(d))
    # Descending d keeps intermediate degrees shrinking fastest.
    for d, sign in sorted(system.factors, reverse=True):
        if sign < 0:
            num = exact_div(num, one_minus_x_pow(d))
    return IEPolynomial(np.array(num.coeffs, dtype=np.int64))
