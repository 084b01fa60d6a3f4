"""Exception taxonomy shared by all modules, and the one printer of big integers.

Validation errors carry the offending index or pair so callers (and tests)
can assert on the exact rule that fired.  Capacity errors are raised instead
of letting exponential enumeration or dense allocation thrash: TupleTooLarge
guards the 2^k subset enumeration, DegreeCapExceeded the longest coefficient
array a call would allocate, CapExceeded the tuple enumeration and the
congruence family's k.

``_big`` is the one road from an exact integer to decimal: error messages,
the command line's JSON and the construction module's lemma bound (which
parses its text) take it.  It and the bound compute in ``_EXACT``.
"""

from __future__ import annotations

import decimal
import functools

# Integers up to this many bits render with str(); larger ones split in
# halves down to pieces of this size (see _big).  On CPython 3.11, leaf
# sizes from 2^10 to 2^13 bits measured alike, and str() is as fast as the
# split up to about 2^15 bits.
STR_BITS = 1 << 13
# Exact integer arithmetic in decimal: unbounded precision and exponent,
# and any rounding raises instead of passing silently.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[decimal.Inexact]
)


def _big(x: int) -> str:
    """str(x), in sub-quadratic time for large x, past the int-to-str digit limit too.

    Before CPython 3.12, str() is quadratic in the length of x.  Above
    STR_BITS bits, x = hi * 2^h + lo is converted by halves and recombined
    with decimal's sub-quadratic multiplication: the algorithm of CPython
    3.12's _pylong.int_to_decimal_string.  Decimal(_big(x)) adds a linear parse.
    """
    if x.bit_length() <= STR_BITS:
        return str(x)

    @functools.cache
    def pow2(w: int) -> decimal.Decimal:
        if w <= STR_BITS:
            return decimal.Decimal(1 << w)
        return pow2(w >> 1) * pow2(w - (w >> 1))

    def convert(n: int, w: int) -> decimal.Decimal:
        # 0 <= n < 2^w
        if w <= STR_BITS:
            return decimal.Decimal(n)
        h = w >> 1
        hi = n >> h
        return convert(n - (hi << h), h) + convert(hi, w - h) * pow2(h)

    with decimal.localcontext(_EXACT):
        digits = str(convert(abs(x), x.bit_length()))
    return "-" + digits if x < 0 else digits


class IEPolyError(Exception):
    """Base class for all library errors."""


class TupleValidationError(IEPolyError, ValueError):
    """A raw input list does not describe a valid coprime tuple."""


class EmptyTuple(TupleValidationError):
    def __init__(self) -> None:
        super().__init__("tuple must contain at least one entry")


class EntryBelowTwo(TupleValidationError):
    def __init__(self, index: int, value: int) -> None:
        self.index = index
        self.value = value
        super().__init__(f"EntryBelowTwo: q[{index}] = {_big(value)} < 2")


class NotIncreasing(TupleValidationError):
    def __init__(self, index: int, value: int, next_value: int) -> None:
        self.index = index
        super().__init__(
            f"NotIncreasing: q[{index}] = {_big(value)} not below q[{index + 1}] = {_big(next_value)}"
        )


class NotCoprime(TupleValidationError):
    def __init__(self, i: int, j: int, qi: int, qj: int, g: int) -> None:
        self.i = i
        self.j = j
        self.gcd = g
        super().__init__(f"NotCoprime({_big(qi)},{_big(qj)}): gcd = {_big(g)} at indices ({i},{j})")


class InvalidParameter(IEPolyError, ValueError):
    """A scalar parameter is outside its documented domain."""


class CapacityError(IEPolyError):
    """A configured resource cap would be exceeded."""


class TupleTooLarge(CapacityError):
    def __init__(self, k: int, cap: int) -> None:
        self.k = k
        self.cap = cap
        super().__init__(f"TupleTooLarge: k = {k} exceeds subset cap {cap}")


class DegreeCapExceeded(CapacityError):
    def __init__(self, coefficients: int, cap: int) -> None:
        self.coefficients = coefficients
        self.cap = cap
        super().__init__(
            f"DegreeCapExceeded: {_big(coefficients)} coefficients exceed the cap of {cap}"
        )


class CapExceeded(CapacityError):
    """The tuple enumeration would pass its product cap, or a family its k cap."""


class NonzeroRemainder(IEPolyError, ArithmeticError):
    """Polynomial long division left a nonzero remainder where exactness was required."""


class CongruenceNotSatisfied(IEPolyError):
    """The residue hypothesis q_j = 2r +- 1 (mod 4r) fails for some element."""


class IdentityMismatch(IEPolyError, ArithmeticError):
    """Two evaluation routes of an exact identity disagree beyond tolerance."""
