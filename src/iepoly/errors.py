"""Exception taxonomy shared by all modules.

Validation errors carry the offending index or pair so callers (and tests)
can assert on the exact rule that fired.  Capacity errors are raised instead
of letting exponential enumeration or dense allocation thrash: TupleTooLarge
guards the 2^k subset enumeration, DegreeCapExceeded the longest coefficient
array a call would allocate, CapExceeded the tuple enumeration and the
congruence family's k.
"""

from __future__ import annotations

import decimal


def _decimal(n: int) -> str:
    # Decimal prints an integer of any length, past the interpreter's
    # int-to-str digit limit too, which a tuple's entries and a refused
    # window can exceed.
    return str(decimal.Decimal(n))


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
        super().__init__(f"EntryBelowTwo: q[{index}] = {_decimal(value)} < 2")


class NotIncreasing(TupleValidationError):
    def __init__(self, index: int, value: int, next_value: int) -> None:
        self.index = index
        super().__init__(
            f"NotIncreasing: q[{index}] = {_decimal(value)} not below q[{index + 1}] = {_decimal(next_value)}"
        )


class NotCoprime(TupleValidationError):
    def __init__(self, i: int, j: int, qi: int, qj: int, g: int) -> None:
        self.i = i
        self.j = j
        self.gcd = g
        super().__init__(f"NotCoprime({_decimal(qi)},{_decimal(qj)}): gcd = {_decimal(g)} at indices ({i},{j})")


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
            f"DegreeCapExceeded: {_decimal(coefficients)} coefficients exceed the cap of {cap}"
        )


class CapExceeded(CapacityError):
    """The tuple enumeration would pass its product cap, or a family its k cap."""


class NonzeroRemainder(IEPolyError, ArithmeticError):
    """Polynomial long division left a nonzero remainder where exactness was required."""


class CongruenceNotSatisfied(IEPolyError):
    """The residue hypothesis q_j = 2r +- 1 (mod 4r) fails for some element."""


class IdentityMismatch(IEPolyError, ArithmeticError):
    """Two evaluation routes of an exact identity disagree beyond tolerance."""
