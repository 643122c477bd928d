"""Exception types shared across the package.

Every validation failure carries a witness (the offending triple, pair or
index) so callers can report actionable diagnostics instead of a bare flag.
"""

from __future__ import annotations


class BohrsoundError(Exception):
    """Base class for all package errors."""


class SchemaError(BohrsoundError):
    """Malformed request or descriptor JSON."""


class SizeLimit(BohrsoundError):
    """Input exceeds a configured size limit."""


class InvariantViolation(BohrsoundError):
    """An internal consistency check failed: a bug, not a bad input."""


class CacheNotWritten(BohrsoundError):
    """A table cache entry could not be written."""


# group-core

class NoIdentity(BohrsoundError):
    pass


class NoInverse(BohrsoundError):
    def __init__(self, element: int):
        super().__init__(f"element {element} has no two-sided inverse")
        self.element = element


class NonAssociative(BohrsoundError):
    def __init__(self, triple: tuple[int, int, int]):
        super().__init__(f"associativity fails at {triple}")
        self.triple = triple


class NotASubgroup(BohrsoundError):
    pass


class NotAnAction(BohrsoundError):
    def __init__(self, witness, reason: str = ""):
        super().__init__(f"not a group action: {reason} (witness {witness})")
        self.witness = witness


class NotInjective(BohrsoundError):
    pass


class NotNormal(BohrsoundError):
    def __init__(self, witness=None):
        super().__init__(f"subgroup is not normal (witness {witness})")
        self.witness = witness


class SourceMismatch(BohrsoundError):
    pass


# char-theory

class PrimeSearchFailure(BohrsoundError):
    pass


class NotProper(BohrsoundError):
    pass


# zmat

class NotUnimodular(BohrsoundError):
    def __init__(self, det: int):
        super().__init__(f"matrix has determinant {det}, expected +-1")
        self.det = det


class DimensionMismatch(BohrsoundError):
    pass


class FactorNotFinite(BohrsoundError):
    def __init__(self, index: int):
        super().__init__(f"factor {index} generates an infinite matrix group")
        self.index = index


# amalgam

class InvalidLetter(BohrsoundError):
    pass


class DisagreeOnAmalgam(BohrsoundError):
    def __init__(self, witness):
        super().__init__(f"factor maps disagree on the amalgamated subgroup at {witness}")
        self.witness = witness


class AmalgamNotTrivial(BohrsoundError):
    pass


class NonzeroAtIdentity(BohrsoundError):
    pass


class NotSymmetric(BohrsoundError):
    def __init__(self, witness):
        super().__init__(f"length function is not symmetric (witness {witness})")
        self.witness = witness


class NotClassFunction(BohrsoundError):
    def __init__(self, witness):
        super().__init__(f"length function is not conjugation invariant (witness {witness})")
        self.witness = witness


class NotSubadditive(BohrsoundError):
    def __init__(self, witness):
        super().__init__(f"length function is not subadditive (witness {witness})")
        self.witness = witness


# lie-center

class InvalidDelta(BohrsoundError):
    pass


class DoesNotCommute(BohrsoundError):
    def __init__(self, witness):
        super().__init__(f"matrices do not commute (witness {witness})")
        self.witness = witness


class WrongOrder(BohrsoundError):
    def __init__(self, expected: int, got):
        super().__init__(f"expected element of order {expected}, got order {got}")
        self.expected = expected
        self.got = got
