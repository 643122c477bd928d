"""Exception types shared across the package.

The witness errors carry the offending value (a triple, pair, index or
determinant) as `.witness`, so callers can report actionable diagnostics
instead of a bare flag; the other errors carry only their message.
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


class WitnessError(BohrsoundError):
    """A failure shown by a value: the message is `template` formatted with
    the witness and any detail after it, and the witness is kept.  The
    arguments stay in `args`, so the error survives pickling."""

    def __init__(self, witness, *detail):
        super().__init__(witness, *detail)
        self.witness = witness

    def __str__(self) -> str:
        return self.template.format(*self.args)


# group-core

class NoIdentity(BohrsoundError):
    pass


class NoInverse(WitnessError):
    template = "element {} has no two-sided inverse"


class NonAssociative(WitnessError):
    template = "associativity fails at {}"


class NotASubgroup(BohrsoundError):
    pass


class NotAnAction(WitnessError):
    template = "not a group action: {1} (witness {0})"


class NotInjective(BohrsoundError):
    pass


class NotNormal(WitnessError):
    template = "subgroup is not normal (witness {})"


class SourceMismatch(BohrsoundError):
    pass


# char-theory

class PrimeSearchFailure(BohrsoundError):
    pass


class NotProper(BohrsoundError):
    pass


# zmat

class NotUnimodular(WitnessError):
    template = "matrix has determinant {}, expected +-1"


class DimensionMismatch(BohrsoundError):
    pass


class FactorNotFinite(WitnessError):
    template = "factor {} generates an infinite matrix group"


# amalgam

class InvalidLetter(BohrsoundError):
    pass


class DisagreeOnAmalgam(WitnessError):
    template = "factor maps disagree on the amalgamated subgroup at {}"


class AmalgamNotTrivial(BohrsoundError):
    pass


class NonzeroAtIdentity(BohrsoundError):
    pass


class NotSymmetric(WitnessError):
    template = "length function is not symmetric (witness {})"


class NotClassFunction(WitnessError):
    template = "length function is not conjugation invariant (witness {})"


class NotSubadditive(WitnessError):
    template = "length function is not subadditive (witness {})"


# lie-center

class InvalidDelta(BohrsoundError):
    pass


class DoesNotCommute(WitnessError):
    template = "matrices do not commute (witness {})"


class WrongOrder(WitnessError):
    template = "expected element of order {1}, got order {0}"
