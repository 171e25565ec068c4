"""Exception hierarchy shared across the package."""


class PrymsvError(Exception):
    """Base class for all package-specific errors."""


class InvalidDiscriminant(PrymsvError):
    """An integer that is not a positive discriminant (:math:`D \\equiv 0, 1 \\pmod 4`)."""


class BRequired(PrymsvError):
    """An operation that is only defined for prototypes with ``b == 0``."""


class InvalidPrototype(PrymsvError):
    """Integers that violate the defining constraints of a prototype family."""


class ParseError(PrymsvError):
    """Malformed serialized input (CSV rows, rational strings, ...)."""


class MissingTableEntry(PrymsvError):
    """A table lookup for a discriminant or column that the table does not carry."""


class OutsideTheoremHypotheses(PrymsvError):
    """A discriminant outside the hypotheses of the closed-form results.

    :func:`prymsv.exactq.admissible` returns it, or one of the subclasses
    below, to say why a computation rejects a valid discriminant.
    """


class UnsupportedResidue(OutsideTheoremHypotheses):
    """A discriminant outside the residue classes mod 8 that a locus needs."""


class ResidueMismatch(OutsideTheoremHypotheses):
    """A discriminant outside the residue classes a formula is stated for."""


class SquareDiscriminant(OutsideTheoremHypotheses):
    """A perfect-square discriminant passed where a non-square one is required."""


class NotDivisibleBy4(OutsideTheoremHypotheses):
    """A discriminant that is not divisible by four where the formula needs D/4."""


class InvalidRadius(PrymsvError, ValueError):
    """A counting radius whose pruning bound, family tolerance or normalisation is unusable."""


class SlitTooLong(PrymsvError):
    """A slit vector too long to fit inside the chosen fundamental domains."""


class DegenerateDirection(PrymsvError):
    """A slit direction parallel to a short lattice vector."""
