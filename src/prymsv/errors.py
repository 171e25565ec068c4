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

    :func:`prymsv.exactq.admissible` returns it to say why a computation
    rejects a valid discriminant; the message names the residue, the square
    or the size.
    """


class InvalidRadius(PrymsvError, ValueError):
    """A counting radius whose pruning bound, family tolerance or normalisation is unusable."""


class InvalidSlit(PrymsvError):
    """A slit that is not finite, too short or too long for its lattices, or parallel to a generator."""
