"""Exception types raised across the package.

Every error that callers are expected to handle subclasses
:class:`HydrosplineError`, so the CLI (and library users) can catch one
base type for "bad data" conditions while programming mistakes still
surface as ordinary ``ValueError``/``TypeError``.
"""


class HydrosplineError(Exception):
    """Base class for all recoverable errors raised by this package."""


# dates and series assembly

class MalformedDate(HydrosplineError):
    """Date text does not have the M/D/YYYY shape."""


class InvalidDate(HydrosplineError):
    """Date text is well shaped but names no real calendar day."""


class DuplicateTimestamp(HydrosplineError):
    """Two rows of a table fall on the same calendar date."""


class EmptySeries(HydrosplineError):
    """No cell of a column carries a value; there is nothing to build a series from."""


# linear algebra kernels

class ZeroPivot(HydrosplineError):
    """Elimination hit a pivot too small to divide by."""


class RankDeficient(HydrosplineError):
    """Design matrix has (numerically) dependent columns."""


# spline fitting and evaluation

class TooFewKnots(HydrosplineError):
    """Not enough knots for the requested fit."""


class NegativeLambda(HydrosplineError):
    """Smoothing parameter must be non-negative."""


class UnsupportedOrder(HydrosplineError):
    """Derivative order outside the supported set {1, 2}."""


class WeightOverflow(HydrosplineError):
    """Barycentric weights overflow or underflow for this knot layout."""


class ResolutionTooSmall(HydrosplineError):
    """A dense grid needs at least two points."""


class NumericOverflow(HydrosplineError):
    """Values too large (or too small) for a finite result in float arithmetic."""


# regression and correlation

class DegreeTooHigh(HydrosplineError):
    """Polynomial degree outside the supported range."""


class InsufficientData(HydrosplineError):
    """Fewer observations than the fit requires."""


class InsufficientPairs(HydrosplineError):
    """Fewer than three date-matched pairs for a correlation."""


class ZeroVariance(HydrosplineError):
    """A correlation input is constant; the coefficient is undefined."""


# CSV ingestion and plotting

class HeaderMismatch(HydrosplineError):
    """CSV header is missing or malformed."""


class MalformedRow(HydrosplineError):
    """CSV row has the wrong number of cells."""


class MalformedNumber(HydrosplineError):
    """CSV cell is neither a number nor a missing-value marker."""


class UndecodableFile(HydrosplineError):
    """A data file is not UTF-8 text."""


class UnknownParameter(HydrosplineError):
    """Requested parameter is not a column of the dataset."""


class EmptyPlot(HydrosplineError):
    """Plot specification contains nothing drawable."""
