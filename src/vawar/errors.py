"""Exception and warning types shared across the package."""


class VawarError(Exception):
    """Base class for all errors raised by this package."""


class TapeError(VawarError, ValueError):
    """A trade tape or one of its rows violates the data contract.

    A fault of one tick carries its index as ``tick`` and the message
    without its location as ``detail``; both are None otherwise.
    """

    tick = None
    detail = None


class NonPositiveField(TapeError):
    """Price, volume or value is zero or negative."""


class NonFinite(TapeError):
    """A numeric field is NaN/inf or could not be parsed as a number."""


class ValueMismatch(TapeError):
    """A supplied trade value disagrees with price * volume beyond tolerance."""


class NonUniformSpacing(TapeError):
    """Consecutive tick times do not differ by the declared spacing."""


class EmptyTape(TapeError):
    """The tape has no ticks."""


class MalformedRow(TapeError):
    """A CSV row (or the header) is structurally invalid."""


class WindowOutOfRange(VawarError, ValueError):
    """A window does not fit inside the tape (or is degenerate)."""


class InsufficientHistory(VawarError, ValueError):
    """A lagged lookup would reach before the start of the tape."""


class MismatchedWindows(VawarError, ValueError):
    """The two windows of a pair are incompatible (size, tape, or order)."""


class EmptySeries(VawarError, ValueError):
    """A moment was requested for an empty series."""


class OrderZero(VawarError, ValueError):
    """A characteristic-function fit needs at least one moment."""


class NotIntegrable(VawarError, ValueError):
    """The exponential characteristic function has no integrable tail."""


class QuadratureDivergence(VawarError, ArithmeticError):
    """|Q_m| does not fall below the edge threshold on any reachable grid."""


class NonPositiveVariance(VawarError, ValueError):
    """A Gaussian density was requested with variance <= 0."""


class InvalidConfig(VawarError, ValueError):
    """A synthetic-tape configuration is invalid."""


class UnknownStatistic(VawarError, ValueError):
    """The oracle does not implement the requested statistic."""


class OrderTooLarge(UserWarning):
    """Requested moment order exceeds the configured cap."""


class OrderExceedsWindow(UserWarning):
    """Requested moment order exceeds the number of ticks in the window."""
