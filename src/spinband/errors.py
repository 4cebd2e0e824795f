"""Exception types shared across the package, one per way a caller would act.

Every error raised on a documented failure path derives from SpinbandError,
so callers can catch the package's failures with a single except clause.
"""


class SpinbandError(Exception):
    """Base class for all spinband errors."""


class ValidationError(SpinbandError):
    """The arguments admit no answer, whatever the cause."""


class NoBranch(SpinbandError):
    """The arguments are valid, but the long-time branch asked for does not
    exist there (no aging at or below beta_c, no localized limit)."""


class StepUnstable(SpinbandError):
    """A march or a simulated trajectory left its stability window."""


class NotConverged(SpinbandError):
    """An integral or iteration did not reach its tail/tolerance target."""


class GridMismatch(SpinbandError):
    """A time grid is malformed, or a time or an object is not on the grid
    it must share."""


class SizeOverflow(SpinbandError):
    """Requested disorder storage exceeds the configured memory budget."""


class ParseError(SpinbandError):
    """Config file, command line or run directory could not be parsed, or
    an output path or artifact could not be written."""
