"""Exception types shared across the package.

Every error raised on a documented failure path derives from SpinbandError,
so callers can catch the package's failures with a single except clause.
"""


class SpinbandError(Exception):
    """Base class for all spinband errors."""


# --- model -----------------------------------------------------------------

class PureInconsistent(SpinbandError):
    """Pure model given (E, G) that violate G = m E / q*^2."""


class HardConstraint(SpinbandError):
    """A soft-confinement quantity was requested under the hard constraint."""


class ValidationError(SpinbandError):
    """Parameter set fails a structural validity check."""


# --- volterra --------------------------------------------------------------

class StepUnstable(SpinbandError):
    """A marched quantity left the configured stability window."""


class GridMismatch(SpinbandError):
    """Two objects that must share a time grid do not."""


# --- fdt -------------------------------------------------------------------

class NotBracketed(SpinbandError):
    """No finite critical temperature: ``fdt.beta_c`` of the zero mixture."""


class BelowCritical(SpinbandError):
    """Aging constants requested at or below the critical temperature."""


class NotConverged(SpinbandError):
    """An integral or iteration did not reach its tail/tolerance target."""


class Unstable(SpinbandError):
    """Conditioned point is not a stable local minimum candidate (G too small)."""


class NoBranch(SpinbandError):
    """The localized no-aging branch does not exist at these parameters."""


# --- sk --------------------------------------------------------------------

class DomainError(SpinbandError):
    """Argument outside the mathematical domain of the map."""


class Delocalized(SpinbandError):
    """Stationary localized quantities requested in the delocalized phase."""


# --- simulate --------------------------------------------------------------

class SizeOverflow(SpinbandError):
    """Requested disorder storage exceeds the configured memory budget."""


class Blowup(SpinbandError):
    """A simulated trajectory exceeded the divergence guard."""


# --- cli -------------------------------------------------------------------

class ParseError(SpinbandError):
    """Config file could not be parsed."""
