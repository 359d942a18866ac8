"""Exception types shared across the package.

Plain I/O failures surface as the builtin OSError; everything
domain-specific derives from CharSumLabError so callers can catch the
whole family at once.
"""


class CharSumLabError(Exception):
    """Base class for all library errors."""


class NotSquarefree(CharSumLabError):
    """Modulus has a repeated prime factor."""


class OutOfRange(CharSumLabError):
    """Input exceeds a documented size cap."""


class NotInvertible(CharSumLabError):
    """gcd(a, m) > 1, so a has no inverse mod m."""


class NotPrime(CharSumLabError):
    """A prime was required."""


class IndexOutOfRange(CharSumLabError):
    """Character index outside [0, p-1)."""


class TooLarge(CharSumLabError):
    """Enumeration or table would exceed its cap."""


class BoxTooLarge(CharSumLabError):
    """Box side length must stay below the field characteristic."""


class ArityMismatch(CharSumLabError):
    """Polynomial variable count disagrees with the point dimension."""


class PrecisionOverflow(CharSumLabError):
    """A monomial value left the range where double phases are trusted."""


class SingularSystem(CharSumLabError):
    """Linear forms are not independent modulo q."""


class BudgetExceeded(CharSumLabError):
    """Requested enumeration exceeds the operation budget."""


class RangeViolation(CharSumLabError):
    """A range hypothesis (such as V <= min q_i) fails."""


class MissingCount(CharSumLabError):
    """A required Vinogradov count was not supplied."""


class DegenerateDenominator(CharSumLabError):
    """Exponent formula has a pole at this (r, d)."""


class HypothesisViolated(CharSumLabError):
    """A stated lemma/theorem hypothesis fails and no override was given."""


class InvalidConfig(CharSumLabError):
    """A campaign setting lies outside its range."""


class CacheVersionMismatch(CharSumLabError):
    """Cache file has a bad magic or unsupported version."""
