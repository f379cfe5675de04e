"""Exception types shared across the package, and its one refusal of oversized inputs.

Every precondition failure raises a distinct class so callers (and the CLI
exit-code mapping) can tell configuration mistakes, resource refusals and
genuine inequality failures apart.  Every size the package refuses before
it builds anything goes through `_check_size` against a cap, DEFAULT_CAP
unless the caller passes its own.
"""

DEFAULT_CAP = 10**7


class WeylSumsError(Exception):
    """Base class for all package errors."""


class PreconditionError(WeylSumsError, ValueError):
    """An operation's stated precondition does not hold."""


class InvalidDenominatorError(PreconditionError):
    """Rational phase with denominator 0."""


class InvalidFieldError(PreconditionError):
    """Modulus is not an (odd, where required) prime."""


class InvalidNumeratorError(PreconditionError):
    """Numerator shares a factor with the modulus."""


class NotAPermutationError(PreconditionError):
    """x -> x^d does not permute F_p (gcd(d, p-1) != 1)."""


class BinomialVanishingError(PreconditionError):
    """p <= d: binomial coefficients may vanish mod p."""


class UndefinedForDegreeError(PreconditionError):
    """beta_d / kappa_d are defined for d >= 3 only."""


class InvalidPatternError(PreconditionError):
    """(a, b, c) violates a > b > c > 0 with a/b integral."""


class InvalidScheduleError(PreconditionError):
    """Cantor schedule violates divisibility or monotonicity."""


class TooFewScalesError(PreconditionError):
    """Box-counting needs >= 3 scales over a wide enough span."""


class PrimeTooSmallError(WeylSumsError):
    """The prime is too small for the requested construction."""


class ResourceLimitError(WeylSumsError):
    """Enumeration size exceeds the configured cap."""


class WitnessNotFoundError(WeylSumsError):
    """No large-sum witness in the searched box."""

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class ChecksumMismatchError(WeylSumsError):
    """Cached table failed its checksum on load."""


class LemmaCheckFailureError(WeylSumsError):
    """A theorem-backed inequality failed: implementation bug."""


def _check_size(what: str, base: int, e: int = 1, cap: int = DEFAULT_CAP, factor: int = 1) -> None:
    """Refuse a size of factor * base^e (base >= 0, e >= 0, factor >= 1) past cap, with what.format(size, cap).

    Bit lengths decide first: e (bitlen(base) - 1) >= bitlen(cap) puts base^e
    past cap, so the power is formed only when it has fewer than bitlen(cap)
    + e bits.  The message writes the size as base^e (base alone for e = 1),
    never in full, and a base past 2^64 by its bit length.
    """
    if e * (base.bit_length() - 1) >= cap.bit_length() or factor * base**e > cap:
        size = base if base < 1 << 64 else f"(2^{base.bit_length() - 1} or more)"
        raise ResourceLimitError(what.format(size if e == 1 else f"{size}^{e}", cap))
