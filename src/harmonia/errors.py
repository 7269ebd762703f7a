"""Exception types raised by the library.

Everything derives from :class:`HarmoniaError`, which itself derives from
``ValueError`` so that generic callers can keep a single except clause.
"""

__all__ = [
    "HarmoniaError",
    "DomainError",
    "PowerUnderflowError",
    "RangeError",
    "CutProximityError",
    "CutMismatchError",
    "PoleError",
    "NonSymmetricPairError",
    "BranchSelectionError",
    "BranchPointOnPathError",
    "QuadratureConvergenceError",
    "NonzeroMeanError",
    "ResonanceError",
]


class HarmoniaError(ValueError):
    """Base class for all errors raised by this package."""


class DomainError(HarmoniaError):
    """Evaluation requested outside an expression's domain (e.g. at z = 0)."""


class PowerUnderflowError(DomainError, ZeroDivisionError):
    """A negative power of a nonzero point lies beyond the float range: the
    positive power underflows to 0, and binary64 then divides by zero.  It
    is also that ``ZeroDivisionError``, so a caller that treats arithmetic
    failure as bad input (the CLI) keeps doing so."""


class RangeError(HarmoniaError, OverflowError):
    """A value beyond the float range.  A power in a term loop overflows at a
    finite point, where binary64 raises a bare ``OverflowError``, or the
    loop's sum is not finite there (a power whose two parts overflow gives
    NaN, and raises nothing).  A coefficient has finite parts but a modulus
    beyond the range.  Or a quadrature panel's error estimate is not finite,
    as an integrand value of inf or NaN makes it.  It is also that
    ``OverflowError``, so a caller that treats arithmetic failure as bad
    input (the CLI) keeps doing so."""


class CutProximityError(DomainError):
    """Point or ray lies within ``algebra.CUT_MARGIN`` radians of the log cut."""


class CutMismatchError(HarmoniaError):
    """Arithmetic was asked of two expressions on different log branch cuts."""


class PoleError(DomainError):
    """A Schwarz map or its inverse was evaluated at its pole."""


class NonSymmetricPairError(HarmoniaError):
    """A pair record whose zeta-part is not the conjugate mirror of its z-part."""


class BranchSelectionError(HarmoniaError):
    """A square-root branch of a Schwarz map derivative cannot be built on a
    path.  Nothing raises it directly: it is the public base of
    :class:`BranchPointOnPathError`."""


class BranchPointOnPathError(BranchSelectionError, PoleError):
    """The pole of the Schwarz map (or of its inverse) lies within 1e-7 r of
    the path, where the derivative blows up.  It is also a
    :class:`PoleError`, so ``except PoleError`` catches a path through the
    pole."""


class QuadratureConvergenceError(HarmoniaError):
    """Adaptive quadrature hit its maximum recursion depth."""


class NonzeroMeanError(HarmoniaError):
    """Neumann data whose boundary mean does not vanish was rejected."""


class ResonanceError(HarmoniaError):
    """The termwise first-order ODE solver cannot close the requested term."""
