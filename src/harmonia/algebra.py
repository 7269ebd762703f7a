"""Exact calculus over finite log-Laurent sums.

Univariate expressions are finite sums

    e(z) = sum_j  c_j * z**k_j * (log z)**m_j

with integer powers ``k`` and nonnegative integer log-powers ``m``.  This
is the smallest class containing Laurent polynomials that is closed under
d/dz and under primitives of e(z)/z, which is exactly the closure needed
by the boundary-operator integrals in this package.  Two termwise loops
carry the calculus.  One Euler pass gives both d/dz and the Euler operator
z d/dz (``z_derivative``, r d/dr on a holomorphic part), the latter without
the product by z.  One solver gives the particular solution h of
a h + b z h' = e, which the Robin operators need, and the primitive of
e(z)/z is that solve at (a, b) = (0, 1).  ``ray_change`` gives the change
of an expression between the two ends e^{i theta}/r and r e^{i theta} of a
ray in one pass over its terms.  Bivariate expressions are plain Laurent
sums ``c * z**kz * zeta**kzeta`` and carry boundary data extended
holomorphically to two complex variables; real data are ``mirrored``
(conj(c) at (kzeta, kz) for every c at (kz, kzeta)), a flag derived on
first read.

Coefficients are binary64 complex.  Exponents are integers; a float
exponent is read only when its value is integral (JSON may write 2 as
2.0), and anything else raises ``ValueError``, as does a term tuple of any
length but (coeff, power[, logpow]) or (coeff, zpow, zetapow).  Terms are
merged on (power, logpow) and coefficients with ``|c| < COEFF_EPS`` are
dropped during normalization, so identity tests can demand exact term
equality.

Expressions are immutable, so what is derived from one expression again
and again is kept on it: whether it carries logarithms, its derivative,
its Euler derivative ``z_derivative``, its primitive, and (bivariate) its
last restriction to the circle, its ``mirrored`` flag and the flat term
tuple that its integrand kernels read.  Being
immutable, an expression is its own copy and deep copy, and it pickles as
its terms and context.

The logarithm is a principal-style branch with a configurable cut
direction (default: the negative real axis, ``cut_angle = pi``).
Evaluating an expression that actually contains logarithms rejects points
within ``CUT_MARGIN`` radians of the cut instead of silently crossing it.
The cut belongs to the expression, so sums and products of two expressions
with different cuts raise ``CutMismatchError``; nothing converts between
cuts on the fly.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from operator import index, itemgetter
from typing import Union

from .errors import (
    CutMismatchError,
    CutProximityError,
    DomainError,
    PoleError,
    PowerUnderflowError,
    RangeError,
    ResonanceError,
)
from .records import BIVARIATE_TERM, TERM, read

__all__ = [
    "DEFAULT_CUT_ANGLE",
    "CUT_MARGIN",
    "COEFF_EPS",
    "branch_log",
    "cut_distance",
    "LogLaurentTerm",
    "LogLaurentExpr",
    "BivariateLaurentExpr",
]

DEFAULT_CUT_ANGLE = math.pi
CUT_MARGIN = 1e-6
COEFF_EPS = 1e-15
_NEAR_RESONANCE = 1e-12

_TWO_PI = 2.0 * math.pi


def cut_distance(angle: float, cut_angle: float) -> float:
    """Angular distance (mod 2*pi) between a direction and the cut ray."""
    d = (angle - cut_angle) % _TWO_PI
    return min(d, _TWO_PI - d)


def branch_log(z: complex, cut_angle: float = DEFAULT_CUT_ANGLE) -> complex:
    """log z with the branch cut along the ray arg(z) = cut_angle.

    The argument is taken in (cut_angle - 2*pi, cut_angle]; for the
    default cut this is the principal branch.
    """
    if z == 0:
        raise DomainError("log is singular at z = 0")
    return complex(math.log(abs(z)), _fold_angle(cmath.phase(z), cut_angle))


def _fold_angle(theta: float, cut_angle: float) -> float:
    """theta moved by a multiple of 2*pi into the window (cut_angle - 2*pi, cut_angle]."""
    return theta - _TWO_PI * math.ceil((theta - cut_angle) / _TWO_PI)


@dataclass(frozen=True)
class LogLaurentTerm:
    """A single term c * z**power * (log z)**logpow."""

    coeff: complex
    power: int
    logpow: int = 0


def _exponent(x) -> int:
    """An exponent as an int: an integer, or a float with an integral value
    (JSON may write 2 as 2.0)."""
    if isinstance(x, float):
        if x.is_integer():
            return int(x)
    else:
        try:
            return index(x)
        except TypeError:
            pass
    raise ValueError(f"exponent {x!r} is not an integer")


def _merge(items, acc: dict | None = None) -> dict:
    """Sum the coefficients of (exponent pair, coefficient) items per pair,
    into ``acc`` when one is given."""
    if acc is None:
        acc = {}
    for (a, b), c in items:
        key = (a if type(a) is int else _exponent(a), b if type(b) is int else _exponent(b))
        acc[key] = acc.get(key, 0j) + complex(c)
    return acc


def _beyond_range(exc: ArithmeticError, where: str) -> ArithmeticError:
    """The error for a term loop whose powers left the float range.

    A ``ZeroDivisionError`` is a ``w**k``, k < 0, that divided by zero: a
    point 0 is rejected before the loop, so w came from a nonzero value, and
    ``w**-k``, or w itself, underflowed to 0.  An ``OverflowError`` is a
    power that overflowed.
    """
    if isinstance(exc, ZeroDivisionError):
        return PowerUnderflowError(f"a negative power {where} is beyond the float range")
    return RangeError(f"a power {where} is beyond the float range")


def _not_finite(where: str) -> RangeError:
    """The error for a term loop whose total is not finite at a finite point:
    a product overflowed to inf, or a power whose parts both overflowed
    gave NaN, where binary64 raises nothing."""
    return RangeError(f"the sum {where} is beyond the float range")


def _modulus_overflow(c: complex) -> RangeError:
    """The error for a finite coefficient whose modulus exceeds the float
    range, where ``abs`` raises a bare ``OverflowError``."""
    return RangeError(f"coefficient {c!r} has a modulus beyond the float range")


TermsLike = Union[
    Mapping[tuple, complex],
    Iterable,  # of LogLaurentTerm or (coeff, power[, logpow]) tuples
]


class _SparseSum:
    """An immutable finite sum of terms, each a complex coefficient keyed by
    a pair of integer exponents.

    Subclasses name the two exponents in ``_EXPONENTS`` (also their JSON
    keys), print them in ``_factors`` and rebuild an expression of their own
    kind from merged terms in ``_like``; ``_context`` adds what else == and
    hash compare.  Arithmetic accepts only operands of the same class, and
    ``_same_context`` rejects those it may not combine (for
    ``LogLaurentExpr``, another cut).

    ``__init__`` here normalizes an accumulator that already holds int
    exponent pairs and complex coefficients: it rejects non-finite
    coefficients and finite ones whose modulus overflows, and drops those
    below ``COEFF_EPS``.  It keeps the accumulator itself when nothing is
    dropped, so the caller must not change that dict afterwards.  The public
    constructors merge and coerce user input first; derived expressions come
    from ``_like`` and ``_build``, which skip that step.
    ``LogLaurentExpr._plus_constant`` tests only the entry it changes.
    Subclass slots other than ``_terms`` and the context are caches, which
    ==, hash, repr and JSON ignore.
    """

    __slots__ = ("_terms",)
    _EXPONENTS: tuple

    def __init__(self, acc: dict):
        # a non-finite coefficient makes the sum non-finite, so one sum
        # decides whether to look; finite ones whose sum overflows pass
        if not cmath.isfinite(sum(acc.values())):
            for c in acc.values():
                if not cmath.isfinite(c):
                    raise ValueError(f"non-finite coefficient {c!r}")
        try:
            small = min(map(abs, acc.values()), default=COEFF_EPS) < COEFF_EPS
        except OverflowError:
            raise _modulus_overflow(
                next(c for c in acc.values() if math.hypot(c.real, c.imag) == math.inf)
            ) from None
        if small:
            acc = {key: c for key, c in acc.items() if abs(c) >= COEFF_EPS}
        object.__setattr__(self, "_terms", acc)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _build(cls, acc: dict, *context):
        """An expression from an accumulator of int exponent pairs and complex
        coefficients, bypassing the public constructor; ``context`` is what
        ``_setup`` takes after the accumulator."""
        expr = object.__new__(cls)
        expr._setup(acc, *context)
        return expr

    def _context(self) -> tuple:
        """What == and hash compare besides the terms."""
        return ()

    def __reduce__(self):
        return self._build, (self._terms, *self._context())

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms and self._context() == other._context()

    def __hash__(self):
        return hash((frozenset(self._terms.items()), *self._context()))

    def __repr__(self) -> str:
        body = " + ".join(
            f"({c:.6g})" + self._factors(*key) for key, c in sorted(self._terms.items())
        )
        return f"{type(self).__name__}({body or 0})"

    # -- arithmetic ------------------------------------------------------------

    def _same_context(self, other) -> None:
        """Raise unless ``other`` may be combined with self; a subclass with a
        context overrides this."""

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._same_context(other)
        acc = dict(self._terms)
        for key, c in other._terms.items():
            acc[key] = acc.get(key, 0j) + c
        return self._like(acc)

    def _scaled_sum(self, a: complex, other, b: complex):
        """self * a + other * b, term for term, built as one expression.

        A scaled term below ``COEFF_EPS`` is left out of the sum, as the
        scaled expression would drop it.
        """
        self._same_context(other)
        a, b = complex(a), complex(b)
        acc: dict = {}
        try:  # of these statements only abs raises OverflowError
            for key, c in self._terms.items():
                c *= a
                if not abs(c) < COEFF_EPS:
                    acc[key] = c
            for key, c in other._terms.items():
                c *= b
                if not abs(c) < COEFF_EPS:
                    acc[key] = acc.get(key, 0j) + c
        except OverflowError:
            raise _modulus_overflow(c) from None
        return self._like(acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({key: -c for key, c in self._terms.items()})

    def __mul__(self, other):
        if type(other) is type(self):
            self._same_context(other)
            acc: dict = {}
            for (a1, b1), c1 in self._terms.items():
                for (a2, b2), c2 in other._terms.items():
                    key = (a1 + a2, b1 + b2)
                    acc[key] = acc.get(key, 0j) + c1 * c2
            return self._like(acc)
        if isinstance(other, (int, float, complex)):
            other = complex(other)
            return self._like({key: c * other for key, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def to_json(self) -> list:
        """JSON array of term records {re, im} plus the two exponent names."""
        a, b = self._EXPONENTS
        return [
            {"re": c.real, "im": c.imag, a: p, b: q}
            for (p, q), c in sorted(self._terms.items())
        ]


def _log_term_item(t) -> tuple:
    if isinstance(t, LogLaurentTerm):
        return (t.power, t.logpow), t.coeff
    if len(t) == 3:
        c, k, m = t
        return (k, m), c
    if len(t) == 2:
        c, k = t
        return (k, 0), c
    raise ValueError(f"term {t!r} is not (coeff, power) or (coeff, power, logpow)")


def _bivariate_term_item(t) -> tuple:
    if len(t) != 3:
        raise ValueError(f"term {t!r} is not (coeff, zpow, zetapow)")
    c, kz, kzeta = t
    return (kz, kzeta), c


class LogLaurentExpr(_SparseSum):
    """A normalized finite sum of log-Laurent terms.

    Instances are immutable; all operations return new expressions.  The
    branch-cut direction travels with the expression and is inherited by
    derived expressions.
    """

    __slots__ = ("_cut_angle", "_has_log", "_derivative", "_z_derivative", "_primitive")
    _EXPONENTS = ("k", "m")

    def __init__(self, terms: TermsLike = (), cut_angle: float = DEFAULT_CUT_ANGLE):
        if isinstance(terms, Mapping):
            acc = _merge(terms.items())
        else:
            # a plain (c, k, m) tuple with int exponents is merged here; every
            # other shape goes through _log_term_item and _merge, which coerce
            # it or raise, in term order either way
            acc = {}
            get = acc.get
            for t in terms:
                if type(t) is tuple and len(t) == 3:
                    c, k, m = t
                    if type(k) is int and type(m) is int:
                        key = (k, m)
                        acc[key] = get(key, 0j) + complex(c)
                        continue
                _merge((_log_term_item(t),), acc)
        for _, m in acc:
            if m < 0:
                raise ValueError(f"negative log power {m}")
        self._setup(acc, float(cut_angle))

    def _setup(self, acc: dict, cut_angle: float) -> None:
        _SparseSum.__init__(self, acc)
        self._start(cut_angle, any(map(itemgetter(1), self._terms)))

    def _start(self, cut_angle: float, has_log: bool) -> None:
        """Set the cut, the log flag and empty caches once the terms are set."""
        object.__setattr__(self, "_cut_angle", cut_angle)
        object.__setattr__(self, "_has_log", has_log)
        object.__setattr__(self, "_derivative", None)
        object.__setattr__(self, "_z_derivative", None)
        object.__setattr__(self, "_primitive", None)

    def _like(self, acc: dict) -> "LogLaurentExpr":
        # _setup's work in one call: normalize, then set what _start sets
        expr = object.__new__(LogLaurentExpr)
        _SparseSum.__init__(expr, acc)
        put = object.__setattr__
        put(expr, "_cut_angle", self._cut_angle)
        put(expr, "_has_log", any(map(itemgetter(1), expr._terms)))
        put(expr, "_derivative", None)
        put(expr, "_z_derivative", None)
        put(expr, "_primitive", None)
        return expr

    def _context(self) -> tuple:
        return (self._cut_angle,)

    def _same_context(self, other) -> None:
        """Raise ``CutMismatchError`` when the operands' cuts differ: a log term
        summed onto another cut's expression would take the wrong branch."""
        if other._cut_angle != self._cut_angle:
            raise CutMismatchError(
                f"operands have branch cuts at {self._cut_angle!r} and "
                f"{other._cut_angle!r}; move one with with_cut_angle first"
            )

    @staticmethod
    def _factors(k: int, m: int) -> str:
        s = f"*z^{k}" if k else ""
        if m:
            s += f"*log(z)^{m}" if m > 1 else "*log(z)"
        return s

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, value: complex) -> "LogLaurentExpr":
        return cls([(value, 0, 0)])

    @classmethod
    def monomial(cls, coeff: complex, power: int, logpow: int = 0) -> "LogLaurentExpr":
        return cls([(coeff, power, logpow)])

    # -- basic queries ---------------------------------------------------------

    @property
    def cut_angle(self) -> float:
        return self._cut_angle

    @property
    def terms(self) -> tuple:
        """Normalized terms, sorted by (power, logpow)."""
        return tuple(
            LogLaurentTerm(c, k, m) for (k, m), c in sorted(self._terms.items())
        )

    def has_log(self) -> bool:
        return self._has_log

    # -- evaluation ------------------------------------------------------------

    def eval(self, z: complex) -> complex:
        """Evaluate at a nonzero point off the branch cut.

        Points within ``CUT_MARGIN`` radians of the cut ray are rejected when
        (and only when) the expression carries logarithm terms.  z = 0 raises
        ``DomainError`` on every call, before any term is read, whatever the
        powers.  No power of a zero exponent is computed (see ``_sum``).
        """
        z = complex(z)
        if z == 0:
            raise DomainError("expression is singular at z = 0")
        lg = None
        if self._has_log:
            # cut_distance and _fold_angle, sharing phase - cut
            phase = cmath.phase(z)
            off = phase - self._cut_angle
            d = off % _TWO_PI
            if d < CUT_MARGIN or _TWO_PI - d < CUT_MARGIN:
                raise CutProximityError(
                    f"point at angle {phase:.6g} is within {CUT_MARGIN:g} rad "
                    f"of the branch cut at {self._cut_angle:.6g}"
                )
            # in (-2 pi, 0] the fold moves phase by 0 (always so on the cut at pi)
            if not -_TWO_PI < off <= 0.0:
                phase -= _TWO_PI * math.ceil(off / _TWO_PI)
            lg = complex(math.log(abs(z)), phase)
        return self._sum(z, lg)

    __call__ = eval

    def ray_change(self, theta: float, r: float) -> complex:
        """self(e^{i theta}/r) - self(r e^{i theta}), both on the branch of the ray.

        At rho = 1/r and rho = r, z = rho e^{i theta} and log z = log rho +
        i theta, with theta folded into the branch window of the cut; both
        ends are summed in one pass over the terms, each term's float
        operations those of ``_sum`` at its end.  Unlike ``eval`` and
        ``restrict_to_ray`` it rejects no ray near the cut: a difference of
        values along one ray can be continuous across the cut when the values
        are not (the primitive of log-free data jumps by a constant there), so
        the caller guards what it must.
        """
        theta = float(theta)
        return self._ray_change(theta, cmath.exp(1j * theta), r)

    def _ray_change(self, theta: float, ez: complex, r: float) -> complex:
        """``ray_change`` given ez = e^{i theta}, which a caller that holds it
        passes in.  ez is recomputed only when folding theta into the branch
        window moves it (theta = -pi on the cut at pi), so the value is the
        same bit for bit.  A total that is not finite raises ``RangeError``."""
        # in (-2 pi, 0] the fold moves theta by 0, as in eval
        if not -_TWO_PI < theta - self._cut_angle <= 0.0:
            folded = _fold_angle(theta, self._cut_angle)
            if folded != theta:
                theta, ez = folded, cmath.exp(1j * folded)
        rho = 1.0 / r
        z_out, z_in = rho * ez, r * ez
        if self._has_log:
            lg_out, lg_in = complex(math.log(rho), theta), complex(math.log(r), theta)
        out = inner = 0j
        try:
            for (k, m), c in self._terms.items():
                c_out = c_in = c
                if k:
                    c_out *= z_out**k
                    c_in *= z_in**k
                if m:
                    c_out *= lg_out**m
                    c_in *= lg_in**m
                out += c_out
                inner += c_in
        except (ZeroDivisionError, OverflowError) as exc:
            raise _beyond_range(exc, f"on the ray from z = {z_out!r} to z = {z_in!r}") from None
        change = out - inner
        if not cmath.isfinite(change):
            raise _not_finite(f"on the ray from z = {z_out!r} to z = {z_in!r}")
        return change

    def _sum(self, z: complex, lg: complex | None) -> complex:
        """The terms at z, given log z (None when the expression has no logs).

        No power of a zero exponent is computed: a term is c, times z**k
        when k != 0, times lg**m when m != 0.  ``w**0`` is exactly 1 + 0j, and
        a product by it moves at most the sign of a zero part, which the
        running sum from 0j removes, so the value is the same bit for bit.
        z**k is taken once per run of equal k (the Euler solver emits each
        k's log powers as one run) and lg**m once per call for each m >= 2;
        m = 1 multiplies by lg itself, which ``lg**1`` equals but for the
        sign of a zero part, removed as above.
        A negative power of a nonzero z beyond the float range raises
        ``PowerUnderflowError``, and a power that overflows, or a total that
        is not finite, ``RangeError``.
        """
        total = 0j
        k_now = 0  # the k of zk
        logs: dict = {}  # m -> lg**m for m >= 2
        try:
            for (k, m), c in self._terms.items():
                if k:
                    if k != k_now:
                        k_now = k
                        zk = z**k
                    c *= zk
                if m:
                    if m == 1:
                        c *= lg
                    else:
                        lgm = logs.get(m)
                        if lgm is None:
                            lgm = logs[m] = lg**m
                        c *= lgm
                total += c
        except (ZeroDivisionError, OverflowError) as exc:
            raise _beyond_range(exc, f"at z = {z!r}") from None
        if not cmath.isfinite(total):
            raise _not_finite(f"at z = {z!r}")
        return total

    def _real_at_one(self) -> float:
        """Re self(1) read from the coefficients, for a cut where log 1 = 0
        (the cut at pi; not a cut at 0, where ``eval`` rejects z = 1).

        There (1 + 0j)**k is exactly 1 + 0j, so in ``_sum`` a term with
        m = 0 adds its coefficient's real part and one with m > 0 a zero;
        a zero of either sign leaves the running sum from +0.0 as it is.
        The real parts are summed in term order from 0.0 by plain float
        addition (``sum`` compensates floats from Python 3.12), so the value
        is ``self.eval(1).real`` bit for bit.
        """
        total = 0.0
        for (_, m), c in self._terms.items():
            if not m:
                total += c.real
        return total

    # -- calculus --------------------------------------------------------------

    def _euler(self, shift: int) -> "LogLaurentExpr":
        """z**shift times the Euler operator z d/dz, termwise in one pass:
        c z^k log^m -> c k z^(k+shift) log^m + c m z^(k+shift) log^(m-1).

        Shift -1 is d/dz and shift 0 is z d/dz.
        """
        acc: dict = {}
        get = acc.get
        for (k, m), c in self._terms.items():
            p = k + shift
            if k:
                key = (p, m)
                acc[key] = get(key, 0j) + c * k
            if m:
                key = (p, m - 1)
                acc[key] = get(key, 0j) + c * m
        return self._like(acc)

    def differentiate(self) -> "LogLaurentExpr":
        """Termwise d/dz: c z^k log^m -> c k z^(k-1) log^m + c m z^(k-1) log^(m-1).

        Computed on the first call and returned by later calls.
        """
        if self._derivative is None:
            object.__setattr__(self, "_derivative", self._euler(-1))
        return self._derivative

    def z_derivative(self) -> "LogLaurentExpr":
        """The Euler operator z d/dz, termwise in one pass:
        c z^k log^m -> c k z^k log^m + c m z^k log^(m-1).

        Equal term for term to ``monomial(1, 1) * differentiate()``; on a
        holomorphic part it is r d/dr.  Computed on the first call and
        returned by later calls.
        """
        if self._z_derivative is None:
            object.__setattr__(self, "_z_derivative", self._euler(0))
        return self._z_derivative

    def _solve_euler(self, a: float, b: float) -> "LogLaurentExpr":
        """The particular solution h of a h + b z h' = self, termwise.

        A term c z^k log^m with s = a + b k != 0 is matched at the same power
        by descending log powers: c/s at (k, m), then c <- -c (b m)/s and
        m <- m - 1, down to m = 0.  A resonant term (s == 0) is matched by
        raising the log power once, with coefficient c / (b (m+1)).  A power
        with s nonzero but |s| < ``_NEAR_RESONANCE`` max(1, |a|) raises
        ``ResonanceError``; near resonance |b k| agrees with |a| to that
        relative width, so |a| stands for both.  Terms are read in the
        expression's own order.  The homogeneous solution, a non-integer power
        of z for general a/b, lies outside the algebra and is not added.
        """
        acc: dict = {}
        get = acc.get
        floor = _NEAR_RESONANCE * max(1.0, abs(a))
        for (k, m), c in self._terms.items():
            s = a + b * k
            if s == 0.0:
                key = (k, m + 1)
                acc[key] = get(key, 0j) + c / (b * (m + 1))
                continue
            if abs(s) < floor:
                raise ResonanceError(
                    f"a + b*k = {s:.3g} at power {k} is too close to resonance "
                    "to solve stably"
                )
            while True:
                key = (k, m)
                acc[key] = get(key, 0j) + c / s
                if not m:
                    break
                c = -c * (b * m) / s
                m -= 1
        return self._like(acc)

    def antiderivative_over_arg(self) -> "LogLaurentExpr":
        """Exact primitive A with A'(z) = self(z)/z and integration constant 0.

        z A' = self is the Euler equation a A + b z A' = self at (a, b) =
        (0, 1), so the termwise rule for the integrand c z^(k-1) (log z)^m is

            k == 0:  c (log z)^(m+1) / (m+1)
            k != 0:  c z^k (log z)^m / k  minus  (m/k) times the primitive
                     of c z^(k-1) (log z)^(m-1), unrolled down to m = 0.

        Computed on the first call and returned by later calls.
        """
        if self._primitive is None:
            object.__setattr__(self, "_primitive", self._solve_euler(0.0, 1.0))
        return self._primitive

    def restrict_to_ray(self, theta: float) -> "LogLaurentExpr":
        """Substitute z = rho * exp(i theta); the result is an expression in rho.

        Each term c z^k log^m z becomes c e^{ik theta} rho^k (log rho + i theta)^m,
        expanded binomially.  ``theta`` is folded into the branch window of
        the cut first.  The result keeps the cut, so its own log of rho > 0 is
        log|rho| + i rho_arg, with rho_arg the angle of 0 in that window; the
        expansion therefore takes i (theta - rho_arg) in place of i theta.
        Evaluation at positive rho then agrees with direct evaluation at
        rho*e^{i theta} for every cut.
        """
        theta = float(theta)
        theta_adj = _fold_angle(theta, self._cut_angle)
        rho_arg = _fold_angle(0.0, self._cut_angle)
        if self._has_log and cut_distance(theta, self._cut_angle) < CUT_MARGIN:
            raise CutProximityError(
                f"ray angle {theta:.6g} is within {CUT_MARGIN:g} rad of the branch cut"
            )
        acc: dict = {}
        for (k, m), c in self._terms.items():
            base = c * cmath.exp(1j * k * theta_adj)
            for j in range(m + 1):
                key = (k, j)
                acc[key] = acc.get(key, 0j) + (
                    base * math.comb(m, j) * (1j * (theta_adj - rho_arg)) ** (m - j)
                )
        return self._like(acc)

    def invert_argument(self) -> "LogLaurentExpr":
        """Substitute z -> 1/z:  c z^k log^m  ->  c (-1)^m z^(-k) log^m.

        Valid off the cut, where log(1/z) = -log(z).
        """
        acc = {(-k, m): c * (-1) ** m for (k, m), c in self._terms.items()}
        return self._like(acc)

    def conjugate_mirror(self) -> "LogLaurentExpr":
        """Coefficient-conjugated copy.

        The zeta-part that a pair record holds for the z-part self: on the
        default cut, which conjugation maps to itself, it is
        conj(self(conj zeta)).
        """
        acc = {key: c.conjugate() for key, c in self._terms.items()}
        return self._like(acc)

    def _plus_constant(self, value: complex) -> "LogLaurentExpr":
        """self + constant(value), term for term, built as one expression.

        The other terms are normalized already, so only the entry at (0, 0)
        is tested.  An entry that is not finite, whose modulus overflows or
        that falls below ``COEFF_EPS`` sends the sum through the full
        normalization, which raises or drops as a new expression does.
        """
        acc = dict(self._terms)
        c = 0j + complex(value)
        try:
            drop = abs(c) < COEFF_EPS
        except OverflowError:
            raise _modulus_overflow(c) from None
        if not drop:
            entry = acc[0, 0] = acc.get((0, 0), 0j) + c
            try:
                kept = cmath.isfinite(entry) and abs(entry) >= COEFF_EPS
            except OverflowError:
                kept = False
            if not kept:
                return self._like(acc)
        expr = object.__new__(LogLaurentExpr)
        object.__setattr__(expr, "_terms", acc)
        expr._start(self._cut_angle, self._has_log)  # (0, 0) carries no log
        return expr

    def with_cut_angle(self, cut_angle: float) -> "LogLaurentExpr":
        return LogLaurentExpr._build(self._terms, float(cut_angle))

    # -- serialization ----------------------------------------------------------

    @classmethod
    def from_json(cls, data: list, cut_angle: float = DEFAULT_CUT_ANGLE) -> "LogLaurentExpr":
        return cls._from_terms(read(data, [TERM]), cut_angle)

    @classmethod
    def _from_terms(cls, terms: list, cut_angle: float) -> "LogLaurentExpr":
        """The expression of term records already held to ``records.TERM``."""
        return cls([(complex(t["re"], t.get("im", 0.0)), t["k"], t.get("m", 0)) for t in terms],
                   cut_angle)


def _reject_zero_power(exponents, z: complex, zeta: complex) -> None:
    """Raise ``DomainError`` if a pair (kz, kzeta) of ``exponents`` takes a
    negative power of a zero z or zeta."""
    for kz, kzeta in exponents:
        if (kz < 0 and z == 0) or (kzeta < 0 and zeta == 0):
            raise DomainError("negative power evaluated at 0")


class BivariateLaurentExpr(_SparseSum):
    """A finite Laurent sum c * z**kz * zeta**kzeta in two complex variables.

    Besides ``eval``, two kernel builders return the integrands of the arc
    reflections as one closure each, which read the terms from a flat
    ``(kz, kzeta, c)`` tuple built once per expression.
    """

    __slots__ = ("_circle", "_mirrored", "_flat")
    _EXPONENTS = ("kz", "kzeta")

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else map(_bivariate_term_item, terms)
        self._setup(_merge(items))

    def _setup(self, acc: dict) -> None:
        _SparseSum.__init__(self, acc)
        object.__setattr__(self, "_circle", None)  # (cut angle, restriction)
        object.__setattr__(self, "_mirrored", None)
        object.__setattr__(self, "_flat", None)

    @property
    def mirrored(self) -> bool:
        """Whether every term c at (kz, kzeta) has conj(c) at (kzeta, kz).

        Then conj(self(z, zeta)) = self(conj(zeta), conj(z)), so on the real
        slice the expression is real data and self(x, conj(y)) is the
        conjugate of self(y, conj(x)).  Derived on the first read and kept:
        ==, hash, repr and JSON do not see it.
        """
        if self._mirrored is None:
            terms = self._terms
            flag = all(
                terms.get((kzeta, kz)) == c.conjugate() for (kz, kzeta), c in terms.items()
            )
            object.__setattr__(self, "_mirrored", flag)
        return self._mirrored

    def _like(self, acc: dict) -> "BivariateLaurentExpr":
        return BivariateLaurentExpr._build(acc)

    @staticmethod
    def _factors(kz: int, kzeta: int) -> str:
        return (f"*z^{kz}" if kz else "") + (f"*zeta^{kzeta}" if kzeta else "")

    @classmethod
    def zero(cls) -> "BivariateLaurentExpr":
        return cls(())

    @classmethod
    def constant(cls, value: complex) -> "BivariateLaurentExpr":
        return cls([(value, 0, 0)])

    def eval(self, z: complex, zeta: complex) -> complex:
        """The sum of c * z**kz * zeta**kzeta at (z, zeta).

        The test for a negative power at 0, which raises ``DomainError``, runs
        once per call and only when z or zeta is 0; a negative power of a
        nonzero point beyond the float range raises ``PowerUnderflowError``,
        and a power that overflows ``RangeError``.
        No power of a zero exponent is computed: a term is
        (c * z**kz) * zeta**kzeta with each factor left out when its exponent
        is 0, the same value bit for bit (see ``LogLaurentExpr._sum``).
        """
        z = complex(z)
        zeta = complex(zeta)
        if z == 0 or zeta == 0:
            _reject_zero_power(self._terms, z, zeta)
        total = 0j
        try:
            for (kz, kzeta), c in self._terms.items():
                if kz:
                    c *= z**kz
                if kzeta:
                    c *= zeta**kzeta
                total += c
        except (ZeroDivisionError, OverflowError) as exc:
            raise _beyond_range(exc, f"at (z, zeta) = ({z!r}, {zeta!r})") from None
        if not cmath.isfinite(total):
            raise _not_finite(f"at (z, zeta) = ({z!r}, {zeta!r})")
        return total

    __call__ = eval

    def _flat_terms(self) -> tuple:
        """The terms as (kz, kzeta, c) triples in the order ``eval`` reads
        them, built on the first call and kept."""
        if self._flat is None:
            flat = tuple((kz, kzeta, c) for (kz, kzeta), c in self._terms.items())
            object.__setattr__(self, "_flat", flat)
        return self._flat

    def schwarz_kernel(self, form: tuple, scale: complex, pole: complex | None):
        """The integrand t -> self(t, S(t)) * sqrt(S'(t)) of the arc reflection.

        ``form`` is a Schwarz map's centred form (P, conj(P), a, b, g, h), as
        ``SchwarzMap.form`` gives it, and (``scale``, ``pole``) a root of S'
        as ``SqrtBranch`` holds it.  The closure makes the float operations
        of ``SchwarzMap.value``, ``eval`` and ``SqrtBranch.__call__`` in
        their order, so each value is theirs bit for bit, and it raises
        what they raise: ``PoleError`` where g w + h = 0, then the errors of
        ``eval``, but for one: it does not test its total, so where ``eval``
        raises ``RangeError`` for a sum that is not finite, the kernel
        returns that value (a quadrature node's test would cost ~3% of it),
        and ``numerics.integrate_path`` raises ``RangeError`` on the first
        panel whose estimate it makes not finite.
        """
        terms, exponents = self._flat_terms(), self._terms
        P, Pc, a, b, g, h = form

        def kernel(t: complex) -> complex:
            w = t - P
            d = g * w + h
            if not d:
                raise PoleError(f"Schwarz map has a pole at {P - h / g if g else None}")
            zeta = Pc + (a * w + b) / d
            if t == 0 or zeta == 0:
                _reject_zero_power(exponents, t, zeta)
            total = 0j
            try:
                for kz, kzeta, c in terms:
                    if kz:
                        c *= t**kz
                    if kzeta:
                        c *= zeta**kzeta
                    total += c
            except (ZeroDivisionError, OverflowError) as exc:
                raise _beyond_range(exc, f"at (z, zeta) = ({t!r}, {zeta!r})") from None
            return total * (scale if pole is None else scale / (t - pole))

        return kernel

    def ray_kernel(self, direction: complex):
        """The integrand t -> self(t e, 1/(t e)) / t along the ray of direction
        e = e^{i theta}, at real t > 0 (the shadow quadrature of the circle
        reflections).

        The closure makes the float operations of that expression through
        ``eval`` in their order, so each value is the same bit for bit, and
        it raises what that expression raises, but for the ``RangeError`` of
        a sum that is not finite: like ``schwarz_kernel``, it returns that
        value, for ``integrate_path`` to raise on.
        """
        terms, exponents = self._flat_terms(), self._terms

        def kernel(t: complex) -> complex:
            z = t * direction
            zeta = 1.0 / z  # at z = 0 this raises ZeroDivisionError, as the expression does
            if zeta == 0:
                _reject_zero_power(exponents, z, zeta)
            total = 0j
            try:
                for kz, kzeta, c in terms:
                    if kz:
                        c *= z**kz
                    if kzeta:
                        c *= zeta**kzeta
                    total += c
            except (ZeroDivisionError, OverflowError) as exc:
                raise _beyond_range(exc, f"at (z, zeta) = ({z!r}, {zeta!r})") from None
            return total / t

        return kernel

    def restrict_to_circle(self, cut_angle: float = DEFAULT_CUT_ANGLE) -> LogLaurentExpr:
        """Substitute zeta = 1/z, the Schwarz function of the unit circle.

        Term c z^kz zeta^kzeta maps to c z^(kz - kzeta); the result is the
        restriction to the complexified unit circle.  Multiples of
        (z*zeta - 1) vanish identically under this map.  The result for the
        last cut angle asked for is kept and returned again.
        """
        cut_angle = float(cut_angle)
        if self._circle is None or self._circle[0] != cut_angle:
            acc: dict = {}
            for (kz, kzeta), c in self._terms.items():
                key = (kz - kzeta, 0)
                acc[key] = acc.get(key, 0j) + c
            object.__setattr__(self, "_circle", (cut_angle, LogLaurentExpr._build(acc, cut_angle)))
        return self._circle[1]

    @classmethod
    def from_json(cls, data: list) -> "BivariateLaurentExpr":
        return cls._from_terms(read(data, [BIVARIATE_TERM]))

    @classmethod
    def _from_terms(cls, terms: list) -> "BivariateLaurentExpr":
        """The expression of term records already held to ``records.BIVARIATE_TERM``."""
        return cls([(complex(t["re"], t.get("im", 0.0)), t["kz"], t["kzeta"]) for t in terms])
