"""Complexified real harmonic functions u(z, zeta) = f(z) + conj(f(conj(zeta))).

A real harmonic field is 2 Re f for one holomorphic part f, here a
log-Laurent sum, so a ``HarmonicPair`` holds f alone (as ``part_z``).  Its
complexification takes f on the z side and f's conjugate mirror on the
zeta side: u(z, zeta) = f(z) + conj(f(conj(zeta))), where the logarithm of
conj(zeta) is taken on f's own cut, so the zeta side carries f's cut
mirrored by construction.  The mixed second derivative vanishes
identically, so every pair is harmonic; and on the real slice
zeta = conj(z) the value is 2 Re f(z), real at every cut.

At a point exactly on the slice, evaluation computes f(z) once, and
``eval_real`` always does.  ``radial_derivative`` takes (r, theta), not a
point: its zeta point is the conjugate ray by construction, so it is
2 Re(f'(z) e^{i theta}).  ``normal_derivative_schwarz`` takes a point of
the curve, where S(z) = conj(z), so it is 2 Re(n f'(z)) along the outward
normal n.  A point off the slice (intermediate points in C^2 often are)
evaluates both sides.  Each of these raises ``DomainError`` for a
non-finite argument, once per call.

JSON keeps both parts: ``to_json`` writes the zeta-part as the conjugate
mirror of the z-part, and reading a record requires its zeta-part to equal
that mirror term for term, else ``NonSymmetricPairError``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .algebra import DEFAULT_CUT_ANGLE, LogLaurentExpr, branch_log
from .errors import DomainError, NonSymmetricPairError
from .geometry import BiPoint, SchwarzMap
from .records import PAIR, read

__all__ = [
    "HarmonicPair",
    "RobinParams",
    "eval_pair",
    "eval_real",
    "field_scale",
    "radial_derivative",
    "normal_derivative_schwarz",
    "robin_trace_circle",
]


@dataclass(frozen=True)
class HarmonicPair:
    """u(z, zeta) = part_z(z) + conj(part_z(conj(zeta))), real on the slice."""

    part_z: LogLaurentExpr

    @classmethod
    def constant(cls, value: float) -> "HarmonicPair":
        return cls(LogLaurentExpr.constant(value / 2.0))

    @classmethod
    def symmetric(cls, part_z: LogLaurentExpr) -> "HarmonicPair":
        """The pair of ``part_z``, as ``HarmonicPair(part_z)`` builds it."""
        return cls(part_z)

    def __add__(self, other: "HarmonicPair") -> "HarmonicPair":
        return HarmonicPair(self.part_z + other.part_z)

    def __sub__(self, other: "HarmonicPair") -> "HarmonicPair":
        return HarmonicPair(self.part_z - other.part_z)

    def to_json(self) -> dict:
        return {"part_z": self.part_z.to_json(),
                "part_zeta": self.part_z.conjugate_mirror().to_json()}

    @classmethod
    def from_json(cls, rec: dict, cut_angle: float = DEFAULT_CUT_ANGLE) -> "HarmonicPair":
        return cls._from_record(read(rec, PAIR), cut_angle)

    @classmethod
    def _from_record(cls, rec: dict, cut_angle: float, path: str = "") -> "HarmonicPair":
        """The pair of a record already held to ``records.PAIR``, found at the
        JSON ``path``; its zeta-part must be the conjugate mirror of its z-part."""
        part_z = LogLaurentExpr._from_terms(rec["part_z"], cut_angle)
        if LogLaurentExpr._from_terms(rec["part_zeta"], cut_angle) != part_z.conjugate_mirror():
            at = f"{path}." if path else ""
            raise NonSymmetricPairError(
                f"{at}part_zeta: must be the conjugate mirror of {at}part_z, term for term"
            )
        return cls(part_z)


@dataclass(frozen=True)
class RobinParams:
    """Coefficients of the boundary condition a*w + b*dw/dn = data, b != 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"Robin coefficients must be finite, got a={self.a!r}, b={self.b!r}")
        if self.b == 0:
            raise ValueError("Robin coefficient b must be nonzero")


def _not_finite(*named) -> DomainError:
    """The error for (name, value) arguments of which one is not finite, naming it."""
    name, value = next((n, v) for n, v in named if not cmath.isfinite(v))
    return DomainError(f"{name} must be finite, got {value!r}")


def eval_pair(h: HarmonicPair, p: BiPoint) -> complex:
    """f(z) + conj(f(conj(zeta))) at a C^2 point.

    At a point exactly on the real slice (zeta == conj(z)) the two sides are
    conjugates, so f is evaluated once: the value is 2 Re f(z), with
    imaginary part 0.
    """
    z, zeta = p
    if not (cmath.isfinite(z) and cmath.isfinite(zeta)):
        raise _not_finite(("p.z", z), ("p.zeta", zeta))
    if zeta == z.conjugate():
        return complex(2.0 * h.part_z.eval(z).real, 0.0)
    return h.part_z.eval(z) + h.part_z.eval(zeta.conjugate()).conjugate()


def eval_real(h: HarmonicPair, x: float, y: float) -> float:
    """Real-slice value 2 Re f(z) at the plane point z = (x, y), as
    ``eval_pair`` gives it."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise _not_finite(("x", x), ("y", y))
    z = complex(x, y)
    if z == 0:
        raise DomainError("real-slice evaluation at the origin")
    return 2.0 * h.part_z.eval(z).real


def field_scale(h: HarmonicPair, x: float, y: float) -> float:
    """Magnitude scale of the pair at a point: the sum of term magnitudes.

    Unlike |value|, this cannot collapse through phase cancellation, which
    makes it the right denominator for relative residuals (finite
    difference checks and the like).  Logarithms are taken on f's cut, as in
    evaluation.  Never smaller than 1.
    """
    z = complex(x, y)
    if z == 0:
        raise DomainError("field scale at the origin")
    f = h.part_z
    lg = abs(branch_log(z, f.cut_angle)) if f.has_log() else 0.0
    total = 0.0
    # the z side, then the zeta side at conj(zeta) = z: the same magnitudes,
    # added term by term again, since a doubled sum would round otherwise
    for _ in range(2):
        for t in f.terms:
            total += abs(t.coeff) * abs(z) ** t.power * (lg**t.logpow if t.logpow else 1.0)
    return max(1.0, total)


def radial_derivative(h: HarmonicPair, r: float, theta: float) -> complex:
    """d/dr of u along the ray parameterization (r e^{i theta}, r e^{-i theta}).

    The zeta point is the conjugate ray, so this is 2 Re(f'(z) e^{i theta}),
    with imaginary part 0.
    """
    if not (math.isfinite(r) and math.isfinite(theta)):
        raise _not_finite(("r", r), ("theta", theta))
    ez = cmath.exp(1j * theta)
    along_z = h.part_z.differentiate().eval(r * ez) * ez
    return complex(2.0 * along_z.real, 0.0)


def normal_derivative_schwarz(h: HarmonicPair, smap: SchwarzMap, z: complex) -> complex:
    """Outward normal derivative at a point of the carrier curve.

    On the curve S(z) = conj(z), so the point is on the real slice, where u
    is 2 Re f: its derivative along the outward normal n is 2 Re(n f'(z)),
    with imaginary part 0.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise _not_finite(("z", z))
    if smap.on_curve_residual(z) > 1e-8 * (1.0 + abs(z)):
        raise DomainError(f"{z} does not lie on the carrier curve")
    return complex(2.0 * (smap.outward_normal(z) * h.part_z.differentiate().eval(z)).real, 0.0)


def robin_trace_circle(h: HarmonicPair, params: RobinParams, theta: float) -> complex:
    """a*u + b*(radial derivative) on the unit circle at angle theta."""
    p = BiPoint.from_polar(1.0, theta)
    return params.a * eval_pair(h, p) + params.b * radial_derivative(h, 1.0, theta)
