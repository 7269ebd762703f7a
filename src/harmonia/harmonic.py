"""Complexified harmonic functions u(z, zeta) = u1(z) + u2(zeta).

Splitting a harmonic function into a z-part and a zeta-part makes the
mixed second derivative vanish identically, so every pair built from
log-Laurent parts is harmonic by construction.  On the real slice
zeta = conj(z) the pair represents an ordinary real harmonic field
whenever the zeta-part mirrors the z-part with conjugated coefficients.

A pair records that symmetry in its derived ``mirrored`` flag: both parts
take the cut at pi, and the zeta-part's terms equal the z-part's
conjugated terms.  The cut must be pi because only on the window
(-pi, pi] is log conj(z) = conj(log z).  ``HarmonicPair.symmetric`` sets
the flag and builds the zeta-part (the conjugate mirror) only when it is
first read; any other pair compares its parts once, on first use.  At a
point exactly on the slice, a mirrored pair's zeta-part gives the
conjugate of the z-part's value, so evaluation computes the z-part only
(u = 2 Re u1(z)), and ``eval_real`` always does.  ``radial_derivative``
takes (r, theta), not a point: its zeta point is the conjugate ray by
construction, so it computes the z-part only for every mirrored pair.
``normal_derivative_schwarz`` takes a point of the curve, where
S(z) = conj(z), so for a mirrored pair it is 2 Re(n u1'(z)) along the
outward normal n, with no S' and no zeta point.  None of them reads the
zeta-part of a mirrored pair.  Every other pair and
point takes the two-part sum, because intermediate pairs in C^2 are often
deliberately non-symmetric.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .algebra import DEFAULT_CUT_ANGLE, LogLaurentExpr, branch_log
from .errors import BranchSelectionError, DomainError, NonSymmetricPairError
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

_REALITY_TOL = 1e-11


@dataclass(frozen=True)
class HarmonicPair:
    """u(z, zeta) = part_z(z) + part_zeta(zeta)."""

    part_z: LogLaurentExpr
    part_zeta: LogLaurentExpr

    @cached_property
    def mirrored(self) -> bool:
        """Whether part_zeta is part_z with conjugated coefficients, both on the cut at pi.

        Derived and kept on the instance, not a field: ==, hash, repr and
        JSON do not see it.
        """
        return (
            self.part_z.cut_angle == DEFAULT_CUT_ANGLE
            and self.part_zeta == self.part_z.conjugate_mirror()
        )

    @classmethod
    def constant(cls, value: float) -> "HarmonicPair":
        half = LogLaurentExpr.constant(value / 2.0)
        return cls(half, half)

    @classmethod
    def symmetric(cls, part_z: LogLaurentExpr) -> "HarmonicPair":
        """Pair with the zeta-part mirroring the z-part; real on the real slice.

        The zeta-part, ``part_z.conjugate_mirror()``, is built when it is
        first read and kept; ==, hash, repr and JSON read it.
        """
        pair = object.__new__(cls)
        state = vars(pair)
        state["part_z"] = part_z
        # the mirror holds by construction; only the cut is left to test
        state["mirrored"] = part_z.cut_angle == DEFAULT_CUT_ANGLE
        return pair

    def __add__(self, other: "HarmonicPair") -> "HarmonicPair":
        return HarmonicPair(self.part_z + other.part_z, self.part_zeta + other.part_zeta)

    def __sub__(self, other: "HarmonicPair") -> "HarmonicPair":
        return HarmonicPair(self.part_z - other.part_z, self.part_zeta - other.part_zeta)

    def to_json(self) -> dict:
        return {"part_z": self.part_z.to_json(), "part_zeta": self.part_zeta.to_json()}

    @classmethod
    def from_json(cls, rec: dict, cut_angle: float = DEFAULT_CUT_ANGLE) -> "HarmonicPair":
        return cls._from_record(read(rec, PAIR), cut_angle)

    @classmethod
    def _from_record(cls, rec: dict, cut_angle: float) -> "HarmonicPair":
        """The pair of a record already held to ``records.PAIR``."""
        return cls(
            LogLaurentExpr._from_terms(rec["part_z"], cut_angle),
            LogLaurentExpr._from_terms(rec["part_zeta"], cut_angle),
        )


# A pair from ``symmetric`` holds no part_zeta.  This non-data descriptor
# builds it on the first read and keeps it on the pair; a part_zeta the pair
# holds (after that read, or given to the constructor) is found first.
HarmonicPair.part_zeta = cached_property(lambda pair: pair.part_z.conjugate_mirror())
HarmonicPair.part_zeta.__set_name__(HarmonicPair, "part_zeta")


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


def eval_pair(h: HarmonicPair, p: BiPoint) -> complex:
    """u1(z) + u2(zeta) at a C^2 point.

    For a ``mirrored`` pair at a point exactly on the real slice (zeta ==
    conj(z)), u2(zeta) is the conjugate of u1(z), so only the z-part is
    evaluated: the value is 2 Re u1(z), with imaginary part 0.
    """
    if h.mirrored and p.zeta == p.z.conjugate():
        return complex(2.0 * h.part_z.eval(p.z).real, 0.0)
    return h.part_z.eval(p.z) + h.part_zeta.eval(p.zeta)


def eval_real(h: HarmonicPair, x: float, y: float) -> float:
    """Real-slice value at the plane point (x, y).

    Raises when the imaginary residue exceeds the reality tolerance,
    which flags pairs that are not conjugate-symmetric.  A ``mirrored``
    pair is real by construction, so its value is 2 Re u1(z), as
    ``eval_pair`` gives it, with no test.
    """
    z = complex(x, y)
    if z == 0:
        raise DomainError("real-slice evaluation at the origin")
    if h.mirrored:
        return 2.0 * h.part_z.eval(z).real
    value = eval_pair(h, BiPoint(z, z.conjugate()))
    if abs(value.imag) > _REALITY_TOL * max(1.0, abs(value)):
        raise NonSymmetricPairError(
            f"imaginary residue {value.imag:.3g} at ({x}, {y}); pair is not conjugate-symmetric"
        )
    return value.real


def field_scale(h: HarmonicPair, x: float, y: float) -> float:
    """Magnitude scale of the pair at a point: the sum of term magnitudes.

    Unlike |value|, this cannot collapse through phase cancellation, which
    makes it the right denominator for relative residuals (finite
    difference checks and the like).  Logarithms are taken on each part's
    own branch, as in evaluation.  Never smaller than 1.
    """
    z = complex(x, y)
    if z == 0:
        raise DomainError("field scale at the origin")
    total = 0.0
    for part, w in ((h.part_z, z), (h.part_zeta, z.conjugate())):
        if part.is_zero():
            continue
        lg = abs(branch_log(w, part.cut_angle)) if part.has_log() else 0.0
        for t in part.terms:
            total += abs(t.coeff) * abs(w) ** t.power * (lg**t.logpow if t.logpow else 1.0)
    return max(1.0, total)


def radial_derivative(h: HarmonicPair, r: float, theta: float) -> complex:
    """d/dr of u along the ray parameterization (r e^{i theta}, r e^{-i theta}).

    Equals u1'(z) e^{i theta} + u2'(zeta) e^{-i theta}.  For a ``mirrored``
    pair it is 2 Re(u1'(z) e^{i theta}), at every (r, theta): the zeta point
    r e^{-i theta} is the conjugate ray by construction, so only the z-part
    is evaluated.
    """
    ez = cmath.exp(1j * theta)
    along_z = h.part_z.differentiate().eval(r * ez) * ez
    if h.mirrored:
        return complex(2.0 * along_z.real, 0.0)
    return along_z + h.part_zeta.differentiate().eval(r / ez) / ez


def normal_derivative_schwarz(h: HarmonicPair, smap: SchwarzMap, z: complex) -> complex:
    """Outward normal derivative at a point of the carrier curve.

    Uses the Schwarz-function form (i / sqrt(S'(z))) (u1'(z) - u2'(zeta) S'(z))
    with zeta = S(z) and the square root fixed by i/sqrt(S') = outward normal.
    A ``mirrored`` pair is 2 Re u1 on the curve, where S(z) = conj(z), so its
    derivative along the outward normal n is 2 Re(n u1'(z)), with imaginary
    part 0: only the z-part is evaluated, and neither S' nor S(z) is read.
    """
    z = complex(z)
    if smap.on_curve_residual(z) > 1e-8 * (1.0 + abs(z)):
        raise DomainError(f"{z} does not lie on the carrier curve")
    if h.mirrored:
        return complex(2.0 * (smap.outward_normal(z) * h.part_z.differentiate().eval(z)).real, 0.0)
    sqrt_sp = 1j / smap.outward_normal(z)
    sp = smap.derivative(z)
    if abs(sqrt_sp * sqrt_sp - sp) > 1e-8 * (1.0 + abs(sp)):
        raise BranchSelectionError(
            "outward-normal square root is inconsistent with S' at this point"
        )
    zeta = smap.value(z)
    d1 = h.part_z.differentiate().eval(z)
    d2 = h.part_zeta.differentiate().eval(zeta)
    return (1j / sqrt_sp) * (d1 - d2 * sp)


def robin_trace_circle(h: HarmonicPair, params: RobinParams, theta: float) -> complex:
    """a*u + b*(radial derivative) on the unit circle at angle theta."""
    p = BiPoint.from_polar(1.0, theta)
    return params.a * eval_pair(h, p) + params.b * radial_derivative(h, 1.0, theta)
