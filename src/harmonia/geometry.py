"""Schwarz maps for lines and circles, point reflection in C^2, and paths.

A Schwarz map S is the anticonformal-symmetry generator of a curve Gamma:
S is analytic near Gamma and S(z) = conj(z) on Gamma.  For the built-in
carriers,

    circle |z - c| = r :  S(z) = conj(c) + r^2/(z - c)
    line through p at angle alpha :  S(z) = conj(p) + e^{-2 i alpha}(z - p)

one anti-Möbius form centred at c or p (see ``SchwarzMap``), with inverse
S~(zeta) = conj(S(conj(zeta))).  Points of the complexified plane are
pairs (z, zeta); reflection across the complexified curve sends (z, zeta)
to (S~(zeta), S(z)) and restricts on the real slice zeta = conj(z) to the
classical anticonformal reflection conj(S(z)).

The map contract (value, derivative, pole, outward normal, and a
closed-form square root of the derivative whose sign makes i / sqrt(S')
the outward normal; the inverse side follows by conjugation) is the
extension point for other algebraic curves.  For lines and circles that
square root is one rational function, so no branch is continued along a
path and its sign holds on every path; a curve whose sqrt(S') branches
needs its own closed form or continuation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import BranchPointOnPathError, PoleError
from .records import MAP, read

__all__ = [
    "BiPoint",
    "SchwarzMap",
    "PathSpec",
    "reflect_bipoint",
    "anti_conformal_reflect",
    "SqrtBranch",
    "sqrt_schwarz_derivative",
    "sqrt_inverse_schwarz_derivative",
]


class BiPoint(NamedTuple):
    """A point (z, zeta) of C^2; the real slice is zeta = conj(z).

    A named tuple: immutable, and it unpacks as ``z, zeta = p`` and has
    ``len`` 2.  It compares and hashes as the tuple (z, zeta), so it equals
    a plain tuple of the same two values.
    """

    z: complex
    zeta: complex

    @classmethod
    def from_polar(cls, r: float, theta: float) -> "BiPoint":
        z = r * cmath.exp(1j * theta)
        return cls(z, r * cmath.exp(-1j * theta))


# the fields of each map kind, which are its JSON keys besides "kind"; the
# "unit_circle" alias reads as a circle and is no kind of its own
_KIND_FIELDS = {kind: tuple(key.rstrip("?") for key in keys)
                for kind, keys in MAP[1].items() if kind != "unit_circle"}


@dataclass(frozen=True)
class SchwarzMap:
    """Closed-form Schwarz function data for a circle or a line.

    ``kind`` is ``"circle"`` (fields ``center`` and ``radius``) or
    ``"line"`` (fields ``point`` and ``angle``); a field of the other kind
    keeps its default, and every field is finite.  The unit circle is
    ``circle(0, 1)``.  Both are one anti-Möbius form centred at P (a
    circle's centre, a line's point): with w = z - P, S(z) = conj(P) +
    (a w + b)/(g w + h), S'(z) = (a h - b g)/(g w + h)^2 and sqrt(S'(z)) =
    k/(g w + h), where (a, b, g, h, k) is (0, r^2, 1, 0, i r) for a circle
    and (e^{-2 i alpha}, 0, 0, 1, e^{-i alpha}) for a line.  The pole is
    P - h/g (none for a line).  The unit normal is a fixed factor times
    (g w + h)/|g w + h|: outward for circles, i e^{i alpha} (upward for the
    real axis) for lines.  As z -> conj(S(z)) is an involution, the inverse
    map is S~(zeta) = conj(S(conj(zeta))).  The form is centred at P, not
    at 0, because an origin-based (a z + b)/(c z + d) loses digits to
    cancellation on a small circle far from 0.
    """

    kind: str
    center: complex = 0j
    radius: float = 1.0
    point: complex = 0j
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in _KIND_FIELDS:
            raise ValueError(f"unknown Schwarz map kind {self.kind!r}")
        for f in fields(self)[1:]:  # every field but kind
            value = getattr(self, f.name)
            if not cmath.isfinite(value):
                raise ValueError(f"Schwarz map {f.name} must be finite, got {value!r}")
            if f.name not in _KIND_FIELDS[self.kind] and value != f.default:
                raise ValueError(f"a {self.kind} Schwarz map takes no {f.name}, got {value!r}")
        if self.kind == "circle":
            if not self.radius > 0:
                raise ValueError("circle radius must be positive")
            origin, abgh = self.center, (0, self.radius**2, 1, 0)
            root, normal = 1j * self.radius, 1
        else:
            origin, abgh = self.point, (cmath.exp(-2j * self.angle), 0, 0, 1)
            root, normal = cmath.exp(-1j * self.angle), 1j * cmath.exp(1j * self.angle)
        a, b, g, h = map(complex, abgh)
        # derived data, set past the frozen guard: ==, hash, repr and to_json see only the fields
        form = (origin, origin.conjugate(), a, b, g, h)
        vars(self).update(_form=form, _det=a * h - b * g, _root=root, _normal_factor=normal)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def unit_circle(cls) -> "SchwarzMap":
        return cls.circle(0j, 1.0)

    @classmethod
    def circle(cls, center: complex, radius: float) -> "SchwarzMap":
        return cls("circle", center=complex(center), radius=float(radius))

    @classmethod
    def line(cls, point: complex, angle: float) -> "SchwarzMap":
        return cls("line", point=complex(point), angle=float(angle))

    # -- map values ------------------------------------------------------------

    @property
    def form(self) -> tuple:
        """The centred form (P, conj(P), a, b, g, h): S(z) = conj(P) +
        (a w + b)/(g w + h) with w = z - P."""
        return self._form

    @property
    def pole(self) -> complex | None:
        """Pole of S, or None for a line; the inverse map's is its conjugate."""
        P, _, _, _, g, h = self._form
        return P - h / g if g else None

    def value(self, z: complex) -> complex:
        """S(z); equals conj(z) on the carrier curve."""
        P, Pc, a, b, g, h = self._form
        w = complex(z) - P
        d = g * w + h
        if not d:
            raise PoleError(f"Schwarz map has a pole at {self.pole}")
        return Pc + (a * w + b) / d

    def inverse_value(self, zeta: complex) -> complex:
        """The inverse map conj(S(conj(zeta))); value(inverse_value(zeta)) = zeta."""
        P, _, a, b, g, h = self._form
        w = complex(zeta).conjugate() - P
        d = g * w + h
        if not d:
            raise PoleError(f"inverse Schwarz map has a pole at {self.pole.conjugate()}")
        return P + ((a * w + b) / d).conjugate()

    def derivative(self, z: complex) -> complex:
        """S'(z)."""
        P, _, _, _, g, h = self._form
        d = g * (complex(z) - P) + h
        dd = d * d  # near the pole it underflows to 0, or det/dd overflows
        slope = self._det / dd if dd else math.inf
        if cmath.isinf(slope):
            raise PoleError(f"Schwarz map has a pole at {self.pole}")
        return slope

    def inverse_derivative(self, zeta: complex) -> complex:
        """S~'(zeta) = conj(S'(conj(zeta)))."""
        P, _, _, _, g, h = self._form
        d = g * (complex(zeta).conjugate() - P) + h
        dd = d * d
        slope = self._det / dd if dd else math.inf
        if cmath.isinf(slope):
            raise PoleError(f"inverse Schwarz map has a pole at {self.pole.conjugate()}")
        return slope.conjugate()

    # -- curve geometry ----------------------------------------------------------

    def on_curve_residual(self, z: complex) -> float:
        """|S(z) - conj(z)|; zero exactly on the carrier curve."""
        return abs(self.value(z) - complex(z).conjugate())

    def outward_normal(self, z: complex) -> complex:
        """Unit normal at the point of the curve nearest z (outward for
        circles, the left normal of the direction vector for lines).

        It is the direction of g (z - P) + h: radial for a circle and
        constant for a line, so z need not lie on the curve.
        """
        P, _, _, _, g, h = self._form
        d = g * (complex(z) - P) + h
        if not d:
            raise PoleError("normal undefined at the circle center")
        return self._normal_factor * d / abs(d)

    def curve_points(self, n: int) -> list:
        """n sample points on the carrier curve (line parameter in [-2, 2])."""
        if self.kind == "circle":
            return [
                self.center + self.radius * cmath.exp(2j * math.pi * j / n)
                for j in range(n)
            ]
        ts = np.linspace(-2.0, 2.0, n)
        return [self.point + float(t) * cmath.exp(1j * self.angle) for t in ts]

    def default_base_point(self) -> complex:
        """A canonical point on the curve (rightmost point of a circle)."""
        if self.kind == "circle":
            return self.center + self.radius
        return self.point

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "circle":
            center = {"re": self.center.real, "im": self.center.imag}
            return {"kind": "circle", "center": center, "radius": self.radius}
        point = {"re": self.point.real, "im": self.point.imag}
        return {"kind": "line", "point": point, "angle": self.angle}

    @classmethod
    def from_json(cls, rec: dict) -> "SchwarzMap":
        """Inverse of ``to_json``, held to ``records.MAP``; the kind
        ``"unit_circle"`` reads as ``circle(0, 1)``."""
        return cls._from_record(read(rec, MAP))

    @classmethod
    def _from_record(cls, rec: dict) -> "SchwarzMap":
        """The map of a record already held to ``records.MAP``."""
        kind = rec["kind"]
        if kind == "unit_circle":
            return cls.unit_circle()
        c = rec.get(_KIND_FIELDS[kind][0], {"re": 0.0})
        origin = complex(c["re"], c.get("im", 0.0))
        if kind == "circle":
            return cls.circle(origin, rec["radius"])
        return cls.line(origin, rec.get("angle", 0.0))


def reflect_bipoint(smap: SchwarzMap, p: BiPoint) -> BiPoint:
    """Reflection across the complexified curve: (z, zeta) -> (S~(zeta), S(z)).

    An involution; its fixed points are exactly the points of the
    complexified curve zeta = S(z).
    """
    return BiPoint(smap.inverse_value(p.zeta), smap.value(p.z))


def anti_conformal_reflect(smap: SchwarzMap, x: float, y: float) -> tuple:
    """Real-plane anticonformal reflection conj(S(z)); identity on the curve."""
    w = smap.value(complex(x, y)).conjugate()
    return (w.real, w.imag)


def _segment_pole_distance(a: complex, b: complex, pole: complex) -> float:
    """Distance from ``pole`` to the closed segment [a, b]."""
    d = b - a
    denom = abs(d) ** 2
    if denom == 0:
        return abs(pole - a)
    t = ((pole - a) * d.conjugate()).real / denom
    t = min(1.0, max(0.0, t))
    return abs(pole - (a + t * d))


@dataclass(frozen=True)
class PathSpec:
    """A straight integration path from ``start`` to ``end``, at parameter
    t in [0, 1] the point start + t (end - start)."""

    start: complex
    end: complex

    def __post_init__(self):
        if self.start == self.end:
            raise ValueError("path endpoints must be distinct")

    @classmethod
    def segment(cls, start: complex, end: complex) -> "PathSpec":
        return cls(complex(start), complex(end))

    @classmethod
    def radial_ray(cls, theta: float, r_from: float, r_to: float) -> "PathSpec":
        """The segment from r_from e^{i theta} to r_to e^{i theta}."""
        if r_from <= 0 or r_to <= 0:
            raise ValueError("radial ray radii must be positive")
        direction = cmath.exp(1j * float(theta))
        return cls(float(r_from) * direction, float(r_to) * direction)


# -- square-root branches ------------------------------------------------------

_POLE_MARGIN = 1e-7  # pole-to-path distance below which |S'| exceeds 1e14 r^-2


class SqrtBranch:
    """sqrt(S') or sqrt(S~') along a path, in closed form.

    The root of S' is ``scale / (tau - pole)`` for a circle, with ``scale``
    the root k = i r of the form's a h - b g and ``pole`` = c, and the
    constant ``scale`` = e^{-i alpha} for a line (``pole`` None).  The
    inverse map's root is the conjugate branch, conj(k) / (tau - conj(c)).
    Each is single-valued off the pole, so no continuation is needed, and
    its sign is global: i / sqrt(S') is the outward normal everywhere on
    the curve.
    """

    __slots__ = ("scale", "pole")

    def __init__(self, scale: complex, pole: complex | None):
        self.scale = scale
        self.pole = pole

    def __call__(self, tau: complex) -> complex:
        return self.scale if self.pole is None else self.scale / (tau - self.pole)

    @property
    def anchor_points(self) -> tuple:
        """Empty: a closed-form branch is continued from no point.  Only the
        benchmark's tracer reads this."""
        return ()


def _closed_form_branch(smap: SchwarzMap, a: complex, b: complex) -> SqrtBranch:
    """The closed-form root of S' on the segment [a, b].

    Raises ``BranchPointOnPathError`` when the pole lies within 1e-7 r of the
    segment.
    """
    pole = smap.pole
    if pole is not None and _segment_pole_distance(a, b, pole) <= _POLE_MARGIN * smap.radius:
        raise BranchPointOnPathError(
            f"the map pole {pole} lies within {_POLE_MARGIN:g} r of the path"
        )
    return SqrtBranch(smap._root, pole)


def sqrt_schwarz_derivative(smap: SchwarzMap, path: PathSpec) -> SqrtBranch:
    """The branch of sqrt(S') along the path.

    Its sign makes i / sqrt(S'(z)) the outward normal on the carrier curve,
    which is what makes the arc normal-derivative formula return the
    outward derivative.  Raises ``BranchPointOnPathError`` if the map pole
    lies on the path.
    """
    return _closed_form_branch(smap, path.start, path.end)


def sqrt_inverse_schwarz_derivative(smap: SchwarzMap, path: PathSpec) -> SqrtBranch:
    """The branch of the square root of the inverse-map derivative.

    S~' = conj(S'(conj(zeta))), so this is the conjugate of the sqrt(S')
    branch on the conjugated path: on the curve it is the reciprocal of the
    sqrt(S') branch (the chain rule gives S~'(S(z)) * S'(z) = 1 there).
    """
    try:
        branch = _closed_form_branch(smap, path.start.conjugate(), path.end.conjugate())
    except BranchPointOnPathError:
        raise BranchPointOnPathError(
            f"the map pole {smap.pole.conjugate()} lies within {_POLE_MARGIN:g} r of the path"
        ) from None
    pole = None if branch.pole is None else branch.pole.conjugate()
    return SqrtBranch(branch.scale.conjugate(), pole)
