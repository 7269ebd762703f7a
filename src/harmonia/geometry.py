"""Schwarz maps for lines and circles, point reflection in C^2, and paths.

A Schwarz map S is the anticonformal-symmetry generator of a curve Gamma:
S is analytic near Gamma and S(z) = conj(z) on Gamma.  For the built-in
carriers,

    circle |z - c| = r :  S(z) = conj(c) + r^2/(z - c)
    line through p at angle alpha :  S(z) = conj(p) + e^{-2 i alpha}(z - p)

with inverses of the same shape.  Points of the complexified plane are
pairs (z, zeta); reflection across the complexified curve sends (z, zeta)
to (inverse_S(zeta), S(z)) and restricts on the real slice zeta = conj(z)
to the classical anticonformal reflection conj(S(z)).

The map contract (value, inverse, derivatives, outward normal, and a
validated square-root branch of the derivative) is the extension point
for other algebraic curves; only curves whose Schwarz function is
single-valued on the caller's paths are supported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BranchPointOnPathError, BranchSelectionError, PoleError

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


@dataclass(frozen=True)
class BiPoint:
    """A point (z, zeta) of C^2; the real slice is zeta = conj(z)."""

    z: complex
    zeta: complex

    @classmethod
    def from_xy(cls, x: float, y: float) -> "BiPoint":
        z = complex(x, y)
        return cls(z, z.conjugate())

    @classmethod
    def from_polar(cls, r: float, theta: float) -> "BiPoint":
        z = r * cmath.exp(1j * theta)
        return cls(z, r * cmath.exp(-1j * theta))

    def is_real_slice(self, tol: float = 1e-12) -> bool:
        return abs(self.zeta - self.z.conjugate()) <= tol * (1.0 + abs(self.z))

    def to_xy(self) -> tuple:
        return (self.z.real, self.z.imag)


@dataclass(frozen=True)
class SchwarzMap:
    """Closed-form Schwarz function data for a line or a circle.

    ``kind`` is one of ``"unit_circle"``, ``"circle"``, ``"line"``.  For
    lines the outward normal is the left normal of the direction vector,
    i.e. ``i * exp(i*angle)`` (upward for the real axis).
    """

    kind: str
    center: complex = 0j
    radius: float = 1.0
    point: complex = 0j
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in ("unit_circle", "circle", "line"):
            raise ValueError(f"unknown Schwarz map kind {self.kind!r}")
        if self.kind in ("unit_circle", "circle") and not self.radius > 0:
            raise ValueError("circle radius must be positive")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def unit_circle(cls) -> "SchwarzMap":
        return cls("unit_circle", center=0j, radius=1.0)

    @classmethod
    def circle(cls, center: complex, radius: float) -> "SchwarzMap":
        return cls("circle", center=complex(center), radius=float(radius))

    @classmethod
    def line(cls, point: complex, angle: float) -> "SchwarzMap":
        return cls("line", point=complex(point), angle=float(angle))

    def _is_circle(self) -> bool:
        return self.kind in ("unit_circle", "circle")

    # -- map values ------------------------------------------------------------

    @property
    def pole(self) -> complex | None:
        """Pole of S, or None for a line."""
        return self.center if self._is_circle() else None

    @property
    def inverse_pole(self) -> complex | None:
        """Pole of the inverse map, or None for a line."""
        return self.center.conjugate() if self._is_circle() else None

    def value(self, z: complex) -> complex:
        """S(z); equals conj(z) on the carrier curve."""
        z = complex(z)
        if self._is_circle():
            w = z - self.center
            if w == 0:
                raise PoleError(f"Schwarz map has a pole at {self.center}")
            return self.center.conjugate() + self.radius**2 / w
        return self.point.conjugate() + cmath.exp(-2j * self.angle) * (z - self.point)

    def inverse_value(self, zeta: complex) -> complex:
        """The inverse map; value(inverse_value(zeta)) = zeta."""
        zeta = complex(zeta)
        if self._is_circle():
            w = zeta - self.center.conjugate()
            if w == 0:
                raise PoleError(f"inverse Schwarz map has a pole at {self.center.conjugate()}")
            return self.center + self.radius**2 / w
        return self.point + cmath.exp(2j * self.angle) * (zeta - self.point.conjugate())

    def derivative(self, z: complex) -> complex:
        """S'(z)."""
        z = complex(z)
        if self._is_circle():
            w = z - self.center
            if w == 0:
                raise PoleError(f"Schwarz map has a pole at {self.center}")
            return -(self.radius**2) / (w * w)
        return cmath.exp(-2j * self.angle)

    def inverse_derivative(self, zeta: complex) -> complex:
        zeta = complex(zeta)
        if self._is_circle():
            w = zeta - self.center.conjugate()
            if w == 0:
                raise PoleError(f"inverse Schwarz map has a pole at {self.center.conjugate()}")
            return -(self.radius**2) / (w * w)
        return cmath.exp(2j * self.angle)

    # -- curve geometry ----------------------------------------------------------

    def on_curve_residual(self, z: complex) -> float:
        """|S(z) - conj(z)|; zero exactly on the carrier curve."""
        return abs(self.value(z) - complex(z).conjugate())

    def project_to_curve(self, z: complex) -> complex:
        z = complex(z)
        if self._is_circle():
            w = z - self.center
            if w == 0:
                raise PoleError("cannot project the circle center")
            return self.center + self.radius * w / abs(w)
        t = ((z - self.point) * cmath.exp(-1j * self.angle)).real
        return self.point + t * cmath.exp(1j * self.angle)

    def outward_normal(self, z: complex) -> complex:
        """Unit normal at a point of the curve (outward for circles,
        the left normal of the direction vector for lines)."""
        if self._is_circle():
            w = complex(z) - self.center
            if w == 0:
                raise PoleError("normal undefined at the circle center")
            return w / abs(w)
        return 1j * cmath.exp(1j * self.angle)

    def curve_points(self, n: int, span: float = 2.0) -> list:
        """n sample points on the carrier curve (parameter span for lines)."""
        if self._is_circle():
            return [
                self.center + self.radius * cmath.exp(2j * math.pi * j / n)
                for j in range(n)
            ]
        ts = np.linspace(-span, span, n)
        return [self.point + float(t) * cmath.exp(1j * self.angle) for t in ts]

    def default_base_point(self) -> complex:
        """A canonical point on the curve (rightmost point of a circle)."""
        if self._is_circle():
            return self.center + self.radius
        return self.point

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        rec = {"kind": self.kind}
        if self._is_circle():
            rec["center"] = {"re": self.center.real, "im": self.center.imag}
            rec["radius"] = self.radius
        else:
            rec["point"] = {"re": self.point.real, "im": self.point.imag}
            rec["angle"] = self.angle
        return rec

    @classmethod
    def from_json(cls, rec: dict) -> "SchwarzMap":
        kind = rec["kind"]
        if kind == "unit_circle":
            return cls.unit_circle()
        if kind == "circle":
            c = rec.get("center", {"re": 0.0, "im": 0.0})
            return cls.circle(complex(c["re"], c.get("im", 0.0)), rec["radius"])
        if kind == "line":
            p = rec.get("point", {"re": 0.0, "im": 0.0})
            return cls.line(complex(p["re"], p.get("im", 0.0)), rec.get("angle", 0.0))
        raise ValueError(f"unknown Schwarz map kind {kind!r}")


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
    """An integration path: a straight segment or a radial ray.

    ``subdivision`` is a hint for initial quadrature panels and for the
    sampling density used when continuing square-root branches.
    """

    kind: str
    start: complex = 0j
    end: complex = 1.0 + 0j
    theta: float = 0.0
    r_from: float = 1.0
    r_to: float = 1.0
    subdivision: int = 16

    def __post_init__(self):
        if self.kind not in ("segment", "radial_ray"):
            raise ValueError(f"unknown path kind {self.kind!r}")
        if self.subdivision < 1:
            raise ValueError("subdivision must be >= 1")
        if self.kind == "segment" and self.start == self.end:
            raise ValueError("segment endpoints must be distinct")
        if self.kind == "radial_ray":
            if self.r_from <= 0 or self.r_to <= 0:
                raise ValueError("radial ray radii must be positive")
            if self.r_from == self.r_to:
                raise ValueError("radial ray endpoints must be distinct")

    @classmethod
    def segment(cls, start: complex, end: complex, subdivision: int = 16) -> "PathSpec":
        return cls("segment", start=complex(start), end=complex(end), subdivision=subdivision)

    @classmethod
    def radial_ray(
        cls, theta: float, r_from: float, r_to: float, subdivision: int = 16
    ) -> "PathSpec":
        return cls(
            "radial_ray",
            theta=float(theta),
            r_from=float(r_from),
            r_to=float(r_to),
            subdivision=subdivision,
        )

    def point(self, t: float) -> complex:
        """Path point at parameter t in [0, 1]."""
        if self.kind == "segment":
            return self.start + t * (self.end - self.start)
        r = self.r_from + t * (self.r_to - self.r_from)
        return r * cmath.exp(1j * self.theta)

    def velocity(self, t: float) -> complex:
        """d(path)/dt, constant for both supported kinds."""
        if self.kind == "segment":
            return self.end - self.start
        return (self.r_to - self.r_from) * cmath.exp(1j * self.theta)

    @property
    def endpoints(self) -> tuple:
        return (self.point(0.0), self.point(1.0))

    def samples(self, n: int) -> list:
        return [self.point(i / (n - 1)) for i in range(n)]

    def to_json(self) -> dict:
        if self.kind == "segment":
            return {
                "kind": "segment",
                "start": {"re": self.start.real, "im": self.start.imag},
                "end": {"re": self.end.real, "im": self.end.imag},
                "subdivision": self.subdivision,
            }
        return {
            "kind": "radial_ray",
            "theta": self.theta,
            "r_from": self.r_from,
            "r_to": self.r_to,
            "subdivision": self.subdivision,
        }

    @classmethod
    def from_json(cls, rec: dict) -> "PathSpec":
        if rec["kind"] == "segment":
            s, e = rec["start"], rec["end"]
            return cls.segment(
                complex(s["re"], s.get("im", 0.0)),
                complex(e["re"], e.get("im", 0.0)),
                rec.get("subdivision", 16),
            )
        return cls.radial_ray(
            rec["theta"], rec["r_from"], rec["r_to"], rec.get("subdivision", 16)
        )


# -- square-root branches ------------------------------------------------------

_DERIV_FLOOR = 1e-14
_DERIV_CEIL = 1e14


class SqrtBranch:
    """A continuous square root of a derivative function along a path.

    Values are tabulated at anchors equally spaced along a straight line,
    which is how both ``PathSpec`` kinds sample; the constructor rejects
    any other anchors.  A query tau is continued by sign-matching from the
    nearest anchor, which is accurate as long as queries stay near the
    path (quadrature nodes do).  The nearest anchor takes O(1): with step
    d between anchors, the squared distance from tau to anchor i is
    perp^2 + (s - i)^2 |d|^2, where s = Re((tau - a_0) conj(d)) / |d|^2,
    so it is anchor ceil(s - 1/2) clamped to the table, ties going to the
    lower index.
    """

    __slots__ = ("_deriv", "_points", "_values", "_origin", "_axis", "_last")

    def __init__(self, deriv: Callable[[complex], complex], points: Sequence[complex], values: Sequence[complex]):
        points = tuple(complex(p) for p in points)
        n = len(points)
        if n < 2 or len(values) != n or points[0] == points[-1]:
            raise ValueError("a branch needs two or more distinct anchors, one value each")
        origin = points[0]
        step = (points[-1] - origin) / (n - 1)
        tol = 1e-9 * max(abs(origin), abs(points[-1]))
        if any(abs(p - (origin + i * step)) > tol for i, p in enumerate(points)):
            raise ValueError("branch anchors must be equally spaced along a line")
        self._deriv = deriv
        self._points = points
        self._values = tuple(values)
        self._origin = origin
        self._axis = step.conjugate() / abs(step) ** 2
        self._last = n - 1

    def __call__(self, tau: complex) -> complex:
        return _sqrt_step(self._deriv, self._values[self.nearest_anchor(tau)], tau)

    def nearest_anchor(self, tau: complex) -> int:
        """Index of the anchor nearest to tau (the lower one on a tie)."""
        s = ((tau - self._origin) * self._axis).real
        # written so that s = inf or nan still gives a valid index
        return math.ceil(min(s, self._last) - 0.5) if s > 0.5 else 0

    @property
    def anchor_points(self) -> tuple:
        return self._points


def _sqrt_step(deriv: Callable[[complex], complex], v_prev: complex, tau: complex) -> complex:
    try:
        d = deriv(tau)
    except PoleError as exc:
        raise BranchPointOnPathError(f"derivative pole on path at {tau}") from exc
    mag = abs(d)
    if mag < _DERIV_FLOOR or mag > _DERIV_CEIL:
        raise BranchPointOnPathError(
            f"derivative magnitude {mag:.3g} at {tau} leaves the branch-safe range"
        )
    w = cmath.sqrt(d)
    return w if abs(w - v_prev) <= abs(w + v_prev) else -w


def _continued_values(deriv, points) -> list:
    try:
        d0 = deriv(points[0])
    except PoleError as exc:
        raise BranchPointOnPathError(f"derivative pole on path at {points[0]}") from exc
    if not (_DERIV_FLOOR < abs(d0) < _DERIV_CEIL):
        raise BranchPointOnPathError("derivative degenerate at the path start")
    values = [cmath.sqrt(d0)]
    for p in points[1:]:
        w = _sqrt_step(deriv, values[-1], p)
        # a jump comparable to the magnitude itself means the branch winds
        # faster than the sampling can follow
        if min(abs(w - values[-1]), abs(w + values[-1])) > 0.5 * (abs(w) + abs(values[-1])):
            raise BranchPointOnPathError(f"square-root branch winds too fast near {p}")
        values.append(w)
    return values


def _anchored_branch(
    deriv,
    points,
    residual_of,
    target_of,
) -> SqrtBranch:
    values = _continued_values(deriv, points)
    residuals = [residual_of(p) for p in points]
    i0 = min(range(len(residuals)), key=residuals.__getitem__)
    p0 = points[i0]
    if residuals[i0] > 0.1 * (1.0 + abs(p0)):
        raise BranchSelectionError(
            "path never comes near the carrier curve; cannot validate the branch sign"
        )
    target = target_of(p0)
    v0 = values[i0]
    d_keep, d_flip = abs(v0 - target), abs(v0 + target)
    if d_keep <= d_flip and d_keep < 0.5:
        pass
    elif d_flip < 0.5:
        values = [-v for v in values]
    else:
        raise BranchSelectionError(
            f"branch validation failed: candidate {v0:.6g} vs outward-normal target {target:.6g}"
        )
    return SqrtBranch(deriv, points, values)


def _branch_samples(path: PathSpec) -> list:
    return path.samples(max(65, 8 * path.subdivision + 1))


def sqrt_schwarz_derivative(smap: SchwarzMap, path: PathSpec) -> SqrtBranch:
    """A continuous branch of sqrt(S') along the path.

    The sign is fixed where the path meets the carrier curve: there the
    branch must satisfy i / sqrt(S'(z)) = outward normal, which is what
    makes the arc normal-derivative formula return the outward derivative.
    Raises if S' degenerates on the path or if neither sign matches.
    """
    points = _branch_samples(path)

    def target(p: complex) -> complex:
        zhat = smap.project_to_curve(p)
        return 1j / smap.outward_normal(zhat)

    return _anchored_branch(smap.derivative, points, smap.on_curve_residual, target)


def sqrt_inverse_schwarz_derivative(smap: SchwarzMap, path: PathSpec) -> SqrtBranch:
    """A continuous branch of the square root of the inverse-map derivative.

    Anchored so that on the curve it is the reciprocal of the validated
    sqrt(S') branch (the chain rule gives S~'(S(z)) * S'(z) = 1 there).
    """
    points = _branch_samples(path)

    def residual(xi: complex) -> float:
        return abs(smap.inverse_value(xi) - complex(xi).conjugate())

    def target(xi: complex) -> complex:
        zhat = smap.project_to_curve(smap.inverse_value(xi))
        return -1j * smap.outward_normal(zhat)

    return _anchored_branch(smap.inverse_derivative, points, residual, target)
