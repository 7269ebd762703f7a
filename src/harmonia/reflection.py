"""Reflection formulas for harmonic functions across circular and Schwarz arcs.

Each formula expresses the value of a solution at the point reflected
across the carrier curve through its values on one side plus a
data-dependent correction:

* Dirichlet data: the four-point identity on the complexified curve,
  u(reflected) = phi(S~(zeta), zeta) + phi(z, S(z)) - u(z, zeta).  For
  ``mirrored`` data (real data, conj phi(z, zeta) = phi(conj zeta, conj z))
  at a real-slice point the two data values are conjugates, so one is
  evaluated.
* Neumann data on the unit circle: v(reflected) = v(p) minus the radial
  integral from 1/r to r of phi(rho e^{i theta}, e^{-i theta}/rho)/rho.  Its
  integrand is F'(rho e^{i theta}) e^{i theta} for the primitive F,
  F'(z) = phi(z, 1/z)/z, of the kind the DtN operator builds, so the
  integral is F(r e^{i theta}) - F(e^{i theta}/r): one ``ray_change`` pass
  over the terms of one memoized primitive, exact in the log-Laurent
  algebra.
* Robin data on the unit circle: adds the self-referential radial
  integral of w, the same way: the primitive P of f(z)/z, for w's
  holomorphic part f (the DtN part of w), evaluated at both ends of the
  ray; the zeta side, along the conjugate ray, gives the conjugate change.
  Both ends are taken on the branch of the ray, log z = log rho + i theta,
  so a ray next to the cut is rejected only for an f that carries logs.
  The Neumann formula is this one at (a, b) = (0, 1); both run one
  routine, which builds the self term, and rejects rays next to the cut,
  only when a != 0.
* Neumann data on a general Schwarz arc: the correction is a contour
  integral of phi(tau, S(tau)) sqrt(S'(tau)) evaluated by Gauss-Kronrod
  (7, 15) panels, 4 to start, with the closed-form square root of S'; the
  integrand is the data's ``schwarz_kernel``, one closure per integral.

The circle corrections are exact; numeric quadrature is available as a
shadow oracle behind ``verify_numeric``.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

from .algebra import CUT_MARGIN, BivariateLaurentExpr, cut_distance
from .errors import CutProximityError, DomainError, HarmoniaError
from .geometry import BiPoint, PathSpec, SchwarzMap, reflect_bipoint, sqrt_schwarz_derivative
from .harmonic import HarmonicPair, RobinParams, eval_pair
from .numerics import integrate_path

__all__ = [
    "ReflectionResult",
    "reflect_dirichlet_study",
    "reflect_neumann_circle",
    "reflect_robin_circle",
    "reflect_neumann_schwarz",
]

_SHADOW_TOL = 1e-9
# Neumann data is Robin data with a = 0, b = 1
_NEUMANN = RobinParams(0.0, 1.0)


class ReflectionResult(NamedTuple):
    """Value of a continuation formula at the reflected point.

    ``correction`` is the data-dependent integral term of the formula
    (for the Dirichlet identity, the sum of the two boundary-data
    evaluations); it vanishes on the complexified curve for the three
    integral formulas.  A named tuple, like ``BiPoint``: immutable, it
    unpacks into its five fields in order, and it compares and hashes as
    the tuple of them.
    """

    point: BiPoint
    reflected_point: BiPoint
    value: complex
    correction: complex
    formula: str

    def to_json(self) -> dict:
        def c2j(w: complex) -> dict:
            return {"re": w.real, "im": w.imag}

        return {
            "formula": self.formula,
            "point": {"z": c2j(self.point.z), "zeta": c2j(self.point.zeta)},
            "reflected": {
                "z": c2j(self.reflected_point.z),
                "zeta": c2j(self.reflected_point.zeta),
            },
            "value": c2j(self.value),
            "correction": c2j(self.correction),
        }


def reflect_dirichlet_study(
    u: HarmonicPair, phi: BivariateLaurentExpr, smap: SchwarzMap, p: BiPoint
) -> ReflectionResult:
    """Continuation across the curve for a solution with Dirichlet data phi.

    Only the right-hand side of the four-point identity is evaluated;
    u is never sampled beyond the original side.  For ``mirrored`` data phi,
    with p and its reflection q both exactly on the real slice,
    phi(p.z, q.zeta) is the conjugate of phi(q.z, p.zeta), so the data sum
    is 2 Re phi(q.z, p.zeta), with imaginary part 0, from one evaluation.
    """
    q = reflect_bipoint(smap, p)
    if phi.mirrored and p.zeta == p.z.conjugate() and q.zeta == q.z.conjugate():
        data = complex(2.0 * phi.eval(q.z, p.zeta).real, 0.0)
    else:
        data = phi.eval(q.z, p.zeta) + phi.eval(p.z, q.zeta)
    return ReflectionResult(p, q, data - eval_pair(u, p), data, "dirichlet")


def _ray_coordinates(p: BiPoint) -> tuple:
    """(r, theta) of z = r e^{i theta}, for a point within 1e-9 (1 + r) of
    the real slice; a point exactly on it, zeta == conj(z), needs no test."""
    z, zeta = p
    r = abs(z)
    if r == 0:
        raise DomainError("reflection across the unit circle is singular at the origin")
    theta = cmath.phase(z)
    if zeta != z.conjugate() and abs(zeta - r * cmath.exp(-1j * theta)) > 1e-9 * (1.0 + r):
        raise DomainError(
            "circle reflection expects a real-slice point (r e^{i theta}, r e^{-i theta})"
        )
    return r, theta


def reflect_neumann_circle(
    v: HarmonicPair,
    phi: BivariateLaurentExpr,
    p: BiPoint,
    verify_numeric: bool = False,
) -> ReflectionResult:
    """Continuation across the unit circle for Neumann data phi.

    v(e^{i theta}/r) = v(r e^{i theta}) - int_{1/r}^{r} phi(rho e^{i theta},
    1/(rho e^{i theta})) / rho  d rho, with the integral computed exactly:
    the Robin formula at (a, b) = (0, 1), which has no self term.
    ``verify_numeric`` re-computes the correction by adaptive quadrature
    and raises on disagreement.
    """
    return _reflect_circle(v, phi, _NEUMANN, p, verify_numeric, "neumann_circle")


def reflect_robin_circle(
    w: HarmonicPair,
    phi_w: BivariateLaurentExpr,
    params: RobinParams,
    p: BiPoint,
    verify_numeric: bool = False,
) -> ReflectionResult:
    """Continuation across the unit circle for Robin data phi_w.

    w(reflected) = w(p) - (a/b) int_r^1 [w(rho e^{i theta}) +
    w(e^{i theta}/rho)] / rho d rho - (1/b) int_{1/r}^r phi_w / rho d rho.
    With Q(rho) = 2 Re P(rho e^{i theta}), where P is the memoized
    primitive of f(z)/z for w's holomorphic part f, the self integral is
    Q(1/r) - Q(r); the data term is the Neumann correction of phi_w over b.
    When a != 0, an f that carries logs may not be reflected along a ray
    within ``CUT_MARGIN`` of its cut; when a = 0 there is no self term, so
    no ray is rejected.  ``correction`` reports the data term alone.
    """
    return _reflect_circle(w, phi_w, params, p, verify_numeric, "robin_circle")


def _reflect_circle(
    w: HarmonicPair,
    phi: BivariateLaurentExpr,
    params: RobinParams,
    p: BiPoint,
    verify_numeric: bool,
    formula: str,
) -> ReflectionResult:
    """The Robin circle formula, with the self term computed only when a != 0.

    The self term reads only (r, theta): the zeta side's change, along the
    conjugate ray, is the conjugate of the z side's.  An f that carries logs
    jumps across its cut, and so does its reflection, so a ray next to the
    cut is rejected; the zeta side's cut is the mirror of f's, so it rejects
    the same rays.
    """
    r, theta = _ray_coordinates(p)
    ez = cmath.exp(1j * theta)
    self_term = data_term = 0j
    if r != 1.0:
        if params.a != 0:
            f = w.part_z
            if f.has_log() and cut_distance(theta, f.cut_angle) < CUT_MARGIN:
                raise CutProximityError(
                    f"ray angle {theta:.6g} is within {CUT_MARGIN:g} rad of the branch cut"
                )
            change = f.antiderivative_over_arg().ray_change(theta, r)
            self_term = -(params.a / params.b) * (2.0 * change.real)
        # -int_{1/r}^{r} phi(rho e^{i theta}, e^{-i theta}/rho) / rho d rho: the
        # circle restriction of phi is log-free, so its primitive jumps across the
        # cut by a constant only, which the difference along one ray cancels
        prim = phi.restrict_to_circle(w.part_z.cut_angle).antiderivative_over_arg()
        data_term = prim.ray_change(theta, r) / params.b
        if verify_numeric:
            path = PathSpec.radial_ray(0.0, 1.0 / r, r)
            numeric = integrate_path(phi.ray_kernel(ez), path)
            shadow = -numeric / params.b
            if abs(shadow - data_term) > _SHADOW_TOL * max(1.0, abs(data_term)):
                raise HarmoniaError(
                    f"exact correction {data_term:.12g} disagrees with quadrature {shadow:.12g}"
                )
    reflected = BiPoint(ez / r, 1.0 / (r * ez))
    value = eval_pair(w, p)
    if params.a != 0:
        value += self_term
    return ReflectionResult(p, reflected, value + data_term, data_term, formula)


def reflect_neumann_schwarz(
    v: HarmonicPair, phi: BivariateLaurentExpr, smap: SchwarzMap, p: BiPoint
) -> ReflectionResult:
    """Continuation across a Schwarz arc for Neumann data phi.

    v(S~(zeta), S(z)) = v(z, zeta) + i int_{S~(zeta)}^{z} phi(tau, S(tau))
    sqrt(S'(tau)) d tau, by Gauss-Kronrod (7, 15) panels along the straight
    segment (4 initial panels), with the closed-form sqrt(S') whose sign
    makes i / sqrt(S') the outward normal on the whole curve.
    Reduces to the exact circle formula when the map is the unit circle.
    """
    reflected = reflect_bipoint(smap, p)
    if phi.is_zero() or abs(reflected.z - p.z) < 1e-13 * (1.0 + abs(p.z)):
        correction = 0j
    else:
        seg = PathSpec.segment(reflected.z, p.z)
        branch = sqrt_schwarz_derivative(smap, seg)
        kernel = phi.schwarz_kernel(smap.form, branch.scale, branch.pole)
        correction = 1j * integrate_path(kernel, seg)
    return ReflectionResult(p, reflected, eval_pair(v, p) + correction, correction, "neumann_arc")
