"""Boundary-condition conversion operators.

All operators act on complexified harmonic pairs near the unit circle
(or, for the arc generalization, near the carrier of a Schwarz map) and
return new pairs or field evaluators:

* Dirichlet -> Neumann, exact pair form: the solution with Neumann data
  equal to the Dirichlet trace of the input is obtained termwise from the
  primitive of u(tau)/tau along radial integrals to a base point.
* Dirichlet -> Neumann, disk form: an independent second route from the
  Fourier coefficients of the data (a ``TrigPolynomial``), composing a
  radial quadrature with the Fourier disk solver.
* Robin -> Neumann: the harmonic field whose outward normal derivative is
  half the Robin data of the input.
* Dirichlet from Robin: the algebraic combination (a/2) w + (b r/2) dw/dr.
* A particular solution of the first-order ODE a h + b z h' = z f' + g.
  The algebra solves it termwise with the solver that also gives the
  primitive of u(tau)/tau above: that primitive is the solve at
  (a, b) = (0, 1).
* The Schwarz-map generalization with contour quadrature and closed-form
  square-root branches.

The pair operators build the output's one holomorphic part from the
input's: their termwise maps take real coefficients, so they commute with
the conjugate mirror that is the zeta side.  Operators pin their free
additive constant at one fixed point: the pair
operators to the value 0 at z = 1 (zeta = 1), the arc field to the value 0
at the map's default base point.  Golden comparisons are made modulo such
a constant.
"""

from __future__ import annotations

import cmath

from .algebra import DEFAULT_CUT_ANGLE, LogLaurentExpr
from .errors import DomainError, NonzeroMeanError
from .geometry import (
    BiPoint,
    PathSpec,
    SchwarzMap,
    sqrt_inverse_schwarz_derivative,
    sqrt_schwarz_derivative,
)
from .harmonic import HarmonicPair, RobinParams
from .numerics import TrigPolynomial, integrate_path

__all__ = [
    "neumann_from_dirichlet_pair",
    "neumann_from_robin_pair",
    "dirichlet_from_robin_pair",
    "solve_robin_analytic",
    "neumann_from_dirichlet_disk",
    "neumann_from_dirichlet_schwarz",
    "ArcNeumannField",
]


def _partwise(u: HarmonicPair, build, pin: bool) -> HarmonicPair:
    """The pair of build(u.part_z), pinned to the value 0 at (z, zeta) = (1, 1)
    when ``pin`` is set.

    The pin adds a real constant to the holomorphic part, half of 0 - 2 Re f(1).
    On the cut at pi, log 1 = 0, so Re f(1) is read from the coefficients,
    the same value bit for bit; on another cut log 1 may not be 0 (the
    window of the cut at -1 holds -2 pi, not 0), so f is evaluated at 1.
    """
    part_z = build(u.part_z)
    if pin:
        if part_z.cut_angle == DEFAULT_CUT_ANGLE:
            at_one = part_z._real_at_one()
        else:
            at_one = part_z.eval(1 + 0j).real
        residual = 0.0 - 2.0 * at_one
        part_z = part_z._plus_constant(residual / 2.0)
    return HarmonicPair(part_z)


def neumann_from_dirichlet_pair(u: HarmonicPair) -> HarmonicPair:
    """Exact Dirichlet-to-Neumann conversion on the unit circle.

    Integrating u(tau)/tau from z to the base point (and likewise in
    zeta) yields the harmonic pair v whose outward normal derivative on
    the circle equals the Dirichlet trace of u.  The result is pinned to 0
    at the base point z = 1.
    """
    return _partwise(u, LogLaurentExpr.antiderivative_over_arg, True)


def neumann_from_robin_pair(w: HarmonicPair, params: RobinParams) -> HarmonicPair:
    """Robin-to-Neumann conversion on the unit circle.

    For w satisfying a*w + b*dw/dn = data on the circle, returns the
    harmonic v = const + (b/2) w + (a/2) * (primitives of w/tau), whose
    outward normal derivative on the circle is data/2.
    """
    half_b = 0.5 * params.b
    half_a = 0.5 * params.a
    return _partwise(
        w, lambda part: part._scaled_sum(half_b, part.antiderivative_over_arg(), half_a), True
    )


def dirichlet_from_robin_pair(w: HarmonicPair, params: RobinParams) -> HarmonicPair:
    """The pair u = (a/2) w + (b r / 2) dw/dr, realized termwise.

    On each holomorphic part r d/dr is the Euler operator z d/dz
    (``z_derivative``), so a part is built in one pass as
    (a/2) w + (b/2) z w'.  On the circle the Dirichlet trace of u is half
    the Robin trace of w; no base-point constant is involved because the
    combination is algebraic.
    """
    half_a = 0.5 * params.a
    half_b = 0.5 * params.b
    return _partwise(w, lambda part: part._scaled_sum(half_a, part.z_derivative(), half_b), False)


def solve_robin_analytic(
    f: LogLaurentExpr, g: LogLaurentExpr, params: RobinParams
) -> LogLaurentExpr:
    """Particular solution h of a h(z) + b z h'(z) = z f'(z) + g(z).

    The right-hand side z f' + g (``z_derivative`` of f plus g) is solved
    termwise by the algebra's Euler solver, the one whose solve at
    (a, b) = (0, 1) is ``antiderivative_over_arg``.  A term c z^k log^m
    with a + b k != 0 is matched by a descending-log ansatz at the same
    power; a resonant term (a + b k = 0) by raising the log power once; a
    power near resonance raises ``ResonanceError``.  The homogeneous
    solution, a non-integer power of z for general a/b, lies outside the
    log-Laurent algebra and is deliberately not added.
    """
    return (f.z_derivative() + g)._solve_euler(params.a, params.b)


def neumann_from_dirichlet_disk(trig: TrigPolynomial, z: complex) -> float:
    """Disk Neumann solution by radial quadrature of the Dirichlet solution.

    ``trig`` is the boundary data as Fourier coefficients, which must have
    zero mean (the solvability condition for disk Neumann data; a mean
    within 1e-10 of 0 is taken as 0, as the Fourier oracle takes it); the
    Dirichlet solution is supplied by the Fourier solver, and V(z) =
    integral over rho in [0,1] of U(rho z)/rho, so V(0) = 0, by
    ``integrate_path``.  An independent second route to the fields produced by
    :func:`neumann_from_dirichlet_pair`.
    """
    if abs(trig.mean) > 1e-10:
        raise NonzeroMeanError(
            f"boundary mean {trig.mean:.3g} must vanish for a disk Neumann problem"
        )
    z = complex(z)
    rz = abs(z)
    if rz > 1.0 + 1e-12:
        raise DomainError(f"|z| = {rz:.6g} lies outside the closed unit disk")
    if rz == 0.0:
        return 0.0
    theta = cmath.phase(z)

    mean = trig.mean

    def integrand(rho: complex) -> float:
        # Gauss-Kronrod nodes are interior, so rho = 0 is never sampled; the
        # accepted mean is dropped, as its term mean/rho has no integral
        r = rho.real
        return (trig.dirichlet_value(r * rz, theta) - mean) / r

    return float(integrate_path(integrand, PathSpec.segment(0.0, 1.0)).real)


class ArcNeumannField:
    """Field evaluator returned by :func:`neumann_from_dirichlet_schwarz`.

    Evaluation integrates f sqrt(S') from z to the base point z0, along a
    straight segment by Gauss-Kronrod (7, 15) panels, starting from 4, with
    the closed-form square root, whose sign makes i / sqrt(S') the outward
    normal on the whole curve.  The inverse map's root is the forward
    one conjugated on the conjugated path, so the zeta side, the mirror
    conj(f(conj t)) times sqrt(S~') from zeta to zeta0 = S(z0), is the
    conjugate of the z-side integral from conj(zeta) to conj(zeta0).  At a
    point exactly on the real slice, with zeta0 = conj(z0), that is the
    conjugate of the z-side integral itself, which is not computed again.
    Paths must stay inside the region where the Schwarz map is
    single-valued; the evaluator only guards against running into the map
    poles and the log cut.  z0 is the map's default base point, where the
    field is pinned to 0.
    """

    def __init__(self, u: HarmonicPair, smap: SchwarzMap):
        self.u = u
        self.smap = smap
        self.z0 = complex(smap.default_base_point())
        self.zeta0 = smap.value(self.z0)
        self._real_base = self.zeta0 == self.z0.conjugate()

    def _side_integral(self, start, end) -> complex:
        if abs(end - start) < 1e-13 * (1.0 + abs(end)):
            return 0j
        seg = PathSpec.segment(start, end)
        branch = sqrt_schwarz_derivative(self.smap, seg)
        f = self.u.part_z
        return integrate_path(lambda t: f.eval(t) * branch(t), seg)

    def eval(self, p: BiPoint) -> complex:
        iz = self._side_integral(p.z, self.z0)
        if self._real_base and p.zeta == p.z.conjugate():
            return complex(0.0 - 2.0 * iz.imag, 0.0)
        izeta = self._side_integral(p.zeta.conjugate(), self.zeta0.conjugate()).conjugate()
        return 0.0 + 1j * iz - 1j * izeta

    __call__ = eval


def neumann_from_dirichlet_schwarz(
    u: HarmonicPair, smap: SchwarzMap, path_z: PathSpec, path_zeta: PathSpec
) -> ArcNeumannField:
    """Dirichlet-to-Neumann conversion across an arc of a Schwarz carrier.

    v(z, zeta) = i * int_z^{z0} f sqrt(S') - i * int_zeta^{zeta0} f~ sqrt(S~'),
    with f~(t) = conj(f(conj t)), so v is 0 at the map's default base point
    z0.  The supplied paths must terminate at z0 (respectively its image
    zeta0 = S(z0)); at construction the square-root branches are built along
    them, which fails fast on a map pole on either path.  For the unit
    circle the field coincides with :func:`neumann_from_dirichlet_pair`.
    """
    field = ArcNeumannField(u, smap)
    z0, zeta0 = field.z0, field.zeta0
    if abs(path_z.end - z0) > 1e-9 * (1.0 + abs(z0)):
        raise ValueError("path_z must terminate at the base point")
    if abs(path_zeta.end - zeta0) > 1e-9 * (1.0 + abs(zeta0)):
        raise ValueError("path_zeta must terminate at the image of the base point")
    # fail fast: a map pole on a declared path raises here
    sqrt_schwarz_derivative(smap, path_z)
    sqrt_inverse_schwarz_derivative(smap, path_zeta)
    return field
