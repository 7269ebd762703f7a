"""The verification suite: every invariant promised by the exact modules,
replayed against the oracles of ``numerics``, with residuals recorded in a
machine-readable report.

A check calls each library function through its defining module when it
runs (``operators.neumann_from_dirichlet_pair(u)``,
``numerics.integrate_path(...)``) and holds no binding of its own, so a
patch on the defining module reaches every check; classes are imported by
name.  Each check draws from its own stream, ``random.Random(f"{seed}/{name}")``
(a string seed is hashed with SHA-512, so the stream is the same on every
run and platform), so a check's residuals do not depend on which checks run
before it.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from . import geometry, harmonic, numerics, operators, reflection
from .algebra import BivariateLaurentExpr, LogLaurentExpr
from .geometry import BiPoint, PathSpec, SchwarzMap
from .harmonic import HarmonicPair, RobinParams
from .numerics import TrigPolynomial
from .records import write

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "run_verification_suite",
    "worst_residual",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class CheckRecord:
    """One check's outcome.  ``error`` names the exception that stopped the
    check, whose residual is then NaN; JSON carries it only when set."""

    name: str
    tag: str
    samples: int
    max_residual: float
    tolerance: float
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_json(self) -> dict:
        rec = {
            "name": self.name,
            "tag": self.tag,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.error is not None:
            rec["error"] = self.error
        return rec


@dataclass(frozen=True)
class VerificationReport:
    """Residual record for a suite run; pass means residual <= tolerance."""

    seed: int
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": [c.to_json() for c in self.checks],
        }
        return write(payload)

    def summary_table(self) -> str:
        lines = [
            f"{'check':40s} {'tag':11s} {'n':>4s} {'max residual':>14s} {'tolerance':>10s} status"
        ]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{c.name:40s} {c.tag:11s} {c.samples:>4d} {c.max_residual:>14.3e} "
                f"{c.tolerance:>10.0e} {status}"
            )
        return "\n".join(lines)


def _random_expr(rng, max_terms=4, kmax=4, mmax=2, allow_log=True) -> LogLaurentExpr:
    n = rng.randrange(1, max_terms + 1)
    terms = []
    for _ in range(n):
        k = rng.randrange(-kmax, kmax + 1)
        m = rng.randrange(0, mmax + 1) if allow_log else 0
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms.append((c, k, m))
    return LogLaurentExpr(terms)


def _random_pair(rng, max_terms=4, kmax=3, allow_log=True) -> HarmonicPair:
    return HarmonicPair(_random_expr(rng, max_terms, kmax, 2 if allow_log else 0, allow_log))


def _random_bivariate(rng, max_terms=4, kmax=3) -> BivariateLaurentExpr:
    n = rng.randrange(1, max_terms + 1)
    terms = []
    for _ in range(n):
        kz = rng.randrange(-kmax, kmax + 1)
        kzeta = rng.randrange(-kmax, kmax + 1)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms.append((c, kz, kzeta))
    return BivariateLaurentExpr(terms)


def _random_zero_mean_trig(rng, degree=6) -> TrigPolynomial:
    cos = [0.0] + [rng.uniform(-1, 1) for _ in range(degree)]
    sin = [0.0] + [rng.uniform(-1, 1) for _ in range(degree)]
    return TrigPolynomial(tuple(cos), tuple(sin))


def _disk_pair(trig: TrigPolynomial) -> HarmonicPair:
    """Pair whose real slice is the disk Dirichlet extension of the data:
    the pair of sum_n c_n z^n, c_0 = a_0/2, c_n = (a_n - i b_n)/2."""
    terms = [(complex(0.5 * trig.cos[0], 0.0), 0, 0)]
    terms += [(0.5 * complex(trig.cos[n], -trig.sin[n]), n, 0) for n in range(1, len(trig.cos))]
    return HarmonicPair(LogLaurentExpr(terms))


def _robin_trace_bivariate(w: HarmonicPair, a: float, b: float) -> BivariateLaurentExpr:
    # log-free pairs only: a power k of f becomes the z power k, and of its
    # conjugate mirror the zeta power k, times a + b k, which realizes
    # a w + b r dw/dr on the circle; (a, b) = (1, 0) gives the trace of w
    if w.part_z.has_log():
        raise ValueError("trace extension needs a log-free pair")
    terms = [(t.coeff * (a + b * t.power), t.power, 0) for t in w.part_z.terms]
    terms += [(t.coeff.conjugate() * (a + b * t.power), 0, t.power) for t in w.part_z.terms]
    return BivariateLaurentExpr(terms)


def _linspace(start: float, stop: float, n: int) -> list:
    """``n`` evenly spaced points from start to stop, the ends included; equal
    bit for bit to ``numpy.linspace(start, stop, n)`` (i * step + start, with
    the last point set to stop)."""
    step = (stop - start) / (n - 1)
    return [i * step + start for i in range(n - 1)] + [stop]


def _sample_thetas(n: int) -> list:
    return _linspace(-2.0, 2.0, n)


def worst_residual(residuals: Iterable[float]) -> float:
    """The largest residual: NaN if any residual is NaN, 0.0 if there are none.

    A plain running ``max`` from 0.0 would drop a NaN, since
    ``max(0.0, nan)`` is 0.0, and a check whose oracle broke would pass.
    """
    values = list(residuals)
    if any(math.isnan(v) for v in values):
        return math.nan
    return float(max(values, default=0.0))


def _check_antiderivative_round_trip(rng):
    over_z = LogLaurentExpr.monomial(1.0, -1)
    for _ in range(50):
        e = _random_expr(rng)
        diff = e.antiderivative_over_arg().differentiate() - e * over_z
        yield worst_residual(abs(t.coeff) for t in diff.terms)


def _check_eval_homomorphism(rng):
    for _ in range(50):
        e1 = _random_expr(rng)
        e2 = _random_expr(rng)
        r = rng.uniform(0.5, 2.0)
        th = rng.uniform(-2.5, 2.5)
        z = r * cmath.exp(1j * th)
        yield abs((e1 + e2).eval(z) - e1.eval(z) - e2.eval(z))


def _check_ray_restriction(rng):
    for _ in range(50):
        e = _random_expr(rng)
        th = rng.uniform(-2.5, 2.5)
        ray = e.restrict_to_ray(th)
        yield worst_residual(
            abs(ray.eval(complex(rho)) - e.eval(rho * cmath.exp(1j * th)))
            for rho in _linspace(0.5, 2.0, 7)
        )


def _check_circle_kernel(rng):
    kernel = BivariateLaurentExpr([(1.0, 1, 1), (-1.0, 0, 0)])
    for _ in range(50):
        psi = _random_bivariate(rng, max_terms=8)
        restricted = (psi * kernel).restrict_to_circle()
        yield worst_residual(abs(t.coeff) for t in restricted.terms)


_SUITE_MAPS = (
    SchwarzMap.unit_circle(),
    SchwarzMap.circle(0.3 - 0.2j, 1.7),
    SchwarzMap.line(0.5j, 0.3),
)


def _check_on_curve_identity(rng):
    for smap in _SUITE_MAPS:
        for z in smap.curve_points(64):
            yield smap.on_curve_residual(z)


def _check_inverse_roundtrip(rng):
    for smap in _SUITE_MAPS:
        for z in smap.curve_points(16):
            for offset in (0.2 + 0.1j, -0.15j, 0.05 - 0.2j):
                w = z + offset
                yield abs(smap.inverse_value(smap.value(w)) - w)


def _check_reflect_involution(rng):
    for smap in _SUITE_MAPS:
        for z in smap.curve_points(8):
            for offset in (0.2, -0.25, 0.1):
                w = z + offset * smap.outward_normal(z)
                p = BiPoint(w, w.conjugate())
                q = geometry.reflect_bipoint(smap, geometry.reflect_bipoint(smap, p))
                yield abs(q.z - p.z) + abs(q.zeta - p.zeta)


def _check_real_slice_reflection(rng):
    for smap in _SUITE_MAPS:
        for z in smap.curve_points(8):
            for offset in (0.2, -0.25):
                w = z + offset * smap.outward_normal(z)
                q = geometry.reflect_bipoint(smap, BiPoint(w, w.conjugate()))
                x, y = geometry.anti_conformal_reflect(smap, w.real, w.imag)
                yield abs(q.z - complex(x, y))


def _check_fd_harmonicity(rng):
    params = RobinParams(1.0, 1.0)
    pairs = []
    for _ in range(3):
        pairs.append(_random_pair(rng))
    # operator outputs must stay harmonic too
    pairs.append(operators.neumann_from_dirichlet_pair(pairs[0]))
    pairs.append(operators.neumann_from_robin_pair(pairs[1], params))
    pairs.append(operators.dirichlet_from_robin_pair(pairs[2], params))
    # a 5-point stencil's O(h^2) truncation error alone reaches the
    # tolerance for some seeded pairs; this one is O(h^4)
    h = 1e-3
    for pair in pairs:
        field = lambda x, y: harmonic.eval_real(pair, x, y)
        for r in _linspace(0.75, 1.3, 5):
            for th in _linspace(-2.0, 2.0, 5):
                x, y = r * math.cos(th), r * math.sin(th)
                yield abs(numerics.fd_laplacian(field, x, y, h)) / harmonic.field_scale(pair, x, y)


def _check_reality(rng):
    # both sides are evaluated, the zeta side at zeta = r / e^{i theta}: that is
    # conj(z) only up to rounding, so the imaginary parts cancel to rounding,
    # not bitwise as at zeta = conj(z), where a pair is real by construction
    for _ in range(10):
        f = _random_pair(rng).part_z
        for th in _sample_thetas(8):
            r = rng.uniform(0.6, 1.5)
            ez = cmath.exp(1j * th)
            v = f.eval(r * ez) + f.eval((r / ez).conjugate()).conjugate()
            yield abs(v.imag) / max(1.0, abs(v))


def _check_normal_vs_radial(rng):
    smap = SchwarzMap.unit_circle()
    for _ in range(10):
        pair = _random_pair(rng)
        for th in _sample_thetas(6):
            z = cmath.exp(1j * th)
            yield abs(
                harmonic.normal_derivative_schwarz(pair, smap, z)
                - harmonic.radial_derivative(pair, 1.0, th)
            )


def _check_robin_trace_linearity(rng):
    params = RobinParams(rng.uniform(-2, 2), 1.5)
    for _ in range(10):
        h1 = _random_pair(rng)
        h2 = _random_pair(rng)
        for th in _sample_thetas(5):
            yield abs(
                harmonic.robin_trace_circle(h1 + h2, params, th)
                - harmonic.robin_trace_circle(h1, params, th)
                - harmonic.robin_trace_circle(h2, params, th)
            )


def _check_boundary_recovery_dirichlet(rng):
    for _ in range(10):
        u = _random_pair(rng, max_terms=8)
        v = operators.neumann_from_dirichlet_pair(u)
        for th in _linspace(-2.0, 2.0, 32):
            trace = harmonic.eval_pair(u, BiPoint.from_polar(1.0, th))
            yield abs(harmonic.radial_derivative(v, 1.0, th) - trace)


def _check_boundary_recovery_robin(rng):
    for a, b in ((1.0, 1.0), (2.0, -1.0), (0.5, 3.0)):
        params = RobinParams(a, b)
        for _ in range(4):
            w = _random_pair(rng, max_terms=6)
            v = operators.neumann_from_robin_pair(w, params)
            for th in _linspace(-2.0, 2.0, 32):
                target = 0.5 * harmonic.robin_trace_circle(w, params, th)
                yield abs(harmonic.radial_derivative(v, 1.0, th) - target)


def _check_corollary_chain(rng):
    for _ in range(20):
        params = RobinParams(rng.uniform(-2, 2), rng.choice([1.0, -1.0, 3.0]))
        w = _random_pair(rng, max_terms=5)
        dirichlet = operators.dirichlet_from_robin_pair(w, params)
        chain = operators.neumann_from_dirichlet_pair(dirichlet)
        direct = operators.neumann_from_robin_pair(w, params)
        diffs = []
        for r in _linspace(0.7, 1.3, 5):
            for th in _linspace(-1.8, 1.8, 5):
                x, y = r * math.cos(th), r * math.sin(th)
                diffs.append(harmonic.eval_real(chain, x, y) - harmonic.eval_real(direct, x, y))
        # the population variance: the two fields differ by a constant
        mean = math.fsum(diffs) / len(diffs)
        yield math.fsum((d - mean) ** 2 for d in diffs) / len(diffs)


def _check_ode_identity(rng):
    zmul = LogLaurentExpr.monomial(1.0, 1)
    # coefficient and log-power bounds keep the substitute-back rounding
    # below the normalization threshold, so the identity is termwise exact
    for a, b in ((1.0, 1.0), (2.0, -1.0), (0.5, 3.0)):
        params = RobinParams(a, b)
        for _ in range(7):
            f = 0.5 * _random_expr(rng, mmax=1)
            g = 0.5 * _random_expr(rng, mmax=1)
            rhs = zmul * f.differentiate() + g
            h = operators.solve_robin_analytic(f, g, params)
            residual = params.a * h + params.b * (zmul * h.differentiate()) - rhs
            yield worst_residual(abs(t.coeff) for t in residual.terms)


def _check_disk_vs_pair(rng):
    for _ in range(5):
        trig = _random_zero_mean_trig(rng, degree=6)
        pair_v = operators.neumann_from_dirichlet_pair(_disk_pair(trig))
        pin = harmonic.eval_real(pair_v, 1.0, 0.0)
        disk_pin = operators.neumann_from_dirichlet_disk(trig, 1.0 + 0j)
        for _ in range(10):
            r = rng.uniform(0.05, 1.0)
            th = rng.uniform(-2.5, 2.5)
            z = r * cmath.exp(1j * th)
            lhs = operators.neumann_from_dirichlet_disk(trig, z) - disk_pin
            rhs = harmonic.eval_real(pair_v, z.real, z.imag) - pin
            yield abs(lhs - rhs)


def _check_quadrature_vs_exact(rng):
    for _ in range(50):
        e = _random_expr(rng, max_terms=6)
        th = rng.uniform(-2.5, 2.5)
        r0 = rng.uniform(0.5, 2.0)
        r1 = rng.uniform(0.5, 2.0)
        if abs(r1 - r0) < 1e-3:
            r1 = r0 + 0.5
        path = PathSpec.radial_ray(th, r0, r1)
        numeric = numerics.integrate_path(lambda t: e.eval(t) / t, path)
        prim = e.antiderivative_over_arg().restrict_to_ray(th)
        exact = prim.eval(complex(r1)) - prim.eval(complex(r0))
        yield abs(numeric - exact)


def _check_oracle_vs_pair(rng):
    for _ in range(5):
        trig = _random_zero_mean_trig(rng, degree=6)
        v = operators.neumann_from_dirichlet_pair(_disk_pair(trig))
        pin = harmonic.eval_real(v, 1.0, 0.0) - numerics.fourier_neumann_oracle(trig, 1.0, 0.0)
        for r in _linspace(0.2, 1.0, 5):
            for th in _sample_thetas(5):
                x, y = r * math.cos(th), r * math.sin(th)
                yield abs(
                    harmonic.eval_real(v, x, y)
                    - pin
                    - numerics.fourier_neumann_oracle(trig, r, th)
                )


def _check_fd_scaling(rng):
    log_pair = HarmonicPair(LogLaurentExpr.monomial(0.5, 0, 1))
    saddle = HarmonicPair(LogLaurentExpr.monomial(0.5, 2))
    for pair, (x, y) in ((log_pair, (2.0, 0.0)), (saddle, (0.9, 0.4))):
        field = lambda xx, yy: harmonic.eval_real(pair, xx, yy)
        for h in (1e-3, 1e-4):
            yield abs(numerics.fd_laplacian(field, x, y, h))


def _check_reflection_fixed_points(rng):
    smap = SchwarzMap.unit_circle()
    params = RobinParams(1.0, 1.0)
    for _ in range(10):
        u = _random_pair(rng, allow_log=False)
        phi = _robin_trace_bivariate(u, 1.0, 0.0)
        for th in _sample_thetas(6):
            p = BiPoint.from_polar(1.0, th)
            direct = harmonic.eval_pair(u, p)
            rn = reflection.reflect_neumann_circle(u, phi, p)
            rr = reflection.reflect_robin_circle(u, phi, params, p)
            rd = reflection.reflect_dirichlet_study(u, phi, smap, p)
            yield worst_residual((
                abs(rn.correction), abs(rn.value - direct),
                abs(rr.correction), abs(rr.value - direct),
                abs(rd.value - direct),
            ))


def _check_dirichlet_involution(rng):
    smap = SchwarzMap.unit_circle()
    for _ in range(8):
        u = _random_pair(rng, allow_log=False)
        phi = _robin_trace_bivariate(u, 1.0, 0.0)
        for th in _sample_thetas(5):
            p = BiPoint.from_polar(rng.uniform(0.6, 0.95), th)
            # phi is mirrored, so on the slice the data take one evaluation;
            # the identity holds on C^2, so a point off the slice checks the
            # two-part data sum
            yield worst_residual(
                abs(
                    reflection.reflect_dirichlet_study(
                        u, phi, smap, geometry.reflect_bipoint(smap, x)
                    ).value
                    - harmonic.eval_pair(u, x)
                )
                for x in (p, BiPoint(p.z, 1.05 * p.zeta))
            )


def _check_extension_independence(rng):
    kernel = BivariateLaurentExpr([(1.0, 1, 1), (-1.0, 0, 0)])
    params = RobinParams(1.0, 1.0)
    for _ in range(10):
        u = _random_pair(rng, allow_log=False)
        phi = _robin_trace_bivariate(u, 1.0, 0.0)
        psi = _random_bivariate(rng, max_terms=6)
        phi2 = phi + psi * kernel
        for th in _sample_thetas(5):
            p = BiPoint.from_polar(0.8, th)
            yield worst_residual((
                abs(
                    reflection.reflect_neumann_circle(u, phi, p).correction
                    - reflection.reflect_neumann_circle(u, phi2, p).correction
                ),
                abs(
                    reflection.reflect_robin_circle(u, phi, params, p).correction
                    - reflection.reflect_robin_circle(u, phi2, params, p).correction
                ),
            ))


def _check_neumann_pipeline(rng):
    smap = SchwarzMap.unit_circle()
    for _ in range(10):
        u = _random_pair(rng, allow_log=False)
        phi = _robin_trace_bivariate(u, 1.0, 0.0)
        v = operators.neumann_from_dirichlet_pair(u)
        for _ in range(2):
            p = BiPoint.from_polar(rng.uniform(0.6, 0.95), rng.uniform(-2.0, 2.0))
            direct = harmonic.eval_pair(v, geometry.reflect_bipoint(smap, p))
            yield abs(direct - reflection.reflect_neumann_circle(v, phi, p).value)


def _check_robin_pipeline(rng):
    smap = SchwarzMap.unit_circle()
    for a, b in ((1.0, 1.0), (2.0, -1.0), (0.5, 3.0)):
        params = RobinParams(a, b)
        for _ in range(4):
            w = _random_pair(rng, allow_log=False)
            phi_w = _robin_trace_bivariate(w, a, b)
            for _ in range(2):
                p = BiPoint.from_polar(rng.uniform(0.6, 0.95), rng.uniform(-2.0, 2.0))
                direct = harmonic.eval_pair(w, geometry.reflect_bipoint(smap, p))
                yield abs(direct - reflection.reflect_robin_circle(w, phi_w, params, p).value)


def _check_even_continuation(rng):
    for _ in range(10):
        v = _random_pair(rng)
        for th in _sample_thetas(3):
            p = BiPoint.from_polar(0.85, th)
            res = reflection.reflect_neumann_circle(v, BivariateLaurentExpr.zero(), p)
            yield worst_residual((abs(res.value - harmonic.eval_pair(v, p)), abs(res.correction)))


def _check_circle_reduction(rng):
    smap = SchwarzMap.unit_circle()
    u = _random_pair(rng, allow_log=False)
    phi = _robin_trace_bivariate(u, 1.0, 0.0)
    v_exact = operators.neumann_from_dirichlet_pair(u)
    path = PathSpec.segment(0.75 + 0j, 1.0 + 0j)
    v_arc = operators.neumann_from_dirichlet_schwarz(u, smap, path, path)
    for _ in range(20):
        r = rng.uniform(0.6, 0.95)
        th = rng.uniform(-2.0, 2.0)
        p = BiPoint.from_polar(r, th)
        yield worst_residual((
            abs(v_arc.eval(p) - harmonic.eval_real(v_exact, p.z.real, p.z.imag)),
            abs(
                reflection.reflect_neumann_schwarz(v_exact, phi, smap, p).value
                - reflection.reflect_neumann_circle(v_exact, phi, p).value
            ),
        ))


# A check is a generator over its own random.Random stream that yields one
# residual per sample and nothing else; a sample with several residuals
# yields their worst_residual.  run_verification_suite counts and reduces them.
_CHECKS = (  # (name, tag, tolerance, check)
    ("antiderivative_round_trip", "algebra", 0.0, _check_antiderivative_round_trip),
    ("eval_homomorphism", "algebra", 1e-13, _check_eval_homomorphism),
    ("ray_restriction_consistency", "algebra", 1e-11, _check_ray_restriction),
    ("circle_restriction_kernel", "algebra", 0.0, _check_circle_kernel),
    ("on_curve_identity", "geometry", 1e-12, _check_on_curve_identity),
    ("inverse_map_roundtrip", "geometry", 1e-12, _check_inverse_roundtrip),
    ("reflection_involution", "geometry", 1e-12, _check_reflect_involution),
    ("real_slice_reflection", "geometry", 1e-12, _check_real_slice_reflection),
    ("fd_harmonicity", "harmonic", 1e-5, _check_fd_harmonicity),
    ("real_slice_reality", "harmonic", 1e-11, _check_reality),
    ("normal_vs_radial_derivative", "harmonic", 1e-10, _check_normal_vs_radial),
    ("robin_trace_linearity", "harmonic", 1e-11, _check_robin_trace_linearity),
    ("boundary_recovery_dirichlet", "operators", 1e-10, _check_boundary_recovery_dirichlet),
    ("boundary_recovery_robin", "operators", 1e-10, _check_boundary_recovery_robin),
    ("robin_chain_constant_field", "operators", 1e-18, _check_corollary_chain),
    ("robin_ode_identity", "operators", 0.0, _check_ode_identity),
    ("disk_operator_vs_pair", "operators", 1e-8, _check_disk_vs_pair),
    ("quadrature_vs_exact_algebra", "numerics", 1e-9, _check_quadrature_vs_exact),
    ("fourier_oracle_vs_pair", "numerics", 1e-8, _check_oracle_vs_pair),
    ("fd_laplacian_scaling", "numerics", 1e-4, _check_fd_scaling),
    ("reflection_fixed_points", "reflection", 1e-11, _check_reflection_fixed_points),
    ("dirichlet_reflection_involution", "reflection", 1e-11, _check_dirichlet_involution),
    ("extension_independence", "reflection", 1e-12, _check_extension_independence),
    ("neumann_reflection_pipeline", "reflection", 1e-10, _check_neumann_pipeline),
    ("robin_reflection_pipeline", "reflection", 1e-10, _check_robin_pipeline),
    ("even_continuation", "reflection", 1e-12, _check_even_continuation),
    ("arc_circle_reduction", "reflection", 1e-9, _check_circle_reduction),
)


def run_verification_suite(
    targets: Optional[Iterable[str]] = None,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Run the registered invariant checks and collect residuals.

    Each check yields one residual per sample; its record holds the number
    of samples and their ``worst_residual``, which is NaN, and so fails,
    if any residual is NaN.  A check draws its inputs from a stream seeded
    by ``seed`` and its own name, so it gives the same residuals alone as in
    the full suite.

    ``targets`` selects checks by name or tag (None runs everything; an
    empty selection yields an empty, passing report).  Failures are
    recorded, never raised: a check whose library call raises an
    ``ArithmeticError`` or a ``ValueError`` (every ``HarmoniaError`` is one)
    is recorded with the samples it gave before, a NaN residual and the
    exception in ``error``, and the checks after it still run.
    """
    if targets is None:
        selected = list(_CHECKS)
    else:
        wanted = set(targets)
        known = {name for name, _, _, _ in _CHECKS} | {tag for _, tag, _, _ in _CHECKS}
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown verification targets: {sorted(unknown)}")
        selected = [c for c in _CHECKS if c[0] in wanted or c[1] in wanted]
    records = []
    for name, tag, tol, check in selected:
        residuals, error = [], None
        try:
            for residual in check(random.Random(f"{seed}/{name}")):
                residuals.append(residual)
        except (ArithmeticError, ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        records.append(
            CheckRecord(
                name=name,
                tag=tag,
                samples=len(residuals),
                max_residual=math.nan if error else worst_residual(residuals),
                tolerance=tol,
                error=error,
            )
        )
    return VerificationReport(seed=seed, checks=tuple(records))
