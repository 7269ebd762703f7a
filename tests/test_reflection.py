import cmath
import copy
import math
import pickle
import re

import numpy as np
import pytest

from harmonia.algebra import (
    CUT_MARGIN,
    BivariateLaurentExpr,
    LogLaurentExpr,
    _fold_angle,
    cut_distance,
)
from harmonia.errors import (
    CutProximityError,
    DomainError,
    HarmoniaError,
    PoleError,
    PowerUnderflowError,
    RangeError,
)
from harmonia.geometry import (
    BiPoint,
    PathSpec,
    SchwarzMap,
    reflect_bipoint,
    sqrt_inverse_schwarz_derivative,
    sqrt_schwarz_derivative,
)
from harmonia.harmonic import HarmonicPair, RobinParams, eval_pair, field_scale
from harmonia.numerics import integrate_path
from harmonia.operators import neumann_from_dirichlet_pair, neumann_from_dirichlet_schwarz
from harmonia.reflection import (
    ReflectionResult,
    _ray_coordinates,
    reflect_dirichlet_study,
    reflect_neumann_circle,
    reflect_neumann_schwarz,
    reflect_robin_circle,
)
from harmonia.verification import _SUITE_MAPS
from mirror_helpers import MIRROR_RADII, MIRROR_THETAS, outcome, seeded_expr, zeta_part

UNIT = SchwarzMap.unit_circle()
SADDLE = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 2))
LOG_RADIAL = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 0, 1))
LINEAR = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 1))

SAMPLE_POINTS = [
    BiPoint.from_polar(float(r), float(th))
    for r in np.linspace(0.6, 0.95, 5)
    for th in np.linspace(-2.0, 2.0, 4)
]


def laurent_pair_trace(u: HarmonicPair) -> BivariateLaurentExpr:
    terms = [(t.coeff, t.power, 0) for t in u.part_z.terms]
    terms += [(t.coeff.conjugate(), 0, t.power) for t in u.part_z.terms]
    return BivariateLaurentExpr(terms)


def robin_trace_data(w: HarmonicPair, a: float, b: float) -> BivariateLaurentExpr:
    terms = [(t.coeff * (a + b * t.power), t.power, 0) for t in w.part_z.terms]
    terms += [(t.coeff.conjugate() * (a + b * t.power), 0, t.power) for t in w.part_z.terms]
    return BivariateLaurentExpr(terms)


def random_symmetric_laurent(rng, n_terms=4):
    terms = [
        (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), int(rng.integers(-3, 4)), 0)
        for _ in range(n_terms)
    ]
    return HarmonicPair.symmetric(LogLaurentExpr(terms))


# -- Dirichlet ---------------------------------------------------------------


def test_dirichlet_odd_continuation_with_zero_data():
    rng = np.random.default_rng(51)
    u = random_symmetric_laurent(rng)
    p = BiPoint.from_polar(0.8, 0.7)
    res = reflect_dirichlet_study(u, BivariateLaurentExpr.zero(), UNIT, p)
    assert abs(res.value + eval_pair(u, p)) < 1e-13
    assert res.correction == 0j


def test_dirichlet_fixed_point_on_curve():
    u = SADDLE
    phi = laurent_pair_trace(u)
    p = BiPoint.from_polar(1.0, 0.4)
    res = reflect_dirichlet_study(u, phi, UNIT, p)
    assert abs(res.value - eval_pair(u, p)) < 1e-13


def test_dirichlet_arithmetic_example():
    # u = (z^2/2, zeta^2/2), phi = (z^2 + zeta^2)/2 at the point (2, 2):
    # value = phi(1/2, 2) + phi(2, 1/2) - u(2, 2) = 1/4
    u = SADDLE
    phi = BivariateLaurentExpr([(0.5, 2, 0), (0.5, 0, 2)])
    p = BiPoint(2.0 + 0j, 2.0 + 0j)
    res = reflect_dirichlet_study(u, phi, UNIT, p)
    assert abs(res.value - 0.25) < 1e-14
    assert abs(res.value - eval_pair(u, BiPoint(0.5 + 0j, 0.5 + 0j))) < 1e-14
    assert abs(res.reflected_point.z - 0.5) < 1e-15


def test_dirichlet_involution():
    rng = np.random.default_rng(52)
    for _ in range(8):
        u = random_symmetric_laurent(rng)
        phi = laurent_pair_trace(u)
        p = BiPoint.from_polar(float(rng.uniform(0.6, 0.95)), float(rng.uniform(-2, 2)))
        q = reflect_bipoint(UNIT, p)
        res = reflect_dirichlet_study(u, phi, UNIT, q)
        assert abs(res.value - eval_pair(u, p)) < 1e-11


def _two_part_dirichlet(u, phi, smap, p):
    """reflect_dirichlet_study's value with the two-part data sum, written out."""
    q = reflect_bipoint(smap, p)
    return phi.eval(q.z, p.zeta) + phi.eval(p.z, q.zeta) - eval_pair(u, p)


def _data_scale(phi, p, q):
    """Term magnitudes of phi at the two points where the data are evaluated."""
    return sum(
        abs(complex(t["re"], t["im"])) * abs(z) ** t["kz"] * abs(zeta) ** t["kzeta"]
        for t in phi.to_json()
        for z, zeta in ((q.z, p.zeta), (p.z, q.zeta))
    )


DIRICHLET_MAPS = (UNIT, SchwarzMap.circle(0.3 - 0.2j, 1.7), SchwarzMap.line(0.5j, 0.3))


def test_mirrored_dirichlet_data_take_one_evaluation():
    rng = np.random.default_rng(53)
    for smap in DIRICHLET_MAPS:
        for _ in range(3):
            u = random_symmetric_laurent(rng)
            phi = laurent_pair_trace(u)
            assert phi.mirrored
            for p in _slice_points():
                q = reflect_bipoint(smap, p)
                res = reflect_dirichlet_study(u, phi, smap, p)
                data = phi.eval(q.z, p.zeta) + phi.eval(p.z, q.zeta)
                assert res.correction.imag == 0.0
                assert abs(res.correction - data) <= 1e-13 * _data_scale(phi, p, q), (smap, p)
                assert res.value == res.correction - eval_pair(u, p)


def test_other_dirichlet_data_and_points_keep_the_two_part_sum_bit_for_bit():
    rng = np.random.default_rng(54)
    for smap in DIRICHLET_MAPS:
        u = random_symmetric_laurent(rng)
        phi = laurent_pair_trace(u)
        lopsided = phi + BivariateLaurentExpr([(0.3 + 0.1j, 2, -1)])  # no partner at (-1, 2)
        assert not lopsided.mirrored
        for p in list(_slice_points())[::3]:
            off = BiPoint(p.z, 1.05 * p.zeta)
            for data, x in ((phi, off), (lopsided, p), (lopsided, off)):
                assert outcome(lambda: reflect_dirichlet_study(u, data, smap, x).value) == (
                    outcome(lambda: _two_part_dirichlet(u, data, smap, x))
                )


def test_mirrored_dirichlet_data_are_evaluated_once(monkeypatch):
    evaluated = []
    original = BivariateLaurentExpr.eval

    def eval_noting(phi, z, zeta):
        evaluated.append((z, zeta))
        return original(phi, z, zeta)

    monkeypatch.setattr(BivariateLaurentExpr, "eval", eval_noting)
    phi = laurent_pair_trace(SADDLE)
    p = BiPoint.from_polar(0.8, 0.7)
    for point, n_evals in ((p, 1), (BiPoint(p.z, 1.05 * p.zeta), 2)):
        evaluated.clear()
        reflect_dirichlet_study(SADDLE, phi, UNIT, point)
        assert len(evaluated) == n_evals


# -- Neumann on the circle ------------------------------------------------------


def test_neumann_constant_data():
    v = neumann_from_dirichlet_pair(HarmonicPair.constant(1.0))
    phi = BivariateLaurentExpr.constant(1.0)
    for p in SAMPLE_POINTS:
        res = reflect_neumann_circle(v, phi, p, verify_numeric=True)
        r = abs(p.z)
        assert abs(res.correction - (-2.0 * math.log(r))) < 1e-12
        direct = eval_pair(v, reflect_bipoint(UNIT, p))
        assert abs(res.value - direct) < 1e-12


def test_neumann_quadratic_data():
    # data 4x^2 - 2 extended as z^2 + zeta^2 + 2(z zeta - 1)
    v = SADDLE
    phi = BivariateLaurentExpr([(1.0, 2, 0), (1.0, 0, 2), (2.0, 1, 1), (-2.0, 0, 0)])
    for p in SAMPLE_POINTS:
        r, th = abs(p.z), cmath.phase(p.z)
        res = reflect_neumann_circle(v, phi, p, verify_numeric=True)
        expected = (1.0 / (r * r) - r * r) * math.cos(2 * th)
        assert abs(res.correction - expected) < 1e-12


def test_the_quadrature_shadow_raises_when_the_exact_correction_is_wrong(monkeypatch):
    # a 1e-6 relative error in the exact correction: the shadow quadrature of
    # verify_numeric disagrees and raises, and without it nothing notices
    phi = BivariateLaurentExpr([(1.0, 2, 0), (1.0, 0, 2), (2.0, 1, 1), (-2.0, 0, 0)])
    p = BiPoint.from_polar(0.7, 0.4)
    params = RobinParams(0.0, 1.0)
    exact = reflect_robin_circle(SADDLE, phi, params, p, verify_numeric=True)
    ray_change = LogLaurentExpr.ray_change
    monkeypatch.setattr(
        LogLaurentExpr, "ray_change", lambda e, theta, r: ray_change(e, theta, r) * (1 + 1e-6)
    )
    wrong = reflect_robin_circle(SADDLE, phi, params, p)
    assert wrong.correction == pytest.approx(exact.correction, rel=2e-6)
    assert wrong.correction != exact.correction
    for reflect in (
        lambda: reflect_neumann_circle(SADDLE, phi, p, verify_numeric=True),
        lambda: reflect_robin_circle(SADDLE, phi, params, p, verify_numeric=True),
    ):
        with pytest.raises(HarmoniaError, match="exact correction .* disagrees with quadrature"):
            reflect()


def test_neumann_r_equal_one_is_trivial():
    v = SADDLE
    phi = laurent_pair_trace(SADDLE)
    p = BiPoint.from_polar(1.0, 1.1)
    res = reflect_neumann_circle(v, phi, p)
    assert res.correction == 0j
    assert abs(res.value - eval_pair(v, p)) < 1e-14


def test_neumann_even_continuation():
    rng = np.random.default_rng(53)
    v = random_symmetric_laurent(rng)
    for p in SAMPLE_POINTS[:6]:
        res = reflect_neumann_circle(v, BivariateLaurentExpr.zero(), p)
        assert res.correction == 0j
        assert abs(res.value - eval_pair(v, p)) < 1e-14


def test_neumann_pipeline_identity():
    rng = np.random.default_rng(54)
    for _ in range(10):
        u = random_symmetric_laurent(rng)
        phi = laurent_pair_trace(u)
        v = neumann_from_dirichlet_pair(u)
        p = BiPoint.from_polar(float(rng.uniform(0.6, 0.95)), float(rng.uniform(-2, 2)))
        res = reflect_neumann_circle(v, phi, p)
        direct = eval_pair(v, reflect_bipoint(UNIT, p))
        assert abs(res.value - direct) < 1e-10


def test_neumann_extension_independence():
    rng = np.random.default_rng(55)
    kernel = BivariateLaurentExpr([(1.0, 1, 1), (-1.0, 0, 0)])
    u = random_symmetric_laurent(rng)
    phi = laurent_pair_trace(u)
    for _ in range(10):
        psi = BivariateLaurentExpr(
            [
                (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                 int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
                for _ in range(6)
            ]
        )
        p = BiPoint.from_polar(0.8, 0.5)
        base = reflect_neumann_circle(u, phi, p).correction
        augmented = reflect_neumann_circle(u, phi + psi * kernel, p).correction
        assert abs(base - augmented) < 1e-12


def test_neumann_rejects_off_slice_points():
    with pytest.raises(DomainError):
        reflect_neumann_circle(SADDLE, BivariateLaurentExpr.zero(), BiPoint(0.8 + 0j, 0.5 + 0j))


# -- Robin on the circle -----------------------------------------------------------


def test_robin_constant_data_log_solution():
    # w = log r solves the Robin problem with data b; the self integral
    # vanishes because log(1/rho) cancels log(rho)
    for a, b in ((1.0, 1.0), (2.0, -1.0), (0.5, 3.0)):
        params = RobinParams(a, b)
        phi_w = BivariateLaurentExpr.constant(b)
        for p in SAMPLE_POINTS[:8]:
            r = abs(p.z)
            res = reflect_robin_circle(LOG_RADIAL, phi_w, params, p, verify_numeric=True)
            assert abs(res.correction - (-2.0 * math.log(r))) < 1e-12
            direct = eval_pair(LOG_RADIAL, reflect_bipoint(UNIT, p))
            assert abs(res.value - direct) < 1e-12


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, -1.0), (0.5, 3.0)])
def test_robin_cos2_data(a, b):
    params = RobinParams(a, b)
    phi_w = BivariateLaurentExpr([(0.5 * (a + 2 * b), 2, 0), (0.5 * (a + 2 * b), 0, 2)])
    for p in SAMPLE_POINTS[:8]:
        r, th = abs(p.z), cmath.phase(p.z)
        res = reflect_robin_circle(SADDLE, phi_w, params, p, verify_numeric=True)
        expected = -((a + 2 * b) / (2 * b)) * (r * r - 1.0 / (r * r)) * math.cos(2 * th)
        assert abs(res.correction - expected) < 1e-12
        direct = eval_pair(SADDLE, reflect_bipoint(UNIT, p))
        assert abs(res.value - direct) < 1e-12


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, -1.0), (0.5, 3.0)])
def test_robin_cos1_data_derived_coefficient(a, b):
    # data (a+b) cos theta: exact integration gives -((a+b)/b)(r - 1/r) cos
    # theta; the half-scale variant fails the continuation identity (see
    # the ledger)
    params = RobinParams(a, b)
    phi_w = BivariateLaurentExpr([(0.5 * (a + b), 1, 0), (0.5 * (a + b), 0, 1)])
    for p in SAMPLE_POINTS[:8]:
        r, th = abs(p.z), cmath.phase(p.z)
        res = reflect_robin_circle(LINEAR, phi_w, params, p, verify_numeric=True)
        derived = -((a + b) / b) * (r - 1.0 / r) * math.cos(th)
        assert abs(res.correction - derived) < 1e-12
        direct = eval_pair(LINEAR, reflect_bipoint(UNIT, p))
        assert abs(res.value - direct) < 1e-12
        half_scale = 0.5 * derived
        if abs(derived) > 0.05:
            assert abs(res.correction - half_scale) > 0.02


def test_robin_r_equal_one_is_trivial():
    params = RobinParams(1.0, 1.0)
    p = BiPoint.from_polar(1.0, -0.9)
    res = reflect_robin_circle(SADDLE, laurent_pair_trace(SADDLE), params, p)
    assert res.correction == 0j
    assert abs(res.value - eval_pair(SADDLE, p)) < 1e-14


def test_robin_pipeline_identity():
    rng = np.random.default_rng(56)
    for a, b in ((1.0, 1.0), (2.0, -1.0), (0.5, 3.0)):
        params = RobinParams(a, b)
        for _ in range(4):
            w = random_symmetric_laurent(rng)
            phi_w = robin_trace_data(w, a, b)
            p = BiPoint.from_polar(float(rng.uniform(0.6, 0.95)), float(rng.uniform(-2, 2)))
            res = reflect_robin_circle(w, phi_w, params, p)
            direct = eval_pair(w, reflect_bipoint(UNIT, p))
            assert abs(res.value - direct) < 1e-10


def test_robin_extension_independence():
    rng = np.random.default_rng(57)
    kernel = BivariateLaurentExpr([(1.0, 1, 1), (-1.0, 0, 0)])
    params = RobinParams(1.0, 1.0)
    w = random_symmetric_laurent(rng)
    phi_w = robin_trace_data(w, 1.0, 1.0)
    psi = BivariateLaurentExpr([(0.7 - 0.2j, 1, -1), (0.1j, 0, 2)])
    p = BiPoint.from_polar(0.75, -0.4)
    base = reflect_robin_circle(w, phi_w, params, p).correction
    augmented = reflect_robin_circle(w, phi_w + psi * kernel, params, p).correction
    assert abs(base - augmented) < 1e-12


# -- the circle corrections against a reference route -------------------------------
#
# The reference builds an expression in rho for each ray: the restriction of
# the data (or of w) to the ray, its primitive over rho and, for the Robin
# self term, the rho -> 1/rho image of the integrand.  It evaluates that at
# positive rho, so it holds where the branch window of the cut holds the
# angle 0; the cuts below do.


def _reference_data_term(phi, theta, r, cut):
    prim = phi.restrict_to_circle(cut).restrict_to_ray(theta).antiderivative_over_arg()
    return -(prim.eval(complex(r)) - prim.eval(complex(1.0 / r)))


def _reference_robin(w, phi_w, params, p):
    r, theta = abs(p.z), cmath.phase(p.z)
    if r == 1.0:
        return eval_pair(w, p)
    # the zeta side along the conjugate ray is the conjugate of the z side, the
    # restriction's conjugate mirror where the window of the cut holds 0
    ray = w.part_z.restrict_to_ray(theta)
    along = ray + ray.conjugate_mirror()
    prim = (along + along.invert_argument()).antiderivative_over_arg()
    self_term = -(params.a / params.b) * (prim.eval(complex(1.0)) - prim.eval(complex(r)))
    data = _reference_data_term(phi_w, theta, r, w.part_z.cut_angle) / params.b
    return eval_pair(w, p) + self_term + data


def _reference_neumann(v, phi, p):
    r, theta = abs(p.z), cmath.phase(p.z)
    data = 0j if r == 1.0 else _reference_data_term(phi, theta, r, v.part_z.cut_angle)
    return eval_pair(v, p) + data


def _random_log_pair(rng, cut):
    def part():
        return LogLaurentExpr(
            [
                (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                 int(rng.integers(-3, 4)), int(rng.integers(0, 3)))
                for _ in range(int(rng.integers(1, 5)))
            ],
            cut,
        )

    return HarmonicPair(part())


def _random_bivariate_data(rng):
    return BivariateLaurentExpr(
        [
            (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            for _ in range(int(rng.integers(1, 6)))
        ]
    )


def _reference_cases(rng, cut):
    """Radii below, at, above and next to 1; angles anywhere and within 1e-5
    (but beyond the guard's 1e-6) of the cut, for z and for zeta."""
    radii = (float(rng.uniform(0.3, 0.95)), float(rng.uniform(1.05, 3.0)), 1.0, 1.0 - 1e-9)
    near = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(2e-6, 1e-5))
    thetas = (float(rng.uniform(-math.pi, math.pi)), cut + near, -cut + near)
    for r in radii:
        for th in thetas:
            yield BiPoint.from_polar(r, th)


@pytest.mark.parametrize("cut", [math.pi, 2.0])
def test_circle_reflections_match_the_reference_route(cut):
    rng = np.random.default_rng(60)
    for _ in range(25):
        w = _random_log_pair(rng, cut)
        phi = _random_bivariate_data(rng)
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))
        params = RobinParams(float(rng.uniform(0.2, 2.0)), b)
        for p in _reference_cases(rng, cut):
            for got, want in (
                (reflect_neumann_circle(w, phi, p).value, _reference_neumann(w, phi, p)),
                (
                    reflect_robin_circle(w, phi, params, p).value,
                    _reference_robin(w, phi, params, p),
                ),
            ):
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (p, got, want)


def test_log_free_data_reflects_next_to_the_cut():
    # the data's primitive carries log z from the constant term; along one
    # ray its jump across the cut cancels, so no ray is rejected
    phi = BivariateLaurentExpr([(1.0, 0, 0), (0.2, 1, 0)])
    v = HarmonicPair.symmetric(LogLaurentExpr([(0.3, 1, 0), (0.1, 0, 0)]))
    params = RobinParams(1.0, 2.0)
    for theta in (math.pi - 1e-7, math.pi, -math.pi + 1e-9):
        p = BiPoint.from_polar(0.8, theta)
        res = reflect_neumann_circle(v, phi, p)
        closed = -(2.0 * math.log(0.8) + 0.2 * cmath.exp(1j * theta) * (0.8 - 1.25))
        assert abs(res.correction - closed) < 1e-14
        assert abs(res.value - _reference_neumann(v, phi, p)) < 1e-14
        robin = reflect_robin_circle(v, phi, params, p)
        assert abs(robin.value - _reference_robin(v, phi, params, p)) < 1e-14
    # with the cut along the positive real axis, the ends of the ray are
    # still on one branch
    zero_cut = HarmonicPair(LogLaurentExpr((), 0.0))
    p = BiPoint.from_polar(0.8, 1.0)
    res = reflect_neumann_circle(zero_cut, BivariateLaurentExpr.constant(1.0), p)
    assert abs(res.correction + 2.0 * math.log(0.8)) < 1e-14


def test_a_part_with_logs_is_not_reflected_next_to_its_cut():
    phi = BivariateLaurentExpr.constant(1.0)
    params = RobinParams(1.0, 1.0)

    def logged(cut):
        return HarmonicPair(LogLaurentExpr([(0.5, 0, 1), (0.2, 1, 0)], cut))

    for theta in (math.pi - 1e-7, -math.pi + 1e-7):
        with pytest.raises(CutProximityError):
            reflect_robin_circle(logged(math.pi), phi, params, BiPoint.from_polar(0.8, theta))
    # with the cut at 2, z is next to the cut at theta = 2, and zeta next to its
    # mirrored cut; at theta = -2 neither is
    w = logged(2.0)
    with pytest.raises(CutProximityError):
        reflect_robin_circle(w, phi, params, BiPoint.from_polar(0.8, 2.0 - 1e-7))
    p = BiPoint.from_polar(0.8, -2.0 + 1e-7)
    res = reflect_robin_circle(w, phi, params, p)
    assert abs(res.value - _reference_robin(w, phi, params, p)) < 1e-14
    # a part with no logs has no cut to be next to
    free = HarmonicPair(LogLaurentExpr([(0.5, 1, 0)], 2.0))
    reflect_robin_circle(free, phi, params, BiPoint.from_polar(0.8, 2.0 - 1e-7))


def test_robin_self_term_on_a_cut_that_excludes_the_positive_axis():
    # with the cut at -1 the branch window (-1 - 2 pi, -1] misses the angle
    # 0; the self integral is taken by quadrature along the ray as the oracle
    cut = -1.0
    w = HarmonicPair(LogLaurentExpr([(0.5, 0, 1), (0.3, 2, 0), (0.2, -1, 2), (0.1j, 1, 1)], cut))
    params = RobinParams(1.0, 1.0)
    for r, theta in ((0.7, 0.5), (1.6, -2.5)):
        p = BiPoint.from_polar(r, theta)
        res = reflect_robin_circle(w, BivariateLaurentExpr.zero(), params, p)
        ez = cmath.exp(1j * theta)

        def integrand(t):
            inner = eval_pair(w, BiPoint(t * ez, t / ez))
            outer = eval_pair(w, BiPoint(ez / t, 1.0 / (t * ez)))
            return (inner + outer) / t

        oracle = -integrate_path(integrand, PathSpec.radial_ray(0.0, r, 1.0))
        assert abs(res.value - eval_pair(w, p) - oracle) < 1e-10


# -- Neumann is the Robin formula at (a, b) = (0, 1) ---------------------------------


def _reflected(fn):
    """fn()'s value, correction and reflected point, or the type and message
    of what it raised."""
    try:
        res = fn()
    except HarmoniaError as exc:
        return type(exc), str(exc)
    return res.value, res.correction, res.reflected_point


def test_neumann_is_robin_at_zero_one_bit_for_bit():
    rng = np.random.default_rng(230)
    zero_one = RobinParams(0.0, 1.0)
    # every seventh mirror ray, and one within the cut guard of pi
    thetas = (*MIRROR_THETAS[::7], math.pi - 1e-7)
    for _ in range(3):
        f = seeded_expr(rng)
        pairs = (
            HarmonicPair.symmetric(f),
            HarmonicPair.symmetric(f.with_cut_angle(2.0)),
            _random_log_pair(rng, 2.0),
        )
        data = _random_bivariate_data(rng)
        for v in pairs:
            for r in (0.6, 1.0, 1.7):
                for th in thetas:
                    z = r * cmath.exp(1j * th)
                    # on the slice, and off it by less than the slice guard
                    for p in (BiPoint(z, z.conjugate()), BiPoint(z, z.conjugate() * (1 + 1e-11))):
                        neumann = _reflected(lambda: reflect_neumann_circle(v, data, p))
                        robin = _reflected(lambda: reflect_robin_circle(v, data, zero_one, p))
                        assert neumann == robin, (p, neumann, robin)
            for th in thetas[:2]:
                p = BiPoint.from_polar(0.6, th)
                neumann = reflect_neumann_circle(v, data, p, verify_numeric=True)
                robin = reflect_robin_circle(v, data, zero_one, p, verify_numeric=True)
                assert _reflected(lambda: neumann) == _reflected(lambda: robin)
                assert (neumann.formula, robin.formula) == ("neumann_circle", "robin_circle")


def test_robin_with_a_zero_builds_no_primitive_of_w(monkeypatch):
    built = []
    primitive = LogLaurentExpr.antiderivative_over_arg

    def counting(self):
        built.append(self)
        return primitive(self)

    monkeypatch.setattr(LogLaurentExpr, "antiderivative_over_arg", counting)
    w = HarmonicPair(LogLaurentExpr([(0.5, 0, 1), (0.3, 2, 0), (0.2j, -1, 1)]))
    phi = BivariateLaurentExpr.constant(1.0)
    for p in (BiPoint.from_polar(0.8, 0.4), BiPoint.from_polar(1.6, -2.0)):
        reflect_robin_circle(w, phi, RobinParams(0.0, 2.0), p)
    assert built and not [e for e in built if e is w.part_z]
    # so no ray of its own is rejected: next to the cut, eval_pair raises
    p = BiPoint.from_polar(0.8, math.pi - 1e-7)
    with pytest.raises(CutProximityError, match="point at angle"):
        reflect_robin_circle(w, phi, RobinParams(0.0, 2.0), p)


# -- Schwarz-arc Neumann --------------------------------------------------------------


def test_schwarz_reduces_to_circle():
    rng = np.random.default_rng(58)
    u = random_symmetric_laurent(rng)
    phi = laurent_pair_trace(u)
    v = neumann_from_dirichlet_pair(u)
    for _ in range(20):
        p = BiPoint.from_polar(float(rng.uniform(0.6, 0.95)), float(rng.uniform(-2, 2)))
        arc = reflect_neumann_schwarz(v, phi, UNIT, p)
        circle = reflect_neumann_circle(v, phi, p)
        assert abs(arc.value - circle.value) < 1e-9
        assert abs(arc.correction - circle.correction) < 1e-9


def test_schwarz_zero_data_is_exact():
    rng = np.random.default_rng(59)
    v = random_symmetric_laurent(rng)
    p = BiPoint.from_polar(0.8, 1.0)
    res = reflect_neumann_schwarz(v, BivariateLaurentExpr.zero(), UNIT, p)
    assert res.correction == 0j
    assert abs(res.value - eval_pair(v, p)) < 1e-14


def test_schwarz_scaled_circle_constant_data():
    # data C on |z| = 2: correction is -2C log(r^2/4), twice the naive
    # rescaling guess because Neumann data scales with the radius; verified
    # here against the unit-circle formula after pulling the field back
    big = SchwarzMap.circle(0j, 2.0)
    C = 0.9
    v_big = HarmonicPair.symmetric(LogLaurentExpr([(C, 0, 1), (-C * math.log(2.0), 0, 0)]))
    phi = BivariateLaurentExpr.constant(C)
    for r, th in ((1.5, 0.4), (1.7, -1.0)):
        p = BiPoint.from_polar(r, th)
        res = reflect_neumann_schwarz(v_big, phi, big, p)
        assert abs(res.correction - (-2.0 * C * math.log(r * r / 4.0))) < 1e-9
        # rescaling oracle: v'(z') = v(2 z') has unit-circle data 2C
        v_small = neumann_from_dirichlet_pair(HarmonicPair.constant(2.0 * C))
        small = reflect_neumann_circle(v_small, BivariateLaurentExpr.constant(2.0 * C),
                                       BiPoint.from_polar(r / 2.0, th))
        assert abs(res.correction - small.correction) < 1e-9


def test_schwarz_fixed_point_on_curve():
    p = BiPoint.from_polar(1.0, 0.3)
    res = reflect_neumann_schwarz(SADDLE, laurent_pair_trace(SADDLE), UNIT, p)
    assert abs(res.correction) < 1e-11
    assert abs(res.value - eval_pair(SADDLE, p)) < 1e-11


@pytest.mark.parametrize(
    "smap, z",
    [
        (UNIT, cmath.exp(0.3j)),
        (SchwarzMap.circle(0.5 + 1j, 2.0), 0.5 + 1j + 2.0 * cmath.exp(0.5j)),
        (SchwarzMap.line(1.5 + 0.5j, 0.7), 1.5 + 0.5j + 1.25 * cmath.exp(0.7j)),
    ],
    ids=["unit-circle", "circle", "line"],
)
def test_schwarz_on_the_curve_runs_no_quadrature(no_quadrature, smap, z):
    # the reflected point is the point itself, so the correction is 0 and the
    # value is the field's own; |z| >= 1, so that a threshold 1e-13 (1 - |z|)
    # would be 0 or less and never take the shortcut
    p = BiPoint(z, smap.value(z))
    assert abs(z) >= 1.0 and abs(smap.inverse_value(p.zeta) - z) < 1e-15
    phi = BivariateLaurentExpr([(1.0, 2, 0), (0.5, 0, 1)])
    res = reflect_neumann_schwarz(SADDLE, phi, smap, p)
    assert res.correction == 0j
    assert res.value == eval_pair(SADDLE, p)


def test_schwarz_segment_through_pole_rejected():
    # an off-slice point whose reflected source sits across the origin, so
    # the integration segment passes through the pole of the map
    phi = BivariateLaurentExpr([(1.0, 2, 0)])
    p = BiPoint(1.0 + 0j, -2.0 + 0j)
    with pytest.raises(PoleError):
        reflect_neumann_schwarz(SADDLE, phi, UNIT, p)


def test_reflection_result_serialization():
    res = reflect_neumann_circle(
        SADDLE, laurent_pair_trace(SADDLE), BiPoint.from_polar(0.8, 0.2)
    )
    rec = res.to_json()
    assert rec["formula"] == "neumann_circle"
    assert set(rec) == {"formula", "point", "reflected", "value", "correction"}
    assert abs(rec["reflected"]["z"]["re"] - res.reflected_point.z.real) < 1e-15


def test_a_reflection_result_is_an_immutable_named_tuple():
    p, q = BiPoint(1 + 2j, 1 - 2j), BiPoint(0.5 + 0j, 0.5 + 0j)
    res = ReflectionResult(p, q, 1.5 + 0j, 0.25j, "dirichlet")
    for name in ("point", "reflected_point", "value", "correction", "formula", "other"):
        with pytest.raises(AttributeError):
            setattr(res, name, 0j)
    assert repr(res) == (
        "ReflectionResult(point=BiPoint(z=(1+2j), zeta=(1-2j)), "
        "reflected_point=BiPoint(z=(0.5+0j), zeta=(0.5+0j)), value=(1.5+0j), "
        "correction=0.25j, formula='dirichlet')"
    )
    assert res.to_json() == {
        "formula": "dirichlet",
        "point": {"z": {"re": 1.0, "im": 2.0}, "zeta": {"re": 1.0, "im": -2.0}},
        "reflected": {"z": {"re": 0.5, "im": 0.0}, "zeta": {"re": 0.5, "im": 0.0}},
        "value": {"re": 1.5, "im": 0.0},
        "correction": {"re": 0.0, "im": 0.25},
    }
    twin = ReflectionResult(
        point=p, reflected_point=q, value=1.5 + 0j, correction=0.25j, formula="dirichlet"
    )
    assert res == twin and hash(res) == hash(twin)
    assert res != ReflectionResult(p, q, 1.5 + 0j, 0.25j, "neumann_circle")
    # the tuple of its fields in order: it unpacks, has len 5 and equals
    # the plain tuple, as a BiPoint does
    point, reflected, value, correction, formula = res
    assert (point, reflected, value, correction, formula) == (p, q, 1.5 + 0j, 0.25j, "dirichlet")
    assert len(res) == 5 and res == (p, q, 1.5 + 0j, 0.25j, "dirichlet")


def _ray_coordinates_tested(p):
    """``_ray_coordinates`` with its tolerance test run at every point."""
    r = abs(p.z)
    if r == 0:
        raise DomainError("origin")
    theta = cmath.phase(p.z)
    if abs(p.zeta - r * cmath.exp(-1j * theta)) > 1e-9 * (1.0 + r):
        raise DomainError("off the slice")
    return r, theta


def test_a_point_exactly_on_the_slice_passes_the_ray_test_it_skips():
    # the test is skipped where zeta == conj(z), which passes it at every
    # scale, from subnormal to the top of the float range and at inf
    radii = (5e-324, 1e-310, 1e-300, 1e-12, 0.8, 1.0, 2.0, 1e150, 1e300, 1.7e308, math.inf)
    angles = (0.0, -0.0, 1e-300, 0.3, math.pi / 4, 2.0, math.pi, -math.pi, -1.0, -math.pi / 2)
    for r in radii:
        for th in angles:
            for z in (r * cmath.exp(1j * th), complex(r * math.cos(th), r * math.sin(th))):
                p = BiPoint(z, z.conjugate())
                assert outcome(lambda: _ray_coordinates(p)) == outcome(
                    lambda: _ray_coordinates_tested(p)
                ), p
    # off the slice the test runs: within 1e-9 (1 + r) it passes, beyond it
    # the point is rejected
    z = 0.7 * cmath.exp(0.4j)
    for zeta, accepted in ((z.conjugate() * (1 + 1e-12), True), (1.05 * z.conjugate(), False)):
        p = BiPoint(z, zeta)
        assert outcome(lambda: _ray_coordinates(p)) == outcome(lambda: _ray_coordinates_tested(p))
        assert (outcome(lambda: _ray_coordinates(p)) is DomainError) is not accepted


@pytest.mark.parametrize(
    "cut, z",
    [
        (math.pi, complex(-0.5, -0.0)),  # phase -pi, which folds to pi
        (math.pi, complex(-2.0, -0.0)),
        (2.0, 0.5 * cmath.exp(2.5j)),  # beyond the cut at 2.0: folds to 2.5 - 2 pi
        (2.0, 0.5 * cmath.exp(-2.5j)),  # inside the window: no fold
        (math.pi, 0.5 * cmath.exp(0.3j)),
    ],
)
def test_a_circle_reflection_takes_the_ray_changes_of_the_folded_ray(cut, z):
    # the reflection hands its e^{i theta} to the ray changes; where folding
    # theta into the cut's window moves it, they recompute it, so every value
    # is that of ray_change along the folded angle, e^{i theta} and all
    # complex coefficients, so that e^{i theta}'s imaginary part reaches both terms
    w = HarmonicPair(LogLaurentExpr([(0.5, 2, 0), (0.3 + 0.1j, 1, 0), (0.2j, -1, 0)], cut))
    phi = BivariateLaurentExpr([(1.0, 2, 0), (0.3 + 0.2j, 1, 0), (0.5, 0, 3), (0.25j, 1, 1)])
    params = RobinParams(0.7, 1.3)
    p = BiPoint(z, z.conjugate())
    r, theta = abs(z), _fold_angle(cmath.phase(z), cut)
    prim = phi.restrict_to_circle(cut).antiderivative_over_arg()
    data = prim.ray_change(theta, r) / params.b
    change = w.part_z.antiderivative_over_arg().ray_change(theta, r)
    value = eval_pair(w, p)
    value += -(params.a / params.b) * (2.0 * change.real)
    robin = reflect_robin_circle(w, phi, params, p)
    assert repr((robin.correction, robin.value)) == repr((data, value + data))
    neumann = reflect_neumann_circle(w, phi, p)
    assert repr(neumann.correction) == repr(prim.ray_change(theta, r) / 1.0)


# -- the mirrored route ----------------------------------------------------------

def _slice_points():
    for r in MIRROR_RADII:
        for th in MIRROR_THETAS:
            z = r * cmath.exp(1j * th)
            yield BiPoint(z, z.conjugate())


def _value_or_error(fn):
    """fn()'s value, or the type of what it raised."""
    try:
        return fn()
    except HarmoniaError as exc:
        return type(exc)


def _robin_self_scale(w, p):
    """Term magnitudes of w at p and of its primitives at both ends of the ray."""
    prims = HarmonicPair(w.part_z.antiderivative_over_arg())
    back = reflect_bipoint(UNIT, p)
    return sum(field_scale(h, q.z.real, q.z.imag) for h, q in ((w, p), (prims, p), (prims, back)))


def test_mirrored_robin_self_term_matches_the_two_part_sum():
    # against the sum of both sides restricted to the ray, then integrated
    rng = np.random.default_rng(144)
    no_data = BivariateLaurentExpr.zero()
    for _ in range(4):
        w = HarmonicPair.symmetric(seeded_expr(rng))
        params = RobinParams(float(rng.uniform(0.2, 2.0)), float(rng.uniform(-2.0, -0.2)))
        for p in _slice_points():
            got = _value_or_error(lambda: reflect_robin_circle(w, no_data, params, p).value)
            want = _value_or_error(lambda: _reference_robin(w, no_data, params, p))
            if isinstance(want, type):  # next to the cut, both routes refuse
                assert got is want
                continue
            assert got.imag == 0.0
            assert abs(got - want) <= 1e-13 * _robin_self_scale(w, p), (p, got, want)


def _two_part_robin(w, data, params, p):
    """reflect_robin_circle's value with the self term of both sides written
    out: f's primitive along the ray and g's along the conjugate ray."""
    r, theta = abs(p.z), cmath.phase(p.z)
    value = eval_pair(w, p)
    if r != 1.0:
        f, g = w.part_z, zeta_part(w.part_z)
        for part, angle in ((f, theta), (g, -theta)):
            if part.has_log() and cut_distance(angle, part.cut_angle) < CUT_MARGIN:
                raise CutProximityError("ray next to the cut")
        change = f.antiderivative_over_arg().ray_change(theta, r)
        change += g.antiderivative_over_arg().ray_change(-theta, r)
        value += -(params.a / params.b) * change
    return value + reflect_neumann_circle(w, data, p).correction / params.b


def test_other_robin_inputs_take_the_two_part_route_bit_for_bit():
    # on rotated cuts, and at points off the slice within the slice guard
    rng = np.random.default_rng(145)
    data = _random_bivariate_data(rng)
    params = RobinParams(0.7, 1.3)
    for _ in range(3):
        f = seeded_expr(rng)
        for cut in (2.0, 5.0, -1.0):
            w = HarmonicPair(f.with_cut_angle(cut))
            for p in _slice_points():
                assert outcome(lambda: reflect_robin_circle(w, data, params, p).value) == (
                    outcome(lambda: _two_part_robin(w, data, params, p))
                )
        # off the slice, with a log-free pair too
        sym = HarmonicPair(f)
        log_free = HarmonicPair(LogLaurentExpr([(t.coeff, t.power) for t in f.terms]))
        for r in MIRROR_RADII:
            for th in MIRROR_THETAS:
                off = BiPoint(r * cmath.exp(1j * th), r / cmath.exp(1j * th))
                for w in (sym, log_free):
                    assert outcome(lambda: reflect_robin_circle(w, data, params, off).value) == (
                        outcome(lambda: _two_part_robin(w, data, params, off))
                    )


def _two_part_arc_field(u, smap, p):
    """The arc field with the zeta side written out: the mirror g integrated
    against the inverse map's root from zeta to zeta0 = S(z0)."""
    z0 = complex(smap.default_base_point())
    zeta0 = smap.value(z0)

    def side(start, end, expr, branch_of):
        if abs(end - start) < 1e-13 * (1.0 + abs(end)):
            return 0j
        seg = PathSpec.segment(start, end)
        branch = branch_of(smap, seg)
        return integrate_path(lambda t: expr.eval(t) * branch(t), seg)

    iz = side(p.z, z0, u.part_z, sqrt_schwarz_derivative)
    izeta = side(p.zeta, zeta0, zeta_part(u.part_z), sqrt_inverse_schwarz_derivative)
    return 0.0 + 1j * iz - 1j * izeta


def test_mirrored_arc_field_matches_the_two_part_sum():
    rng = np.random.default_rng(146)
    path = PathSpec.segment(0.75 + 0j, 1.0 + 0j)
    u = HarmonicPair.symmetric(seeded_expr(rng))
    field = neumann_from_dirichlet_schwarz(u, UNIT, path, path)
    exact = neumann_from_dirichlet_pair(u)
    for p in _slice_points():
        got = _value_or_error(lambda: field.eval(p))
        want = _value_or_error(lambda: _two_part_arc_field(u, UNIT, p))
        if isinstance(want, type):  # a path the quadrature refuses, on either route
            assert got is want
            continue
        assert got.imag == 0.0
        assert abs(got - want) <= 1e-13 * field_scale(exact, p.z.real, p.z.imag)


def test_other_arc_field_inputs_take_the_two_part_route_bit_for_bit():
    # on a rotated cut, and at points off the slice
    rng = np.random.default_rng(147)
    path = PathSpec.segment(0.75 + 0j, 1.0 + 0j)
    f = seeded_expr(rng, n_terms=4)
    points = list(_slice_points())[::6]
    for u in (HarmonicPair(f), HarmonicPair(f.with_cut_angle(2.0))):
        field = neumann_from_dirichlet_schwarz(u, UNIT, path, path)
        for p in points:
            off = BiPoint(p.z, abs(p.z) / cmath.exp(1j * cmath.phase(p.z)))
            for x in (p, off, BiPoint(p.z, 1.05 * p.zeta)):
                assert outcome(lambda: field.eval(x)) == outcome(
                    lambda: _two_part_arc_field(u, UNIT, x)
                )


def test_a_reflection_result_pickles_and_copies():
    u = HarmonicPair.symmetric(LogLaurentExpr([(0.5, 2, 0), (0.2, 1, 1)]))
    v = neumann_from_dirichlet_pair(u)
    phi = BivariateLaurentExpr([(1.0, 1, 0)])
    result = reflect_neumann_circle(v, phi, BiPoint.from_polar(0.5, 0.3))
    for back in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result), copy.copy(result)):
        assert back == result and repr(back) == repr(result) and back.to_json() == result.to_json()
    assert pickle.loads(pickle.dumps(v)) == v


# -- integrand kernels ---------------------------------------------------------


def _kind(fn):
    """fn()'s value to the bit (repr), or the type of what it raised."""
    try:
        return repr(fn())
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _kernel_kind(fn):
    """``_kind``, but a value that is not finite reads as ``RangeError``.  A
    kernel does not test its total where ``eval`` raises that error for it,
    so a kernel and its reference agree on this reading."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return repr(value) if cmath.isfinite(value) else RangeError


def _seeded_arc_data(rng, mirrored):
    """Two to four terms with powers in -3..3 and one mixed term; with
    ``mirrored``, each joined by its conjugate mirror."""
    terms = [(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
              int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
             for _ in range(int(rng.integers(2, 5)))]
    terms.append((complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                  int(rng.choice([-2, -1, 1, 2])), int(rng.choice([-2, -1, 1, 2]))))
    if mirrored:
        terms += [(c.conjugate(), kzeta, kz) for c, kz, kzeta in terms]
    phi = BivariateLaurentExpr(terms)
    assert phi.mirrored == mirrored
    return phi


def _both_sides(smap):
    """Points off the curve on either side of it, 0.3 and 0.4 away (in radii
    on a circle)."""
    scale = smap.radius if smap.kind == "circle" else 1.0
    for q in smap.curve_points(5):
        n = smap.outward_normal(q)
        for delta in (-0.3, 0.4):
            yield q + delta * scale * n


def _schwarz_reference(phi, smap, branch):
    return lambda t: phi.eval(t, smap.value(t)) * branch(t)


@pytest.mark.parametrize("mirrored", [True, False])
@pytest.mark.parametrize("smap", _SUITE_MAPS, ids=["unit", "offcentre", "line"])
def test_the_schwarz_kernel_is_the_integrand_node_by_node(smap, mirrored):
    rng = np.random.default_rng(3301 + mirrored)
    nodes_seen = 0
    for _ in range(8):
        phi = _seeded_arc_data(rng, mirrored)
        for z in _both_sides(smap):
            p = BiPoint(z, z.conjugate())
            seg = PathSpec.segment(reflect_bipoint(smap, p).z, z)
            branch = sqrt_schwarz_derivative(smap, seg)
            reference = _schwarz_reference(phi, smap, branch)
            kernel = phi.schwarz_kernel(smap.form, branch.scale, branch.pole)
            nodes = []
            want = integrate_path(lambda t: nodes.append(t) or reference(t), seg)
            for t in nodes:
                got, node_want = kernel(t), reference(t)
                assert got == node_want and repr(got) == repr(node_want)
            assert repr(integrate_path(kernel, seg)) == repr(want)
            assert repr(reflect_neumann_schwarz(SADDLE, phi, smap, p).correction) == repr(1j * want)
            nodes_seen += len(nodes)
    assert nodes_seen >= 8 * 10 * 60


@pytest.mark.parametrize("smap", _SUITE_MAPS[:2], ids=["unit", "offcentre"])
def test_the_schwarz_kernel_raises_as_the_integrand_at_the_pole(smap):
    phi = BivariateLaurentExpr([(1.0, 2, 0), (0.5 - 0.25j, -1, 1)])
    branch = sqrt_schwarz_derivative(smap, PathSpec.segment(smap.pole + 3.0, smap.pole + 4.0))
    reference = _schwarz_reference(phi, smap, branch)
    kernel = phi.schwarz_kernel(smap.form, branch.scale, branch.pole)
    for fn in (reference, kernel):
        with pytest.raises(PoleError, match=re.escape(f"Schwarz map has a pole at {smap.pole}")):
            fn(smap.pole)
    # a segment through the pole; on the unit circle a node falls on it
    seg = PathSpec.segment(smap.pole - 1.0, smap.pole + 7.0)
    assert _kind(lambda: integrate_path(kernel, seg)) == _kind(
        lambda: integrate_path(reference, seg)
    )
    if smap.pole == 0:
        with pytest.raises(PoleError):
            integrate_path(kernel, seg)


@pytest.mark.parametrize("smap", _SUITE_MAPS, ids=["unit", "offcentre", "line"])
def test_the_schwarz_kernel_raises_as_the_integrand_at_zero(smap):
    branch = sqrt_schwarz_derivative(smap, PathSpec.segment(2.5 + 2.5j, 3.0 + 3.0j))
    for terms in ([(1.0, -2, 0), (2.0, 1, 1)], [(1.0, 0, -2)], [(1.0, 1, -1), (0.5j, 0, 0)]):
        phi = BivariateLaurentExpr(terms)
        reference = _schwarz_reference(phi, smap, branch)
        kernel = phi.schwarz_kernel(smap.form, branch.scale, branch.pole)
        # t = 0, where S(t) = 0 (none on the unit circle), and points where a
        # negative power of t or of S(t) underflows
        points = [0j, 1e-200 + 0j, 1e300 + 0j] + ([smap.inverse_value(0j)] if smap.pole else [])
        for t in points:
            assert _kernel_kind(lambda: kernel(t)) == _kernel_kind(lambda: reference(t))
    phi = BivariateLaurentExpr([(1.0, -1, 0)])
    kernel = phi.schwarz_kernel(smap.form, branch.scale, branch.pole)
    with pytest.raises(PoleError if smap.pole == 0 else DomainError):
        kernel(0j)


def _ray_reference(phi, ez):
    return lambda t: phi.eval(t * ez, 1.0 / (t * ez)) / t


@pytest.mark.parametrize("mirrored", [True, False])
def test_the_ray_kernel_is_the_shadow_integrand_node_by_node(mirrored):
    rng = np.random.default_rng(3303 + mirrored)
    for _ in range(12):
        phi = _seeded_arc_data(rng, mirrored)
        for theta in (-2.9, -0.4, 0.0, 1.3, math.pi):
            ez = cmath.exp(1j * theta)
            reference, kernel = _ray_reference(phi, ez), phi.ray_kernel(ez)
            for r in (0.3, 0.8, 1.7):
                path = PathSpec.radial_ray(0.0, 1.0 / r, r)
                nodes = []
                want = integrate_path(lambda t: nodes.append(t) or reference(t), path)
                assert len(nodes) >= 60
                for t in nodes:
                    assert repr(kernel(t)) == repr(reference(t))
                assert repr(integrate_path(kernel, path)) == repr(want)


def test_the_ray_kernel_raises_as_the_shadow_integrand():
    for terms in ([(1.0, -1, 0)], [(1.0, 0, -3), (2.0, 1, 1)], [(1.0, -2, 2)]):
        phi = BivariateLaurentExpr(terms)
        for ez in (cmath.exp(0.7j), cmath.exp(0.25j * math.pi)):
            reference, kernel = _ray_reference(phi, ez), phi.ray_kernel(ez)
            # t = 0 divides by zero; at t = 1e300 zeta**-3 underflows; at
            # t = 1e-200 z**-1 does not, z**-2 does; at t = 1.7e308 on the
            # diagonal 1/z is 0, the sum of the parts in its divisor overflowing
            for t in (0j, 1e300 + 0j, 1e-200 + 0j, 1e-160 + 0j, 1.7e308 + 0j):
                assert _kernel_kind(lambda: kernel(t)) == _kernel_kind(lambda: reference(t))
    diagonal = cmath.exp(0.25j * math.pi)
    with pytest.raises(ZeroDivisionError):
        BivariateLaurentExpr([(1.0, -1, 0)]).ray_kernel(diagonal)(0j)
    with pytest.raises(DomainError, match="negative power evaluated at 0"):
        BivariateLaurentExpr([(1.0, 0, -1)]).ray_kernel(diagonal)(1.7e308 + 0j)


def test_each_expression_keeps_its_own_kernel_terms():
    terms = [(1.0 + 0.5j, 2, -1), (0.25, 0, 1), (-1.0j, -1, 1)]
    phi = BivariateLaurentExpr(terms)
    ez = cmath.exp(0.3j)
    assert phi.ray_kernel(ez)(0.5 + 0j) == _ray_reference(phi, ez)(0.5 + 0j)
    twin = BivariateLaurentExpr(terms)
    assert twin._flat is None
    assert twin.ray_kernel(ez)(0.5 + 0j) == phi.ray_kernel(ez)(0.5 + 0j)
    assert twin._flat == phi._flat and twin._flat is not phi._flat
    # a fresh expression often takes the id of one just freed: whatever its
    # id, its kernel reads its own terms
    rng = np.random.default_rng(3305)
    smap = _SUITE_MAPS[1]
    branch = sqrt_schwarz_derivative(smap, PathSpec.segment(2.5 + 2.5j, 3.0 + 3.0j))
    for _ in range(50):
        phi = _seeded_arc_data(rng, bool(rng.integers(0, 2)))
        t = complex(rng.uniform(1, 2), rng.uniform(1, 2))
        assert phi.ray_kernel(ez)(t) == _ray_reference(phi, ez)(t)
        kernel = phi.schwarz_kernel(smap.form, branch.scale, branch.pole)
        assert kernel(t) == _schwarz_reference(phi, smap, branch)(t)
        del phi, kernel


def test_a_robin_reflection_whose_negative_powers_underflow_raises_domain_error():
    w = HarmonicPair(LogLaurentExpr.monomial(0.5, 2))
    phi = BivariateLaurentExpr([(1.5, 2, 0), (1.5, 0, 2)])
    p = BiPoint.from_polar(1e-300, -1.0)
    # a = 0 skips the self term, so the data term's z**-2 at r = 1e-300 raises
    with pytest.raises(PowerUnderflowError, match="on the ray from") as info:
        reflect_robin_circle(w, phi, RobinParams(0.0, 1.0), p)
    assert isinstance(info.value, DomainError)
    # with a != 0 the self term comes first: at 1/r = 1e300 both parts of
    # its z**2 overflow, to NaN, which raises rather than reaching the value
    with pytest.raises(RangeError, match="the sum on the ray from"):
        reflect_robin_circle(w, phi, RobinParams(1.0, 1.0), p)
