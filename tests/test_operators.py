import cmath
import math
import re

import numpy as np
import pytest

import harmonia.operators
from harmonia.algebra import LogLaurentExpr
from harmonia.errors import (
    BranchPointOnPathError,
    DomainError,
    NonzeroMeanError,
    ResonanceError,
)
from harmonia.geometry import BiPoint, PathSpec, SchwarzMap
from harmonia.harmonic import (
    HarmonicPair,
    RobinParams,
    eval_pair,
    eval_real,
    field_scale,
    radial_derivative,
    robin_trace_circle,
)
from harmonia.numerics import TrigPolynomial, fd_laplacian, fourier_neumann_oracle
from harmonia.operators import (
    ArcNeumannField,
    dirichlet_from_robin_pair,
    neumann_from_dirichlet_disk,
    neumann_from_dirichlet_pair,
    neumann_from_dirichlet_schwarz,
    neumann_from_robin_pair,
    solve_robin_analytic,
)
from mirror_helpers import seeded_expr

CONSTANT = HarmonicPair.constant(1.0)
LOG_RADIAL = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 0, 1))
SADDLE = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 2))
LINEAR = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 1))

GRID = [(r, th) for r in np.linspace(0.6, 1.4, 10) for th in np.linspace(-2.0, 2.0, 10)]


def pinned(field_fn):
    base = field_fn(1.0, 0.0)
    return lambda r, th: field_fn(r, th) - base


def max_grid_residual(computed, expected_fn):
    got = pinned(lambda r, th: eval_real(computed, r * math.cos(th), r * math.sin(th)))
    want = pinned(expected_fn)
    return max(abs(got(r, th) - want(r, th)) for r, th in GRID)


def symmetric_pair(rng, n_terms=4, kmax=3, allow_log=True):
    terms = [
        (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
         int(rng.integers(-kmax, kmax + 1)),
         int(rng.integers(0, 3)) if allow_log else 0)
        for _ in range(n_terms)
    ]
    return HarmonicPair.symmetric(LogLaurentExpr(terms))


def test_an_output_coefficient_whose_modulus_overflows_is_named():
    # |c| = 1.41e308 is in range; the Robin-to-Neumann output holds (b/2) c = 1.5 c
    big = complex(1e308, 1e308)
    w = HarmonicPair.symmetric(LogLaurentExpr([(big, 2), (1.0, 1)]))
    message = f"coefficient {big * complex(1.5)!r} has a modulus beyond the float range"
    with pytest.raises(ValueError, match=re.escape(message)):
        neumann_from_robin_pair(w, RobinParams(1.0, 3.0))


def test_builders_keep_the_mirror():
    # an output is built from the input's z-part alone, and the record it
    # writes holds the mirror that the reader requires, on every cut
    rng = np.random.default_rng(148)
    for _ in range(40):
        w = HarmonicPair.symmetric(seeded_expr(rng, int(rng.integers(1, 7)), max_logpow=4))
        params = RobinParams(float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 2)))
        rng.integers(0, 3)  # discarded: the inputs drawn after it depend on this stream position
        for build in (
            neumann_from_dirichlet_pair,
            lambda u: neumann_from_robin_pair(u, params),
            lambda u: dirichlet_from_robin_pair(u, params),
        ):
            for cut in (math.pi, 2.0):
                got = build(HarmonicPair(w.part_z.with_cut_angle(cut)))
                assert [fld for fld in vars(got)] == ["part_z"]
                assert HarmonicPair.from_json(got.to_json(), cut) == got


# -- Dirichlet -> Neumann, exact pair form ------------------------------------


def test_dtn_constant_trace_gives_log_field():
    v = neumann_from_dirichlet_pair(HarmonicPair.constant(3.0))
    assert max_grid_residual(v, lambda r, th: 3.0 * math.log(r)) < 1e-10


def test_dtn_log_trace_gives_squared_log_field():
    # exact integration gives (1/2)(log^2 r - theta^2); see the ledger for
    # the half-scale variant that circulates for this case
    v = neumann_from_dirichlet_pair(LOG_RADIAL)
    assert max_grid_residual(v, lambda r, th: 0.5 * (math.log(r) ** 2 - th * th)) < 1e-10


def test_dtn_saddle_trace():
    v = neumann_from_dirichlet_pair(SADDLE)
    assert (
        max_grid_residual(
            v, lambda r, th: 0.5 * (r * r) * math.cos(2 * th)
        )
        < 1e-10
    )


def test_dtn_linear_trace():
    v = neumann_from_dirichlet_pair(LINEAR)
    assert max_grid_residual(v, lambda r, th: r * math.cos(th)) < 1e-10


def test_dtn_base_point_normalization():
    # the constant is pinned to 0 at (z, zeta) = (1, 1) on every cut: read
    # from the coefficients on the cut at pi, evaluated on the others (at
    # -1.0, log 1 = -2 pi i)
    base = BiPoint(1 + 0j, 1 + 0j)
    for u in (SADDLE, LOG_RADIAL):
        for cut in (math.pi, 2.0, -1.0):
            v = neumann_from_dirichlet_pair(HarmonicPair(u.part_z.with_cut_angle(cut)))
            assert eval_pair(v, base) == 0


def test_dtn_boundary_recovery_property():
    rng = np.random.default_rng(41)
    for _ in range(10):
        u = symmetric_pair(rng, n_terms=8)
        v = neumann_from_dirichlet_pair(u)
        for th in np.linspace(-2.0, 2.0, 32):
            trace = eval_pair(u, BiPoint.from_polar(1.0, float(th)))
            assert abs(radial_derivative(v, 1.0, float(th)) - trace) < 1e-10


def test_dtn_output_is_harmonic():
    rng = np.random.default_rng(42)
    u = symmetric_pair(rng)
    v = neumann_from_dirichlet_pair(u)
    field = lambda x, y: eval_real(v, x, y)
    for r, th in ((0.8, 0.3), (1.2, -1.5), (1.0, 1.9)):
        x, y = r * math.cos(th), r * math.sin(th)
        assert abs(fd_laplacian(field, x, y, 1e-4)) / field_scale(v, x, y) < 1e-5


# -- Robin -> Neumann ----------------------------------------------------------


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, -1.0), (0.5, 3.0)])
def test_rtn_log_solution(a, b):
    v = neumann_from_robin_pair(LOG_RADIAL, RobinParams(a, b))
    expected = lambda r, th: 0.5 * b * math.log(r) + 0.25 * a * (math.log(r) ** 2 - th * th)
    assert max_grid_residual(v, expected) < 1e-10


def test_rtn_zero_solution():
    v = neumann_from_robin_pair(HarmonicPair.constant(0.0), RobinParams(1.0, 2.0))
    vals = [eval_real(v, r * math.cos(th), r * math.sin(th)) for r, th in GRID[:10]]
    assert max(abs(x - vals[0]) for x in vals) < 1e-14


def test_rtn_pure_scaling_when_a_zero():
    b = 2.0
    v = neumann_from_robin_pair(SADDLE, RobinParams(0.0, b))
    assert max_grid_residual(v, lambda r, th: 0.5 * b * r * r * math.cos(2 * th)) < 1e-10
    # boundary-condition oracle: dv/dr at r=1 equals half the Robin trace
    for th in (-1.0, 0.4):
        assert abs(radial_derivative(v, 1.0, th) - b * math.cos(2 * th)) < 1e-12


def test_rtn_boundary_recovery_property():
    rng = np.random.default_rng(43)
    for a, b in ((1.0, 1.0), (2.0, -1.0), (0.5, 3.0)):
        params = RobinParams(a, b)
        for _ in range(4):
            w = symmetric_pair(rng, n_terms=6)
            v = neumann_from_robin_pair(w, params)
            for th in np.linspace(-2.0, 2.0, 32):
                target = 0.5 * robin_trace_circle(w, params, float(th))
                assert abs(radial_derivative(v, 1.0, float(th)) - target) < 1e-10


# -- Dirichlet from Robin -------------------------------------------------------


def test_dfr_log_solution():
    a, b = 1.3, -0.6
    u = dirichlet_from_robin_pair(LOG_RADIAL, RobinParams(a, b))
    for r, th in ((0.7, 0.2), (1.2, -1.0)):
        expected = 0.5 * a * math.log(r) + 0.5 * b
        assert abs(eval_real(u, r * math.cos(th), r * math.sin(th)) - expected) < 1e-13


def test_dfr_saddle_solution():
    a, b = 0.8, 1.1
    u = dirichlet_from_robin_pair(SADDLE, RobinParams(a, b))
    expected = HarmonicPair.symmetric(LogLaurentExpr.monomial((a + 2 * b) / 4.0, 2))
    assert (u.part_z - expected.part_z).is_zero()


def test_dfr_zero():
    u = dirichlet_from_robin_pair(HarmonicPair.constant(0.0), RobinParams(2.0, 1.0))
    assert u.part_z.is_zero()


def test_dfr_trace_is_half_robin_trace():
    rng = np.random.default_rng(44)
    params = RobinParams(1.7, 0.9)
    for _ in range(5):
        w = symmetric_pair(rng)
        u = dirichlet_from_robin_pair(w, params)
        for th in (-1.2, 0.0, 0.8):
            lhs = eval_pair(u, BiPoint.from_polar(1.0, th))
            assert abs(lhs - 0.5 * robin_trace_circle(w, params, th)) < 1e-11


def test_corollary_chain_is_constant_field():
    rng = np.random.default_rng(45)
    for _ in range(20):
        params = RobinParams(float(rng.uniform(-2, 2)), float(rng.choice([1.0, -1.0, 3.0])))
        w = symmetric_pair(rng, n_terms=5)
        chain = neumann_from_dirichlet_pair(dirichlet_from_robin_pair(w, params))
        direct = neumann_from_robin_pair(w, params)
        diffs = [
            eval_real(chain, r * math.cos(th), r * math.sin(th))
            - eval_real(direct, r * math.cos(th), r * math.sin(th))
            for r in np.linspace(0.7, 1.3, 5)
            for th in np.linspace(-1.8, 1.8, 5)
        ]
        assert float(np.var(diffs)) < 1e-18


# -- termwise Robin ODE ----------------------------------------------------------


def ode_residual(h, f, g, params):
    zmul = LogLaurentExpr.monomial(1.0, 1)
    rhs = zmul * f.differentiate() + g
    return params.a * h + params.b * (zmul * h.differentiate()) - rhs


def test_solve_robin_constant_rhs():
    f = LogLaurentExpr()
    g = LogLaurentExpr.constant(3.0)
    h = solve_robin_analytic(f, g, RobinParams(1.5, 1.0))
    assert (h - LogLaurentExpr.constant(2.0)).is_zero()


def test_solve_robin_resonant_term():
    # a + b k = 0 at k = 2: the solution picks up a log factor c/b
    params = RobinParams(-2.0, 1.0)
    g = LogLaurentExpr.monomial(3.0, 2)
    h = solve_robin_analytic(LogLaurentExpr(), g, params)
    assert (h - LogLaurentExpr.monomial(3.0, 2, 1)).is_zero()
    assert ode_residual(h, LogLaurentExpr(), g, params).is_zero()


def test_solve_robin_quadratic_inputs():
    # f = g = z^2/2 gives rhs = (3/2) z^2, so z h' = (3/2) z^2 at a=0, b=1
    f = g = LogLaurentExpr.monomial(0.5, 2)
    params = RobinParams(0.0, 1.0)
    h = solve_robin_analytic(f, g, params)
    assert (h - LogLaurentExpr.monomial(0.75, 2)).is_zero()
    assert ode_residual(h, f, g, params).is_zero()


def test_solve_robin_identity_property():
    rng = np.random.default_rng(46)
    for a, b in ((1.0, 1.0), (2.0, -1.0), (0.5, 3.0)):
        params = RobinParams(a, b)
        for _ in range(10):
            f = 0.5 * LogLaurentExpr(
                [
                    (complex(rng.uniform(-1, 1)), int(rng.integers(-4, 5)), int(rng.integers(0, 2)))
                    for _ in range(3)
                ]
            )
            g = 0.5 * LogLaurentExpr(
                [
                    (complex(rng.uniform(-1, 1)), int(rng.integers(-4, 5)), int(rng.integers(0, 2)))
                    for _ in range(3)
                ]
            )
            assert ode_residual(solve_robin_analytic(f, g, params), f, g, params).is_zero()


def test_solve_robin_log_squared_rhs_relative():
    # (a, b) = (0.5, 3) at k = 0 amplifies rounding as (b/s)^2; assert the
    # identity holds relative to the amplified coefficients
    params = RobinParams(0.5, 3.0)
    g = LogLaurentExpr.monomial(1.0, 0, 2)
    h = solve_robin_analytic(LogLaurentExpr(), g, params)
    residual = ode_residual(h, LogLaurentExpr(), g, params)
    amplitude = max(abs(t.coeff) for t in h.terms)
    worst = max((abs(t.coeff) for t in residual.terms), default=0.0)
    assert worst <= 1e-14 * max(1.0, amplitude)


def test_solve_robin_near_resonance_rejected():
    params = RobinParams(1.0 + 1e-13, -1.0)
    with pytest.raises(ResonanceError):
        solve_robin_analytic(LogLaurentExpr(), LogLaurentExpr.monomial(1.0, 1), params)


# -- disk operator ---------------------------------------------------------------


def test_disk_operator_cos2():
    trig = TrigPolynomial((0.0, 0.0, 1.0), (0.0,))
    for r, th in ((0.3, 0.0), (0.9, 1.4), (1.0, -0.8)):
        z = r * cmath.exp(1j * th)
        assert abs(neumann_from_dirichlet_disk(trig, z) - 0.5 * r * r * math.cos(2 * th)) < 1e-10


def test_disk_operator_cos1():
    trig = TrigPolynomial((0.0, 1.0), (0.0,))
    z = 0.6 * cmath.exp(0.5j)
    assert abs(neumann_from_dirichlet_disk(trig, z) - 0.6 * math.cos(0.5)) < 1e-10


def test_disk_operator_zero_and_origin():
    assert neumann_from_dirichlet_disk(TrigPolynomial((0.0,), (0.0,)), 0.5 + 0.2j) == 0.0
    trig = TrigPolynomial((0.0, 0.0, 1.0), (0.0,))
    assert neumann_from_dirichlet_disk(trig, 0j) == 0.0


def test_disk_operator_rejects_nonzero_mean():
    with pytest.raises(NonzeroMeanError):
        neumann_from_dirichlet_disk(TrigPolynomial((1.0,), (0.0,)), 0.5 + 0j)


def test_disk_operator_takes_an_accepted_mean_as_zero():
    # a mean inside the 1e-10 solvability tolerance is dropped, as the
    # Fourier oracle drops it; its term mean/rho has no radial integral
    for mean in (1e-12, -5e-11, 1e-10):
        trig = TrigPolynomial((mean, 1.0, 0.3), (0.0, -0.4))
        for z in (0.5 + 0j, 0.2 - 0.7j):
            want = fourier_neumann_oracle(trig, abs(z), cmath.phase(z))
            assert abs(neumann_from_dirichlet_disk(trig, z) - want) < 1e-14, (mean, z)


def test_disk_operator_rejects_outside_disk():
    trig = TrigPolynomial((0.0, 1.0), (0.0,))
    with pytest.raises(DomainError):
        neumann_from_dirichlet_disk(trig, 1.5 + 0j)


def test_disk_operator_matches_fourier_oracle():
    rng = np.random.default_rng(47)
    for _ in range(3):
        cos = (0.0,) + tuple(rng.uniform(-1, 1, size=6))
        sin = (0.0,) + tuple(rng.uniform(-1, 1, size=6))
        trig = TrigPolynomial(cos, sin)
        for _ in range(17):
            r = float(rng.uniform(0.0, 1.0))
            th = float(rng.uniform(-math.pi + 0.1, math.pi - 0.1))
            z = r * cmath.exp(1j * th)
            assert abs(
                neumann_from_dirichlet_disk(trig, z) - fourier_neumann_oracle(trig, r, th)
            ) < 1e-8


def test_the_disk_radial_integral_is_one_gauss_kronrod_pass_off_the_origin(monkeypatch):
    # data of degree 6, as the suite draws, make U(rho z)/rho a polynomial of
    # degree 5, which 4 panels of 15 nodes integrate at once; the nodes are
    # interior, so rho = 0, where U/rho is 0/0, is never sampled
    radii = []
    integrate = harmonia.operators.integrate_path

    def counted(f, path):
        return integrate(lambda rho: radii.append(rho) or f(rho), path)

    monkeypatch.setattr(harmonia.operators, "integrate_path", counted)
    trig = TrigPolynomial((0.0, 0.4, -0.3, 0.2, 0.1, -0.7, 0.5), (0.0, -0.2, 0.6, 0.3, -0.1, 0.2, 0.8))
    for z in (0.05 + 0j, 0.5 + 0.2j, -0.9j, 1.0 + 0j):
        radii.clear()
        v = neumann_from_dirichlet_disk(trig, z)
        assert len(radii) == 60, z
        assert all(0.0 < rho.real < 1.0 and rho.imag == 0.0 for rho in radii), z
        assert abs(v - fourier_neumann_oracle(trig, abs(z), cmath.phase(z))) < 1e-14, z


# -- Schwarz-arc generalization ----------------------------------------------------


def _on_slice(x: float, y: float) -> BiPoint:
    z = complex(x, y)
    return BiPoint(z, z.conjugate())


def test_arc_operator_reduces_to_circle():
    rng = np.random.default_rng(48)
    smap = SchwarzMap.unit_circle()
    u = symmetric_pair(rng, allow_log=False)
    exact = neumann_from_dirichlet_pair(u)
    path = PathSpec.segment(0.75 + 0j, 1.0 + 0j)
    field = neumann_from_dirichlet_schwarz(u, smap, path, path)
    for _ in range(20):
        p = BiPoint.from_polar(float(rng.uniform(0.6, 0.95)), float(rng.uniform(-2, 2)))
        assert abs(field.eval(p) - eval_real(exact, p.z.real, p.z.imag)) < 1e-9


def test_arc_operator_zero_input_is_constant():
    smap = SchwarzMap.unit_circle()
    path = PathSpec.segment(0.8 + 0j, 1.0 + 0j)
    field = neumann_from_dirichlet_schwarz(HarmonicPair.constant(0.0), smap, path, path)
    for p in (BiPoint.from_polar(0.7, 0.5), BiPoint.from_polar(0.9, -1.2)):
        assert abs(field.eval(p)) < 1e-12


def test_arc_operator_scaled_circle_constant_data():
    # constant data C on |z| = 2 gives v = 2 C log(r/2) + const, whose
    # outward normal derivative at the boundary is C
    smap = SchwarzMap.circle(0j, 2.0)
    C = 1.3
    path = PathSpec.segment(1.5 + 0j, 2.0 + 0j)
    field = neumann_from_dirichlet_schwarz(HarmonicPair.constant(C), smap, path, path)
    for r, th in ((1.5, 0.4), (1.8, -0.9)):
        assert abs(field.eval(BiPoint.from_polar(r, th)) - 2.0 * C * math.log(r / 2.0)) < 1e-9
    h = 1e-5
    fd = (field.eval(_on_slice(2.0 + h, 0.0)) - field.eval(_on_slice(2.0 - h, 0.0))).real / (2 * h)
    assert abs(fd - C) < 1e-6


def test_arc_operator_near_the_pole():
    # the segment from z to z0 = 1 passes ~0.0044 from the pole at 0, where
    # sqrt(S') = i/z turns by nearly pi; a sampled continuation lost track
    u = HarmonicPair.symmetric(LogLaurentExpr([(1.0, 1), (0.3, 2), (-0.2j, -1)]))
    path = PathSpec.segment(0.75 + 0j, 1.0 + 0j)
    field = neumann_from_dirichlet_schwarz(u, SchwarzMap.unit_circle(), path, path)
    z = -0.8 + 0.008j
    want = eval_real(neumann_from_dirichlet_pair(u), z.real, z.imag)
    assert abs(field.eval(BiPoint(z, z.conjugate())).real - want) < 1e-12
    # a segment 5.6e-9 or 5.6e-10 from the pole is refused by the branch's
    # relative check, with the same error type at either distance
    for y in (1e-8, 1e-9):
        with pytest.raises(BranchPointOnPathError):
            field.eval(_on_slice(-0.8, y))


@pytest.mark.parametrize(
    "smap",
    [SchwarzMap.unit_circle(), SchwarzMap.circle(0.5 + 1j, 2.0), SchwarzMap.line(1.5 + 0.5j, 0.7)],
    ids=["unit-circle", "circle", "line"],
)
@pytest.mark.parametrize("u", [SADDLE], ids=["mirrored"])
def test_arc_field_at_its_base_point_runs_no_quadrature(no_quadrature, smap, u):
    # both side integrals have zero length at the base point, and a length of
    # an ulp next to it, where the zeta side is off the slice; |z0|,
    # |zeta0| >= 1, so that a threshold 1e-13 (1 - |end|) would be 0 or less
    # and never take the shortcut
    field = ArcNeumannField(u, smap)
    z0, zeta0 = field.z0, field.zeta0
    assert abs(z0) >= 1.0 and abs(zeta0) >= 1.0
    next_z = complex(math.nextafter(z0.real, math.inf), z0.imag)
    next_zeta = complex(zeta0.real, math.nextafter(zeta0.imag, -math.inf))
    for z, zeta in ((next_z, next_zeta), (z0, zeta0)):
        assert field.eval(BiPoint(z, zeta)) == 0
    assert field(BiPoint(z0, z0.conjugate())) == 0


def test_arc_operator_validates_paths_and_base():
    smap = SchwarzMap.unit_circle()
    good = PathSpec.segment(0.8 + 0j, 1.0 + 0j)
    stray = PathSpec.segment(0.8 + 0j, 0.9 + 0j)
    with pytest.raises(ValueError):
        neumann_from_dirichlet_schwarz(CONSTANT, smap, stray, good)
    with pytest.raises(ValueError, match="path_zeta must terminate at the image of the base point"):
        neumann_from_dirichlet_schwarz(CONSTANT, smap, good, stray)


# -- the one-pass builders against the formulas they replace -------------------

def _zmul(e):
    """z times e, as an expression product on e's cut."""
    return LogLaurentExpr([(1.0, 1)], e.cut_angle) * e


def _pinned_reference(u, build, pin):
    """The pair operators as two-expression arithmetic: build the part, then
    add a constant expression that pins the value 0 at (1, 1)."""
    part_z = build(u.part_z)
    if pin:
        residual = 0.0 - 2.0 * part_z.eval(1 + 0j).real
        part_z = part_z + LogLaurentExpr([(residual / 2.0, 0, 0)], part_z.cut_angle)
    return HarmonicPair(part_z)


def _solve_robin_reference(f, g, params):
    """solve_robin_analytic restated: the Euler recurrence over the terms of
    z f' + g, read in their order of summation."""
    a, b = params.a, params.b
    acc = {}
    for (k, m), c in (_zmul(f.differentiate()) + g)._terms.items():
        s = a + b * k
        if s == 0.0:
            acc[k, m + 1] = acc.get((k, m + 1), 0j) + c / (b * (m + 1))
            continue
        for j in range(m, -1, -1):
            acc[k, j] = acc.get((k, j), 0j) + c / s
            c = -c * (b * j) / s
    return LogLaurentExpr(acc, f.cut_angle)


def _bits(e):
    """The terms of e in their order of summation, to the bit."""
    return [(key, c.real.hex(), c.imag.hex()) for key, c in e._terms.items()], e.cut_angle


def _assert_same_pair(got, want):
    assert _bits(got.part_z) == _bits(want.part_z)


def test_builders_equal_the_formulas_they_replace():
    rng = np.random.default_rng(191)
    for i in range(150):
        f = seeded_expr(rng, int(rng.integers(1, 12)), max_logpow=4)
        g = seeded_expr(rng, int(rng.integers(0, 8)), max_logpow=4)
        a, b = float(rng.uniform(-3, 3)), float(rng.choice([-1, 1]) * rng.uniform(0.2, 2))
        if i % 3 == 0:  # resonant: a + b k = 0 at a power of f
            a = -b * f.terms[0].power
        params = RobinParams(a, b)
        half_a, half_b = 0.5 * a, 0.5 * b
        pairs = (
            HarmonicPair.symmetric(f),  # the pin read from coefficients, at cut pi
            HarmonicPair.symmetric(f.with_cut_angle(2.0)),  # and evaluated at 1 on others
            HarmonicPair.symmetric(g.with_cut_angle(-1.0)),  # where log 1 = -2 pi i
        )
        for u in pairs:
            _assert_same_pair(
                neumann_from_dirichlet_pair(u),
                _pinned_reference(u, LogLaurentExpr.antiderivative_over_arg, True),
            )
            _assert_same_pair(
                neumann_from_robin_pair(u, params),
                _pinned_reference(
                    u, lambda p: p * half_b + p.antiderivative_over_arg() * half_a, True
                ),
            )
            _assert_same_pair(
                dirichlet_from_robin_pair(u, params),
                _pinned_reference(
                    u, lambda p: p * half_a + _zmul(p.differentiate()) * half_b, False
                ),
            )
        for rhs_g in (g, LogLaurentExpr()):
            got = solve_robin_analytic(f, rhs_g, params)
            assert _bits(got) == _bits(_solve_robin_reference(f, rhs_g, params))


def _pin_terms(rng):
    """Terms of log power 0 whose real parts cancel, or are zeros of either sign."""
    x = float(rng.uniform(-1, 1))
    k1, k2 = (int(k) for k in rng.integers(-6, 7, size=2))
    return [(complex(x, rng.uniform(-1, 1)), k1, 0), (complex(-x, 0.5), k2, 0),
            (complex(-0.0, 0.25), int(rng.integers(-6, 7)), 0), (complex(0.0, -1.0), 0, 1)]


def test_the_coefficient_pin_is_the_value_at_one():
    # on the cut at pi, 2 Re u1(1) read from the coefficients is what eval(1)
    # gives, to the bit and with the sign of a zero; the pinned outputs equal
    # those pinned through eval(1)
    rng = np.random.default_rng(2027)
    checked = 0
    for i in range(2000):
        f = seeded_expr(rng, int(rng.integers(0, 10)), max_logpow=3)
        if i % 4 == 0:
            f = LogLaurentExpr(list(f.terms) + _pin_terms(rng))
        a, b = float(rng.uniform(-3, 3)), float(rng.choice([-1, 1]) * rng.uniform(0.2, 2))
        u = HarmonicPair.symmetric(f)
        prim = f.antiderivative_over_arg()
        for part in (f, prim, f._scaled_sum(0.5 * b, prim, 0.5 * a)):
            assert part._real_at_one().hex() == part.eval(1 + 0j).real.hex(), part
            checked += 1
        _assert_same_pair(
            neumann_from_dirichlet_pair(u),
            _pinned_reference(u, LogLaurentExpr.antiderivative_over_arg, True),
        )
        _assert_same_pair(
            neumann_from_robin_pair(u, RobinParams(a, b)),
            _pinned_reference(
                u, lambda p: p * (0.5 * b) + p.antiderivative_over_arg() * (0.5 * a), True
            ),
        )
    assert checked == 6000


def test_the_primitive_is_the_robin_solve_at_a_zero_b_one():
    # z h' = g is a h + b z h' = z 0' + g at (a, b) = (0, 1): one solver
    # gives both, to the bit and in the same term order
    rng = np.random.default_rng(607)
    neumann = RobinParams(0.0, 1.0)
    for i in range(200):
        g = seeded_expr(rng, int(rng.integers(1, 12)), max_logpow=4)
        if not g.has_log():
            g = g + LogLaurentExpr.monomial(0.5 - 0.25j, int(rng.integers(-6, 7)), 2)
        if i % 2:
            g = g.with_cut_angle(2.0)
        got = solve_robin_analytic(LogLaurentExpr((), g.cut_angle), g, neumann)
        assert _bits(got) == _bits(g.antiderivative_over_arg())
