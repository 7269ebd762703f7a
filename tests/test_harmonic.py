import cmath
import copy
import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest

import harmonia.algebra
import harmonia.harmonic
from harmonia.algebra import LogLaurentExpr, _SparseSum
from harmonia.errors import CutProximityError, DomainError, NonSymmetricPairError
from harmonia.geometry import BiPoint, SchwarzMap
from harmonia.harmonic import (
    HarmonicPair,
    RobinParams,
    eval_pair,
    eval_real,
    field_scale,
    normal_derivative_schwarz,
    radial_derivative,
    robin_trace_circle,
)
from harmonia.numerics import fd_laplacian
from harmonia.operators import (
    dirichlet_from_robin_pair,
    neumann_from_dirichlet_pair,
    neumann_from_robin_pair,
    solve_robin_analytic,
)
from mirror_helpers import (
    MIRROR_RADII,
    MIRROR_THETAS,
    one_ulp_off,
    outcome,
    seeded_expr,
    two_part,
)

SADDLE = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 2))      # x^2 - y^2
LINEAR = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 1))      # x
LOG_RADIAL = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 0, 1))  # log r


def symmetric_pair(rng, n_terms=4):
    terms = [
        (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
         int(rng.integers(-3, 4)), int(rng.integers(0, 3)))
        for _ in range(n_terms)
    ]
    return HarmonicPair.symmetric(LogLaurentExpr(terms))


def test_eval_pair_saddle_at_real_slice():
    # (x, y) = (1, 1): x^2 - y^2 = 0
    assert abs(eval_pair(SADDLE, BiPoint(1 + 1j, 1 - 1j))) < 1e-15


def test_eval_pair_log_at_radius_e():
    p = BiPoint.from_polar(math.e, 0.3)
    assert abs(eval_pair(LOG_RADIAL, p) - 1.0) < 1e-14


def test_eval_pair_constant():
    c = HarmonicPair.constant(4.2)
    assert abs(eval_pair(c, BiPoint(2.0 + 1j, 0.5 - 3j)) - 4.2) < 1e-15


def test_eval_real_examples():
    assert abs(eval_real(SADDLE, 2.0, 1.0) - 3.0) < 1e-14
    assert abs(eval_real(LINEAR, 2.0, 1.0) - 2.0) < 1e-14
    assert abs(eval_real(LOG_RADIAL, 1.0, 0.0)) < 1e-15


def test_eval_real_rejects_non_symmetric():
    lopsided = HarmonicPair(LogLaurentExpr.monomial(1.0, 1), LogLaurentExpr())
    with pytest.raises(NonSymmetricPairError):
        eval_real(lopsided, 0.0, 1.0)
    with pytest.raises(DomainError):
        eval_real(SADDLE, 0.0, 0.0)


def fd_radial(h, r, theta, step=1e-6):
    def at(rr):
        return eval_real(h, rr * math.cos(theta), rr * math.sin(theta))

    return (at(r + step) - at(r - step)) / (2 * step)


def test_radial_derivative_examples():
    # saddle: finite differences as the oracle
    got = radial_derivative(SADDLE, 1.0, 0.0)
    assert abs(got - 2.0) < 1e-14
    assert abs(got - fd_radial(SADDLE, 1.0, 0.0)) < 1e-8
    for r, th in ((0.7, 0.4), (1.3, -1.1)):
        assert abs(radial_derivative(LOG_RADIAL, r, th) - 1.0 / r) < 1e-13
    assert abs(radial_derivative(HarmonicPair.constant(3.0), 1.1, 0.2)) < 1e-15


def test_radial_derivative_matches_fd_on_random_pairs():
    rng = np.random.default_rng(21)
    for _ in range(10):
        h = symmetric_pair(rng)
        r, th = float(rng.uniform(0.7, 1.3)), float(rng.uniform(-2, 2))
        assert abs(radial_derivative(h, r, th) - fd_radial(h, r, th)) < 1e-6


def test_normal_derivative_examples():
    unit = SchwarzMap.unit_circle()
    for th in (-1.0, 0.0, 0.7):
        z = cmath.exp(1j * th)
        assert abs(normal_derivative_schwarz(LOG_RADIAL, unit, z) - 1.0) < 1e-13
        got = normal_derivative_schwarz(SADDLE, unit, z)
        assert abs(got - 2.0 * math.cos(2 * th)) < 1e-13
    # u = y along the real axis with the upward normal
    upward = HarmonicPair(
        LogLaurentExpr.monomial(1.0 / 2j, 1), LogLaurentExpr.monomial(-1.0 / 2j, 1)
    )
    line = SchwarzMap.line(0j, 0.0)
    assert abs(normal_derivative_schwarz(upward, line, 3.0 + 0j) - 1.0) < 1e-14


def test_normal_derivative_rejects_off_curve():
    with pytest.raises(DomainError):
        normal_derivative_schwarz(SADDLE, SchwarzMap.unit_circle(), 0.5 + 0j)


def test_normal_matches_radial_on_unit_circle():
    rng = np.random.default_rng(22)
    unit = SchwarzMap.unit_circle()
    for _ in range(10):
        h = symmetric_pair(rng)
        th = float(rng.uniform(-2, 2))
        assert abs(
            normal_derivative_schwarz(h, unit, cmath.exp(1j * th))
            - radial_derivative(h, 1.0, th)
        ) < 1e-10


def test_robin_trace_examples():
    params = RobinParams(1.3, -0.7)
    for th in (-0.5, 0.2):
        assert abs(robin_trace_circle(LOG_RADIAL, params, th) - params.b) < 1e-13
        expected = (params.a + 2 * params.b) * math.cos(2 * th)
        assert abs(robin_trace_circle(SADDLE, params, th) - expected) < 1e-13
        assert abs(robin_trace_circle(HarmonicPair.constant(0.0), params, th)) < 1e-15


def test_robin_trace_linearity():
    rng = np.random.default_rng(23)
    params = RobinParams(0.8, 2.0)
    for _ in range(10):
        h1, h2 = symmetric_pair(rng), symmetric_pair(rng)
        th = float(rng.uniform(-2, 2))
        assert abs(
            robin_trace_circle(h1 + h2, params, th)
            - robin_trace_circle(h1, params, th)
            - robin_trace_circle(h2, params, th)
        ) < 1e-11


def test_robin_params_rejects_zero_b():
    with pytest.raises(ValueError):
        RobinParams(1.0, 0.0)


@pytest.mark.parametrize("a, b", [(math.inf, 1.0), (math.nan, 1.0), (1.0, -math.inf)])
def test_robin_params_rejects_non_finite(a, b):
    with pytest.raises(ValueError, match="finite"):
        RobinParams(a, b)


def test_pairs_are_harmonic_by_fd():
    rng = np.random.default_rng(24)
    h = 1e-4
    for _ in range(5):
        pair = symmetric_pair(rng)

        def field(x, y):
            return eval_real(pair, x, y)

        for r in np.linspace(0.75, 1.3, 5):
            for th in np.linspace(-2.0, 2.0, 5):
                x, y = r * math.cos(th), r * math.sin(th)
                assert abs(fd_laplacian(field, x, y, h)) / field_scale(pair, x, y) < 1e-5


def test_field_scale_takes_logs_on_the_parts_branch():
    # with the cut at 2.0, arg z = 2.5 - 2 pi on the branch, so |log z|^2 is
    # ~14.3 where the principal log gives ~6.3; the scale of a sum of terms
    # bounds the sum only if each term is measured as it is evaluated
    cut = 2.0
    part = LogLaurentExpr([(1.0, 0, 2)], cut)
    pair = HarmonicPair(part, LogLaurentExpr((), cut))
    z = 0.9 * cmath.exp(2.5j)
    term = abs(part.eval(z))
    assert term > 14.0
    assert field_scale(pair, z.real, z.imag) >= term
    # on the default cut the branch is the principal one
    default = HarmonicPair(part.with_cut_angle(math.pi), LogLaurentExpr())
    assert field_scale(default, z.real, z.imag) == pytest.approx(abs(cmath.log(z)) ** 2)


def test_field_scale_rejects_the_origin():
    with pytest.raises(DomainError, match="field scale at the origin"):
        field_scale(HarmonicPair.constant(1.0), 0.0, 0.0)


def test_pair_arithmetic_and_serialization():
    s = SADDLE + LINEAR + LINEAR - LOG_RADIAL
    assert abs(eval_real(s, 1.0, 0.5) - (eval_real(SADDLE, 1.0, 0.5)
                                          + 2 * eval_real(LINEAR, 1.0, 0.5)
                                          - eval_real(LOG_RADIAL, 1.0, 0.5))) < 1e-13
    back = HarmonicPair.from_json(s.to_json())
    assert (back.part_z - s.part_z).is_zero()
    assert (back.part_zeta - s.part_zeta).is_zero()


def test_pair_from_json_reads_its_record_once(monkeypatch):
    reads = []
    for module in (harmonia.algebra, harmonia.harmonic):
        def counting(value, shape, read=module.read):
            reads.append(shape)
            return read(value, shape)

        monkeypatch.setattr(module, "read", counting)
    rec = (SADDLE + LOG_RADIAL).to_json()
    back = HarmonicPair.from_json(rec, 2.0)
    assert len(reads) == 1
    assert back.to_json() == rec and back.part_zeta.cut_angle == 2.0


# -- the mirrored route ----------------------------------------------------------

def two_part_sum(h, z, zeta):
    return h.part_z.eval(z) + h.part_zeta.eval(zeta)


def two_part_real(h, x, y):
    """eval_real's two-part route, written out."""
    value = two_part_sum(h, complex(x, y), complex(x, -y))
    if abs(value.imag) > 1e-11 * max(1.0, abs(value)):
        raise NonSymmetricPairError("imaginary residue")
    return value.real


def two_part_radial(h, r, theta):
    ez = cmath.exp(1j * theta)
    return (
        h.part_z.differentiate().eval(r * ez) * ez
        + h.part_zeta.differentiate().eval(r / ez) / ez
    )


def test_mirrored_flag_is_derived_and_not_a_field():
    rng = np.random.default_rng(141)
    f = seeded_expr(rng)
    sym = HarmonicPair.symmetric(f)
    assert sym.mirrored
    # a pair not built by symmetric() compares its parts once
    assert HarmonicPair(f, f.conjugate_mirror()).mirrored
    assert HarmonicPair.constant(2.5).mirrored and HarmonicPair.constant(0.0).mirrored
    assert not one_ulp_off(sym).mirrored
    assert not HarmonicPair.symmetric(f.with_cut_angle(2.0)).mirrored
    assert not HarmonicPair(f, f).mirrored
    cleared = two_part(sym)
    assert cleared == sym and hash(cleared) == hash(sym)
    assert cleared.to_json() == sym.to_json()
    assert "mirrored" not in {fld.name for fld in dataclasses.fields(HarmonicPair)}


def test_mirrored_route_matches_the_two_part_sum():
    rng = np.random.default_rng(142)
    for _ in range(4):
        h = HarmonicPair.symmetric(seeded_expr(rng))
        d = HarmonicPair(h.part_z.differentiate(), h.part_zeta.differentiate())
        for r in MIRROR_RADII:
            for th in MIRROR_THETAS:
                z = r * cmath.exp(1j * th)
                x, y = z.real, z.imag
                scale = field_scale(h, x, y)
                want = two_part_sum(h, z, z.conjugate())
                got = eval_pair(h, BiPoint(z, z.conjugate()))
                assert got.imag == 0.0
                assert abs(got - want) <= 1e-13 * scale
                assert abs(eval_real(h, x, y) - want.real) <= 1e-13 * scale
                got_d = radial_derivative(h, r, th)
                assert got_d.imag == 0.0
                assert abs(got_d - two_part_radial(h, r, th)) <= 1e-13 * field_scale(d, x, y)


def test_other_inputs_take_the_two_part_route_bit_for_bit():
    rng = np.random.default_rng(143)
    for _ in range(3):
        f = seeded_expr(rng)
        sym = HarmonicPair.symmetric(f)
        ulp, cut2 = one_ulp_off(sym), HarmonicPair.symmetric(f.with_cut_angle(2.0))
        off_slice = 0
        for r in MIRROR_RADII:
            for th in MIRROR_THETAS:
                ez = cmath.exp(1j * th)
                z = r * ez
                x, y = z.real, z.imag
                for h in (ulp, cut2):
                    assert outcome(lambda: eval_pair(h, BiPoint(z, z.conjugate()))) == outcome(
                        lambda: two_part_sum(h, z, z.conjugate())
                    )
                    assert outcome(lambda: eval_real(h, x, y)) == outcome(
                        lambda: two_part_real(h, x, y)
                    )
                    assert outcome(lambda: radial_derivative(h, r, th)) == outcome(
                        lambda: two_part_radial(h, r, th)
                    )
                # r / e^{i theta} is conj(z) only up to rounding
                p = BiPoint(z, r / ez)
                off_slice += p.zeta != z.conjugate()
                assert outcome(lambda: eval_pair(sym, p)) == outcome(
                    lambda: two_part_sum(sym, p.z, p.zeta)
                )
        assert off_slice > 100


def test_mirrored_route_evaluates_the_z_part_only(monkeypatch):
    evaluated = []
    original = LogLaurentExpr.eval

    def eval_noting(expr, z, *args):
        evaluated.append(expr)
        return original(expr, z, *args)

    monkeypatch.setattr(LogLaurentExpr, "eval", eval_noting)
    h = HarmonicPair.symmetric(LogLaurentExpr([(0.3 - 0.2j, 2, 1), (1.1j, -1)]))
    z = 0.7 + 0.4j
    for call, n_parts in (
        (lambda: eval_pair(h, BiPoint(z, z.conjugate())), 1),
        (lambda: eval_real(h, z.real, z.imag), 1),
        (lambda: radial_derivative(h, 0.8, 0.5), 1),
        (lambda: eval_pair(h, BiPoint(z, z.conjugate() * (1 + 1e-15))), 2),
        (lambda: eval_pair(two_part(h), BiPoint(z, z.conjugate())), 2),
    ):
        evaluated.clear()
        call()
        assert len(evaluated) == n_parts


def two_part_normal(h, smap, z):
    """normal_derivative_schwarz's two-part formula, written out."""
    sqrt_sp = 1j / smap.outward_normal(z)
    sp = smap.derivative(z)
    d1 = h.part_z.differentiate().eval(z)
    d2 = h.part_zeta.differentiate().eval(smap.value(z))
    return (1j / sqrt_sp) * (d1 - d2 * sp)


# the suite's maps: the unit circle, an off-centre circle and a line
SUITE_MAPS = (SchwarzMap.unit_circle(), SchwarzMap.circle(0.3 - 0.2j, 1.7), SchwarzMap.line(0.5j, 0.3))


def test_mirrored_normal_derivative_matches_the_two_part_formula():
    rng = np.random.default_rng(148)
    checked = 0
    for smap in SUITE_MAPS:
        for _ in range(3):
            h = HarmonicPair.symmetric(seeded_expr(rng))
            d = HarmonicPair(h.part_z.differentiate(), h.part_zeta.differentiate())
            for z in smap.curve_points(72):
                try:
                    want = two_part_normal(h, smap, z)
                except CutProximityError:  # next to the cut, both routes refuse
                    with pytest.raises(CutProximityError):
                        normal_derivative_schwarz(h, smap, z)
                    continue
                got = normal_derivative_schwarz(h, smap, z)
                assert got.imag == 0.0
                assert abs(got - want) <= 1e-12 * field_scale(d, z.real, z.imag), (smap, z)
                checked += 1
    assert checked > 600


def test_other_pairs_keep_the_two_part_normal_derivative_bit_for_bit():
    rng = np.random.default_rng(149)
    for smap in SUITE_MAPS:
        f = seeded_expr(rng)
        sym = HarmonicPair.symmetric(f)
        pairs = (one_ulp_off(sym), HarmonicPair.symmetric(f.with_cut_angle(2.0)), two_part(sym))
        for h in pairs:
            assert not h.mirrored
            for z in smap.curve_points(72):
                assert outcome(lambda: normal_derivative_schwarz(h, smap, z)) == outcome(
                    lambda: two_part_normal(h, smap, z)
                )


def test_mirrored_normal_derivative_reads_no_zeta_part_and_no_s_prime(monkeypatch):
    evaluated, read = [], []
    original = LogLaurentExpr.eval

    def eval_noting(expr, z, *args):
        evaluated.append(expr)
        return original(expr, z, *args)

    def refuse(smap, z):
        read.append(z)
        raise AssertionError("S' read")

    monkeypatch.setattr(LogLaurentExpr, "eval", eval_noting)
    monkeypatch.setattr(SchwarzMap, "derivative", refuse)
    h = HarmonicPair.symmetric(LogLaurentExpr([(0.3 - 0.2j, 2, 1), (1.1j, -1)]))
    normal_derivative_schwarz(h, SchwarzMap.unit_circle(), cmath.exp(0.4j))
    assert evaluated == [h.part_z.differentiate()] and read == []
    assert "part_zeta" not in vars(h)


# -- a symmetric pair's zeta-part, built on first read ------------------------------


def _counting_constructions(monkeypatch):
    """Lists that fill with each normalizing construction and each conjugate mirror."""
    normalized, mirrors = [], []
    normalize, mirror = _SparseSum.__init__, LogLaurentExpr.conjugate_mirror

    def counting_init(self, acc):
        normalized.append(self)
        normalize(self, acc)

    def counting_mirror(self):
        mirrors.append(self)
        return mirror(self)

    monkeypatch.setattr(_SparseSum, "__init__", counting_init)
    monkeypatch.setattr(LogLaurentExpr, "conjugate_mirror", counting_mirror)
    return normalized, mirrors


def test_an_exact_fresh_op_builds_no_mirror_and_normalizes_ten_expressions(monkeypatch):
    normalized, mirrors = _counting_constructions(monkeypatch)
    params = RobinParams(0.7, 1.3)
    # one op of the exact-fresh shape: the input, the four operators and
    # four boundary evaluations of each output
    f = LogLaurentExpr([(0.3 - 0.2j, 2, 1), (1.1j, -1, 0), (0.5, 3, 2), (0.25, 0, 1)])
    g = LogLaurentExpr([(0.4, 1, 0), (-0.2j, -2, 1)])
    w = HarmonicPair.symmetric(f)
    dtn = neumann_from_dirichlet_pair(w)
    rtn = neumann_from_robin_pair(w, params)
    dfr = dirichlet_from_robin_pair(w, params)
    h = solve_robin_analytic(f, g, params)
    for th in (0.3, -1.2, 2.0, 2.9):
        radial_derivative(dtn, 1.0, th)
        radial_derivative(rtn, 1.0, th)
        eval_real(dfr, math.cos(th), math.sin(th))
        h.eval(cmath.exp(1j * th))
    # f, g, the primitive, the unpinned RtN part, z f' (once, for DfR and the
    # ODE) and the DfR part, z f' + g and h, and the derivatives of the pinned
    # DtN and RtN parts; the two pins add a constant to terms normalized
    # already and normalize nothing again
    assert len(normalized) == 10
    assert mirrors == []
    assert not any("part_zeta" in vars(pair) for pair in (w, dtn, rtn, dfr))


def test_a_symmetric_pair_builds_its_zeta_part_on_first_read():
    rng = np.random.default_rng(144)
    for f in (seeded_expr(rng), seeded_expr(rng).with_cut_angle(2.0), LogLaurentExpr()):
        eager = HarmonicPair(f, f.conjugate_mirror())
        probes = (lambda h: h == eager, lambda h: eager == h, hash, repr, HarmonicPair.to_json)
        for probe in probes:
            lazy = HarmonicPair.symmetric(f)
            assert "part_zeta" not in vars(lazy)
            assert probe(lazy) == probe(eager)  # reads the zeta-part
            assert "part_zeta" in vars(lazy)
            assert probe(lazy) == probe(eager)
        lazy = HarmonicPair.symmetric(f)
        zeta = lazy.part_zeta
        assert zeta == f.conjugate_mirror() and zeta.cut_angle == f.cut_angle
        assert lazy.part_zeta is zeta and lazy.part_zeta is zeta
        assert lazy.mirrored == eager.mirrored == (f.cut_angle == math.pi)
        assert dataclasses.astuple(lazy) == (f, zeta)


def test_a_pair_pickles_and_copies_before_its_zeta_part_is_read():
    f = LogLaurentExpr([(0.3 - 0.2j, 2, 1), (1.1j, -1, 0)])
    for copy_of in (lambda h: pickle.loads(pickle.dumps(h)), copy.deepcopy, copy.copy):
        lazy = HarmonicPair.symmetric(f)
        back = copy_of(lazy)
        assert "part_zeta" not in vars(back) and back.mirrored
        assert back.part_z == f
        assert back == HarmonicPair(f, f.conjugate_mirror()) and back.part_zeta.cut_angle == math.pi
        assert "part_zeta" not in vars(lazy)
    two = HarmonicPair(f, f * 2.0)
    assert pickle.loads(pickle.dumps(two)) == two and not copy.deepcopy(two).mirrored


def _was_eval_real(h, x, y):
    """eval_real before mirrored pairs skipped eval_pair: eval_pair at (z, conj z),
    then the reality test."""
    z = complex(x, y)
    if z == 0:
        raise DomainError("real-slice evaluation at the origin")
    value = eval_pair(h, BiPoint(z, z.conjugate()))
    if abs(value.imag) > 1e-11 * max(1.0, abs(value)):
        raise NonSymmetricPairError(
            f"imaginary residue {value.imag:.3g} at ({x}, {y}); pair is not conjugate-symmetric"
        )
    return value.real


def _bits_or_error(fn):
    """fn()'s float to the bit, or the type and message of what it raised."""
    try:
        return struct.pack("<d", fn())
    except Exception as exc:  # noqa: BLE001 - any error must match
        return type(exc), str(exc)


def test_eval_real_of_a_mirrored_pair_is_what_eval_pair_gave():
    rng = np.random.default_rng(145)
    # z^-2 + 0.3 z log^2 z + 0.5 z^2 log z raises, overflows and returns nan
    # at extreme points
    pairs = [
        HarmonicPair.symmetric(LogLaurentExpr([(1.0, -2, 0), (0.3, 1, 2), (0.5, 2, 1)])),
        HarmonicPair.symmetric(LogLaurentExpr([(0.5 + 0.25j, 0, 0)])),
        *(HarmonicPair.symmetric(seeded_expr(rng)) for _ in range(4)),
    ]
    extreme = [
        (0.0, 0.0), (-0.0, 0.0), (-1.0, 1e-7), (-1.0, -1e-7), (-2.0, 0.0), (-2.0, -0.0),
        (1e-300, math.nan), (math.nan, 0.0), (1e-300, 1e300), (1e-200, 0.0), (1e160, 1e300),
        (1e300, 1e300), (1e-300, 0.0), (math.inf, 0.0), (1e-160, 0.0),
    ]
    points = extreme + [
        (r * math.cos(th), r * math.sin(th)) for r in MIRROR_RADII for th in MIRROR_THETAS
    ]
    errors = 0
    for h in pairs:
        assert h.mirrored
        for x, y in points:
            got = _bits_or_error(lambda: eval_real(h, x, y))
            assert got == _bits_or_error(lambda: _was_eval_real(h, x, y)), (h, x, y)
            errors += isinstance(got, tuple)
    assert errors > 6 * 3
