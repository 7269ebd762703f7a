import cmath
import copy
import dataclasses
import math
import pickle
import re
import struct

import numpy as np
import pytest

import harmonia.algebra
import harmonia.harmonic
from harmonia.algebra import LogLaurentExpr, _SparseSum
from harmonia.errors import (
    CutProximityError,
    DomainError,
    HarmoniaError,
    NonSymmetricPairError,
    PowerUnderflowError,
    RangeError,
)
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
from mirror_helpers import MIRROR_RADII, MIRROR_THETAS, outcome, seeded_expr, zeta_part

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
    # a pair is real by construction; the test of a record's symmetry is the
    # reader's, which names the JSON path of the zeta-part
    lopsided = {"part_z": [{"re": 1.0, "k": 1}], "part_zeta": []}
    with pytest.raises(NonSymmetricPairError, match=r"^part_zeta: must be the conjugate mirror"):
        HarmonicPair.from_json(lopsided)
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
    upward = HarmonicPair(LogLaurentExpr.monomial(1.0 / 2j, 1))
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
    pair = HarmonicPair(part)
    z = 0.9 * cmath.exp(2.5j)
    term = abs(part.eval(z))
    assert term > 14.0
    assert field_scale(pair, z.real, z.imag) >= 2.0 * term
    # on the default cut the branch is the principal one; each side adds |log z|^2
    default = HarmonicPair(part.with_cut_angle(math.pi))
    assert field_scale(default, z.real, z.imag) == pytest.approx(2.0 * abs(cmath.log(z)) ** 2)


def test_field_scale_rejects_the_origin():
    with pytest.raises(DomainError, match="field scale at the origin"):
        field_scale(HarmonicPair.constant(1.0), 0.0, 0.0)


def test_pair_arithmetic_and_serialization():
    s = SADDLE + LINEAR + LINEAR - LOG_RADIAL
    assert abs(eval_real(s, 1.0, 0.5) - (eval_real(SADDLE, 1.0, 0.5)
                                          + 2 * eval_real(LINEAR, 1.0, 0.5)
                                          - eval_real(LOG_RADIAL, 1.0, 0.5))) < 1e-13
    rec = s.to_json()
    assert rec["part_zeta"] == s.part_z.conjugate_mirror().to_json()
    back = HarmonicPair.from_json(rec)
    assert (back.part_z - s.part_z).is_zero()


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
    assert back.to_json() == rec and back.part_z.cut_angle == 2.0


# -- one holomorphic part against the two-part sum ---------------------------------

def two_part_sum(h, z, zeta):
    """f(z) + g(zeta), with g the zeta side written out as an expression."""
    return h.part_z.eval(z) + zeta_part(h.part_z).eval(zeta)


def two_part_radial(h, r, theta):
    """d/dr of the two-part sum along (r e^{i theta}, conj(r e^{i theta}))."""
    ez = cmath.exp(1j * theta)
    return (
        h.part_z.differentiate().eval(r * ez) * ez
        + zeta_part(h.part_z).differentiate().eval((r * ez).conjugate()) * ez.conjugate()
    )


def test_mirrored_route_matches_the_two_part_sum():
    rng = np.random.default_rng(142)
    for _ in range(4):
        h = HarmonicPair.symmetric(seeded_expr(rng))
        d = HarmonicPair(h.part_z.differentiate())
        for r in MIRROR_RADII:
            for th in MIRROR_THETAS:
                z = r * cmath.exp(1j * th)
                x, y = z.real, z.imag
                scale = field_scale(h, x, y)
                # the zeta point r / e^{i theta} is conj(z) up to rounding only
                want = two_part_sum(h, z, r / cmath.exp(1j * th))
                got = eval_pair(h, BiPoint(z, z.conjugate()))
                assert got.imag == 0.0
                assert abs(got - want) <= 1e-13 * scale
                assert abs(eval_real(h, x, y) - want.real) <= 1e-13 * scale
                got_d = radial_derivative(h, r, th)
                assert got_d.imag == 0.0
                assert abs(got_d - two_part_radial(h, r, th)) <= 1e-13 * field_scale(d, x, y)


def test_other_inputs_take_the_two_part_route_bit_for_bit():
    # on every cut the zeta side is f's mirror on the mirrored cut 2 pi - alpha,
    # at points on the slice and off it
    rng = np.random.default_rng(143)
    for cut in (math.pi, 2.0, 5.0, -1.0):
        f = seeded_expr(rng).with_cut_angle(cut)
        h = HarmonicPair(f)
        off_slice = 0
        for r in MIRROR_RADII:
            for th in MIRROR_THETAS:
                ez = cmath.exp(1j * th)
                z = r * ez
                x, y = z.real, z.imag
                # r / e^{i theta} is conj(z) only up to rounding
                for zeta in (z.conjugate(), r / ez, 1.05 * z.conjugate()):
                    off_slice += zeta != z.conjugate()
                    assert outcome(lambda: eval_pair(h, BiPoint(z, zeta))) == outcome(
                        lambda: two_part_sum(h, z, zeta)
                    )
                assert outcome(lambda: eval_real(h, x, y)) == outcome(
                    lambda: two_part_sum(h, z, z.conjugate()).real
                )
                assert outcome(lambda: radial_derivative(h, r, th)) == outcome(
                    lambda: two_part_radial(h, r, th)
                )
        assert off_slice > 400


def test_mirrored_route_evaluates_the_z_part_only(monkeypatch):
    evaluated = []
    original = LogLaurentExpr.eval

    def eval_noting(expr, z, *args):
        evaluated.append(expr)
        return original(expr, z, *args)

    monkeypatch.setattr(LogLaurentExpr, "eval", eval_noting)
    h = HarmonicPair.symmetric(LogLaurentExpr([(0.3 - 0.2j, 2, 1), (1.1j, -1)]))
    z = 0.7 + 0.4j
    for call, n_sides in (
        (lambda: eval_pair(h, BiPoint(z, z.conjugate())), 1),
        (lambda: eval_real(h, z.real, z.imag), 1),
        (lambda: radial_derivative(h, 0.8, 0.5), 1),
        (lambda: eval_pair(h, BiPoint(z, z.conjugate() * (1 + 1e-15))), 2),
    ):
        evaluated.clear()
        call()
        assert evaluated == [evaluated[0]] * n_sides


def schwarz_normal(h, smap, z):
    """The Schwarz-function form of the outward normal derivative, with the
    zeta side written out: (i / sqrt(S'(z))) (f'(z) - g'(S(z)) S'(z))."""
    sqrt_sp = 1j / smap.outward_normal(z)
    sp = smap.derivative(z)
    d1 = h.part_z.differentiate().eval(z)
    d2 = zeta_part(h.part_z).differentiate().eval(smap.value(z))
    return (1j / sqrt_sp) * (d1 - d2 * sp)


# the suite's maps: the unit circle, an off-centre circle and a line
SUITE_MAPS = (SchwarzMap.unit_circle(), SchwarzMap.circle(0.3 - 0.2j, 1.7), SchwarzMap.line(0.5j, 0.3))


def test_mirrored_normal_derivative_matches_the_two_part_formula():
    rng = np.random.default_rng(148)
    checked = 0
    for smap in SUITE_MAPS:
        for cut in (math.pi, 2.0, -1.0):
            h = HarmonicPair(seeded_expr(rng).with_cut_angle(cut))
            d = HarmonicPair(h.part_z.differentiate())
            for z in smap.curve_points(72):
                try:
                    want = schwarz_normal(h, smap, z)
                except CutProximityError:  # next to the cut, both routes refuse
                    with pytest.raises(CutProximityError):
                        normal_derivative_schwarz(h, smap, z)
                    continue
                got = normal_derivative_schwarz(h, smap, z)
                assert got.imag == 0.0
                assert abs(got - want) <= 1e-12 * field_scale(d, z.real, z.imag), (smap, z)
                checked += 1
    assert checked > 600


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


# -- what a pair builds and copies ------------------------------------------------


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


def test_a_pair_pickles_and_copies_before_its_zeta_part_is_read():
    # a pair holds its z-part only; the zeta-part is built when JSON is written
    f = LogLaurentExpr([(0.3 - 0.2j, 2, 1), (1.1j, -1, 0)])
    for copy_of in (lambda h: pickle.loads(pickle.dumps(h)), copy.deepcopy, copy.copy):
        back = copy_of(HarmonicPair.symmetric(f))
        assert back.part_z == f and back == HarmonicPair(f)
        assert hash(back) == hash(HarmonicPair(f))
        assert back.to_json()["part_zeta"] == f.conjugate_mirror().to_json()
    assert [fld.name for fld in dataclasses.fields(HarmonicPair)] == ["part_z"]


def _was_eval_real(h, x, y):
    """eval_real as eval_pair at (z, conj z), its real part."""
    z = complex(x, y)
    if z == 0:
        raise DomainError("real-slice evaluation at the origin")
    return eval_pair(h, BiPoint(z, z.conjugate())).real


def _bits_or_error(fn):
    """fn()'s float to the bit, or the type of what it raised (the messages
    name the arguments each function takes)."""
    try:
        return struct.pack("<d", fn())
    except Exception as exc:  # noqa: BLE001 - any error must match
        return type(exc)


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
        for x, y in points:
            got = _bits_or_error(lambda: eval_real(h, x, y))
            assert got == _bits_or_error(lambda: _was_eval_real(h, x, y)), (h, x, y)
            errors += isinstance(got, type)
    assert errors > 6 * 3


# -- arguments and cuts ---------------------------------------------------------------

# z^-2 + 0.3 z log^2 z + 0.5 z^2 log z, whose logs make every evaluation read a phase
PROBE = HarmonicPair(LogLaurentExpr([(1.0, -2, 0), (0.3, 1, 2), (0.5, 2, 1)]))


@pytest.mark.parametrize(
    "function, args, name",
    [
        (eval_real, (PROBE, 1e-300, math.nan), "y"),
        (eval_real, (PROBE, 0.5, math.inf), "y"),
        (eval_real, (PROBE, -math.inf, 0.5), "x"),
        (radial_derivative, (PROBE, 0.5, math.inf), "theta"),
        (radial_derivative, (PROBE, math.nan, 0.5), "r"),
        (eval_pair, (PROBE, BiPoint(complex(math.nan, 0.0), 1 + 0j)), "p.z"),
        (eval_pair, (PROBE, BiPoint(1 + 0j, complex(0.5, -math.inf))), "p.zeta"),
        (normal_derivative_schwarz, (PROBE, SchwarzMap.unit_circle(), math.nan), "z"),
        (normal_derivative_schwarz, (PROBE, SchwarzMap.unit_circle(), complex(1, math.inf)), "z"),
    ],
    ids=["eval_real-nan", "eval_real-inf", "eval_real-x", "radial-theta", "radial-r",
         "eval_pair-z", "eval_pair-zeta", "normal-nan", "normal-inf"],
)
def test_a_non_finite_argument_raises_a_domain_error_that_names_it(function, args, name):
    with pytest.raises(DomainError, match=rf"^{re.escape(name)} must be finite, got "):
        function(*args)


@pytest.mark.parametrize(
    "function, args, z",
    [
        (eval_real, (PROBE, 1e-200, 0.0), 1e-200),
        (radial_derivative, (PROBE, 1e-300, 0.0), 1e-300),
        (radial_derivative, (PROBE, 1e-160, 0.0), 1e-160),  # z**3 underflows in f'
    ],
    ids=["eval_real", "radial-1e-300", "radial-1e-160"],
)
def test_a_negative_power_beyond_the_float_range_raises_a_domain_error_that_names_the_point(
    function, args, z
):
    message = f"a negative power at z = {complex(z)!r} is beyond the float range"
    with pytest.raises(PowerUnderflowError, match=re.escape(message)) as info:
        function(*args)
    # the package's error, and still the ZeroDivisionError it replaces
    assert isinstance(info.value, DomainError) and isinstance(info.value, ZeroDivisionError)


@pytest.mark.parametrize("x, y", [(1e-300, 1e300), (1e160, 0.0)], ids=["1e300j", "1e160"])
def test_a_power_that_overflows_raises_the_range_error_that_names_the_point(x, y):
    # z**-2 is in range at both points; 0.5 z**2 log z overflows
    message = f"a power at z = {complex(x, y)!r} is beyond the float range"
    with pytest.raises(RangeError, match=re.escape(message)) as info:
        eval_real(PROBE, x, y)
    # the package's error, and still the OverflowError it replaces
    assert isinstance(info.value, HarmoniaError) and isinstance(info.value, OverflowError)
    assert not isinstance(info.value, DomainError)


@pytest.mark.parametrize(
    "function, args, z",
    [
        (radial_derivative, (PROBE, 1e160, 0.0), 1e160),
        (eval_real, (PROBE, 1e160, 1e300), 1e160 + 1e300j),
    ],
    ids=["radial-1e160", "eval_real-1e300j"],
)
def test_a_sum_that_is_not_finite_raises_the_range_error_that_names_the_point(function, args, z):
    # no power overflows alone, but a power's two parts do, to inf - inf = NaN,
    # or a product does; both returned NaN before the term loops tested their total
    message = f"the sum at z = {complex(z)!r} is beyond the float range"
    with pytest.raises(RangeError, match=re.escape(message)) as info:
        function(*args)
    assert isinstance(info.value, HarmoniaError) and isinstance(info.value, OverflowError)


@pytest.mark.parametrize("cut", [math.pi, 2.0, 5.0, -1.0])
def test_a_pair_and_its_dtn_output_are_real_at_every_accepted_cut(cut):
    rng = np.random.default_rng(31)
    u = HarmonicPair.symmetric(seeded_expr(rng).with_cut_angle(cut))
    v = neumann_from_dirichlet_pair(u)
    # pinned on the cut's own branch: at -1.0, log 1 = -2 pi i
    assert eval_real(v, 1.0, 0.0) == 0.0
    # 72 rays, each at least pi / 72 from the cut
    thetas = [cut + 2.0 * math.pi * (j + 0.5) / 72 for j in range(72)]
    for th in thetas:
        c, s = math.cos(th), math.sin(th)
        for h in (u, v):
            value = eval_real(h, 0.8 * c, 0.8 * s)
            assert type(value) is float and math.isfinite(value)
        # the DtN output's normal derivative on the circle is u's trace
        trace = eval_real(u, c, s)
        assert abs(radial_derivative(v, 1.0, th) - trace) <= 1e-12 * field_scale(u, c, s)
