import ast
import cmath
import copy
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

import harmonia
from harmonia.algebra import (
    COEFF_EPS,
    BivariateLaurentExpr,
    LogLaurentExpr,
    LogLaurentTerm,
    _fold_angle,
    _SparseSum,
    branch_log,
    cut_distance,
)
from harmonia.errors import (
    CutMismatchError,
    CutProximityError,
    DomainError,
    PowerUnderflowError,
    RangeError,
    ResonanceError,
)
from harmonia.records import MAX_JSON_LOGPOW


def expr(*terms):
    return LogLaurentExpr(terms)


def test_eval_monomial_at_one():
    assert expr((0.5, 2, 0)).eval(1.0 + 0j) == 0.5


def test_eval_log_at_e():
    e = expr((0.5, 0, 1))
    assert abs(e.eval(complex(math.e, 0.0)) - 0.5) < 1e-15


def test_eval_log_squared_at_i():
    # principal branch: log i = i pi/2, so (1/4) log^2 i = -pi^2/16
    e = expr((0.25, 0, 2))
    direct = 0.25 * cmath.log(1j) ** 2
    assert abs(e.eval(1j) - direct) < 1e-15
    assert abs(e.eval(1j) - (-math.pi**2 / 16)) < 1e-15


def test_eval_rejects_zero():
    with pytest.raises(DomainError):
        expr((1.0, 2, 0)).eval(0j)


def test_eval_on_cut_with_log_rejected():
    e = expr((1.0, 0, 1))
    with pytest.raises(CutProximityError):
        e.eval(-1.0 + 0j)


def test_eval_on_cut_without_log_allowed():
    e = expr((1.0, -2, 0))
    assert abs(e.eval(-2.0 + 0j) - 0.25) < 1e-15


def test_custom_cut_angle():
    # cut rotated to the positive real axis: the negative axis is now fine
    e = LogLaurentExpr([(1.0, 0, 1)], cut_angle=0.0)
    assert abs(e.eval(-1.0 + 0j) - complex(0.0, -math.pi)) < 1e-15
    with pytest.raises(CutProximityError):
        e.eval(1.0 + 0j)


def test_branch_log_window():
    assert abs(branch_log(1j, math.pi) - 0.5j * math.pi) < 1e-15
    # with the cut at 0 the argument lives in (-2 pi, 0]
    assert abs(branch_log(1j, 0.0) - complex(0.0, -1.5 * math.pi)) < 1e-15
    with pytest.raises(DomainError, match="log is singular at z = 0"):
        branch_log(0j)


@pytest.mark.parametrize(
    "before, after",
    [
        ([(0.5, 0, 1)], [(0.5, -1, 0)]),
        ([(0.5, 2, 0)], [(1.0, 1, 0)]),
        ([(0.25, 0, 2)], [(0.5, -1, 1)]),
    ],
)
def test_differentiate_examples(before, after):
    assert (LogLaurentExpr(before).differentiate() - LogLaurentExpr(after)).is_zero()


@pytest.mark.parametrize(
    "before, after",
    [
        ([(3.0, 0, 0)], [(3.0, 0, 1)]),
        ([(0.5, 0, 1)], [(0.25, 0, 2)]),
        ([(0.5, 2, 0)], [(0.25, 2, 0)]),
    ],
)
def test_antiderivative_examples(before, after):
    got = LogLaurentExpr(before).antiderivative_over_arg()
    assert (got - LogLaurentExpr(after)).is_zero()


def test_antiderivative_log_power_recursion():
    # primitive of z (log z)^2: differentiating back must cancel exactly
    e = expr((1.0, 2, 2))
    prim = e.antiderivative_over_arg()
    over_z = LogLaurentExpr.monomial(1.0, -1)
    assert (prim.differentiate() - e * over_z).is_zero()


def test_antiderivative_deep_log_power():
    # 1200 nested steps, past the default recursion limit; coefficients decay
    # since (j+1)/k <= 1, so the round trip differs from the input only by the
    # terms normalization dropped (each below COEFF_EPS, times k or j)
    k = m = 1200
    e = expr((1.0, k, m))
    prim = e.antiderivative_over_arg()
    assert prim.terms[-1] == LogLaurentTerm(1.0 / k, k, m)
    residual = prim.differentiate() - e * LogLaurentExpr.monomial(1.0, -1)
    assert all(abs(t.coeff) <= COEFF_EPS * (k + m) for t in residual.terms)


def test_antiderivative_overflow_is_value_error():
    # the coefficients m!/j! of the primitive of log^1500 z overflow binary64
    with pytest.raises(ValueError, match="non-finite coefficient"):
        expr((1.0, 1, 1500)).antiderivative_over_arg()


def test_round_trip_property():
    rng = np.random.default_rng(11)
    over_z = LogLaurentExpr.monomial(1.0, -1)
    for _ in range(50):
        terms = [
            (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             int(rng.integers(-4, 5)), int(rng.integers(0, 3)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        e = LogLaurentExpr(terms)
        assert (e.antiderivative_over_arg().differentiate() - e * over_z).is_zero()


def test_eval_homomorphism_property():
    rng = np.random.default_rng(12)
    for _ in range(50):
        e1 = expr((complex(rng.uniform(-1, 1)), int(rng.integers(-3, 4)), int(rng.integers(0, 3))))
        e2 = expr((complex(rng.uniform(-1, 1)), int(rng.integers(-3, 4)), int(rng.integers(0, 3))))
        z = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(-2.5, 2.5))
        assert abs((e1 + e2).eval(z) - e1.eval(z) - e2.eval(z)) < 1e-13


@pytest.mark.parametrize(
    "terms, theta, expected",
    [
        ([(0.5, 2, 0)], 0.0, [(0.5, 2, 0)]),
        ([(1.0, -1, 0)], 0.7, [(cmath.exp(-0.7j), -1, 0)]),
    ],
)
def test_restrict_to_ray_laurent(terms, theta, expected):
    got = LogLaurentExpr(terms).restrict_to_ray(theta)
    assert (got - LogLaurentExpr(expected)).is_zero()


def test_restrict_to_ray_log():
    # (1/2) log z on the ray theta = pi/2 becomes (1/2) log rho + i pi/4
    got = expr((0.5, 0, 1)).restrict_to_ray(math.pi / 2)
    expected = LogLaurentExpr([(0.5, 0, 1), (0.25j * math.pi, 0, 0)])
    assert (got - expected).is_zero()
    # numeric cross-check at rho = 2
    z = 2.0 * cmath.exp(0.5j * math.pi)
    assert abs(got.eval(2.0 + 0j) - expr((0.5, 0, 1)).eval(z)) < 1e-13


def test_restrict_to_ray_consistency_property():
    rng = np.random.default_rng(13)
    for _ in range(30):
        e = LogLaurentExpr(
            [
                (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                 int(rng.integers(-4, 5)), int(rng.integers(0, 3)))
                for _ in range(3)
            ]
        )
        theta = float(rng.uniform(-2.5, 2.5))
        ray = e.restrict_to_ray(theta)
        for rho in (0.5, 1.1, 2.0):
            assert abs(ray.eval(complex(rho)) - e.eval(rho * cmath.exp(1j * theta))) < 1e-11


def test_restrict_to_ray_cut_proximity():
    with pytest.raises(CutProximityError):
        expr((1.0, 0, 1)).restrict_to_ray(math.pi)
    # log-free expressions restrict fine on the cut direction
    got = expr((1.0, 1, 0)).restrict_to_ray(math.pi)
    assert abs(got.eval(2.0 + 0j) - (-2.0)) < 1e-15


def _value_on_ray(e, rho, theta):
    """e at rho e^{i theta} with log z = log rho + i theta, theta folded into
    the branch window: the two ends of ``ray_change`` written out."""
    folded = _fold_angle(float(theta), e.cut_angle)
    z, lg = rho * cmath.exp(1j * folded), complex(math.log(rho), folded)
    return _log_sum_reference(e, z, lg)


def test_ray_change_is_the_difference_of_the_values_at_its_ends():
    rng = np.random.default_rng(14)
    for _ in range(60):
        e = _random_log_expr(rng)
        # directions beyond the branch window fold into it
        theta = float(rng.uniform(-9.0, 9.0))
        if e.has_log() and cut_distance(theta, e.cut_angle) < 1e-3:
            continue
        ez = cmath.exp(1j * theta)
        ray = e.restrict_to_ray(theta)
        for r in (0.3, 1.0, 2.5):
            got = e.ray_change(theta, r)
            # bit for bit the two evaluations along the ray it replaces
            assert got == _value_on_ray(e, 1.0 / r, theta) - _value_on_ray(e, r, theta)
            want = e.eval(ez / r) - e.eval(r * ez)
            scale = max(1.0, abs(e.eval(ez / r)), abs(e.eval(r * ez)))
            assert abs(got - want) <= 1e-13 * scale
            along = ray.eval(complex(1.0 / r)) - ray.eval(complex(r))
            assert abs(got - along) <= 1e-13 * scale
        assert e.ray_change(theta, 1.0) == 0


def test_ray_change_rejects_no_ray():
    # a primitive of log-free data carries a log; along one ray next to the
    # cut, or on it, its values are on one branch, so their difference is
    # the integral
    prim = expr((1.0, 0, 0), (0.2, 1, 0)).antiderivative_over_arg()
    assert prim.has_log()
    for theta in (math.pi - 1e-9, math.pi):
        with pytest.raises(CutProximityError):
            prim.restrict_to_ray(theta)
        diff = prim.ray_change(theta, 0.5)
        assert abs(diff - (math.log(4.0) + 0.2 * cmath.exp(1j * theta) * 1.5)) < 1e-14
        assert diff == _value_on_ray(prim, 2.0, theta) - _value_on_ray(prim, 0.5, theta)


def test_invert_argument():
    e = expr((2.0, 3, 1), (1.0, 0, 2))
    got = e.invert_argument()
    expected = LogLaurentExpr([(-2.0, -3, 1), (1.0, 0, 2)])
    assert (got - expected).is_zero()
    z = 1.3 * cmath.exp(0.4j)
    assert abs(got.eval(z) - e.eval(1.0 / z)) < 1e-13


def test_conjugate_mirror_reality():
    e = expr((1.0 + 2.0j, 2, 1), (0.3 - 0.1j, -1, 0))
    mirror = e.conjugate_mirror()
    z = 1.2 * cmath.exp(0.9j)
    val = e.eval(z) + mirror.eval(z.conjugate())
    assert abs(val.imag) < 1e-13


def test_normalization_merges_and_drops():
    e = LogLaurentExpr([(1.0, 2, 0), (2.0, 2, 0), (1e-16, 0, 0)])
    (t,) = e.terms
    assert t.coeff == 3.0 and t.power == 2 and t.logpow == 0
    assert (e - e).is_zero()


def test_rejects_non_finite_and_negative_logpow():
    with pytest.raises(ValueError):
        LogLaurentExpr([(float("nan"), 0, 0)])
    with pytest.raises(ValueError):
        LogLaurentExpr([(1.0, 0, -1)])


def test_serialization_round_trip():
    e = expr((1.5, -2, 0), (0.25 + 1j, 0, 2))
    back = LogLaurentExpr.from_json(e.to_json())
    assert (e - back).is_zero()


def test_multiplication():
    a = expr((2.0, 1, 1))
    b = expr((3.0, 2, 0))
    assert ((a * b) - expr((6.0, 3, 1))).is_zero()
    assert ((2.0 * a) - expr((4.0, 1, 1))).is_zero()


@pytest.mark.parametrize(
    "terms, expected",
    [
        ([(1.0, 2, 0), (1.0, 0, 2)], [(1.0, 2, 0), (1.0, -2, 0)]),
        ([(2.0, 1, 1), (-2.0, 0, 0)], []),
        ([(5.0, 0, 0)], [(5.0, 0, 0)]),
    ],
)
def test_restrict_bivariate_to_circle(terms, expected):
    phi = BivariateLaurentExpr([(c, kz, kzeta) for c, kz, kzeta in terms])
    got = phi.restrict_to_circle()
    assert (got - LogLaurentExpr(expected)).is_zero()


def test_circle_restriction_kernel_property():
    rng = np.random.default_rng(14)
    kernel = BivariateLaurentExpr([(1.0, 1, 1), (-1.0, 0, 0)])
    for _ in range(50):
        psi = BivariateLaurentExpr(
            [
                (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                 int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
                for _ in range(int(rng.integers(1, 9)))
            ]
        )
        assert (psi * kernel).restrict_to_circle().is_zero()


def test_bivariate_eval_and_serialization():
    phi = BivariateLaurentExpr([(1.0, 2, 0), (2.0, 1, 1), (-1.0, 0, -1)])
    z, zeta = 1.5 + 0.5j, 0.25 - 0.1j
    direct = z**2 + 2 * z * zeta - 1.0 / zeta
    assert abs(phi.eval(z, zeta) - direct) < 1e-13
    back = BivariateLaurentExpr.from_json(phi.to_json())
    assert (phi - back).is_zero()
    with pytest.raises(DomainError):
        phi.eval(1.0, 0.0)


def test_json_exponents_are_integral_numbers():
    # a float that is an integer is read as that integer
    e = LogLaurentExpr.from_json([{"re": 1.0, "k": 2.0, "m": float(MAX_JSON_LOGPOW)}])
    assert e == LogLaurentExpr([(1.0, 2, MAX_JSON_LOGPOW)])
    phi = BivariateLaurentExpr.from_json([{"re": 1.0, "kz": -1.0, "kzeta": 3}])
    assert phi == BivariateLaurentExpr([(1.0, -1, 3)])


@pytest.mark.parametrize(
    "term",
    [
        {"re": 1.0, "k": 1.5},  # int() would truncate it to 1
        {"re": 1.0, "k": "2"},
        {"re": 1.0, "k": True},
        {"re": 1.0, "k": float("inf")},
        {"re": 1.0, "k": float("nan")},
        {"re": 1.0, "k": 1, "m": 0.5},
        {"re": 1.0, "k": 1, "m": -1},
        {"re": 1.0, "k": 1, "m": MAX_JSON_LOGPOW + 1},
        {"re": 0.5, "k": 1, "m": 1e300},  # its primitive would take 10^300 steps
        {"re": 1.0, "k": 1, "m": None},
    ],
)
def test_log_json_rejects_bad_exponents(term):
    with pytest.raises(ValueError):
        LogLaurentExpr.from_json([term])


@pytest.mark.parametrize(
    "term",
    [
        {"re": 1.0, "kz": 0.5, "kzeta": 0},
        {"re": 1.0, "kz": 0, "kzeta": float("-inf")},
        {"re": 1.0, "kz": [1], "kzeta": 0},
    ],
)
def test_bivariate_json_rejects_bad_exponents(term):
    with pytest.raises(ValueError):
        BivariateLaurentExpr.from_json([term])


@pytest.mark.parametrize(
    "cls, term, key",
    [
        (LogLaurentExpr, {"re": 1, "imag": 2, "k": 1}, "imag"),
        (LogLaurentExpr, {"re": 1, "k": 1, "kz": 1}, "kz"),
        (BivariateLaurentExpr, {"re": 1, "Im": 2, "kz": 1, "kzeta": 0}, "Im"),
        (BivariateLaurentExpr, {"re": 1, "kz": 1, "kzeta": 0, "m": 0}, "m"),
    ],
)
def test_json_term_rejects_an_unknown_key(cls, term, key):
    # a misspelt "im" used to be dropped, so {"re": 1, "imag": 2, "k": 1} read as 1*z
    with pytest.raises(ValueError, match=repr(key)):
        cls.from_json([term])


def test_repr_of_both_classes():
    assert repr(LogLaurentExpr()) == "LogLaurentExpr(0)"
    assert repr(expr((1.5, 0, 0), (2 - 1j, 2, 1), (0.25j, -1, 3), (-1 / 3, 1, 0))) == (
        "LogLaurentExpr((0+0.25j)*z^-1*log(z)^3 + (1.5+0j) + (-0.333333+0j)*z^1"
        " + (2-1j)*z^2*log(z))"
    )
    assert repr(BivariateLaurentExpr()) == "BivariateLaurentExpr(0)"
    phi = BivariateLaurentExpr([(1.0, 2, 0), (2.0, 1, 1), (-1.0, 0, -1), (0.5, 0, 0)])
    assert repr(phi) == (
        "BivariateLaurentExpr((-1+0j)*zeta^-1 + (0.5+0j) + (2+0j)*z^1*zeta^1 + (1+0j)*z^2)"
    )


def test_expression_classes_never_mix():
    assert LogLaurentExpr() != BivariateLaurentExpr()
    assert LogLaurentExpr.constant(1.0) != BivariateLaurentExpr.constant(1.0)
    with pytest.raises(TypeError):
        LogLaurentExpr.constant(1.0) + BivariateLaurentExpr.constant(1.0)
    with pytest.raises(TypeError):
        LogLaurentExpr.constant(1.0) * BivariateLaurentExpr.constant(1.0)


def test_equality_and_hash():
    a = expr((1.0, 2, 1), (0.5j, -1, 0))
    b = expr((0.5j, -1, 0), (0.25, 2, 1), (0.75, 2, 1))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    rotated = a.with_cut_angle(2.0)
    assert rotated != a and rotated.terms == a.terms
    assert rotated == b.with_cut_angle(2.0) and hash(rotated) == hash(b.with_cut_angle(2.0))
    p = BivariateLaurentExpr([(1.0, 1, 2), (2.0, 0, -1)])
    q = BivariateLaurentExpr([(2.0, 0, -1), (1.0, 1, 2)])
    assert p == q and hash(p) == hash(q)
    assert p != BivariateLaurentExpr([(1.0, 2, 1), (2.0, 0, -1)])


@pytest.mark.parametrize(
    "e", [LogLaurentExpr.monomial(1.0, 2, 1), BivariateLaurentExpr([(1.0, 2, 1)])]
)
def test_expressions_are_immutable(e):
    before = e.to_json()
    with pytest.raises(AttributeError):
        e._terms = {}
    with pytest.raises(AttributeError):
        e.extra = 1
    assert e.to_json() == before


def test_to_json_uses_each_class_keys():
    log_rec = expr((2.0 - 1j, 3, 1)).to_json()
    assert log_rec == [{"re": 2.0, "im": -1.0, "k": 3, "m": 1}]
    biv_rec = BivariateLaurentExpr([(2.0 - 1j, 3, -1)]).to_json()
    assert biv_rec == [{"re": 2.0, "im": -1.0, "kz": 3, "kzeta": -1}]
    assert list(log_rec[0]) == ["re", "im", "k", "m"]
    assert list(biv_rec[0]) == ["re", "im", "kz", "kzeta"]


def test_derivative_is_computed_once():
    e = expr((1.0, 3, 2), (0.5j, -1, 0))
    d = e.differentiate()
    assert e.differentiate() is d
    assert d.differentiate() is d.differentiate()
    assert d == expr((3.0, 2, 2), (2.0, 2, 1), (-0.5j, -2, 0))


def test_primitive_is_computed_once_and_invisible():
    e = expr((1.0, 3, 2), (0.5j, 0, 0), (2.0, -1, 1))
    twin = expr((2.0, -1, 1), (0.5j, 0, 0), (1.0, 3, 2))
    prim = e.antiderivative_over_arg()
    assert e.antiderivative_over_arg() is prim
    # e carries its primitive and twin does not, yet they are the same expression
    assert e == twin and hash(e) == hash(twin)
    assert repr(e) == repr(twin)
    assert _hex_json(e) == _hex_json(twin)
    with pytest.raises(AttributeError):
        e._primitive = None
    assert e.antiderivative_over_arg() is prim
    assert prim == twin.antiderivative_over_arg()


def test_has_log_after_each_operation():
    free = expr((1.0, 2, 0), (2.0, -1, 0))
    logged = expr((1.0, 1, 1))
    assert not LogLaurentExpr().has_log()
    assert not free.has_log() and logged.has_log()
    assert (free + logged).has_log() and not (free + free).has_log()
    assert (free * logged).has_log() and not (free * free).has_log()
    assert not (logged - logged).has_log()
    # the primitive of z^0/z is log z, and logs survive inversion
    assert LogLaurentExpr.constant(1.0).antiderivative_over_arg().has_log()
    assert not free.antiderivative_over_arg().has_log()
    assert logged.invert_argument().has_log() and not free.invert_argument().has_log()
    assert not logged.differentiate().differentiate().has_log()


def test_circle_restriction_keeps_the_cut():
    phi = BivariateLaurentExpr([(1.0, 2, 0), (0.5, 0, 1)])
    default = phi.restrict_to_circle()
    assert default.cut_angle == math.pi
    assert phi.restrict_to_circle() is default
    rotated = phi.restrict_to_circle(2.0)
    assert rotated.cut_angle == 2.0 and rotated.terms == default.terms
    assert phi.restrict_to_circle(math.pi).cut_angle == math.pi
    assert phi.restrict_to_circle(2) == rotated


def _random_log_expr(rng):
    return LogLaurentExpr(
        [
            (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
             int(rng.integers(-4, 5)), int(rng.integers(0, 3)))
            for _ in range(int(rng.integers(0, 7)))
        ],
        float(rng.choice([math.pi, 2.0, -1.0])),
    )


def _random_bivariate(rng):
    return BivariateLaurentExpr(
        [
            (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
             int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            for _ in range(int(rng.integers(0, 7)))
        ]
    )


def _hex_json(e):
    return [{k: v.hex() if isinstance(v, float) else v for k, v in t.items()} for t in e.to_json()]


def _assert_same_as_rebuilt(d, rebuilt):
    assert type(rebuilt) is type(d)
    assert d == rebuilt and hash(d) == hash(rebuilt)
    assert repr(d) == repr(rebuilt)
    assert _hex_json(d) == _hex_json(rebuilt)


def test_derived_expressions_equal_their_public_rebuild():
    # every derived result, built without the public constructor, must be
    # the expression that constructor makes of the same terms
    rng = np.random.default_rng(6)
    for _ in range(200):
        a, b = _random_log_expr(rng), _random_log_expr(rng)
        b = b.with_cut_angle(a.cut_angle)
        scalar = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        theta = float(rng.uniform(-2.5, 2.5))
        derived = [
            a + b, a - b, a * b, a * scalar, 0.5 * a, a * np.complex128(scalar), -a,
            a.differentiate(), a.antiderivative_over_arg(), a.restrict_to_ray(theta),
            a.conjugate_mirror(), a.invert_argument(),
        ]
        for d in derived:
            assert all(type(c) is complex for c in d._terms.values())
            rebuilt = LogLaurentExpr(dict(d._terms), d.cut_angle)
            _assert_same_as_rebuilt(d, rebuilt)
            assert d.cut_angle == a.cut_angle
            assert d.has_log() == rebuilt.has_log()
        p, q = _random_bivariate(rng), _random_bivariate(rng)
        for d in (p + q, p - q, p * q, p * scalar, 3 * p, -p):
            _assert_same_as_rebuilt(d, BivariateLaurentExpr(dict(d._terms)))
        c = p.restrict_to_circle(a.cut_angle)
        _assert_same_as_rebuilt(c, LogLaurentExpr(dict(c._terms), a.cut_angle))


def test_derived_expressions_still_normalize():
    e = expr((1.0, 2, 1))
    with pytest.raises(ValueError, match="non-finite"):
        e * 1e308 * 1e308
    with pytest.raises(ValueError, match="non-finite"):
        BivariateLaurentExpr([(1.0, 1, 1)]) * 1e308 * 1e308
    assert (e * 1e-16).is_zero()
    assert (expr((1e-8, 2, 0)) * expr((1e-8, 1, 1))).is_zero()
    assert (BivariateLaurentExpr([(1e-8, 1, 0)]) * 1e-8).is_zero()
    assert BivariateLaurentExpr([(1e-16, 2, 0), (1.0, 0, 0)]).restrict_to_circle().terms == (
        expr((1.0, 0, 0)).terms
    )


def _log_with_caches():
    e = expr((1.0, 2, 1))
    return e, e.differentiate


def _log_with_primitive():
    e = expr((1.0, 2, 1), (0.5, 0, 0))
    return e, e.antiderivative_over_arg


def _bivariate_with_caches():
    phi = BivariateLaurentExpr([(1.0, 2, 1)])
    return phi, phi.restrict_to_circle


def _bivariate_with_kernel_terms():
    phi = BivariateLaurentExpr([(1.0, 2, 1), (0.5j, 0, -1)])
    return phi, phi._flat_terms


@pytest.mark.parametrize(
    "make, name",
    [(_log_with_caches, n) for n in ("_terms", "_cut_angle", "_has_log", "_derivative", "extra")]
    + [(_log_with_primitive, n) for n in ("_primitive", "_derivative", "_terms")]
    + [(_bivariate_with_caches, n) for n in ("_terms", "_circle", "extra")]
    + [(_bivariate_with_kernel_terms, n) for n in ("_flat", "_terms")],
)
def test_cached_expressions_stay_immutable(make, name):
    e, derive = make()
    first = derive()
    with pytest.raises(AttributeError):
        setattr(e, name, None)
    assert derive() is first


def _same_to_the_bit(got, want):
    """Equal terms, in the same order (the order of summation in ``eval``),
    with the same bits, signs of zero included."""
    _assert_same_as_rebuilt(got, want)
    assert list(got._terms) == list(want._terms)


def test_z_derivative_is_z_times_the_derivative():
    rng = np.random.default_rng(19)
    for _ in range(300):
        e = _random_log_expr(rng)
        e = e + LogLaurentExpr([(float(rng.uniform(-2, 2)), 0, 2)], e.cut_angle)  # k = 0
        z = LogLaurentExpr([(1.0, 1)], e.cut_angle)
        _same_to_the_bit(e.z_derivative(), z * e.differentiate())
    assert LogLaurentExpr().z_derivative().is_zero()
    assert expr((3.0, 0, 0)).z_derivative().is_zero()


@pytest.mark.parametrize("scale", [1.0, 1e-15])  # 1e-15 drops scaled terms before the sum
def test_scaled_sum_is_the_sum_of_scaled_expressions(scale):
    rng = np.random.default_rng(20)
    for _ in range(300):
        x, y = _random_log_expr(rng), _random_log_expr(rng)
        y = y.with_cut_angle(x.cut_angle)
        a = complex(rng.uniform(-2, 2), rng.choice([0.0, rng.uniform(-2, 2)])) * scale
        b = float(rng.uniform(-2, 2))
        _same_to_the_bit(x._scaled_sum(a, y, b), x * a + y * b)
        _same_to_the_bit(x._scaled_sum(a, x, b), x * a + x * b)
        p, q = _random_bivariate(rng), _random_bivariate(rng)
        _same_to_the_bit(p._scaled_sum(a, q, b), p * a + q * b)


def test_scaled_sum_raises_as_the_scaled_expressions_do():
    x, y = expr((1.0, 0, 0), (1e308, 1, 0)), expr((1e308, 1, 0), (2.0, 2, 0))
    for a, b in ((1e10, 1.0), (1.0, 1e10), (1.0, 1.0)):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            x * a + y * b
        with pytest.raises(ValueError, match="non-finite coefficient"):
            x._scaled_sum(a, y, b)


def test_plus_constant_is_the_sum_with_a_constant():
    rng = np.random.default_rng(21)
    for _ in range(200):
        e = _random_log_expr(rng)
        values = (
            float(rng.uniform(-2, 2)), complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            -next((t.coeff for t in e.terms if t.power == t.logpow == 0), 0j), 1e-16, 0.0,
        )
        for value in values:
            want = e + LogLaurentExpr([(value, 0, 0)], e.cut_angle)
            _same_to_the_bit(e._plus_constant(value), want)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            expr((1.0, 0, 0), (0.5j, 1, 0))._plus_constant(value)


def _plus_constant_reference(e, value):
    """_plus_constant as the sum normalized whole."""
    acc = dict(e._terms)
    c = 0j + complex(value)
    if not abs(c) < COEFF_EPS:
        acc[0, 0] = acc.get((0, 0), 0j) + c
    return LogLaurentExpr._build(acc, e.cut_angle)


def _built_or_error(fn):
    try:
        return fn()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "terms, value",
    [
        ([(0.75 - 0.5j, 0, 0), (0.5j, 1, 0), (2.0, -1, 1)], -(0.75 - 0.5j) + 3e-16),  # below EPS
        ([(0.75 - 0.5j, 0, 0), (0.5j, 1, 0), (2.0, -1, 1)], -(0.75 - 0.5j)),  # exactly 0
        ([(0.75 - 0.5j, 0, 0), (0.5j, 1, 0)], 0.25),
        ([(0.5j, 1, 0), (2.0, -1, 1)], -0.5 + 0.25j),  # a new entry, last in term order
        ([(0.5j, 1, 0), (2.0, -1, 1)], 1e-16),
        ([(0.5j, 1, 0), (2.0, -1, 1)], 0.0),
        ([(0.5j, 1, 0), (2.0, -1, 1)], math.nan),
        ([(0.75, 0, 0), (0.5j, 1, 0)], complex(0.0, math.nan)),
        ([(0.5j, 1, 0)], -math.inf),
        ([(1e308, 0, 0), (1.0, 2, 1)], 1e308),  # the entry overflows to inf
        ([(1e308, 0, 0), (1.0, 2, 1)], 1e308j),  # the entry's modulus, ~1.41e308, is finite
    ],
)
def test_plus_constant_normalizes_only_an_entry_that_needs_it(terms, value, monkeypatch):
    normalized = []
    normalize = _SparseSum.__init__

    def counting_init(self, acc):
        normalized.append(self)
        normalize(self, acc)

    for cut in (math.pi, 2.0):
        e = LogLaurentExpr(terms, cut)
        want = _built_or_error(lambda: _plus_constant_reference(e, value))
        monkeypatch.setattr(_SparseSum, "__init__", counting_init)
        got = _built_or_error(lambda: e._plus_constant(value))
        monkeypatch.undo()
        if isinstance(want, tuple):
            assert got == want
            continue
        _same_to_the_bit(got, want)
        assert got.cut_angle == cut and got.has_log() == want.has_log()
        assert got.differentiate() == want.differentiate()
        # unless the constant is dropped or the entry is, nothing is normalized again
        kept = abs(0j + value) < COEFF_EPS or (0, 0) in want._terms
        assert len(normalized) == (0 if kept else 1)
        normalized.clear()


def test_plus_constant_whose_entry_modulus_overflows_raises_as_a_constructor():
    # the entry 1.5e308 + 1.5e308j is finite, but abs raises OverflowError;
    # the sum then takes the full normalization, which names the coefficient
    e = LogLaurentExpr([(1.5e308, 0, 0), (1.0, 1, 0)])
    with pytest.raises(ValueError, match=_modulus_message(HUGE)):
        e._plus_constant(1.5e308j)


def _near_resonance(a, b, k):
    """The resonance test of the Euler solver as one bound."""
    s = a + b * k
    return s != 0.0 and abs(s) < 1e-12 * max(1.0, abs(a), abs(b * k))


def test_the_split_resonance_test_raises_where_the_one_bound_did():
    cases = []
    for b in (1.0, -0.3, 1e-13, 7.5e5, -(2.0**40)):
        for k in (-6, -1, 0, 1, 3, 1000):
            bk = b * k
            for a in (0.0, 1.0, -2.5, 1e9, -1e15, 1e-12, -1e-12, -bk, 1e-3 - bk):
                cases.append((a, b, k))
            # a stepped by ulps across -b k +- the bound, so that s = a + b k
            # crosses it on either side of 0; where |a| is small, s lands
            # within a few ulps of the bound
            for sign in (1.0, -1.0):
                a = -bk + sign * 1e-12 * max(1.0, abs(bk))
                for _ in range(4):
                    a = math.nextafter(a, math.inf)
                for _ in range(9):
                    cases.append((a, b, k))
                    a = math.nextafter(a, -math.inf)
    outcomes = set()
    for a, b, k in cases:
        try:
            LogLaurentExpr.monomial(1.0, k)._solve_euler(a, b)
            raised = False
        except ResonanceError:
            raised = True
        assert raised == _near_resonance(a, b, k), (a, b, k)
        outcomes.add((raised, a + b * k == 0.0))
    assert outcomes == {(True, False), (False, False), (False, True)}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_a_non_finite_coefficient_is_named(bad):
    # the first non-finite coefficient is named, also next to a sum that overflows
    for cls, key in ((LogLaurentExpr, (2, 1)), (BivariateLaurentExpr, (2, 1))):
        with pytest.raises(ValueError, match=re.escape(f"non-finite coefficient {0j + bad!r}")):
            cls({(0, 0): 1e308, key: bad, (3, 0): 1e308, (4, 0): math.inf})


def test_finite_coefficients_whose_sum_overflows_build():
    e = LogLaurentExpr({(0, 0): 1e308, (1, 0): 1e308})
    assert e.terms == (LogLaurentTerm(1e308, 0, 0), LogLaurentTerm(1e308, 1, 0))
    phi = BivariateLaurentExpr({(0, 0): -1.7e308, (1, 0): -1.7e308})
    assert [(t["re"], t["kz"]) for t in phi.to_json()] == [(-1.7e308, 0), (-1.7e308, 1)]


def test_coefficients_below_the_threshold_are_dropped():
    e = LogLaurentExpr({(0, 0): 9.9e-16, (1, 0): COEFF_EPS, (2, 0): -5e-16j, (3, 1): 1.0})
    assert list(e._terms) == [(1, 0), (3, 1)]
    assert e.z_derivative().terms == expr((3.0, 3, 1), (1.0, 3, 0), (COEFF_EPS, 1, 0)).terms


def test_the_constructor_keeps_no_reference_to_its_argument():
    terms = {(0, 0): 1.0, (2, 1): 2.0}
    e, phi = LogLaurentExpr(terms), BivariateLaurentExpr(terms)
    terms[0, 0] = 5.0
    terms[3, 0] = 1.0
    del terms[2, 1]
    assert e == expr((1.0, 0, 0), (2.0, 2, 1))
    assert phi == BivariateLaurentExpr([(1.0, 0, 0), (2.0, 2, 1)])


# -- the term loops against the loops they replaced ---------------------------


def _log_sum_reference(e, z, lg):
    """The sum, in ``_terms`` order, of c * z**k * lg**m, every power taken,
    the zeroth ones too."""
    total = 0j
    for (k, m), c in e._terms.items():
        total += c * z**k * lg**m
    return total


def _bivariate_reference(phi, z, zeta):
    """The sum, in ``_terms`` order, of c * z**kz * zeta**kzeta, every power
    taken and every term tested for a negative power at 0."""
    total = 0j
    for (kz, kzeta), c in phi._terms.items():
        if (kz < 0 and z == 0) or (kzeta < 0 and zeta == 0):
            raise DomainError("negative power evaluated at 0")
        total += c * z**kz * zeta**kzeta
    return total


def _seeded_coeff(rng):
    return complex(rng.uniform(-2, 2), rng.choice([0.0, rng.uniform(-2, 2)]))


def _seeded_log_expr(rng):
    """k in -4..4 and log powers 0..4 (or only 0), with at least one k = 0 term."""
    top = int(rng.choice([0, 4]))
    terms = [(_seeded_coeff(rng), 0, int(rng.integers(0, top + 1)))]
    for _ in range(int(rng.integers(0, 8))):
        terms.append((_seeded_coeff(rng), int(rng.integers(-4, 5)), int(rng.integers(0, top + 1))))
    rng.shuffle(terms)
    return LogLaurentExpr(terms, float(rng.choice([math.pi, 2.0, -1.0])))


def _seeded_bivariate_expr(rng, lowest):
    """A constant, a pure-z, a pure-zeta and mixed terms, powers in lowest..3."""

    def power():
        return int(rng.choice([p for p in range(lowest, 4) if p]))

    terms = [(_seeded_coeff(rng), 0, 0), (_seeded_coeff(rng), power(), 0), (_seeded_coeff(rng), 0, power())]
    for _ in range(int(rng.integers(1, 6))):
        terms.append((_seeded_coeff(rng), power(), power()))
    rng.shuffle(terms)
    return BivariateLaurentExpr(terms)


def _seeded_points(rng):
    """Six random points, then four with a zero part of either sign."""
    points = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6)]
    return points + [complex(1.5, 0.0), complex(-0.7, -0.0), complex(0.0, 2.0), complex(-0.0, -0.4)]


def test_log_sum_equals_the_loop_with_every_power():
    rng = np.random.default_rng(2101)
    for _ in range(300):
        e = _seeded_log_expr(rng)
        cut = e.cut_angle
        for z in _seeded_points(rng):
            if e.has_log() and cut_distance(cmath.phase(z), cut) < 1e-3:
                continue
            want = _log_sum_reference(e, z, branch_log(z, cut))
            assert e.eval(z) == want and e(z) == want
        for r in (0.3, 1.0, 2.5):
            theta = float(rng.uniform(-9.0, 9.0))
            assert e.ray_change(theta, r) == _value_on_ray(e, 1.0 / r, theta) - _value_on_ray(
                e, r, theta
            )
        with pytest.raises(DomainError):
            e.eval(0j)


def _per_term_sum(e, z, lg):
    """The sum, in ``_terms`` order, of c times z**k when k != 0 and times
    lg**m when m != 0, each power taken afresh for each term."""
    total = 0j
    for (k, m), c in e._terms.items():
        if k:
            c *= z**k
        if m:
            c *= lg**m
        total += c
    return total


def test_log_sum_reuses_each_power_bit_for_bit():
    # _sum takes z**k once per run of equal k and lg**m once per m >= 2, and
    # multiplies by lg itself for m = 1: the value is the per-term loop's to
    # the bit, signed zeros included, on shuffled terms and on Euler-solver
    # output, whose terms come in runs of one k with descending m
    rng = np.random.default_rng(2103)
    for _ in range(300):
        e = _seeded_log_expr(rng)
        for e in (e, e._solve_euler(float(rng.uniform(0.5, 2.0)), float(rng.choice([-1.0, 1.0])))):
            for z in _seeded_points(rng):
                if e.has_log() and cut_distance(cmath.phase(z), e.cut_angle) < 1e-3:
                    continue
                want = _per_term_sum(e, z, branch_log(z, e.cut_angle) if e.has_log() else None)
                assert repr(e.eval(z)) == repr(want)


def _outcome(f, *args):
    try:
        return f(*args)
    except DomainError:
        return DomainError


def test_bivariate_eval_equals_the_loop_with_every_power():
    rng = np.random.default_rng(2102)
    values_at_zero = poles_at_zero = 0
    for _ in range(300):
        phi = _seeded_bivariate_expr(rng, int(rng.choice([-3, 0])))
        points = _seeded_points(rng)
        w = points[0]
        pairs = list(zip(points, points[::-1])) + [(0j, w), (w, 0j), (0j, 0j), (-0.0 + 0j, w)]
        for z, zeta in pairs:
            want = _outcome(_bivariate_reference, phi, z, zeta)
            assert _outcome(phi.eval, z, zeta) == want
            assert _outcome(phi, z, zeta) == want
            pole = any((kz < 0 and z == 0) or (kzeta < 0 and zeta == 0) for kz, kzeta in phi._terms)
            assert (want is DomainError) == pole
            if z == 0 or zeta == 0:
                values_at_zero += not pole
                poles_at_zero += pole
    assert values_at_zero > 300 and poles_at_zero > 300


def test_bivariate_pole_test_reads_only_the_zero_variable():
    phi = BivariateLaurentExpr([(1.0, -1, 0), (2.0, 0, 2)])  # 1/z + 2 zeta^2
    for z, zeta in ((0j, 1.5), (0j, 0j), (-0.0, 2.0)):
        with pytest.raises(DomainError, match="negative power evaluated at 0"):
            phi.eval(z, zeta)
    assert phi.eval(2.0, 0j) == 0.5
    psi = BivariateLaurentExpr([(1.0, 2, -1), (3.0, 1, 0)])  # z^2/zeta + 3 z
    assert psi.eval(0j, 4.0) == 0
    with pytest.raises(DomainError):
        psi(1.0, 0j)
    assert BivariateLaurentExpr([(1.0, 0, 0), (2.0, 1, 1), (0.5j, 0, 3)]).eval(0j, 0j) == 1
    # the pole test runs before any term: z**-2 at z = 1e-200, which comes
    # first and divides by an underflowed 0, is not reached
    chi = BivariateLaurentExpr([(1.0, -2, 0), (1.0, 0, -1)])
    with pytest.raises(DomainError):
        chi.eval(1e-200, 0j)


def test_a_negative_power_beyond_the_float_range_is_a_domain_error():
    # z**-2 at a nonzero z whose square underflows divides by zero in binary64
    cases = [
        (lambda: expr((1.0, 1, 0), (1.0, -2, 0)).eval(1e-200), "at z = (1e-200+0j)"),
        (lambda: expr((1.0, -2, 1)).eval(1e-200), "at z = (1e-200+0j)"),
        (lambda: BivariateLaurentExpr([(1.0, 0, 1), (1.0, -2, 0)]).eval(1e-200, 1.0),
         "at (z, zeta) = ((1e-200+0j), (1+0j))"),
        (lambda: BivariateLaurentExpr([(1.0, 1, -3)]).eval(2.0, 1e-150j),
         "at (z, zeta) = ((2+0j), 1e-150j)"),
        (lambda: expr((1.0, -2, 0)).ray_change(0.0, 1e-300),
         "on the ray from z = (9.999999999999999e+299+0j) to z = (1e-300+0j)"),
        (lambda: expr((1.0, -2, 1), (1.0, 1, 0)).ray_change(0.5, 1e200),
         "on the ray from z = "),
    ]
    for compute, where in cases:
        with pytest.raises(PowerUnderflowError, match=re.escape(f"a negative power {where}")) as info:
            compute()
        assert isinstance(info.value, DomainError) and isinstance(info.value, ZeroDivisionError)
    # a negative power that stays in range still evaluates
    assert expr((1.0, -1, 0)).eval(1e-200) == 1e200


def test_a_power_that_overflows_is_the_range_error():
    # a power whose result is infinite overflows in binary64, which raises a
    # bare OverflowError; every term loop raises the package's error instead
    phi = BivariateLaurentExpr([(1.0, 3, 0), (1.0, 0, 1)])
    unit = harmonia.SchwarzMap.unit_circle()
    cases = [
        (lambda: expr((1.0, 2, 0)).eval(1e160), "at z = (1e+160+0j)"),
        (lambda: expr((1.0, -2, 0), (0.5, 2, 1)).eval(complex(1e-300, 1e300)),
         "at z = (1e-300+1e+300j)"),
        (lambda: expr((1.0, 3, 0)).ray_change(0.0, 1e200),
         "on the ray from z = (1e-200+0j) to z = (1e+200+0j)"),
        (lambda: phi.eval(1e200, 1.0), "at (z, zeta) = ((1e+200+0j), (1+0j))"),
        (lambda: phi.ray_kernel(1 + 0j)(1e200 + 0j), "at (z, zeta) = ((1e+200+0j), (1e-200+0j))"),
        (lambda: phi.schwarz_kernel(unit.form, 1j, 0j)(1e200 + 0j),
         "at (z, zeta) = ((1e+200+0j), (1e-200+0j))"),
    ]
    for compute, where in cases:
        with pytest.raises(RangeError, match=re.escape(f"a power {where} is beyond")) as info:
            compute()
        assert isinstance(info.value, OverflowError) and not isinstance(info.value, DomainError)
    # a power that stays in range still evaluates
    assert expr((1.0, 2, 0)).eval(2.0**500) == 2.0**1000


def test_a_sum_that_is_not_finite_is_the_range_error():
    # where both parts of a power overflow, inf - inf gives NaN, and where a
    # product or the running sum overflows, inf: binary64 raises neither, so
    # each term loop tests its total once and names the point
    w = 1e200 * cmath.exp(0.5j)
    ez = cmath.exp(0.5j)
    cases = [
        (lambda: expr((1.0, 2, 0)).eval(w), f"at z = {w!r}"),
        (lambda: BivariateLaurentExpr([(1.0, 2, 0)]).eval(w, 1.0),
         f"at (z, zeta) = ({w!r}, (1+0j))"),
        (lambda: expr((1.0, 3, 0)).ray_change(0.5, 1e200),
         f"on the ray from z = {(1.0 / 1e200) * ez!r} to z = {1e200 * ez!r}"),
        (lambda: expr((1e300, 1, 0)).eval(1e10), "at z = (10000000000+0j)"),
        (lambda: expr((1e308, 0, 0), (1e308, 1, 0)).eval(1.5), "at z = (1.5+0j)"),
    ]
    for compute, where in cases:
        with pytest.raises(RangeError, match=re.escape(f"the sum {where} is beyond")) as info:
            compute()
        assert isinstance(info.value, OverflowError) and not isinstance(info.value, DomainError)
    # the largest finite sums still evaluate
    assert expr((1e308, 0, 0), (0.7e308, 1, 0)).eval(1.0) == 1.7e308


# a finite coefficient whose modulus |c| is beyond the float range
HUGE = complex(1.5e308, 1.5e308)


def _modulus_message(c):
    return re.escape(f"coefficient {c!r} has a modulus beyond the float range")


@pytest.mark.parametrize(
    "build",
    [
        lambda: LogLaurentExpr([(HUGE, 0, 0)]),
        lambda: LogLaurentExpr([(1.0, 1, 0), (HUGE, 2, 1), (0.5, 3, 0)]),
        lambda: LogLaurentExpr({(1, 0): 1e308, (2, 0): HUGE, (3, 0): 1e308}),  # the sum overflows
        lambda: BivariateLaurentExpr([(HUGE, 0, 0)]),
        lambda: BivariateLaurentExpr([(1.0, 1, 0), (HUGE, 1, -1)]),
        lambda: expr((1.0, 0, 0))._plus_constant(HUGE),
    ],
    ids=["log", "log-among-others", "log-sum-overflows", "bivariate", "bivariate-among-others",
         "plus-constant"],
)
def test_a_coefficient_whose_modulus_overflows_is_named(build):
    with pytest.raises(ValueError, match=_modulus_message(HUGE)):
        build()


def test_a_coefficient_whose_modulus_overflows_raises_range_error():
    # a RangeError is still the ValueError the tests above match, and the
    # OverflowError that a caller treating arithmetic failure as bad input catches
    big = complex(1e308, 1e308)
    for build in (lambda: LogLaurentExpr([(HUGE, 0, 0)]),
                  lambda: BivariateLaurentExpr([(1.0, 1, 0), (HUGE, 1, -1)]),
                  lambda: expr((1.0, 0, 0))._plus_constant(HUGE),
                  lambda: LogLaurentExpr({(1, 0): big})._scaled_sum(1.5, expr((2, 0, 0)), 1.0)):
        with pytest.raises(RangeError) as info:
            build()
        assert isinstance(info.value, OverflowError)


def test_a_scaled_coefficient_whose_modulus_overflows_is_named():
    big = complex(1e308, 1e308)  # its modulus 1.41e308 is in range, 1.5 times it is not
    scaled = big * complex(1.5)
    for cls, key in ((LogLaurentExpr, (1, 0)), (BivariateLaurentExpr, (1, 1))):
        x, y = cls({key: big, (2, 0): 1.0}), cls({(2, 0): 1.0, (3, 0): 2.0})
        with pytest.raises(ValueError, match=_modulus_message(scaled)):
            x._scaled_sum(1.5, y, 1.0)
        with pytest.raises(ValueError, match=_modulus_message(scaled)):
            y._scaled_sum(1.0, x, 1.5)


# -- term input, copies and the memoized Euler derivative --------------------


@pytest.mark.parametrize("cls", [LogLaurentExpr, BivariateLaurentExpr])
@pytest.mark.parametrize("term", [(1.0,), (1.0, 2, 0, 99), (1.0, 2, 0, 99, 7)])
def test_a_term_tuple_of_another_length_is_named(cls, term):
    with pytest.raises(ValueError, match=re.escape(f"term {term!r} is not (coeff, ")):
        cls([term])


def test_a_log_term_tuple_may_leave_out_its_log_power():
    assert LogLaurentExpr([(1.0, 2)]) == LogLaurentExpr([(1.0, 2, 0)])
    with pytest.raises(ValueError, match=re.escape("term (1.0, 2) is not (coeff, zpow")):
        BivariateLaurentExpr([(1.0, 2)])


_BAD_EXPONENTS = [2.7, -0.5, math.nan, math.inf, "2"]


def _log_inputs(k, m):
    return {
        "tuple": [(1.0, k, m)],
        "term": [LogLaurentTerm(1.0, k, m)],
        "mapping": {(k, m): 1.0},
    }


@pytest.mark.parametrize("form", ["tuple", "term", "mapping"])
@pytest.mark.parametrize("place", ["power", "logpow"])
@pytest.mark.parametrize("bad", _BAD_EXPONENTS, ids=repr)
def test_a_log_exponent_that_is_no_integer_is_named(form, place, bad):
    k, m = (bad, 0) if place == "power" else (2, bad)
    with pytest.raises(ValueError, match=re.escape(f"exponent {bad!r} is not an integer")):
        LogLaurentExpr(_log_inputs(k, m)[form])


@pytest.mark.parametrize("form", ["tuple", "mapping"])
@pytest.mark.parametrize("place", ["zpow", "zetapow"])
@pytest.mark.parametrize("bad", _BAD_EXPONENTS, ids=repr)
def test_a_bivariate_exponent_that_is_no_integer_is_named(form, place, bad):
    kz, kzeta = (bad, -1) if place == "zpow" else (2, bad)
    terms = [(1.0, kz, kzeta)] if form == "tuple" else {(kz, kzeta): 1.0}
    with pytest.raises(ValueError, match=re.escape(f"exponent {bad!r} is not an integer")):
        BivariateLaurentExpr(terms)


def test_the_constructor_merges_every_term_shape_alike_and_in_order():
    # a plain (c, k, m) tuple with int exponents is merged in the
    # constructor's own loop, every other shape through _merge: the same
    # sums in the same key order, and the first bad term in order raises
    plain = [(0.5, 2, 1), (1j, -1, 0), (0.25, 2, 1), (2.0, 0, 3), (0.125, 1, 0)]
    others = [LogLaurentTerm(0.5, 2, 1), [1j, -1, 0], (0.25, 2.0, 1), (2.0, np.int64(0), 3),
              (0.125, 1)]
    want = LogLaurentExpr(plain)
    assert list(want._terms.items()) == [((2, 1), 0.75), ((-1, 0), 1j), ((0, 3), 2), ((1, 0), 0.125)]
    for terms in (others, [others[0], plain[1], others[2], plain[3], others[4]]):
        assert list(LogLaurentExpr(terms)._terms.items()) == list(want._terms.items())
    with pytest.raises(ValueError, match=re.escape("exponent 2.5 is not an integer")):
        LogLaurentExpr([(1.0, 1, -1), (1.0, 2.5, 0), (1.0, 2, "x")])
    with pytest.raises(ValueError, match="negative log power -1"):
        LogLaurentExpr([(1.0, 1, -1), (1.0, 2.0, 0)])
    with pytest.raises(TypeError):
        LogLaurentExpr([(1.0, 1, 0), (None, 2, 0)])


@pytest.mark.parametrize("form", ["tuple", "term", "mapping"])
@pytest.mark.parametrize("two", [2.0, np.int64(2), np.float64(2.0), np.int8(2)], ids=repr)
def test_an_exponent_equal_to_an_integer_is_that_integer(form, two):
    e = LogLaurentExpr(_log_inputs(two, two)[form])
    assert e == expr((1.0, 2, 2))
    assert all(type(k) is int and type(m) is int for k, m in e._terms)
    phi = BivariateLaurentExpr([(1.0, two, -two)] if form != "mapping" else {(two, -two): 1.0})
    assert phi == BivariateLaurentExpr([(1.0, 2, -2)])


@pytest.mark.parametrize(
    "e",
    [
        LogLaurentExpr([(1.0 - 2j, 3, 2), (0.5, -1, 0)], 2.0),
        LogLaurentExpr(),
        BivariateLaurentExpr([(1.0 - 2j, 3, -2), (0.25j, 0, 1)]),
    ],
    ids=["log", "zero", "bivariate"],
)
def test_expressions_pickle_and_are_their_own_copies(e):
    e.differentiate() if isinstance(e, LogLaurentExpr) else e.restrict_to_circle()
    assert copy.copy(e) is e and copy.deepcopy(e) is e
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is type(e) and back is not e
    assert back == e and hash(back) == hash(e) and repr(back) == repr(e)
    assert _hex_json(back) == _hex_json(e)
    if isinstance(e, LogLaurentExpr):
        assert back.cut_angle == e.cut_angle and back.has_log() == e.has_log()
        assert back.differentiate() == e.differentiate()
    with pytest.raises(AttributeError):
        back._terms = {}


def test_z_derivative_is_computed_once():
    e = expr((1.0, 3, 2), (0.5j, -1, 0), (2.0, 0, 1))
    d = e.z_derivative()
    assert e.z_derivative() is d
    assert d == expr((3.0, 3, 2), (2.0, 3, 1), (-0.5j, -1, 0), (2.0, 0, 0))
    with pytest.raises(AttributeError):
        e._z_derivative = None


# -- the term dict stays inside the algebra -----------------------------------


def _term_dict_uses(source: str) -> list:
    """Lines of source that read ``._terms`` or reach ``._build``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("_terms", "_build")
    )


def test_only_the_algebra_reads_the_term_dict():
    package = Path(harmonia.__file__).parent
    uses = {
        path.name: _term_dict_uses(path.read_text())
        for path in sorted(package.glob("*.py"))
        if path.name != "algebra.py"
    }
    assert {name: lines for name, lines in uses.items() if lines} == {}
    # negative control: the two forms the Robin solver once used are found,
    # a name that merely starts the same way is not
    control = (
        "for (k, m), c in sorted(rhs._terms.items()):\n"
        "    pass\n"
        "h = LogLaurentExpr._build(acc, f.cut_angle)\n"
        "parser = _build_parser()\n"
    )
    assert _term_dict_uses(control) == [1, 3]
    assert _term_dict_uses((package / "algebra.py").read_text())


# -- mirrored bivariate data ----------------------------------------------------


def test_bivariate_mirrored_flag():
    phi = BivariateLaurentExpr([
        (0.5 + 0.2j, 2, -1), (0.5 - 0.2j, -1, 2), (1.5, 1, 1), (0.25, 0, 0),
        (-3j, 0, 3), (3j, 3, 0),
    ])
    assert phi.mirrored and BivariateLaurentExpr.zero().mirrored
    # real data: conj phi(z, zeta) = phi(conj zeta, conj z)
    z, zeta = 0.7 + 0.3j, 1.1 - 0.4j
    assert abs(phi(z, zeta).conjugate() - phi(zeta.conjugate(), z.conjugate())) < 1e-14
    not_mirrored = [
        [(0.5 + 0.2j, 2, -1)],  # a term without its partner
        [(0.5 + 0.2j, 2, -1), (0.5 + 0.2j, -1, 2)],  # a partner not conjugated
        [(1.5, 1, 1), (0.25 + 1e-3j, 0, 0)],  # a diagonal term with an imaginary part
        [(0.5 + 0.2j, 2, -1), (math.nextafter(0.5, 1.0) - 0.2j, -1, 2)],  # one ulp off
    ]
    for terms in not_mirrored:
        assert not BivariateLaurentExpr(terms).mirrored
    # derived: ==, hash, repr and JSON do not see it, and it survives pickling
    fresh = BivariateLaurentExpr.from_json(phi.to_json())
    assert fresh._mirrored is None and phi._mirrored is True
    assert fresh == phi and hash(fresh) == hash(phi) and repr(fresh) == repr(phi)
    assert _hex_json(fresh) == _hex_json(phi)
    for e in (phi, BivariateLaurentExpr(not_mirrored[0])):
        back = pickle.loads(pickle.dumps(e))
        assert back.mirrored == e.mirrored and copy.deepcopy(e).mirrored == e.mirrored
    with pytest.raises(AttributeError):
        phi._mirrored = False


# -- arithmetic across branch cuts --------------------------------------------


def test_arithmetic_across_cuts_raises_in_either_order():
    from harmonia.harmonic import HarmonicPair, RobinParams
    from harmonia.operators import solve_robin_analytic

    # a sum once kept its left operand's cut, so at -1 + 0.5j the log of the
    # other operand was taken on the wrong branch, off by 2 pi i
    rotated, default = LogLaurentExpr([(1, 0, 1)], 2.0), LogLaurentExpr([(1, 0, 1)])
    log_free = LogLaurentExpr([(1.0, 2, 0)], 2.0)
    for x, y in ((rotated, default), (default, rotated), (log_free, default)):
        for op in (
            lambda: x + y, lambda: x - y, lambda: x * y, lambda: x._scaled_sum(2.0, y, 0.5),
            lambda: HarmonicPair(x) + HarmonicPair(y),
            lambda: HarmonicPair(x) - HarmonicPair(y),
            lambda: solve_robin_analytic(x, y, RobinParams(0.5, 1.0)),
        ):
            with pytest.raises(CutMismatchError) as err:
                op()
            assert repr(x.cut_angle) in str(err.value) and repr(y.cut_angle) in str(err.value)
    assert issubclass(CutMismatchError, harmonia.HarmoniaError)


def _sum_reference(x, y):
    acc = dict(x._terms)
    for key, c in y._terms.items():
        acc[key] = acc.get(key, 0j) + c
    return acc


def _product_reference(x, y):
    acc = {}
    for (a1, b1), c1 in x._terms.items():
        for (a2, b2), c2 in y._terms.items():
            key = (a1 + a2, b1 + b2)
            acc[key] = acc.get(key, 0j) + c1 * c2
    return acc


def _scaled_sum_reference(x, a, y, b):
    acc = {}
    for key, c in x._terms.items():
        if not abs(c * a) < COEFF_EPS:
            acc[key] = c * a
    for key, c in y._terms.items():
        if not abs(c * b) < COEFF_EPS:
            acc[key] = acc.get(key, 0j) + c * b
    return acc


def test_same_cut_arithmetic_is_unchanged_to_the_bit():
    rng = np.random.default_rng(26)
    for _ in range(300):
        x = _random_log_expr(rng)
        y = _random_log_expr(rng).with_cut_angle(x.cut_angle)
        a, b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        cut = x.cut_angle
        _same_to_the_bit(x + y, LogLaurentExpr._build(_sum_reference(x, y), cut))
        _same_to_the_bit(x - y, LogLaurentExpr._build(_sum_reference(x, -y), cut))
        _same_to_the_bit(x * y, LogLaurentExpr._build(_product_reference(x, y), cut))
        _same_to_the_bit(
            x._scaled_sum(a, y, b), LogLaurentExpr._build(_scaled_sum_reference(x, a, y, b), cut)
        )
        p, q = _random_bivariate(rng), _random_bivariate(rng)
        _same_to_the_bit(p + q, BivariateLaurentExpr._build(_sum_reference(p, q)))
        _same_to_the_bit(p * q, BivariateLaurentExpr._build(_product_reference(p, q)))
