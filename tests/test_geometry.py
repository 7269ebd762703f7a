import cmath
import copy
import math
import pickle

import numpy as np
import pytest

from harmonia.errors import BranchPointOnPathError, PoleError
from harmonia.geometry import (
    BiPoint,
    PathSpec,
    SchwarzMap,
    _segment_pole_distance,
    anti_conformal_reflect,
    reflect_bipoint,
    sqrt_inverse_schwarz_derivative,
    sqrt_schwarz_derivative,
)
from harmonia.numerics import integrate_path
from harmonia.verification import _SUITE_MAPS

MAPS = [
    SchwarzMap.unit_circle(),
    SchwarzMap.circle(0.3 - 0.2j, 1.7),
    SchwarzMap.circle(1.0 + 0j, 2.0),
    SchwarzMap.line(0.0j, 0.0),
    SchwarzMap.line(0.5j, 0.3),
]


def _map_id(smap):
    """A test id; the unit circle keeps the name it had as a map kind."""
    return ("unit_circle" if smap == SchwarzMap.unit_circle() else smap.kind) + str(smap.center)


def test_unit_circle_values():
    smap = SchwarzMap.unit_circle()
    z = cmath.exp(0.7j)
    assert abs(smap.value(z) - z.conjugate()) < 1e-15
    assert abs(smap.value(2.0 + 0j) - 0.5) < 1e-15
    assert abs(smap.inverse_value(0.5 + 0j) - 2.0) < 1e-15


def test_offset_circle_on_curve_value():
    # z = 3 lies on |z - 1| = 2, so S(3) = conj(3) = 3
    smap = SchwarzMap.circle(1.0 + 0j, 2.0)
    assert abs(smap.value(3.0 + 0j) - 3.0) < 1e-15


def test_centered_circle_inverse():
    smap = SchwarzMap.circle(0j, 2.0)
    assert abs(smap.inverse_value(1.0 + 0j) - 4.0) < 1e-15


def test_real_axis_schwarz_is_identity():
    smap = SchwarzMap.line(0j, 0.0)
    w = 3.0 - 1.0j
    assert abs(smap.value(w) - w) < 1e-15
    assert abs(smap.inverse_value(w) - w) < 1e-15


@pytest.mark.parametrize("smap", MAPS, ids=_map_id)
def test_on_curve_identity(smap):
    for z in smap.curve_points(64):
        assert smap.on_curve_residual(z) < 1e-12


@pytest.mark.parametrize("smap", MAPS, ids=_map_id)
def test_inverse_consistency_near_curve(smap):
    for z in smap.curve_points(16):
        for offset in (0.25, -0.2, 0.1):
            w = z + offset * smap.outward_normal(z)
            assert abs(smap.inverse_value(smap.value(w)) - w) < 1e-12
            assert abs(smap.value(smap.inverse_value(w)) - w) < 1e-12


def test_a_bipoint_is_an_immutable_named_tuple():
    p = BiPoint(1 + 2j, 1 - 2j)
    for name in ("z", "zeta", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0j)
    assert repr(p) == "BiPoint(z=(1+2j), zeta=(1-2j))"
    twin = BiPoint(z=1 + 2j, zeta=1 - 2j)
    assert p == twin and hash(p) == hash(twin) and p != BiPoint(1 + 2j, 1 + 2j)
    for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert back == p and type(back) is BiPoint
    # the tuple (z, zeta): it unpacks, has len 2 and equals the plain tuple
    z, zeta = p
    assert (z, zeta) == (1 + 2j, 1 - 2j) and len(p) == 2
    assert p == (1 + 2j, 1 - 2j) and hash(p) == hash((1 + 2j, 1 - 2j))
    q = BiPoint.from_polar(2.0, 0.5)
    assert type(q) is BiPoint and q == (2.0 * cmath.exp(0.5j), 2.0 * cmath.exp(-0.5j))


def test_reflect_bipoint_unit_circle():
    p = BiPoint.from_polar(0.5, 0.8)
    q = reflect_bipoint(SchwarzMap.unit_circle(), p)
    assert abs(q.z - cmath.exp(0.8j) / 0.5) < 1e-14
    assert abs(q.zeta - 1.0 / (0.5 * cmath.exp(0.8j))) < 1e-14


def test_reflect_bipoint_boundary_fixed():
    p = BiPoint.from_polar(1.0, -1.1)
    q = reflect_bipoint(SchwarzMap.unit_circle(), p)
    assert abs(q.z - p.z) < 1e-14 and abs(q.zeta - p.zeta) < 1e-14


def test_reflect_bipoint_scaled_circle():
    q = reflect_bipoint(SchwarzMap.circle(0j, 2.0), BiPoint(1.0 + 0j, 1.0 + 0j))
    assert abs(q.z - 4.0) < 1e-14 and abs(q.zeta - 4.0) < 1e-14


@pytest.mark.parametrize("smap", MAPS, ids=_map_id)
def test_reflection_involution(smap):
    for z in smap.curve_points(8):
        w = z + 0.2 * smap.outward_normal(z)
        p = BiPoint(w, w.conjugate())
        q = reflect_bipoint(smap, reflect_bipoint(smap, p))
        assert abs(q.z - p.z) + abs(q.zeta - p.zeta) < 1e-12


def test_anti_conformal_examples():
    unit = SchwarzMap.unit_circle()
    assert np.allclose(anti_conformal_reflect(unit, 0.5, 0.0), (2.0, 0.0))
    x, y = math.cos(0.4), math.sin(0.4)
    assert np.allclose(anti_conformal_reflect(unit, x, y), (x, y))
    assert np.allclose(anti_conformal_reflect(SchwarzMap.line(0j, 0.0), 3.0, 1.0), (3.0, -1.0))


@pytest.mark.parametrize("smap", MAPS, ids=_map_id)
def test_real_slice_compatibility(smap):
    for z in smap.curve_points(8):
        w = z + 0.15 * smap.outward_normal(z)
        q = reflect_bipoint(smap, BiPoint(w, w.conjugate()))
        x, y = anti_conformal_reflect(smap, w.real, w.imag)
        assert abs(q.z - complex(x, y)) < 1e-12
        assert abs(q.zeta - complex(x, -y)) < 1e-12


def test_pole_errors():
    smap = SchwarzMap.circle(1.0 + 2.0j, 0.5)
    with pytest.raises(PoleError):
        smap.value(1.0 + 2.0j)
    with pytest.raises(PoleError):
        smap.inverse_value(1.0 - 2.0j)
    with pytest.raises(PoleError, match="normal undefined at the circle center"):
        SchwarzMap.circle(0.3, 1.7).outward_normal(0.3)


def test_inverse_branch_names_the_inverse_maps_pole():
    # the segment passes through conj(c) = 0.3 + 0.2j, the pole of the inverse
    # map; the forward check runs on the conjugated segment, through c itself
    smap = SchwarzMap.circle(0.3 - 0.2j, 1.7)
    with pytest.raises(BranchPointOnPathError) as exc:
        sqrt_inverse_schwarz_derivative(smap, PathSpec.segment(-0.7 + 0.2j, 1.3 + 0.2j))
    assert str(exc.value).startswith("the map pole (0.3+0.2j) lies within"), str(exc.value)


@pytest.mark.parametrize("z", [1e-300, 1e-300j, 1e-160])
@pytest.mark.parametrize("method", ["derivative", "inverse_derivative"])
def test_derivative_within_underflow_of_the_pole_raises(method, z):
    # (g w + h)^2 underflows to 0 at 1e-300, and det/(g w + h)^2 overflows
    # at 1e-160; neither may escape as ZeroDivisionError or an infinite S'
    with pytest.raises(PoleError, match="has a pole at"):
        getattr(SchwarzMap.unit_circle(), method)(z)


def _written_out(smap):
    """S, S~, S', S~', the pole and the on-curve normal, written out per
    carrier: the reference the one centred form must reproduce."""
    if smap.kind == "line":
        p, a = smap.point, smap.angle
        return (
            lambda z: p.conjugate() + cmath.exp(-2j * a) * (z - p),
            lambda xi: p + cmath.exp(2j * a) * (xi - p.conjugate()),
            lambda z: cmath.exp(-2j * a),
            lambda xi: cmath.exp(2j * a),
            None,
            lambda z: 1j * cmath.exp(1j * a),
        )
    c, r = smap.center, smap.radius
    return (
        lambda z: c.conjugate() + r**2 / (z - c),
        lambda xi: c + r**2 / (xi - c.conjugate()),
        lambda z: -(r**2) / (z - c) ** 2,
        lambda xi: -(r**2) / (xi - c.conjugate()) ** 2,
        c,
        lambda z: (z - c) / abs(z - c),
    )


@pytest.mark.parametrize(
    "smap", MAPS + [SchwarzMap.circle(100 + 100j, 0.01)], ids=_map_id
)
def test_map_matches_the_written_out_formulas(smap):
    # a small circle far from 0 catches evaluation in an origin-based
    # (a z + b)/(c z + d), which loses ~1e-12 relative to cancellation there
    value, inverse, deriv, inverse_deriv, pole, normal = _written_out(smap)
    assert smap.pole == pole
    scale = smap.radius if smap.kind != "line" else 1.0
    on_curve = smap.curve_points(12)
    for q in on_curve:
        assert abs(smap.outward_normal(q) - normal(q)) <= 1e-14
        for s in (-0.6, -0.2, 0.3, 1.5):
            for z in (q + s * scale * normal(q), q + s * scale * (1 + 0.7j) * normal(q)):
                xi = z.conjugate()
                for got, want in (
                    (smap.value(z), value(z)),
                    (smap.inverse_value(xi), inverse(xi)),
                    (smap.derivative(z), deriv(z)),
                    (smap.inverse_derivative(xi), inverse_deriv(xi)),
                ):
                    assert abs(got - want) <= 1e-14 * abs(want), (z, got, want)


def test_sqrt_branch_unit_circle_radial():
    # along a radial ray into the boundary the validated branch is i/tau
    smap = SchwarzMap.unit_circle()
    branch = sqrt_schwarz_derivative(smap, PathSpec.radial_ray(0.0, 0.8, 1.0))
    for tau in (0.85 + 0j, 0.95 + 0j, 1.0 + 0j):
        assert abs(branch(tau) - 1j / tau) < 1e-12


def test_sqrt_branch_real_axis_is_one():
    smap = SchwarzMap.line(0j, 0.0)
    branch = sqrt_schwarz_derivative(smap, PathSpec.segment(0.2 + 0.3j, 1.0 + 0j))
    assert abs(branch(0.5 + 0.1j) - 1.0) < 1e-12


def test_sqrt_branch_scaled_circle_sign():
    # S' = -4/tau^2 on |z| = 2; outward validation selects +2i/tau
    smap = SchwarzMap.circle(0j, 2.0)
    branch = sqrt_schwarz_derivative(smap, PathSpec.segment(1.5 + 0j, 2.0 + 0j))
    assert abs(branch(1.7 + 0j) - 2j / 1.7) < 1e-12


def test_sqrt_inverse_branch_is_reciprocal_on_curve():
    for smap in (SchwarzMap.unit_circle(), SchwarzMap.circle(0j, 2.0)):
        zb = smap.default_base_point()
        path = PathSpec.segment(zb - 0.4, zb)
        fwd = sqrt_schwarz_derivative(smap, path)
        inv_path = PathSpec.segment(smap.value(zb) - 0.4, smap.value(zb))
        inv = sqrt_inverse_schwarz_derivative(smap, inv_path)
        assert abs(fwd(zb) * inv(smap.value(zb)) - 1.0) < 1e-10


def test_sqrt_branch_pole_on_path():
    smap = SchwarzMap.unit_circle()
    with pytest.raises(BranchPointOnPathError):
        sqrt_schwarz_derivative(smap, PathSpec.segment(-1.0 + 0j, 1.0 + 0j))


# a segment that never nears the carrier of any suite map, nor its mirror
_FAR_SEGMENT = PathSpec.segment(10.0 + 10.0j, 12.0 + 11.0j)


@pytest.mark.parametrize("smap", _SUITE_MAPS, ids=_map_id)
def test_a_branch_on_a_path_far_from_the_curve_squares_to_the_derivative(smap):
    # the root is one closed form, so a path need not meet the curve
    fwd = sqrt_schwarz_derivative(smap, _FAR_SEGMENT)
    inv = sqrt_inverse_schwarz_derivative(smap, _FAR_SEGMENT)
    nodes = []
    integrate_path(lambda tau: nodes.append(tau) or 0j, _FAR_SEGMENT)
    for tau in nodes:
        assert abs(fwd(tau) ** 2 - smap.derivative(tau)) <= 1e-14 * abs(smap.derivative(tau))
        want = smap.inverse_derivative(tau)
        assert abs(inv(tau) ** 2 - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("smap", _SUITE_MAPS, ids=_map_id)
def test_the_branch_sign_gives_the_outward_normal_on_the_whole_curve(smap):
    # one branch, built on a path that never nears the curve, at every
    # sample of the curve: i / sqrt(S') is the outward normal, and the
    # inverse branch at S(z) is its reciprocal
    fwd = sqrt_schwarz_derivative(smap, _FAR_SEGMENT)
    inv = sqrt_inverse_schwarz_derivative(smap, _FAR_SEGMENT)
    for z in smap.curve_points(16):
        assert abs(1j / fwd(z) - smap.outward_normal(z)) <= 1e-14, z
        assert abs(fwd(z) * inv(smap.value(z)) - 1.0) <= 1e-14, z


def _continued_reference(deriv, path, residual_of, target_of):
    """The branch continuation the closed form replaced: sqrt(deriv) carried
    by sign matching over 129 samples of the path, its sign
    fixed against the outward-normal target at the sample of least curve
    residual, and a query continued from its nearest sample."""
    points = [path.start + i / 128 * (path.end - path.start) for i in range(129)]
    values = [cmath.sqrt(deriv(points[0]))]
    for p in points[1:]:
        w = cmath.sqrt(deriv(p))
        values.append(w if abs(w - values[-1]) <= abs(w + values[-1]) else -w)
    i0 = min(range(len(points)), key=lambda i: residual_of(points[i]))
    target = target_of(points[i0])
    if abs(values[i0] + target) < abs(values[i0] - target):
        values = [-v for v in values]
    anchors = np.asarray(points)

    def branch(tau):
        v = values[int(np.argmin(np.abs(anchors - tau)))]
        w = cmath.sqrt(deriv(tau))
        return w if abs(w - v) <= abs(w + v) else -w

    return branch


def _reference_pair(smap):
    """Reference continuations of sqrt(S') and of sqrt(S~')."""

    def forward(path):
        return _continued_reference(
            smap.derivative,
            path,
            smap.on_curve_residual,
            lambda z: 1j / smap.outward_normal(z),
        )

    def inverse(path):
        return _continued_reference(
            smap.inverse_derivative,
            path,
            lambda xi: abs(smap.inverse_value(xi) - xi.conjugate()),
            lambda xi: -1j * smap.outward_normal(smap.inverse_value(xi)),
        )

    return forward, inverse


def _crossing_paths(smap, rng, n):
    """Segments across the curve, kept at least 0.4 r from a circle's centre,
    and radial rays from the origin across it."""
    scale = smap.radius if smap.kind != "line" else 1.0
    paths = []
    for _ in range(n):
        if smap.kind == "line":
            q = smap.point + float(rng.uniform(-2, 2)) * cmath.exp(1j * smap.angle)
        else:
            q = smap.center + smap.radius * cmath.exp(1j * float(rng.uniform(-math.pi, math.pi)))
        nrm = smap.outward_normal(q)
        s1, s2 = rng.uniform(0.05, 0.6, 2)
        j1, j2 = rng.uniform(-0.3, 0.3, 2)
        a = q + scale * (s1 + 1j * j1) * nrm
        b = q + scale * (-s2 + 1j * j2) * nrm
        rng.choice([1, 5, 16])  # a discarded draw keeps the seeded paths as they were
        if rng.uniform() < 0.5:
            a, b = b, a
        paths.append(PathSpec.segment(a, b))
        theta = float(rng.uniform(0.8, 2.3)) if smap.kind == "line" else float(rng.uniform(-3, 3))
        r_from, r_to = (0.2, 3.0) if smap.kind == "line" else (0.5, 2.5)
        if rng.uniform() < 0.5:
            r_from, r_to = r_to, r_from
        paths.append(PathSpec.radial_ray(theta, r_from, r_to))
    return paths


def _mirror(path):
    """The path conjugated, which crosses the inverse map's carrier."""
    return PathSpec.segment(path.start.conjugate(), path.end.conjugate())


@pytest.mark.parametrize(
    "smap",
    [SchwarzMap.unit_circle(), SchwarzMap.circle(0.3 - 0.2j, 1.7), SchwarzMap.line(0.5j, 0.3)],
    ids=_map_id,
)
def test_closed_form_branch_matches_the_continued_branch(smap):
    # at quadrature nodes and at points along the path, for both maps
    ref_forward, ref_inverse = _reference_pair(smap)
    rng = np.random.default_rng(111)
    for path in _crossing_paths(smap, rng, 12):
        for build, ref, p in (
            (sqrt_schwarz_derivative, ref_forward, path),
            (sqrt_inverse_schwarz_derivative, ref_inverse, _mirror(path)),
        ):
            branch, want = build(smap, p), ref(p)
            nodes = [p.start + i / 32 * (p.end - p.start) for i in range(33)]
            integrate_path(lambda tau: nodes.append(tau) or 0j, p)
            for tau in nodes:
                assert abs(branch(tau) - want(tau)) <= 1e-13 * abs(want(tau)), (p, tau)


@pytest.mark.parametrize(
    "a, b, pole, distance",
    [
        (0.5 + 0.25j, 3.5 + 0.25j, 1.5 + 2.25j, 2.0),  # the foot 1.5 + 0.25j is inside
        (0.5 + 0.25j, 3.5 + 0.25j, -2.5 + 4.25j, 5.0),  # clamped to a
        (0.5 + 0.25j, 3.5 + 0.25j, 6.5 - 3.75j, 5.0),  # clamped to b
        (1.0 + 0j, 1.0 + 1e-170j, 4.0 + 4j, 5.0),  # |b - a|**2 underflows to 0
    ],
)
def test_segment_pole_distance_at_known_distances(a, b, pole, distance):
    assert _segment_pole_distance(a, b, pole) == distance
    assert _segment_pole_distance(b, a, pole) == pytest.approx(distance, rel=1e-15)


def test_pathspec_validation():
    with pytest.raises(ValueError):
        PathSpec.segment(1.0 + 0j, 1.0 + 0j)
    with pytest.raises(ValueError):
        PathSpec.radial_ray(0.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        PathSpec.radial_ray(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SchwarzMap.circle(0j, -1.0)


def test_path_points_and_velocity():
    seg = PathSpec.segment(1.0 + 0j, 1.0 + 2.0j)
    assert seg.end - seg.start == 2.0j
    assert (seg.start, seg.end) == (1.0 + 0j, 1.0 + 2.0j)
    ray = PathSpec.radial_ray(math.pi / 2, 1.0, 2.0)
    assert abs(ray.start - 1.0j) < 1e-15 and abs(ray.end - 2.0j) < 1e-15
    theta, r0, r1 = 0.7, 0.5, 2.5
    assert PathSpec.radial_ray(theta, r0, r1) == PathSpec.segment(
        r0 * cmath.exp(1j * theta), r1 * cmath.exp(1j * theta)
    )


def test_bipoint_helpers():
    q = BiPoint.from_polar(2.0, 0.5)
    assert abs(q.z - 2.0 * cmath.exp(0.5j)) < 1e-15
    assert abs(q.zeta - 2.0 * cmath.exp(-0.5j)) < 1e-15


def test_serialization_round_trips():
    for smap in MAPS:
        assert SchwarzMap.from_json(smap.to_json()) == smap


@pytest.mark.parametrize(
    "rec, key",
    [
        ({"kind": "unit_circle", "radius": 2.0, "center": {"re": 5.0}}, "radius"),
        ({"kind": "unit_circle", "point": {"re": 1.0}}, "point"),
        ({"kind": "circle", "radius": 2.0, "angle": 0.3}, "angle"),
        ({"kind": "line", "angle": 0.3, "radius": 2.0}, "radius"),
        ({"kind": "line", "point": {"re": 1.0}, "centre": {"re": 1.0}}, "centre"),
        # a misspelt "im" used to be dropped: this centre read as 0.5
        ({"kind": "circle", "center": {"re": 0.5, "imag": 3.0}, "radius": 2.0}, "imag"),
        ({"kind": "line", "point": {"re": 0.5, "Im": 1.0}, "angle": 0.3}, "Im"),
    ],
    ids=lambda v: v if isinstance(v, str) else v["kind"],
)
def test_map_from_json_rejects_keys_of_another_kind(rec, key):
    with pytest.raises(ValueError, match=repr(key)):
        SchwarzMap.from_json(rec)


def test_unit_circle_is_the_circle_at_zero_of_radius_one():
    unit = SchwarzMap.unit_circle()
    assert unit == SchwarzMap.circle(0, 1)
    assert SchwarzMap.from_json({"kind": "unit_circle"}) == unit
    assert unit.to_json() == {"kind": "circle", "center": {"re": 0.0, "im": 0.0}, "radius": 1.0}


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"kind": "unit_circle", "radius": 2.0, "center": 5 + 0j}, "kind"),
        ({"kind": "circle", "radius": 2.0, "angle": 0.3}, "angle"),
        ({"kind": "circle", "point": 1j}, "point"),
        ({"kind": "line", "angle": 0.3, "radius": 2.0}, "radius"),
        ({"kind": "line", "center": 1 + 1j}, "center"),
    ],
    ids=lambda v: v if isinstance(v, str) else v["kind"],
)
def test_map_fields_must_belong_to_its_kind(kwargs, field):
    with pytest.raises(ValueError, match=field):
        SchwarzMap(**kwargs)
