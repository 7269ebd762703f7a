import cmath
import math

import numpy as np
import pytest

from harmonia.errors import (
    BranchPointOnPathError,
    BranchSelectionError,
    PoleError,
)
from harmonia.geometry import (
    BiPoint,
    PathSpec,
    SchwarzMap,
    SqrtBranch,
    _sqrt_step,
    anti_conformal_reflect,
    reflect_bipoint,
    sqrt_inverse_schwarz_derivative,
    sqrt_schwarz_derivative,
)
from harmonia.numerics import integrate_path

MAPS = [
    SchwarzMap.unit_circle(),
    SchwarzMap.circle(0.3 - 0.2j, 1.7),
    SchwarzMap.circle(1.0 + 0j, 2.0),
    SchwarzMap.line(0.0j, 0.0),
    SchwarzMap.line(0.5j, 0.3),
]


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


@pytest.mark.parametrize("smap", MAPS, ids=lambda m: m.kind + str(m.center))
def test_on_curve_identity(smap):
    for z in smap.curve_points(64):
        assert smap.on_curve_residual(z) < 1e-12


@pytest.mark.parametrize("smap", MAPS, ids=lambda m: m.kind + str(m.center))
def test_inverse_consistency_near_curve(smap):
    for z in smap.curve_points(16):
        for offset in (0.25, -0.2, 0.1):
            w = z + offset * smap.outward_normal(smap.project_to_curve(z))
            assert abs(smap.inverse_value(smap.value(w)) - w) < 1e-12
            assert abs(smap.value(smap.inverse_value(w)) - w) < 1e-12


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


@pytest.mark.parametrize("smap", MAPS, ids=lambda m: m.kind + str(m.center))
def test_reflection_involution(smap):
    for z in smap.curve_points(8):
        w = z + 0.2 * smap.outward_normal(smap.project_to_curve(z))
        p = BiPoint(w, w.conjugate())
        q = reflect_bipoint(smap, reflect_bipoint(smap, p))
        assert abs(q.z - p.z) + abs(q.zeta - p.zeta) < 1e-12


def test_anti_conformal_examples():
    unit = SchwarzMap.unit_circle()
    assert np.allclose(anti_conformal_reflect(unit, 0.5, 0.0), (2.0, 0.0))
    x, y = math.cos(0.4), math.sin(0.4)
    assert np.allclose(anti_conformal_reflect(unit, x, y), (x, y))
    assert np.allclose(anti_conformal_reflect(SchwarzMap.line(0j, 0.0), 3.0, 1.0), (3.0, -1.0))


@pytest.mark.parametrize("smap", MAPS, ids=lambda m: m.kind + str(m.center))
def test_real_slice_compatibility(smap):
    for z in smap.curve_points(8):
        w = z + 0.15 * smap.outward_normal(smap.project_to_curve(z))
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


def test_sqrt_branch_needs_curve_contact():
    smap = SchwarzMap.unit_circle()
    with pytest.raises(BranchSelectionError):
        sqrt_schwarz_derivative(smap, PathSpec.segment(3.0 + 3.0j, 4.0 + 4.0j))


LOOKUP_PATHS = [
    PathSpec.segment(0.75 + 0j, 1.0 + 0j),
    PathSpec.radial_ray(0.7, 0.6, 1.3, subdivision=5),
]


def _scan_index(branch, tau):
    """The first nearest anchor by a scan over all of them."""
    return int(np.argmin(np.abs(np.asarray(branch.anchor_points) - tau)))


def _lookup_queries(path):
    """Quadrature nodes, exact half-way parameters between anchors, points
    0.05-0.4 off the path on both sides, and points beyond both ends."""
    branch = sqrt_schwarz_derivative(SchwarzMap.unit_circle(), path)
    nodes = []
    integrate_path(lambda tau: nodes.append(tau) or branch(tau), path)
    m = 2 * (len(branch.anchor_points) - 1)
    halfway = [path.point(k / m) for k in range(m + 1)]
    normal = 1j * path.velocity(0.0) / abs(path.velocity(0.0))
    off = [
        path.point(k / 40) + side * d * normal
        for k in range(41) for d in (0.05, 0.2, 0.4) for side in (1, -1)
    ]
    beyond = [path.point(t) for t in (-0.5, -0.01, 1.01, 1.5)]
    return branch, nodes + halfway + off + beyond


@pytest.mark.parametrize("path", LOOKUP_PATHS, ids=lambda p: p.kind)
def test_sqrt_branch_lookup_is_nearest_anchor(path):
    branch, queries = _lookup_queries(path)
    anchors = np.asarray(branch.anchor_points)
    step = abs(anchors[1] - anchors[0])
    agree = 0
    for tau in queries:
        i, j = branch.nearest_anchor(tau), _scan_index(branch, tau)
        dist = np.abs(anchors - tau)
        # the scan may break an exact half-way tie either way by rounding
        assert i == j or abs(dist[i] - dist[j]) <= 1e-12 * step, (tau, i, j)
        agree += i == j
    assert agree > 0.9 * len(queries)
    start, end = path.endpoints
    assert branch.nearest_anchor(start - 0.5 * (end - start)) == 0
    assert branch.nearest_anchor(end + 0.5 * (end - start)) == len(anchors) - 1


@pytest.mark.parametrize("path", LOOKUP_PATHS, ids=lambda p: p.kind)
def test_sqrt_branch_lookup_matches_scan_values(path):
    branch, queries = _lookup_queries(path)
    deriv = SchwarzMap.unit_circle().derivative
    for tau in queries:
        scanned = _sqrt_step(deriv, branch._values[_scan_index(branch, tau)], tau)
        assert branch(tau) == scanned, tau


def test_sqrt_branch_rejects_anchors_off_an_even_line():
    deriv = lambda tau: 1.0 + 0j
    for points in (
        [0j, 0.1 + 0j, 0.3 + 0j, 0.4 + 0j],  # collinear, uneven
        [0j, 0.1 + 0.01j, 0.2 + 0j],  # even in x, bent
        [0.5 + 0j],
        [1.0 + 1j, 1.0 + 1j],
    ):
        with pytest.raises(ValueError):
            SqrtBranch(deriv, points, [1.0 + 0j] * len(points))
    with pytest.raises(ValueError):
        SqrtBranch(deriv, [0j, 1.0 + 0j], [1.0 + 0j])
    branch = SqrtBranch(deriv, PathSpec.radial_ray(2.0, 0.5, 1.5).samples(9), [1.0 + 0j] * 9)
    assert branch.nearest_anchor(cmath.rect(1.0, 2.0)) == 4


def test_sqrt_branch_lookup_tie_takes_lower_anchor():
    # exactly representable anchors, so the tie at 2.5 is exact
    branch = SqrtBranch(lambda tau: 1.0 + 0j, [complex(k) for k in range(9)], [1.0 + 0j] * 9)
    for tau in (2.5 + 0j, 2.5 + 3j, 2.5 - 0.25j):
        assert branch.nearest_anchor(tau) == 2 == _scan_index(branch, tau)
    assert branch.nearest_anchor(complex("nan+0j")) == 0
    assert branch.nearest_anchor(complex("inf+0j")) == 8


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
    assert abs(seg.point(0.5) - (1.0 + 1.0j)) < 1e-15
    assert abs(seg.velocity(0.3) - 2.0j) < 1e-15
    ray = PathSpec.radial_ray(math.pi / 2, 1.0, 2.0)
    assert abs(ray.point(1.0) - 2.0j) < 1e-15


def test_bipoint_helpers():
    p = BiPoint.from_xy(1.0, 2.0)
    assert p.z == 1.0 + 2.0j and p.zeta == 1.0 - 2.0j
    assert p.is_real_slice()
    assert not BiPoint(1.0 + 2.0j, 5.0 + 0j).is_real_slice()
    q = BiPoint.from_polar(2.0, 0.5)
    assert abs(q.z - 2.0 * cmath.exp(0.5j)) < 1e-15


def test_serialization_round_trips():
    for smap in MAPS:
        assert SchwarzMap.from_json(smap.to_json()) == smap
    for path in (PathSpec.segment(1j, 2.0 + 0j, 8), PathSpec.radial_ray(0.3, 0.5, 2.0)):
        assert PathSpec.from_json(path.to_json()) == path
