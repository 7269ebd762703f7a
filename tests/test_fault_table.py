"""Negative controls: each row injects one fault into the library and names
the verification checks that must then fail.

A row is ``(name, inject, must_fail)``: ``inject(monkeypatch)`` patches the
fault in, and the full suite at its default seed must fail every check in
``must_fail``.  The suite reads each library function through its defining
module when a check calls it, so a patch on that module reaches every check.
"""

import math

import pytest

import harmonia.geometry
import harmonia.harmonic
import harmonia.operators
import harmonia.reflection
from harmonia.algebra import LogLaurentExpr
from harmonia.geometry import SqrtBranch
from harmonia.harmonic import HarmonicPair, RobinParams
from harmonia.verification import run_verification_suite


def _negated(pair):
    return HarmonicPair(-pair.part_z)


def _negate_dtn(monkeypatch):
    dtn = harmonia.operators.neumann_from_dirichlet_pair
    monkeypatch.setattr(
        harmonia.operators, "neumann_from_dirichlet_pair", lambda u: _negated(dtn(u))
    )


def _flip_rtn_a(monkeypatch):
    rtn = harmonia.operators.neumann_from_robin_pair
    monkeypatch.setattr(
        harmonia.operators, "neumann_from_robin_pair", lambda w, p: rtn(w, RobinParams(-p.a, p.b))
    )


def _double_dfr_b(monkeypatch):
    dfr = harmonia.operators.dirichlet_from_robin_pair
    monkeypatch.setattr(
        harmonia.operators,
        "dirichlet_from_robin_pair",
        lambda w, p: dfr(w, RobinParams(p.a, 2.0 * p.b)),
    )


def _flip_robin_self_sign(monkeypatch):
    rc = harmonia.reflection.reflect_robin_circle
    monkeypatch.setattr(
        harmonia.reflection,
        "reflect_robin_circle",
        lambda w, phi_w, p, q, verify_numeric=False: rc(
            w, phi_w, RobinParams(-p.a, p.b), q, verify_numeric
        ),
    )


def _double_robin_data(monkeypatch):
    rc = harmonia.reflection.reflect_robin_circle
    monkeypatch.setattr(
        harmonia.reflection,
        "reflect_robin_circle",
        lambda w, phi_w, p, q, verify_numeric=False: rc(w, 2.0 * phi_w, p, q, verify_numeric),
    )


def _flip_schwarz_correction(monkeypatch):
    # the correction is linear in phi, so -phi negates it exactly
    rs = harmonia.reflection.reflect_neumann_schwarz
    monkeypatch.setattr(
        harmonia.reflection, "reflect_neumann_schwarz", lambda v, phi, smap, q: rs(v, -phi, smap, q)
    )


def _flip_dirichlet_study_sign(monkeypatch):
    # data + u(p) in place of data - u(p)
    rd = harmonia.reflection.reflect_dirichlet_study
    monkeypatch.setattr(
        harmonia.reflection,
        "reflect_dirichlet_study",
        lambda u, phi, smap, q: rd(_negated(u), phi, smap, q),
    )


def _double_schwarz_derivative(monkeypatch):
    # S' is read through its closed-form root, by the arc field and the arc
    # reflection: doubling S' scales the root by sqrt(2)
    branch = harmonia.geometry._closed_form_branch

    def scaled(smap, a, b):
        root = branch(smap, a, b)
        return SqrtBranch(math.sqrt(2.0) * root.scale, root.pole)

    monkeypatch.setattr(harmonia.geometry, "_closed_form_branch", scaled)


def _halve_mirrored_radial_derivative(monkeypatch):
    # the route 2 Re(f' e^{i theta}) loses its factor 2
    rd = harmonia.harmonic.radial_derivative
    monkeypatch.setattr(
        harmonia.harmonic, "radial_derivative", lambda h, r, theta: 0.5 * rd(h, r, theta)
    )


def _drop_solve_robin_z_derivative(monkeypatch):
    # solves a h + b z h' = g, losing the z f' of the right-hand side
    monkeypatch.setattr(
        harmonia.operators, "solve_robin_analytic", lambda f, g, p: g._solve_euler(p.a, p.b)
    )


def _flip_solve_robin_b(monkeypatch):
    rsa = harmonia.operators.solve_robin_analytic
    monkeypatch.setattr(
        harmonia.operators,
        "solve_robin_analytic",
        lambda f, g, p: rsa(f, g, RobinParams(p.a, -p.b)),
    )


def _drop_pin_half(monkeypatch):
    # the pin adds 0 - 2 Re f(1) to f, not half of it
    partwise = harmonia.operators._partwise

    def pinned_in_full(u, build, pin):
        v = partwise(u, build, False)
        if not pin:
            return v
        return HarmonicPair(v.part_z._plus_constant(0.0 - 2.0 * v.part_z.eval(1 + 0j).real))

    monkeypatch.setattr(harmonia.operators, "_partwise", pinned_in_full)


def _reuse_sum_power_across_k(monkeypatch):
    # _sum keeps the z**k of the first k != 0 for every later k
    def stale_power_sum(self, z, lg):
        total, zk = 0j, None
        for (k, m), c in self._terms.items():
            if k:
                if zk is None:
                    zk = z**k
                c *= zk
            if m:
                c *= lg**m
            total += c
        return total

    monkeypatch.setattr(LogLaurentExpr, "_sum", stale_power_sum)


FAULTS = [
    (
        "dtn_sign_flip",
        _negate_dtn,
        {
            "boundary_recovery_dirichlet",
            "robin_chain_constant_field",
            "disk_operator_vs_pair",
            "fourier_oracle_vs_pair",
            "neumann_reflection_pipeline",
            "arc_circle_reduction",
        },
    ),
    ("rtn_a_sign_flip", _flip_rtn_a, {"boundary_recovery_robin", "robin_chain_constant_field"}),
    ("dfr_b_doubled", _double_dfr_b, {"robin_chain_constant_field"}),
    ("robin_self_term_sign_flip", _flip_robin_self_sign, {"robin_reflection_pipeline"}),
    ("robin_data_doubled", _double_robin_data, {"robin_reflection_pipeline"}),
    ("schwarz_correction_sign_flip", _flip_schwarz_correction, {"arc_circle_reduction"}),
    (
        "dirichlet_study_sign_flip",
        _flip_dirichlet_study_sign,
        {"dirichlet_reflection_involution", "reflection_fixed_points"},
    ),
    ("schwarz_derivative_doubled", _double_schwarz_derivative, {"arc_circle_reduction"}),
    (
        "mirrored_radial_derivative_halved",
        _halve_mirrored_radial_derivative,
        {"boundary_recovery_dirichlet", "boundary_recovery_robin", "normal_vs_radial_derivative"},
    ),
    ("solve_robin_drops_z_derivative", _drop_solve_robin_z_derivative, {"robin_ode_identity"}),
    ("solve_robin_b_sign_flip", _flip_solve_robin_b, {"robin_ode_identity"}),
    ("pin_half_dropped", _drop_pin_half, {"arc_circle_reduction"}),
    (
        "sum_power_reused_across_k",
        _reuse_sum_power_across_k,
        {
            "arc_circle_reduction",
            "boundary_recovery_dirichlet",
            "boundary_recovery_robin",
            "dirichlet_reflection_involution",
            "disk_operator_vs_pair",
            "eval_homomorphism",
            "fourier_oracle_vs_pair",
            "neumann_reflection_pipeline",
            "quadrature_vs_exact_algebra",
            "ray_restriction_consistency",
            "reflection_fixed_points",
            "robin_reflection_pipeline",
            "robin_trace_linearity",
        },
    ),
]


@pytest.mark.parametrize(
    "inject, must_fail", [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS]
)
def test_fault_fails_its_checks(inject, must_fail, monkeypatch):
    inject(monkeypatch)
    report = run_verification_suite()
    assert must_fail <= {c.name for c in report.checks if not c.passed}
