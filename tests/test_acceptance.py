"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -v -s` or in the
captured output of a failing run) and asserts the criterion.  Randomized
criteria use fixed recorded seeds.
"""

import cmath
import json
import math
import subprocess
import sys

import numpy as np

from harmonia.algebra import BivariateLaurentExpr, LogLaurentExpr
from harmonia.errors import NonzeroMeanError
from harmonia.geometry import BiPoint, PathSpec, SchwarzMap
from harmonia.harmonic import HarmonicPair, RobinParams, eval_real
from harmonia.numerics import TrigPolynomial, fourier_neumann_oracle
from harmonia.operators import (
    dirichlet_from_robin_pair,
    neumann_from_dirichlet_disk,
    neumann_from_dirichlet_pair,
    neumann_from_dirichlet_schwarz,
    neumann_from_robin_pair,
)
from harmonia.reflection import reflect_neumann_circle, reflect_neumann_schwarz, reflect_robin_circle
from harmonia.verification import run_verification_suite, worst_residual

SEED = 20260809
GRID = [(float(r), float(th)) for r in np.linspace(0.6, 1.4, 10) for th in np.linspace(-2.0, 2.0, 10)]
LOG_RADIAL = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 0, 1))
SADDLE = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 2))
LINEAR = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 1))
UNIT = SchwarzMap.unit_circle()


def report(name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name} failed{tail}"


def field_residual_mod_constant(pair, expected_fn) -> float:
    def field(r, th):
        return eval_real(pair, r * math.cos(th), r * math.sin(th))

    pin_f, pin_e = field(1.0, 0.0), expected_fn(1.0, 0.0)
    return worst_residual(
        abs((field(r, th) - pin_f) - (expected_fn(r, th) - pin_e)) for r, th in GRID
    )


def test_criterion_1_golden_dirichlet_to_neumann_fields():
    tol = 1e-10
    cases = [
        ("constant trace", HarmonicPair.constant(1.0), lambda r, th: math.log(r)),
        # derived value; the quarter-scale polar variant is asserted wrong below
        ("log trace", LOG_RADIAL, lambda r, th: 0.5 * (math.log(r) ** 2 - th * th)),
        ("saddle trace", SADDLE, lambda r, th: 0.5 * r * r * math.cos(2 * th)),
        ("linear trace", LINEAR, lambda r, th: r * math.cos(th)),
    ]
    worst = worst_residual(
        field_residual_mod_constant(neumann_from_dirichlet_pair(u), expected)
        for _, u, expected in cases
    )
    quarter_variant = field_residual_mod_constant(
        neumann_from_dirichlet_pair(LOG_RADIAL),
        lambda r, th: 0.25 * (math.log(r) ** 2 - th * th),
    )
    report(
        "criterion 1: golden DtN fields (10x10 grid, mod constant)",
        worst < tol and quarter_variant > 0.1,
        f"max residual {worst:.3e}; quarter-scale variant residual {quarter_variant:.3e} (documented discrepancy)",
    )


def test_criterion_2_neumann_reflection_corrections():
    tol = 1e-12
    points = [
        BiPoint.from_polar(float(r), float(th))
        for r, th in zip(np.linspace(0.6, 0.95, 20), np.linspace(-2.0, 2.0, 20))
    ]
    v_log = neumann_from_dirichlet_pair(HarmonicPair.constant(1.0))
    phi_const = BivariateLaurentExpr.constant(1.0)
    phi_quad = BivariateLaurentExpr([(1.0, 2, 0), (1.0, 0, 2), (2.0, 1, 1), (-2.0, 0, 0)])
    residuals = []
    for p in points:
        r, th = abs(p.z), cmath.phase(p.z)
        got_const = reflect_neumann_circle(v_log, phi_const, p).correction
        residuals.append(abs(got_const - (-2.0 * math.log(r))))
        got_quad = reflect_neumann_circle(SADDLE, phi_quad, p).correction
        residuals.append(abs(got_quad - (1.0 / (r * r) - r * r) * math.cos(2 * th)))
    worst = worst_residual(residuals)
    report(
        "criterion 2: Neumann reflection corrections (exact algebra, 20 points)",
        worst < tol,
        f"max residual {worst:.3e}",
    )


def test_criterion_3_robin_to_neumann_log_solution():
    tol = 1e-10
    worst = worst_residual(
        field_residual_mod_constant(
            neumann_from_robin_pair(LOG_RADIAL, RobinParams(a, b)),
            lambda r, th: 0.5 * b * math.log(r) + 0.25 * a * (math.log(r) ** 2 - th * th),
        )
        for a, b in ((1.0, 1.0), (2.0, -1.0), (0.5, 3.0))
    )
    report(
        "criterion 3: Robin-to-Neumann log solution for three (a, b)",
        worst < tol,
        f"max residual {worst:.3e}",
    )


def test_criterion_4_robin_reflection_corrections():
    tol = 1e-12
    shadow_tol = 1e-9
    points = [
        BiPoint.from_polar(float(r), float(th))
        for r, th in zip(np.linspace(0.6, 0.95, 10), np.linspace(-2.0, 2.0, 10))
    ]
    residuals = []
    shadow_residuals = []
    derived_vs_half = math.inf
    for a, b in ((1.0, 1.0), (2.0, -1.0), (0.5, 3.0)):
        params = RobinParams(a, b)
        phi_const = BivariateLaurentExpr.constant(b)
        phi_cos2 = BivariateLaurentExpr([(0.5 * (a + 2 * b), 2, 0), (0.5 * (a + 2 * b), 0, 2)])
        phi_cos1 = BivariateLaurentExpr([(0.5 * (a + b), 1, 0), (0.5 * (a + b), 0, 1)])
        for p in points:
            r, th = abs(p.z), cmath.phase(p.z)
            got = reflect_robin_circle(LOG_RADIAL, phi_const, params, p).correction
            residuals.append(abs(got - (-2.0 * math.log(r))))
            got = reflect_robin_circle(SADDLE, phi_cos2, params, p).correction
            expected = -((a + 2 * b) / (2 * b)) * (r * r - 1.0 / (r * r)) * math.cos(2 * th)
            residuals.append(abs(got - expected))
            # cosine data: derived coefficient asserted, quadrature shadow,
            # and the half-scale printed variant demonstrably off
            res = reflect_robin_circle(LINEAR, phi_cos1, params, p, verify_numeric=True)
            derived = -((a + b) / b) * (r - 1.0 / r) * math.cos(th)
            residuals.append(abs(res.correction - derived))
            shadow_residuals.append(abs(res.correction - derived))
            if abs(derived) > 0.05:
                derived_vs_half = min(derived_vs_half, abs(res.correction - 0.5 * derived))
    worst = worst_residual(residuals)
    shadow_worst = worst_residual(shadow_residuals)
    report(
        "criterion 4: Robin reflection data corrections + derived cosine coefficient",
        worst < tol and shadow_worst < shadow_tol and derived_vs_half > 0.02,
        f"max residual {worst:.3e}; half-scale variant off by >= {derived_vs_half:.3e} (documented discrepancy)",
    )


def test_criterion_5_disk_operator_matches_oracle():
    tol = 1e-8
    rng = np.random.default_rng(SEED)
    cos = (0.0,) + tuple(rng.uniform(-1, 1, size=6))
    sin = (0.0,) + tuple(rng.uniform(-1, 1, size=6))
    trig = TrigPolynomial(cos, sin)
    residuals = []
    for _ in range(50):
        r = float(rng.uniform(0.0, 1.0))
        th = float(rng.uniform(-3.0, 3.0))
        z = r * cmath.exp(1j * th)
        residuals.append(abs(neumann_from_dirichlet_disk(trig, z) - fourier_neumann_oracle(trig, r, th)))
    worst = worst_residual(residuals)
    rejected = False
    try:
        neumann_from_dirichlet_disk(TrigPolynomial((0.5,), (0.0,)), 0.3 + 0j)
    except NonzeroMeanError:
        rejected = True
    report(
        "criterion 5: disk operator vs Fourier oracle (50 points) + mean rejection",
        worst < tol and rejected,
        f"max residual {worst:.3e}; nonzero-mean rejected {rejected}",
    )


def test_criterion_6_robin_chain_constant_field():
    var_tol = 1e-18
    rng = np.random.default_rng(SEED + 1)
    variances = []
    for _ in range(20):
        params = RobinParams(float(rng.uniform(-2, 2)), float(rng.choice([1.0, -1.0, 3.0])))
        terms = [
            (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             int(rng.integers(-3, 4)), int(rng.integers(0, 3)))
            for _ in range(5)
        ]
        w = HarmonicPair.symmetric(LogLaurentExpr(terms))
        chain = neumann_from_dirichlet_pair(dirichlet_from_robin_pair(w, params))
        direct = neumann_from_robin_pair(w, params)
        diffs = [
            eval_real(chain, r * math.cos(th), r * math.sin(th))
            - eval_real(direct, r * math.cos(th), r * math.sin(th))
            for r in np.linspace(0.7, 1.3, 5)
            for th in np.linspace(-1.8, 1.8, 5)
        ]
        variances.append(float(np.var(diffs)))
    worst = worst_residual(variances)
    report(
        "criterion 6: DtN(DfR(w)) equals RtN(w) up to a constant (20 pairs, 25 points)",
        worst < var_tol,
        f"max variance {worst:.3e}",
    )


def test_criterion_7_arc_generalizations_reduce_to_circle():
    tol = 1e-9
    rng = np.random.default_rng(SEED + 2)
    terms = [
        (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), int(rng.integers(-3, 4)), 0)
        for _ in range(4)
    ]
    u = HarmonicPair.symmetric(LogLaurentExpr(terms))
    phi = BivariateLaurentExpr(
        [(t.coeff, t.power, 0) for t in u.part_z.terms]
        + [(t.coeff.conjugate(), 0, t.power) for t in u.part_z.terms]
    )
    v = neumann_from_dirichlet_pair(u)
    path = PathSpec.segment(0.75 + 0j, 1.0 + 0j)
    field = neumann_from_dirichlet_schwarz(u, UNIT, path, path)
    residuals = []
    for _ in range(20):
        p = BiPoint.from_polar(float(rng.uniform(0.6, 0.95)), float(rng.uniform(-2.0, 2.0)))
        residuals.append(abs(field.eval(p) - eval_real(v, p.z.real, p.z.imag)))
        arc = reflect_neumann_schwarz(v, phi, UNIT, p)
        circle = reflect_neumann_circle(v, phi, p)
        residuals.append(abs(arc.value - circle.value))
    worst = worst_residual(residuals)
    report(
        "criterion 7: arc operator and arc reflection reduce to circle forms (20 points)",
        worst < tol,
        f"max residual {worst:.3e}",
    )


def test_criterion_8_property_suites():
    report_obj = run_verification_suite(seed=1729)
    failures = [c.name for c in report_obj.checks if not c.passed]
    total_samples = sum(c.samples for c in report_obj.checks)
    wanted = {
        "fd_harmonicity": 1e-5,
        "boundary_recovery_dirichlet": 1e-10,
        "boundary_recovery_robin": 1e-10,
        "extension_independence": 1e-12,
        "reflection_fixed_points": 1e-11,
        "antiderivative_round_trip": 0.0,
    }
    by_name = {c.name: c for c in report_obj.checks}
    tolerances_pinned = all(by_name[name].tolerance == tol for name, tol in wanted.items())
    enough = all(by_name[name].samples >= 50 for name in wanted)
    report(
        "criterion 8: property suites (seed 1729 recorded in report)",
        report_obj.all_passed and tolerances_pinned and enough,
        f"{len(report_obj.checks)} checks, {total_samples} samples, failures: {failures}",
    )


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "harmonia", *args], capture_output=True, text=True
    )


def test_criterion_9_cli_end_to_end(tmp_path):
    examples = run_cli("examples", "--format", "json")
    records = json.loads(examples.stdout)["examples"]
    standard = [r for r in records if r["status"] in ("PASS", "FAIL")]
    flagged = [r for r in records if r["status"] == "DISCREPANCY"]
    examples_ok = (
        examples.returncode == 0
        and len(standard) == 9
        and all(r["status"] == "PASS" for r in standard)
        and len(flagged) == 1
        and flagged[0]["passed_derived"]
    )

    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    v1 = run_cli("verify", "--seed", "1729", "--output", str(out1))
    v2 = run_cli("verify", "--seed", "1729", "--output", str(out2))
    payload = json.loads(out1.read_text())
    verify_ok = (
        v1.returncode == 0
        and v2.returncode == 0
        and payload["all_passed"]
        and sum(not c["passed"] for c in payload["checks"]) == 0
        and out1.read_bytes() == out2.read_bytes()
    )
    report(
        "criterion 9: CLI examples (9 rows, exit 0), verify (zero failures, byte-identical)",
        examples_ok and verify_ok,
        f"examples rc {examples.returncode}, verify rc {v1.returncode}",
    )
