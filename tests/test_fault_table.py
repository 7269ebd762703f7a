"""Negative controls: each row injects one fault into the library and names
the verification checks that must then fail.

A row is ``(name, inject, must_fail)``: ``inject(monkeypatch)`` patches the
fault in, and the full suite at its default seed must fail every check in
``must_fail``.  The suite imports the operators at call time, so a patch on
the defining module reaches every check.
"""

import pytest

import harmonia.operators
from harmonia.harmonic import RobinParams
from harmonia.numerics import run_verification_suite


def _negate_dtn(monkeypatch):
    dtn = harmonia.operators.neumann_from_dirichlet_pair
    monkeypatch.setattr(harmonia.operators, "neumann_from_dirichlet_pair", lambda u: dtn(u) * -1.0)


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
]


@pytest.mark.parametrize(
    "inject, must_fail", [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS]
)
def test_fault_fails_its_checks(inject, must_fail, monkeypatch):
    inject(monkeypatch)
    report = run_verification_suite()
    assert must_fail <= {c.name for c in report.failures}
