"""Negative controls: each row injects one fault into the library and names
the verification checks that must then fail.

A row is ``(name, inject, must_fail)``: ``inject(monkeypatch)`` patches the
fault in, and the full suite at its default seed must fail every check in
``must_fail``.  The suite imports the operators at call time, so a patch on
the defining module reaches every check.
"""

import pytest

import harmonia.operators
from harmonia.numerics import run_verification_suite


def _negate_dtn(monkeypatch):
    dtn = harmonia.operators.neumann_from_dirichlet_pair
    monkeypatch.setattr(harmonia.operators, "neumann_from_dirichlet_pair", lambda u: dtn(u) * -1.0)


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
]


@pytest.mark.parametrize(
    "inject, must_fail", [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS]
)
def test_fault_fails_its_checks(inject, must_fail, monkeypatch):
    inject(monkeypatch)
    report = run_verification_suite()
    assert must_fail <= {c.name for c in report.failures}
