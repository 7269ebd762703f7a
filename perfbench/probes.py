"""Module-level timings of the traced run, measured with tracing off.

* ``cli.import_s`` and ``cli.import_numpy_s``: cumulative import times of
  ``harmonia`` and of ``numpy`` from ``python -X importtime`` in a cold
  process.
* ``cli.<command>_inproc_s``: ``harmonia.cli.main([...])`` in this (warm)
  process.  The gap to the cold command time is interpreter start plus
  import.
* ``numerics.check.<name>_s``: each verification check run alone through
  ``run_verification_suite(targets=(name,), seed=...)``, then
  ``numerics.suite_s`` for the full suite and ``numerics.check_gap_s``, the
  full suite minus the sum of the per-check times.  These run at the
  suite's default seed, as ``harmonia verify`` does.
* :func:`verify_at_seed`: the full suite once at the run's seed, reported
  in the record only (``fd_harmonicity`` fails at some seeds).

Every figure is the median of ``repeats`` measurements.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
from time import perf_counter

CHECKS = (
    "antiderivative_round_trip",
    "eval_homomorphism",
    "ray_restriction_consistency",
    "circle_restriction_kernel",
    "on_curve_identity",
    "inverse_map_roundtrip",
    "reflection_involution",
    "real_slice_reflection",
    "fd_harmonicity",
    "real_slice_reality",
    "normal_vs_radial_derivative",
    "robin_trace_linearity",
    "boundary_recovery_dirichlet",
    "boundary_recovery_robin",
    "robin_chain_constant_field",
    "robin_ode_identity",
    "disk_operator_vs_pair",
    "quadrature_vs_exact_algebra",
    "fourier_oracle_vs_pair",
    "fd_laplacian_scaling",
    "reflection_fixed_points",
    "dirichlet_reflection_involution",
    "extension_independence",
    "neumann_reflection_pipeline",
    "robin_reflection_pipeline",
    "even_continuation",
    "arc_circle_reduction",
)

RNG_NOTE = (
    "The verification checks draw from one RNG stream shared by the whole suite, "
    "so a check run alone draws different inputs from the same check in a full "
    "run; numerics.check_gap_s includes that difference."
)

CLI_COMMANDS = ("examples", "verify", "field", "reflect")


def metric_names() -> list:
    """(name, unit) of every metric this module produces."""
    names = [("cli.import_s", "s"), ("cli.import_numpy_s", "s")]
    names += [(f"cli.{c}_inproc_s", "s") for c in CLI_COMMANDS]
    names += [(f"numerics.check.{c}_s", "s") for c in CHECKS]
    names += [("numerics.suite_s", "s"), ("numerics.check_gap_s", "s")]
    return names


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def import_times(env: dict, repeats: int) -> dict:
    """Cumulative import microseconds of harmonia and numpy, in seconds."""
    runs = {"harmonia": [], "numpy": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import harmonia"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in runs:
                runs[fields[2].strip()].append(int(fields[1]) * 1e-6)
    return {
        "cli.import_s": statistics.median(runs["harmonia"]),
        "cli.import_numpy_s": statistics.median(runs["numpy"]),
    }


def verify_at_seed(seed: int) -> dict:
    """The full suite at ``seed``, untimed: whether it passed and which
    checks failed, with their residuals and tolerances."""
    import harmonia

    report = harmonia.run_verification_suite(seed=seed)
    return {
        "seed": seed,
        "all_passed": report.all_passed,
        "failed_checks": [
            {"name": c.name, "max_residual": c.max_residual, "tolerance": c.tolerance}
            for c in report.checks if not c.passed
        ],
    }


def measure(cli_argv: dict, env: dict, repeats: int) -> tuple:
    """(metrics, failures): every metric of :func:`metric_names`."""
    import harmonia
    from harmonia import cli

    failures = []
    if tuple(name for name, _ in harmonia.numerics.available_checks()) != CHECKS:
        failures.append("the suite's checks differ from the ones this benchmark times")
    metrics = import_times(env, repeats)
    for command in CLI_COMMANDS:
        argv = cli_argv[command]

        def run_cli():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    failures.append(f"in-process {command} exited nonzero")

        metrics[f"cli.{command}_inproc_s"] = _median_time(run_cli, repeats)

    def run_suite(targets=None):
        if not harmonia.run_verification_suite(targets=targets).all_passed:
            failures.append(f"verification suite {targets or 'full'} did not pass")

    total = 0.0
    for name in CHECKS:
        t = _median_time(lambda: run_suite((name,)), repeats)
        metrics[f"numerics.check.{name}_s"] = t
        total += t
    metrics["numerics.suite_s"] = _median_time(run_suite, repeats)
    metrics["numerics.check_gap_s"] = metrics["numerics.suite_s"] - total
    return metrics, failures
