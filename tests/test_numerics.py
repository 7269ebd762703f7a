import ast
import cmath
import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from harmonia.algebra import BivariateLaurentExpr, LogLaurentExpr
from harmonia.errors import NonzeroMeanError, QuadratureConvergenceError, RangeError
from harmonia.geometry import PathSpec
from harmonia.harmonic import HarmonicPair
from harmonia import numerics, verification
from harmonia.numerics import TrigPolynomial, fd_laplacian, fourier_neumann_oracle, integrate_path
from harmonia.verification import run_verification_suite


def test_integrate_reciprocal_segment():
    got = integrate_path(lambda t: 1.0 / t, PathSpec.segment(1.0 + 0j, 2.0 + 0j))
    assert abs(got - math.log(2.0)) < 1e-12


def test_integrate_radial_against_antiderivative():
    # integrand (z^2/2)/z has exact primitive z^2/4
    e = LogLaurentExpr.monomial(0.5, 2)
    got = integrate_path(lambda t: e.eval(t) / t, PathSpec.radial_ray(0.0, 0.5, 1.0))
    assert abs(got - 0.1875) < 1e-12


def test_integrate_constant_segment():
    a, b = 0.3 + 0.1j, 1.2 - 0.7j
    got = integrate_path(lambda t: 2.5 + 0j, PathSpec.segment(a, b))
    assert abs(got - 2.5 * (b - a)) < 1e-13


def test_integrate_nonconvergence():
    with pytest.raises(QuadratureConvergenceError):
        integrate_path(lambda t: 1.0 / t, PathSpec.segment(-1.0 + 0j, 1.0 + 0j))


def test_nonconvergence_names_the_panel():
    # the first panel to reach the bisection cap lies next to the pole at 0:
    # 30 halvings of a quarter of [-1, 1] leave panels 2^-31 long, this one
    # from -25 to -24 such lengths, with tolerance 1e-10 / 4 / 2^30
    with pytest.raises(QuadratureConvergenceError) as exc:
        integrate_path(lambda t: 1.0 / t, PathSpec.segment(-1.0 + 0j, 1.0 + 0j))
    message = str(exc.value)
    ends = f"from z = {complex(-25 * 2.0**-31)!r} to z = {complex(-24 * 2.0**-31)!r}:"
    assert ends == "from z = (-1.1641532182693481e-08+0j) to z = (-1.1175870895385742e-08+0j):"
    assert ends in message, message
    assert "error estimate 6.94e-18 exceeds the tolerance 2.33e-20" in message, message


def test_nonconvergence_panel_ends_print_apart():
    # a step at 0.3 keeps bisecting to a panel 2^-32 long, whose ends agree
    # to more than six significant digits
    with pytest.raises(QuadratureConvergenceError) as exc:
        integrate_path(lambda z: 1.0 if z.real < 0.3 else 0.0, PathSpec.segment(0, 1))
    message = str(exc.value)
    ends = re.search(r"from z = (\S+) to z = (\S+):", message)
    assert ends, message
    start, end = ends.groups()
    assert start != end, message
    assert complex(start).real < 0.3 <= complex(end).real, message


def test_a_non_finite_integrand_raises_range_error_on_its_first_panel():
    # z^2 / t along a ray out to t = 1e200: the kernel returns NaN where z^2
    # overflows, so the first panel's estimate is NaN; bisecting it would
    # take 30 levels to end in QuadratureConvergenceError
    kernel = BivariateLaurentExpr([(1.0, 2, 0)]).ray_kernel(cmath.exp(0.5j))
    calls = []

    def f(t):
        calls.append(t)
        return kernel(t)

    with pytest.raises(RangeError, match="on the panel from z = ") as exc:
        integrate_path(f, PathSpec.radial_ray(0.5, 1e-200, 1e200))
    assert len(calls) <= 15 * numerics.INITIAL_PANELS == 60
    assert "error estimate nan" in str(exc.value)


def test_an_estimate_whose_modulus_overflows_raises_range_error():
    # every value is finite, but the Kronrod-only nodes (the last 8 of the
    # 15 of each panel) read 0.5e308 (1 + i) and the Gauss nodes 0: on a
    # panel of half-length 3, G7 = 0 and K15 ~ 1.5e308 (1 + i), finite parts
    # whose modulus is beyond the float range
    calls = []

    def f(z):
        calls.append(z)
        return complex(0.5e308, 0.5e308) if len(calls) % 15 > 7 or len(calls) % 15 == 0 else 0j

    with pytest.raises(RangeError, match=r"error estimate inf$"):
        integrate_path(f, PathSpec.segment(0, 24))
    assert len(calls) == 15


def test_gauss_rule_is_seven_point_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    xs = [x for x, _, _ in numerics._SHARED_NODES]
    ws = [w for _, _, w in numerics._SHARED_NODES]
    gauss_x = [-x for x in xs] + [0.0] + xs[::-1]
    gauss_w = ws + [numerics._CENTRE_WEIGHTS[1]] + ws[::-1]
    assert np.allclose(gauss_x, nodes, rtol=0.0, atol=1e-15)
    assert np.allclose(gauss_w, weights, rtol=0.0, atol=1e-15)


def test_kronrod_and_gauss_polynomial_degrees():
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        kronrod, gauss = numerics._gauss_kronrod(lambda x: x**k, 0.0, 1.0)
        assert abs(kronrod - exact) <= 1e-15, k
        if k <= 13:
            assert abs(gauss - exact) <= 1e-15, k
    # neither is exact one even degree higher, so |K15 - G7| measures G7
    assert abs(numerics._gauss_kronrod(lambda x: x**24, 0.0, 1.0)[0] - 2.0 / 25) > 1e-9
    assert abs(numerics._gauss_kronrod(lambda x: x**14, 0.0, 1.0)[1] - 2.0 / 15) > 1e-5


def test_smooth_integrand_takes_one_rule_per_panel():
    calls = []

    def f(z):
        calls.append(z)
        return 2.5 + 0j

    a, b = 0.3 + 0.1j, 1.2 - 0.7j
    got = integrate_path(f, PathSpec.segment(a, b))
    assert len(calls) == 15 * numerics.INITIAL_PANELS == 60
    assert abs(got - 2.5 * (b - a)) < 1e-13


def test_near_pole_integrand_bisects_to_tolerance():
    # 1/(z - p) with p 1e-3 above the segment [0, 1]
    pole = 0.5 + 1e-3j
    calls = []

    def f(z):
        calls.append(z)
        return 1.0 / (z - pole)

    got = integrate_path(f, PathSpec.segment(0j, 1.0 + 0j))
    assert len(calls) > 15 * numerics.INITIAL_PANELS == 60
    assert abs(got - (cmath.log(1.0 - pole) - cmath.log(-pole))) <= numerics.ABS_TOL == 1e-10


def test_near_pole_integrals_are_right_or_raise():
    # the per-panel error control: 1/(z - p)^k near a pole either comes back
    # within 1e-9 of the closed form or raises, never silently wrong
    rng = np.random.default_rng(2024)
    returned = raised = 0
    for _ in range(300):
        a, b = (complex(*rng.uniform(-2.0, 2.0, size=2)) for _ in range(2))
        k = int(rng.integers(1, 5))
        distance = 10.0 ** rng.uniform(-3.0, math.log10(2.0))
        normal = 1j * (b - a) / abs(b - a) * rng.choice((-1.0, 1.0))
        pole = a + rng.uniform(0.0, 1.0) * (b - a) + distance * normal
        if k == 1:
            exact = cmath.log((b - pole) / (a - pole))
        else:
            exact = ((b - pole) ** (1 - k) - (a - pole) ** (1 - k)) / (1 - k)
        try:
            got = integrate_path(lambda z: (z - pole) ** -k, PathSpec.segment(a, b))
        except QuadratureConvergenceError:
            raised += 1
            continue
        returned += 1
        assert abs(got - exact) <= 1e-9, (a, b, k, pole, abs(got - exact))
    assert returned > 200 and raised > 0


def test_quadrature_vs_exact_property():
    rng = np.random.default_rng(31)
    for _ in range(50):
        e = LogLaurentExpr(
            [
                (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                 int(rng.integers(-4, 5)), int(rng.integers(0, 3)))
                for _ in range(int(rng.integers(1, 7)))
            ]
        )
        th = float(rng.uniform(-2.5, 2.5))
        r0, r1 = sorted(rng.uniform(0.5, 2.0, size=2))
        if r1 - r0 < 1e-3:
            r1 = r0 + 0.5
        numeric = integrate_path(lambda t: e.eval(t) / t, PathSpec.radial_ray(th, r0, r1))
        prim = e.antiderivative_over_arg().restrict_to_ray(th)
        exact = prim.eval(complex(r1)) - prim.eval(complex(r0))
        assert abs(numeric - exact) < 1e-9


def test_fd_laplacian_examples():
    saddle = lambda x, y: x * x - y * y
    assert abs(fd_laplacian(saddle, 0.7, -0.3, 1e-4)) < 1e-6
    logr = lambda x, y: 0.5 * math.log(x * x + y * y)
    assert abs(fd_laplacian(logr, 2.0, 0.0, 1e-4)) < 1e-5
    # non-harmonic control
    assert abs(fd_laplacian(lambda x, y: x * x, 0.3, 0.8, 1e-4) - 2.0) < 1e-6
    with pytest.raises(ValueError):
        fd_laplacian(saddle, 0.0, 0.0, 0.0)


def test_fd_laplacian_scaling():
    logr = lambda x, y: 0.5 * math.log(x * x + y * y)
    for h in (1e-3, 1e-4):
        assert abs(fd_laplacian(logr, 2.0, 0.0, h)) < 1e-4


def test_fourier_oracle_examples():
    cos2 = TrigPolynomial((0.0, 0.0, 1.0), (0.0,))
    for r, th in ((0.5, 0.3), (1.0, -1.2)):
        assert abs(fourier_neumann_oracle(cos2, r, th) - 0.5 * r * r * math.cos(2 * th)) < 1e-14
    cos1 = TrigPolynomial((0.0, 1.0), (0.0,))
    assert abs(fourier_neumann_oracle(cos1, 0.7, 0.4) - 0.7 * math.cos(0.4)) < 1e-14
    zero = TrigPolynomial((0.0,), (0.0,))
    assert fourier_neumann_oracle(zero, 0.5, 1.0) == 0.0


def test_fourier_oracle_rejects_nonzero_mean():
    with pytest.raises(NonzeroMeanError):
        fourier_neumann_oracle(TrigPolynomial((1.0, 1.0), (0.0,)), 0.5, 0.0)


def test_trig_polynomial_pair_trace_is_the_boundary_data():
    trig = TrigPolynomial((0.0, 0.5, -0.25, 0.1), (0.0, -0.3, 0.7, 0.0))
    pair = verification._disk_pair(trig)
    for th in np.linspace(-3.0, 3.0, 7):
        z = cmath.exp(1j * th)
        expected = trig.dirichlet_value(1.0, float(th))
        assert abs(pair.part_z.eval(z) + pair.part_z.conjugate_mirror().eval(z.conjugate())
                   - expected) < 1e-12


def test_suite_trace_extension_takes_log_free_pairs_only():
    saddle = HarmonicPair.symmetric(LogLaurentExpr.monomial(0.5, 2))
    trace = verification._robin_trace_bivariate(saddle, 1.0, 0.0)
    assert trace == BivariateLaurentExpr([(0.5, 2, 0), (0.5, 0, 2)])
    log_pair = HarmonicPair.symmetric(LogLaurentExpr([(0.5, 1, 1), (0.5, 2, 0)]))
    for pair in (log_pair, HarmonicPair.symmetric(LogLaurentExpr([(0.5, 1, 1)]))):
        for a, b in ((1.0, 0.0), (2.0, -1.0)):
            with pytest.raises(ValueError, match="log-free"):
                verification._robin_trace_bivariate(pair, a, b)


def test_trig_polynomial_validation():
    with pytest.raises(ValueError):
        TrigPolynomial((0.0,), (1.0,))


def test_suite_full_pass_and_failures_listing():
    report = run_verification_suite()
    assert report.all_passed
    assert all(c.passed for c in report.checks)
    assert len(report.checks) >= 25


@pytest.mark.parametrize("seed", [14, 20])
def test_suite_passes_at_seeds_once_failing_fd_harmonicity(seed):
    # with a 5-point stencil at h = 1e-4 and one generator shared by the
    # suite, fd_harmonicity read 1.3e-5 and 1.1e-5 at these seeds against
    # its 1e-5 tolerance
    report = run_verification_suite(seed=seed)
    assert report.all_passed, [c for c in report.checks if not c.passed]


def test_available_checks_name_the_suite_in_its_order():
    report = run_verification_suite(targets=["algebra", "geometry"])
    listed = numerics.available_checks()
    assert tuple((c.name, c.tag) for c in report.checks) == listed[: len(report.checks)]
    assert len(listed) == len(set(listed)) == 27


@pytest.mark.parametrize("seed", [3, 1729])
def test_each_check_gives_the_same_residuals_alone_as_in_the_full_suite(seed):
    # each check draws from its own stream, so what ran before it does not
    # move its inputs; a shared generator moved 16 of 27 at seed 3
    full = run_verification_suite(seed=seed).checks
    alone = [run_verification_suite(targets=(c.name,), seed=seed).checks[0] for c in full]
    assert [c for c, a in zip(full, alone) if c != a] == []


def test_linspace_equals_numpy_bit_for_bit_on_every_grid_the_suite_uses(monkeypatch):
    grids = set()
    linspace = verification._linspace

    def recording(start, stop, n):
        grids.add((start, stop, n))
        return linspace(start, stop, n)

    monkeypatch.setattr(verification, "_linspace", recording)
    run_verification_suite()
    assert len(grids) >= 10
    for start, stop, n in sorted(grids):
        want = [float(v).hex() for v in np.linspace(start, stop, n)]
        assert [v.hex() for v in linspace(start, stop, n)] == want, (start, stop, n)


def test_suite_empty_selection_passes():
    report = run_verification_suite(targets=[])
    assert report.all_passed and report.checks == ()


def test_suite_unknown_target_rejected():
    with pytest.raises(ValueError):
        run_verification_suite(targets=["nonexistent_check"])


def test_suite_tag_selection():
    report = run_verification_suite(targets=["algebra"])
    assert report.all_passed
    assert {c.tag for c in report.checks} == {"algebra"}


def test_suite_deterministic_json():
    a = run_verification_suite(targets=["algebra", "geometry"]).to_json()
    b = run_verification_suite(targets=["algebra", "geometry"]).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["seed"] == 1729
    assert all(c["passed"] for c in payload["checks"])


def test_suite_summary_table_shape():
    report = run_verification_suite(targets=["algebra"])
    table = report.summary_table()
    assert "PASS" in table and "antiderivative_round_trip" in table


def test_worst_residual_keeps_a_nan():
    assert verification.worst_residual([]) == 0.0
    assert verification.worst_residual(iter([0.5, 2.0, 1.0])) == 2.0
    for residuals in ([math.nan, 1.0, 2.0], [1.0, 2.0, math.nan], [math.nan]):
        assert math.isnan(verification.worst_residual(residuals))


def test_nan_residual_fails_its_check(monkeypatch, capsys):
    from harmonia import harmonic
    from harmonia.cli import main

    # a running max(worst, nan) from 0.0 dropped this and passed the check
    monkeypatch.setattr(harmonic, "radial_derivative", lambda *args: float("nan"))
    (record,) = run_verification_suite(targets=["boundary_recovery_dirichlet"]).checks
    assert math.isnan(record.max_residual) and record.passed is False
    assert main(["verify", "--targets", "boundary_recovery_dirichlet"]) == 1
    assert '"max_residual": null' in capsys.readouterr().out


# (samples, tolerance) of each check at the default seed, as the suite gave
# them when every check still reduced its own residuals
_REPORT_SHAPE = {
    "antiderivative_round_trip": (50, 0.0),
    "eval_homomorphism": (50, 1e-13),
    "ray_restriction_consistency": (50, 1e-11),
    "circle_restriction_kernel": (50, 0.0),
    "on_curve_identity": (192, 1e-12),
    "inverse_map_roundtrip": (144, 1e-12),
    "reflection_involution": (72, 1e-12),
    "real_slice_reflection": (48, 1e-12),
    "fd_harmonicity": (150, 1e-05),
    "real_slice_reality": (80, 1e-11),
    "normal_vs_radial_derivative": (60, 1e-10),
    "robin_trace_linearity": (50, 1e-11),
    "boundary_recovery_dirichlet": (320, 1e-10),
    "boundary_recovery_robin": (384, 1e-10),
    "robin_chain_constant_field": (20, 1e-18),
    "robin_ode_identity": (21, 0.0),
    "disk_operator_vs_pair": (50, 1e-08),
    "quadrature_vs_exact_algebra": (50, 1e-09),
    "fourier_oracle_vs_pair": (125, 1e-08),
    "fd_laplacian_scaling": (4, 0.0001),
    "reflection_fixed_points": (60, 1e-11),
    "dirichlet_reflection_involution": (40, 1e-11),
    "extension_independence": (50, 1e-12),
    "neumann_reflection_pipeline": (20, 1e-10),
    "robin_reflection_pipeline": (24, 1e-10),
    "even_continuation": (30, 1e-12),
    "arc_circle_reduction": (20, 1e-09),
}


def test_report_shape_at_the_default_seed():
    shape = [(c.name, (c.samples, c.tolerance)) for c in run_verification_suite().checks]
    assert shape == list(_REPORT_SHAPE.items())


def _move_every_point_off_its_curve(monkeypatch):
    """Every point reads 1 from its map's curve, so that the normal derivative
    on the curve, which only normal_vs_radial_derivative takes, raises."""
    from harmonia.geometry import SchwarzMap

    monkeypatch.setattr(SchwarzMap, "on_curve_residual", lambda smap, z: 1.0)


def test_a_check_that_raises_is_recorded_and_the_suite_goes_on(monkeypatch):
    _move_every_point_off_its_curve(monkeypatch)
    report = run_verification_suite(targets=["harmonic"])
    assert [c.name for c in report.checks] == [
        "fd_harmonicity", "real_slice_reality", "normal_vs_radial_derivative",
        "robin_trace_linearity",
    ]
    raised = report.checks[2]
    assert raised.passed is False and math.isnan(raised.max_residual)
    assert raised.error.startswith("DomainError: (-0.4161468365471424-0.9092974268256817j) does")
    assert raised.to_json()["error"] == raised.error
    assert [c for c in report.checks if not c.passed] == [raised]
    # the checks after it ran, and a record without an error keeps its JSON keys
    others = [c for c in report.checks if c is not raised]
    assert all(c.samples > 0 and c.error is None and "error" not in c.to_json() for c in others)


def test_verify_names_a_raising_check_on_stderr_and_exits_one(monkeypatch, capsys):
    from harmonia.cli import main

    _move_every_point_off_its_curve(monkeypatch)
    assert main(["verify", "--targets", "harmonic", "--format", "table"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: check normal_vs_radial_derivative raised DomainError: "
        "(-0.4161468365471424-0.9092974268256817j) does not lie on the carrier curve\n"
    )
    rows = {ln.split()[0]: ln.split() for ln in captured.out.splitlines()[1:]}
    assert rows["normal_vs_radial_derivative"][-2:] == ["1e-10", "FAIL"]
    assert rows["robin_trace_linearity"][-1] == "PASS"


# -- the exact/oracle rule -----------------------------------------------------

_EXACT_MODULES = {"algebra", "harmonic", "operators", "reflection"}
# the one import of the suite in numerics: the benchmark reads
# harmonia.numerics.available_checks(), so the name stays here until the
# benchmark reads it from verification
_SUITE_IMPORTS_IN_NUMERICS = {"available_checks"}
# verification calls the functions of these modules through the module, so
# that a patch on the defining module reaches every check
_READ_THROUGH_MODULE = {"geometry", "harmonic", "operators", "reflection", "numerics"}


def _imports(source: str) -> list:
    """(enclosing function or None, module, name) of every import in source.

    A module of the package is named without the package (``from .algebra
    import X``, ``from . import algebra`` and ``import harmonia.algebra`` all
    name ``algebra``); name is None where a whole module is imported.
    """
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Import):
                found.extend((function, a.name.removeprefix("harmonia."), None) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                module = child.module or ""
                if child.level:
                    module = f"harmonia.{module}".rstrip(".")
                for a in child.names:
                    if module == "harmonia":
                        found.append((function, a.name, None))
                    else:
                        found.append((function, module.removeprefix("harmonia."), a.name))
            else:
                visit(child, function)

    visit(ast.parse(source), None)
    return found


def _module_imports(name: str) -> list:
    return _imports((Path(numerics.__file__).parent / f"{name}.py").read_text())


def test_the_import_reader_finds_every_form_at_any_depth():
    source = (
        "from .algebra import LogLaurentExpr\n"
        "from . import harmonic\n"
        "import harmonia.operators\n"
        "import numpy as np\n"
        "class C:\n"
        "    def f(self):\n"
        "        if True:\n"
        "            from harmonia.reflection import reflect_neumann_circle\n"
    )
    assert _imports(source) == [
        (None, "algebra", "LogLaurentExpr"),
        (None, "harmonic", None),
        (None, "operators", None),
        (None, "numpy", None),
        ("f", "reflection", "reflect_neumann_circle"),
    ]


def test_numerics_imports_no_exact_module_and_the_suite_only_in_available_checks():
    imports = _module_imports("numerics")
    assert [i for i in imports if i[1] in _EXACT_MODULES or i[1] == "numpy"] == []
    assert {f for f, module, _ in imports if module == "verification"} == _SUITE_IMPORTS_IN_NUMERICS
    at_load = {module for f, module, _ in imports if f is None}
    assert at_load == {"__future__", "math", "dataclasses", "typing", "errors", "geometry"}


def test_verification_imports_no_numpy_at_any_depth():
    imports = _module_imports("verification")
    assert [i for i in imports if i[1].partition(".")[0] == "numpy"] == []


def test_a_cold_verify_leaves_numpy_random_unloaded():
    code = (
        "import contextlib, io, sys\n"
        "from harmonia.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify'])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "0 False\n", "")


def test_verification_imports_once_and_no_library_function_by_name():
    imports = _module_imports("verification")
    assert [i for i in imports if i[0] is not None] == []
    by_name = [(m, n) for _, m, n in imports if m in _READ_THROUGH_MODULE and n is not None]
    assert ("harmonic", "HarmonicPair") in by_name
    assert [
        (m, n) for m, n in by_name
        if not isinstance(getattr(importlib.import_module(f"harmonia.{m}"), n), type)
    ] == []
