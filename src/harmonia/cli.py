"""Command-line front end.

Subcommands:

* ``examples`` replays the packaged golden cases and prints a residual
  table (the expected values live in the fixture file, not in code).
* ``verify`` runs the invariant suite and emits the verification report.
* ``field`` samples a field (a pair, an operator output, or a reflected
  continuation) over a polar grid as CSV or JSON.
* ``reflect`` evaluates one reflection formula at a point and prints the
  result record; ``--check`` also evaluates the supplied solution at the
  reflected point and reports the residual.

Exit codes: 0 success, 1 residual failures (a ``verify`` check whose
library call raises is one, and an ``error:`` line names it), 2 malformed
input or input the library rejects, with one ``error:`` line; an input
file is held to its shape in ``records`` once, and the line names the
JSON path of its fault.  JSON output writes a NaN or infinite number as
null.
``--seed`` belongs to ``verify`` and ``--tol`` to ``examples``, ``verify``
and ``reflect``; ``--input`` and ``--example`` exclude each other, as do a
``reflect --input`` point and ``--point``, and that file's ``params`` need
``--formula robin``.  The environment variable ``HARMONIA_CUT_ANGLE``
overrides the branch-cut direction used when parsing expressions.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources

import numpy as np

from .algebra import DEFAULT_CUT_ANGLE, BivariateLaurentExpr
from .errors import HarmoniaError
from .geometry import BiPoint, SchwarzMap, reflect_bipoint
from .harmonic import HarmonicPair, RobinParams, eval_pair, eval_real
from .operators import neumann_from_dirichlet_pair, neumann_from_robin_pair
from .records import EXAMPLES, FIELD_INPUT, REFLECT_INPUT, read, write
from .reflection import (
    reflect_dirichlet_study,
    reflect_neumann_circle,
    reflect_neumann_schwarz,
    reflect_robin_circle,
)
from .verification import DEFAULT_SEED, run_verification_suite, worst_residual

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2

_REFLECT_R = tuple(np.linspace(0.6, 0.95, 5))
_REFLECT_TH = tuple(np.linspace(-2.0, 2.0, 4))


class _OptionError(ValueError):
    """A malformed command-line option value; the message names the option."""


@dataclass(frozen=True)
class GridSpec:
    r_min: float
    r_max: float
    n_r: int
    theta_min: float
    theta_max: float
    n_theta: int

    def __post_init__(self):
        bounds = (self.r_min, self.r_max, self.theta_min, self.theta_max)
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError(f"bounds must be finite numbers, got {bounds}")
        if self.n_r < 2 or self.n_theta < 2:
            raise ValueError("grid counts must be >= 2")
        if not self.r_min > 0:
            raise ValueError("r_min must be positive")
        if not (self.r_max > self.r_min and self.theta_max > self.theta_min):
            raise ValueError("grid bounds must be increasing")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """The grid of a ``--grid rmin:rmax:nr:tmin:tmax:nt`` option."""
        try:
            r_min, r_max, n_r, t_min, t_max, n_t = text.split(":")
            return cls(float(r_min), float(r_max), int(n_r), float(t_min), float(t_max), int(n_t))
        except ValueError as exc:
            raise _OptionError(
                f"--grid must be rmin:rmax:nr:tmin:tmax:nt, got {text!r}: {exc}"
            ) from None

    def points(self):
        for r in np.linspace(self.r_min, self.r_max, self.n_r):
            for th in np.linspace(self.theta_min, self.theta_max, self.n_theta):
                yield float(r), float(th)


def _cut_angle_from_env() -> float:
    raw = os.environ.get("HARMONIA_CUT_ANGLE")
    if raw is None:
        return DEFAULT_CUT_ANGLE
    try:
        angle = float(raw)
        if not abs(angle) <= 2.0 * math.pi:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"HARMONIA_CUT_ANGLE must be a finite angle in [-2pi, 2pi] radians, got {raw!r}"
        ) from None
    return angle


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _load_fixture_examples() -> list:
    data = resources.files("harmonia").joinpath("fixtures/examples.json").read_text("utf-8")
    return read(json.loads(data), EXAMPLES)["examples"]


def _fixture(example_id: str) -> dict | None:
    return next((row for row in _load_fixture_examples() if row["id"] == example_id), None)


_OPERATOR_KINDS = ("dtn_pair", "rtn_pair")
_REFLECT_KINDS = ("reflect_neumann", "reflect_robin")


def _operator_output(rec: dict, cut: float, at: str = "") -> HarmonicPair:
    """The Neumann pair of a ``dtn_pair`` or ``rtn_pair`` record found at the
    JSON path prefix ``at``."""
    if rec["kind"] == "dtn_pair":
        return neumann_from_dirichlet_pair(HarmonicPair._from_record(rec["u"], cut, at + "u"))
    w = HarmonicPair._from_record(rec["w"], cut, at + "w")
    return neumann_from_robin_pair(w, RobinParams(rec["a"], rec["b"]))


def _reflector(rec: dict, cut: float, at: str = ""):
    """The solution of a ``reflect_neumann`` or ``reflect_robin`` record found
    at the JSON path prefix ``at``, and its reflection across the unit circle
    at a point."""
    neumann = rec["kind"] == "reflect_neumann"
    key = "v" if neumann else "w"
    solution = HarmonicPair._from_record(rec[key], cut, at + key)
    data = BivariateLaurentExpr._from_terms(rec["data"])
    if neumann:
        return solution, partial(reflect_neumann_circle, solution, data)
    params = RobinParams(rec["a"], rec["b"])
    return solution, partial(reflect_robin_circle, solution, data, params)


_EXAMPLE_GRID = GridSpec(0.6, 1.4, 10, -2.0, 2.0, 10)


def _grid_residuals_mod_constant(computed: HarmonicPair, expected: HarmonicPair, grid: GridSpec):
    pin_c = eval_real(computed, 1.0, 0.0)
    pin_e = eval_real(expected, 1.0, 0.0)
    for r, th in grid.points():
        x, y = r * math.cos(th), r * math.sin(th)
        yield abs((eval_real(computed, x, y) - pin_c) - (eval_real(expected, x, y) - pin_e))


def _run_example_row(row: dict, cut: float, tol_override: float | None) -> dict:
    kind = row["kind"]
    tol = tol_override if tol_override is not None else row["tolerance"]
    record = {
        "id": row["id"],
        "title": row["title"],
        "kind": kind,
        "tolerance": tol,
    }
    ratio = row.get("alt_coefficient_ratio")
    alt_residuals = []
    if kind in _OPERATOR_KINDS:
        expected = HarmonicPair._from_record(row["expected_v"], cut)
        computed = _operator_output(row, cut)
        residuals = list(_grid_residuals_mod_constant(computed, expected, _EXAMPLE_GRID))
    elif kind in _REFLECT_KINDS:
        solution, reflect = _reflector(row, cut)
        expected = HarmonicPair._from_record(row["expected_correction"], cut)
        smap = SchwarzMap.unit_circle()
        residuals = []
        for r in _REFLECT_R:
            for th in _REFLECT_TH:
                p = BiPoint.from_polar(float(r), float(th))
                res = reflect(p, verify_numeric=True)
                expected_corr = eval_pair(expected, p)
                direct = eval_pair(solution, reflect_bipoint(smap, p))
                residuals.append(
                    worst_residual((abs(res.correction - expected_corr), abs(res.value - direct)))
                )
                if ratio is not None:
                    alt_residuals.append(abs(res.correction - ratio * expected_corr))
    else:
        raise ValueError(f"unknown example kind {kind!r}")
    worst = worst_residual(residuals)
    record.update(samples=len(residuals), max_residual=worst, status="PASS" if worst <= tol else "FAIL")
    if row.get("discrepancy"):
        record["status"] = "DISCREPANCY"
        record["passed_derived"] = worst <= tol
        record["alt_coefficient_ratio"] = ratio
        record["alt_residual"] = worst_residual(alt_residuals)
        record["note"] = row.get("note", "")
    return record


def _examples_table(records: list) -> str:
    lines = [
        f"{'id':26s} {'kind':16s} {'n':>3s} {'max residual':>13s} {'tol':>8s} status"
    ]
    for rec in records:
        lines.append(
            f"{rec['id']:26s} {rec['kind']:16s} {rec['samples']:>3d} "
            f"{rec['max_residual']:>13.3e} {rec['tolerance']:>8.0e} {rec['status']}"
        )
        if rec["status"] == "DISCREPANCY":
            lines.append(
                f"    derived coefficient residual {rec['max_residual']:.3e} "
                f"({'PASS' if rec['passed_derived'] else 'FAIL'}); half-scale variant "
                f"residual {rec['alt_residual']:.3e} (not asserted)"
            )
    return "\n".join(lines)


def _examples_csv(records: list) -> str:
    lines = ["id,kind,samples,max_residual,tolerance,status"]
    for rec in records:
        lines.append(
            f"{rec['id']},{rec['kind']},{rec['samples']},{rec['max_residual']!r},"
            f"{rec['tolerance']!r},{rec['status']}"
        )
    return "\n".join(lines)


def cmd_examples(args: argparse.Namespace, cut: float) -> int:
    records = []
    for row in _load_fixture_examples():
        try:
            records.append(_run_example_row(row, cut, args.tol))
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(f"example {row['id']!r}: {_error_text(exc)}") from None
    if args.format == "json":
        text = write({"examples": records})
    elif args.format == "csv":
        text = _examples_csv(records)
    else:
        text = _examples_table(records)
    _emit(text, args.output)
    # a DISCREPANCY row passes on its derived coefficient
    passed = all(rec["status"] == "PASS" or rec.get("passed_derived") for rec in records)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_verify(args: argparse.Namespace, cut: float) -> int:
    if args.seed < 0:
        raise _OptionError(f"--seed must be a non-negative integer, got {args.seed}")
    targets = None
    if args.targets:
        targets = tuple(t.strip() for t in args.targets.split(",") if t.strip())
    report = run_verification_suite(targets=targets, seed=args.seed)
    for c in report.checks:
        if c.error is not None:
            print(f"error: check {c.name} raised {c.error}", file=sys.stderr)
    if args.tol is not None:
        checks = tuple(replace(c, tolerance=args.tol) for c in report.checks)
        report = replace(report, checks=checks)
    text = report.to_json() if args.format == "json" else report.summary_table()
    _emit(text, args.output)
    return EXIT_OK if report.all_passed else EXIT_FAIL


def _field_evaluator(source: dict, cut: float, at: str):
    """The field of a ``field`` source record (a fixture row is one) found at
    the JSON path prefix ``at``, as a function of polar coordinates."""
    kind = source["kind"]
    if kind == "pair":
        pair = HarmonicPair._from_record(source["pair"], cut, at + "pair")
    elif kind in _OPERATOR_KINDS:
        pair = _operator_output(source, cut, at)
    else:
        _, reflect = _reflector(source, cut, at)
        # the continuation value at (r, theta) comes from the mirror source
        # point at radius 1/r
        return lambda r, th: reflect(BiPoint.from_polar(1.0 / r, th)).value.real
    return lambda r, th: eval_real(pair, r * math.cos(th), r * math.sin(th))


_ROW_ERROR_REASONS = {
    "CutProximityError": "cut_proximity",
    "PoleError": "pole",
    "DomainError": "domain_error",
}


_FIELD_COLUMNS = ("r", "theta", "x", "y", "value", "reason")


def cmd_field(args: argparse.Namespace, cut: float) -> int:
    grid = GridSpec.parse(args.grid)
    if args.example:
        source, at = _fixture(args.example), ""
        if source is None:
            raise ValueError(f"unknown example id {args.example!r}")
    elif args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            source, at = read(json.load(fh), FIELD_INPUT)["field"], "field."
    else:
        raise ValueError("field requires --input or --example")
    evaluator = _field_evaluator(source, cut, at)
    rows = []
    for r, th in grid.points():
        x, y = r * math.cos(th), r * math.sin(th)
        try:
            value, reason = evaluator(r, th), ""
        except ArithmeticError as exc:  # PowerUnderflowError too: a range failure is bad input
            raise ArithmeticError(f"at r = {r!r}, theta = {th!r}: {_error_text(exc)}") from None
        except HarmoniaError as exc:
            value, reason = None, _ROW_ERROR_REASONS.get(type(exc).__name__, "error")
        else:
            if not math.isfinite(value):
                raise ArithmeticError(f"the field at r = {r!r}, theta = {th!r} is not finite")
        rows.append((r, th, x, y, value, reason))
    if args.format == "json":
        text = write({"rows": [dict(zip(_FIELD_COLUMNS, row)) for row in rows]})
    else:
        lines = [",".join(_FIELD_COLUMNS)]
        for r, th, x, y, value, reason in rows:
            shown = "" if value is None else repr(value)
            lines.append(f"{r!r},{th!r},{x!r},{y!r},{shown},{reason}")
        text = "\n".join(lines)
    _emit(text, args.output)
    return EXIT_OK


def _parse_point(text: str) -> BiPoint:
    """The point of a ``--point r:theta`` option."""
    try:
        r, theta = (float(v) for v in text.split(":"))
    except ValueError:
        r = theta = math.nan
    if not (math.isfinite(r) and math.isfinite(theta)):
        raise _OptionError(f"--point must be two finite numbers r:theta, got {text!r}")
    return BiPoint.from_polar(r, theta)


def cmd_reflect(args: argparse.Namespace, cut: float) -> int:
    p = None if args.point is None else _parse_point(args.point)
    if args.example:
        row = _fixture(args.example)
        if row is None or row["kind"] not in _REFLECT_KINDS:
            raise ValueError(f"example id {args.example!r} is not a reflection fixture")
        key = "v" if row["kind"] == "reflect_neumann" else "w"
        payload = {"solution": row[key], "data": row["data"]}
        if "a" in row:
            payload["params"] = {"a": row["a"], "b": row["b"]}
    elif args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = read(json.load(fh), REFLECT_INPUT)
        if p is not None and "point" in payload:
            raise ValueError("point: given in the file and by --point; give one")
        if args.formula != "robin" and "params" in payload:
            raise ValueError(f"params: read only by --formula robin, not {args.formula}")
    else:
        raise ValueError("reflect requires --input or --example")
    solution = HarmonicPair._from_record(payload["solution"], cut, "solution")
    data = BivariateLaurentExpr._from_terms(payload.get("data", []))
    smap = SchwarzMap._from_record(payload["map"]) if "map" in payload else SchwarzMap.unit_circle()
    formula = args.formula
    if formula in ("neumann", "robin") and smap != SchwarzMap.unit_circle():
        raise ValueError(
            f"the {formula} formula holds only for the unit circle; "
            "use --formula schwarz to reflect across another map"
        )
    point = payload.get("point", {})  # polar or in C^2
    if "r" in point:
        p = BiPoint.from_polar(point["r"], point["theta"])
    elif "z" in point:
        z, zeta = point["z"], point["zeta"]
        p = BiPoint(complex(z["re"], z.get("im", 0.0)), complex(zeta["re"], zeta.get("im", 0.0)))
    elif p is None:
        p = BiPoint.from_polar(0.8, 0.0)
    try:
        if formula == "dirichlet":
            result = reflect_dirichlet_study(solution, data, smap, p)
        elif formula == "neumann":
            result = reflect_neumann_circle(solution, data, p)
        elif formula == "robin":
            params = payload.get("params", {"a": 1.0, "b": 1.0})
            result = reflect_robin_circle(solution, data, RobinParams(params["a"], params["b"]), p)
        else:
            result = reflect_neumann_schwarz(solution, data, smap, p)
        record = result.to_json()
        exit_code = EXIT_OK
        if args.check:
            residual = abs(eval_pair(solution, result.reflected_point) - result.value)
            record["check_residual"] = residual
            tol = args.tol if args.tol is not None else 1e-10
            if not (residual <= tol):
                exit_code = EXIT_FAIL
        finite = cmath.isfinite(result.value) and cmath.isfinite(result.correction)
        if exit_code == EXIT_OK and not finite:  # a failed --check reports its residual
            raise ArithmeticError("the result is not finite")
    except ArithmeticError as exc:
        raise ArithmeticError(f"at z = {p.z}, zeta = {p.zeta}: {_error_text(exc)}") from None
    _emit(write(record), args.output)
    return exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonia",
        description="Boundary operators and reflection formulas for harmonic "
        "functions near circular arcs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices, fmt_default):
        p.add_argument("--format", choices=fmt_choices, default=fmt_default)
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    def tolerance(p):
        p.add_argument("--tol", type=float, default=None, help="tolerance override, >= 0")

    def source(p, input_help, example_help):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--input", default=None, help=input_help)
        group.add_argument("--example", default=None, help=example_help)

    p = sub.add_parser("examples", help="replay the packaged golden cases")
    p.set_defaults(run=cmd_examples)
    common(p, ("table", "json", "csv"), "table")
    tolerance(p)

    p = sub.add_parser("verify", help="run the invariant verification suite")
    p.set_defaults(run=cmd_verify)
    common(p, ("table", "json"), "json")
    tolerance(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="suite seed")
    p.add_argument(
        "--targets",
        default=None,
        help="comma-separated check names or tags (default: all)",
    )

    p = sub.add_parser("field", help="sample a field over a polar grid")
    p.set_defaults(run=cmd_field)
    common(p, ("csv", "json"), "csv")
    source(p, "JSON file describing the field", "packaged example id as the field")
    p.add_argument("--grid", default="0.6:1.4:10:-2.0:2.0:10", help="rmin:rmax:nr:tmin:tmax:nt")

    p = sub.add_parser("reflect", help="evaluate a reflection formula at a point")
    p.set_defaults(run=cmd_reflect)
    common(p, ("json",), "json")
    tolerance(p)
    source(p, "JSON file with solution/data/point", "packaged reflection example id")
    p.add_argument(
        "--formula",
        choices=("dirichlet", "neumann", "robin", "schwarz"),
        default="neumann",
    )
    p.add_argument("--point", default=None, help="evaluation point as r:theta")
    p.add_argument(
        "--check",
        action="store_true",
        help="also evaluate the solution at the reflected point and report the residual",
    )
    return parser


def _source(args: argparse.Namespace) -> str:
    """The input an error line names: the ``--input`` path or the ``--example`` id."""
    if getattr(args, "input", None):
        return args.input
    if getattr(args, "example", None):
        return f"example {args.example!r}"
    return f"harmonia {args.command}"


def _error_text(exc: Exception) -> str:
    """The error line's account of ``exc``: an overflow says so, where
    math's own text is (34, 'Numerical result out of range')."""
    if isinstance(exc, OverflowError) and exc.args:
        return f"overflow: {exc.args[-1]}"
    return str(exc)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not 0 <= tol < math.inf:
            raise _OptionError(f"--tol must be a finite number >= 0, got {tol!r}")
        return args.run(args, _cut_angle_from_env())
    except ArithmeticError as exc:
        # input whose arithmetic overflows or divides by zero is bad input
        message = f"{_source(args)}: {_error_text(exc)}"
    except (OSError, _OptionError) as exc:
        message = str(exc)
    except ValueError as exc:
        # HarmoniaError is a ValueError: input the library rejects is bad input
        message = f"{args.input}: {exc}" if getattr(args, "input", None) else str(exc)
    print(f"error: {message}", file=sys.stderr)
    return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
