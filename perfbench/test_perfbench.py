"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run from the repository root, import harmonia from ``src/``, and take
under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _inputs(seed):
    return (
        gen.dense_cases(seed),
        [gen.fresh_input(seed, i) for i in range(20)],
        gen.arc_setup(seed),
        [gen.arc_point(seed, i) for i in range(20)],
        gen.field_trig(seed),
        [gen.reflect_point(seed, i) for i in range(5)],
    )


def test_same_seed_gives_identical_inputs():
    assert _inputs(7) == _inputs(7)
    assert all(a != b for a, b in zip(_inputs(7), _inputs(8)))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_run_emits_the_declared_metrics():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "exact-fresh",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _bindings_snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "harmonia" or name.startswith("harmonia."):
            for attr, obj in vars(mod).items():
                snap[(name, attr)] = obj
                if isinstance(obj, type) and obj.__module__.startswith("harmonia"):
                    for key, member in vars(obj).items():
                        snap[(name, attr, key)] = member
    return snap


def test_traced_run_emits_per_layer_metrics_and_restores_originals():
    import harmonia  # noqa: F401  (load every module before the snapshot)
    import harmonia.cli  # noqa: F401

    before = _bindings_snapshot()
    values, samples, attempted, failures, problems, extra = run.traced("arc-quadrature", 3, 1.0)
    after = _bindings_snapshot()
    assert not failures and not problems
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(values) == declared
    assert {name for name, _ in run.per_layer_names()} == declared
    assert values["numerics.integrate_path.calls"] > 0
    assert values["geometry.sqrt_branch_lookup.calls"] > 0
    assert values["numerics.evals_per_integral"] > 0


def test_wrappers_cover_every_rebinding():
    import harmonia

    tracer = tracing.Tracer()
    original = harmonia.numerics.integrate_path
    branch = harmonia.geometry.sqrt_schwarz_derivative
    call = harmonia.algebra.LogLaurentExpr.__dict__["__call__"]
    tracer.install()
    try:
        for mod in (harmonia, harmonia.numerics, harmonia.operators, harmonia.reflection):
            assert mod.integrate_path is not original
            assert mod.integrate_path is harmonia.numerics.integrate_path
        assert harmonia.operators.sqrt_schwarz_derivative is not branch
        assert harmonia.reflection.sqrt_schwarz_derivative is not branch
        assert harmonia.algebra.LogLaurentExpr.__dict__["__call__"] is not call
    finally:
        tracer.restore()
    assert tracer.restored()
    assert harmonia.operators.integrate_path is original


def _perturb(out):
    if isinstance(out, tuple):
        return (_perturb(out[0]),) + out[1:]
    return out + 1e-3


@pytest.mark.parametrize("name", ["exact-dense", "exact-fresh", "arc-quadrature"])
def test_checks_reject_a_wrong_output(name, tmp_path):
    w = workloads.make(name, 5, str(tmp_path), os.path.join(ROOT, "src"))
    for i in range(12):
        x = w.prepare(i)
        out = w.op(x)
        assert w.check(x, _perturb(out)) is not None
        assert w.check(x, out) is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_cli_checks_accept_each_command_and_reject_a_wrong_output(tmp_path):
    w = workloads.make("cli-cold", 5, str(tmp_path), os.path.join(ROOT, "src"), in_process=True)
    for i in range(w.round):
        x = w.prepare(i)
        code, text = w.op(x)
        assert w.check(x, (code, text)) is None
        assert w.check(x, (1, text)) is not None
        if x[0] == "field":
            header, first, *rest = text.splitlines()
            cells = first.split(",")
            cells[4] = repr(float(cells[4]) + 1e-6)
            wrong = "\n".join([header, ",".join(cells), *rest])
            assert w.check(x, (code, wrong)) is not None
