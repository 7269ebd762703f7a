"""Benchmark of harmonia: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: cli-cold, exact-dense,
exact-fresh, arc-quadrature (see perfbench/README.md).  With ``--trace 0``
the run reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it reports the per-layer metrics: the workload runs untraced,
then traced for TRACED_SECONDS, then the module-level probes run.  Times of
the end-to-end metrics are at a reference machine speed (see speed.py).
The last line of standard output is the result as one JSON object; a
fuller record, stamped with the environment, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import probes
import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 7
SLICE_S = 0.5
SMOOTH = 2  # slices on each side whose calibrations scale a slice
WINDOW_OPS = 100
PROBE_REPEATS = 3
WARMUP_OPS = 8
TRACED_SECONDS = 2.0  # spans are kept in memory, so the traced phase is short


def per_layer_names() -> list:
    names = []
    for span in tracing.SPAN_NAMES:
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    names += list(tracing.COUNTERS) + probes.metric_names()
    return names + [("trace_overhead_frac", "ratio")]


# -- environment -------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- measurement ---------------------------------------------------------------------


def _timed_child(argv: list, env: dict) -> float:
    t0 = perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
    return perf_counter() - t0


def setup_time(workload: str, seed: int, env: dict) -> tuple:
    """Median set-up time over fresh processes, (reference-speed, wall): a
    cold ``import harmonia`` for cli-cold, otherwise interpreter start,
    import, input generation and warm-up (this script with ``--setup-only``)."""
    if workload == "cli-cold":
        argv = [sys.executable, "-c", "import harmonia"]
    else:
        argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
                "--workload", workload, "--seed", str(seed)]
    calibrations, walls = [], []
    for _ in range(SETUP_REPEATS):
        calibrations.append(speed.calibration())
        walls.append(_timed_child(argv, env))
    wall = statistics.median(walls)
    return wall * speed.factor(calibrations), wall


def build(workload: str, seed: int, in_process: bool = False):
    w = workloads.make(workload, seed, OUT, SRC, in_process)
    if workload != "cli-cold":
        for i in range(WARMUP_OPS):
            w.op(w.prepare(-1 - i))
    return w


def loop(w, seconds: float, tracer=None) -> tuple:
    """Closed loop with one caller until ``seconds`` have passed, at least
    ``w.min_ops`` ops were made, and a round of ``w.round`` ops is whole.

    A calibration is taken every SLICE_S.  The latencies of each slice are
    scaled to the reference speed by the median of the calibrations taken
    within SMOOTH slices of it, which follows the machine's slow and fast
    phases without adding one calibration's jitter to every op.  Returns
    (reference-speed latencies, wall latencies, failures), latencies in op
    order.
    """
    wall, failures = [], []
    end = perf_counter() + seconds
    slice_end = perf_counter() + SLICE_S
    calibrations = [speed.calibration()]
    bounds = [0]  # wall[bounds[k]:bounds[k + 1]] is slice k
    i = 0
    while True:
        x = w.prepare(i)
        if tracer is not None:
            tracer.on = True
        t0 = perf_counter()
        try:
            out = w.op(x)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            out = exc
        wall.append(perf_counter() - t0)
        if tracer is not None:
            tracer.on = False
        if isinstance(out, Exception):
            err = f"{type(out).__name__}: {out}"
        else:
            try:
                err = w.check(x, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append(f"op {i}: {err}")
        i += 1
        done = i % w.round == 0 and i >= w.min_ops and perf_counter() >= end
        if done or perf_counter() >= slice_end:
            calibrations.append(speed.calibration())
            bounds.append(len(wall))
            slice_end = perf_counter() + SLICE_S
        if done:
            scaled = []
            for k in range(len(bounds) - 1):
                f = speed.factor(calibrations[max(0, k - SMOOTH):k + SMOOTH + 2])
                scaled += [t * f for t in wall[bounds[k]:bounds[k + 1]]]
            return scaled, wall, failures


def windows(lat: list, round_: int) -> list:
    """Consecutive windows of whole rounds and at least WINDOW_OPS ops; a
    short tail joins the last window."""
    size = -(-WINDOW_OPS // round_) * round_
    ws = [lat[i:i + size] for i in range(0, len(lat), size)]
    if len(ws) > 1 and len(ws[-1]) < size:
        tail = ws.pop()
        ws[-1] += tail
    return ws


def latency_metrics(lat: list, round_: int) -> dict:
    """ops_per_s over the whole run; p50 and p90 as the median over windows,
    so that a window disturbed by a burst of other load does not move them."""
    ws = windows(lat, round_)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(statistics.median(w) for w in ws) * 1e3,
        "op_p90_ms": statistics.median(statistics.quantiles(w, n=10)[-1] for w in ws) * 1e3,
    }


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    env = workloads.child_env(SRC)
    _timed_child([sys.executable, "-c", "import harmonia"], env)  # fills bytecode caches
    setup_s, setup_wall = setup_time(workload, seed, env)
    w = build(workload, seed)
    lat, wall, failures = loop(w, seconds)
    n = len(lat)
    cold = workload == "cli-cold"
    values = {
        "setup_s": setup_s,
        **latency_metrics(lat, w.round),
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF),
    }
    quantiles = f"{n} ops in {len(windows(lat, w.round))} windows"
    samples = {"setup_s": SETUP_REPEATS, "ops_per_s": n, "op_p50_ms": quantiles,
               "op_p90_ms": quantiles, "peak_rss_mb": 1}
    extra = {"wall_clock": {"setup_s": setup_wall, **latency_metrics(wall, w.round)}}
    if cold:
        # per-command medians: what a user pays for each command
        by_command = {}
        for j, t in enumerate(lat):
            by_command.setdefault(w.commands[j % w.round], []).append(t)
        for command, times in by_command.items():
            extra[f"cli_{command}_s"] = {"value": statistics.median(times), "unit": "s",
                                         "samples": len(times)}
    return values, samples, n, failures, [], extra


def traced(workload: str, seed: int, seconds: float) -> tuple:
    w = build(workload, seed, in_process=True)
    traced_seconds = min(TRACED_SECONDS, seconds / 2)
    lat_plain, _, failures = loop(w, seconds - traced_seconds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lat_traced, _, traced_failures = loop(w, traced_seconds, tracer)
    finally:
        tracer.restore()
    failures += traced_failures
    problems = [] if tracer.restored() else ["a wrapped function was not restored"]
    values = {name: v for name, (v, _) in tracer.summary().items()}
    cold = workloads.CliCold(seed, OUT, SRC)
    argv = {c: cold.argv(c, 0) for c in probes.CLI_COMMANDS}
    probe_values, probe_failures = probes.measure(argv, workloads.child_env(SRC), PROBE_REPEATS)
    values.update(probe_values)
    problems += probe_failures
    plain_rate = latency_metrics(lat_plain, w.round)["ops_per_s"]
    traced_rate = latency_metrics(lat_traced, w.round)["ops_per_s"]
    values["trace_overhead_frac"] = traced_rate / plain_rate - 1.0
    spans_file = os.path.join(OUT, f"spans-{workload}-seed{seed}.csv.gz")
    tracer.write(spans_file)
    traced_ops = len(lat_traced)
    n = len(lat_plain) + traced_ops
    samples = {name: traced_ops for name in values}
    samples.update({name: PROBE_REPEATS for name in probe_values})
    samples["trace_overhead_frac"] = n
    extra = {
        "ops_per_s_untraced": plain_rate,
        "ops_per_s_traced": traced_rate,
        "spans_file": os.path.relpath(spans_file, ROOT),
        "spans": len(tracer.names),
        "verification_rng_note": probes.RNG_NOTE,
        "verify_at_run_seed": probes.verify_at_seed(seed),
    }
    return values, samples, n, failures, problems, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (times set-up in a fresh process)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "harmonia", "__init__.py")):
        print(f"error: no harmonia source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    # one core for this process and its children, so that the calibrations
    # (speed.py) see the conditions the measured work runs in
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_only:
        build(args.workload, args.seed)
        return 0

    measure = traced if args.trace else end_to_end
    values, samples, attempted, failures, problems, extra = measure(
        args.workload, args.seed, args.seconds
    )
    names = per_layer_names() if args.trace else list(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "error_rate": len(failures) / attempted,
        "metrics": {n: dict(m, samples=samples[n]) for n, m in metrics.items()},
        "extra": extra,
        "failures": failures[:20],
        "problems": problems,
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for name, m in record["metrics"].items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}")
    for name, m in extra.items():
        if isinstance(m, dict) and "value" in m:
            print(f"{name:44s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}")
    for f in failures[:5] + problems:
        print(f"FAILED {f}")
    at_seed = extra.get("verify_at_run_seed")
    if at_seed and not at_seed["all_passed"]:
        names = ", ".join(c["name"] for c in at_seed["failed_checks"])
        print(f"program defect, not an op: verify --seed {args.seed} fails {names} "
              "(see perfbench/README.md)")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
