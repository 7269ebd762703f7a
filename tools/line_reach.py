"""Which lines of ``src/harmonia`` the system's callers and tier-1 reach.

A ``sys.settrace`` recorder runs over two sets of runs:

* callers, in this process: every command of the output corpus
  (``tools/cli_corpus.py``) through ``cli.main``; 300 ops of the
  exact-dense, exact-fresh and arc-quadrature workloads with their checks,
  and one round of cli-cold in process, each at seeds 7 and 3.  The
  workloads are imported read-only from ``perfbench/workloads.py``.
* tier-1: ``python -m pytest`` in a child process.  A ``sitecustomize.py`` on
  a scratch ``PYTHONPATH`` starts the recorder in that process and in every
  ``python -m harmonia`` it starts, so lines that only subprocess tests run
  count as reached.

Each executable line (a line start of some code object) is reached by the
callers, by tier-1 only, or by neither.  The table ``tools/line_reach.json``
holds the counts per module, each line reached by tier-1 only, and each line
reached by neither with the reason it is kept.  A line is keyed by its
module, its function and its source text (with an index among equal texts
in that function), not by its number alone, so a reason stays with its line
when the lines above it move.

Usage, from the repository root (numbers are of Python 3.11; other versions
number some lines differently)::

    python tools/line_reach.py --write   # record and rewrite the table, keeping reasons
    python tools/line_reach.py --check   # record; fail on an unreached line with no reason
"""

from __future__ import annotations

import argparse
import atexit
import dis
import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "harmonia")
TABLE = os.path.join(ROOT, "tools", "line_reach.json")
OUT_DIR_VAR = "HARMONIA_LINE_REACH_DIR"
WORKLOAD_OPS = 300
SEEDS = (7, 3)

_SITECUSTOMIZE = f"""\
import os
if os.environ.get({OUT_DIR_VAR!r}):
    import sys
    sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
    import line_reach
    del sys.path[0]
    line_reach.record_to_dir(os.environ[{OUT_DIR_VAR!r}])
"""


def modules() -> dict:
    """Real path of each module of the package -> its name in the table."""
    return {os.path.realpath(p): os.path.basename(p)
            for p in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))}


# -- recording -----------------------------------------------------------------


def start() -> dict:
    """Start recording in this thread (the library starts none); returns
    {real module path: set of reached line numbers}, filled as lines run."""
    reached = {path: set() for path in modules()}
    by_name: dict = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        lines = by_name.get(name, False)
        if lines is False:
            lines = by_name[name] = reached.get(os.path.realpath(name))
        if lines is None:
            return None
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    sys.settrace(trace)
    return reached


def stop() -> None:
    sys.settrace(None)


def record_to_dir(out_dir: str) -> None:
    """Record this process and write what it reached to ``out_dir`` at exit."""
    reached = start()

    def dump():
        stop()
        path = os.path.join(out_dir, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({p: sorted(lines) for p, lines in reached.items()}, fh)

    atexit.register(dump)


# -- the two sets of runs --------------------------------------------------------


def run_callers() -> dict:
    """Lines the system's callers reach, recorded in this process."""
    reached = start()
    try:
        sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tools")]
        import cli_corpus
        import workloads

        for entry in cli_corpus.command_list():
            cli_corpus.run(entry)
        with tempfile.TemporaryDirectory(prefix="harmonia-reach-") as work:
            for seed in SEEDS:
                for name in ("exact-dense", "exact-fresh", "arc-quadrature"):
                    _run_workload(workloads.make(name, seed, work, SRC), name, WORKLOAD_OPS)
                cold = workloads.make("cli-cold", seed, work, SRC, in_process=True)
                _run_workload(cold, "cli-cold", cold.round)
    finally:
        stop()
    return reached


def _run_workload(workload, name: str, ops: int) -> None:
    for i in range(ops):
        x = workload.prepare(i)
        err = workload.check(x, workload.op(x))
        if err is not None:
            raise RuntimeError(f"{name} op {i}: {err}")


def run_tier1() -> dict:
    """Lines tier-1 reaches: pytest in a child process, and every Python
    process it starts, each recorded through ``sitecustomize``."""
    reached = {path: set() for path in modules()}
    with tempfile.TemporaryDirectory(prefix="harmonia-reach-") as work:
        site_dir, out_dir = os.path.join(work, "site"), os.path.join(work, "out")
        os.makedirs(site_dir)
        os.makedirs(out_dir)
        with open(os.path.join(site_dir, "sitecustomize.py"), "w", encoding="utf-8") as fh:
            fh.write(_SITECUSTOMIZE)
        env = dict(os.environ)
        env.pop("HARMONIA_CUT_ANGLE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [site_dir, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env[OUT_DIR_VAR] = out_dir
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        tail = proc.stdout.strip().splitlines()[-1:] or ["no output"]
        print(f"tier-1 (exit {proc.returncode}): {tail[0]}", file=sys.stderr)
        if proc.returncode != 0:
            raise RuntimeError("tier-1 failed under the recorder:\n" + proc.stdout[-4000:])
        for path in glob.glob(os.path.join(out_dir, "*.json")):
            with open(path, encoding="utf-8") as fh:
                for module, lines in json.load(fh).items():
                    reached[module].update(lines)
    return reached


# -- the table -------------------------------------------------------------------


def executable_lines(path: str) -> dict:
    """{line number: qualified name of its function} for each line start of
    each code object in the module; a line that starts code in a function
    and in the code around it (a ``def`` line) belongs to the outer one."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    owner: dict = {}

    def walk(co, name):
        for _, line in dis.findlinestarts(co):
            if line:  # a module starts with code at line 0
                owner.setdefault(line, name)
        for const in co.co_consts:
            if hasattr(const, "co_code"):
                walk(const, getattr(const, "co_qualname", const.co_name))

    walk(code, "<module>")
    return owner


def classify(callers: dict, tier1: dict) -> tuple:
    """The per-module counts and the entries of the lines tier-1 alone
    reaches and of those neither reaches."""
    summary, tests_only, neither = {}, [], []
    for path, module in modules().items():
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        seen: dict = {}
        counts = dict.fromkeys(("executable", "callers", "tests_only", "neither"), 0)
        for line, function in sorted(executable_lines(path).items()):
            text = source[line - 1].strip()
            index = seen[function, text] = seen.get((function, text), -1) + 1
            entry = {"module": module, "function": function, "line": line, "source": text}
            if index:
                entry["index"] = index
            counts["executable"] += 1
            if line in callers[path]:
                counts["callers"] += 1
            elif line in tier1[path]:
                counts["tests_only"] += 1
                tests_only.append(entry)
            else:
                counts["neither"] += 1
                neither.append(entry)
        summary[module] = counts
    summary["total"] = {key: sum(c[key] for c in summary.values()) for key in counts}
    return summary, tests_only, neither


def key(entry: dict) -> tuple:
    return entry["module"], entry["function"], entry["source"], entry.get("index", 0)


def load_table() -> dict:
    if not os.path.exists(TABLE):
        return {"neither": []}
    with open(TABLE, encoding="utf-8") as fh:
        return json.load(fh)


def write_table(summary: dict, tests_only: list, neither: list) -> None:
    """The table as JSON, one line per entry, so its diff reads line by line."""
    def rows(entries):
        return ",\n".join("  " + json.dumps(e, ensure_ascii=False) for e in entries)

    with open(TABLE, "w", encoding="utf-8") as fh:
        fh.write('{\n "python": ' + json.dumps(sys.version.split()[0]) + ",\n")
        fh.write(' "summary": {\n' + ",\n".join(
            f"  {json.dumps(m)}: {json.dumps(c)}" for m, c in summary.items()) + "\n },\n")
        fh.write(' "neither": [\n' + rows(neither) + "\n ],\n")
        fh.write(' "tests_only": [\n' + rows(tests_only) + "\n ]\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the table, keeping reasons")
    mode.add_argument("--check", action="store_true",
                      help="fail on a line neither set reaches that the table gives no reason for")
    args = parser.parse_args(argv)
    tier1 = run_tier1()
    callers = run_callers()
    summary, tests_only, neither = classify(callers, tier1)
    listed = load_table()["neither"]
    reasons = {key(e): e.get("reason", "") for e in listed}
    for entry in neither:
        entry["reason"] = reasons.get(key(entry), "")
    total = summary["total"]
    print(f"{total['executable']} executable lines: {total['callers']} reached by callers, "
          f"{total['tests_only']} by tier-1 only, {total['neither']} by neither")
    if args.write:
        write_table(summary, tests_only, neither)
        print(f"wrote {os.path.relpath(TABLE, ROOT)}")
        return 0
    missing = [e for e in neither if not e["reason"]]
    for e in missing:
        print(f"unreached, no reason: {e['module']}:{e['line']} {e['function']}: {e['source']}")
    unreached = {key(e) for e in neither}
    for e in listed:
        if key(e) not in unreached:
            print(f"note: listed but now reached or gone: {e['module']} {e['function']}: "
                  f"{e['source']}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
