"""Calls and opcodes per op of every ``harmonia`` function on the in-process workloads.

A ``sys.settrace`` counter runs over the timed call of each op, ``op(x)``,
of the exact-dense, exact-fresh and arc-quadrature workloads: ``OPS`` ops
at seed ``SEED``, after the workload's set-up, which is not counted.  Every
op's output is held to the workload's own check, untraced.  The workloads
are imported read-only from ``perfbench/workloads.py``.  A Python function
of the package is keyed by its module and qualified name (a comprehension
or a generator expression is a function of its own).  The counter counts
each entry into a function's frame (a call, or a generator resumed) and,
with ``frame.f_trace_opcodes`` set on the package's frames only, each
bytecode those frames run.  ``tools/call_counts.json`` holds both per
function, divided by the ops.  The counts are deterministic: they do not
depend on the machine's speed or load, so a change that moves one names a
change of work.

What a count cannot see.  One opcode is not one unit of time: a complex
``**``, a ``cmath.exp`` or a dict lookup is one opcode however long it
takes, and code outside the package (the standard library, numpy) runs
no counted opcode at all, though the package calls it.  So the opcodes
show where work moved between functions and whether a loop got shorter,
and a speed claim still needs paired timed runs.

Python 3.12 inlines comprehensions (PEP 709) and every version compiles
its own bytecode, so the counts differ by version; the table is stamped
with the version that made it, and ``--check`` compares only on the same
major and minor version.

Usage, from the repository root::

    python tools/call_counts.py --write   # count and rewrite the table
    python tools/call_counts.py --check   # count; fail if any count moved
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "harmonia")
TABLE = os.path.join(ROOT, "tools", "call_counts.json")
WORKLOADS = ("exact-dense", "exact-fresh", "arc-quadrature")
COUNTS = ("calls_per_op", "opcodes_per_op")
OPS = 400
SEED = 7


def version() -> str:
    return "{}.{}.{}".format(*sys.version_info[:3])


def count(workload, name: str, ops: int = OPS) -> tuple:
    """({"module.py:qualname": calls}, {"module.py:qualname": opcodes}) over
    ``ops`` traced ops of ``workload``."""
    modules = {os.path.realpath(p): os.path.basename(p)
               for p in glob.glob(os.path.join(PACKAGE, "*.py"))}
    by_code: dict = {}
    calls: dict = {}
    opcodes: dict = {}

    def trace(frame, event, arg):
        # called with "call" on every frame entry; the returned local
        # function traces that frame alone
        code = frame.f_code
        key = by_code.get(code, False)
        if key is False:
            module = modules.get(os.path.realpath(code.co_filename))
            key = by_code[code] = module and f"{module}:{code.co_qualname}"
        if not key:
            return None
        calls[key] = calls.get(key, 0) + 1
        opcodes.setdefault(key, 0)
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def local(frame, event, arg):
            if event == "opcode":
                opcodes[key] += 1
            return local

        return local

    for i in range(ops):
        x = workload.prepare(i)
        sys.settrace(trace)
        try:
            out = workload.op(x)
        finally:
            sys.settrace(None)
        err = workload.check(x, out)
        if err is not None:
            raise RuntimeError(f"{name} op {i}: {err}")
    return calls, opcodes


def measure() -> dict:
    """{count: {workload: {function: per op}}} for each of ``COUNTS``, each
    workload's functions sorted."""
    sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]
    import workloads

    table: dict = {key: {} for key in COUNTS}
    with tempfile.TemporaryDirectory(prefix="harmonia-counts-") as work:
        for name in WORKLOADS:
            for key, counts in zip(COUNTS, count(workloads.make(name, SEED, work, SRC), name)):
                table[key][name] = {f: counts[f] / OPS for f in sorted(counts)}
    return table


def write_table(table: dict) -> None:
    """The table as JSON, one function per line, so its diff reads line by line."""
    with open(TABLE, "w", encoding="utf-8") as fh:
        fh.write('{\n "python": ' + json.dumps(version()) + f',\n "ops": {OPS},\n "seed": {SEED}')
        for key in COUNTS:
            fh.write(f',\n {json.dumps(key)}: {{\n' + ",\n".join(
                f"  {json.dumps(name)}: {{\n" + ",\n".join(
                    f"   {json.dumps(f)}: {json.dumps(value)}" for f, value in counts.items())
                + "\n  }" for name, counts in table[key].items()) + "\n }")
        fh.write("\n}\n")


def moves(old: dict, new: dict) -> list:
    """One line per count of a function that differs, with both values."""
    lines = []
    for key in COUNTS:
        for name in WORKLOADS:
            before, after = old.get(key, {}).get(name, {}), new[key].get(name, {})
            for f in sorted(set(before) | set(after)):
                a, b = before.get(f, 0), after.get(f, 0)
                if a != b:
                    lines.append(f"{key} {name} {f}: {a:g} -> {b:g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="count and rewrite the table")
    mode.add_argument("--check", action="store_true", help="count; fail if any count moved")
    args = parser.parse_args(argv)
    old = None
    if os.path.exists(TABLE):
        with open(TABLE, encoding="utf-8") as fh:
            stored = json.load(fh)
        if args.check and stored["python"].split(".")[:2] != version().split(".")[:2]:
            print(f"the table counts Python {stored['python']}; this is {version()}")
            return 2
        old = stored
    elif args.check:
        print(f"no table at {os.path.relpath(TABLE, ROOT)}; write it with --write")
        return 1
    new = measure()
    for name in WORKLOADS:
        calls, opcodes = (new[key][name] for key in COUNTS)
        print(f"{name}: {sum(calls.values()):g} calls and {sum(opcodes.values()):g} opcodes "
              f"per op over {len(calls)} functions")
    moved = [] if old is None else moves(old, new)
    for line in moved:
        print(("moved: " if args.check else "") + line)
    if args.write:
        write_table(new)
        print(f"wrote {os.path.relpath(TABLE, ROOT)}")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
