"""The committed output corpus of the ``harmonia`` command line.

A fixed list of commands runs in process through ``harmonia.cli.main``.
For each, the corpus keeps the exit code, stderr and stdout.  stdout is kept
as text, except for ``verify``, whose report is kept as a SHA-256 digest and
the names of its failing checks.  ``tests/test_cli_corpus.py`` re-runs the
list and compares the bytes, so a change that moves an output regenerates
the corpus, and its diff shows each moved line.

The list:

* ``examples`` as table, JSON and CSV;
* ``verify --format json`` at seeds 0-40 and 1729;
* ``field --example`` for every packaged fixture, as CSV and JSON;
* ``reflect --example`` for every fixture under each of the four formulas,
  with ``--check`` and with ``--point 0.8:0.3``;
* every command above but ``verify`` again with ``HARMONIA_CUT_ANGLE=2.0``;
* the commands of the CLI smoke step in ``.github/workflows/tests.yml``,
  with their input files, among them error lines that name the option or
  the grid point;
* ``field --input`` and ``reflect --input`` on files that write exponents
  as integral floats (``"k": 2.0``), which print what the same files with
  integer exponents print (``tests/test_cli_corpus.py`` holds this).

Each command runs with ``HARMONIA_CUT_ANGLE`` set to its ``cut_angle`` or
unset, in a scratch directory that holds its input files, so an error line
names the file as ``input.json``.  The corpus stamps the Python version,
the platform and the numpy version it was made with.

Usage, from the repository root::

    python tools/cli_corpus.py            # compare with the committed corpus
    python tools/cli_corpus.py --write    # regenerate it
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "tests", "cli_corpus.json")
CUT_ANGLE = "2.0"
FORMULAS = ("dirichlet", "neumann", "robin", "schwarz")
VERIFY_SEEDS = (*range(41), 1729)

_PAIR = {"part_z": [{"re": 0.5, "im": 0.0, "k": 2, "m": 0}],
         "part_zeta": [{"re": 0.5, "im": 0.0, "k": 2, "m": 0}]}
# (argv, input file contents or None) of each smoke-step command
SMOKE = (
    (["verify"], None),
    (["examples"], None),
    (["field", "--example", "dtn-log", "--grid", "0.5:1.5:10:-2.0:2.0:10"], None),
    (["reflect", "--formula", "neumann", "--example", "neumann-reflect-constant", "--check"], None),
    (["reflect", "--formula", "robin", "--example", "robin-reflect-cos2", "--check"], None),
    (["reflect", "--formula", "schwarz", "--example", "neumann-reflect-constant", "--check"], None),
    (["reflect", "--formula", "schwarz", "--example", "neumann-reflect-constant",
      "--point", "1e300:0"], None),
    (["verify", "--tol", "nan"], None),
    (["verify", "--tol", "0"], None),
    (["reflect", "--formula", "neumann", "--input", "input.json", "--check"],
     {"solution": {"part_z": [{"re": 1e308, "k": 3}], "part_zeta": [{"re": -1e308, "k": 3}]},
      "point": {"r": 2.0, "theta": 0.0}}),
    (["reflect", "--formula", "schwarz", "--input", "input.json"],
     {"solution": _PAIR, "map": {"kind": "unit_circle", "radius": 2.0, "center": {"re": 5.0}}}),
    (["reflect", "--formula", "schwarz", "--input", "input.json"],
     {"solution": _PAIR, "map": {"kind": "circle", "radius": 2.0,
                                 "center": {"re": 0.5, "imag": 3.0}}}),
    (["reflect", "--formula", "schwarz", "--input", "input.json"],
     {"solution": _PAIR, "map": {"kind": "circle", "radius": "2"}}),
    (["field", "--input", "input.json"],
     {"field": {"kind": "pair", "pair": {"part_z": [{"re": 1.5e308, "im": 1.5e308, "k": 2}],
                                         "part_zeta": [{"re": 0.5, "k": 2}]}}}),
    (["field", "--input", "input.json"],
     {"field": {"kind": "pair", "pair": {"part_z": [{"re": 0.5, "k": 2}],
                                         "part_zeta": [{"re": 0.5, "k": 2}]}}, "bogus": 1}),
    (["reflect", "--input", "input.json"], [1, 2]),
    # error lines that name the option or the grid point
    (["verify", "--seed", "-1"], None),
    (["field", "--example", "robin-reflect-cos2", "--grid", "1e-300:1e-299:2:-1:1:2"], None),
    (["field", "--example", "robin-reflect-cos2", "--grid", "1e160:1e161:2:-1:1:2"], None),
    # a sum whose power overflows to NaN, named with its grid point
    (["field", "--example", "dtn-saddle", "--grid", "1e200:1e201:2:0.5:0.8:2"], None),
    # a finite sum whose value 2 Re f overflows, named with its grid point
    (["field", "--input", "input.json"],
     {"field": {"kind": "pair", "pair": {"part_z": [{"re": 1e308, "k": 0}],
                                         "part_zeta": [{"re": 1e308, "k": 0}]}}}),
)
# (argv, input file contents) of commands whose files write exponents as
# integral floats, which the readers take as the integers
FLOAT_EXPONENTS = (
    (["field", "--input", "input.json"],
     {"field": {"kind": "pair", "pair": {
         "part_z": [{"re": 0.5, "k": 2.0, "m": 1.0}, {"re": 0.25, "im": -0.5, "k": -1.0}],
         "part_zeta": [{"re": 0.5, "k": 2.0, "m": 1.0}, {"re": 0.25, "im": 0.5, "k": -1.0}],
     }}}),
    (["reflect", "--formula", "neumann", "--input", "input.json", "--check"],
     {"solution": _PAIR,
      "data": [{"re": 1.0, "kz": 2.0, "kzeta": 0}, {"re": 1.0, "kz": 0, "kzeta": 2.0}]}),
)


def _fixture_ids() -> list:
    with open(os.path.join(ROOT, "src", "harmonia", "fixtures", "examples.json"),
              encoding="utf-8") as fh:
        return [row["id"] for row in json.load(fh)["examples"]]


def command_list() -> list:
    """Every corpus command as {"argv", "cut_angle"[, "files"]}."""
    ids = _fixture_ids()
    plain = [["examples"], ["examples", "--format", "json"], ["examples", "--format", "csv"]]
    plain += [["field", "--example", i, *fmt] for i in ids for fmt in ([], ["--format", "json"])]
    plain += [["reflect", "--formula", f, "--example", i, *extra]
              for i in ids for f in FORMULAS for extra in (["--check"], ["--point", "0.8:0.3"])]
    verify = [["verify", "--format", "json", "--seed", str(s)] for s in VERIFY_SEEDS]
    commands = [{"argv": argv, "cut_angle": None} for argv in plain[:3] + verify + plain[3:]]
    commands += [{"argv": argv, "cut_angle": CUT_ANGLE} for argv in plain]
    for argv, contents in SMOKE + FLOAT_EXPONENTS:
        entry = {"argv": argv, "cut_angle": None}
        if contents is not None:
            entry["files"] = {"input.json": json.dumps(contents)}
        commands.append(entry)
    return commands


@contextlib.contextmanager
def _environment(cut_angle, files: dict):
    """``HARMONIA_CUT_ANGLE`` set to ``cut_angle`` or unset and, when there are
    ``files``, a scratch working directory that holds them; both restored after."""
    saved_cwd, saved_cut = os.getcwd(), os.environ.get("HARMONIA_CUT_ANGLE")
    with contextlib.ExitStack() as stack:
        if files:
            work = stack.enter_context(tempfile.TemporaryDirectory(prefix="harmonia-corpus-"))
            for name, text in files.items():
                with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            os.chdir(work)
        if cut_angle is None:
            os.environ.pop("HARMONIA_CUT_ANGLE", None)
        else:
            os.environ["HARMONIA_CUT_ANGLE"] = cut_angle
        try:
            yield
        finally:
            os.chdir(saved_cwd)
            if saved_cut is None:
                os.environ.pop("HARMONIA_CUT_ANGLE", None)
            else:
                os.environ["HARMONIA_CUT_ANGLE"] = saved_cut


def run(entry: dict) -> dict:
    """The outcome of one command, as the corpus keeps it."""
    from harmonia import cli

    out, err = io.StringIO(), io.StringIO()
    with _environment(entry["cut_angle"], entry.get("files", {})):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(entry["argv"]))
            except SystemExit as exc:  # argparse rejects an option
                code = exc.code
    outcome = {**entry, "exit": code, "stderr": err.getvalue().split("\n")}
    text = out.getvalue()
    if entry["argv"][0] == "verify":
        outcome["stdout_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        outcome["failing"] = _failing_checks(text)
    else:
        outcome["stdout"] = text.split("\n")
    return outcome


def _failing_checks(text: str) -> list:
    try:
        report = json.loads(text)
    except ValueError:  # a table, or no report
        return []
    return [c["name"] for c in report["checks"] if not c["passed"]]


def stamp() -> dict:
    import numpy

    return {"python": platform.python_version(),
            "platform": f"{sys.platform}-{platform.machine()}",
            "numpy": numpy.__version__}


def load() -> dict:
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def write() -> dict:
    corpus = {"stamp": stamp(), "commands": [run(entry) for entry in command_list()]}
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")
    return corpus


def label(entry: dict) -> str:
    """The command as a shell line, with its cut angle."""
    env = "" if entry["cut_angle"] is None else f"HARMONIA_CUT_ANGLE={entry['cut_angle']} "
    return env + "harmonia " + " ".join(entry["argv"])


def mismatches(corpus: dict) -> list:
    """(label, key, expected, got) for each kept field of each command that differs."""
    found = []
    for expected in corpus["commands"]:
        got = run(expected)
        for key, want in expected.items():
            if got[key] != want:
                found.append((label(expected), key, want, got[key]))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the committed corpus")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.write:
        corpus = write()
        codes = [c["exit"] for c in corpus["commands"]]
        counts = ", ".join(f"{codes.count(c)} x {c}" for c in sorted(set(codes)))
        print(f"wrote {len(codes)} commands ({counts}) to {os.path.relpath(CORPUS, ROOT)}")
        return 0
    corpus = load()
    found = mismatches(corpus)
    for name, key, _, _ in found:
        print(f"differs: {name}: {key}")
    if corpus["stamp"] != stamp():
        print(f"note: the corpus was made on {corpus['stamp']}, this is {stamp()}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
