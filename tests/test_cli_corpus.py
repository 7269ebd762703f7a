"""The command line's outputs are byte-identical to the committed corpus.

``tests/cli_corpus.json`` holds the exit code, stderr and stdout (a digest
and the failing checks for ``verify``) of a fixed list of commands, written
by ``tools/cli_corpus.py --write``.  A change that means to move an output
regenerates the corpus; its diff then names every moved line.
"""

import difflib
import importlib.util
import os
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _corpus_tool():
    spec = importlib.util.spec_from_file_location(
        "cli_corpus", os.path.join(ROOT, "tools", "cli_corpus.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _describe(name, key, want, got) -> str:
    if isinstance(want, list) and isinstance(got, list):
        diff = difflib.unified_diff(want, got, "corpus", "now", n=1, lineterm="")
        body = "\n".join(list(diff)[:12])
    else:
        body = f"corpus {want!r}, now {got!r}"
    return f"{name}: {key} differs\n{body}"


def test_every_command_reproduces_the_committed_corpus():
    tool = _corpus_tool()
    corpus = tool.load()
    assert [(c["argv"], c["cut_angle"]) for c in corpus["commands"]] == [
        (c["argv"], c["cut_angle"]) for c in tool.command_list()
    ], "the corpus does not hold the command list; run tools/cli_corpus.py --write"
    found = tool.mismatches(corpus)
    made_on, here = corpus["stamp"], tool.stamp()
    note = "" if made_on == here else f" (the corpus was made on {made_on}, this is {here})"
    assert not found, f"{len(found)} outputs moved{note}:\n" + "\n\n".join(
        _describe(*m) for m in found[:5]
    )
    if note:
        # equal bytes on another stamp pass, but say that they were compared there
        warnings.warn(f"outputs compared on another stamp{note}")
