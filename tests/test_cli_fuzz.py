"""Seeded fuzz test of the CLI's exit-code policy.

After Claessen and Hughes, "QuickCheck: a lightweight tool for random
testing of Haskell programs" (ICFP 2000): the packaged fixture records are
written out as ``field`` and ``reflect`` input files, mutated with
non-finite, huge, tiny and wrongly typed values and with deleted keys, and
run through ``cli.main`` in process, with the formula and ``--check``
drawn at random.  Whatever the input:

* the exit code is 0, 1 or 2, and no exception escapes;
* exit 2 prints exactly one ``error:`` line and nothing on stdout;
* exit 1 comes from a residual comparison, so the output holds a residual;
* an exit-0 output holds no NaN or Infinity.

The seed is fixed, so a failure replays; the case index and its input are
in the assertion message.
"""

import copy
import json
import math
import random
from importlib import resources

import pytest

from harmonia.cli import main

SEED = 2000
CASES = 600

_FIXTURES = json.loads(
    resources.files("harmonia").joinpath("fixtures/examples.json").read_text("utf-8")
)["examples"]

# the keys a field source reads; mutating the others (ids, expected values)
# would test nothing
_FIELD_KEYS = ("kind", "pair", "u", "v", "w", "data", "a", "b")

_VALUES = (
    math.nan, math.inf, -math.inf, 1e308, -1e308, 1e300, -1e300, 1e-300, 0, -1, 2.5,
    "x", "1", None, True, [], [1.0], {},
)


# finite numbers, small integers among them, which a term's coefficient and
# exponents take: drawn more often inside a term, so that more mutated terms
# pass the reader and reach an evaluator
_FINITE = (1e308, -1e300, 1e-300, 0.0, 2.5, 0, 1, 2, -1, -3)

# log powers, which the reader takes in [0, 1024]: drawn in place of
# ``_FINITE`` for a term's "m", so that more mutated terms reach an
# evaluator, where 1024 makes lg**1024 overflow
_LOGPOWS = (0, 1, 2, 3, 1024)

# keys the reader requires (a term's coefficient and exponents, a Robin
# source's coefficients): deleted with probability 0.05, not 0.25, since
# each deletion stops at the reader
_REQUIRED = ("re", "k", "kz", "kzeta", "a", "b")

_DELETE = object()
_OTHER_PART = {"part_z": "part_zeta", "part_zeta": "part_z"}


def _has(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and 0 <= key < len(node)


def _twin(record, place):
    """(parent, key) of the place in a pair's other part that ``place``, the
    keys from the root, reaches in one part; None when ``place`` passes
    through no part of a pair or the other part has no such place."""
    node, swapped = record, False
    for i, key in enumerate(place):
        if not swapped and isinstance(node, dict) and _OTHER_PART.get(key) in node:
            key, swapped = _OTHER_PART[key], True
        if not _has(node, key):
            return None
        if i == len(place) - 1:
            return (node, key) if swapped else None
        node = node[key]


def _mutate(rng: random.Random, record, fixed=(), descend=0, finite=0.0):
    """A copy of a JSON record with one or two values replaced or deleted.

    Each mutation walks down from the root, never into a top-level key in
    ``fixed``.  Above depth ``descend`` it goes into every non-empty array
    or object it picks; from there on it stops at each level with
    probability 0.4, so a scalar such as a Robin coefficient is hit about
    as often as a deep term coefficient.  A value that replaces one inside
    an array's element (a term's coefficient or exponent) is drawn from
    ``_FINITE`` (``_LOGPOWS`` for a log power) with probability ``finite``.
    A key in ``_REQUIRED`` is deleted less often than others.  A mutation
    of one part of a pair, or of a place inside it, is made at the same
    place of the other part too, with a numeric ``im`` negated, so the pair
    stays the conjugate mirror that the reader requires and the case goes
    on to an evaluation.
    """
    record = copy.deepcopy(record)
    for _ in range(rng.randint(1, 2)):
        node, keys = record, []
        while node:
            if node is record:
                key = rng.choice([k for k in record if k not in fixed])
            else:
                key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
            child = node[key]
            if isinstance(child, (dict, list)) and child and (
                len(keys) < descend or rng.random() < 0.6
            ):
                node = child
                keys.append(key)
                continue
            if rng.random() < (0.05 if key in _REQUIRED else 0.25):
                value = _DELETE
            elif any(isinstance(k, int) for k in keys) and rng.random() < finite:
                value = rng.choice(_LOGPOWS if key == "m" else _FINITE)
            else:
                value = rng.choice(_VALUES)
            edits = [(node, key, value)]
            twin = _twin(record, keys + [key])
            if twin:
                negate = twin[1] == "im" and type(value) in (int, float)
                edits.append((*twin, -value if negate else value))
            for parent, k, v in edits:
                if v is _DELETE:
                    del parent[k]
                else:
                    parent[k] = copy.deepcopy(v)
            break
    return record


def _reflect_payload(rng: random.Random, row):
    payload = {
        "solution": row["v" if row["kind"] == "reflect_neumann" else "w"],
        "data": row["data"],
        # outside the unit disk a coefficient near 1e308 overflows silently
        "point": {"r": rng.choice((0.8, 2.0)), "theta": 0.3},
    }
    if "a" in row:
        payload["params"] = {"a": row["a"], "b": row["b"]}
    return payload


def _case(rng: random.Random, path) -> list:
    row = rng.choice(_FIXTURES)
    if row["kind"].startswith("reflect_") and rng.random() < 0.5:
        payload = _mutate(rng, _reflect_payload(rng, row))
        formula = rng.choice(("dirichlet", "neumann", "robin", "schwarz"))
        argv = ["reflect", "--input", str(path), "--formula", formula]
        if rng.random() < 0.5:
            argv.append("--check")
    else:
        # a mutated kind, a deleted pair or a term that is no object stops at
        # the reader: leave the kind alone, walk into a term of each array and
        # draw finite numbers there, so more cases reach an evaluator
        source = {k: v for k, v in row.items() if k in _FIELD_KEYS}
        payload = {"field": _mutate(rng, source, fixed=("kind",), descend=3, finite=0.75)}
        argv = ["field", "--input", str(path), "--grid", "0.6:1.4:3:-1.0:1.0:3", "--format", "json"]
    path.write_text(json.dumps(payload))  # json writes NaN and Infinity, and reads them back
    return argv


def _assert_policy(argv, where, capsys):
    try:
        code = main(argv)
    except Exception as exc:  # the policy says none escapes
        pytest.fail(f"{where} raised {exc!r}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), where
    if code == 2:
        assert out == "", where
        assert err.startswith("error: ") and len(err.splitlines()) == 1, f"{where}: {err}"
    elif code == 1:
        assert argv[0] == "reflect" and "check_residual" in json.loads(out), where
    else:
        assert err == "" and "NaN" not in out and "Infinity" not in out, where
    return code


def test_cli_keeps_its_exit_code_policy_on_mutated_fixtures(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "case.json"
    for i in range(CASES):
        argv = _case(rng, path)
        _assert_policy(argv, f"case {i}: harmonia {' '.join(argv)} on {path.read_text()}", capsys)


# the argument grid of ``reflect --point r:theta``: radii at and next to 0
# and 1, angles on and next to the cut at +-pi, the extremes of binary64
_RADII = (0.0, 5e-324, 1e-300, 1e-12, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 0.8, 2.0, 1e300, -0.5, math.nan)
_ANGLES = (
    math.pi, -math.pi, math.pi - 1e-7, -math.pi + 1e-7, math.pi - 1e-12, math.pi + 1e-9,
    0.0, 0.3, 2.0, 1e300, -1e-300, math.nan,
)
_REFLECT_IDS = tuple(row["id"] for row in _FIXTURES if row["kind"].startswith("reflect_"))
GRID_CASES = 300


def test_cli_keeps_its_exit_code_policy_on_the_argument_grid(capsys, monkeypatch):
    rng = random.Random(SEED + 1)
    seen = set()
    for i in range(GRID_CASES):
        point = f"{rng.choice(_RADII)!r}:{rng.choice(_ANGLES)!r}"
        formula = rng.choice(("dirichlet", "neumann", "robin", "schwarz"))
        # the = form, so that argparse takes a leading minus sign as a value
        argv = ["reflect", "--example", rng.choice(_REFLECT_IDS), f"--point={point}"]
        argv += ["--formula", formula] + (["--check"] if rng.random() < 0.5 else [])
        cut = rng.choice((None, None, "2.0", "-1.0"))
        if cut is None:
            monkeypatch.delenv("HARMONIA_CUT_ANGLE", raising=False)
        else:
            monkeypatch.setenv("HARMONIA_CUT_ANGLE", cut)
        seen.add((formula, _assert_policy(argv, f"case {i}: cut {cut}, harmonia {' '.join(argv)}", capsys)))
    # the grid reaches every formula, and both a result and a rejection
    assert {f for f, _ in seen} == {"dirichlet", "neumann", "robin", "schwarz"}
    assert {c for _, c in seen} >= {0, 2}
