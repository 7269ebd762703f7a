"""Malformed JSON records, generated from the table of shapes in
``harmonia.records``.

Each case changes a valid base document in one place: it drops a required
key, adds an unknown sibling key, or puts a value of the wrong JSON type in
a key's place (null, true, a string, an array, an object, a non-integral
float, an out-of-range integer and NaN, leaving out those the key accepts).
The ``field --input`` and ``reflect --input`` cases run the CLI, which must exit
2 with one ``error:`` line that names the JSON path; the packaged
``examples.json`` is read by ``records.read`` alone.  A coverage test holds
the base documents to every key of every shape in the table, so a key added
to the table without a base value here fails it.
"""

import json
from importlib import resources

import pytest

from harmonia.cli import main
from harmonia.records import EXAMPLES, FIELD, FIELD_INPUT, REFLECT_INPUT, TERM, read

_TERMS = [{"re": 0.5, "im": 0.0, "k": 2, "m": 1}]
_PAIR = {"part_z": _TERMS, "part_zeta": _TERMS}
_DATA = [{"re": 1.0, "im": 0.0, "kz": 1, "kzeta": 0}]
_ROW = {
    "id": "row", "title": "a row", "tolerance": 1e-10, "expected_v": _PAIR,
    "expected_correction": _PAIR, "discrepancy": False, "note": "", "alt_coefficient_ratio": 0.5,
}
_FIELDS = [
    {"kind": "pair", "pair": _PAIR, **_ROW},
    {"kind": "dtn_pair", "u": _PAIR, **_ROW},
    {"kind": "rtn_pair", "w": _PAIR, "a": 1.0, "b": 1.0, **_ROW},
    {"kind": "reflect_neumann", "v": _PAIR, "data": _DATA, **_ROW},
    {"kind": "reflect_robin", "w": _PAIR, "data": _DATA, "a": 1.0, "b": 1.0, **_ROW},
]
_REFLECTS = [
    {"map": {"kind": "circle", "center": {"re": 0.1, "im": 0.2}, "radius": 2.0},
     "point": {"r": 0.8, "theta": 0.1}},
    {"map": {"kind": "line", "point": {"re": 0.1, "im": 0.2}, "angle": 0.3},
     "point": {"z": {"re": 0.8, "im": 0.1}, "zeta": {"re": 0.8, "im": -0.1}}},
    {"map": {"kind": "unit_circle"}},
]
# each base document, the shape it has, and the argv that reads it from a file
BASES = (
    [(f"field_{f['kind']}", {"field": f}, FIELD_INPUT, ["field"]) for f in _FIELDS]
    + [
        (f"reflect_{r['map']['kind']}",
         {"solution": _PAIR, "data": _DATA, "params": {"a": 1.0, "b": 1.0}, **r},
         REFLECT_INPUT, ["reflect", "--formula", "robin"])
        for r in _REFLECTS
    ]
    + [("examples", {"description": "rows", "examples": _FIELDS}, EXAMPLES, None)]
)

_PROBES = {
    "null": None, "true": True, "string": "0.5", "array": [1], "object": {}, "float": 0.5,
    "integer": 10**309,  # beyond the float range
    "nan": float("nan"),  # not a JSON number, though json reads and writes it
}


_ACCEPTED = ((float, "float"), (str, "string"), (bool, "true"))


def _probes(leaf):
    """The probes that ``leaf`` rejects, with a range's own out-of-range integer."""
    accepted = next((name for t, name in _ACCEPTED if leaf is t), None)
    probes = {name: v for name, v in _PROBES.items() if name != accepted}
    if isinstance(leaf, range):
        probes["integer"] = leaf.stop
    return probes.values()


def _objects(value, shape, steps=()):
    """(steps to the object, the table dict that owns its keys, its keys) for
    every object of a valid ``value``."""
    if isinstance(shape, list):
        for i, item in enumerate(value):
            yield from _objects(item, shape[0], steps + (i,))
        return
    owner = shape
    if isinstance(shape, tuple) and shape[0] == "either":
        owner = shape = next(s for s in shape[1:] if set(value) <= {k.rstrip("?") for k in s})
    elif isinstance(shape, tuple):  # a kind, whose name no other string replaces
        owner = shape[1][value["kind"]]
        shape = {"kind": frozenset(shape[1]), **owner}
    if isinstance(shape, dict):
        yield steps, owner, shape
        for key, sub in shape.items():
            if key.rstrip("?") in value:
                yield from _objects(value[key.rstrip("?")], sub, steps + (key.rstrip("?"),))


def _table_keys(shape, out):
    """Every (owning dict, key) of the table reachable from ``shape``."""
    if isinstance(shape, list):
        _table_keys(shape[0], out)
    elif isinstance(shape, tuple) and shape[0] == "either":
        for alternative in shape[1:]:
            _table_keys(alternative, out)
    elif isinstance(shape, tuple):
        for variant in shape[1].values():
            out.add((id(variant), "kind"))
            _table_keys(variant, out)
    elif isinstance(shape, dict):
        for key, sub in shape.items():
            out.add((id(shape), key.rstrip("?")))
            _table_keys(sub, out)
    return out


def _path(steps) -> str:
    path = ""
    for step in steps:
        path += f"[{step}]" if isinstance(step, int) else f".{step}" if path else step
    return path


def _changed(doc, steps, change):
    doc = json.loads(json.dumps(doc))  # unshared, where the bases share records
    target = doc
    for step in steps:
        target = target[step]
    change(target)
    return doc


def _cases(doc, shape, covered):
    """(document, path, message) per case; the message is the exact one for a
    dropped or unknown key, None where only the path prefix is fixed."""
    for steps, owner, keys in _objects(doc, shape):
        path = _path(steps)
        at = f"{path}: " if path else ""
        yield _changed(doc, steps, lambda o: o.update(bogus=1)), path, f"{at}unknown key 'bogus'"
        for key, sub in keys.items():
            name = key.rstrip("?")
            covered.add((id(owner), name))
            if not key.endswith("?"):
                missing = f"{at}missing key {name!r}"
                yield _changed(doc, steps, lambda o, n=name: o.pop(n)), path, missing
            for probe in _probes(sub):
                change = lambda o, n=name, v=probe: o.update({n: v})  # noqa: E731
                yield _changed(doc, steps, change), _path(steps + (name,)), None


def _check(message, path, expected):
    if expected is not None:
        return message == expected
    rest = message[len(path):]
    return message.startswith(path) and rest[:1] in (":", "[", ".")


@pytest.mark.parametrize("name, doc, shape, argv", BASES, ids=[b[0] for b in BASES])
def test_every_malformed_record_names_its_path(name, doc, shape, argv, tmp_path, capsys):
    read(doc, shape)  # the base is valid
    file = tmp_path / f"{name}.json"
    faults, count = [], 0
    for bad, path, expected in _cases(doc, shape, set()):
        count += 1
        if argv is None:
            with pytest.raises(ValueError) as exc:
                read(bad, shape)
            message = str(exc.value)
        else:
            file.write_text(json.dumps(bad))
            code = main([*argv, "--input", str(file)])
            out, err = capsys.readouterr()
            prefix = f"error: {file}: "
            if code != 2 or out or len(err.splitlines()) != 1 or not err.startswith(prefix):
                faults.append((path, code, err))
                continue
            message = err[len(prefix):-1]
        if not _check(message, path, expected):
            faults.append((path, expected, message))
    assert count > 100 and not faults, faults[:5]


def test_the_bases_cover_every_key_of_every_shape():
    covered = set()
    for _, doc, shape, _ in BASES:
        list(_cases(doc, shape, covered))
    table = set()
    for shape in (FIELD_INPUT, REFLECT_INPUT, EXAMPLES):
        _table_keys(shape, table)
    assert table == covered


def test_messages_name_the_path():
    pair = {"part_z": [_TERMS[0], _TERMS[0], {"re": "0.5", "k": 1}], "part_zeta": []}
    kinds = "'pair', 'dtn_pair', 'rtn_pair', 'reflect_neumann', 'reflect_robin'"
    cases = [
        ({"kind": "pair", "pair": pair}, "field.pair.part_z[2].re: must be a number, got '0.5'"),
        ({"kind": "pair", "pair": _PAIR, "bogus": 1}, "field: unknown key 'bogus'"),
        ({"kind": "pair", "pair": {"part_z": []}}, "field.pair: missing key 'part_zeta'"),
        ({"kind": "line"}, f"field.kind: must be one of {kinds}, got 'line'"),
    ]
    for field, message in cases:
        with pytest.raises(ValueError) as exc:
            read({"field": field}, FIELD_INPUT)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match=r"^must be an object, got \[1, 2\]$"):
        read([1, 2], FIELD_INPUT)


@pytest.mark.parametrize(
    "value, ok",
    [(2, True), (2.0, True), (-0.0, True), (2.5, False), (True, False), (float("nan"), False),
     (float("inf"), False), (10**308, True), (10**309, False), ("2", False)],
)
def test_an_integer_is_a_finite_number_with_no_fractional_part(value, ok):
    term = {"re": 1.0, "k": value}
    if ok:
        assert read(term, TERM) is term
    else:
        with pytest.raises(ValueError, match=r"^k: must be an integer, got "):
            read(term, TERM)


def test_every_fixture_row_is_a_field_record():
    text = resources.files("harmonia").joinpath("fixtures/examples.json").read_text("utf-8")
    rows = json.loads(text)["examples"]
    assert len(rows) == 10
    for row in rows:
        assert read(row, FIELD) is row
