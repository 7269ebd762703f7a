"""The JSON records harmonia reads: one table of shapes and one reader; and
one writer for the records it prints.

Shapes are plain data after JSON Schema (draft 2020-12) and RFC 8259.  A leaf
is a type: float is a JSON number (a finite int or float: RFC 8259 has no NaN
or Infinity, which Python's json reads), int one with no fractional part, a
range one in the range, str or bool.  [item] is an array of item; {key: shape}
an object with these keys and no others, where a key ending in "?" may be left
out; ("kind", {name: keys}) an object whose string "kind" names its other
keys; ("either", a, b) object a if the value holds a key of a, else b.
"""

from __future__ import annotations

import math
import sys

# the largest log power a JSON term may carry: the primitive of a term of
# log power m takes m steps, and its coefficients m!/j! overflow long before
MAX_JSON_LOGPOW = 1024

COMPLEX = {"re": float, "im?": float}
TERM = {"re": float, "im?": float, "k": int, "m?": range(MAX_JSON_LOGPOW + 1)}
BIVARIATE_TERM = {"re": float, "im?": float, "kz": int, "kzeta": int}
# a field 2 Re f as its holomorphic part f and f's conjugate mirror; the
# reader of a pair requires the mirror term for term (harmonic.HarmonicPair)
PAIR = {"part_z": [TERM], "part_zeta": [TERM]}
MAP = ("kind", {"circle": {"center?": COMPLEX, "radius": float},
                "line": {"point?": COMPLEX, "angle?": float}, "unit_circle": {}})
POINT = ("either", {"r": float, "theta": float}, {"z": COMPLEX, "zeta": COMPLEX})
ROBIN = {"a": float, "b": float}
# a packaged fixture row is a field record that may also hold these keys
_ROW = {"id?": str, "title?": str, "tolerance?": float, "expected_v?": PAIR,
        "expected_correction?": PAIR, "discrepancy?": bool, "note?": str,
        "alt_coefficient_ratio?": float}
FIELD = ("kind", {kind: {**keys, **_ROW} for kind, keys in {
    "pair": {"pair": PAIR},
    "dtn_pair": {"u": PAIR},
    "rtn_pair": {"w": PAIR, **ROBIN},
    "reflect_neumann": {"v": PAIR, "data": [BIVARIATE_TERM]},
    "reflect_robin": {"w": PAIR, "data": [BIVARIATE_TERM], **ROBIN},
}.items()})
FIELD_INPUT = {"field": FIELD}
REFLECT_INPUT = {"solution": PAIR, "data?": [BIVARIATE_TERM], "params?": ROBIN, "map?": MAP,
                 "point?": POINT}
EXAMPLES = {"description": str, "examples": [FIELD]}


def read(value, shape):
    """``value`` if it has ``shape``; else a ``ValueError`` that names the JSON
    path, as in ``field.pair.part_z[2].re: must be a number, got '0.5'``."""
    _read(value, shape, "")
    return value


_NAMES = {float: "a number", int: "an integer", str: "a string", bool: "a boolean",
          list: "an array", dict: "an object"}


def _has_type(value, expected) -> bool:
    if expected in (str, bool, list, dict):
        return type(value) is expected
    finite = type(value) is float and math.isfinite(value) or (
        type(value) is int and abs(value) <= sys.float_info.max)
    if expected is float or not finite:
        return finite
    return float(value).is_integer() and (expected is int or value in expected)


def _read(value, shape, path: str) -> None:
    at, inside = (f"{path}: ", f"{path}.") if path else ("", "")
    expected = {list: list, dict: dict, tuple: dict}.get(type(shape), shape)  # or a leaf
    if not _has_type(value, expected):
        name = _NAMES.get(expected) or f"an integer in [{expected.start}, {expected[-1]}]"
        raise ValueError(f"{at}must be {name}, got {value!r}")
    if expected is list:
        for i, item in enumerate(value):
            _read(item, shape[0], f"{path}[{i}]")
    if expected is not dict:
        return
    if isinstance(shape, tuple) and shape[0] == "either":
        shape = shape[1] if any(key.rstrip("?") in value for key in shape[1]) else shape[2]
    elif isinstance(shape, tuple):  # ("kind", {name: keys})
        if "kind" not in value:
            raise ValueError(f"{at}missing key 'kind'")
        if type(value["kind"]) is not str or value["kind"] not in shape[1]:
            names = ", ".join(map(repr, shape[1]))
            raise ValueError(f"{inside}kind: must be one of {names}, got {value['kind']!r}")
        shape = {"kind": str, **shape[1][value["kind"]]}
    keys = {key.rstrip("?"): key for key in shape}
    for name in value:
        if name not in keys:
            raise ValueError(f"{at}unknown key {name!r}")
    for name, key in keys.items():
        if name in value:
            _read(value[name], shape[key], inside + name)
        elif not key.endswith("?"):
            raise ValueError(f"{at}missing key {name!r}")


def write(record) -> str:
    """JSON text of a record, with each NaN or infinity written as null.

    RFC 8259 has no NaN or Infinity, and Python's json would write both as
    bare tokens.  ``allow_nan=False`` makes any one left over raise.
    """
    import json  # here, so that importing the package loads no JSON encoder

    return json.dumps(_finite(record), indent=2, allow_nan=False)


def _finite(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value
