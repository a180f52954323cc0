"""Which JSON type each input value may hold, decided in one place: record
decoders take their keys through the ``require*`` helpers, and frozen
configs check every field by its annotation with ``check_fields`` and its
range by a table of rules with ``check_rules``. Rows
and reports go out as ``field_dict``: their dataclass fields by name; rows
and hashes are spelled in ``canonical_json``. An error message about
many offending records or ids names the first ``NAMED_OFFENDERS`` and
counts the rest."""

from __future__ import annotations

import json
import math
from dataclasses import fields
from typing import Mapping, Sequence

__all__ = ["NAMED_OFFENDERS", "canonical_json", "check_fields", "check_rules",
           "field_dict", "is_integral", "one_of", "require", "require_bool",
           "require_float", "require_id", "require_numbers", "require_str"]

# the offending records or ids one error message names; it counts the rest
NAMED_OFFENDERS = 21


def require(d: Mapping, key: str):
    if key not in d:
        raise ValueError(f"record missing required key {key!r}")
    return d[key]


def require_id(d: Mapping, key: str) -> str:
    """The id at ``key``: a JSON string, or a JSON integer in its decimal
    spelling. null, booleans, floats, lists and objects are not ids."""
    value = require(d, key)
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise ValueError(f"{key} must be a string or an integer, got {value!r}")


def _exactly(kind: type, noun: str):
    """A check for one JSON type, taken exactly: a bool is not an int, and
    ``null`` is not the string "None"."""
    def check(value, what: str, error: type[Exception] = ValueError):
        if type(value) is not kind:
            raise error(f"{what} must be {noun}, got {value!r}")
        return value
    return check


require_str = _exactly(str, "a string")
require_bool = _exactly(bool, "true or false")
_require_int = _exactly(int, "an integer")
_NUMBER_TYPES = frozenset((int, float))


def require_float(value, what: str, error: type[Exception] = ValueError) -> float:
    """A finite JSON number as a float: not a bool, NaN or an infinity."""
    try:
        if type(value) in _NUMBER_TYPES and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int too large for a float
        pass
    raise error(f"{what} must be a finite number, got {value!r}")


def require_numbers(values: Sequence, what: str) -> None:
    """Reject any value that is not a JSON number. json.loads gives a JSON
    number as an int or a float and nothing else as either, so one set of
    types decides a whole row; a bool, a string or null is named."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _NUMBER_TYPES)
        raise ValueError(f"{what} must be numbers, got {bad!r}")


def is_integral(v) -> bool:
    """An int, or a float holding an integer such as 9.0; never a bool."""
    return type(v) is int or (type(v) is float and v.is_integer())


def _list_of(item):
    def check(value, what: str, error: type[Exception]) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise error(f"{what} must be a list, got {value!r}")
        return tuple(item(v, f"each of {what}", error) for v in value)
    return check


def _candidates(value, what: str, error: type[Exception]) -> dict:
    if not isinstance(value, Mapping):
        raise error(f"{what} must map view names to index lists, got {value!r}")
    for view, idx in value.items():
        if not isinstance(idx, (list, tuple)):
            raise error(f"view {view!r}: candidate indices {idx!r} are not a "
                        "list of integers")
        for i in idx:
            if type(i) is not int:
                raise error(f"view {view!r}: candidate index {i!r} is not an integer")
    return {view: tuple(idx) for view, idx in value.items()}


# annotation -> check(value, field name, error), returning the value to store
_CHECKERS = {
    "int": _require_int,
    "float": require_float,
    "bool": require_bool,
    "str": require_str,
    "tuple[int, ...]": _list_of(_require_int),
    "tuple[float, ...]": _list_of(require_float),
    "Mapping[str, Sequence[int]]": _candidates,  # masking's rows per view
}


def check_fields(obj, error: type[Exception] = ValueError) -> None:
    """Check and store each field of frozen dataclass ``obj`` by its
    annotation: a float field takes any finite JSON number and stores a
    float, a list field stores a tuple; an unknown annotation is a TypeError."""
    for f in fields(obj):
        if f.type not in _CHECKERS:
            raise TypeError(f"{type(obj).__name__}.{f.name}: no check for {f.type!r}")
        value = _CHECKERS[f.type](getattr(obj, f.name), f.name, error)
        object.__setattr__(obj, f.name, value)


def one_of(choices: tuple[str, ...]):
    """The rule that a value is one of ``choices``, for ``check_rules``."""
    return choices.__contains__, f"must be one of {choices}"


def check_rules(rules: Mapping, values: Mapping,
                error: type[Exception] = ValueError, label=str) -> None:
    """Judge each value by its rule in ``rules``, name -> (predicate, the
    rule it checks); a value that is None or absent is not judged. The
    message names the value as ``label(name)``."""
    for name, (ok, rule) in rules.items():
        value = values.get(name)
        if value is not None and not ok(value):
            raise error(f"{label(name)} {rule}, got {value!r}")


def field_dict(obj) -> dict:
    """A new dict of dataclass ``obj``'s fields by name; values are not
    copied. Unlike ``vars(obj)`` it leaves ``obj`` without a ``__dict__``
    object, which would add 64 bytes to every row for as long as the row
    lives."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def canonical_json(value) -> str:
    """The one spelling of a JSONL row or a hashed value: sorted keys, no
    spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
