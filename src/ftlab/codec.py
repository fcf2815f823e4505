"""One JSON codec for the frozen dataclasses of configs, ledgers and specs.

`decode` builds a value of a type from parsed JSON, reading dataclass
field types with typing.get_type_hints: nested dataclasses by recursion,
lists as `tuple[...]`, objects as `dict[str, ...]`, null as the None of
`X | None`. It coerces nothing: a bool needs a JSON boolean, an int an
integer that is not a boolean, a float any finite number, and a value is
kept as given, so encoding it again writes the same JSON. A key that is
not a field is an error at every level. Every problem found is reported
at once, each prefixed with its path, as in "graduated.scales[1]".
`encode` is the inverse: dataclasses become objects and tuples lists.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import reprlib
import typing


class DecodeError(ValueError):
    """Carries every problem found in one decoded value."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def check(predicate, message: str) -> dict:
    """Field metadata: decode reports "<path> <message>" for a decoded value
    that fails predicate."""
    return {"check": (predicate, message)}


def decode(tp, data):
    """data as a value of type tp; raises DecodeError listing every problem."""
    errors: list[str] = []
    value = _decode(tp, data, "", errors)
    if errors:
        raise DecodeError(errors)
    return value


def encode(value):
    """The JSON form of a value that decode builds."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value


_KINDS = {bool: (bool, "a boolean"), int: (int, "an integer"),
          float: ((int, float), "a finite number"), str: (str, "a string"),
          dict: (dict, "an object")}


def _decode(tp, value, path: str, errors: list[str]):
    args = typing.get_args(tp)
    if type(None) in args:                      # X | None
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _decode(tp, value, path, errors)
    if dataclasses.is_dataclass(tp):
        return _decode_fields(tp, value, path, errors)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            errors.append(f"{path or 'value'} must be a list, "
                          f"got {reprlib.repr(value)}")
            return None
        types = (args[0],) * len(value) if args[-1] is Ellipsis else args
        if len(types) != len(value):
            errors.append(f"{path or 'value'} must have {len(types)} items, "
                          f"got {len(value)}")
            return None
        return tuple(_decode(t, v, f"{path}[{i}]", errors)
                     for i, (t, v) in enumerate(zip(types, value)))
    if typing.get_origin(tp) is dict and isinstance(value, dict):
        # JSON object keys are strings, so only the values are decoded
        return {k: _decode(args[1], v, _join(path, k), errors)
                for k, v in value.items()}
    kinds, name = _KINDS[typing.get_origin(tp) or tp]
    if (not isinstance(value, kinds)
            or (isinstance(value, bool) and tp is not bool)
            or (isinstance(value, float) and not math.isfinite(value))):
        errors.append(f"{path or 'value'} must be {name}, "
                      f"got {reprlib.repr(value)}")
    return value


def _decode_fields(cls, value, path: str, errors: list[str]):
    if not isinstance(value, dict):
        errors.append(f"{path or cls.__name__} must be an object, "
                      f"got {reprlib.repr(value)}")
        return None
    hints, fields = _fields(cls)
    start = len(errors)
    errors.extend(f"unknown field {_join(path, str(key))!r}"
                  for key in sorted(value.keys() - fields.keys(), key=str))
    kwargs = {}
    for name, f in fields.items():
        where = _join(path, name)
        if name not in value:
            if (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING):
                errors.append(f"{where} is required")
            continue
        before = len(errors)
        kwargs[name] = _decode(hints[name], value[name], where, errors)
        predicate, message = f.metadata.get("check", (None, None))
        if len(errors) == before and predicate and not predicate(kwargs[name]):
            errors.append(f"{where} {message}, got {reprlib.repr(value[name])}")
    if len(errors) > start:
        return None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        errors.append(f"{path or cls.__name__}: {e}")
        return None


@functools.cache   # a few classes; get_type_hints evaluates every annotation
def _fields(cls) -> tuple[dict, dict]:
    return (typing.get_type_hints(cls),
            {f.name: f for f in dataclasses.fields(cls) if f.init})


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name
