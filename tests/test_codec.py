"""The typed JSON codec: strict scalars, no coercion, every error at once."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from ftlab.codec import DecodeError, check, decode, encode


@dataclass(frozen=True)
class Inner:
    rate: float = 0.5
    pairs: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class Outer:
    name: str
    count: int = field(default=1, metadata=check(lambda n: n >= 1,
                                                 "must be positive"))
    flag: bool = False
    inner: Inner | None = None
    sizes: tuple[int, ...] = (1, 2)

    def __post_init__(self):
        if self.name == "bad":
            raise ValueError("name must not be 'bad'")


def errors_of(tp, data) -> list[str]:
    with pytest.raises(DecodeError) as exc:
        decode(tp, data)
    return exc.value.errors


def test_round_trip_keeps_values_as_given():
    data = {"name": "a", "count": 3, "flag": True, "sizes": [4],
            "inner": {"rate": 1, "pairs": [[0, 0.5], [2, 1]]}}
    value = decode(Outer, data)
    assert value == Outer("a", 3, True, Inner(1, ((0, 0.5), (2, 1))), (4,))
    assert encode(value) == data     # the int rate stays an int


def test_defaults_fill_missing_fields_and_are_encoded():
    assert encode(decode(Outer, {"name": "a"})) == {
        "name": "a", "count": 1, "flag": False, "inner": None, "sizes": [1, 2]}


@pytest.mark.parametrize("data, error", [
    ({"name": "a", "count": True}, "count must be an integer, got True"),
    ({"name": "a", "count": 1.0}, "count must be an integer, got 1.0"),
    ({"name": "a", "flag": 1}, "flag must be a boolean, got 1"),
    ({"name": "a", "flag": "no"}, "flag must be a boolean, got 'no'"),
    ({"name": "a", "inner": {"rate": True}},
     "inner.rate must be a finite number, got True"),
    ({"name": "a", "inner": {"rate": float("nan")}},
     "inner.rate must be a finite number, got nan"),
    ({"name": "a", "inner": {"pairs": [[1, 2, 3]]}},
     "inner.pairs[0] must have 2 items, got 3"),
    ({"name": "a", "sizes": 3}, "sizes must be a list, got 3"),
    ({"name": "a", "inner": {"rat": 1}}, "unknown field 'inner.rat'"),
    ({"name": "a", "count": 0}, "count must be positive, got 0"),
    ({}, "name is required"),
    ({"name": "bad"}, "Outer: name must not be 'bad'"),
    ([], "Outer must be an object, got []"),
])
def test_one_problem_one_path_prefixed_error(data, error):
    assert errors_of(Outer, data) == [error]


def test_every_problem_reported_at_once():
    assert errors_of(Outer, {"name": 5, "count": "2", "extra": 1,
                             "inner": {"pairs": [[1, "x"]]}}) == [
        "unknown field 'extra'", "name must be a string, got 5",
        "count must be an integer, got '2'",
        "inner.pairs[0][1] must be a finite number, got 'x'"]
