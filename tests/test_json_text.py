"""The CLI's report writer against json.dumps(value, indent=2,
sort_keys=True), whose text it must reproduce byte for byte."""

import enum
import json
import random

import pytest

from treelike.cli import _json_text

KEY_CHARS = ["a", "b", "z", "/", '"', "\\", "\n", "\t", "\x00", "\x1f",
             "\x7f", "\xe9", "α", " ", "\ud83d", "\U0001f600"]


class Level(enum.IntEnum):
    ONE = 1


class Opaque:
    """A value json.dumps cannot write, with a repr that stays the same
    from run to run so that the test id naming it does too."""

    def __repr__(self):
        return "Opaque()"


def _text(rng) -> str:
    return "".join(rng.choice(KEY_CHARS) for _ in range(rng.randint(0, 5)))


def _int(rng) -> int:
    return rng.choice([rng.randint(-1000, 1000), -(2 ** 70),
                       2 ** 64 + rng.randint(0, 10 ** 30), 0])


def _scalar(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return _int(rng)
    if kind == 1:
        return _text(rng)
    if kind == 2:
        return rng.choice([True, False, None, Level.ONE])
    if kind == 3:
        return rng.choice([0.5, -1e300, 1e-7, 3.0, -0.0, float("nan"),
                           float("inf"), float("-inf")])
    return rng.choice([[], {}, (), [[]], [{}], {"": []}, [(), []]])


def _value(rng, depth: int, shared):
    """A random nested value, holding `shared` wherever it is drawn."""
    r = rng.random()
    if depth == 0 or r < 0.25:
        return _scalar(rng)
    if r < 0.35:
        return shared
    n = rng.randint(0, 4)
    if r < 0.55:
        return {_text(rng): _value(rng, depth - 1, shared) for _ in range(n)}
    if r < 0.7:
        return [_value(rng, depth - 1, shared) for _ in range(n)]
    if r < 0.8:
        return tuple(_value(rng, depth - 1, shared) for _ in range(n))
    if r < 0.9:         # ints, with a bool now and then
        return [rng.choice([True, -1]) if rng.random() < 0.05 else _int(rng)
                for _ in range(n)]
    return [[_int(rng) for _ in range(rng.randint(0, 3))] for _ in range(n)]


def _shared(rng):
    return {"edges": [[0, 1], [_int(rng), 2]], "ints": [1, 2],
            "rest": _value(rng, 2, None)}


@pytest.mark.parametrize("seed", range(200))
def test_writes_the_text_of_json_dumps(seed):
    rng = random.Random(seed)
    shared = _shared(rng)
    # one object at two indents, and more wherever _value draws it
    value = {"one": shared, "two": [shared, {"three": shared}],
             "rest": _value(rng, 4, shared)}
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    0, -5, 2 ** 100, "", "a\"b\\c\nα", True, False, None, 1.5,
    float("nan"), (), [], {}, [[]], (1, (2, [])), [[1, 2], [], [3]],
    [1, True], [[1], [True]], [[1], (2,)], {"a": (), "b": [{}]},
    {2: "x", 10: ["y"]}, {"k": {1: [1, {"z": None}]}}, Level.ONE,
], ids=repr)
def test_writes_edge_cases(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_shared_entry_renders_at_each_indent():
    entry = {"x_edges": [[0, 1], [1, 2]], "g": 3}
    report = {"failures": [entry], "level": {"dissolves": {"list": [entry]}}}
    assert _json_text(report) == json.dumps(report, indent=2,
                                            sort_keys=True)


@pytest.mark.parametrize("value", [{1: 2, "a": 3}, {"a": Opaque()},
                                   [1, {"b": {1, 2}}]], ids=repr)
def test_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _json_text(value)
