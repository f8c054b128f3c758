"""The CLI writes its JSON reports with its own writer, cli._write_json; these
tests hold it to the bytes of json.dumps(value, indent=2, sort_keys=True) on
any JSON tree, and check that real CLI output is in that format."""

import collections
import enum
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floerdisk.cli import _emit, main
from test_cli import GOLDEN_COMMANDS


def written(value) -> str:
    out = io.StringIO()
    _emit(value, "json", out)
    return out.getvalue()


def outcome(write, value):
    """What write(value) gives, or TypeError when it raises one."""
    try:
        return write(value)
    except TypeError:
        return TypeError


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def assert_same_text(got: str, want: str) -> None:
    """got == want; a mismatch names its first differing line, since
    pytest's own diff of two megabyte reports takes minutes."""
    if got != want:
        pairs = zip(got.splitlines(True), want.splitlines(True))
        line = next((i for i, (g, w) in enumerate(pairs, 1) if g != w),
                    "past the shorter text's end")
        pytest.fail(f"the texts first differ at line {line}")


# quotes, backslashes, control characters, non-ASCII and lone surrogates
_TRICKY = '"\\/\n\r\t\b\f\x00\x1f\x7f\x80é€ \U0001f600𐏿'
strings = st.text(st.one_of(st.characters(blacklist_categories=()),
                            st.sampled_from(_TRICKY)), max_size=8)
ints = st.one_of(st.integers(), st.integers(-2 ** 200, 2 ** 200),
                 st.sampled_from([0, 1, -1, 2 ** 63, 2 ** 64, -2 ** 64 - 1]))
floats = st.one_of(st.floats(),
                   st.sampled_from([-0.0, 0.0, float("nan"), float("inf"),
                                    float("-inf"), 1e300, 5e-324]))
scalars = st.one_of(strings, ints, floats,
                    st.sampled_from([True, False, None, 1, 0, 1.0, 0.0]))


def containers(children):
    """Lists, tuples and dicts of children, empty ones included; a dict's
    keys are all str, or all of one other key type json.dumps takes."""
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(ints, children, max_size=4),
        st.dictionaries(floats, children, max_size=3),
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.none(), children, max_size=1))


trees = st.recursive(scalars, containers, max_leaves=30)


@settings(max_examples=300)
@given(trees)
def test_writer_is_byte_identical_to_json_dumps(value):
    assert written(value) == reference(value)


@settings(max_examples=100)
@given(st.dictionaries(st.one_of(strings, ints, st.none()), scalars,
                       min_size=2, max_size=4))
def test_mixed_key_types_raise_as_json_dumps_does(value):
    """With sort_keys, a mix of key types that do not compare is a
    TypeError in json.dumps, and so in the writer."""
    assert outcome(written, value) == outcome(reference, value)


@settings(max_examples=50)
@given(trees, st.sampled_from([object(), {1, 2}, frozenset(), b"x", 1j]))
def test_unserialisable_values_raise_type_error(value, bad):
    for tree in ([value, bad], {"k": [bad], "v": value}, bad):
        with pytest.raises(TypeError):
            reference(tree)
        with pytest.raises(TypeError):
            written(tree)


class _Str(str):
    pass


class _Int(int):
    pass


class _Colour(enum.IntEnum):
    RED = 1


@pytest.mark.parametrize("value", [
    {"a": {}, "b": [], "c": (), "d": [[], {}, ()]},
    {"a": [1, (2, [3, {}]), {"b": 1.5, "c": -0.0}]},
    {1: "one", 2: {"x": [True, 1, False, 0, None]}},
    {"warnings": [], "result": {"points": [{"a": "1/5"}]}},
    [_Str("s"), _Int(7), _Colour.RED, {_Str("k"): 1}],
    collections.OrderedDict([("b", 1), ("a", collections.OrderedDict())]),
    {"a": [float("nan"), float("inf"), float("-inf")]},
    {True: 1, 2: 2, 0.5: 3},
    "a\ud800\n\"", 2 ** 100, -1, True, None, 1.0,
])
def test_writer_on_hand_made_trees(value):
    assert written(value) == reference(value)


@pytest.mark.parametrize("argv, code", [
    *((GOLDEN_COMMANDS[name], 0) for name in sorted(GOLDEN_COMMANDS)),
    (["potential", "--builtin", "cp2_ta:a=1/5", "--residue-ring", "Z/1024"],
     0),
    (["sweep", "--builtin", "cp2_ta", "--vs", "cp2_clifford", "--ring", "Z/8",
      "--from", "1/6000", "--to", "1/3", "--step", "1/6000"], 0),
    (["validate", "--builtin", "nö\nx"], 3),
], ids=[*sorted(GOLDEN_COMMANDS), "potential_z1024", "sweep_2000",
        "error_non_ascii"])
def test_cli_output_round_trips(argv, code):
    """Real reports, large ones and an error among them, are exactly what
    json.dumps writes for the value they parse to."""
    out = io.StringIO()
    assert main(argv, out=out) == code
    text = out.getvalue()
    assert_same_text(text, reference(json.loads(text)))

