"""The package's JSON writer against ``json.dumps(doc, indent=1)``, byte for byte."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filtermc import core_model
from filtermc.core_model import _write_json

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 1e300, 0.1, 1 / 3,
                float("nan"), float("inf"), -float("inf")]
_FLOATS = (st.floats() | st.sampled_from(_EDGE_FLOATS)
           | st.sampled_from(_EDGE_FLOATS).map(np.float64))
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70) | _FLOATS
            | st.text() | st.sampled_from(["", "é", "\x00\x1f\x7f", " ", "\U0001f600",
                                           '"\\/\b\f\n\r\t']))
_KEYS = st.text() | st.integers() | _FLOATS | st.booleans() | st.none()


def _rows(scalars):
    """Lists and tuples of rows of one length, or of ragged lengths."""
    same = st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(scalars, min_size=k, max_size=k)
                           | st.tuples(*[scalars] * k), max_size=6))
    return same | st.lists(st.lists(scalars, max_size=4), max_size=6)


# lists and rows of repeated floats, zeros of both signs included
_REPEATS = st.sampled_from(_EDGE_FLOATS)
_DOCS = st.recursive(
    _SCALARS | _rows(_SCALARS) | _rows(_REPEATS) | st.lists(_REPEATS, max_size=8),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=24)


def _expected(doc) -> bytes:
    return (json.dumps(doc, indent=1) + "\n").encode()


def _written(doc) -> tuple[bytes, bytes]:
    """The bytes written to a file and to stdout."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "doc.json"
        _write_json(doc, path)
        data = path.read_bytes()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_json(doc, None)
    return data, out.getvalue().encode()


@settings(max_examples=300, deadline=None)
@given(_DOCS)
@example({"P": [[0, 0, 0.5], [0, 1, -0.0], [1, 1, 0.0]], "x": [0.0, -0.0, 0.5, 0.0],
          "e": [], "d": {}, "t": (), "n": [[], [{}], [[]]]})
@example([[-0.0, 0.0], [0.0, -0.0]])
@example({1: [10**40, -10**40], 2.5: True, None: [None, False], True: "\x00é"})
@example([[1, 2.0], (3, np.float64(-0.0)), [True, None]])
@example([[1, 2], [3]])
def test_the_writer_gives_the_bytes_of_json_dumps(doc):
    expected = _expected(doc)
    assert _written(doc) == (expected, expected)


@pytest.mark.parametrize("doc", [
    {"a": [1.0, np.int64(3)]},
    [[1, 2], [np.int64(3), 4]],
    {"a": {1, 2}},
    [np.bool_(True)],
    np.float32(0.5),
    {(1, 2): 0},
    {np.int64(1): 0},
    [object()],
], ids=["int64-in-a-list", "int64-in-a-row", "set", "numpy-bool", "float32", "tuple-key",
        "int64-key", "object"])
def test_what_json_rejects_raises_its_type_error_and_writes_nothing(tmp_path, doc):
    with pytest.raises(TypeError) as want:
        json.dumps(doc, indent=1)
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError) as got:
        _write_json(doc, path)
    assert str(got.value) == str(want.value)
    # json.dump left the text up to the bad value in the file
    assert not path.exists()
    path.write_text("kept\n")
    with pytest.raises(TypeError):
        _write_json(doc, path)
    assert path.read_text() == "kept\n"


def test_each_distinct_float_of_a_column_is_formatted_once(monkeypatch):
    calls = []
    text = core_model._float_text
    monkeypatch.setattr(core_model, "_float_text", lambda v: calls.append(v) or text(v))
    doc = {"a": [0.1, 0.2] * 50, "b": [[0, 1, 0.1], [1, 0, 0.2], [1, 1, 0.1]], "c": [-0.0, 0.0]}
    assert "".join(core_model._json_parts(doc)) == json.dumps(doc, indent=1)
    # one zero key for both signs, each of which is written as its own repr
    assert list(map(repr, calls)) == ["0.1", "0.2", "0.1", "0.2", "-0.0"]


def test_jsonable_writes_non_finite_floats_as_their_repr():
    # inside nested lists, tuples and dicts, numpy floats become Python ones
    # and non-finite floats the text of their repr
    doc = {"curve": [float("inf"), -float("inf"), float("nan"), np.float64(0.25), 1.5],
           2: ({"x": np.float64("-inf"), "y": [[np.float64("nan"), 2.0]]}, -0.0)}
    assert _written(core_model._jsonable(doc))[1].decode() == """\
{
 "curve": [
  "inf",
  "-inf",
  "nan",
  0.25,
  1.5
 ],
 "2": [
  {
   "x": "-inf",
   "y": [
    [
     "nan",
     2.0
    ]
   ]
  },
  -0.0
 ]
}
"""
