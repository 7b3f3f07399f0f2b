"""Mutated model files and ``--x0`` strings: ``evolve`` and ``simulate``
exit 0 or 1 through ``run`` and never raise.

Gallery-written Kesten, Birkhoff-5 and perm-family files each get one node
(the document itself, an object member or a list item) replaced by a random
JSON value: nested lists and objects keyed by the schema's own names, ints of
any size, floats with NaN and infinities, and text.  Start vectors for Kesten
are written in several number formats, at lengths around its 8 states, and
may get a run of digits, signs, commas, ``e``, ``nan``, ``inf`` or spaces
spliced in; a run exits 0 only for a start that ``ProbVector`` accepts at
length 8.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from filtermc.cli import run
from filtermc.core_model import ProbVector

from helpers import kesten_perm_params
from test_golden_cli import _B5

_KEYS = st.sampled_from(["states", "P", "partition", "meta", "lumping", "observation",
                         "explicit", "labels", "default_start", "name", "a", "b", "0"])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2, 9)
            | st.floats() | st.text(max_size=4))
_VALUES = st.recursive(
    _SCALARS, lambda kids: (st.lists(kids, max_size=4)
                            | st.dictionaries(_KEYS | st.text(max_size=3), kids, max_size=4)),
    max_leaves=10)


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the document first."""
    yield path
    if isinstance(doc, (dict, list)):
        for k, v in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(v, path + (k,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def models(tmp_path_factory) -> tuple:
    """A work directory, and each model's document with the paths of its nodes."""
    d = tmp_path_factory.mktemp("models")
    (d / "b5.params.json").write_text(json.dumps({"matrix": _B5.tolist()}))
    (d / "perm.params.json").write_text(json.dumps(kesten_perm_params()))
    out = {}
    for name, extra in [("kesten", ["kesten"]),
                        ("b5", ["birkhoff", "--params", str(d / "b5.params.json")]),
                        ("perm", ["perm-family", "--params", str(d / "perm.params.json")])]:
        assert run(["gallery", *extra, "--out", str(d / f"{name}.json")]) == 0
        doc = json.loads((d / f"{name}.json").read_text())
        out[name] = (doc, list(_nodes(doc)))
    return d, out


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), value=_VALUES)
def test_a_mutated_model_file_is_run_or_rejected(models, data, value):
    d, docs = models
    doc, nodes = docs[data.draw(st.sampled_from(sorted(docs)), label="model")]
    path = data.draw(st.sampled_from(nodes), label="node")
    model = d / "model.json"
    model.write_text(json.dumps(_replace(doc, path, value)))
    for argv in (["evolve", "--steps", "2", "--out", str(d / "mu.json")],
                 ["simulate", "--steps", "3", "--seed", "1", "--out", str(d / "trace.csv")]):
        assert run(argv + ["--model", str(model)]) in (0, 1)


_NOISE = st.lists(st.sampled_from(list("0123456789+-,.e ") + ["nan", "inf"]), max_size=6)


@st.composite
def x0_strings(draw) -> str:
    n = draw(st.sampled_from([1, 7, 8, 8, 8, 9]))
    coords = draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([-0.0, -1e-300, 1e-320, 2.0]),
                           min_size=n, max_size=n))
    if sum(coords) > 0 and draw(st.booleans()):  # on the simplex up to rounding
        coords = [c / sum(coords) for c in coords]
    fmt = draw(st.sampled_from(["{!r}", " {!r} ", "{:+.17e}", "{:.3g}"]))
    text = ",".join(fmt.format(c) for c in coords)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, len(text)))
        text = text[:i] + "".join(draw(_NOISE)) + text[j:]
    return text


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(x0=x0_strings())
def test_a_mutated_x0_is_run_or_rejected(models, x0):
    d, _ = models
    try:  # an empty --x0 takes the model's start
        valid = not x0 or ProbVector([float(t) for t in x0.split(",")]).dim == 8
    except ValueError:  # a ModelError is one too
        valid = False
    for argv in (["evolve", "--steps", "2", "--out", str(d / "mu.json")],
                 ["simulate", "--steps", "3", "--seed", "1", "--out", str(d / "trace.csv")]):
        assert run(argv + ["--model", str(d / "kesten.json"), f"--x0={x0}"]) == (0 if valid else 1)
