"""Mutated model files, measure files and ``--x0`` strings: ``evolve``,
``simulate`` and ``distance`` exit 0 or 1 through ``run`` and never raise.

Gallery-written Kesten, Birkhoff-5 and perm-family files each get one node
(the document itself, an object member or a list item) replaced by a random
JSON value: nested lists and objects keyed by the schema's own names, ints of
any size, floats with NaN and infinities, and text.  Start vectors for Kesten
are written in several number formats, at lengths around its 8 states, and
may get a run of digits, signs, commas, ``e``, ``nan``, ``inf`` or spaces
spliced in; a run exits 0 only for a start that ``ProbVector`` accepts at
length 8.  Measure files that ``evolve`` wrote for Birkhoff-5 get the same
node replacements, and ``distance`` exits 0 only for a file whose atoms
``DiscreteMeasure`` and ``ProbVector`` accept.  So do the ``gallery
--params`` documents of Birkhoff-5, a three-state random walk in both forms
(coefficients, and a ``"case"`` with ``"n"``) and the Kesten perm family,
and ``gallery`` exits 0 or 1.  In the ``"case"`` form ``"n"`` alone sizes
the chain, up to ``RANDOM_WALK_MAX_STATES``; the test lowers that bound to
64 states, so that an accepted random integer builds a small chain and a
larger one meets the bound's check.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from filtermc import cli
from filtermc.cli import run
from filtermc.core_model import ProbVector
from filtermc.filter_dynamics import DiscreteMeasure

from helpers import kesten_perm_params
from test_golden_cli import _B5

_KEYS = st.sampled_from(["states", "P", "partition", "meta", "lumping", "observation",
                         "explicit", "labels", "default_start", "name", "a", "b", "0",
                         "atoms", "w", "x", "matrix", "n", "c", "base", "members", "d",
                         "Q", "0,0,a", "1,1,b", "case"])
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
    try:  # an empty --x0 does not parse either: float("") raises
        valid = ProbVector([float(t) for t in x0.split(",")]).dim == 8
    except ValueError:  # a ModelError is one too
        valid = False
    for argv in (["evolve", "--steps", "2", "--out", str(d / "mu.json")],
                 ["simulate", "--steps", "3", "--seed", "1", "--out", str(d / "trace.csv")]):
        assert run(argv + ["--model", str(d / "kesten.json"), f"--x0={x0}"]) == (0 if valid else 1)


@pytest.fixture(scope="module")
def measures(models) -> tuple:
    """Two Birkhoff-5 measure files, and the first's document with the paths
    of its nodes."""
    d, _ = models
    for steps in ("1", "2"):
        assert run(["evolve", "--model", str(d / "b5.json"), "--steps", steps,
                    "--out", str(d / f"mu{steps}.json")]) == 0
    doc = json.loads((d / "mu1.json").read_text())
    return d, doc, list(_nodes(doc))


def _accepted(doc) -> bool:
    """Whether the library's constructors accept the atoms of ``doc``."""
    try:
        atoms = doc["atoms"]
        DiscreteMeasure([a["w"] for a in atoms], [ProbVector(a["x"]).coords for a in atoms],
                        merge_eps=0.0)
        return True
    except (TypeError, ValueError, KeyError, IndexError, OverflowError):
        return False


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), value=_VALUES)
def test_a_mutated_measure_file_is_run_or_rejected(measures, data, value):
    d, doc, nodes = measures
    mutated = _replace(doc, data.draw(st.sampled_from(nodes), label="node"), value)
    mu = d / "mutated.json"
    mu.write_text(json.dumps(mutated))
    code = run(["distance", "--mu", str(mu), "--nu", str(d / "mu2.json"),
                "--plan", str(d / "plan.json")])
    assert code in (0, 1)
    assert code == 1 or _accepted(mutated)


# a birth-death chain on three states: b[0] + c[0] = 1, a[i-1] + b[i] + c[i] = 1
_WALK3 = {"a": [0.5, 0.5], "b": [0.5, 0.25, 0.25], "c": [0.5, 0.25, 0.25], "n": 3}


@pytest.fixture(scope="module")
def params(models) -> tuple:
    """Each gallery kind's params document with the paths of its nodes."""
    d, _ = models
    docs = {"birkhoff": {"matrix": _B5.tolist()}, "random-walk": _WALK3,
            "random-walk case": {"case": "b", "n": 3}, "perm-family": kesten_perm_params()}
    for name, doc in docs.items():
        (d / "params.json").write_text(json.dumps(doc))
        assert run(["gallery", name.split()[0], "--params", str(d / "params.json"),
                    "--out", str(d / "gallery.json")]) == 0
    return d, {name: (doc, list(_nodes(doc))) for name, doc in docs.items()}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), value=_VALUES)
def test_mutated_gallery_params_are_built_or_rejected(params, data, value):
    d, docs = params
    name = data.draw(st.sampled_from(sorted(docs)), label="kind")
    doc, nodes = docs[name]
    (d / "params.json").write_text(json.dumps(
        _replace(doc, data.draw(st.sampled_from(nodes), label="node"), value)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "RANDOM_WALK_MAX_STATES", 64)
        assert run(["gallery", name.split()[0], "--params", str(d / "params.json"),
                    "--out", str(d / "gallery.json")]) in (0, 1)


@pytest.mark.parametrize("n, code", [(64, 0), (65, 1)])
def test_random_walk_case_bound_is_inclusive(tmp_path, monkeypatch, n, code):
    monkeypatch.setattr(cli, "RANDOM_WALK_MAX_STATES", 64)
    (tmp_path / "params.json").write_text(json.dumps({"case": "a", "n": n}))
    assert run(["gallery", "random-walk", "--params", str(tmp_path / "params.json"),
                "--out", str(tmp_path / "gallery.json")]) == code
