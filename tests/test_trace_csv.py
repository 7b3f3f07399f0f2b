"""``FilterTrace.to_csv`` against the plain ``csv.writer`` it replaces.

The writer formats each distinct float64 bit pattern once per call and
lets ``csv.writer`` quote each label once; the bytes must be those of
``reference_trace_csv``, which formats every coordinate and quotes every
row.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import filtermc as fm
from filtermc import FilterTrace
from filtermc.core_model import ProbVector

from helpers import reference_trace_csv

# far below half an ulp of any dyadic part below, so a row's sum stays 1.0
# exactly and ProbVector keeps every bit; repr writes the last three with
# an exponent, the first two are subnormal
TINY = [0.0, -0.0, 5e-324, 2.5e-310, 1e-300, 2.2250738585072014e-308, 1e-200]
LABELS = st.one_of(
    st.integers(-3, 300),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.text(alphabet=',"\n\r x\'', max_size=4),
    st.sampled_from([True, 1.0, None, (1.0, 2), "", "plain"]),
)


def _csv_bytes(write, trace: FilterTrace) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trace.csv"
        write(trace, path)
        return path.read_bytes()


def assert_same_bytes(trace: FilterTrace) -> bytes:
    got = _csv_bytes(FilterTrace.to_csv, trace)
    assert got == _csv_bytes(reference_trace_csv, trace)
    return got


@st.composite
def states(draw, n: int) -> ProbVector:
    if draw(st.booleans()):  # arbitrary coordinates, renormalised
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        raw[draw(st.integers(0, n - 1))] = draw(st.floats(0.5, 1.0))
        return ProbVector(np.asarray(raw) / sum(raw))
    # dyadic parts from halving 1.0 (repeated values, and exponents such as
    # 2**-17 = 7.62939453125e-06) summing to 1.0 exactly, the rest tiny
    parts = [1.0]
    for _ in range(draw(st.integers(0, n - 1))):
        i = draw(st.integers(0, len(parts) - 1))
        if parts[i] > 2.0**-30:
            parts[i] /= 2.0
            parts.append(parts[i])
    coords = parts + draw(st.lists(st.sampled_from(TINY), min_size=n - len(parts),
                                   max_size=n - len(parts)))
    return ProbVector(draw(st.permutations(coords)))


@st.composite
def traces(draw) -> FilterTrace:
    n = draw(st.integers(1, 8))
    steps = draw(st.lists(st.tuples(LABELS, states(n)), max_size=6))
    return FilterTrace(x0=draw(states(n)), steps=tuple(steps), seed=0)


@settings(max_examples=300, deadline=None)
@given(traces())
def test_trace_csv_matches_the_plain_writer(trace):
    assert_same_bytes(trace)


def test_trace_csv_signed_zeros_tiny_values_and_quoted_labels():
    x0 = ProbVector([-0.0, 0.5, 0.25, 0.25, 5e-324, 1e-300])
    rows = [[0.0, 0.5, 0.5, 0.0, 0.0, -0.0], [0.5, 0.49999, 1e-05, 0.0, 0.0, 0.0],
            [0.25, 0.25, 0.25, 0.25, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]
    labels = ["a,b", 'say "hi"', "line\nbreak", "cr\r", (1, 2), (1.0, 2), 1, True, 1.0, "",
              None, "plain"]
    steps = tuple((lab, ProbVector(rows[k % len(rows)])) for k, lab in enumerate(labels))
    data = assert_same_bytes(FilterTrace(x0=x0, steps=steps, seed=0))
    lines = data.split(b"\r\n")
    assert lines[1] == b"0,,-0.0,0.5,0.25,0.25,5e-324,1e-300"
    assert lines[2] == b'1,"a,b",0.0,0.5,0.5,0.0,0.0,-0.0'
    assert b'"say ""hi"""' in data and b'"line\nbreak"' in data and b'"(1, 2)"' in data
    # the other order of signed zeros, in a call of its own
    data = assert_same_bytes(FilterTrace(x0=ProbVector([0.0, 1.0]),
                                         steps=((0, ProbVector([-0.0, 1.0])),), seed=0))
    assert data.endswith(b"0,,0.0,1.0\r\n1,0,-0.0,1.0\r\n")


def test_trace_csv_memory_is_bounded_and_released(tmp_path):
    # 130 steps of the 1024-state walk from pi (a paths benchmark job): the
    # writer holds one block of rows and the memo of its distinct values, and
    # keeps nothing once it returns
    model = fm.gallery.random_walk_case_a(1024)
    trace = fm.simulate_filter(model.stationary, model.partition, 130, seed=5)
    path = tmp_path / "trace.csv"
    kesten = fm.gallery.kesten_model()
    fm.simulate_filter([0.5, 0.5] + [0.0] * 6, kesten.partition, 5, seed=1).to_csv(path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace.to_csv(path)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 2 << 20
    assert after - before < 64 << 10
    assert path.read_bytes() == _csv_bytes(reference_trace_csv, trace)
