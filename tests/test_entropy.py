import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import filtermc as fm
from filtermc import ModelError
from filtermc.entropy import _PI_FLOOR, _h_array

from helpers import random_partition, random_transition, reference_entropy_bracket


def two_state_chain():
    return fm.TransitionMatrix.from_dense([[0.9, 0.1], [0.2, 0.8]])


TWO_STATE_RATE = (2.0 / 3.0) * (0.9 * math.log2(1 / 0.9) + 0.1 * math.log2(1 / 0.1)) \
    + (1.0 / 3.0) * (0.2 * math.log2(1 / 0.2) + 0.8 * math.log2(1 / 0.8))


def test_h_values():
    assert fm.h(0.0) == 0.0
    assert fm.h(1.0) == 0.0
    assert fm.h(0.5) == pytest.approx(0.5)
    with pytest.raises(ModelError):
        fm.h(-0.1)
    with pytest.raises(ModelError):
        fm.h(1.1)


@settings(max_examples=200, deadline=None)
@given(ts=st.lists(st.floats(0.0, 1.0 + 1e-12) | st.sampled_from(
    [0.0, 1.0, 1.0 + 1e-12, 5e-324, 2.2e-308, 1.0 / math.e, 1.0 - 2**-53]), max_size=40))
@example(ts=[])
def test_h_array_is_h_entry_by_entry(ts):
    # every entry, in (0, 1) or at its ends and below the normal range,
    # takes the bits h gives it; "ln" drops h's division by ln 2
    a = np.array(ts, dtype=float)
    assert _h_array(a).tobytes() == np.array([fm.h(t) for t in ts], dtype=float).tobytes()
    want_ln = [-t * math.log(t) if 0.0 < t < 1.0 else 0.0 for t in ts]
    assert _h_array(a, "ln").tobytes() == np.array(want_ln, dtype=float).tobytes()
    assert _h_array(a.reshape(-1, 1)).tobytes() == _h_array(a).tobytes()


@settings(max_examples=100, deadline=None)
@given(bad=st.floats(max_value=-5e-324) | st.floats(min_value=1.0 + 2e-12),
       ts=st.lists(st.floats(0.0, 1.0), max_size=5), at=st.integers(0, 5))
def test_h_array_rejects_what_h_rejects_with_its_message(bad, ts, at):
    with pytest.raises(ModelError) as want:
        fm.h(bad)
    ts.insert(min(at, len(ts)), bad)
    with pytest.raises(ModelError, match=re.escape(str(want.value))):
        _h_array(np.array(ts))


def test_h_concave_with_max_at_one_over_e():
    ts = np.linspace(0.0, 1.0, 201)
    vals = [fm.h(t) for t in ts]
    peak = 1.0 / (math.e * math.log(2.0))
    assert max(vals) <= peak + 1e-12
    assert fm.h(1.0 / math.e) == pytest.approx(peak, abs=1e-12)
    # midpoint concavity on a grid
    for a, b in itertools.combinations(np.linspace(0.0, 1.0, 21), 2):
        assert fm.h((a + b) / 2.0) >= 0.5 * (fm.h(a) + fm.h(b)) - 1e-12


def test_block_entropy_trivial_partition_is_zero():
    rng = np.random.default_rng(0)
    P = random_transition(rng, 3)
    m = fm.Partition.trivial(P)
    for n in (1, 3, 5):
        val, pruned = fm.block_entropy(rng.dirichlet(np.ones(3)), m, n, prune=0.0)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert pruned == 0.0


def test_block_entropy_one_bit_example():
    P = fm.TransitionMatrix.from_dense([[0.5, 0.5], [0.5, 0.5]])
    m = fm.partition_from_lumping(P, ["a", "b"])
    val, _ = fm.block_entropy([1.0, 0.0], m, 1, prune=0.0)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_block_entropy_identity_lumping_is_path_entropy():
    rng = np.random.default_rng(1)
    P = random_transition(rng, 3)
    m = fm.partition_from_lumping(P, [0, 1, 2])
    Pd = P.toarray()
    x = rng.dirichlet(np.ones(3))
    for n in (1, 2, 3, 4):
        # oracle: enumerate every state path and sum h of its probability
        expected = 0.0
        for path in itertools.product(range(3), repeat=n):
            p = (x @ Pd)[path[0]]
            for a, b in zip(path, path[1:]):
                p *= Pd[a, b]
            expected += fm.h(p)
        got, _ = fm.block_entropy(x, m, n, prune=0.0)
        assert got == pytest.approx(expected, abs=1e-10)


def test_increment_methods_agree():
    rng = np.random.default_rng(2)
    for _ in range(8):
        n_states = int(rng.integers(2, 5))
        P = random_transition(rng, n_states)
        m = random_partition(rng, P, int(rng.integers(1, 4)))
        x = rng.dirichlet(np.ones(n_states))
        for n in (1, 2, 4):
            a = fm.entropy_rate_increment(x, m, n, prune=0.0, method="difference")
            b = fm.entropy_rate_increment(x, m, n, prune=0.0, method="integral")
            assert a == pytest.approx(b, abs=1e-9)


def test_increment_trivial_partition_zero():
    rng = np.random.default_rng(3)
    P = random_transition(rng, 3)
    m = fm.Partition.trivial(P)
    x = rng.dirichlet(np.ones(3))
    assert fm.entropy_rate_increment(x, m, 2, method="difference") == pytest.approx(0.0, abs=1e-12)
    assert fm.entropy_rate_increment(x, m, 2, method="integral") == pytest.approx(0.0, abs=1e-12)


def test_increment_identity_lumping_approaches_markov_rate():
    m = fm.partition_from_lumping(two_state_chain(), [0, 1])
    # geometric approach at the subdominant eigenvalue 0.7
    val = fm.entropy_rate_increment([1.0, 0.0], m, 16, prune=0.0, method="difference")
    assert val == pytest.approx(TWO_STATE_RATE, abs=1e-3)
    assert TWO_STATE_RATE == pytest.approx(0.5533, abs=1e-4)
    # from the stationary vector the increment equals the rate at every n
    pi = fm.stationary_vector(two_state_chain())
    exact = fm.entropy_rate_increment(pi, m, 1, prune=0.0, method="difference")
    assert exact == pytest.approx(TWO_STATE_RATE, abs=1e-10)


def test_bracket_trivial_partition_is_zero():
    rng = np.random.default_rng(4)
    P = random_transition(rng, 3)
    m = fm.Partition.trivial(P)
    report = fm.entropy_bracket(m, 4, prune=0.0)
    lower, upper = report.bracket
    assert max(abs(v) for v in lower + upper) <= 1e-12


def test_bracket_identity_lumping_closes_at_one():
    m = fm.partition_from_lumping(two_state_chain(), [0, 1])
    report = fm.entropy_bracket(m, 3, prune=0.0)
    lower, upper = report.bracket
    assert lower[0] == pytest.approx(TWO_STATE_RATE, abs=1e-10)
    assert upper[0] == pytest.approx(TWO_STATE_RATE, abs=1e-10)
    for k in range(3):
        assert lower[k] <= upper[k] + 1e-12


def test_bracket_kesten_monotone():
    k = fm.kesten_model()
    report = fm.entropy_bracket(k.partition, 10, prune=0.0)
    lower, upper = report.bracket
    for a, b in zip(lower, lower[1:]):
        assert b >= a - 1e-9
    for a, b in zip(upper, upper[1:]):
        assert b <= a + 1e-9
    for lo, up in zip(lower, upper):
        assert lo <= up + 1e-9


def test_bracket_report_carries_the_stationary_series():
    k = fm.gallery.kesten_model()
    pi = k.stationary
    report = fm.entropy_bracket(k.partition, 6, prune=0.01, pi=pi)
    assert report.series == fm.entropy_series(pi, k.partition, 7, prune=0.01)
    assert report.series.pruned_count > 0


def assert_same_report(got, want):
    assert (got.horizon, got.bracket, got.H_n, got.increment, got.pruned_mass,
            got.dropped_entropy_bound, got.series) == (
        want.horizon, want.bracket, want.H_n, want.increment, want.pruned_mass,
        want.dropped_entropy_bound, want.series)


@st.composite
def bracket_cases(draw):
    """A partition with 2 to 4 labels and the ``pi`` to bracket from: the
    stationary vector, or a vector with zero entries and entries at or
    below ``_PI_FLOOR``, which the lower mix folds into the pruned mass."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k, stationary = draw(st.integers(2, 6)), draw(st.integers(2, 4)), draw(st.booleans())
    # a sparse chain need not be irreducible, so it gets a pi of its own
    P = random_transition(rng, n, sparsity=0.0 if stationary else draw(st.sampled_from([0.0, 0.5])))
    m = random_partition(rng, P, k, kind=draw(st.sampled_from(["lumping", "observation",
                                                                "explicit"])))
    if stationary:
        return m, None
    pi = rng.dirichlet(np.ones(n))
    tiny = draw(st.lists(st.sampled_from([0.0, 0.0, 5e-324, 1e-13, _PI_FLOOR]),
                         min_size=1, max_size=n - 1))
    at = rng.choice(n, size=len(tiny), replace=False)
    pi[at] = tiny
    big = np.argmax(pi)
    for _ in range(4):  # a sum of exactly 1 leaves the tiny entries as they are
        pi[big] += 1.0 - pi.sum()
    assume(pi.sum() == 1.0)
    pi = fm.ProbVector(pi)
    assert list(pi.coords[at]) == tiny
    return m, pi


@settings(max_examples=80, deadline=None)
@given(case=bracket_cases(), n_max=st.integers(1, 4),
       prune=st.sampled_from([0.0, 1e-12, 1e-3, 0.05]), block_bytes=st.sampled_from([64, 2**18]))
def test_bracket_matches_one_walk_per_start(case, n_max, prune, block_bytes):
    # at 64 block bytes a block holds one to four rows, so starts and
    # children of different starts are cut into many blocks
    m, pi = case
    want = reference_entropy_bracket(m, n_max, prune=prune, pi=pi)
    with mock.patch.object(fm.core_model, "_BLOCK_BYTES", block_bytes):
        got = fm.entropy_bracket(m, n_max, prune=prune, pi=pi)
    assert_same_report(got, want)


@pytest.mark.parametrize("make, n_max, prune", [
    (fm.kesten_model, 6, 0.0), (fm.kesten_model, 8, 1e-3),
    (lambda: fm.random_walk_case_a(63), 4, 1e-12), (lambda: fm.random_walk_case_a(64), 3, 1e-4),
    (lambda: fm.random_walk_case_a(1024), 2, 1e-12)])
@pytest.mark.parametrize("uniform", [False, True])
def test_bracket_matches_one_walk_per_start_on_gallery_models(make, n_max, prune, uniform):
    # from the uniform pi every vertex is a start: rw1024 has 1,025 starts
    # in blocks of 16 (its stationary vector is above _PI_FLOOR at 26 states)
    m = make().partition
    pi = fm.ProbVector(np.full(m.n, 1.0 / m.n)) if uniform else None
    assert_same_report(fm.entropy_bracket(m, n_max, prune=prune, pi=pi),
                       reference_entropy_bracket(m, n_max, prune=prune, pi=pi))


def test_mc_trivial_partition_is_zero():
    rng = np.random.default_rng(5)
    P = random_transition(rng, 3)
    m = fm.Partition.trivial(P)
    est, err = fm.entropy_rate_mc(m, burn_in=10, samples=200, seed=0)
    assert est == pytest.approx(0.0, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_mc_identity_lumping_matches_rate():
    m = fm.partition_from_lumping(two_state_chain(), [0, 1])
    est, err = fm.entropy_rate_mc(m, burn_in=200, samples=6000, seed=1)
    assert abs(est - TWO_STATE_RATE) <= 3.0 * err + 1e-9
    report = fm.entropy_bracket(m, 2, prune=0.0)
    lower, upper = report.bracket
    assert lower[-1] - 3 * err <= est <= upper[-1] + 3 * err


def test_check_entropy_condition_bounds():
    rng = np.random.default_rng(6)
    P = random_transition(rng, 4)
    m = random_partition(rng, P, 3)
    val = fm.check_entropy_condition(m, sample_count=16, seed=0)
    assert 0.0 <= val <= math.log(3) + 1e-12
    trivial = fm.Partition.trivial(P)
    assert fm.check_entropy_condition(trivial, sample_count=4, seed=0) == pytest.approx(0.0, abs=1e-12)
    k = fm.kesten_model()
    kval = fm.check_entropy_condition(k.partition, sample_count=32, seed=0)
    assert kval <= math.log(2) + 1e-12
    # both outcomes have mass 1/2 from every point with a single block
    assert kval == pytest.approx(math.log(2), abs=1e-9)


def test_pruning_budget_reported():
    rng = np.random.default_rng(7)
    P = random_transition(rng, 4)
    m = random_partition(rng, P, 3)
    series = fm.entropy_series(rng.dirichlet(np.ones(4)), m, 5, prune=1e-3)
    assert series.pruned_mass >= 0.0
    if series.pruned_count:
        assert series.dropped_entropy_bound > 0.0
        full = fm.entropy_series(rng.dirichlet(np.ones(4)), m, 5, prune=0.0)
        assert len(full.values) == len(series.values)


@pytest.mark.parametrize("call", [
    lambda m: fm.entropy_series(np.full(m.n, 1.0 / m.n), m, 3, prune=math.nan),
    lambda m: fm.entropy_bracket(m, 3, prune=math.nan),
    lambda m: fm.block_entropy(np.full(m.n, 1.0 / m.n), m, 2, prune=math.nan),
])
def test_a_nan_prune_is_rejected_by_name(call):
    # every comparison with NaN is false, so the walk ran as if pruning were off
    with pytest.raises(fm.ModelError, match="^prune must be a number, got nan$"):
        call(fm.kesten_model().partition)
