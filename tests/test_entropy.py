import itertools
import math

import numpy as np
import pytest

import filtermc as fm
from filtermc import ModelError

from helpers import random_partition, random_transition


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
