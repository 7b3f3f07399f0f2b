"""Differential tests of ``Partition.fan_out`` and the kernels built on it
against the per-label loops they replaced (kept in ``helpers``): every
outcome, atom, pruning figure, entropy value and trace state is bit-equal.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtermc as fm
from filtermc.entropy import _one_step_entropy
from filtermc.stability import _active_words

from helpers import (
    random_partition,
    random_transition,
    reference_active_words,
    reference_entropy_series,
    reference_one_step_entropy,
    reference_pushforward,
    reference_simulate_filter,
    reference_step_outcomes,
)


def assert_same_outcomes(got, want):
    assert [(o.label, o.prob) for o in got] == [(o.label, o.prob) for o in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.next_state.coords, b.next_state.coords)


def assert_same_measure(got, want):
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.points, want.points)
    assert (got.pruned_mass, got.pruned_count) == (want.pruned_mass, want.pruned_count)


def assert_same_trace(got, want):
    assert got.labels() == want.labels()
    for (_, a), (_, b) in zip(got.steps, want.steps):
        assert np.array_equal(a.coords, b.coords)


def assert_same_active_words(got, want):
    assert list(got) == list(want)
    for word in want:
        assert got[word][0] == want[word][0]
        assert np.array_equal(got[word][1], want[word][1])


def assert_kernels_match(m, x, depth, prune, threshold, seed, steps):
    """Run every rebuilt kernel and its reference from the start ``x``."""
    assert_same_outcomes(fm.step_outcomes(x, m, threshold=threshold),
                         reference_step_outcomes(x, m, threshold=threshold))
    mu = got_mu = fm.dirac(x)
    for _ in range(depth):
        try:
            mu = reference_pushforward(mu, m, prune=prune)
        except fm.ModelError as exc:
            with pytest.raises(fm.ModelError, match=re.escape(str(exc))):
                fm.pushforward(got_mu, m, prune=prune)
            break
        got_mu = fm.pushforward(got_mu, m, prune=prune)
        assert_same_measure(got_mu, mu)
    got, want = fm.entropy_series(x, m, depth, prune=prune), reference_entropy_series(
        x, m, depth, prune=prune)
    assert (got.values, got.pruned_mass, got.pruned_count) == (
        want.values, want.pruned_mass, want.pruned_count)
    for base in ("log2", "ln"):
        assert _one_step_entropy(x, m, base) == reference_one_step_entropy(x, m, base)
    assert_same_active_words(_active_words(x, m, depth), reference_active_words(x, m, depth))
    try:
        want = reference_simulate_filter(x, m, steps, seed=seed, threshold=threshold)
    except fm.ModelError as exc:
        with pytest.raises(fm.ModelError, match=re.escape(str(exc))):
            fm.simulate_filter(x, m, steps, seed=seed, threshold=threshold)
        return
    assert_same_trace(fm.simulate_filter(x, m, steps, seed=seed, threshold=threshold), want)


@st.composite
def partitions_and_starts(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = random_transition(rng, n, sparsity=draw(st.sampled_from([0.0, 0.4, 0.8])))
    m = random_partition(rng, P, k, kind=draw(st.sampled_from(["lumping", "observation",
                                                                "explicit"])))
    x = rng.dirichlet(np.ones(n))
    if n > 1 and draw(st.booleans()):  # a start on a face of the simplex
        x[rng.integers(n)] = 0.0
        x /= x.sum()
    return m, x


@settings(max_examples=80, deadline=None)
@given(case=partitions_and_starts(), depth=st.integers(1, 4),
       prune=st.sampled_from([0.0, 1e-12, 1e-3, 0.2]),
       threshold=st.sampled_from([0.0, 1e-3, 0.3]), seed=st.integers(0, 2**16))
def test_kernels_match_the_label_loops(case, depth, prune, threshold, seed):
    m, x = case
    assert_kernels_match(m, x, depth, prune, threshold, seed, steps=12)


@pytest.mark.parametrize("make", [fm.kesten_model, lambda: fm.random_walk_case_a(63),
                                  lambda: fm.random_walk_case_a(64),
                                  lambda: fm.random_walk_case_a(70)])
def test_kernels_match_the_label_loops_on_gallery_models(make):
    # rw64 and rw70 store their members as CSR, which the small random
    # partitions above never reach
    m = make().partition
    rng = np.random.default_rng(m.n)
    for k in range(3):
        x = rng.dirichlet(np.ones(m.n))
        assert_kernels_match(m, x, depth=4, prune=1e-6 if k else 0.0, threshold=0.0,
                             seed=k, steps=40)


def test_fan_out_rows_are_the_members_left_applied():
    for m in (fm.kesten_model().partition, fm.random_walk_case_a(64).partition):
        x = np.random.default_rng(1).dirichlet(np.ones(m.n))
        masses, children = m.fan_out(x)
        assert masses.shape == (m.num_labels,)
        assert children.shape == (m.num_labels, m.n)
        for k, (_, M) in enumerate(m):
            assert np.array_equal(children[k], M.left_apply(x))
            assert masses[k] == float(M.left_apply(x).sum())
