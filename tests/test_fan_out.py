"""Differential tests of ``Partition.fan_out`` and the kernels built on it
against the per-label and per-row loops they replaced (kept in
``helpers``): every outcome, atom, pruning figure, entropy value and trace
state is bit-equal.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtermc as fm
from filtermc.core_model import _block_rows
from filtermc.entropy import _one_step_entropy

from helpers import (
    active_word_dicts,
    random_partition,
    random_transition,
    reference_active_words,
    reference_check_entropy_condition,
    reference_entropy_rate_integral,
    reference_entropy_rate_mc,
    reference_entropy_series,
    reference_one_step_entropy,
    reference_partition_from_lumping,
    reference_partition_from_observation,
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


def assert_same_simulation(m, x, steps, seed, threshold):
    """``simulate_filter`` and its reference give the same labels and state
    bits, or the same error."""
    try:
        want = reference_simulate_filter(x, m, steps, seed=seed, threshold=threshold)
    except fm.ModelError as exc:
        with pytest.raises(fm.ModelError, match=re.escape(str(exc))):
            fm.simulate_filter(x, m, steps, seed=seed, threshold=threshold)
        return
    got = fm.simulate_filter(x, m, steps, seed=seed, threshold=threshold)
    assert got.labels() == want.labels()
    for (_, a), (_, b) in zip(got.steps, want.steps):
        assert a.coords.tobytes() == b.coords.tobytes()


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
    # one row, then the start with the atoms it reached and every vertex
    rows = np.vstack([x, got_mu.points, np.eye(m.n)])
    for base in ("log2", "ln"):
        assert _one_step_entropy(x[None], m, base) == [reference_one_step_entropy(x, m, base)]
        assert _one_step_entropy(rows, m, base) == [reference_one_step_entropy(r, m, base)
                                                    for r in rows]
    # the start alone, then stacked with a few atoms it reached and vertices
    assert_same_active_words(active_word_dicts([x], m, depth)[0],
                             reference_active_words(x, m, depth))
    starts = np.vstack([x, got_mu.points[:4], np.eye(m.n)[:4]])
    for got, r in zip(active_word_dicts(starts, m, depth), starts):
        assert_same_active_words(got, reference_active_words(r, m, depth))
    assert_same_simulation(m, x, steps, seed, threshold)


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


@st.composite
def simulate_cases(draw):
    # small and larger chains; a vertex start on a sparse chain gives most
    # labels zero mass at the first step
    n = draw(st.sampled_from([2, 5, 63, 64, 73]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = random_transition(rng, n, sparsity=draw(st.sampled_from([0.0, 0.9, 0.99])))
    m = random_partition(rng, P, draw(st.integers(1, 8)), kind=draw(
        st.sampled_from(["lumping", "lumping", "observation", "explicit"])))
    x = np.eye(n)[rng.integers(n)] if draw(st.booleans()) else rng.dirichlet(np.ones(n))
    return m, x


@settings(max_examples=100, deadline=None)
@given(case=simulate_cases(), steps=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       share=st.sampled_from([0.0, 0.0, 0.5, 0.9, 1.5]))
def test_simulate_filter_matches_the_per_step_draws(case, steps, seed, share):
    # one uniform drawn a step and the CDF taken by np.cumsum and searchsorted;
    # a threshold of a share of the mean label mass cuts labels, and above 1
    # often leaves none
    m, x = case
    assert_same_simulation(m, x, steps, seed, threshold=share / len(m.labels))


@pytest.mark.parametrize("make", [fm.kesten_model, lambda: fm.random_walk_case_a(63),
                                  lambda: fm.random_walk_case_a(64),
                                  lambda: fm.random_walk_case_a(70)])
def test_kernels_match_the_label_loops_on_gallery_models(make):
    # gallery chains of up to 70 states, which the small random partitions
    # above never reach
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


def _birkhoff5():
    # six weighted permutations of five states
    return fm.birkhoff_partition_model(sum(w * np.eye(5)[list(p)] for w, p in [
        (0.3, (0, 1, 2, 3, 4)), (0.2, (1, 2, 3, 4, 0)), (0.15, (2, 0, 4, 1, 3)),
        (0.15, (4, 3, 1, 0, 2)), (0.12, (3, 4, 0, 2, 1)), (0.08, (1, 0, 3, 2, 4))]))


@pytest.mark.parametrize("make", [fm.kesten_model, _birkhoff5,
                                  lambda: fm.random_walk_case_a(63),
                                  lambda: fm.random_walk_case_a(64),
                                  lambda: fm.random_walk_case_a(256)])
@pytest.mark.parametrize("r", [1, 2, 9])
def test_fan_out_of_stacked_rows_is_the_fan_out_of_each_row(make, r):
    m = make().partition
    rng = np.random.default_rng(r)
    X = rng.dirichlet(np.ones(m.n), size=r)
    X[0, rng.integers(m.n)] = 0.0  # a row on a face of the simplex
    masses, children = m.fan_out(X)
    assert masses.shape == (r, m.num_labels)
    assert children.shape == (r, m.num_labels, m.n)
    for i in range(r):
        want_masses, want_children = m.fan_out(X[i])
        assert np.array_equal(masses[i], want_masses)
        assert np.array_equal(children[i], want_children)


@settings(max_examples=60, deadline=None)
@given(case=partitions_and_starts(), depth=st.integers(1, 4), starts=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_batched_walk_matches_the_walk_of_each_start(case, depth, starts, seed):
    # starts inside the simplex, on its faces and at its vertices walk
    # together, and their frontiers differ in size from one length to the next
    m, x = case
    rng = np.random.default_rng(seed)
    xs = np.vstack([x, rng.dirichlet(np.ones(m.n), size=starts),
                    np.eye(m.n)[rng.integers(m.n, size=2)]])
    if m.n > 1:
        xs[1, rng.integers(m.n)] = 0.0
        xs[1] /= xs[1].sum()
    for got, start in zip(active_word_dicts(xs, m, depth), xs):
        assert_same_active_words(got, reference_active_words(start, m, depth))


@pytest.mark.parametrize("make, depth", [(fm.kesten_model, 5), (_birkhoff5, 3),
                                         (lambda: fm.random_walk_case_a(64), 3)])
def test_batched_walk_matches_the_walk_of_each_start_on_gallery_models(make, depth):
    # Birkhoff-5 words reach the same points many times over; rw64 has the most states
    m = make().partition
    xs = np.vstack([np.eye(m.n)[:3], np.random.default_rng(2).dirichlet(np.ones(m.n), size=3)])
    for got, start in zip(active_word_dicts(xs, m, depth), xs):
        assert_same_active_words(got, reference_active_words(start, m, depth))


@pytest.mark.parametrize("prune, count", [(1e-4, 301), (1e-3, 686)])
def test_entropy_series_matches_the_recursion_across_block_splits(prune, count):
    # two labels at n = 1024 make blocks of 16 rows, and the levels are
    # wider, so blocks split; the pruned branches of different blocks and
    # depths must be summed in depth-first order (a level-order sum of the
    # same branches differs in the last bit)
    m = fm.random_walk_case_a(1024).partition
    assert _block_rows(m) == 16
    x = np.random.default_rng(5).dirichlet(np.ones(m.n))
    got = fm.entropy_series(x, m, 11, prune=prune)
    want = reference_entropy_series(x, m, 11, prune=prune)
    assert got.pruned_count == count
    assert (got.values, got.pruned_mass, got.pruned_count) == (
        want.values, want.pruned_mass, want.pruned_count)


def test_entropy_series_memory_follows_the_block_size():
    # 4,095 words of up to 12 labels; a whole level of children would take
    # 2**12 * 2 * 1024 doubles (64 MB)
    m = fm.random_walk_case_a(1024).partition
    x = np.full(m.n, 1.0 / m.n)
    tracemalloc.start()
    try:
        fm.entropy_series(x, m, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_bracket_fans_out_every_start_together(monkeypatch):
    # pi and the 63 vertices share one start block, and their children
    # share blocks; one walk per start made 243 calls over the same rows
    m = fm.random_walk_case_a(63).partition
    calls = [0, 0]
    fan_out = fm.Partition.fan_out

    def counted(self, x):
        calls[0] += 1
        calls[1] += x.shape[0]
        return fan_out(self, x)

    monkeypatch.setattr(fm.Partition, "fan_out", counted)
    fm.entropy_bracket(m, 8)
    assert calls[0] <= 60
    assert calls[1] == 13_797


def test_bracket_memory_follows_the_block_size():
    # the uniform pi gives 1,025 starts (pi and every vertex) in blocks of
    # 16; the children of all starts in one block would take 1,025 * 2 *
    # 1024 doubles (16.8 MB)
    m = fm.random_walk_case_a(1024).partition
    pi = fm.ProbVector(np.full(m.n, 1.0 / m.n))
    tracemalloc.start()
    try:
        fm.entropy_bracket(m, 2, pi=pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("make", [fm.kesten_model, lambda: fm.random_walk_case_a(64),
                                  lambda: fm.random_walk_case_a(1024)])
def test_one_step_entropy_callers_match_the_row_loops(make):
    # at n = 1024 the vertices, the sampled path and the 5-step atoms each
    # fill several blocks
    m = make().partition
    assert fm.check_entropy_condition(m, sample_count=40, seed=2) == (
        reference_check_entropy_condition(m, sample_count=40, seed=2))
    assert fm.entropy_rate_mc(m, burn_in=10, samples=60, seed=3, batches=6) == (
        reference_entropy_rate_mc(m, burn_in=10, samples=60, seed=3, batches=6))
    x = np.random.default_rng(4).dirichlet(np.ones(m.n))
    assert fm.entropy_rate_increment(x, m, 5, method="integral") == (
        reference_entropy_rate_integral(x, m, 5))


def _storage(m):
    out = [m.labels]
    for _, M in m:
        out.append([(b.dtype, b.shape, b.tobytes()) for b in (M.indptr, M.indices, M.data)])
    return out


@pytest.mark.parametrize("make", [fm.kesten_model, lambda: fm.random_walk_case_a(63),
                                  lambda: fm.random_walk_case_a(64),
                                  lambda: fm.random_walk_case_a(4096)])
def test_partition_constructors_store_what_the_triplet_scans_stored(make):
    model = make()
    P, lumping = model.partition.base, model.meta["partition_spec"]["lumping"]
    assert _storage(fm.partition_from_lumping(P, lumping)) == _storage(
        reference_partition_from_lumping(P, lumping))
    rng = np.random.default_rng(P.n)
    R = rng.dirichlet(np.ones(3), size=P.n)
    R[rng.random(P.n) < 0.3, 1] = 0.0  # some states never show label 1
    R /= R.sum(axis=1, keepdims=True)
    assert _storage(fm.partition_from_observation(P, R)) == _storage(
        reference_partition_from_observation(P, R))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 70), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       sparsity=st.sampled_from([0.0, 0.5, 0.9]))
def test_partition_constructors_match_the_triplet_scans(n, k, seed, sparsity):
    # n up to 70 reaches CSR members; labels of mixed types
    rng = np.random.default_rng(seed)
    P = random_transition(rng, n, sparsity=sparsity)
    lumping = [("s", 0), 3, "b", -1][:k]
    g = [lumping[i] for i in rng.integers(k, size=n)]
    assert _storage(fm.partition_from_lumping(P, g)) == _storage(
        reference_partition_from_lumping(P, g))
    R = rng.random((n, k)) * (rng.random((n, k)) < 0.7)
    R[np.arange(n), rng.integers(k, size=n)] += 0.1
    R /= R.sum(axis=1, keepdims=True)
    assert _storage(fm.partition_from_observation(P, R)) == _storage(
        reference_partition_from_observation(P, R))
