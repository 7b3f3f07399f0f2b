import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtermc as fm
import filtermc.filter_dynamics as filter_dynamics
from filtermc.filter_dynamics import _WINDOW_PAIRS, _merge_atoms

from helpers import (
    measures_close,
    random_affine_max,
    random_measure,
    random_partition,
    random_transition,
    reference_merge_atoms,
)


@pytest.fixture
def two_state_lumped():
    P = fm.TransitionMatrix.from_dense([[0.5, 0.5], [0.5, 0.5]])
    return fm.partition_from_lumping(P, ["a", "b"])


def test_step_outcomes_two_state(two_state_lumped):
    outs = fm.step_outcomes([1.0, 0.0], two_state_lumped)
    assert [o.label for o in outs] == ["a", "b"]
    assert outs[0].prob == pytest.approx(0.5)
    assert np.allclose(outs[0].next_state.coords, [1.0, 0.0])
    assert outs[1].prob == pytest.approx(0.5)
    assert np.allclose(outs[1].next_state.coords, [0.0, 1.0])


def test_trivial_partition_deterministic_step():
    rng = np.random.default_rng(0)
    P = random_transition(rng, 4)
    m = fm.Partition.trivial(P)
    x = rng.dirichlet(np.ones(4))
    outs = fm.step_outcomes(x, m)
    assert len(outs) == 1
    assert outs[0].prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(outs[0].next_state.coords, P.left_apply(x))


def test_outcome_masses_sum_to_one_at_zero_threshold():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        P = random_transition(rng, n)
        m = random_partition(rng, P, int(rng.integers(1, 4)))
        x = rng.dirichlet(np.ones(n))
        outs = fm.step_outcomes(x, m, threshold=0.0)
        assert abs(sum(o.prob for o in outs) - 1.0) <= 1e-12


def test_pushforward_of_dirac_matches_step_outcomes(two_state_lumped):
    x = [0.3, 0.7]
    mu = fm.pushforward(fm.dirac(x), two_state_lumped, prune=0.0)
    outs = fm.step_outcomes(x, two_state_lumped)
    assert mu.size == len(outs)
    for o in outs:
        hit = [k for k in range(mu.size)
               if np.abs(mu.points[k] - o.next_state.coords).sum() <= 1e-12]
        assert len(hit) == 1
        assert mu.weights[hit[0]] == pytest.approx(o.prob, abs=1e-12)


def test_pushforward_barycenter_moves_by_P():
    rng = np.random.default_rng(2)
    P = random_transition(rng, 5)
    m = random_partition(rng, P, 3)
    mu = random_measure(rng, 5, 4)
    nu = fm.pushforward(mu, m, prune=0.0)
    expected = P.left_apply(fm.barycenter(mu).coords)
    assert np.abs(fm.barycenter(nu).coords - expected).sum() <= 1e-9


def test_two_step_pushforward_equals_product_partition():
    rng = np.random.default_rng(3)
    P = random_transition(rng, 4)
    m = random_partition(rng, P, 2)
    x = rng.dirichlet(np.ones(4))
    two_step = fm.evolve(x, m, 2, prune=0.0)
    product = fm.pushforward(fm.dirac(x), fm.partition_product(m, m), prune=0.0)
    dist, _ = fm.kantorovich_distance(two_step, product)
    assert dist <= 1e-9


def test_evolve_semigroup_property():
    rng = np.random.default_rng(4)
    P = random_transition(rng, 4)
    m = random_partition(rng, P, 2)
    x = rng.dirichlet(np.ones(4))
    full = fm.evolve(x, m, 3, prune=0.0)
    part = fm.evolve(x, m, 1, prune=0.0)
    m2 = fm.partition_power(m, 2)
    stitched = fm.pushforward(part, m2, prune=0.0)
    dist, _ = fm.kantorovich_distance(full, stitched)
    assert dist <= 1e-9


def test_evolve_identity_lumping_collapses_to_vertices():
    rng = np.random.default_rng(5)
    P = random_transition(rng, 3)
    m = fm.partition_from_lumping(P, [0, 1, 2])
    x = rng.dirichlet(np.ones(3))
    for n in (1, 2, 3):
        mu = fm.evolve(x, m, n, prune=0.0)
        target = x @ np.linalg.matrix_power(P.toarray(), n)
        assert mu.size == 3
        for k in range(mu.size):
            # every atom is a vertex with weight (x P^n)_i
            i = int(np.argmax(mu.points[k]))
            assert mu.points[k][i] == pytest.approx(1.0)
            assert mu.weights[k] == pytest.approx(target[i], abs=1e-12)


def test_transition_operator_constant_and_coordinate():
    rng = np.random.default_rng(6)
    P = random_transition(rng, 4)
    m = random_partition(rng, P, 3)
    x = rng.dirichlet(np.ones(4))
    const = fm.TestFunction.constant(2.5)
    assert fm.transition_operator(const, m, x) == pytest.approx(2.5, abs=1e-12)
    for i in range(4):
        u = fm.TestFunction.coordinate(i, 4)
        assert fm.transition_operator(u, m, x) == pytest.approx(
            P.left_apply(np.asarray(x))[i], abs=1e-12)


def test_transition_operator_composes_over_partition_product():
    rng = np.random.default_rng(7)
    P1 = random_transition(rng, 3)
    P2 = random_transition(rng, 3)
    m1 = random_partition(rng, P1, 2)
    m2 = random_partition(rng, P2, 2)
    u = random_affine_max(rng, 3)
    for _ in range(5):
        x = rng.dirichlet(np.ones(3))
        inner = fm.TestFunction(evaluator=lambda y: fm.transition_operator(u, m2, y))
        lhs = fm.transition_operator(u, fm.partition_product(m1, m2), x)
        rhs = fm.transition_operator(inner, m1, x)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_duality_pairing():
    rng = np.random.default_rng(8)
    P = random_transition(rng, 4)
    m = random_partition(rng, P, 2)
    mu = random_measure(rng, 4, 3)
    u = random_affine_max(rng, 4)
    lhs = mu.integrate(lambda x: fm.transition_operator(u, m, x))
    rhs = fm.pushforward(mu, m, prune=0.0).integrate(u.evaluator)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_barycenter_cases():
    x = fm.ProbVector([0.2, 0.8])
    assert np.allclose(fm.barycenter(fm.dirac(x)).coords, x.coords)
    q = fm.ProbVector([0.3, 0.5, 0.2])
    assert np.allclose(fm.barycenter(fm.vertex_measure(q)).coords, q.coords)
    half = fm.DiscreteMeasure([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(fm.barycenter(half).coords, [0.5, 0.5])


def test_vertex_measure_structure():
    q = fm.ProbVector([0.5, 0.0, 0.5])
    psi = fm.vertex_measure(q)
    assert psi.size == 2
    e1 = fm.vertex_measure(fm.ProbVector.vertex(1, 3))
    assert e1.size == 1
    assert np.allclose(e1.points[0], [0.0, 1.0, 0.0])


def test_barycenter_transport_over_n_steps():
    rng = np.random.default_rng(9)
    P = random_transition(rng, 5)
    m = random_partition(rng, P, 2)
    x = rng.dirichlet(np.ones(5))
    for n in (1, 2, 4):
        mu = fm.evolve(x, m, n, prune=0.0)
        expected = x @ np.linalg.matrix_power(P.toarray(), n)
        assert np.abs(fm.barycenter(mu).coords - expected).sum() <= 1e-9


def test_fiber_preservation_at_stationarity():
    rng = np.random.default_rng(10)
    P = random_transition(rng, 4)
    m = random_partition(rng, P, 2)
    pi = fm.stationary_vector(P)
    mu = fm.vertex_measure(pi)
    for _ in range(4):
        mu = fm.pushforward(mu, m, prune=0.0)
        assert np.abs(fm.barycenter(mu).coords - pi.coords).sum() <= 1e-9


def test_simulate_filter_trivial_partition_is_deterministic():
    rng = np.random.default_rng(11)
    P = random_transition(rng, 3)
    m = fm.Partition.trivial(P)
    x0 = rng.dirichlet(np.ones(3))
    trace = fm.simulate_filter(x0, m, steps=4, seed=123)
    expect = np.asarray(x0)
    for _, state in trace.steps:
        expect = P.left_apply(expect)
        assert np.abs(state.coords - expect).sum() <= 1e-12


def test_simulate_filter_seed_reproducibility(two_state_lumped):
    a = fm.simulate_filter([0.4, 0.6], two_state_lumped, steps=20, seed=7)
    b = fm.simulate_filter([0.4, 0.6], two_state_lumped, steps=20, seed=7)
    assert a.labels() == b.labels()
    for (_, sa), (_, sb) in zip(a.steps, b.steps):
        assert np.array_equal(sa.coords, sb.coords)
    c = fm.simulate_filter([0.4, 0.6], two_state_lumped, steps=20, seed=8)
    assert a.labels() != c.labels()


def test_simulate_filter_raises_only_on_a_step_from_a_dead_state():
    # only label 0 (mass 0.6) clears the threshold from x0, and leads to e_0,
    # whose labels have mass 0.5 each: a dead state, but a final one at steps=1
    P = fm.TransitionMatrix.from_dense([[0.5, 0.5], [0.7, 0.3]])
    m = fm.partition_from_lumping(P, [0, 1])
    assert fm.simulate_filter([0.5, 0.5], m, steps=1, threshold=0.5).labels() == [0]
    with pytest.raises(fm.ModelError, match="no outcome above threshold; filter cannot move"):
        fm.simulate_filter([0.5, 0.5], m, steps=2, threshold=0.5)


def _kesten_start():
    return np.random.default_rng(8).dirichlet(np.ones(8))


def test_simulate_filter_fans_out_each_state_at_most_twice(monkeypatch):
    # 1,000 Kesten steps visit 16 states besides the start; one fan-out a
    # step made 1,000 calls
    m = fm.kesten_model().partition
    calls = []
    fan_out = fm.Partition.fan_out
    monkeypatch.setattr(fm.Partition, "fan_out", lambda self, x: calls.append(x) or fan_out(self, x))
    trace = fm.simulate_filter(_kesten_start(), m, 1000, seed=1)
    states = [trace.x0] + [state for _, state in trace.steps]
    distinct = {s.coords.tobytes() for s in states}
    assert len(distinct) == 17
    assert len(calls) <= 2 * len(distinct)
    assert len({id(s) for s in states}) == len(distinct)


def _simulate_peak(x, m, steps):
    tracemalloc.start()
    try:
        fm.simulate_filter(x, m, steps, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_filter_memory_on_a_finite_orbit():
    # a ProbVector and a step tuple for each of 100,000 steps peaked at
    # 29.7 MiB; the interned states and their step tuples are shared
    peak = _simulate_peak(_kesten_start(), fm.kesten_model().partition, 100_000)
    assert peak < 29.7 / 2 * 2**20


def test_simulate_filter_memory_on_a_path_that_does_not_return():
    # rw63 from a Dirichlet start meets a new state almost every step; one
    # ProbVector a step peaked at 3.48 MiB, and the index adds one entry a
    # state, not a copy of its coordinates
    x = np.random.default_rng(63).dirichlet(np.ones(63))
    peak = _simulate_peak(x, fm.random_walk_case_a(63).partition, 5000)
    assert peak < 1.25 * 3.48 * 2**20


def test_simulate_filter_empirical_frequencies(two_state_lumped):
    # three-step label words from x0=(1,0): empirical frequencies must sit
    # inside 3-sigma binomial bands around the exact evolve weights
    m = two_state_lumped
    x0 = [1.0, 0.0]
    n_runs = 100_000
    counts = {}
    for r in range(n_runs):
        trace = fm.simulate_filter(x0, m, steps=3, seed=r)
        key = tuple(trace.labels())
        counts[key] = counts.get(key, 0) + 1
    # exact word probabilities by direct enumeration
    exact = {}
    def rec(vec, word, mass):
        if len(word) == 3:
            exact[word] = mass
            return
        for w, M in m:
            y = M.left_apply(vec)
            p = float(y.sum())
            if p > 0:
                rec(y / p, word + (w,), mass * p)
    rec(np.asarray(x0, dtype=float), (), 1.0)
    for word, p in exact.items():
        got = counts.get(word, 0)
        sigma = np.sqrt(n_runs * p * (1 - p))
        assert abs(got - n_runs * p) <= 3.0 * sigma + 1e-9


def test_scaling_property_of_normalized_products():
    rng = np.random.default_rng(12)
    for _ in range(20):
        A = rng.random((4, 4)) * (rng.random((4, 4)) < 0.8)
        B = rng.random((4, 4)) * (rng.random((4, 4)) < 0.8)
        x = rng.dirichlet(np.ones(4))
        xA = x @ A
        xAB = xA @ B
        if xA.sum() <= 0 or xAB.sum() <= 0:
            continue
        lhs = xAB / np.abs(xAB).sum()
        y = xA / np.abs(xA).sum()
        yB = y @ B
        rhs = yB / np.abs(yB).sum()
        assert np.abs(lhs - rhs).sum() <= 1e-12


def test_chain_rule_for_member_masses():
    rng = np.random.default_rng(13)
    P1 = random_transition(rng, 4)
    P2 = random_transition(rng, 4)
    m1 = random_partition(rng, P1, 2)
    m2 = random_partition(rng, P2, 3)
    x = rng.dirichlet(np.ones(4))
    for w1, M1 in m1:
        lhs = sum(float(M2.left_apply(M1.left_apply(x)).sum()) for _, M2 in m2)
        assert lhs == pytest.approx(float(M1.left_apply(x).sum()), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=6),
       st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=6))
def test_normalization_ratio_inequality(a_raw, b_raw):
    n = min(len(a_raw), len(b_raw))
    a = np.asarray(a_raw[:n])
    b = np.asarray(b_raw[:n])
    if a.sum() <= 1e-9 or b.sum() <= 1e-9:
        return
    lhs = np.abs(a / a.sum() - b / b.sum()).sum()
    rhs = 2.0 * np.abs(a - b).sum() / b.sum()
    assert lhs <= rhs + 1e-12


def test_lipschitz_bound_of_operator_powers():
    rng = np.random.default_rng(14)
    P = random_transition(rng, 4)
    m = random_partition(rng, P, 2)
    for _ in range(50):
        u = random_affine_max(rng, 4)
        gamma = u.lipschitz
        x = rng.dirichlet(np.ones(4))
        y = rng.dirichlet(np.ones(4))
        for n in (1, 2, 3):
            tx = fm.transition_operator_power(u, m, x, n)
            ty = fm.transition_operator_power(u, m, y, n)
            assert abs(tx - ty) <= 3.0 * gamma * np.abs(x - y).sum() + 1e-9


def test_convexity_preserved_by_operator():
    rng = np.random.default_rng(15)
    P = random_transition(rng, 3)
    m = random_partition(rng, P, 2)
    u = random_affine_max(rng, 3, pieces=4)
    for _ in range(30):
        x = rng.dirichlet(np.ones(3))
        y = rng.dirichlet(np.ones(3))
        lam = float(rng.random())
        mid = lam * x + (1 - lam) * y
        t_mid = fm.transition_operator(u, m, mid)
        t_avg = lam * fm.transition_operator(u, m, x) + (1 - lam) * fm.transition_operator(u, m, y)
        assert t_mid <= t_avg + 1e-9


def test_vertex_bracket_for_convex_functions():
    rng = np.random.default_rng(16)
    q = fm.ProbVector(rng.dirichlet(np.ones(4)))
    u = random_affine_max(rng, 4, pieces=3)
    # a fiber measure with barycenter q, built constructively
    phi = random_measure(rng, 4, 5)
    _, mu = fm.retarget_barycenter(phi, q.coords)
    lower = u(q)
    mid = mu.integrate(u.evaluator)
    upper = fm.vertex_measure(q).integrate(u.evaluator)
    assert lower <= mid + 1e-9
    assert mid <= upper + 1e-9


def test_pushforward_prune_accounting():
    rng = np.random.default_rng(17)
    P = random_transition(rng, 4)
    m = random_partition(rng, P, 3)
    x = rng.dirichlet(np.ones(4))
    mu = fm.evolve(x, m, 3, prune=1e-3)
    assert mu.pruned_mass > 0 or mu.pruned_count == 0
    assert 0.0 <= mu.pruned_mass < 1.0
    # pruned mass is never silently dropped: it is reported on the measure
    exact = fm.evolve(x, m, 3, prune=0.0)
    assert mu.size <= exact.size


def test_merge_keeps_heavier_atom_coordinates():
    pts = [[0.5, 0.5], [0.5 + 1e-12, 0.5 - 1e-12]]
    mu = fm.DiscreteMeasure([0.3, 0.7], pts, merge_eps=1e-10)
    assert mu.size == 1
    assert mu.points[0][0] == pytest.approx(0.5 + 1e-12, abs=0)


def assert_merge_matches_reference(w, pts, eps):
    got, want = _merge_atoms(w, pts, eps), reference_merge_atoms(w, pts, eps)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()  # byte for byte: -0.0 is not 0.0
    assert not got[2].any()  # every representative in the one default part
    return got[:2]


@st.composite
def atom_clouds(draw):
    """Weights, points and a merge floor.  On the grid of eighths every
    distance is a multiple of 1/8, so atoms lie exactly ``eps`` apart and
    tie between representatives; clustered atoms sit within 1e-10 of three
    centres; spread atoms are Dirichlet draws.  Weights are multiples of 1/8,
    so a later atom often weighs exactly as much as its representative."""
    size = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "clustered", "spread"]))
    if kind == "grid":
        pts = rng.integers(0, 5, size=(size, dim)) / 8
        eps = draw(st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5]))
    elif kind == "clustered":
        centres = rng.dirichlet(np.ones(dim), size=3)
        pts = centres[rng.integers(0, 3, size=size)] + rng.normal(scale=1e-10, size=(size, dim))
        eps = draw(st.sampled_from([0.0, 1e-10, 3e-10, 1e-9]))
    else:
        pts = rng.dirichlet(np.ones(dim), size=size)
        eps = draw(st.sampled_from([0.0, 0.05, 0.3, 2.0]))
    return rng.integers(1, 5, size=size) / 8, pts, eps


@settings(max_examples=300, deadline=None)
@given(atom_clouds())
def test_merge_matches_list_reference(cloud):
    assert_merge_matches_reference(*cloud)


@st.composite
def windowed_clouds(draw):
    """Atoms for the windowed merge: near-duplicates of a few centres at
    offsets from 1e-16 up to eps, exact copies of earlier atoms, signed
    zeros, grid points whose distances tie, and clouds that lie within eps
    of each other whole, large enough for either side of the fallback.
    The dimension ranges over numpy's summation regimes: below 8, 8 to 128
    and above 128 terms."""
    dim = draw(st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 200)))
    size = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["near", "grid", "within"]))
    eps = draw(st.sampled_from([1e-10, 1e-9, 1e-3]))
    if kind == "grid":
        pts = rng.integers(0, 3, size=(size, dim)) / 4
        eps = draw(st.sampled_from([0.0, 0.25, 0.5]))
    else:
        centres = rng.dirichlet(np.ones(dim), size=1 if kind == "within" else 4)
        scale = rng.choice([0.0, 1e-16, 1e-13, eps / 4, eps / 2, eps] if kind == "near"
                           else [0.0, 1e-16, eps / (4 * dim)], size=(size, 1))
        pts = centres[rng.integers(0, len(centres), size=size)] + scale * rng.random((size, dim))
    copies = rng.random(size) < 0.2  # exact copies of the atom before
    pts[1:][copies[1:]] = pts[:-1][copies[1:]]
    pts[(pts == 0.0) & (rng.random(pts.shape) < 0.5)] = -0.0
    # mostly light atoms, now and then one heavier than all before it
    w = np.where(rng.random(size) < 0.1, 4.0, rng.integers(1, 5, size=size) / 8)
    return w, pts, eps


@settings(max_examples=300, deadline=None)
@given(windowed_clouds())
def test_windowed_merge_matches_the_scan_byte_for_byte(cloud):
    assert_merge_matches_reference(*cloud)


@st.composite
def parted_clouds(draw):
    """Atoms in one to four parts, each part's atoms consecutive: offsets of
    up to eps around three centres, and copies of atoms drawn from a shared
    pool, so exact duplicates recur within a part and across parts.  At eps
    0.5 every atom lies around one centre, and a hundred or so of them put
    more pairs in the window than its bound allows, so the merge scans."""
    sizes = draw(st.lists(st.integers(1, 60), min_size=1, max_size=4))
    dim = draw(st.integers(1, 6))
    eps = draw(st.sampled_from([1e-9, 0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = sum(sizes)
    centres = rng.dirichlet(np.ones(dim), size=1 if eps == 0.5 else 3)
    scale = rng.choice([0.0, 1e-16, 1e-12, eps / (2 * dim), eps / dim], size=(size, 1))
    pool = centres[rng.integers(0, len(centres), size=size)] + scale * rng.random((size, dim))
    pts = np.where(rng.random((size, 1)) < 0.4, pool[rng.integers(0, size, size=size)], pool)
    # mostly light atoms, now and then one heavier than all before it
    w = np.where(rng.random(size) < 0.1, 4.0, rng.integers(1, 5, size=size) / 8)
    return w, pts, eps, np.repeat(np.arange(len(sizes)), sizes)


@settings(max_examples=300, deadline=None)
@given(parted_clouds())
def test_parted_merge_is_each_parts_merge_in_turn(cloud):
    w, pts, eps, part = cloud
    got = _merge_atoms(w, pts, eps, part)
    want = [reference_merge_atoms(w[part == q], pts[part == q], eps) for q in range(part[-1] + 1)]
    assert got[0].tobytes() == np.concatenate([rep_w for rep_w, _ in want]).tobytes()
    assert got[1].tobytes() == np.concatenate([rep_p for _, rep_p in want]).tobytes()
    assert got[2].tolist() == [q for q, (rep_w, _) in enumerate(want) for _ in rep_w]
    if part[-1] == 0:  # one part: the merge without parts, bit for bit
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, _merge_atoms(w, pts, eps)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(atom_clouds(), windowed_clouds(), parted_clouds()))
def test_window_and_scan_merge_alike_byte_for_byte(cloud):
    # the same cloud down both paths: a bound below 0 forces the scan (at 0
    # a window of no pairs is still taken), a huge one the window wherever
    # ``width`` is finite and points have coordinates
    w, pts, eps, part = (*cloud, None)[:4]
    merged = []
    for bound in (-1, 2**62):
        with mock.patch.object(filter_dynamics, "_WINDOW_PAIRS", bound):
            merged.append(_merge_atoms(w, pts, eps, part))
    for a, b in zip(*merged):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("size", [_WINDOW_PAIRS * 2 + 1, _WINDOW_PAIRS * 2 + 2])
def test_merge_within_eps_on_both_sides_of_the_fallback(size):
    # every pair of these distinct points lies in the window, so 65 atoms
    # keep to the window's bound of 32 pairs per atom and 66 exceed it
    rng = np.random.default_rng(size)
    pts = rng.dirichlet(np.ones(5)) + 1e-13 * rng.random((size, 5))
    pairs = size * (size - 1) // 2
    assert (pairs <= _WINDOW_PAIRS * size) == (size == _WINDOW_PAIRS * 2 + 1)
    w = rng.integers(1, 9, size=size) / 8
    w[size // 2] = 64.0  # moves the one representative
    rep_w, rep_p = assert_merge_matches_reference(w, pts, 1e-9)
    assert rep_w.size == 1 and rep_p[0].tobytes() == pts[size // 2].tobytes()


def test_merge_memory_when_every_atom_lies_within_eps():
    # 4,000 atoms within eps of each other put all 8 million pairs in the
    # window, 128 MB as index pairs; the merge scans the representatives
    rng = np.random.default_rng(4)
    pts = rng.dirichlet(np.ones(8)) + 1e-12 * rng.random((4000, 8))
    w = np.full(4000, 1 / 4000)
    tracemalloc.start()
    try:
        rep_w, rep_p, _ = _merge_atoms(w, pts, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert rep_w.size == 1 and rep_p[0].tobytes() == pts[0].tobytes()


def test_merge_moves_a_representative_towards_its_neighbour():
    # on a line with eps = 1: 0 and 1.5 stay apart; the heavier 0.75 ties
    # between them, joins the first and moves it to 0.75, within eps of 1.5;
    # 1.125 then ties again and joins the first; 2.5 is exactly eps from 1.5
    w = np.array([0.125, 0.125, 0.5, 0.125, 0.125])
    pts = np.array([[0.0], [1.5], [0.75], [1.125], [2.5]])
    rep_w, rep_p = assert_merge_matches_reference(w, pts, 1.0)
    assert rep_w.tolist() == [0.75, 0.25]
    assert rep_p.tolist() == [[0.75], [1.5]]


def test_merge_edge_cases():
    pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]])
    # eps = 0 merges exact duplicates only
    rep_w, rep_p = assert_merge_matches_reference(np.array([0.25, 0.5, 0.25]), pts, 0.0)
    assert rep_w.tolist() == [0.75, 0.25] and rep_p.tolist() == [[0.5, 0.5], [0.25, 0.75]]
    # a single atom comes back as it is
    rep_w, rep_p = assert_merge_matches_reference(np.array([1.0]), pts[:1], 0.5)
    assert rep_w.tolist() == [1.0] and rep_p.tolist() == [[0.5, 0.5]]
    # points without coordinates lie at distance 0 from each other
    rep_w, _ = assert_merge_matches_reference(np.array([0.25, 0.75]), np.zeros((2, 0)), 0.0)
    assert rep_w.tolist() == [1.0]


def _dropped_shares(x0, m, steps: int, prune: float):
    """The measure after ``steps`` pushforwards, and the branches each step
    dropped, in units of that step's measure."""
    mu, dropped = fm.dirac(x0), []
    for _ in range(steps):
        dropped.append([])
        for weight, point in zip(mu.weights, mu.points):
            for _, M in m:
                t = float(weight) * float(M.left_apply(point).sum())
                if 0.0 < t <= prune:
                    dropped[-1].append(t)
        mu = fm.pushforward(mu, m, prune=prune)
        assert abs(float(mu.weights.sum()) - 1.0) <= 1e-12
    return mu, dropped


def test_pushforward_renormalises_after_heavy_pruning():
    # more than 1e-9 of the mass is pruned at some step: the kept atoms are
    # renormalised and the dropped branches are booked in ``pruned_mass``
    m = fm.gallery.random_walk_case_a(63).partition
    x0 = np.random.default_rng(1).dirichlet(np.ones(63))
    mu, dropped = _dropped_shares(x0, m, 6, 0.05)
    assert sum(map(sum, dropped)) > 0.2
    assert mu.pruned_count == sum(map(len, dropped))
    assert mu.pruned_mass == pytest.approx(1.0 - math.prod(1.0 - sum(d) for d in dropped),
                                           rel=1e-12)
    got = fm.evolve(x0, m, 6, prune=0.05)
    assert np.array_equal(got.weights, mu.weights) and np.array_equal(got.points, mu.points)
    rate = fm.entropy_rate_increment(x0, m, 6, prune=0.05, method="integral")
    assert 0.0 <= rate <= 1.0  # two labels


def test_pruned_mass_is_a_share_of_the_start():
    # each step drops a share s_t of its renormalised measure, so the share of
    # the start's mass dropped after n steps is 1 - prod(1 - s_t) <= 1; adding
    # the s_t up gave 2.208 here
    m = fm.gallery.random_walk_case_a(63).partition
    x0 = np.random.default_rng(1).dirichlet(np.ones(63))
    mu, dropped = _dropped_shares(x0, m, 12, 0.05)
    shares = [sum(d) for d in dropped]
    assert sum(shares) > 2.0 and all(0.0 <= s < 1.0 for s in shares)
    want = 1.0 - math.prod(1.0 - s for s in shares)
    assert mu.pruned_mass <= 1.0
    assert mu.pruned_mass == pytest.approx(want, rel=1e-12)
    assert fm.evolve(x0, m, 12, prune=0.05).pruned_mass == mu.pruned_mass
    # with nothing pruned before, the step's branches are summed as they come
    j = next(i for i, d in enumerate(dropped) if d)
    before = fm.evolve(x0, m, j, prune=0.05)
    assert before.pruned_mass == 0.0
    total = 0.0
    for t in dropped[j]:
        total += t
    assert fm.pushforward(before, m, prune=0.05).pruned_mass == total


def test_trace_csv_roundtrip(tmp_path, two_state_lumped):
    trace = fm.simulate_filter([0.4, 0.6], two_state_lumped, steps=5, seed=1)
    p1 = tmp_path / "t1.csv"
    p2 = tmp_path / "t2.csv"
    trace.to_csv(p1)
    fm.simulate_filter([0.4, 0.6], two_state_lumped, steps=5, seed=1).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "step,label,x0,x1"


def test_measure_file_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    mu = random_measure(rng, 3, 4)
    path = tmp_path / "mu.json"
    fm.save_measure(mu, path)
    loaded = fm.load_measure(path)
    # reconstruction renormalises the weight vector, so allow one ulp
    assert measures_close(mu, loaded, tol=1e-15)
    path2 = tmp_path / "mu2.json"
    fm.save_measure(fm.load_measure(path), path2)
    assert fm.load_measure(path2).size == mu.size


def test_kernels_reject_a_state_of_the_wrong_dimension(two_state_lumped):
    x = np.full(3, 1.0 / 3.0)
    calls = [lambda: fm.step_outcomes(x, two_state_lumped),
             lambda: fm.simulate_filter(x, two_state_lumped, 2),
             lambda: fm.pushforward(fm.dirac(x), two_state_lumped),
             lambda: fm.evolve(x, two_state_lumped, 2),
             lambda: fm.entropy_series(x, two_state_lumped, 2)]
    for call in calls:
        with pytest.raises(fm.ModelError,
                           match="state vector dimension does not match the partition"):
            call()


@pytest.mark.parametrize("name, call", [
    ("merge_eps", lambda m, x: fm.evolve(x, m, 2, merge_eps=math.nan)),
    ("prune", lambda m, x: fm.evolve(x, m, 2, prune=math.nan)),
    ("prune", lambda m, x: fm.pushforward(fm.dirac(x), m, prune=math.nan)),
    ("merge_eps", lambda m, x: fm.pushforward(fm.dirac(x), m, merge_eps=math.nan)),
    ("merge_eps", lambda m, x: fm.DiscreteMeasure([0.5, 0.5], [x, x], merge_eps=math.nan)),
])
def test_a_nan_threshold_is_rejected_by_name(name, call):
    # every comparison with NaN is false, so it acted as no threshold: Kesten
    # evolved two steps from the uniform start kept 4 atoms with merge_eps NaN
    # where the default keeps 2
    m = fm.kesten_model().partition
    x = np.full(m.n, 1.0 / m.n)
    with pytest.raises(fm.ModelError, match=f"^{name} must be a number, got nan$"):
        call(m, x)
