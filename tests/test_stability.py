import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filtermc as fm
from filtermc import ModelError
from filtermc.stability import _connector_word, _normalized, _word_search

from helpers import (
    random_partition,
    random_transition,
    reference_compose_rank_one_witness,
    reference_connector_word,
    reference_detect_rank_one_limit,
    reference_word_search,
    subrectangular_by_quantifiers,
)


def test_subrectangular_examples():
    assert fm.is_subrectangular(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert not fm.is_subrectangular(np.eye(2))
    assert fm.is_subrectangular(np.full((3, 3), 0.2))
    assert fm.is_subrectangular(np.zeros((2, 2)))  # vacuous


def test_subrectangular_matches_quantifier_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        a = (rng.random((n, k)) < 0.35) * rng.random((n, k))
        assert fm.is_subrectangular(a) == subrectangular_by_quantifiers(a)


def test_find_subrectangular_word_trivial_positive():
    rng = np.random.default_rng(1)
    P = random_transition(rng, 4)
    m = fm.Partition.trivial(P)
    assert fm.find_subrectangular_word(m) == ("w0",)


def test_find_subrectangular_word_identity_lumping():
    rng = np.random.default_rng(2)
    P = random_transition(rng, 4)
    m = fm.partition_from_lumping(P, [0, 1, 2, 3])
    word = fm.find_subrectangular_word(m)
    assert word is not None and len(word) == 1
    # single-column members are subrectangular by construction
    assert fm.matrix_word_product(m, word).nonzero_column_count() == 1


def test_find_subrectangular_word_kesten_inconclusive():
    k = fm.kesten_model()
    assert fm.find_subrectangular_word(k.partition, max_len=8) is None


def test_find_localizing_word_identity_lumping():
    rng = np.random.default_rng(3)
    P = random_transition(rng, 5)
    m = fm.partition_from_lumping(P, list(range(5)))
    word = fm.find_localizing_word(m, col_bound=1)
    assert word is not None and len(word) == 1


def test_find_localizing_word_trivial_partition_fails():
    rng = np.random.default_rng(4)
    P = random_transition(rng, 4)
    m = fm.Partition.trivial(P)
    assert fm.find_localizing_word(m, max_len=6) is None


def test_random_walk_products_keep_half_the_columns():
    # every word product of the parity-split walk has exactly the columns of
    # the last label's parity nonzero, so no word is localizing below n/2
    model = fm.random_walk_case_a(16)
    m = model.partition
    rng = np.random.default_rng(5)
    for _ in range(20):
        word = [int(rng.integers(1, 3)) for _ in range(int(rng.integers(1, 7)))]
        prod = fm.matrix_word_product(m, word)
        parity = 1 if word[-1] == 1 else 0
        expected = sum(1 for j in range(16) if j % 2 == parity)
        assert prod.nonzero_column_count() == expected
    assert fm.find_localizing_word(m, max_len=6) is None


def test_rank_one_proximity_cases():
    u = np.array([0.3, 1.0, 0.6])
    v = np.array([0.25, 0.25, 0.5])
    W = fm.NonnegMatrix.from_dense(np.outer(u, v))
    assert fm.rank_one_proximity(W) == 0.0
    assert fm.rank_one_proximity(fm.NonnegMatrix.from_dense(np.eye(2))) == 2.0
    with pytest.raises(ModelError):
        fm.rank_one_proximity(fm.NonnegMatrix.from_dense(np.zeros((2, 2))), row_floor=0.5)


def test_rank_one_proximity_decreases_for_primitive_powers():
    rng = np.random.default_rng(6)
    P = random_transition(rng, 5)
    vals = []
    power = fm.NonnegMatrix.from_dense(P.toarray())
    for _ in range(40):
        vals.append(fm.rank_one_proximity(power))
        power = power @ fm.NonnegMatrix.from_dense(P.toarray())
    assert vals[-1] < 1e-6
    # rows of P^{n+1} are convex mixes of rows of P^n, so the spread shrinks
    assert all(vals[k + 1] <= vals[k] + 1e-12 for k in range(len(vals) - 1))


def test_detect_rank_one_random_walk_case_a():
    model = fm.random_walk_case_a(64)
    m = model.partition
    res = fm.detect_rank_one_limit(m, tol=1e-9, power_iters=3000,
                                   repeat_words=[(1, 2)], policy=("repeat",))
    assert res.converged
    W = res.W.toarray()
    assert fm.operator_norm(res.W) == pytest.approx(1.0, abs=1e-12)
    # the common row direction is the dominant left eigenvector of the
    # even-even block of M(1)M(2) (independent block power iteration)
    M = (m.member(1) @ m.member(2)).toarray()
    even = np.arange(0, 64, 2)
    A = M[np.ix_(even, even)]
    q = np.full(even.size, 1.0 / even.size)
    for _ in range(4000):
        q = q @ A
        q /= q.sum()
    v_full = np.zeros(64)
    v_full[even] = q
    heavy = int(np.argmax(W.sum(axis=1)))
    direction = W[heavy] / W[heavy].sum()
    assert np.abs(direction - v_full).sum() <= 1e-6
    # interior row masses follow the even/odd pattern 1 vs (1-a)/a with a=2/3
    row_mass = W.sum(axis=1)
    scale = row_mass[10]
    for i in range(6, 40):
        expected = 1.0 if i % 2 == 0 else 0.5
        assert row_mass[i] / scale == pytest.approx(expected, abs=1e-6)


def test_detect_rank_one_random_walk_case_b():
    model = fm.random_walk_case_b(64, peak_state=1, peak_hold=0.6)
    m = model.partition
    res = fm.detect_rank_one_limit(m, tol=1e-9, power_iters=3000,
                                   repeat_words=[(1,)], policy=("repeat",))
    assert res.converged
    W = res.W.toarray()
    # limit concentrates on the peak column with row scales (c0, b1, a2)/max
    col_mass = W.sum(axis=0)
    assert col_mass[1] == pytest.approx(col_mass.sum(), abs=1e-4)
    row_mass = W.sum(axis=1)
    alpha = 2.0 / 3.0
    assert row_mass[0] == pytest.approx(1.0, abs=1e-6)          # c0 / alpha
    assert row_mass[1] == pytest.approx(0.6 / alpha, abs=1e-6)  # b1 / alpha
    assert row_mass[2] == pytest.approx(0.5 / alpha, abs=1e-6)  # a2 / alpha
    assert row_mass[4:].max() <= 1e-4


def test_detect_rank_one_kesten_undecided():
    k = fm.kesten_model()
    res = fm.detect_rank_one_limit(k.partition, tol=1e-6, max_depth=8, power_iters=80)
    assert res.kind == "undecided"
    assert res.diagnostics["min_proximity"] == pytest.approx(2.0)
    assert res.diagnostics["budget_spent"] > 0


def test_detect_default_policies_succeed_on_case_a():
    model = fm.random_walk_case_a(32)
    res = fm.detect_rank_one_limit(model.partition, tol=1e-8, power_iters=2000)
    assert res.converged


def test_witness_composition_identity_lumped():
    rng = np.random.default_rng(7)
    for trial in range(5):
        P = random_transition(rng, 4)
        m = fm.partition_from_lumping(P, list(range(4)))
        out = fm.compose_rank_one_witness(m, max_len=4, tol=1e-9)
        assert out is not None
        word, W = out
        assert fm.operator_norm(W) == pytest.approx(1.0, abs=1e-12)
        assert fm.rank_one_proximity(W, row_floor=np.sqrt(1e-9)) <= 1e-9
        # repeating the composed word converges to the same limit
        res = fm.detect_rank_one_limit(m, tol=1e-9, repeat_words=[word],
                                       policy=("repeat",), power_iters=2000)
        assert res.converged
        assert np.abs(res.W.toarray() - W.toarray()).max() <= 1e-6


def test_witness_composition_random_walk_with_half_column_bound():
    # the parity-split walk keeps all same-parity columns in every product,
    # so "localizing" only ever holds at bound n/2; with that bound the
    # composed witness exists and its repeated word reproduces the limit
    model = fm.random_walk_case_a(8)
    m = model.partition
    assert fm.find_localizing_word(m, max_len=8) is None  # default bound n/4
    out = fm.compose_rank_one_witness(m, max_len=8, tol=1e-9, col_bound=4)
    assert out is not None
    word, W = out
    assert fm.operator_norm(W) == pytest.approx(1.0, abs=1e-12)
    res = fm.detect_rank_one_limit(m, tol=1e-9, repeat_words=[word],
                                   policy=("repeat",), power_iters=3000)
    assert res.converged
    assert np.abs(res.W.toarray() - W.toarray()).max() <= 1e-6


def test_witness_composition_needs_aperiodicity():
    swap = fm.TransitionMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
    m = fm.Partition.trivial(swap)
    with pytest.raises(ModelError):
        fm.compose_rank_one_witness(m)


def test_witness_composition_fails_on_kesten():
    k = fm.kesten_model()
    assert fm.compose_rank_one_witness(k.partition, max_len=8) is None


def test_isometry_obstruction_kesten_passes():
    k = fm.kesten_model()
    report = fm.check_isometry_obstruction(k.partition, [0, 1, 2, 3], n_max=4, seed=0)
    assert report.passed
    assert report.separation > 0
    assert report.max_isometry_deviation <= 1e-9


def test_isometry_obstruction_identity_lumping_fails():
    rng = np.random.default_rng(8)
    P = random_transition(rng, 3)
    m = fm.partition_from_lumping(P, [0, 1, 2])
    report = fm.check_isometry_obstruction(m, [0, 1, 2], n_max=3, seed=1)
    assert not report.isometry_pass
    assert not report.passed


def test_isometry_obstruction_perm_family():
    model = fm.perm_family_model(fm.kesten_perm_spec())
    report = fm.check_isometry_obstruction(model.partition, model.meta["blocks"][0],
                                           n_max=4, seed=2)
    assert report.passed


def test_isometry_obstruction_birkhoff_partition():
    rng = np.random.default_rng(9)
    # random doubly stochastic matrix as a mix of permutations
    n = 4
    D = np.zeros((n, n))
    weights = rng.dirichlet(np.ones(5))
    for w in weights:
        sigma = rng.permutation(n)
        D[np.arange(n), sigma] += w
    model = fm.birkhoff_partition_model(D)
    report = fm.check_isometry_obstruction(model.partition, list(range(n)), n_max=3, seed=3)
    assert report.passed


def test_isometry_obstruction_validates_subset():
    k = fm.kesten_model()
    with pytest.raises(ModelError):
        fm.check_isometry_obstruction(k.partition, [1])
    with pytest.raises(ModelError):
        fm.check_isometry_obstruction(k.partition, [0, 99])


# ---------------------------------------------------------------------------
# the shared search engine against the earlier hand-written walks
# ---------------------------------------------------------------------------

@st.composite
def small_partitions(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        P = random_transition(rng, n, sparsity=draw(st.sampled_from([0.0, 0.4, 0.7, 0.95])))
    else:  # uniform rows: lumped members tie in norm, which exercises tie-breaking
        P = fm.TransitionMatrix.from_dense(np.full((n, n), 1.0 / n))
    return random_partition(rng, P, k, kind=draw(st.sampled_from(["lumping", "observation",
                                                                   "explicit"])))


def assert_same_matrix(A, B):
    assert A.is_dense == B.is_dense
    assert np.array_equal(A.toarray(), B.toarray())


def assert_detect_matches_reference(m, **kwargs):
    """Same verdict, bit-equal W and equal diagnostics, or the same error;
    best_word is checked against min_proximity instead."""
    try:
        want = reference_detect_rank_one_limit(m, **kwargs)
    except ModelError as exc:
        with pytest.raises(ModelError, match=re.escape(str(exc))):
            fm.detect_rank_one_limit(m, **kwargs)
        return
    got = fm.detect_rank_one_limit(m, **kwargs)
    assert (got.kind, got.word) == (want.kind, want.word)
    if want.W is None:
        assert got.W is None
    else:
        assert_same_matrix(got.W, want.W)
    best_word = got.diagnostics.pop("best_word", None)
    want.diagnostics.pop("best_word", None)
    assert got.diagnostics == want.diagnostics
    assert list(got.diagnostics) == list(want.diagnostics)
    if best_word is not None:
        H = _normalized(fm.matrix_word_product(m, best_word))
        assert fm.rank_one_proximity(H, got.diagnostics["row_floor"]) == pytest.approx(
            got.diagnostics["min_proximity"], rel=1e-6, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(m=small_partitions(), max_len=st.integers(1, 5), budget=st.integers(0, 60),
       col_bound=st.integers(1, 3))
def test_word_search_matches_reference(m, max_len, budget, col_bound):
    def localizing(prod):
        return prod.nonzero_column_count() <= col_bound

    for predicate in (fm.is_subrectangular, localizing):
        assert (_word_search(m, predicate, max_len, budget)
                == reference_word_search(m, predicate, max_len, budget))


@settings(max_examples=80, deadline=None)
@given(m=small_partitions(), max_depth=st.integers(0, 4), power_iters=st.integers(0, 12),
       budget=st.integers(0, 80), tol=st.sampled_from([1e-12, 1e-6, 1e-2, 0.5, 0.9]),
       policy=st.sets(st.sampled_from(["exhaustive", "repeat", "greedy"])),
       pick_units=st.booleans(), data=st.data())
def test_detect_rank_one_limit_matches_reference(m, max_depth, power_iters, budget, tol, policy,
                                                 pick_units, data):
    repeat_words = None
    if pick_units:
        words = st.lists(st.sampled_from(m.labels), min_size=1, max_size=3).map(tuple)
        repeat_words = data.draw(st.lists(words, min_size=1, max_size=3))
    assert_detect_matches_reference(m, tol=tol, max_depth=max_depth, power_iters=power_iters,
                                    repeat_words=repeat_words, policy=tuple(policy),
                                    budget=budget)


@settings(max_examples=40, deadline=None)
@given(m=small_partitions(), max_len=st.integers(1, 3), power_iters=st.integers(0, 40),
       tol=st.sampled_from([1e-6, 1e-2, 0.5]), col_bound=st.one_of(st.none(), st.integers(1, 3)))
def test_compose_rank_one_witness_matches_reference(m, max_len, power_iters, tol, col_bound):
    kwargs = dict(max_len=max_len, tol=tol, col_bound=col_bound, power_iters=power_iters)
    try:
        want = reference_compose_rank_one_witness(m, **kwargs)
    except ModelError:
        with pytest.raises(ModelError):
            fm.compose_rank_one_witness(m, **kwargs)
        return
    got = fm.compose_rank_one_witness(m, **kwargs)
    if want is None:
        assert got is None
    else:
        assert got[0] == want[0]
        assert_same_matrix(got[1], want[1])


@settings(max_examples=80, deadline=None)
@given(m=small_partitions(), max_len=st.integers(0, 6))
def test_connector_word_matches_reference(m, max_len):
    for start in range(m.n):
        for goal in range(m.n):
            assert (_connector_word(m, start, goal, max_len)
                    == reference_connector_word(m, start, goal, max_len))


@pytest.mark.parametrize("n", [64, 70])
def test_connector_word_matches_reference_in_csr(n):
    m = fm.random_walk_case_a(n).partition
    assert not m.member(1).is_dense
    for start in range(0, n, 7):
        for goal in (0, 1, n // 2, n - 2, n - 1):
            for max_len in (3, 2 * n):
                assert (_connector_word(m, start, goal, max_len)
                        == reference_connector_word(m, start, goal, max_len))


def _uniform_lumped():
    return fm.partition_from_lumping(fm.TransitionMatrix.from_dense(np.full((4, 4), 0.25)),
                                     [0, 0, 1, 1])


def _block_cycle_lumped():
    P = [[0.0, 0.0, 0.2, 0.8], [0.0, 0.0, 0.9, 0.1], [0.3, 0.7, 0.0, 0.0], [0.6, 0.4, 0.0, 0.0]]
    return fm.partition_from_lumping(fm.TransitionMatrix.from_dense(P), [0, 0, 1, 1])


def test_vanishing_repeated_word_power_ends_its_curve():
    # every member squares to zero; the first power is the member itself
    m = _block_cycle_lumped()
    res = fm.detect_rank_one_limit(m, policy=("repeat",), repeat_words=[(0,), (1,)])
    assert res.kind == "undecided"
    assert [len(curve) for curve in res.diagnostics["curves"].values()] == [1, 1]
    assert res.diagnostics["examined"] == 2
    # with the default policies the search goes on past them to the pair (0, 1)
    res = fm.detect_rank_one_limit(m)
    assert (res.kind, res.word, res.diagnostics["policy"]) == ("b1_converged", (0, 1), "repeat")


@pytest.mark.parametrize("make", [lambda: fm.kesten_model().partition, _uniform_lumped,
                                  _block_cycle_lumped, lambda: fm.random_walk_case_a(8).partition])
def test_searches_match_reference_on_zero_products_and_ties(make):
    # the block cycle alternates between its blocks, so every word with a
    # repeated label has product zero; the uniform lumping ties every greedy step
    m = make()
    for budget in (1, 2, 5, 17, 40, 300):
        for policy in (("exhaustive",), ("repeat",), ("greedy",),
                       ("exhaustive", "repeat", "greedy")):
            # with one power, the vanishing square of a block-cycle member is never formed
            for repeat_words, iters in ((None, 8), (None, 1), ([(w, w) for w in m.labels], 8)):
                assert_detect_matches_reference(m, tol=1e-6, max_depth=4, power_iters=iters,
                                                repeat_words=repeat_words, policy=policy,
                                                budget=budget)
        for max_len in (1, 3, 6):
            assert (_word_search(m, fm.is_subrectangular, max_len, budget)
                    == reference_word_search(m, fm.is_subrectangular, max_len, budget))


def test_best_word_attains_min_proximity_on_a_repeat_curve():
    m = fm.random_walk_case_a(16).partition
    res = fm.detect_rank_one_limit(m, tol=1e-300, power_iters=20, repeat_words=[(1, 2)],
                                   policy=("repeat",))
    d = res.diagnostics
    assert res.kind == "undecided"
    assert d["min_proximity"] == min(d["curves"][repr((1, 2))])
    assert d["min_proximity"] < 0.1
    assert len(d["best_word"]) > 2
    H = _normalized(fm.matrix_word_product(m, d["best_word"]))
    assert fm.rank_one_proximity(H, d["row_floor"]) == pytest.approx(d["min_proximity"], rel=1e-9)
