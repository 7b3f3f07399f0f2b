import math
import re
import tracemalloc
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import filtermc as fm
import filtermc.stability as stability
from filtermc import ModelError
from filtermc.core_model import _l1_pairs
from filtermc.filter_dynamics import _merge_atoms
from filtermc.stability import (
    _connector_word,
    _Block,
    _normalized,
    _power_walk,
    _word_search,
)

from helpers import (
    active_word_dicts,
    from_csr_array,
    random_partition,
    random_transition,
    reference_check_isometry_obstruction,
    reference_compose_rank_one_witness,
    reference_connector_word,
    reference_detect_rank_one_limit,
    reference_l1_distances,
    reference_merge_atoms,
    reference_powers,
    reference_rank_one_proximity,
    reference_word_search,
    subrectangular_by_quantifiers,
)


def test_subrectangular_examples():
    assert fm.is_subrectangular(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert not fm.is_subrectangular(np.eye(2))
    assert fm.is_subrectangular(np.full((3, 3), 0.2))
    assert fm.is_subrectangular(np.zeros((2, 2)))  # vacuous


def _csr_near_a_product_set(rng, rows: int, cols: int):
    """A CSR matrix whose entries fill a product set, with a few entries
    added or removed; and its dense array."""
    R = rng.choice(rows, size=int(rng.integers(0, 6)), replace=False)
    C = rng.choice(cols, size=int(rng.integers(0, 6)), replace=False)
    a = np.zeros((rows, cols))
    a[np.ix_(R, C)] = rng.uniform(0.1, 1.0, size=(R.size, C.size))
    for _ in range(int(rng.integers(0, 2))):
        a[rng.integers(rows), rng.integers(cols)] = rng.choice([0.0, 0.5])
    ii, jj = np.nonzero(a)
    mat = sp.csr_array((a[ii, jj], (ii, jj)), shape=(rows, cols))
    return from_csr_array(mat), a


def test_subrectangular_matches_quantifier_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        a = (rng.random((n, k)) < 0.35) * rng.random((n, k))
        assert fm.is_subrectangular(a) == subrectangular_by_quantifiers(a)
    # larger matrices, built from CSR arrays
    verdicts = set()
    for _ in range(120):
        M, a = _csr_near_a_product_set(rng, int(rng.integers(64, 80)), int(rng.integers(64, 80)))
        want = subrectangular_by_quantifiers(a)
        assert fm.is_subrectangular(M) == want
        assert fm.is_subrectangular(a) == want
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("k, depth", [(2, 8), (10, 6), (17, 4), (100, 3)])
def test_default_search_depth_is_the_largest_power_within_budget(k, depth):
    assert stability.default_search_depth(k) == depth
    d = stability.default_search_depth(k, cap=64)
    assert k ** d <= 10**6 < k ** (d + 1)


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


@pytest.mark.parametrize("search", [fm.detect_rank_one_limit, fm.compose_rank_one_witness])
def test_rank_one_searches_reject_a_negative_tol(search):
    m = fm.random_walk_case_a(8).partition
    with pytest.raises(ModelError, match="tol must be nonnegative"):
        search(m, tol=-1.0)


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
    assert np.array_equal(A.toarray(), B.toarray())


def assert_detect_matches_reference(m, **kwargs):
    """Same verdict, bit-equal W and equal diagnostics, or the same error;
    best_word is checked against min_proximity instead, and both sides'
    best_word are returned."""
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
    want_best_word = want.diagnostics.pop("best_word", None)
    assert got.diagnostics == want.diagnostics
    assert list(got.diagnostics) == list(want.diagnostics)
    if best_word is not None:
        # normalised factor by factor: the plain product of a long repeated
        # word can underflow where the normalised powers do not
        H = fm.NonnegMatrix.identity(m.n)
        for w in best_word:
            H = _normalized(H @ m.member(w))
        assert fm.rank_one_proximity(H, got.diagnostics["row_floor"]) == pytest.approx(
            got.diagnostics["min_proximity"], rel=1e-6, abs=1e-9)
    return best_word, want_best_word


def _subnormal_chain():
    """A 3-state chain with entries of three subnormal ulps: the product of
    (b, b, b, b) loses entries to underflow and is not subrectangular, while
    its support, the boolean product of the members' supports, keeps them."""
    u = 5e-324
    P = np.array([[3 * u, 1.0, 3 * u], [0.5, 0.25, 0.25], [0.3, 0.3, 0.4]])
    in_b = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 0]], bool)
    return fm.Partition({"a": fm.NonnegMatrix.from_dense(np.where(in_b, 0.0, P)),
                         "b": fm.NonnegMatrix.from_dense(np.where(in_b, P, 0.0))},
                        fm.TransitionMatrix.from_dense(P))


def assert_word_search_matches_reference(m, test, predicate, max_len, budget):
    """The search spends at most ``budget``, and returns the brute-force
    reference's word whenever it returns a word, returns None with budget
    left, or refutes; a refutation holds one length past where the supports
    closed too.  Returns the search's ``(word, closed)`` and units spent."""
    _RecordedBudget.made.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_Budget", _RecordedBudget)
        word, closed = _word_search(m, test, max_len, budget)
    [work] = _RecordedBudget.made
    assert work.spent <= budget
    if word is not None or closed is not None or work.spent < budget:
        assert word == reference_word_search(m, predicate, max_len)
    if closed is not None:
        assert word is None and 1 <= closed <= max_len
        assert reference_word_search(m, predicate, closed + 1) is None
    return (word, closed), work.spent


@settings(max_examples=80, deadline=None)
@given(m=small_partitions(), max_len=st.integers(1, 5), budget=st.integers(0, 60),
       col_bound=st.integers(1, 3))
# the product of (b, b, b, b) underflows, its support does not
@example(m=_subnormal_chain(), max_len=4, budget=60, col_bound=1)
def test_word_search_matches_reference(m, max_len, budget, col_bound):
    # the search tests 0/1 patterns, the reference exact boolean supports
    for test, predicate in ((fm.is_subrectangular, fm.is_subrectangular),
                            _localizing_pair(col_bound)):
        assert_word_search_matches_reference(m, test, predicate, max_len, budget)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 5), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.2, 0.5, 1.0]), max_len=st.integers(1, 5),
       col_bound=st.integers(1, 3))
def test_support_walk_on_random_chains_matches_brute_force(n, k, seed, density, max_len,
                                                            col_bound):
    # members of any support a random chain can have, zero members included
    rng = np.random.default_rng(seed)
    a = rng.random((k, n, n)) * (rng.random((k, n, n)) < density)
    a[0] += (a.sum(axis=0).sum(axis=1) == 0)[:, None] / n  # no row of the chain is zero
    a /= a.sum(axis=0).sum(axis=1)[None, :, None]
    m = fm.Partition({t: fm.NonnegMatrix.from_dense(a[t]) for t in range(k)},
                     fm.TransitionMatrix.from_dense(a.sum(axis=0)))
    for test, predicate in ((fm.is_subrectangular, fm.is_subrectangular),
                            _localizing_pair(col_bound)):
        (word, _), _ = assert_word_search_matches_reference(m, test, predicate, max_len,
                                                           stability.DEFAULT_BUDGET)
        assert word is None or predicate(fm.matrix_word_product(m, word).toarray() > 0)


def test_subnormal_chain_is_solved_from_patterns_alone(monkeypatch):
    # the float product of (b, b, b, b) underflows and is not subrectangular;
    # no greedy walk runs, yet the search finds the word the exact supports give
    m = _subnormal_chain()
    assert not fm.is_subrectangular(fm.matrix_word_product(m, ("b", "b", "b", "b")))
    monkeypatch.setattr(stability, "_greedy_walk", None)
    monkeypatch.setattr(stability, "_exhaustive_walk", None)
    word, closed = _word_search(m, fm.is_subrectangular, 4, 60)
    assert (word, closed) == (reference_word_search(m, fm.is_subrectangular, 4), None)
    assert word == ("b", "b", "b", "b")


def _birkhoff5():
    """The Birkhoff partition of a dense random doubly stochastic 5 x 5 matrix."""
    a = np.random.default_rng(5).random((5, 5)) + 0.1
    for _ in range(500):  # Sinkhorn scaling, well within the decomposition's 1e-9
        a /= a.sum(axis=1, keepdims=True)
        a /= a.sum(axis=0)
    return fm.birkhoff_partition_model(a).partition


@pytest.mark.parametrize("make, patterns, closed", [(lambda: fm.kesten_model().partition, 32, 7),
                                                     (_birkhoff5, 120, 4)])
def test_support_closure_refutes_condition_a(make, patterns, closed):
    # Kesten's supports and the permutation group S5 of a Birkhoff model
    # close with no subrectangular pattern: no word of any length is one.
    # The walk extends each distinct pattern, and the identity, once
    m = make()
    _RecordedBudget.made.clear()
    with mock.patch.object(stability, "_Budget", _RecordedBudget):
        got = _word_search(m, fm.is_subrectangular, 8, stability.DEFAULT_BUDGET)
    assert got == (None, closed)
    assert _RecordedBudget.made[0].spent == m.num_labels * (1 + patterns)
    assert fm.find_subrectangular_word(m) is None
    # one length short of the closure the walk cannot tell
    assert _word_search(m, fm.is_subrectangular, closed - 1, 10**6) == (None, None)


def test_rw63_subrectangular_word_has_length_61():
    m = fm.random_walk_case_a(63).partition
    word = fm.find_subrectangular_word(m, max_len=64)
    assert len(word) == 61
    assert fm.is_subrectangular(fm.matrix_word_product(m, word))
    # and no shorter word is: a walk to length 60 passes none, and is not closed
    assert _word_search(m, fm.is_subrectangular, 60, 10**6) == (None, None)


def test_pattern_byte_cap_leaves_the_walk_undecided(monkeypatch):
    # Kesten's 32 patterns of 8 x 8 take over 32 * 36 index bytes
    m = fm.kesten_model().partition
    assert _word_search(m, fm.is_subrectangular, 8, 10**6) == (None, 7)
    monkeypatch.setattr(stability, "_PATTERN_BYTES", 32 * 36)
    assert _word_search(m, fm.is_subrectangular, 8, 10**6) == (None, None)
    # a word found at the pattern that crosses the cap is still returned
    monkeypatch.setattr(stability, "_PATTERN_BYTES", 0)
    assert _word_search(m, stability._localizing(4), 8, 10**6) == (("a",), None)
    assert _word_search(m, stability._localizing(3), 8, 10**6) == (None, None)


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


class _RecordedBudget(stability._Budget):
    """A budget that lists itself in ``made``, so a test can read what a walk spent."""

    made: list = []

    def __init__(self, limit):
        super().__init__(limit)
        self.made.append(self)


@settings(max_examples=60, deadline=None)
@given(m=small_partitions(), budget=st.integers(0, 300), max_len=st.integers(1, 6),
       power_iters=st.integers(0, 40), tol=st.sampled_from([1e-12, 1e-2]),
       policy=st.sets(st.sampled_from(["exhaustive", "repeat", "greedy"])))
def test_every_walk_stops_at_its_budget(m, budget, max_len, power_iters, tol, policy):
    kwargs = dict(tol=tol, power_iters=power_iters, policy=tuple(policy), budget=budget)
    assert fm.detect_rank_one_limit(m, **kwargs).diagnostics["examined"] <= budget
    assert_detect_matches_reference(m, **kwargs)
    # the second passes no word, so its search walks all it may; each unit
    # spent is one product formed
    for test, predicate in ((fm.is_subrectangular, fm.is_subrectangular),
                            (lambda P: False, lambda S: False)):
        with pytest.MonkeyPatch.context() as mp:
            products = _count_products(mp)
            got, spent = assert_word_search_matches_reference(m, test, predicate, max_len, budget)
        assert products == [spent]
    assert got[0] is None


@pytest.mark.parametrize("policy, budget", [(("repeat",), 0), (("repeat",), 7),
                                            (("exhaustive", "repeat", "greedy"), 5),
                                            (("greedy",), 1), (("greedy",), 3), (("greedy",), 5)])
@pytest.mark.parametrize("model", ["kesten", "rw63"])
def test_detect_spends_exactly_a_small_budget(model, policy, budget):
    # each of these walks could go on, so it stops at the budget, not past it
    m = fm.kesten_model().partition if model == "kesten" else fm.random_walk_case_a(63).partition
    res = fm.detect_rank_one_limit(m, policy=policy, budget=budget)
    assert (res.kind, res.diagnostics["examined"]) == ("undecided", budget)


@settings(max_examples=40, deadline=None)
@given(m=small_partitions(), max_len=st.integers(1, 3), power_iters=st.integers(0, 40),
       tol=st.sampled_from([1e-6, 1e-2, 0.5]), col_bound=st.one_of(st.none(), st.integers(1, 3)))
def test_compose_rank_one_witness_matches_reference(m, max_len, power_iters, tol, col_bound):
    assert_compose_matches_reference(m, max_len=max_len, tol=tol, col_bound=col_bound,
                                     power_iters=power_iters)


def assert_compose_matches_reference(m, **kwargs):
    """The same witness word and a bit-equal ``W``, None on both sides, or a
    ModelError on both sides."""
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
    for start in range(0, n, 7):
        for goal in (0, 1, n // 2, n - 2, n - 1):
            for max_len in (3, 2 * n):
                assert (_connector_word(m, start, goal, max_len)
                        == reference_connector_word(m, start, goal, max_len))


@pytest.mark.parametrize("n", [256, 1024])
def test_far_connectors_match_reference_within_their_traffic(monkeypatch, n):
    # from one row of a random walk the closure walk stores two patterns at
    # length 1 and one new pattern at each length after, and forms a
    # product per label for each pattern it extends
    m = fm.random_walk_case_a(n).partition
    products = _count_products(monkeypatch)
    for start, goal in ((0, n - 1), (n - 1, 0), (n // 2, 0)):
        want = reference_connector_word(m, start, goal, 2 * n)
        products[0] = 0
        assert _connector_word(m, start, goal, 2 * n) == want
        assert products[0] <= m.num_labels * (len(want) + 1)


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
            assert_word_search_matches_reference(m, fm.is_subrectangular,
                                                 fm.is_subrectangular, max_len, budget)


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


# ---------------------------------------------------------------------------
# the blocked distance kernel and the cycle-detecting power walk against
# the all-pairs proximity, the walk that forms every power and the
# pair-by-pair isometry check they replace
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), cols=st.integers(1, 70),
       density=st.sampled_from([0.05, 0.3, 1.0]), row_floor=st.sampled_from([0.0, 1e-4, 0.3]))
def test_rank_one_proximity_matches_reference_on_arrays(seed, rows, cols, density, row_floor):
    # row counts on both sides of the block size, dense and CSR storage
    rng = np.random.default_rng(seed)
    a = (rng.random((rows, cols)) < density) * rng.random((rows, cols))
    a[rng.random(rows) < 0.2] *= 1e-6  # rows near the floor
    for M in (a, fm.NonnegMatrix.from_dense(a)):
        try:
            want = reference_rank_one_proximity(M, row_floor)
        except ModelError:
            with pytest.raises(ModelError):
                fm.rank_one_proximity(M, row_floor)
            continue
        assert fm.rank_one_proximity(M, row_floor) == want


@settings(max_examples=60, deadline=None)
@given(m=small_partitions(), word=st.data())
def test_rank_one_proximity_matches_reference_on_word_powers(m, word):
    unit = word.draw(st.lists(st.sampled_from(m.labels), min_size=1, max_size=3).map(tuple))
    for _, H, lag in _power_walk(fm.matrix_word_product(m, unit), 30, stability._Budget()):
        if lag:  # every later power repeats one measured here
            break
        for floor in (0.0, 1e-4):
            assert fm.rank_one_proximity(H, floor) == reference_rank_one_proximity(H, floor)


@pytest.mark.parametrize("n", [63, 64])
def test_rank_one_proximity_matches_reference_on_random_walk_powers(n):
    m = fm.random_walk_case_a(n).partition
    for unit in ((1,), (2,), (1, 2)):
        for k, H, lag in _power_walk(fm.matrix_word_product(m, unit), 60, stability._Budget()):
            if not lag and k % 5 == 1:
                assert fm.rank_one_proximity(H, 1e-4) == reference_rank_one_proximity(H, 1e-4)


@pytest.mark.parametrize("n", [63, 64])
def test_detect_rank_one_limit_matches_reference_on_random_walks(n):
    # the check b1 defaults; on rw63 the powers of (1,) reach a fixed point
    # within ten powers, and the reference forms and measures all 500
    m = fm.random_walk_case_a(n).partition
    assert_detect_matches_reference(m, tol=1e-8, max_depth=8)
    assert_detect_matches_reference(m, tol=1e-300, max_depth=2, power_iters=60,
                                    policy=("repeat", "greedy"))


def _count_products(monkeypatch) -> list:
    """A one-element list counting ``NonnegMatrix.__matmul__`` calls from now on."""
    count = [0]
    matmul = fm.NonnegMatrix.__matmul__

    def counted(a, b):
        count[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(fm.NonnegMatrix, "__matmul__", counted)
    return count


def _record_walks(monkeypatch, base=None) -> list:
    """The steps ``_power_walk`` yields from now on, in a list; with ``base``,
    every walk takes its powers instead of those of the base it is given."""
    steps = []
    walk = stability._power_walk

    def walked(given, iters, budget):
        for step in walk(given if base is None else base, iters, budget):
            steps.append(step)
            yield step

    monkeypatch.setattr(stability, "_power_walk", walked)
    return steps


def test_power_walk_stops_multiplying_at_its_fixed_point(monkeypatch):
    m = fm.random_walk_case_a(63).partition
    base = m.member(1)
    products = _count_products(monkeypatch)
    budget = stability._Budget()
    steps = list(_power_walk(base, 500, budget))
    assert [k for k, _, _ in steps] == list(range(1, 501))
    assert budget.spent == 500
    fresh = [H for _, H, lag in steps if not lag]
    assert 1 <= len(fresh) < 10
    # from the first repeat on every power is signalled, and none is formed
    assert all(H is None and lag == 1 for _, H, lag in steps[len(fresh):])
    assert products == [len(fresh)]
    # the fresh powers are pairwise distinct, and the next one is the last
    # stored bit for bit
    assert not any(A._same_layout(B) for i, A in enumerate(fresh) for B in fresh[:i])
    nxt = _normalized(fresh[-1] @ fresh[0])
    assert nxt._same_layout(fresh[-1])


def test_compose_stops_at_a_fixed_point_that_is_not_rank_one(monkeypatch):
    # the composed word's powers settle, bit for bit, on a matrix whose rows
    # differ at rounding level, above a tolerance of 1e-300
    rng = np.random.default_rng(7)
    m = fm.partition_from_lumping(random_transition(rng, 6), [0, 0, 0, 1, 1, 1])
    kwargs = dict(max_len=4, tol=1e-300, col_bound=3, power_iters=10_000)
    assert reference_compose_rank_one_witness(m, **kwargs) is None
    steps = _record_walks(monkeypatch)
    assert fm.compose_rank_one_witness(m, **kwargs) is None
    # the walk is left at its first repeat, a fixed point
    assert 2 <= len(steps) < 100
    assert [lag for _, _, lag in steps] == [0] * (len(steps) - 1) + [1]
    assert [k for k, _, _ in steps] == list(range(1, len(steps) + 1))
    last = steps[-2][1]
    assert 0.0 < reference_rank_one_proximity(last, math.sqrt(1e-300)) < 1e-15
    assert _normalized(last @ steps[0][1])._same_layout(last)


@pytest.mark.parametrize("period", [2, 3, 5])
def test_compose_stops_at_a_cycle_that_is_not_rank_one(monkeypatch, period):
    # the composed product is replaced by a scaled cyclic permutation, whose
    # powers cycle with ``period`` and have proximity 2: the composition
    # leaves the walk at the first repeat
    rng = np.random.default_rng(7)
    m = fm.partition_from_lumping(random_transition(rng, 6), [0, 0, 0, 1, 1, 1])
    cycle = fm.NonnegMatrix.from_dense(0.3 * np.roll(np.eye(period), 1, axis=1))
    steps = _record_walks(monkeypatch, cycle)
    assert fm.compose_rank_one_witness(m, max_len=4, tol=1e-9, col_bound=3,
                                       power_iters=10_000) is None
    *fresh, (k, H, lag) = steps
    assert (H, lag) == (None, period)
    assert all(step[2] == 0 for step in fresh)
    assert k <= 3 * period + 1


def test_kesten_repeat_walk_forms_few_products(monkeypatch):
    # the units of Kesten's filter cycle from their first power: (a,) with
    # period 2 and (b,) with period 4, so a walk that recognised only fixed
    # points would form a product for each of their 1,000 powers
    m = fm.kesten_model().partition
    products = _count_products(monkeypatch)
    res = fm.detect_rank_one_limit(m, policy=("repeat",))
    assert res.kind == "undecided"
    assert res.diagnostics["examined"] == 2000
    assert products[0] <= 20


def _scaled_functions(rng, n: int, maps, row_weights: bool) -> fm.Partition:
    """A partition whose member ``w`` sends state ``i`` to ``maps[w][i]`` with
    a weight: one per member, or one per member and row when ``row_weights``.
    The powers of a member with one weight cycle bit for bit once their
    values settle; those of a member with a weight per row need not."""
    k = len(maps)
    weights = rng.dirichlet(np.ones(k), size=n if row_weights else 1)
    weights = np.broadcast_to(weights, (n, k))
    members = {}
    for w, f in enumerate(maps):
        a = np.zeros((n, n))
        a[np.arange(n), f] = weights[:, w]
        members[w] = a
    base = fm.TransitionMatrix.from_dense(sum(members.values()))
    return fm.Partition({w: fm.NonnegMatrix.from_dense(a) for w, a in members.items()}, base)


def _spread_over_a_cycle(rng, transient: int, period: int) -> fm.Partition:
    """Member 0 sends each of ``transient`` states to several states of a
    cycle of length ``period``, which it walks round; member 1 takes the
    rest of each row's mass.  Member 0's weights are powers of two, so its
    products are exact and its powers cycle bit for bit.  Where a weight
    round the cycle is small, the rows above the floor change with the
    phase, and so do the proximities within one period."""
    n = transient + period
    a = np.zeros((n, n))
    for t in range(transient):
        cols = transient + rng.choice(period, size=rng.integers(1, period + 1), replace=False)
        a[t, cols] = 2.0 ** -rng.integers(3, 14, size=cols.size)  # a row sum below 1
    cycle = np.arange(transient, n)
    a[cycle, np.roll(cycle, -1)] = 2.0 ** -rng.integers(0, 30, size=period)
    rest = np.zeros((n, n))
    rest[np.arange(n), rng.integers(0, n, n)] = 1.0 - a.sum(axis=1)
    base = fm.TransitionMatrix.from_dense(a + rest)
    return fm.Partition({0: fm.NonnegMatrix.from_dense(a), 1: fm.NonnegMatrix.from_dense(rest)},
                        base)


@st.composite
def cycling_partitions(draw):
    """Partitions whose unit words cycle exactly: scaled permutations with
    periods 1 to 8, maps with a tail of two or more states before a cycle,
    rows spread over a cycle, where the proximity changes with the phase,
    Kesten's filter (periods 2 and 4), and Birkhoff models on 5 states,
    whose members are scaled permutations."""
    kind = draw(st.sampled_from(["permutation", "tail", "spread", "kesten", "birkhoff"]))
    if kind == "kesten":
        return fm.kesten_model().partition
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "birkhoff":
        perms = [np.eye(5)[rng.permutation(5)] for _ in range(draw(st.integers(1, 4)))]
        weights = rng.dirichlet(np.ones(len(perms)))
        return fm.birkhoff_partition_model(sum(w * p for w, p in zip(weights, perms))).partition
    if kind == "spread":
        return _spread_over_a_cycle(rng, draw(st.integers(1, 3)), draw(st.integers(2, 6)))
    if kind == "permutation":
        period = draw(st.integers(1, 8))
        n = draw(st.integers(max(period, 2), 9))
        first = np.arange(n)
        moved = rng.permutation(n)[:period]
        first[moved] = np.roll(moved, 1)  # one cycle of length ``period``
    else:  # 0 -> 1 -> ... -> tail - 1 -> tail, then a cycle of length period
        tail, period = draw(st.integers(2, 5)), draw(st.integers(1, 4))
        n = tail + period
        first = np.arange(1, n + 1)
        first[-1] = tail
    others = [rng.permutation(n) if draw(st.booleans()) else rng.integers(0, n, n)
              for _ in range(draw(st.integers(0, 2)))]
    return _scaled_functions(rng, n, [first] + others, draw(st.booleans()))


def test_cycling_partitions_cycle_where_they_should():
    # the power walk meets each cycle: a scaled permutation of period p, a
    # map with a tail of 3 before a cycle of 4, and Kesten's units
    rng = np.random.default_rng(3)
    for period in range(1, 9):
        cyc = np.roll(np.arange(period), 1)
        m = _scaled_functions(rng, period, [cyc, np.arange(period)], row_weights=False)
        lags = [lag for *_, lag in _power_walk(m.member(0), 40, stability._Budget())]
        assert lags[-1] == period
    tail = np.array([1, 2, 3, 4, 5, 6, 3])
    m = _scaled_functions(rng, 7, [tail], row_weights=False)
    lags = [lag for *_, lag in _power_walk(m.member(0), 40, stability._Budget())]
    assert lags[-1] == 4 and lags.index(4) > 3
    kesten = fm.kesten_model().partition
    for label, period in (("a", 2), ("b", 4)):
        lags = [lag for *_, lag in _power_walk(kesten.member(label), 40, stability._Budget())]
        assert lags[-1] == period
    # rows spread over a cycle of 4, whose curve takes four values a period
    m = _spread_over_a_cycle(np.random.default_rng(2), 3, 4)
    kwargs = dict(tol=1e-8, policy=("repeat",), repeat_words=[(0,)], power_iters=40)
    curve = fm.detect_rank_one_limit(m, **kwargs).diagnostics["curves"][repr((0,))]
    assert len(set(curve[-4:])) == 4 and curve[4:] == curve[:-4]
    assert_detect_matches_reference(m, **kwargs)


@settings(max_examples=150, deadline=None)
@given(m=cycling_partitions(), data=st.data(), iters=st.integers(0, 80))
def test_power_walk_signals_exactly_the_powers_that_repeat(m, data, iters):
    # against every power formed: each new power is bit-equal to the one
    # formed in full, each signalled power repeats the power ``lag`` before
    # it, and the first repeat of a cycle of period lam after mu powers is
    # found within 2 max(mu, lam) + lam powers, with lag == lam
    unit = data.draw(st.lists(st.sampled_from(m.labels), min_size=1, max_size=3).map(tuple))
    base = fm.matrix_word_product(m, unit)
    powers = reference_powers(base, iters)
    steps = list(_power_walk(base, iters, stability._Budget()))
    assert [k for k, _, _ in steps] == list(range(1, len(powers) + 1))
    first = next((k for k, _, lag in steps if lag), None)
    for k, H, lag in steps:
        assert (lag > 0) == (first is not None and k >= first)
        if lag:
            assert H is None and lag == steps[first - 1][2]
            assert powers[k - 1]._same_layout(powers[k - 1 - lag])
        else:
            assert H._same_layout(powers[k - 1])
    # the first power that repeats an earlier one, found by comparing all pairs
    repeat = next(((k, j) for k in range(1, len(powers) + 1) for j in range(1, k)
                   if powers[k - 1]._same_layout(powers[j - 1])), None)
    if repeat is None:
        assert first is None
        return
    mu, lam = repeat[1] - 1, repeat[0] - repeat[1]
    if first is not None:
        assert steps[first - 1][2] == lam and first <= 2 * max(mu, lam) + lam
    assert first is not None or len(powers) < 2 * max(mu, lam) + lam


@settings(max_examples=120, deadline=None)
@given(m=cycling_partitions(), max_depth=st.integers(0, 3), power_iters=st.integers(0, 70),
       budget=st.integers(0, 400), tol=st.sampled_from([1e-300, 1e-8, 0.5]),
       policy=st.sampled_from([("repeat",), ("exhaustive", "repeat", "greedy")]),
       pick_units=st.booleans(), data=st.data())
def test_detect_rank_one_limit_matches_reference_on_cycling_powers(m, max_depth, power_iters,
                                                                   budget, tol, policy,
                                                                   pick_units, data):
    # bit-equal curves, equal examined, verdict and W against the walk that
    # forms and measures every power
    repeat_words = None
    if pick_units:
        words = st.lists(st.sampled_from(m.labels), min_size=1, max_size=3).map(tuple)
        repeat_words = data.draw(st.lists(words, min_size=1, max_size=3))
    assert_detect_matches_reference(m, tol=tol, max_depth=max_depth, power_iters=power_iters,
                                    repeat_words=repeat_words, policy=policy, budget=budget)


def _budgets_inside_cycles(m, **kwargs) -> tuple[list, list, list]:
    """Budgets at which the detector's default policies stop inside a cycle:
    after the first repeat of a power walk and before its last power;
    inside the greedy walk's cycle on a step boundary; and partway through
    one of those greedy steps, ``budget - spent`` not a multiple of ``k``.
    Each list is empty where the walks do not get there; a walk that
    converges has not cycled before."""
    curves = dict(fm.detect_rank_one_limit(m, **kwargs).diagnostics["curves"])
    greedy_curve = curves.pop("greedy", [])
    spent = fm.detect_rank_one_limit(m, **kwargs, policy=("exhaustive",)).diagnostics["examined"]
    power, greedy, partway = [], [], []
    units = [(w,) for w in m.labels] + list(permutations(m.labels, 2))
    for unit, curve in zip(units, curves.values()):
        walk = _power_walk(fm.matrix_word_product(m, unit), len(curve), stability._Budget())
        first = next((k for k, _, lag in walk if lag), None)
        if first is not None:
            power += [spent + j for j in range(first, len(curve))]
        spent += len(curve)
    k = m.num_labels
    steps = stability._greedy_walk(m, max(32, 2 * m.n), stability._Budget())
    first = next((i for i, (*_, lag) in enumerate(steps, 1) if lag), None)
    if first is not None:
        greedy += [spent + j * k for j in range(first, len(greedy_curve))]
        partway += [b + r for b in greedy for r in range(1, k)]
    return power, greedy, partway


@settings(max_examples=80, deadline=None)
@given(m=cycling_partitions(), max_depth=st.integers(0, 2), power_iters=st.integers(1, 60),
       tol=st.sampled_from([1e-300, 1e-8]), data=st.data())
def test_detect_matches_reference_when_the_budget_ends_inside_a_cycle(m, max_depth, power_iters,
                                                                      tol, data):
    # the cycling tails are appended and paid for by arithmetic; a budget
    # that cuts a tail, at a greedy step or partway through one, must give
    # the curves, examined, best_word and verdict of the walk that forms
    # every product
    kwargs = dict(tol=tol, max_depth=max_depth, power_iters=power_iters)
    for budgets in _budgets_inside_cycles(m, **kwargs):
        if budgets:
            budget = data.draw(st.sampled_from(budgets))
            got, want = assert_detect_matches_reference(m, **kwargs, budget=budget)
            assert got == want


@pytest.mark.parametrize("model", ["kesten", "birkhoff"])
def test_budgets_inside_cycles_reach_every_kind(model):
    # the boundary test above meets all three kinds of budget on these models
    if model == "kesten":
        m = fm.kesten_model().partition
    else:
        D = 0.5 * np.eye(5) + 0.3 * np.eye(5)[[1, 2, 3, 4, 0]] + 0.2 * np.eye(5)[[1, 0, 2, 4, 3]]
        m = fm.birkhoff_partition_model(D).partition
    kwargs = dict(tol=1e-8, max_depth=2, power_iters=40)
    lists = _budgets_inside_cycles(m, **kwargs)
    assert all(lists)
    for budgets in lists:
        for budget in budgets[:: max(1, len(budgets) // 6)]:
            got, want = assert_detect_matches_reference(m, **kwargs, budget=budget)
            assert got == want


def test_detect_on_kesten_leaves_its_walks_at_their_first_cycle(monkeypatch):
    # Kesten's powers cycle from the first, and its fourth greedy product
    # is its second: the walks stop there, and the curves and units spent
    # are those of the full walks
    m = fm.kesten_model().partition
    proximities = [0]
    measure = stability.rank_one_proximity

    def counted(*args, **kwargs):
        proximities[0] += 1
        return measure(*args, **kwargs)

    monkeypatch.setattr(stability, "rank_one_proximity", counted)
    products = _count_products(monkeypatch)
    res = fm.detect_rank_one_limit(m)
    assert res.kind == "undecided" and res.diagnostics["examined"] == 2574
    assert [len(c) for c in res.diagnostics["curves"].values()] == [500] * 4 + [32]
    assert proximities[0] <= 20 and products[0] <= 32  # 45 and 57 walking every step
    products[0] = 0
    greedy = fm.detect_rank_one_limit(m, policy=("greedy",))
    assert greedy.diagnostics["curves"]["greedy"] == res.diagnostics["curves"]["greedy"]
    assert products[0] <= 8  # one product a step, 32 walking every step


@settings(max_examples=60, deadline=None)
@given(m=cycling_partitions(), max_len=st.integers(1, 3), power_iters=st.integers(0, 40),
       tol=st.sampled_from([1e-300, 1e-6, 0.5]))
def test_compose_rank_one_witness_matches_reference_on_cycling_partitions(m, max_len,
                                                                          power_iters, tol):
    assert_compose_matches_reference(m, max_len=max_len, tol=tol, power_iters=power_iters)


def _assert_report_matches_reference(m, subset, **kwargs):
    got = fm.check_isometry_obstruction(m, subset, **kwargs)
    want = reference_check_isometry_obstruction(m, subset, **kwargs)
    assert got == want
    return got


@settings(max_examples=60, deadline=None)
@given(m=small_partitions(), data=st.data(), n_max=st.integers(1, 3),
       sample_count=st.integers(0, 4), seed=st.integers(0, 1000),
       dedup_eps=st.sampled_from([1e-9, 0.05, 0.5]))
def test_isometry_obstruction_matches_reference(m, data, n_max, sample_count, seed, dedup_eps):
    subset = data.draw(st.lists(st.integers(0, m.n - 1), min_size=2, max_size=m.n, unique=True))
    _assert_report_matches_reference(m, subset, n_max=n_max, sample_count=sample_count,
                                     seed=seed, dedup_eps=dedup_eps)


@pytest.mark.parametrize("make, subset, n_max", [
    (lambda: fm.kesten_model().partition, [0, 1, 2, 3], 4),
    (lambda: fm.random_walk_case_a(63).partition, range(0, 63, 5), 3),
    (lambda: fm.random_walk_case_a(64).partition, range(0, 64, 5), 3),
])
def test_isometry_obstruction_matches_reference_on_gallery_models(make, subset, n_max):
    for seed in range(3):
        _assert_report_matches_reference(make(), subset, n_max=n_max, seed=seed)


def test_isometry_obstruction_matches_reference_on_birkhoff_vertex_starts():
    rng = np.random.default_rng(11)
    D = np.zeros((5, 5))
    for w in rng.dirichlet(np.ones(6)):
        D[np.arange(5), rng.permutation(5)] += w
    m = fm.birkhoff_partition_model(D).partition
    # with no random samples every start is a vertex of the subset
    for sample_count in (0, 2):
        report = _assert_report_matches_reference(m, range(5), n_max=2,
                                                  sample_count=sample_count, seed=4)
        assert report.passed
    # the random starts' orbits hold distinct points within 1e-9 of each
    # other (137 and 156 distinct, 82 kept), so the dedup does more than
    # collapse exact copies
    rng = np.random.default_rng(4)
    starts = list(np.eye(5)) + [rng.dirichlet(np.ones(5)) for _ in range(2)]
    orbits = [np.array([pt for _, pt in orbit.values()])
              for orbit in active_word_dicts(starts, m, 2)]
    kept = [len(reference_merge_atoms(np.ones(len(pts)), pts, 1e-9)[1]) for pts in orbits]
    assert any(len(np.unique(pts, axis=0)) > k for pts, k in zip(orbits, kept))


def test_isometry_obstruction_merges_every_orbit_at_once():
    # one merge of all ten starts' orbits, each start a part
    with mock.patch.object(stability, "_merge_atoms", wraps=_merge_atoms) as merge:
        report = fm.check_isometry_obstruction(fm.kesten_model().partition, [0, 1, 2, 3],
                                               sample_count=6)
    assert merge.call_count == 1
    assert report.passed


def test_isometry_obstruction_memory_follows_distinct_orbit_points():
    # eight permutation labels: every word is active from every vertex, so
    # each orbit has 8 + 64 + 512 + 4096 points at depth 4 but only the five
    # vertices are distinct; a distance matrix over all points would take
    # 175 MB per sample
    rng = np.random.default_rng(1)
    D = np.zeros((5, 5))
    for w in rng.dirichlet(np.ones(6)):
        D[np.arange(5), rng.permutation(5)] += w
    m = fm.birkhoff_partition_model(D).partition
    assert len(m.labels) == 8
    tracemalloc.start()
    try:
        report = fm.check_isometry_obstruction(m, range(5), n_max=4, sample_count=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert report == reference_check_isometry_obstruction(m, range(5), n_max=4, sample_count=0)
    assert report.separation == 2.0


def test_isometry_obstruction_separation_is_least_distance_between_distinct_points():
    # identity lumping: every word ends at the vertex of its last label, so
    # each orbit repeats the vertices, whose distinct pairs lie 2 apart
    rng = np.random.default_rng(12)
    m = fm.partition_from_lumping(random_transition(rng, 4), [0, 1, 2, 3])
    orbit = active_word_dicts([np.full(4, 0.25)], m, 3)[0]
    assert len(orbit) > 4
    report = fm.check_isometry_obstruction(m, [0, 1, 2, 3], n_max=3, seed=0)
    assert report.separation == 2.0
    assert report.isolated_pass


def test_isometry_witness_is_the_first_pair_across_blocks_of_pairs():
    # identity lumping on 64 states: every word ends at the vertex of its
    # last label, so each pair of vertex starts deviates by exactly 2 on
    # every one of its 4,160 common words; with 64 coordinates per word
    # each pair fills a block of its own, and a tie in a later block must
    # not replace the first pair's witness
    rng = np.random.default_rng(13)
    m = fm.partition_from_lumping(random_transition(rng, 64), list(range(64)))
    report = _assert_report_matches_reference(m, [0, 1, 2], n_max=2, sample_count=0)
    assert report.witnesses["isometry"] == {"pair": (0, 1), "word": (0,), "deviation": 2.0}


def test_isometry_obstruction_needs_a_positive_depth():
    # with no active word every hypothesis would pass vacuously
    m = fm.kesten_model().partition
    for n_max in (0, -1):
        with pytest.raises(ModelError, match="n_max must be at least 1"):
            fm.check_isometry_obstruction(m, [0, 1], n_max=n_max)


def test_isometry_obstruction_memory_on_thousands_of_distinct_orbit_points():
    # three labels with positive members: the 3 + 9 + ... + 2187 points of
    # each orbit to depth 7 stay distinct, and a distance matrix over them
    # would take 86 MB per sample
    rng = np.random.default_rng(3)
    m = random_partition(rng, random_transition(rng, 6), 3, kind="explicit")
    tracemalloc.start()
    try:
        report = fm.check_isometry_obstruction(m, [0, 1], n_max=7, sample_count=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # the least distance, one row against the later ones at a time
    separation = math.inf
    for x in np.eye(6)[:2]:
        pts = np.array([direction for _, direction in active_word_dicts([x], m, 7)[0].values()])
        kept = _merge_atoms(np.ones(len(pts)), pts, 1e-9)[1]
        assert len(kept) == 3279
        for i in range(len(kept) - 1):
            separation = min(separation, float(np.abs(kept[i] - kept[i + 1:]).sum(axis=1).min()))
    assert report.separation == separation


# ---------------------------------------------------------------------------
# the spread bound and the blocked pairs against the full distance matrix
# ---------------------------------------------------------------------------

def test_rank_one_proximity_memory_on_a_large_word_product():
    # all 1024 rows of an rw1024 word product are kept: 8 rows against all
    # the others would take 64 MB per block, and the distance matrix 8 MB
    H = fm.matrix_word_product(fm.random_walk_case_a(1024).partition, (1, 2, 1, 2))
    tracemalloc.start()
    try:
        prox = fm.rank_one_proximity(H, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert prox == pytest.approx(2.0)  # some rows have disjoint supports


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), cols=st.integers(1, 70),
       density=st.sampled_from([0.05, 0.3, 1.0]), row_floor=st.sampled_from([0.0, 1e-4, 0.3]),
       copies=st.integers(0, 6), count=st.integers(1, 4))
def test_spread_bounds_are_distances_from_the_first_kept_spread_row(seed, rows, cols, density,
                                                                   row_floor, copies, count):
    # each product's bound is, bit for bit, the largest entry of the full
    # distance matrix of its kept rows between the first kept one of its
    # eight spread rows and the others, so it never exceeds the proximity
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(count):
        a = (rng.random((rows, cols)) < density) * rng.random((rows, cols))
        a[rng.random(rows) < 0.3] *= rng.random(cols) < 0.3  # rows on faces of the simplex
        # duplicate rows, some scaled by two, which normalises to the same bits
        a[rng.integers(0, rows, copies)] = a[rng.integers(0, rows, copies)] * rng.choice([1.0, 2.0])
        mats.append(a)
    # the products side by side, as a block holds them
    bounds = _Block(fm.NonnegMatrix.from_dense(np.hstack(mats)), cols).spread_bounds(row_floor)
    spread = sorted({t * (rows - 1) // 7 for t in range(8)})
    for a, bound in zip(mats, bounds.tolist()):
        sums = a.sum(axis=1)
        kept = np.flatnonzero(sums > row_floor)
        picked = np.searchsorted(kept, [r for r in spread if sums[r] > row_floor])
        if picked.size < 2:
            assert bound == 0.0
            continue
        dist = reference_l1_distances(a[kept] / sums[kept, None])
        assert bound == dist[picked[0], picked[1:]].max()
        assert bound <= fm.rank_one_proximity(a, row_floor)


def _pair_counts(shape: str, rows: int, rng) -> np.ndarray:
    """Counts of the shapes the callers of ``_l1_pairs`` pass."""
    if shape == "triangle":  # every pair, as the proximity pairs its rows
        return np.arange(rows)[::-1]
    if shape == "band":  # a few neighbours or none, as the merge window's keys allow
        return np.minimum(rng.integers(0, 4, rows) * (rng.random(rows) < 0.6),
                          np.arange(rows)[::-1])
    part = np.sort(rng.integers(0, 4, rows))  # the later rows of one part, as the separation
    return np.searchsorted(part, part, side="right") - np.arange(1, rows + 1)


@pytest.mark.parametrize("shape", ["triangle", "band", "parts"])
@pytest.mark.parametrize("rows, cols", [(0, 3), (1, 3), (9, 1), (75, 8), (90, 256), (75, 300),
                                        (12, 70000)])
def test_l1_pairs_give_every_pair_once_bit_for_bit_in_bounded_blocks(shape, rows, cols):
    # at 256 columns and more a block holds a few hundred pairs, and past
    # 2**16 columns one pair, so most cases span several blocks
    rng = np.random.default_rng(rows * cols)
    x = rng.random((rows, cols))
    x[rows // 2:rows // 2 + 1] = x[:1]
    count = _pair_counts(shape, rows, rng)
    step, got, sizes = 2**16 // cols + 1, [], []
    for i, j, d in _l1_pairs(x, count):
        assert i.shape == j.shape == d.shape
        sizes.append(i.size)
        got += zip(i.tolist(), j.tolist(), d.tolist())
    # full blocks of about 2**16 values, but the last
    assert sizes[:-1] == [step] * (len(sizes) - 1) and all(0 < size <= step for size in sizes)
    assert step * cols <= 2**16 + cols
    want = [(i, j) for i in range(rows) for j in range(i + 1, i + 1 + count[i])]
    assert [(i, j) for i, j, _ in got] == want
    assert all(d == np.abs(x[i] - x[j]).sum() for i, j, d in got)


@settings(max_examples=80, deadline=None)
@given(m=small_partitions(), max_depth=st.integers(1, 4), budget=st.integers(1, 120),
       tol=st.sampled_from([1e-300, 1e-8, 0.5, 2.0]),
       policy=st.sampled_from([("exhaustive",), ("exhaustive", "greedy"),
                               ("exhaustive", "repeat", "greedy")]))
def test_detect_rank_one_limit_matches_reference_where_words_are_only_bounded(m, max_depth, budget,
                                                                              tol, policy):
    assert_detect_matches_reference(m, tol=tol, max_depth=max_depth, power_iters=8,
                                    policy=policy, budget=budget)


@pytest.mark.parametrize("n, full", [(63, 53), (64, 52)])
def test_check_b1_computes_few_proximities_in_full(monkeypatch, n, full):
    # the check b1 defaults: all 510 enumerated words have proximity 2, so
    # after the first each one's bound reaches the least proximity so far;
    # the powers of the repeated words are all measured, a fixed point once
    calls = []

    def counted(H, row_floor=0.0):
        calls.append(H)
        return reference_rank_one_proximity(H, row_floor)

    monkeypatch.setattr(stability, "rank_one_proximity", counted)
    res = fm.detect_rank_one_limit(fm.random_walk_case_a(n).partition, tol=1e-8, max_depth=8)
    assert res.kind == "b1_converged"
    assert len(calls) == full


# ---------------------------------------------------------------------------
# the block walk against the word-by-word references
# ---------------------------------------------------------------------------

@st.composite
def block_partitions(draw):
    """Partitions of 2 to 4 labels for the block walk.  On a chain that
    alternates between two halves of its states some products vanish; and
    an extra member of entries 1e-200 makes products vanish by underflow
    where it meets itself."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["plain", "halves", "tiny"]))
    kind = draw(st.sampled_from(["lumping", "observation", "explicit"]))
    if shape == "halves":
        half = np.arange(n) < n // 2
        a = rng.random((n, n)) * (half[:, None] != half[None, :])
        P = fm.TransitionMatrix.from_dense(a / a.sum(axis=1, keepdims=True))
    else:
        P = random_transition(rng, n, sparsity=draw(st.sampled_from([0.0, 0.5])))
    members = dict(random_partition(rng, P, k - (shape == "tiny"), kind=kind))
    if shape == "tiny":  # within PARTITION_ATOL of nothing, so P is still the base
        a = (rng.random((n, n)) < 0.5) * 1e-200
        a[0, 0] = 1e-200
        members["tiny"] = fm.NonnegMatrix.from_dense(a)
    return fm.Partition(members, P)


def assert_detect_is_bit_equal_to_reference(m, **kwargs):
    """The same verdict and word, ``W`` stored in the same layout, and equal
    diagnostics (curves, ``examined``, ``min_proximity``, ``best_word``),
    or the same error."""
    try:
        want = reference_detect_rank_one_limit(m, **kwargs)
    except ModelError as exc:
        with pytest.raises(ModelError, match=re.escape(str(exc))):
            fm.detect_rank_one_limit(m, **kwargs)
        return
    got = fm.detect_rank_one_limit(m, **kwargs)
    assert (got.kind, got.word) == (want.kind, want.word)
    assert (got.W is None) == (want.W is None)
    assert want.W is None or got.W._same_layout(want.W)
    assert got.diagnostics == want.diagnostics
    assert list(got.diagnostics) == list(want.diagnostics)


def _localizing_pair(bound):
    """The localizing test on a pattern, and the reference's predicate on a
    boolean support."""
    return stability._localizing(bound), lambda S: S.any(axis=0).sum() <= bound


@settings(max_examples=60, deadline=None)
@given(m=block_partitions(), budget=st.integers(0, 600), max_depth=st.integers(1, 4),
       power_iters=st.integers(0, 6), tol=st.sampled_from([1e-12, 1e-2, 0.5]),
       policy=st.sampled_from([("exhaustive",), ("exhaustive", "greedy"),
                               ("exhaustive", "repeat", "greedy")]),
       block_bytes=st.sampled_from([None, 64, 3000]), col_bound=st.integers(1, 3))
def test_block_walk_matches_the_word_by_word_references(m, budget, max_depth, power_iters, tol,
                                                         policy, block_bytes, col_bound):
    # a block of 64 bytes takes one word's children at a time, and one of
    # 3000 splits the words of a length at varying places
    with mock.patch.object(fm.core_model, "_BLOCK_BYTES",
                           block_bytes or fm.core_model._BLOCK_BYTES):
        assert_detect_is_bit_equal_to_reference(m, tol=tol, max_depth=max_depth,
                                                power_iters=power_iters, policy=policy,
                                                budget=budget)
        for test, predicate in ((fm.is_subrectangular, fm.is_subrectangular),
                                _localizing_pair(col_bound)):
            assert_word_search_matches_reference(m, test, predicate, max_depth, budget)


@settings(max_examples=30, deadline=None)
@given(m=block_partitions(), max_len=st.integers(1, 3), power_iters=st.integers(0, 20),
       tol=st.sampled_from([1e-6, 1e-2, 0.5]), block_bytes=st.sampled_from([None, 64]))
def test_block_walk_composes_the_reference_witness(m, max_len, power_iters, tol, block_bytes):
    kwargs = dict(max_len=max_len, tol=tol, power_iters=power_iters)
    with mock.patch.object(fm.core_model, "_BLOCK_BYTES",
                           block_bytes or fm.core_model._BLOCK_BYTES):
        try:
            want = reference_compose_rank_one_witness(m, **kwargs)
        except ModelError:
            with pytest.raises(ModelError):
                fm.compose_rank_one_witness(m, **kwargs)
            return
        got = fm.compose_rank_one_witness(m, **kwargs)
    assert (got is None) == (want is None)
    if want is not None:
        assert got[0] == want[0] and got[1]._same_layout(want[1])


@pytest.mark.parametrize("block_bytes", [None, 64])
def test_block_walk_hits_at_depth_one(block_bytes):
    # each member of the uniform lumping has equal rows: rank one, with a
    # product set for support, and one column pair
    m = _uniform_lumped()
    with mock.patch.object(fm.core_model, "_BLOCK_BYTES",
                           block_bytes or fm.core_model._BLOCK_BYTES):
        res = fm.detect_rank_one_limit(m, policy=("exhaustive",))
        assert (res.kind, res.word, res.diagnostics["examined"]) == ("b1_converged", (0,), 1)
        assert_detect_is_bit_equal_to_reference(m, policy=("exhaustive",))
        for test, predicate in ((fm.is_subrectangular, fm.is_subrectangular),
                                _localizing_pair(2)):
            assert _word_search(m, test, 4, 100) == ((0,), None)
            assert reference_word_search(m, predicate, 4) == (0,)


@settings(max_examples=40, deadline=None)
@given(m=block_partitions(), data=st.data())
def test_block_children_are_the_word_products_bit_for_bit(m, data):
    # each child of one product with the members side by side stores what
    # its parent's product with its member stores, layout and dtypes too
    words = data.draw(st.lists(st.lists(st.sampled_from(m.labels), min_size=1, max_size=3),
                               min_size=1, max_size=5))
    parents = [fm.matrix_word_product(m, w) for w in words]
    block = stability._Block(fm.NonnegMatrix.from_dense(np.hstack([P.toarray() for P in parents])),
                             m.n)
    # the dense round trip drops nothing a product stores: products store no zeros
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words))))
    children = block.children(m, keep)
    got = [children.product(i) for i in range(children.count)]
    want = [P @ M for P, k in zip(parents, keep) if k for _, M in m]
    assert len(got) == len(want)
    assert all(a._same_layout(b) for a, b in zip(got, want))


def test_block_walk_forms_few_products_on_rw63(monkeypatch):
    # all 510 words to depth 8 are walked; word by word they took 508
    # products, and the subrectangular search 524 with its greedy word.
    # The blocks take 25, as many as the shares allow: shares one length
    # too small (1 / sqrt(2) of each) would take 37
    m = fm.random_walk_case_a(63).partition
    products = _count_products(monkeypatch)
    res = fm.detect_rank_one_limit(m, policy=("exhaustive",))
    assert (res.kind, res.diagnostics["examined"]) == ("undecided", 510)
    assert products[0] == 25
    products[0] = 0
    assert fm.find_subrectangular_word(m) is None
    assert products[0] <= 64


def test_block_walk_memory_stays_within_a_few_blocks_at_any_depth():
    # rw256 words of length 8 hold about 4,400 entries each, and 2,000
    # words are walked; the blocks held at once stay a few _BLOCK_BYTES
    # however deep the walk goes (a block keeps a run table, not a product
    # index per entry, and the product kernel's arrays: 3.1 at depth 16)
    m = fm.random_walk_case_a(256).partition
    for depth in (4, 8, 16):
        tracemalloc.start()
        try:
            walked = sum(1 for _ in stability._exhaustive_walk(
                m, depth, stability._Budget(2000), lambda block: [None] * block.count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert walked == min(2000, 2 ** (depth + 1) - 2)
        assert peak < 3.2 * fm.core_model._BLOCK_BYTES


@pytest.mark.parametrize("depth", [1000, 3000])
def test_deep_exhaustive_walk_spends_its_budget(depth):
    # the walk is a loop, and each length's share of the block bytes
    # underflows to one word rather than overflowing
    m = fm.kesten_model().partition
    res = fm.detect_rank_one_limit(m, max_depth=depth, budget=5000)
    assert (res.kind, res.diagnostics["examined"]) == ("undecided", 5000)


def _holds_exactly(a: np.ndarray) -> bool:
    """Whether ``a`` owns its memory or views all of its base's."""
    return a.base is None or a.base.nbytes == a.nbytes


def test_every_product_holds_exactly_its_entries():
    # a block keeps its product's index and value arrays as the product
    # kernel made them, which holds no more memory than the entries only
    # because the kernel's arrays are sized by csr_matmat_maxnnz
    m = fm.random_walk_case_a(256).partition
    blocks = []

    def keep(block):
        blocks.append(block.S)
        return [None] * block.count

    for _ in stability._exhaustive_walk(m, 8, stability._Budget(2000), keep):
        pass
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        P = random_transition(rng, n, sparsity=float(rng.uniform(0.0, 0.9)))
        Q = random_transition(rng, n, sparsity=float(rng.uniform(0.0, 0.9)))
        blocks.append(P @ Q)
    assert len(blocks) > 20
    for S in blocks:
        assert _holds_exactly(S.indices) and _holds_exactly(S.data)


def _tiny_member_chain():
    """A 2-state chain with a member ``t = 1e-160 I``, within PARTITION_ATOL
    of nothing: the product of ``(t, t)`` has norm 1e-320, whose reciprocal
    overflows."""
    P = fm.TransitionMatrix.from_dense([[0.9, 0.1], [0.2, 0.8]])
    return fm.Partition({"a": P, "t": fm.NonnegMatrix.from_dense(1e-160 * np.eye(2))}, P)


def test_a_product_whose_norm_has_no_reciprocal_normalises_to_finite_entries():
    # the reciprocal was multiplied in: H held inf, and the next power's norm
    # was inf, so the powers raised "scale factor must be positive"
    # one norm or one per value: the reciprocal overflows exactly at or below 2**-1024
    data = np.array([1e-320, 2.0**-1025, 3e-310])
    for norm in (2.0**-1024, float(np.nextafter(2.0**-1024, 1.0)), 1e-300, 0.5):
        inv = 1.0 / norm  # a float, inf where it overflows
        want = (data / norm if inv == math.inf else data * inv).tobytes()
        assert stability._divided(data, norm).tobytes() == want
        assert stability._divided(data, np.full(3, norm)).tobytes() == want
    m = _tiny_member_chain()
    H = _normalized(fm.matrix_word_product(m, ("t", "t")))
    assert H._same_layout(fm.NonnegMatrix.identity(2))
    res = fm.detect_rank_one_limit(m, policy=("repeat",), repeat_words=[("t", "t")],
                                   power_iters=5)
    assert res.kind == "undecided"
    assert res.diagnostics["curves"] == {repr(("t", "t")): [2.0] * 5}
    # the exhaustive walk bounds and normalises (t, t) by the same rule: its
    # bound divided inf by inf
    res = fm.detect_rank_one_limit(m, policy=("exhaustive",), max_depth=2)
    assert res.kind == "undecided" and res.diagnostics["examined"] == 6
    assert 0.0 < res.diagnostics["min_proximity"] < 2.0
    for policy in (("repeat",), ("exhaustive", "greedy")):
        assert_detect_is_bit_equal_to_reference(m, policy=policy, repeat_words=[("t", "t")],
                                                power_iters=5, max_depth=2)
