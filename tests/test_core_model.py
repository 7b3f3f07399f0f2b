import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import filtermc as fm
from filtermc import ModelError
from filtermc.stability import _Block
from helpers import (
    from_csr_array,
    operator_norm_by_sign_vectors,
    random_partition,
    random_transition,
)


def test_prob_vector_renormalizes_within_tolerance():
    x = fm.ProbVector([0.5, 0.5 + 5e-10])
    assert x.coords.sum() == pytest.approx(1.0, abs=1e-15)


def test_prob_vector_rejects_large_deviation():
    with pytest.raises(ModelError):
        fm.ProbVector([0.5, 0.6])
    with pytest.raises(ModelError):
        fm.ProbVector([-0.1, 1.1])


def test_prob_vector_rejects_nan():
    with pytest.raises(ModelError, match="mass nan"):
        fm.ProbVector([np.nan, 0.5, 0.5])


def test_nonneg_matrix_rejects_duplicates_and_nonpositive():
    with pytest.raises(ModelError):
        fm.NonnegMatrix(2, 2, [(0, 0, 1.0), (0, 0, 0.5)])
    with pytest.raises(ModelError):
        fm.NonnegMatrix(2, 2, [(0, 0, 0.0)])


@pytest.mark.parametrize("entries", [[(0.9, 1.7, 1.0)], [(0, float("inf"), 1.0)], [(0, 1)],
                                     [(0, 0, 1.0, 2.0)], 5, [(0, 0, "x")]])
def test_nonneg_matrix_rejects_entries_that_are_not_integral_triplets(entries):
    # (0.9, 1.7, 1.0) was stored at (0, 1)
    with pytest.raises(ModelError, match="must be .i, j, v. triplets with integral i and j"):
        fm.NonnegMatrix(2, 2, entries)


@pytest.mark.parametrize("rows, cols, entries", [(2, 2.5, [(0, 2, 1.0)]), (2.5, 2, [(2, 0, 1.0)]),
                                                  (0, 2, []), (2, float("nan"), [])])
def test_nonneg_matrix_rejects_dims_that_are_not_positive_integers(rows, cols, entries):
    # the entries were checked against 2.5 and stored in a 2 x 2 matrix:
    # column 2 was written past the end of its row, and row 2 raised a
    # numpy ValueError
    with pytest.raises(ModelError, match="dims must be positive integers"):
        fm.NonnegMatrix(rows, cols, entries)


def test_transition_matrix_row_sum_check():
    with pytest.raises(ModelError):
        fm.TransitionMatrix.from_dense([[0.6, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("n", [2, 64])
def test_a_bad_row_sum_is_printed_as_a_plain_float(n):
    # the numpy scalar's repr read "np.float64(1.1)"
    P = np.eye(n)
    P[1, 0] = 0.1
    with pytest.raises(ModelError) as exc:
        fm.TransitionMatrix.from_dense(P)
    assert str(exc.value) == "TransitionMatrix row 1 sums to 1.1, not 1 within 1e-09"


def test_transition_matrix_is_a_checked_nonneg_matrix():
    bad = np.eye(3)
    bad[2, 0] = 0.5
    for build in (fm.TransitionMatrix.from_dense, lambda a: fm.TransitionMatrix(
            fm.NonnegMatrix.from_dense(a))):
        with pytest.raises(ModelError) as exc:
            build(bad)
        assert str(exc.value) == "TransitionMatrix row 2 sums to 1.5, not 1 within 1e-09"
    with pytest.raises(ModelError, match="must be square"):
        fm.TransitionMatrix(fm.NonnegMatrix.from_dense([[0.5, 0.5]]))
    # a valid matrix is checked on its source's own arrays
    source = fm.NonnegMatrix.from_dense([[0.25, 0.75], [1.0, 0.0]])
    P = fm.TransitionMatrix(source)
    assert isinstance(P, fm.NonnegMatrix) and (P.n, P.rows, P.cols) == (2, 2, 2)
    assert all(getattr(P, k) is getattr(source, k) for k in ("indptr", "indices", "data"))
    assert repr(P) == "TransitionMatrix(n=2, nnz=3)"
    # products and inherited builders give plain matrices, never unchecked ones
    for M in (P @ P, P.add(P), P.scaled(0.5), fm.TransitionMatrix.identity(2),
              fm.TransitionMatrix._from_entries((2, 2), np.array([0]), np.array([1]), np.ones(1))):
        assert type(M) is fm.NonnegMatrix
    # the base of a product partition is checked as before: rows off 1 by
    # 0.9e-9 pass, but their product's rows are off by 1.8e-9
    loose = fm.TransitionMatrix(fm.NonnegMatrix.from_dense(np.full((2, 2), 0.5)).scaled(1 + 9e-10))
    m = fm.Partition.trivial(loose)
    with pytest.raises(ModelError, match="TransitionMatrix row 0 sums to"):
        fm.partition_product(m, m)
    with pytest.raises(ModelError, match="TransitionMatrix row 0 sums to"):
        fm.partition_power(m, 2)
    assert type(fm.partition_power(fm.Partition.trivial(P), 3).base) is fm.TransitionMatrix


def test_observation_partition_takes_no_dense_copy_of_r():
    # the identity as R gives one member per state; a dense copy of R alone
    # takes 2048**2 doubles (33.6 MB)
    P = fm.random_walk_case_a(2048).partition.base
    R = fm.NonnegMatrix.identity(P.n)
    tracemalloc.start()
    try:
        m = fm.partition_from_observation(P, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * P.n**2
    assert m.num_labels == P.n and m.member(5).triplets() == [(i, 5, v) for i, j, v in P.triplets()
                                                               if j == 5]


def test_lumping_splits_columns():
    P = fm.TransitionMatrix.from_dense([[0.5, 0.5], [0.5, 0.5]])
    m = fm.partition_from_lumping(P, ["a", "b"])
    assert np.allclose(m.member("a").toarray(), [[0.5, 0.0], [0.5, 0.0]])
    assert np.allclose(m.member("b").toarray(), [[0.0, 0.5], [0.0, 0.5]])


def test_constant_lumping_gives_single_member():
    rng = np.random.default_rng(0)
    P = random_transition(rng, 3)
    m = fm.partition_from_lumping(P, ["only"] * 3)
    assert m.labels == ("only",)
    assert np.allclose(m.member("only").toarray(), P.toarray())


def test_identity_lumping_members_are_single_columns():
    rng = np.random.default_rng(1)
    P = random_transition(rng, 3)
    m = fm.partition_from_lumping(P, [0, 1, 2])
    total = np.zeros((3, 3))
    for a in range(3):
        member = m.member(a).toarray()
        assert (member[:, [j for j in range(3) if j != a]] == 0).all()
        total += member
    assert np.abs(total - P.toarray()).max() <= 1e-9


def test_observation_with_zero_one_matrix_matches_lumping():
    rng = np.random.default_rng(2)
    P = random_transition(rng, 4)
    g = [0, 1, 0, 1]
    R = np.zeros((4, 2))
    for j, a in enumerate(g):
        R[j, a] = 1.0
    m_obs = fm.partition_from_observation(P, R)
    m_lump = fm.partition_from_lumping(P, g)
    for a in (0, 1):
        assert np.array_equal(m_obs.member(a).toarray(), m_lump.member(a).toarray())


def test_observation_uniform_rows_scales_P():
    rng = np.random.default_rng(3)
    P = random_transition(rng, 3)
    R = np.full((3, 3), 1.0 / 3.0)
    m = fm.partition_from_observation(P, R)
    for a in range(3):
        assert np.allclose(m.member(a).toarray(), P.toarray() / 3.0)


def test_observation_entrywise_product():
    P = fm.TransitionMatrix.from_dense([[0.3, 0.7], [0.6, 0.4]])
    R = np.array([[0.7, 0.3], [0.4, 0.6]])
    m = fm.partition_from_observation(P, R)
    expected_a = np.array([[0.3 * 0.7, 0.7 * 0.4], [0.6 * 0.7, 0.4 * 0.4]])
    assert np.allclose(m.member(0).toarray(), expected_a)
    expected_b = np.array([[0.3 * 0.3, 0.7 * 0.6], [0.6 * 0.3, 0.4 * 0.6]])
    assert np.allclose(m.member(1).toarray(), expected_b)


def test_partition_product_with_trivial_partition():
    rng = np.random.default_rng(4)
    P1 = random_transition(rng, 3)
    P2 = random_transition(rng, 3)
    m1 = random_partition(rng, P1, 2, kind="lumping")
    m2 = fm.Partition.trivial(P2)
    prod = fm.partition_product(m1, m2)
    for w, M in m1:
        got = prod.member((w, "w0")).toarray()
        assert np.allclose(got, M.toarray() @ P2.toarray())


def test_partition_power_partitions_matrix_power():
    rng = np.random.default_rng(5)
    P = random_transition(rng, 3)
    m = random_partition(rng, P, 2, kind="observation")
    m3 = fm.partition_power(m, 3)
    total = np.zeros((3, 3))
    for _, M in m3:
        total += M.toarray()
    P3 = np.linalg.matrix_power(P.toarray(), 3)
    assert np.abs(total - P3).max() <= 1e-9


def test_partition_product_associative():
    rng = np.random.default_rng(6)
    parts = []
    for _ in range(3):
        P = random_transition(rng, 3)
        parts.append(random_partition(rng, P, 2, kind="explicit"))
    left = fm.partition_product(fm.partition_product(parts[0], parts[1]), parts[2])
    right = fm.partition_product(parts[0], fm.partition_product(parts[1], parts[2]))
    for w1, _ in parts[0]:
        for w2, _ in parts[1]:
            for w3, _ in parts[2]:
                a = left.member(((w1, w2), w3)).toarray()
                b = right.member((w1, (w2, w3))).toarray()
                assert np.abs(a - b).max() <= 1e-12


def test_matrix_word_product_cases():
    k = fm.kesten_model()
    m = k.partition
    ident = fm.matrix_word_product(m, [])
    assert np.array_equal(ident.toarray(), np.eye(8))
    single = fm.matrix_word_product(m, ["a"])
    assert np.array_equal(single.toarray(), m.member("a").toarray())
    prod = fm.matrix_word_product(m, ["a", "a"])
    dense = m.member("a").toarray() @ m.member("a").toarray()
    assert np.abs(prod.toarray() - dense).max() <= 1e-15


def test_error_paths():
    P = fm.TransitionMatrix.from_dense([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ModelError):
        fm.Partition({}, P)  # empty label set
    m = fm.partition_from_lumping(P, ["a", "b"])
    with pytest.raises(ModelError):
        fm.matrix_word_product(m, ["a", "nope"])  # unknown label
    P3 = fm.TransitionMatrix.from_dense(np.full((3, 3), 1.0 / 3.0))
    m3 = fm.Partition.trivial(P3)
    with pytest.raises(ModelError):
        fm.partition_product(m, m3)  # dimension mismatch
    with pytest.raises(ModelError):
        fm.partition_from_observation(P, np.full((3, 2), 0.5))  # wrong row count


def test_stationary_symmetric_two_state():
    P = fm.TransitionMatrix.from_dense([[0.5, 0.5], [0.5, 0.5]])
    pi = fm.stationary_vector(P)
    assert np.allclose(pi.coords, [0.5, 0.5])


def test_stationary_two_state_balance():
    P = fm.TransitionMatrix.from_dense([[0.9, 0.1], [0.2, 0.8]])
    pi = fm.stationary_vector(P)
    assert np.allclose(pi.coords, [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)


def test_stationary_kesten_uniform():
    k = fm.kesten_model()
    P = k.partition.base
    # doubly stochastic, so uniform must be stationary
    assert np.allclose(P.toarray().sum(axis=0), 1.0)
    pi = fm.stationary_vector(P)
    assert np.allclose(pi.coords, np.full(8, 0.125), atol=1e-10)
    assert np.abs(P.left_apply(pi.coords) - pi.coords).sum() <= 1e-10


def test_stationary_requires_aperiodicity():
    P = fm.TransitionMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ModelError):
        fm.stationary_vector(P)


def test_operator_norm_examples():
    assert fm.operator_norm(fm.NonnegMatrix.identity(3)) == 1.0
    # rank one u^c v with sup(u) = 1 and v on the simplex has norm 1
    u = np.array([0.4, 1.0, 0.7])
    v = np.array([0.2, 0.5, 0.3])
    W = fm.NonnegMatrix.from_dense(np.outer(u, v))
    assert fm.operator_norm(W) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_vs_sign_vector_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = fm.NonnegMatrix.from_dense(rng.random((3, 3)))
        assert fm.operator_norm(M) == pytest.approx(operator_norm_by_sign_vectors(M), abs=1e-12)


def test_operator_norm_submultiplicative():
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = fm.NonnegMatrix.from_dense(rng.random((4, 4)))
        B = fm.NonnegMatrix.from_dense(rng.random((4, 4)))
        assert fm.operator_norm(A @ B) <= fm.operator_norm(A) * fm.operator_norm(B) + 1e-12


def test_irreducible_aperiodic_verdicts():
    ident = fm.TransitionMatrix.from_dense(np.eye(2))
    v = fm.check_irreducible_aperiodic(ident)
    assert v == {"irreducible": False, "aperiodic": True}
    swap = fm.TransitionMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
    v = fm.check_irreducible_aperiodic(swap)
    assert v == {"irreducible": True, "aperiodic": False}
    k = fm.kesten_model()
    v = fm.check_irreducible_aperiodic(k.partition.base)
    assert v == {"irreducible": True, "aperiodic": True}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10_000))
def test_partition_sum_law_property(n, k, seed):
    rng = np.random.default_rng(seed)
    P = random_transition(rng, n)
    m = random_partition(rng, P, k)
    total = np.zeros((n, n))
    for _, M in m:
        arr = M.toarray()
        assert (arr >= 0).all()
        total += arr
    assert np.abs(total - P.toarray()).max() <= 1e-9


def test_stationary_positive_when_irreducible():
    rng = np.random.default_rng(9)
    for _ in range(10):
        P = random_transition(rng, 5, sparsity=0.4)
        verdict = fm.check_irreducible_aperiodic(P)
        if not (verdict["irreducible"] and verdict["aperiodic"]):
            continue
        pi = fm.stationary_vector(P, tol=1e-13)
        assert np.abs(P.left_apply(pi.coords) - pi.coords).sum() <= 1e-12
        assert (pi.coords > 0).all()


def test_model_file_roundtrip(tmp_path):
    for model in (fm.kesten_model(), fm.random_walk_case_a(16)):
        path = tmp_path / "m.json"
        fm.save_model(model, path)
        loaded = fm.load_model(path)
        assert loaded.n == model.n
        assert loaded.partition.labels == model.partition.labels
        for w, M in model.partition:
            assert np.array_equal(loaded.partition.member(w).toarray(), M.toarray())
        # saving again reproduces the identical document
        path2 = tmp_path / "m2.json"
        fm.save_model(loaded, path2)
        assert path.read_text() == path2.read_text()


def test_model_file_explicit_roundtrip(tmp_path):
    model = fm.birkhoff_partition_model([[0.7, 0.3], [0.3, 0.7]])
    path = tmp_path / "b.json"
    fm.save_model(model, path)
    loaded = fm.load_model(path)
    for w, M in loaded.partition:
        assert np.array_equal(M.toarray(), model.partition.member(w).toarray())
    doc = json.loads(path.read_text())
    assert set(doc) == {"states", "P", "partition", "meta"}


def test_model_file_keeps_label_types():
    # integer labels used to come back as strings, which sort differently
    P = fm.TransitionMatrix.from_dense(np.full((12, 12), 1.0 / 12.0))
    lumped = fm.partition_from_lumping(P, list(range(1, 13)))
    model = fm.FilterModel(fm.Partition(dict(lumped.members), P))
    x0 = np.full(12, 1.0 / 12.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        fm.save_model(model, path)
        loaded = fm.load_model(path)
    assert loaded.partition.labels == tuple(range(1, 13))
    trace = fm.simulate_filter(x0, loaded.partition, steps=4, seed=3)
    assert trace.labels() == fm.simulate_filter(x0, model.partition, steps=4, seed=3).labels()


labels_strategy = st.recursive(
    st.integers(-5, 30) | st.text("abc01", max_size=3),
    lambda inner: st.tuples(inner, inner), max_leaves=3)


@settings(max_examples=30, deadline=None)
@given(labels=st.lists(labels_strategy, min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 2**32 - 1))
def test_model_file_roundtrip_explicit_labels(labels, seed):
    rng = np.random.default_rng(seed)
    n = 4
    P = random_transition(rng, n, sparsity=0.3)
    split = rng.dirichlet(np.ones(len(labels)), size=len(P.triplets()))
    members = {w: fm.NonnegMatrix(n, n, [(i, j, v * split[t, a])
                                         for t, (i, j, v) in enumerate(P.triplets())])
               for a, w in enumerate(labels)}
    model = fm.FilterModel(fm.Partition(members, P))
    x0 = rng.dirichlet(np.ones(n))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        fm.save_model(model, path)
        loaded = fm.load_model(path)
        again = Path(tmp) / "again.json"
        fm.save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()
    assert loaded.partition.labels == model.partition.labels
    for w, M in model.partition:
        assert type(loaded.partition.labels[model.partition.labels.index(w)]) is type(w)
        assert np.array_equal(loaded.partition.member(w).toarray(), M.toarray())
    want = fm.simulate_filter(x0, model.partition, steps=6, seed=seed)
    got = fm.simulate_filter(x0, loaded.partition, steps=6, seed=seed)
    assert got.labels() == want.labels()
    for (_, a), (_, b) in zip(got.steps, want.steps):
        assert np.array_equal(a.coords, b.coords)


def test_model_file_without_label_types_still_loads(tmp_path):
    # files written before label types were stored hold string labels only
    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "states": 2, "P": [[0, 0, 0.5], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]],
        "partition": {"explicit": {"1": [[0, 0, 0.5], [1, 0, 0.5]],
                                   "10": [[0, 1, 0.5], [1, 1, 0.5]]}},
        "meta": {}}))
    assert fm.load_model(path).partition.labels == ("1", "10")


def test_model_file_observation_partition(tmp_path):
    # written by hand: save_model writes an observation spec only when one
    # was loaded, and keeps it as it was
    P = [[0.5, 0.5, 0.0], [0.0, 0.25, 0.75], [0.6, 0.0, 0.4]]
    R = [[1.0, 0.0], [0.3, 0.7], [0.0, 1.0]]
    spec = {"observation": [[0, 0, 1.0], [1, 0, 0.3], [1, 1, 0.7], [2, 1, 1.0]]}
    path = tmp_path / "obs.json"
    path.write_text(json.dumps({
        "states": 3, "P": [[i, j, v] for i, row in enumerate(P) for j, v in enumerate(row) if v],
        "partition": spec, "meta": {"name": "obs"}}))
    loaded = fm.load_model(path)
    want = fm.partition_from_observation(fm.TransitionMatrix.from_dense(P), R)
    assert loaded.partition.labels == want.labels == (0, 1)
    for w, M in want:
        assert np.array_equal(loaded.partition.member(w).toarray(), M.toarray())
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    fm.save_model(loaded, once)
    fm.save_model(fm.load_model(once), twice)
    assert json.loads(once.read_text())["partition"] == spec
    assert twice.read_bytes() == once.read_bytes()


@pytest.mark.parametrize("n", [63, 64])
def test_nonneg_matrix_operations_at_63_and_64_states(n):
    rng = np.random.default_rng(n)
    a, b = ((rng.random((n, n)) < 0.1) * rng.random((n, n)) for _ in range(2))
    A = fm.NonnegMatrix.from_dense(a)
    ii, jj = np.nonzero(b)
    B = fm.NonnegMatrix(n, n, [(j, i, b[i, j]) for i, j in zip(ii[::-1], jj[::-1])])
    ii, jj = np.nonzero(a)
    assert A.triplets() == [(int(i), int(j), float(a[i, j])) for i, j in zip(ii, jj)]
    assert A.nnz == ii.size and np.array_equal(A.toarray(), a)
    assert np.array_equal(B.toarray(), b.T)
    assert A.row_sums() == pytest.approx(a.sum(axis=1), rel=1e-14)
    prod = (A @ B).toarray()
    assert np.array_equal(prod > 0, (a @ b.T) > 0)
    assert prod == pytest.approx(a @ b.T, rel=1e-14)
    assert np.array_equal(A.add(B).toarray(), a + b.T)
    assert np.array_equal(A.scaled(0.3).toarray(), a * 0.3)
    eye = fm.NonnegMatrix.identity(n)
    assert eye.triplets() == [(i, i, 1.0) for i in range(n)]
    assert np.array_equal((A @ eye).toarray(), a)
    # a product that underflows is the zero matrix
    tiny = fm.NonnegMatrix(n, n, [(0, 1, 1e-200), (1, 0, 1e-200)])
    square = tiny @ tiny
    assert square.is_zero() and square.nnz == 0 and square.triplets() == []


def test_model_file_keeps_labels_with_one_string_form(tmp_path):
    # 1 and "1" used to share the key "1", so the file did not load
    P = fm.TransitionMatrix.from_dense([[0.5, 0.5], [0.25, 0.75]])
    members = {1: fm.NonnegMatrix.from_dense([[0.5, 0.0], [0.25, 0.0]]),
               "1": fm.NonnegMatrix.from_dense([[0.0, 0.5], [0.0, 0.75]])}
    model = fm.FilterModel(fm.Partition(members, P))
    path = tmp_path / "m.json"
    fm.save_model(model, path)
    loaded = fm.load_model(path)
    assert loaded.partition.labels == (1, "1")
    for w, M in model.partition:
        assert np.array_equal(loaded.partition.member(w).toarray(), M.toarray())
    again = tmp_path / "again.json"
    fm.save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def _birkhoff5():
    perms = [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3), (4, 3, 2, 0, 1), (2, 0, 1, 4, 3)]
    D = 0.2 * np.eye(5)
    for weight, sigma in zip((0.35, 0.25, 0.15, 0.05), perms):
        D[np.arange(5), sigma] += weight
    return fm.birkhoff_partition_model(D)


@pytest.mark.parametrize("make", [fm.kesten_model, lambda: fm.random_walk_case_a(63),
                                  lambda: fm.random_walk_case_a(64), _birkhoff5])
def test_saved_and_loaded_model_computes_the_same_bits(make, tmp_path):
    model = make()
    path = tmp_path / "m.json"
    fm.save_model(model, path)
    loaded = fm.load_model(path)
    m, m2 = model.partition, loaded.partition
    assert m2.labels == m.labels
    x = np.random.default_rng(model.n).dirichlet(np.ones(model.n))
    want, got = fm.simulate_filter(x, m, 60, seed=5), fm.simulate_filter(x, m2, 60, seed=5)
    assert got.labels() == want.labels()
    for (_, a), (_, b) in zip(got.steps, want.steps):
        assert np.array_equal(a.coords, b.coords)
    mu, mu2 = fm.evolve(x, m, 3), fm.evolve(x, m2, 3)
    assert np.array_equal(mu.weights, mu2.weights) and np.array_equal(mu.points, mu2.points)
    assert (mu.pruned_mass, mu.pruned_count) == (mu2.pruned_mass, mu2.pruned_count)
    assert fm.entropy_series(x, m, 5) == fm.entropy_series(x, m2, 5)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), low=st.integers(-320, 0),
       factor=st.integers(-310, 0), kind=st.sampled_from(["lumping", "observation", "explicit"]))
@example(seed=0, n=4, low=-320, factor=-310, kind="explicit")
# a word product of the detector had a norm whose reciprocal overflows
@example(seed=49542881, n=2, low=-134, factor=0, kind="explicit")
@example(seed=7458506, n=3, low=-195, factor=0, kind="observation")
def test_no_matrix_stores_a_zero(seed, n, low, factor, kind):
    # entries from 1 down to 10**low, and a member of entries 1e-12 times
    # those (within PARTITION_ATOL of nothing), scaled by factors down to 1e-310
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < 0.6) * 10.0 ** rng.uniform(low, 0, (n, n))
    A = fm.NonnegMatrix.from_dense(a)
    B = fm.NonnegMatrix(n, n, A.triplets())
    P = random_transition(rng, n, sparsity=0.5)
    members = dict(random_partition(rng, P, 2, kind=kind))
    members["tiny"] = fm.NonnegMatrix.from_dense(a * 1e-12)
    m = fm.Partition(members, P)
    mats = [A, B, A @ B, A.add(B), P, m._stack, *m.members.values()]
    for q in (fm.partition_product(m, m), fm.partition_power(m, 2)):
        mats += [q.base, q._stack, *q.members.values()]
    block = _Block(m._stack, n)
    mats += [block.product(i) for i in range(block.count)]
    children = block.children(m, np.ones(block.count, bool))
    mats += [children.product(i) for i in range(children.count)]
    verdict = fm.detect_rank_one_limit(m, tol=0.5, max_depth=3, power_iters=5)
    mats += [verdict.W] if verdict.W is not None else []
    f = 10.0 ** factor
    for M in list(mats):
        want = M.data * f
        keep = want > 0  # scaled keeps these entries, bit-equal to the products
        S = M.scaled(f)
        assert S.data.tobytes() == want[keep].tobytes()
        assert np.array_equal(S.indices, M.indices[keep])
        assert np.array_equal(S._coords()[0], M._coords()[0][keep])
        mats.append(S)
    for M in mats:
        assert (M.data > 0).all()


def test_nonzero_column_count_matches_column_sums():
    rng = np.random.default_rng(3)
    for _ in range(150):
        rows, cols = (int(v) for v in rng.integers(1, 90, size=2))
        a = (rng.random((rows, cols)) < 0.03) * rng.random((rows, cols))
        M = fm.NonnegMatrix.from_dense(a)
        want = int((a.sum(axis=0) > 0).sum())
        assert M.nonzero_column_count() == want
