"""Differential tests of the sparsetools kernels that ``NonnegMatrix`` and
``Partition.fan_out`` call on their own CSR arrays, against the scipy
operators on ``csr_array``s of the same arrays: every result must be
bit-equal, down to the column order and index dtype of every product.  A
product is scipy's operator followed by ``sort_indices``, as every matrix
stores sorted columns.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import _sparsetools

import filtermc as fm
from filtermc import core_model
from filtermc.core_model import NonnegMatrix
from filtermc.stability import _Block

from helpers import as_csr_array, from_csr_array, random_partition, random_transition


def canonical(M: NonnegMatrix) -> bool:
    """Sorted columns without duplicates in every row."""
    return bool(_sparsetools.csr_has_canonical_format(M.rows, M.indptr, M.indices))


def csr(rng, rows, cols, density, wide=False):
    """A random nonnegative CSR array, with int64 index arrays if ``wide``."""
    a = sp.csr_array(np.where(rng.random((rows, cols)) < density,
                              rng.random((rows, cols)) + 0.01, 0.0))
    if wide:
        a.indices, a.indptr = a.indices.astype(np.int64), a.indptr.astype(np.int64)
    return a


def assert_same_csr(got: NonnegMatrix, want: sp.csr_array):
    assert (got.rows, got.cols) == want.shape
    for key in ("data", "indices", "indptr"):
        g, w = getattr(got, key), getattr(want, key)
        assert g.dtype == w.dtype, key
        assert np.array_equal(g, w), key


def product(a: sp.csr_array, b: sp.csr_array) -> sp.csr_array:
    """scipy's product, its columns sorted as ``NonnegMatrix`` stores them."""
    out = a @ b
    out.sort_indices()
    return out


def test_the_two_kernels_are_the_ones_core_model_calls():
    assert core_model._sparsetools is _sparsetools
    assert callable(_sparsetools.csr_matmat_maxnnz)
    assert callable(_sparsetools.csr_matmat)


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(1, 12), min_size=4, max_size=7),
       density=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1),
       wide=st.lists(st.booleans(), min_size=6, max_size=6),
       reads=st.lists(st.sampled_from([None, "row_sums", "is_zero", "nnz", "triplets"]),
                      min_size=6, max_size=6))
def test_chains_of_products_match_scipy_bit_for_bit(dims, density, seed, wide, reads):
    # a chain of three or more products, whose kernel leaves columns
    # unsorted; some factors have int64 index arrays, and some partial
    # products are read first
    rng = np.random.default_rng(seed)
    factors = [csr(rng, r, c, density, w) for r, c, w in zip(dims, dims[1:], wide)]
    got = from_csr_array(factors[0])
    want = factors[0]
    for f, read in zip(factors[1:], reads):
        if read == "row_sums":
            assert np.array_equal(got.row_sums(), want.sum(axis=1))
        elif read == "is_zero":
            assert got.is_zero() == (want.count_nonzero() == 0)
        elif read == "nnz":
            assert got.nnz == want.count_nonzero()
        elif read == "triplets":
            ii, jj = want.nonzero()
            assert sorted(got.triplets()) == sorted(
                zip(ii.tolist(), jj.tolist(), want.toarray()[ii, jj].tolist()))
        assert_same_csr(got, want)
        got = got @ from_csr_array(f)
        want = product(want, f)
        assert_same_csr(got, want)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 20), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.2, 0.6, 1.0]), power=st.integers(1, 3),
       word=st.lists(st.integers(0, 2), max_size=6))
def test_every_matrix_stores_sorted_columns(n, k, seed, density, power, word):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, n)) < density, rng.random((n, n)) + 0.01, 0.0)
    ii, jj = np.nonzero(dense)
    shuffled = rng.permutation(ii.size)
    built = NonnegMatrix(n, n, list(zip(ii[shuffled].tolist(), jj[shuffled].tolist(),
                                        dense[ii, jj][shuffled].tolist())))
    other = NonnegMatrix.from_dense(dense.T)
    m = random_partition(rng, random_transition(rng, n, sparsity=0.5), k)
    chained = built
    for _ in range(3):  # the product kernel leaves these columns unsorted
        chained = chained @ m.base
    mats = [built, other, NonnegMatrix.identity(n), built @ other, other @ built, chained,
            built.add(other), chained.scaled(1e-300), m._stack,
            fm.matrix_word_product(m, [m.labels[i % m.num_labels] for i in word]),
            *fm.partition_power(m, power).members.values()]
    assert all(canonical(M) for M in mats)


def test_reads_never_change_a_matrix():
    # reads leave a product's arrays as they are, the same objects with the
    # same bytes, so a product formed after a read is bit-equal to one
    # formed without it
    rng = np.random.default_rng(3)
    a, b, c = (from_csr_array(csr(rng, 20, 20, 0.3)) for _ in range(3))
    untouched = (a @ b) @ c
    ab = a @ b
    arrays = (ab.indices, ab.data)
    copies = [x.copy() for x in arrays]
    for read in (lambda: ab.nnz, ab.is_zero, ab.triplets, ab.support, ab.row_sums,
                 lambda: repr(ab), ab.toarray, ab.nonzero_column_count, lambda: _Block(ab, ab.cols).support_counts(),
                 lambda: ab.left_apply(np.ones(20)), lambda: ab.scaled(2.0),
                 lambda: ab.add(c), lambda: ab._same_layout(c)):
        read()
        assert all(x is y for x, y in zip((ab.indices, ab.data), arrays))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(arrays, copies))
    assert ab._same_layout(a @ b)
    assert_same_csr(ab @ c, as_csr_array(untouched))


def test_mixed_index_dtypes_give_scipys_index_dtype():
    rng = np.random.default_rng(5)
    for wa, wb in [(False, False), (True, False), (False, True), (True, True)]:
        a, b = csr(rng, 9, 7, 0.4, wa), csr(rng, 7, 11, 0.4, wb)
        got = from_csr_array(a) @ from_csr_array(b)
        assert_same_csr(got, product(a, b))
        assert got.indices.dtype == (np.int64 if wa or wb else np.int32)
        c = csr(rng, 9, 7, 0.4, wb)
        assert_same_csr(from_csr_array(a).add(from_csr_array(c)), a + c)


def test_empty_products_are_empty_csr_arrays_of_the_product_shape():
    rng = np.random.default_rng(7)
    a = sp.csr_array((rng.random(6) + 0.01, np.zeros(6, np.int32), np.arange(7)),
                     shape=(6, 4))  # column 0 only
    b = sp.csr_array((np.ones(2), [1, 2], [0, 0, 1, 2, 2]), shape=(4, 5))  # row 0 empty
    zero = sp.csr_array((4, 5))
    for left, right in [(a, b), (a, zero), (zero.T.tocsr(), b)]:
        got = from_csr_array(left) @ from_csr_array(right)
        assert got.nnz == 0 and got.is_zero() and got.triplets() == []
        assert_same_csr(got, product(left, right))
        assert np.array_equal(got.row_sums(), np.zeros(got.rows))


def test_underflowed_products_keep_scipys_arrays():
    # the product kernel drops sums that underflow to zero, so it writes
    # fewer entries than it sized its arrays for
    n = 6
    a = sp.csr_array((np.r_[1e-200, 0.5, np.full(n - 1, 1e-200)], np.r_[0, 1, np.arange(1, n)],
                      np.r_[0, np.arange(2, n + 2)]), shape=(n, n))
    got = from_csr_array(a) @ from_csr_array(a)
    assert_same_csr(got, product(a, a))
    assert got.nnz == 1 and np.array_equal(got.row_sums(), (a @ a).sum(axis=1))
    scaled = got.scaled(1e-300)  # its entry underflows, so it stores nothing
    assert scaled.data.size == 0 and scaled.nnz == 0 and scaled.is_zero()
    assert scaled.support().nnz == 0 and scaled.nonzero_column_count() == 0


def test_word_products_of_a_csr_model_match_scipy():
    for n in (8, 63, 64):
        m = fm.random_walk_case_a(n).partition if n > 8 else fm.kesten_model().partition
        word = tuple(m.labels[i % len(m.labels)] for i in (0, 1, 1, 0, 0, 1, 0, 1, 1, 1))
        want = sp.eye_array(n, format="csr")
        for w in word:
            want = product(want, as_csr_array(m.member(w)))
        assert_same_csr(fm.matrix_word_product(m, word), want.astype(float))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 30), cols=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.1, 0.5, 1.0]), chain=st.booleans(),
       wide=st.booleans())
def test_elementwise_kernels_match_scipy(rows, cols, seed, density, chain, wide):
    # on constructed matrices and on products alike
    rng = np.random.default_rng(seed)
    a, b = csr(rng, rows, cols, density, wide), csr(rng, rows, cols, density)
    if chain:
        c = csr(rng, cols, cols, 0.3)
        a, b = product(a, c), product(b, c)
    A, B = from_csr_array(a), from_csr_array(b)
    x, X = rng.dirichlet(np.ones(rows)), rng.dirichlet(np.ones(rows), size=3)
    assert np.array_equal(A.left_apply(x), x @ a)
    assert np.array_equal(A.left_apply(X), np.ascontiguousarray(X @ a))
    assert A.left_apply(X).flags.c_contiguous
    assert np.array_equal(A.row_sums(), a.sum(axis=1))
    assert np.array_equal(A.toarray(), a.toarray())
    assert_same_csr(A.add(B), a + b)
    assert_same_csr(A.scaled(0.37), a * 0.37)
    want, got = a.astype(bool), A.support()
    want.eliminate_zeros()
    want.sort_indices()
    assert got.shape == want.shape and got.dtype == bool
    for key in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
    ii, jj = a.nonzero()
    order = np.lexsort((jj, ii))
    assert A.triplets() == list(zip(ii[order].tolist(), jj[order].tolist(),
                                    a.toarray()[ii[order], jj[order]].tolist()))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 90), k=st.integers(1, 4), rows=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1), sparsity=st.sampled_from([0.0, 0.5, 0.9]))
def test_fan_out_matches_the_product_with_the_stacked_members(n, k, rows, seed, sparsity):
    rng = np.random.default_rng(seed)
    m = random_partition(rng, random_transition(rng, n, sparsity=sparsity), k)
    K = sp.hstack([as_csr_array(M) for _, M in m], format="csr")
    X = rng.dirichlet(np.ones(n), size=rows)
    for x in (X[0], X):
        masses, children = m.fan_out(x)
        want = np.ascontiguousarray(x @ K).reshape(*x.shape[:-1], m.num_labels, n)
        assert np.array_equal(children, want)
        assert children.flags.c_contiguous
        assert np.array_equal(masses, want.sum(axis=-1))
    # each stacked row's children are its one-row children, bit for bit,
    # and each one-row child is the member left-applied
    assert np.array_equal(m.fan_out(X)[1][-1], m.fan_out(X[-1])[1])
    for t, (_, M) in enumerate(m):
        assert np.array_equal(m.fan_out(X[0])[1][t], M.left_apply(X[0]))


@pytest.mark.parametrize("n", [8, 63, 64])
def test_partition_deviation_is_the_largest_entry_of_the_difference(n):
    P = random_transition(np.random.default_rng(n), n)
    m = random_partition(np.random.default_rng(n + 1), P, 3)
    off = {w: M for w, M in m}
    w0 = m.labels[0]
    M0 = off[w0]
    off[w0] = NonnegMatrix._csr((n, n), M0.indptr, M0.indices, M0.data * (1 + 1e-6))
    want = abs(sum(as_csr_array(M) for M in off.values()) - as_csr_array(P)).max()
    with pytest.raises(fm.ModelError, match=f"within {float(want)!r} >"):
        fm.Partition(off, P)
