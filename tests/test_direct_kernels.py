"""Differential tests of the direct sparsetools calls in ``core_model``
against the scipy operators they bypass: CSR word products and the CSR
fan-out must be bit-equal, down to the column order of every product.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import _sparsetools

import filtermc as fm
from filtermc import core_model
from filtermc.core_model import NonnegMatrix

from helpers import random_partition, random_transition


def csr(rng, rows, cols, density, wide=False):
    """A random nonnegative CSR array, with int64 index arrays if ``wide``."""
    a = sp.csr_array(np.where(rng.random((rows, cols)) < density,
                              rng.random((rows, cols)) + 0.01, 0.0))
    if wide:
        a.indices, a.indptr = a.indices.astype(np.int64), a.indptr.astype(np.int64)
    return a


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for key in ("data", "indices", "indptr"):
        g, w = getattr(got, key), getattr(want, key)
        assert g.dtype == w.dtype, key
        assert np.array_equal(g, w), key


def test_the_two_kernels_are_the_ones_core_model_calls():
    assert core_model._sparsetools is _sparsetools
    assert callable(_sparsetools.csr_matmat_maxnnz)
    assert callable(_sparsetools.csr_matmat)


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(1, 12), min_size=4, max_size=7),
       density=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1),
       wide=st.lists(st.booleans(), min_size=6, max_size=6),
       reads=st.lists(st.sampled_from([None, "row_sums", "is_zero"]), min_size=6, max_size=6))
def test_chains_of_products_match_scipy_bit_for_bit(dims, density, seed, wide, reads):
    # a chain of three or more products, whose partial products have
    # unsorted column indices; some factors have int64 index arrays, and
    # some partial products are read first (`is_zero` sorts them in place)
    rng = np.random.default_rng(seed)
    factors = [csr(rng, r, c, density, w) for r, c, w in zip(dims, dims[1:], wide)]
    got = NonnegMatrix._wrap(factors[0])
    want = factors[0]
    for f, read in zip(factors[1:], reads):
        if read == "row_sums":
            assert np.array_equal(got.row_sums(), want.sum(axis=1))
        elif read == "is_zero":
            assert got.is_zero() == (want.count_nonzero() == 0)
        got = got @ NonnegMatrix._wrap(f)
        want = want @ f
        assert_same_csr(got._mat, want)


def test_products_of_unsorted_and_of_canonicalised_operands():
    rng = np.random.default_rng(3)
    a, b, c = (NonnegMatrix._wrap(csr(rng, 20, 20, 0.3)) for _ in range(3))
    ab = a @ b
    assert not ab._mat.has_sorted_indices
    assert_same_csr((ab @ c)._mat, a._mat @ b._mat @ c._mat)
    ab.row_sums()  # sums each row in stored order and leaves the indices unsorted
    assert not ab._mat.has_sorted_indices
    assert_same_csr((ab @ c)._mat, a._mat @ b._mat @ c._mat)
    assert not ab.is_zero()  # counts after summing duplicates, which sorts in place
    assert ab._mat.has_sorted_indices
    unsorted = a._mat @ b._mat @ c._mat
    assert_same_csr((ab @ c)._mat, ab._mat @ c._mat)
    assert not np.array_equal((ab @ c)._mat.data, unsorted.data)


def test_mixed_index_dtypes_give_scipys_index_dtype():
    rng = np.random.default_rng(5)
    for wa, wb in [(False, False), (True, False), (False, True), (True, True)]:
        a, b = csr(rng, 9, 7, 0.4, wa), csr(rng, 7, 11, 0.4, wb)
        got = (NonnegMatrix._wrap(a) @ NonnegMatrix._wrap(b))._mat
        assert_same_csr(got, a @ b)
        assert got.indices.dtype == (np.int64 if wa or wb else np.int32)


def test_empty_products_are_empty_csr_arrays_of_the_product_shape():
    rng = np.random.default_rng(7)
    a = csr(rng, 6, 4, 0.5)
    a = sp.csr_array((a.data, np.zeros_like(a.indices), a.indptr), shape=a.shape)  # column 0 only
    b = sp.csr_array((np.ones(2), [1, 2], [0, 0, 1, 2, 2]), shape=(4, 5))  # row 0 empty
    zero = sp.csr_array((4, 5))
    for left, right in [(a, b), (a, zero), (zero.T.tocsr(), b)]:
        got = (NonnegMatrix._wrap(left) @ NonnegMatrix._wrap(right))._mat
        assert isinstance(got, sp.csr_array)
        assert got.nnz == 0
        assert_same_csr(got, left @ right)


def test_word_products_of_a_csr_model_match_scipy():
    m = fm.random_walk_case_a(64).partition
    word = (1, 2, 2, 1, 1, 2, 1, 2, 2, 2)
    want = NonnegMatrix.identity(64)._mat
    for w in word:
        want = want @ m.member(w)._mat
    assert_same_csr(fm.matrix_word_product(m, word)._mat, want)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(64, 90), k=st.integers(1, 4), rows=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1), sparsity=st.sampled_from([0.0, 0.5, 0.9]))
def test_fan_out_matches_the_product_with_the_stacked_members(n, k, rows, seed, sparsity):
    rng = np.random.default_rng(seed)
    m = random_partition(rng, random_transition(rng, n, sparsity=sparsity), k)
    assert not any(M.is_dense for _, M in m)
    K = sp.hstack([M._mat for _, M in m], format="csr")
    X = rng.dirichlet(np.ones(n), size=rows)
    for x in (X[0], X):
        masses, children = m.fan_out(x)
        want = np.ascontiguousarray(x @ K).reshape(*x.shape[:-1], m.num_labels, n)
        assert np.array_equal(children, want)
        assert children.flags.c_contiguous
        assert np.array_equal(masses, want.sum(axis=-1))
    # each stacked row's children are its one-row children, bit for bit
    assert np.array_equal(m.fan_out(X)[1][-1], m.fan_out(X[-1])[1])
