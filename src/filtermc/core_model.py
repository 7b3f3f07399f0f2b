"""Probability vectors, sparse nonnegative matrices, and partitions of transition matrices.

A *partition* of a row-stochastic matrix ``P`` is a labelled family of
nonnegative matrices ``{M(w)}`` summing entrywise to ``P``.  Each label plays
the role of one observation symbol of a partially observed Markov chain; the
partition is the data from which the whole filtering machinery in this
package is built.

Everything here works on a finite state space of size ``n`` (a truncation of
a possibly countable chain).  Probability vectors are row vectors; ``x @ M``
is always "vector times matrix".
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.sparse.linalg import splu

__all__ = [
    "ModelError",
    "PROB_ATOL",
    "PARTITION_ATOL",
    "STATIONARY_ATOL",
    "ProbVector",
    "NonnegMatrix",
    "TransitionMatrix",
    "Partition",
    "FilterModel",
    "label_sort_key",
    "partition_from_lumping",
    "partition_from_observation",
    "partition_product",
    "partition_power",
    "matrix_word_product",
    "stationary_vector",
    "operator_norm",
    "check_irreducible_aperiodic",
    "save_model",
    "load_model",
]

# Inputs whose l1 mass deviates from 1 by more than this are modelling
# mistakes, not float drift, and are rejected.
PROB_ATOL = 1e-9
PARTITION_ATOL = 1e-9
STATIONARY_ATOL = 1e-8


class ModelError(ValueError):
    """Raised when a model invariant is violated; the message names it."""


# ---------------------------------------------------------------------------
# label ordering
# ---------------------------------------------------------------------------

def label_sort_key(w):
    """Total order on labels (ints, strings and nested tuples of those).

    Word enumeration, outcome sampling and serialisation all rely on one
    canonical label order, so it lives here.
    """
    if isinstance(w, tuple):
        return (2, tuple(label_sort_key(v) for v in w))
    if isinstance(w, (bool, int, np.integer)):
        return (0, int(w))
    return (1, str(w))


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

class ProbVector:
    """A point of the probability simplex: nonnegative coords of l1 mass 1.

    Inputs with ``|sum - 1| <= PROB_ATOL`` are renormalised to exact mass 1;
    larger deviations and NaN coordinates raise :class:`ModelError`.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.array(coords, dtype=float)
        if c.ndim != 1:
            raise ModelError("ProbVector coords must be one-dimensional")
        if (c < 0).any():
            raise ModelError("ProbVector coords must be nonnegative")
        s = float(c.sum())
        if not abs(s - 1.0) <= PROB_ATOL:
            raise ModelError(f"ProbVector mass {s!r} deviates from 1 by more than {PROB_ATOL}")
        c /= s
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @classmethod
    def vertex(cls, i: int, n: int) -> "ProbVector":
        e = np.zeros(n)
        e[i] = 1.0
        return cls(e)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self) -> str:
        return f"ProbVector({self.coords.tolist()!r})"


def as_prob_vector(x) -> ProbVector:
    return x if isinstance(x, ProbVector) else ProbVector(x)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

_INT32_MAX = int(np.iinfo(np.int32).max)


def _index_arrays(arrays, maxval: int = 0):
    """The int32 or int64 index ``arrays`` in the dtype scipy picks for the
    array built from them: int64 if one of them is or ``maxval`` needs it."""
    if maxval > _INT32_MAX or len({a.dtype for a in arrays}) > 1:
        return [a.astype(np.int64) for a in arrays]
    return arrays


def _kernel_result(kernel, shape, a: "NonnegMatrix", b: "NonnegMatrix", size: int | None = None):
    """What the sparsetools ``kernel`` makes of ``a`` and ``b``, called as
    scipy calls it: into arrays for ``size`` entries (by default both
    operands' entries), cut to those written, as no zero sum is stored.
    Only the product kernel leaves columns unsorted; ``__matmul__`` sorts them."""
    size = a.data.size + b.data.size if size is None else size
    ap, aj, bp, bj = _index_arrays((a.indptr, a.indices, b.indptr, b.indices), size)
    indptr, indices, data = np.empty(shape[0] + 1, ap.dtype), np.empty(size, ap.dtype), np.empty(size)
    kernel(*shape, ap, aj, a.data, bp, bj, b.data, indptr, indices, data)
    return NonnegMatrix._csr(shape, indptr, indices[:indptr[-1]], data[:indptr[-1]])


def _kept_indptr(indptr: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The row pointers ``indptr`` of a CSR matrix cut to the entries where ``keep`` holds."""
    before = np.zeros(keep.size + 1, indptr.dtype)  # kept entries before each position
    np.cumsum(keep, out=before[1:])
    return before[indptr]


class _EntryError(ModelError):
    """A triplet :class:`NonnegMatrix` rejects; ``in_field`` says why in a model file's terms."""

    def __init__(self, message: str, in_field: str):
        super().__init__(message)
        self.in_field = in_field


class NonnegMatrix:
    """Sparse nonnegative matrix: the CSR arrays of a scipy ``csr_array``,
    worked on by the sparsetools kernels that scipy's operators call.  Every
    matrix stores its columns sorted in each row, and a product is bit-equal
    to scipy's operator followed by ``sort_indices``.  Every stored value is
    positive: constructors store positive values, the product and sum
    kernels store no zero sum, and :meth:`scaled` drops what underflows.  No
    array is written or replaced once a matrix holds it, so reads never
    change a matrix and matrices may share arrays."""

    __slots__ = ("rows", "cols", "indptr", "indices", "data")
    # every matrix is CSR; perfbench/tracer.py's csr_frac hooks still read this
    is_dense = False

    def __init__(self, rows: int, cols: int, entries):
        """The values at the distinct integral ``(i, j)`` of ``(i, j, v)`` triplets."""
        if rows < 1 or cols < 1 or rows % 1 or cols % 1:  # int() would let indices past the end
            raise ModelError("NonnegMatrix dims must be positive integers")
        try:
            t = np.array(list(entries) if isinstance(entries, Iterator) else entries, dtype=float)
        except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
            t = np.empty(())
        t = t.reshape(0, 3) if t.shape == (0,) else t
        if (t.ndim != 2 or t.shape[1] != 3 or not np.isfinite(t[:, :2]).all()
                or (np.trunc(t[:, :2]) != t[:, :2]).any()):
            raise _EntryError("NonnegMatrix entries must be (i, j, v) triplets with integral i and j",
                              "must be a list of [i, j, v] triplets")
        ii, jj, vv = t.T
        if not (np.isfinite(vv).all() and (vv > 0).all()):
            raise ModelError("NonnegMatrix stored values must be finite and strictly positive")
        if ((ii < 0) | (ii >= rows) | (jj < 0) | (jj >= cols)).any():
            raise _EntryError("NonnegMatrix triplet index out of range", "holds an index out of range")
        built = NonnegMatrix._from_entries((int(rows), int(cols)), ii.astype(np.int64),
                                           jj.astype(np.int64), vv)
        ii, jj, _ = built._coords()  # sorted by (row, col): duplicates are neighbours
        if ((ii[1:] == ii[:-1]) & (jj[1:] == jj[:-1])).any():
            raise ModelError("NonnegMatrix duplicate (i, j) triplet")
        for slot in NonnegMatrix.__slots__:
            setattr(self, slot, getattr(built, slot))

    @classmethod
    def _from_entries(cls, shape, ii, jj, vv) -> "NonnegMatrix":
        """The values ``vv`` at the distinct ``(ii, jj)``, stored as scipy's COO
        conversion stores them: rows in order, column indices sorted in each."""
        idx = np.int32 if max(*shape, vv.size) <= _INT32_MAX else np.int64
        order = np.lexsort((jj, ii))
        indptr = np.zeros(shape[0] + 1, dtype=idx)
        np.cumsum(np.bincount(ii, minlength=shape[0]), out=indptr[1:])
        return cls._csr(shape, indptr, jj[order].astype(idx), vv[order].astype(float, copy=False))

    @staticmethod
    def _csr(shape, indptr, indices, data) -> "NonnegMatrix":
        """A plain matrix on these arrays: no builder makes an unchecked subclass."""
        out = object.__new__(NonnegMatrix)
        out.rows, out.cols = shape
        out.indptr, out.indices, out.data = indptr, indices, data
        return out

    @classmethod
    def from_dense(cls, arr) -> "NonnegMatrix":
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2:
            raise ModelError("from_dense expects a 2-d array")
        if not (np.isfinite(a).all() and (a >= 0).all()):
            raise ModelError("NonnegMatrix entries must be finite and nonnegative")
        ii, jj = np.nonzero(a)
        return cls._from_entries(a.shape, ii, jj, a[ii, jj])

    @classmethod
    def identity(cls, n: int) -> "NonnegMatrix":
        diag = np.arange(n + 1, dtype=np.int32)
        return cls._csr((n, n), diag, diag[:-1], np.ones(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "NonnegMatrix":
        return cls(rows, cols, [])

    # -- views ---------------------------------------------------------------
    def toarray(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        _sparsetools.csr_todense(self.rows, self.cols, self.indptr, self.indices, self.data, out)
        return out

    def _coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the stored entries, in stored order."""
        return np.repeat(np.arange(self.rows), np.diff(self.indptr)), self.indices, self.data

    def support(self) -> sp.csr_array:
        """The support digraph: a boolean CSR array of the entries, on copies of the indexes."""
        return sp.csr_array((np.ones(self.data.size, dtype=bool), self.indices.copy(),
                             self.indptr.copy()), shape=(self.rows, self.cols))

    def triplets(self) -> list[tuple[int, int, float]]:
        """Entries sorted by (row, col)."""
        return list(zip(*(a.tolist() for a in self._coords())))

    @property
    def nnz(self) -> int:
        """Stored entries, each of them positive."""
        return self.data.size

    def is_zero(self) -> bool:
        return self.nnz == 0

    def _same_layout(self, other: "NonnegMatrix") -> bool:
        """True iff both store the same bits in one layout: products with either are bit-equal."""
        return all(getattr(self, k).tobytes() == getattr(other, k).tobytes()
                   for k in ("data", "indices", "indptr"))

    # -- algebra ---------------------------------------------------------------
    def __matmul__(self, other: "NonnegMatrix") -> "NonnegMatrix":
        if self.cols != other.rows:
            raise ModelError("matrix product dimension mismatch")
        shape = (self.rows, other.cols)
        index = _index_arrays((self.indptr, self.indices, other.indptr, other.indices))
        nnz = _sparsetools.csr_matmat_maxnnz(*shape, *index)
        if nnz == 0:  # scipy's empty array of the product's shape
            return NonnegMatrix._csr(shape, np.zeros(shape[0] + 1, np.int32), np.zeros(0, np.int32),
                                     np.zeros(0))
        out = _kernel_result(_sparsetools.csr_matmat, shape, self, other, nnz)
        _sparsetools.csr_sort_indices(shape[0], out.indptr, out.indices, out.data)
        return out

    def left_apply(self, x: np.ndarray) -> np.ndarray:
        """``x @ M`` for a row ``x`` or each row of a stack, as scipy forms it:
        ``csc_matvec`` or ``csc_matvecs`` on the transpose.  A stack's result
        is made C-contiguous, since Fortran-order row sums would differ."""
        out = np.zeros((self.cols,) + np.shape(x)[:-1])
        if out.ndim == 1:
            _sparsetools.csc_matvec(self.cols, self.rows, self.indptr, self.indices, self.data, x, out)
            return out
        _sparsetools.csc_matvecs(self.cols, self.rows, out.shape[1], self.indptr, self.indices,
                                 self.data, np.transpose(x), out)
        return np.ascontiguousarray(out.T)

    def scaled(self, factor: float) -> "NonnegMatrix":
        """``factor`` times each entry, without the entries that underflow to zero."""
        if factor <= 0:
            raise ModelError("scale factor must be positive")
        data = self.data * factor
        keep = data > 0
        return NonnegMatrix._csr((self.rows, self.cols), _kept_indptr(self.indptr, keep),
                                 self.indices[keep], data[keep])

    def add(self, other: "NonnegMatrix") -> "NonnegMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ModelError("matrix sum dimension mismatch")
        return _kernel_result(_sparsetools.csr_plus_csr, (self.rows, self.cols), self, other)

    def row_sums(self) -> np.ndarray:
        """Row sums in stored order, by ``reduceat`` as scipy's ``sum(axis=1)``."""
        out = np.zeros(self.rows)
        filled = (self.indptr[1:] != self.indptr[:-1]).nonzero()[0]
        out[filled] = np.add.reduceat(self.data, self.indptr[filled])
        return out

    def nonzero_column_count(self) -> int:
        """Columns with an entry."""
        return int(np.count_nonzero(np.bincount(self.indices)))

    def __repr__(self) -> str:
        return f"NonnegMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


class TransitionMatrix(NonnegMatrix):
    """A square nonnegative matrix whose rows each sum to 1 (within tolerance),
    on the arrays of the matrix it checks; products of two are plain matrices."""

    __slots__ = ()

    def __init__(self, matrix: NonnegMatrix):
        if matrix.rows != matrix.cols:
            raise ModelError("TransitionMatrix must be square")
        rs = matrix.row_sums()
        bad = np.abs(rs - 1.0) > PROB_ATOL
        if bad.any():
            i = int(np.argmax(bad))
            raise ModelError(f"TransitionMatrix row {i} sums to {float(rs[i])!r}, "
                             f"not 1 within {PROB_ATOL}")
        for slot in NonnegMatrix.__slots__:
            setattr(self, slot, getattr(matrix, slot))

    @classmethod
    def from_dense(cls, arr) -> "TransitionMatrix":
        return cls(NonnegMatrix.from_dense(arr))

    @property
    def n(self) -> int:
        return self.rows

    def __repr__(self) -> str:
        return f"TransitionMatrix(n={self.n}, nnz={self.nnz})"


_BLOCK_BYTES = 2**18  # the most a block of fan-out children or of word products takes


def _block_rows(m: "Partition") -> int:
    """Rows per fan-out block: its children take at most ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * m.num_labels * m.n))


class Partition:
    """A labelled family of nonnegative matrices summing to a transition matrix.

    ``labels`` is kept in the canonical order of :func:`label_sort_key`; every
    member has the dimensions of the base matrix and the entrywise sum of all
    members reproduces the base within ``PARTITION_ATOL``.
    """

    __slots__ = ("labels", "members", "base", "_stack")

    def __init__(self, members: Mapping, base: TransitionMatrix):
        if not members:
            raise ModelError("Partition label set is empty")
        labels = tuple(sorted(members.keys(), key=label_sort_key))
        n = base.n
        for w in labels:
            m = members[w]
            if not isinstance(m, NonnegMatrix):
                raise ModelError("Partition members must be NonnegMatrix")
            if (m.rows, m.cols) != (n, n):
                raise ModelError(f"Partition member {w!r} has wrong dimensions")
        total = functools.reduce(NonnegMatrix.add, (members[w] for w in labels))
        diff = _kernel_result(_sparsetools.csr_minus_csr, (n, n), total, base)
        dev = float(np.abs(diff.data).max(initial=0.0))
        if dev > PARTITION_ATOL:
            raise ModelError(
                f"Partition members sum to the base only within {dev!r} > {PARTITION_ATOL}"
            )
        self.labels = labels
        self.members = {w: members[w] for w in labels}
        self.base = base
        mats = self.members.values()  # side by side, n x kn, for fan_out
        self._stack = NonnegMatrix._from_entries(
            (n, len(labels) * n), np.concatenate([M._coords()[0] for M in mats]),
            np.concatenate([M.indices + t * n for t, M in enumerate(mats)]),
            np.concatenate([M.data for M in mats]))

    @classmethod
    def trivial(cls, P: TransitionMatrix, label="w0") -> "Partition":
        """One-member partition {P}; induces the deterministic filter x -> xP."""
        return cls({label: P}, P)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    def member(self, w) -> NonnegMatrix:
        try:
            return self.members[w]
        except KeyError:
            raise ModelError(f"unknown partition label {w!r}") from None

    def __iter__(self) -> Iterator[tuple[object, NonnegMatrix]]:
        for w in self.labels:
            yield w, self.members[w]

    def fan_out(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step of every label from a row ``x`` of shape ``(n,)``, or
        from each row of a stack of shape ``(r, n)``: the masses ``|x M(w)|``
        (shape ``(..., k)``) and the unnormalised children ``x M(w)`` (shape
        ``(..., k, n)``), in label order.  Each child is bit-equal to
        ``M(w).left_apply(row)``, and each mass is its child's sum.

        The rows are left-applied to the members stacked side by side, one
        ``n x kn`` matrix built with the partition.
        """
        if x.shape[-1] != self.n:
            raise ModelError("state vector dimension does not match the partition")
        children = self._stack.left_apply(x).reshape(*x.shape[:-1], len(self.labels), self.n)
        return children.sum(axis=-1), children

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, labels={list(self.labels)!r})"


class FilterModel:
    """A partition bundled with its chain's stationary vector and provenance."""

    def __init__(self, partition: Partition, stationary: ProbVector | None = None,
                 meta: dict | None = None):
        self.partition = partition
        self.meta = dict(meta or {})
        self._stationary = None
        if stationary is not None:
            self._check_stationary(stationary)
            self._stationary = stationary

    def _check_stationary(self, pi: ProbVector) -> None:
        dev = float(np.abs(self.partition.base.left_apply(pi.coords) - pi.coords).sum())
        if dev > STATIONARY_ATOL:
            raise ModelError(f"stationary vector residual {dev!r} exceeds {STATIONARY_ATOL}")

    @property
    def stationary(self) -> ProbVector:
        if self._stationary is None:
            self._stationary = stationary_vector(self.partition.base)
            self._check_stationary(self._stationary)
        return self._stationary

    @property
    def n(self) -> int:
        return self.partition.n

    def __repr__(self) -> str:
        name = self.meta.get("name", "model")
        return f"FilterModel({name!r}, n={self.n}, labels={list(self.partition.labels)!r})"


# ---------------------------------------------------------------------------
# partition constructors and word products
# ---------------------------------------------------------------------------

def _lumping_as_list(g, n: int) -> list:
    if callable(g):
        return [g(j) for j in range(n)]
    if isinstance(g, Mapping):
        try:
            return [g[j] for j in range(n)]
        except KeyError as exc:
            raise ModelError(f"lumping map not total: missing state {exc}") from None
    g = list(g)
    if len(g) != n:
        raise ModelError(f"lumping of length {len(g)} for {n} states")
    return g


def partition_from_lumping(P: TransitionMatrix, g) -> Partition:
    """Partition determined by a lumping function: member ``M(a)`` keeps
    exactly the columns ``j`` with ``g(j) == a``.  This is the observation
    partition of the 0/1 matrix ``R[j, a] = [g(j) == a]``.

    ``g`` may be a sequence of labels (one per state), a mapping, or a
    callable on states.
    """
    n = P.n
    gl = _lumping_as_list(g, n)
    try:
        labels = sorted(set(gl), key=label_sort_key)
    except TypeError:  # a list label, say, from a model file
        raise ModelError("lumping labels must be hashable: ints, strings or tuples of those") from None
    index = {a: t for t, a in enumerate(labels)}
    R = NonnegMatrix._csr((n, len(labels)), np.arange(n + 1), np.array([index[a] for a in gl]),
                          np.ones(n))
    return partition_from_observation(P, R, labels)


def partition_from_observation(P: TransitionMatrix, R, labels: Sequence | None = None) -> Partition:
    """Partition determined by an observation matrix ``R`` (states x symbols):
    ``M(a)[i, j] = P[i, j] * R[j, a]``.

    ``R`` may be a NonnegMatrix or an array; its rows must be indexed by the
    states of ``P`` and each row must sum to 1.  A 0/1-valued ``R`` reproduces
    the lumping construction exactly.
    """
    Rm = R if isinstance(R, NonnegMatrix) else NonnegMatrix.from_dense(R)
    n = P.n
    if Rm.rows != n:
        raise ModelError("observation matrix rows must be indexed by the states of P")
    if np.abs(Rm.row_sums() - 1.0).max() > PROB_ATOL:
        raise ModelError("observation matrix rows must sum to 1")
    k = Rm.cols
    if labels is None:
        labels = list(range(k))
    elif len(labels) != k:
        raise ModelError("labels length must match observation matrix columns")
    # pair each entry (i, j) of P with each entry (j, a): the slots of R's row j
    ii, jj, vv = P._coords()
    count = np.diff(Rm.indptr)[jj]
    pair = np.repeat(np.arange(jj.size), count)
    slot = np.arange(pair.size) + np.repeat(Rm.indptr[jj] - (np.cumsum(count) - count), count)
    values = vv[pair] * Rm.data[slot]
    if (values <= 0).any():  # underflow
        raise ModelError("NonnegMatrix stored values must be strictly positive")
    # one stable sort splits the products by label; _from_entries sorts each member
    label = Rm.indices[slot].astype(np.min_scalar_type(k))  # small labels sort by radix
    order = np.argsort(label, kind="stable")
    pair = pair[order]
    ii, jj, values = ii[pair], jj[pair], values[order]
    ends = np.cumsum(np.bincount(label, minlength=k)).tolist()
    return Partition({a: NonnegMatrix._from_entries((n, n), ii[s:e], jj[s:e], values[s:e])
                      for a, s, e in zip(labels, [0] + ends, ends)}, P)


def partition_product(m1: Partition, m2: Partition) -> Partition:
    """Product partition: labels are pairs, members are matrix products.

    The result partitions ``P1 @ P2``; the construction is associative.
    """
    if m1.n != m2.n:
        raise ModelError("partition product dimension mismatch")
    members = {}
    for w1, a in m1:
        for w2, b in m2:
            members[(w1, w2)] = a @ b
    return Partition(members, TransitionMatrix(m1.base @ m2.base))


def partition_power(m: Partition, k: int) -> Partition:
    """k-fold self-product of the partition (labels are length-k tuples)."""
    if k < 1:
        raise ModelError("partition power requires k >= 1")
    members = {(w,): M for w, M in m}
    base = m.base
    for _ in range(k - 1):
        members = {w + (w2,): M @ M2 for w, M in members.items() for w2, M2 in m}
        base = TransitionMatrix(base @ m.base)
    return Partition(members, base)


def matrix_word_product(m: Partition, word: Sequence) -> NonnegMatrix:
    """Left-to-right product ``M(w1) M(w2) ... M(wk)``; empty word gives I."""
    out = NonnegMatrix.identity(m.n)
    for w in word:
        out = out @ m.member(w)
    return out


# ---------------------------------------------------------------------------
# stationary vectors, norms, graph checks
# ---------------------------------------------------------------------------

def operator_norm(M: NonnegMatrix) -> float:
    """l1-induced operator norm sup{|xM| : |x| = 1}.

    For a nonnegative matrix this is the maximum row sum (the sup is attained
    at a vertex of the l1 ball).
    """
    return float(M.row_sums().max(initial=0.0))  # row sums are nonnegative


def check_irreducible_aperiodic(P) -> dict:
    """Graph-theoretic verdicts on the support digraph of ``P``.

    Returns ``{"irreducible": bool, "aperiodic": bool}``.  Aperiodicity is the
    gcd-of-cycle-lengths test, run per strongly connected component; components
    without internal edges are ignored.  Works on the entries in CSR form, so
    time and memory grow with the number of nonzeros.
    """
    n = P.rows
    u, v, _ = P._coords()
    ncomp, comp = connected_components(P.support(), directed=True, connection="strong")
    inside = comp[u] == comp[v]
    u, v, cu = u[inside], v[inside], comp[u[inside]]
    # BFS depths over the internal edges from one root per component; internal
    # edges never leave a component, so each depth is from its own root
    roots = u[np.unique(cu, return_index=True)[1]]
    internal = sp.csr_array((np.ones(u.size), (u, v)), shape=(n, n))
    depth = dijkstra(internal, indices=roots, min_only=True, unweighted=True)
    # a component's period is gcd(depth[u] + 1 - depth[v]) over its internal edges
    by_comp = np.argsort(cu, kind="stable")
    starts = np.flatnonzero(np.diff(cu[by_comp], prepend=-1))
    periods = np.gcd.reduceat((depth[u] + 1 - depth[v]).astype(np.int64)[by_comp], starts)
    return {"irreducible": bool(ncomp == 1), "aperiodic": bool((periods == 1).all())}


def _pinned_solution(P: NonnegMatrix, k: int, leak: float = 0.0) -> np.ndarray:
    """Solution of ``x Q = 0`` with ``x[k] = 1``, where the generator ``Q``
    has the off-diagonal entries of ``P`` and, on its diagonal, minus each
    row's off-diagonal sum.

    The other ``n - 1`` equations, ``Q^T[-k, -k] x = -Q^T[-k, k]`` (row and
    column k removed; the right side is row k of ``P``), form a nonsingular
    M-matrix system for an irreducible ``P``.  Taking the diagonal from the
    off-diagonal sums, as GTH elimination does, rather than ``1 - P[i, i]``
    avoids cancellation on lazy rows and holds for rows that sum to 1 only
    within ``PROB_ATOL``.  Sparse LU with diagonal pivots in a symmetric
    fill-reducing order keeps the factors of M-matrix sign, so the
    substitutions add positive terms only.  ``leak`` scales the diagonal by
    ``1 + leak``: every state then loses that share of its outflow, so the
    system stays strictly diagonally dominant whatever the rounding of ``P``
    and the solution stays bounded however little mass state k carries.
    """
    def drop_k(idx):
        return idx - (idx > k)

    ii, jj, vv = P._coords()
    off, n = ii != jj, P.rows
    ii, jj, vv = ii[off], jj[off], vv[off]
    outflow = np.bincount(ii, vv, minlength=n) * (1.0 + leak)
    inner = (ii != k) & (jj != k)
    diag = np.arange(n - 1)
    A = sp.csc_array((np.concatenate([np.delete(outflow, k), -vv[inner]]),
                      (np.concatenate([diag, drop_k(jj[inner])]),
                       np.concatenate([diag, drop_k(ii[inner])]))), shape=(n - 1, n - 1))
    from_k = ii == k
    b = np.bincount(drop_k(jj[from_k]), vv[from_k], minlength=n - 1)
    lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    return np.insert(lu.solve(b), k, 1.0)


def stationary_vector(P: TransitionMatrix, tol: float = 1e-12) -> ProbVector:
    """Stationary probability vector by a direct sparse solve.

    Requires ``P`` irreducible and aperiodic (checked).  One state is pinned
    at 1 and the other ``n - 1`` stationary equations are solved by sparse
    LU (:func:`_pinned_solution`).  The pin must carry large mass: pinned at
    a state of tiny mass, the system is nearly singular, rounding in ``P``
    can make it indefinite, and the other coordinates can overflow.  So a
    first solve pinned at state 0 with a ``1e-9`` leak, which is well posed
    for any pin, only locates a state of maximal mass, and the exact
    system is then solved pinned there.  Negative rounding is clipped and
    the vector normalised.  ``tol`` bounds the l1 residual ``|pi Q|`` of the
    generator (``|pi P - pi|`` when every row sums to exactly 1); a larger
    or non-finite residual raises :class:`ModelError`.
    """
    verdict = check_irreducible_aperiodic(P)
    if not (verdict["irreducible"] and verdict["aperiodic"]):
        raise ModelError(f"stationary_vector requires an irreducible aperiodic chain, got {verdict}")
    k = int(np.argmax(_pinned_solution(P, 0, leak=1e-9)))
    x = np.maximum(_pinned_solution(P, k), 0.0)
    x /= x.sum()
    residual = float(np.abs(P.left_apply(x) - x * P.row_sums()).sum())
    if not residual <= tol:
        raise ModelError(f"stationary solve residual {residual!r} exceeds {tol}")
    return ProbVector(x)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """JSON form of a value: tuples and arrays become lists, numpy scalars
    Python ones, keys strings, non-finite floats their ``repr``, matrices
    their dimensions and triplets."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, NonnegMatrix):
        return {"rows": obj.rows, "cols": obj.cols, "entries": obj.triplets()}
    return obj


@contextlib.contextmanager
def _output(path, newline=None):
    """The text file at ``path`` opened for writing, or stdout when it is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline=newline) as fh:
            yield fh


_INF = float("inf")
_SCALARS = {str, int, float, bool, type(None)}


def _float_text(v) -> str:
    if v != v:
        return "NaN"
    return float.__repr__(v) if abs(v) != _INF else "Infinity" if v > 0 else "-Infinity"


def _json_parts(doc) -> list[str]:
    """The pieces of ``json.dumps(doc, indent=1)``, built in memory.  A list
    of plain scalars is formatted in one pass, and a list of equal-length
    rows of them column by column, with one ``repr`` per distinct int or
    float of a column (zeros apart: ``0.0 == -0.0``); no memo outlives its
    column.  Other scalars go through ``json.dumps``, so what json rejects
    raises its ``TypeError``."""
    parts = []
    put = parts.append

    def texts(col):
        """The texts of a column of plain scalars, or None."""
        kinds = set(map(type, col))
        if kinds == {int} or kinds == {float}:
            memo, fmt = dict.fromkeys(col), _float_text if float in kinds else int.__repr__
            for v in memo:
                memo[v] = fmt(v)
            if float in kinds and 0.0 in memo:
                return [memo[v] if v else float.__repr__(v) for v in col]
            return list(map(memo.__getitem__, col))
        return list(map(json.dumps, col)) if kinds <= _SCALARS else None

    def rows(o, level):
        """Equal-length rows of plain scalars at ``level``, joined in pieces
        of at most 2**14 texts (so no list of every text is held), or None."""
        if not set(map(type, o)) <= {list, tuple} or len(set(map(len, o))) != 1 or not o[0]:
            return None
        cols = [texts(list(map(itemgetter(c), o))) for c in range(len(o[0]))]
        if None in cols:
            return None
        cell, end = ",\n" + " " * (level + 1), "\n" + " " * level + "]"
        between = end + ",\n" + " " * level + "[" + cell[1:]
        glue = [x for c in cols for x in (c, repeat(cell))]
        glue[-1] = repeat(between)
        body = islice(chain.from_iterable(zip(*glue)), len(o) * len(glue) - 1)
        body = chain(["[" + cell[1:]], body, [end])
        return list(iter(lambda: "".join(islice(body, 1 << 14)), ""))

    def enc(o, level):
        is_list = isinstance(o, (list, tuple))
        if not (is_list or isinstance(o, dict)):
            put(json.dumps(o))
            return
        if not o:
            put("[]" if is_list else "{}")
            return
        sep = ",\n" + " " * (level + 1)
        put(("[" if is_list else "{") + sep[1:])
        if not is_list:
            for k, (key, v) in enumerate(o.items()):
                if not (key is None or isinstance(key, (str, int, float))):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = key if isinstance(key, str) else json.dumps(key)
                put((sep if k else "") + json.encoder.encode_basestring_ascii(key) + ": ")
                enc(v, level + 1)
        else:
            flat = texts(o)
            pieces = [sep.join(flat)] if flat is not None else rows(o, level + 1)
            if pieces is not None:
                parts.extend(pieces)
            else:
                for k, v in enumerate(o):
                    if k:
                        put(sep)
                    enc(v, level + 1)
        put("\n" + " " * level + ("]" if is_list else "}"))

    enc(doc, 0)
    return parts


def _write_json(doc, path=None) -> None:
    """The layout of every JSON file the package writes: ``indent=1`` and a
    trailing newline, the bytes of ``json.dump``.  The text is built before
    the file is opened, so a document json rejects leaves no file."""
    parts = _json_parts(doc)
    with _output(path) as fh:
        fh.writelines(parts)
        fh.write("\n")


def _partition_spec(model: FilterModel) -> dict:
    spec = model.meta.get("partition_spec")
    if spec is not None:
        return spec
    typed = not all(isinstance(w, str) for w in model.partition.labels)
    # typed labels are keyed by their JSON form, which tells 1 from "1"
    key = (lambda w: json.dumps(_jsonable(w))) if typed else str
    spec = {"explicit": {key(w): M.triplets() for w, M in model.partition}}
    if typed:
        spec["labels"] = _jsonable(model.partition.labels)
    return spec


def _label_from_doc(v):
    if isinstance(v, dict):
        raise ModelError("model file 'labels' must hold ints, strings and lists of those")
    return tuple(map(_label_from_doc, v)) if isinstance(v, list) else v


def _matrix(rows: int, cols: int, entries, field: str) -> NonnegMatrix:
    """The matrix of a model file's ``field`` from its ``[i, j, v]`` rows."""
    try:
        return NonnegMatrix(rows, cols, entries)
    except _EntryError as exc:
        raise ModelError(f"{field!r} {exc.in_field}") from None


def _entry(doc: Mapping, key: str, kind: type, default=None):
    """A model file's ``doc[key]``, or ``default``: a ``dict`` or ``list``."""
    v = doc.get(key, default)
    if not isinstance(v, kind):
        raise ModelError(f"model file {key!r} must be {'an object' if kind is dict else 'a list'}")
    return v


def _partition_from_spec(P: TransitionMatrix, spec: Mapping) -> Partition:
    """The partition of ``P`` that a model file's ``"partition"`` entry
    describes (schema in :func:`save_model`)."""
    n = P.n
    if not isinstance(spec, Mapping):
        spec = {}
    if "lumping" in spec:
        return partition_from_lumping(P, _entry(spec, "lumping", list))
    if "observation" in spec:
        # room for any int64 label, then cut to the labels named: each gets a member
        R = _matrix(n, np.iinfo(np.int64).max, spec["observation"], "observation")
        k = int(R.indices.max(initial=0)) + 1
        if k > R.data.size:
            raise ModelError(f"'observation' names label {k - 1}, but has {R.data.size} entries")
        return partition_from_observation(P, NonnegMatrix._from_entries((n, k), *R._coords()))
    if "explicit" in spec:
        explicit = _entry(spec, "explicit", dict)
        labels = map(_label_from_doc, _entry(spec, "labels", list, list(explicit)))
        return Partition({w: _matrix(n, n, trips, "explicit")
                          for w, trips in zip(labels, explicit.values())}, P)
    raise ModelError("model file partition must be lumping, observation or explicit")


def save_model(model: FilterModel, path) -> None:
    """Write a model file.

    Schema: ``{"states": n, "P": [[i, j, v], ...], "partition": ...,
    "meta": {...}}`` where the partition is one of ``{"lumping": [label per
    state]}``, ``{"observation": [[j, a, v], ...]}`` or ``{"explicit":
    {label: [[i, j, v], ...]}}``.  An explicit partition whose labels are
    not all strings is keyed by the JSON form of each label instead, and
    also stores ``"labels"``: the labels themselves, in key order, so that
    they load back with their types and canonical order.
    Floats are written in shortest round-trip decimal form, so load/save is
    value-exact.
    """
    _write_json({
        "states": model.n,
        "P": model.partition.base.triplets(),
        "partition": _partition_spec(model),
        "meta": {k: v for k, v in model.meta.items() if k != "partition_spec"},
    }, path)


def load_model(path) -> FilterModel:
    """Read a model file written by :func:`save_model` (schema above)."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ModelError("a model file must be a JSON object")
    n = doc["states"]
    if type(n) is not int:
        raise ModelError(f"model file 'states' must be an integer, got {n!r}")
    trips = doc["P"]
    if isinstance(trips, list) and n > len(trips):  # some row would be empty; checked first
        raise ModelError(f"model file 'states' is {n}, but 'P' has {len(trips)} entries")
    P = TransitionMatrix(_matrix(n, n, trips, "P"))
    meta = dict(_entry(doc, "meta", dict, {}))
    meta["partition_spec"] = doc["partition"]
    return FilterModel(_partition_from_spec(P, doc["partition"]), meta=meta)
