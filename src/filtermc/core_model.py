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

import functools
import json
from typing import Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.sparse.linalg import splu

__all__ = [
    "ModelError",
    "PROB_ATOL",
    "PARTITION_ATOL",
    "STATIONARY_ATOL",
    "DENSE_CUTOFF",
    "ProbVector",
    "NonnegMatrix",
    "TransitionMatrix",
    "Partition",
    "FilterModel",
    "label_sort_key",
    "partition_from_lumping",
    "partition_from_observation",
    "partition_product",
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
# Below this dimension matrices are stored dense; at or above it, CSR.  Only
# `_store` reads it.  Moving it changes the last bits of results near it.
DENSE_CUTOFF = 64


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

def _store(shape, ii, jj, vv):
    """Storage for strictly positive entries ``vv`` at ``(ii, jj)``: a dense
    array below :data:`DENSE_CUTOFF`, CSR at or above.  The one storage
    decision; every operation works on either kind, and keeps its operands'."""
    if max(shape) < DENSE_CUTOFF:
        mat = np.zeros(shape)
        mat[ii, jj] = vv
        return mat
    return sp.csr_array((vv, (ii, jj)), shape=shape)


class NonnegMatrix:
    """Sparse nonnegative matrix stored as strictly positive triplets.

    Storage (dense or CSR) is chosen by :func:`_store` from the dimensions.
    The stored values are strictly positive and duplicate ``(i, j)``
    triplets are rejected.
    """

    __slots__ = ("rows", "cols", "_mat")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 1 or cols < 1:
            raise ModelError("NonnegMatrix dims must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        entries = list(entries)
        ii = np.array([e[0] for e in entries], dtype=np.int64)
        jj = np.array([e[1] for e in entries], dtype=np.int64)
        vv = np.array([e[2] for e in entries], dtype=float)
        if (vv <= 0).any():
            raise ModelError("NonnegMatrix stored values must be strictly positive")
        if ((ii < 0) | (ii >= rows) | (jj < 0) | (jj >= cols)).any():
            raise ModelError("NonnegMatrix triplet index out of range")
        flat = ii * cols + jj
        if np.unique(flat).size != flat.size:
            raise ModelError("NonnegMatrix duplicate (i, j) triplet")
        self._mat = _store((self.rows, self.cols), ii, jj, vv)

    @classmethod
    def _wrap(cls, mat) -> "NonnegMatrix":
        out = object.__new__(cls)
        out.rows, out.cols = mat.shape
        out._mat = mat
        return out

    @classmethod
    def from_dense(cls, arr) -> "NonnegMatrix":
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2:
            raise ModelError("from_dense expects a 2-d array")
        if (a < 0).any():
            raise ModelError("NonnegMatrix entries must be nonnegative")
        ii, jj = np.nonzero(a)
        return cls._wrap(_store(a.shape, ii, jj, a[ii, jj]))

    @classmethod
    def identity(cls, n: int) -> "NonnegMatrix":
        diag = np.arange(n)
        return cls._wrap(_store((n, n), diag, diag, np.ones(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "NonnegMatrix":
        return cls(rows, cols, [])

    # -- views ---------------------------------------------------------------
    @property
    def is_dense(self) -> bool:
        return isinstance(self._mat, np.ndarray)

    def toarray(self) -> np.ndarray:
        return self._mat.copy() if self.is_dense else self._mat.toarray()

    def support(self) -> sp.csr_array:
        """The support digraph: a boolean CSR array of the positive entries,
        column indices sorted in each row.  Stored zeros are left out."""
        ii, jj = self._mat.nonzero()
        graph = sp.csr_array((np.ones(ii.size, dtype=bool), (ii, jj)), shape=self._mat.shape)
        graph.sort_indices()
        return graph

    def triplets(self) -> list[tuple[int, int, float]]:
        """Strictly positive entries sorted by (row, col)."""
        ii, jj = self._mat.nonzero()
        if ii.size == 0:  # a CSR array indexed by empty arrays returns a sparse array
            return []
        order = np.lexsort((jj, ii))
        ii, jj = ii[order], jj[order]
        return list(zip(ii.tolist(), jj.tolist(), self._mat[ii, jj].tolist()))

    @property
    def nnz(self) -> int:
        # a CSR product may store entries that underflowed to zero
        return int(np.count_nonzero(self._mat) if self.is_dense else self._mat.count_nonzero())

    def is_zero(self) -> bool:
        return self.nnz == 0

    # -- algebra ---------------------------------------------------------------
    def __matmul__(self, other: "NonnegMatrix") -> "NonnegMatrix":
        if self.cols != other.rows:
            raise ModelError("matrix product dimension mismatch")
        return NonnegMatrix._wrap(self._mat @ other._mat)

    def left_apply(self, x: np.ndarray) -> np.ndarray:
        """Row vector times matrix: returns ``x @ M`` as a plain array."""
        return x @ self._mat

    def scaled(self, factor: float) -> "NonnegMatrix":
        if factor <= 0:
            raise ModelError("scale factor must be positive")
        return NonnegMatrix._wrap(self._mat * factor)

    def add(self, other: "NonnegMatrix") -> "NonnegMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ModelError("matrix sum dimension mismatch")
        return NonnegMatrix._wrap(self._mat + other._mat)

    def row_sums(self) -> np.ndarray:
        return self._mat.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self._mat.sum(axis=0)

    def nonzero_column_count(self) -> int:
        return int((self.col_sums() > 0).sum())

    def __repr__(self) -> str:
        return f"NonnegMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


class TransitionMatrix:
    """A square nonnegative matrix whose rows each sum to 1 (within tolerance)."""

    __slots__ = ("inner",)

    def __init__(self, inner: NonnegMatrix):
        if inner.rows != inner.cols:
            raise ModelError("TransitionMatrix must be square")
        rs = inner.row_sums()
        bad = np.abs(rs - 1.0) > PROB_ATOL
        if bad.any():
            i = int(np.argmax(bad))
            raise ModelError(
                f"TransitionMatrix row {i} sums to {rs[i]!r}, not 1 within {PROB_ATOL}"
            )
        self.inner = inner

    @classmethod
    def from_dense(cls, arr) -> "TransitionMatrix":
        return cls(NonnegMatrix.from_dense(arr))

    @property
    def n(self) -> int:
        return self.inner.rows

    def toarray(self) -> np.ndarray:
        return self.inner.toarray()

    def left_apply(self, x: np.ndarray) -> np.ndarray:
        return self.inner.left_apply(x)

    def __matmul__(self, other: "TransitionMatrix") -> "TransitionMatrix":
        return TransitionMatrix(self.inner @ other.inner)

    def __repr__(self) -> str:
        return f"TransitionMatrix(n={self.n}, nnz={self.inner.nnz})"


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
        dev = float(abs(total._mat - base.inner._mat).max())
        if dev > PARTITION_ATOL:
            raise ModelError(
                f"Partition members sum to the base only within {dev!r} > {PARTITION_ATOL}"
            )
        self.labels = labels
        self.members = {w: members[w] for w in labels}
        self.base = base
        self._stack = None

    @classmethod
    def trivial(cls, P: TransitionMatrix, label="w0") -> "Partition":
        """One-member partition {P}; induces the deterministic filter x -> xP."""
        return cls({label: P.inner}, P)

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
        """One step of every label from the row ``x``: the masses
        ``|x M(w)|`` (shape ``(k,)``) and the unnormalised children
        ``x M(w)`` (shape ``(k, n)``), in label order.

        One product against the members stacked once, on first use: dense
        members on a new axis, CSR members side by side.  Each child is
        bit-equal to ``M(w).left_apply(x)``.
        """
        if self._stack is None:
            mats = [self.members[w]._mat for w in self.labels]
            dense = all(isinstance(a, np.ndarray) for a in mats)
            self._stack = np.stack(mats) if dense else sp.hstack(mats, format="csr")
        children = (x @ self._stack).reshape(len(self.labels), -1)
        return children.sum(axis=1), children

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
    exactly the columns ``j`` with ``g(j) == a``.

    ``g`` may be a sequence of labels (one per state), a mapping, or a
    callable on states.
    """
    n = P.n
    gl = _lumping_as_list(g, n)
    labels = sorted(set(gl), key=label_sort_key)
    if not labels:
        raise ModelError("Partition label set is empty")
    members = {}
    for a in labels:
        cols = {j for j, lab in enumerate(gl) if lab == a}
        entries = [(i, j, v) for i, j, v in P.inner.triplets() if j in cols]
        members[a] = NonnegMatrix(n, n, entries)
    return Partition(members, P)


def partition_from_observation(P: TransitionMatrix, R, labels: Sequence | None = None) -> Partition:
    """Partition determined by an observation matrix ``R`` (states x symbols):
    ``M(a)[i, j] = P[i, j] * R[j, a]``.

    ``R`` may be a NonnegMatrix or an array; its rows must be indexed by the
    states of ``P`` and each row must sum to 1.  A 0/1-valued ``R`` reproduces
    the lumping construction exactly.
    """
    if isinstance(R, NonnegMatrix):
        Rm = R
    elif isinstance(R, TransitionMatrix):
        Rm = R.inner
    else:
        Rm = NonnegMatrix.from_dense(R)
    n = P.n
    if Rm.rows != n:
        raise ModelError("observation matrix rows must be indexed by the states of P")
    rs = Rm.row_sums()
    if np.abs(rs - 1.0).max() > PROB_ATOL:
        raise ModelError("observation matrix rows must sum to 1")
    k = Rm.cols
    if labels is None:
        labels = list(range(k))
    elif len(labels) != k:
        raise ModelError("labels length must match observation matrix columns")
    Rd = Rm.toarray()
    p_triplets = P.inner.triplets()
    members = {}
    for a_idx, a in enumerate(labels):
        entries = [
            (i, j, v * Rd[j, a_idx])
            for i, j, v in p_triplets
            if Rd[j, a_idx] > 0.0
        ]
        members[a] = NonnegMatrix(n, n, entries)
    return Partition(members, P)


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
    return Partition(members, m1.base @ m2.base)


def partition_power(m: Partition, k: int) -> Partition:
    """k-fold self-product of the partition (labels are length-k tuples)."""
    if k < 1:
        raise ModelError("partition power requires k >= 1")
    members = {(w,): M for w, M in m}
    base = m.base
    for _ in range(k - 1):
        members = {w + (w2,): M @ M2 for w, M in members.items() for w2, M2 in m}
        base = base @ m.base
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
    rs = M.row_sums()
    return float(rs.max()) if rs.size else 0.0


def check_irreducible_aperiodic(P) -> dict:
    """Graph-theoretic verdicts on the support digraph of ``P``.

    Returns ``{"irreducible": bool, "aperiodic": bool}``.  Aperiodicity is the
    gcd-of-cycle-lengths test, run per strongly connected component; components
    without internal edges are ignored.  Works on the positive entries in
    CSR form, so time and memory grow with the number of nonzeros.
    """
    M = P.inner if isinstance(P, TransitionMatrix) else P
    n = M.rows
    graph = M.support()
    ncomp, comp = connected_components(graph, directed=True, connection="strong")
    u, v = graph.nonzero()
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


def _pinned_solution(P: sp.coo_array, k: int, leak: float = 0.0) -> np.ndarray:
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

    off = P.row != P.col
    ii, jj, vv, n = P.row[off], P.col[off], P.data[off], P.shape[0]
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
    entries = sp.coo_array(P.inner._mat)
    k = int(np.argmax(_pinned_solution(entries, 0, leak=1e-9)))
    x = np.maximum(_pinned_solution(entries, k), 0.0)
    x /= x.sum()
    residual = float(np.abs(P.left_apply(x) - x * P.inner.row_sums()).sum())
    if not residual <= tol:
        raise ModelError(f"stationary solve residual {residual!r} exceeds {tol}")
    return ProbVector(x)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def _partition_spec(model: FilterModel) -> dict:
    spec = model.meta.get("partition_spec")
    if spec is not None:
        return spec
    typed = not all(isinstance(w, str) for w in model.partition.labels)
    # typed labels are keyed by their JSON form, which tells 1 from "1"
    key = (lambda w: json.dumps(_label_doc(w))) if typed else str
    spec = {"explicit": {key(w): [[i, j, v] for i, j, v in M.triplets()]
                         for w, M in model.partition}}
    if typed:
        spec["labels"] = [_label_doc(w) for w in model.partition.labels]
    return spec


def _label_doc(w):
    """JSON form of a label: tuples become lists, numpy integers ints."""
    if isinstance(w, tuple):
        return [_label_doc(v) for v in w]
    return int(w) if isinstance(w, np.integer) else w


def _label_from_doc(v):
    return tuple(map(_label_from_doc, v)) if isinstance(v, list) else v


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
    doc = {
        "states": model.n,
        "P": [[i, j, v] for i, j, v in model.partition.base.inner.triplets()],
        "partition": _partition_spec(model),
        "meta": {k: v for k, v in model.meta.items() if k != "partition_spec"},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> FilterModel:
    """Read a model file written by :func:`save_model` (schema above)."""
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["states"])
    P = TransitionMatrix(NonnegMatrix(n, n, [(int(i), int(j), float(v)) for i, j, v in doc["P"]]))
    part_spec = doc["partition"]
    if "lumping" in part_spec:
        g = part_spec["lumping"]
        partition = partition_from_lumping(P, g)
    elif "observation" in part_spec:
        trips = [(int(j), int(a), float(v)) for j, a, v in part_spec["observation"]]
        k = max(a for _, a, _ in trips) + 1 if trips else 1
        R = NonnegMatrix(n, k, trips)
        partition = partition_from_observation(P, R)
    elif "explicit" in part_spec:
        explicit = part_spec["explicit"]
        labels = map(_label_from_doc, part_spec["labels"]) if "labels" in part_spec else explicit
        members = {
            w: NonnegMatrix(n, n, [(int(i), int(j), float(v)) for i, j, v in trips])
            for w, trips in zip(labels, explicit.values())
        }
        partition = Partition(members, P)
    else:
        raise ModelError("model file partition must be lumping, observation or explicit")
    meta = dict(doc.get("meta", {}))
    meta["partition_spec"] = part_spec
    return FilterModel(partition, meta=meta)
