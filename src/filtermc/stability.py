"""Checkable sufficient conditions for asymptotic stability of the filter
chain, and a checker for the hypotheses that certify non-stability.

Stability here is approached through words: finite label sequences and the
matrix products they induce.  A partition passes the *subrectangularity*
search when some word's product is nonzero with product-set support; it is
*localizing* when some word's product has few nonzero columns; and the
rank-one detector looks for word sequences whose normalised products
approach a nonnegative rank-1 matrix of norm 1 — the checkable core of the
sufficient stability conditions.  All searches are bounded and, when they
fail, return "undecided": these conditions are sufficient, not necessary,
so absence of a witness never certifies instability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, permutations
from typing import Sequence

import numpy as np

from . import core_model
from .core_model import (
    ModelError,
    NonnegMatrix,
    Partition,
    check_irreducible_aperiodic,
    matrix_word_product,
    operator_norm,
)
from .filter_dynamics import _merge_atoms

__all__ = [
    "StabilityVerdict",
    "NonstabilityReport",
    "is_subrectangular",
    "find_subrectangular_word",
    "find_localizing_word",
    "default_col_bound",
    "rank_one_proximity",
    "detect_rank_one_limit",
    "compose_rank_one_witness",
    "check_isometry_obstruction",
    "default_search_depth",
]

DEFAULT_BUDGET = 200_000


@dataclass
class StabilityVerdict:
    """Outcome of a stability search.

    ``kind`` is one of ``condition_a``, ``localizing``, ``b1_converged``,
    ``undecided``, ``nonstable``.  A ``b1_converged`` verdict carries the
    witness ``W`` (a normalised word product of operator norm 1 whose rows
    above the floor are aligned within the tolerance).
    """

    kind: str
    word: tuple | None = None
    W: NonnegMatrix | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.kind == "b1_converged"


def is_subrectangular(M: NonnegMatrix | np.ndarray) -> bool:
    """True iff the support is a product set (rows with entries) x (columns
    with entries); the zero matrix passes vacuously.

    The support lies inside that product set, so it equals it exactly when
    it has as many positive entries."""
    if not isinstance(M, NonnegMatrix):
        M = NonnegMatrix.from_dense(M)
    return bool(_subrectangular(*_Block(M, M.cols).support_counts())[0])


def _subrectangular(entries, rows, cols):
    """Which support counts (see :meth:`_Block.support_counts`) are a product set's."""
    return entries == rows * cols


def default_search_depth(num_labels: int, cap: int = 8, node_budget: int = 10**6) -> int:
    """Exhaustive enumeration depth: the largest ``d`` with
    ``num_labels**d <= node_budget``, and at most ``cap``."""
    if num_labels < 2:
        return cap
    depth = 0
    while depth < cap and num_labels ** (depth + 1) <= node_budget:
        depth += 1
    return depth


def _normalized(M: NonnegMatrix) -> NonnegMatrix:
    nrm = operator_norm(M)
    if nrm <= 0:
        raise ModelError("cannot normalise the zero matrix")
    return M.scaled(1.0 / nrm)


class _Budget:
    """Units of search work, shared by the walks below and spent up to ``limit``."""

    def __init__(self, limit: float = math.inf):
        self.limit, self.spent = limit, 0

    def left(self) -> bool:
        return self.spent < self.limit


_SPREAD_ROWS = 8  # rows per product that _Block.spread_bounds pairs


class _Block:
    """Word products side by side in one matrix ``S``, ``n`` columns each:
    product ``i`` is columns ``i n`` to ``(i + 1) n``.  ``word`` gives the
    product of each entry.  It is the matrix analogue of the stack of
    states that ``Partition.fan_out`` takes: one product forms the children
    of all its products (:meth:`children`), and each test reads them all at
    once."""

    __slots__ = ("S", "n", "count", "word", "_runs")

    def __init__(self, S: NonnegMatrix, n: int):
        self.S, self.n, self.count, self.word = S, n, S.cols // n, S.indices // n
        self._runs = None

    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first entry of each run of entries that one row of one
        product holds (its columns are sorted), and that run's product and row."""
        if self._runs is None:
            S, word = self.S, self.word
            new = np.zeros(word.size + 1, bool)
            new[S.indptr] = True
            new[1:-1] |= word[1:] != word[:-1]
            start = np.flatnonzero(new[:-1])
            self._runs = start, word[start], np.searchsorted(S.indptr, start, "right") - 1
        return self._runs

    def product(self, i: int) -> NonnegMatrix:
        """Product ``i`` on its own, in the dtypes of ``S``."""
        S, mine = self.S, self.word == i
        return NonnegMatrix._csr((S.rows, self.n), core_model._kept_indptr(S.indptr, mine),
                                 S.indices[mine] - i * self.n, S.data[mine])

    def support_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each product's numbers of entries, of rows with one and of
        columns with one, as exact integer counts."""
        word = self.runs()[1]
        cols = np.zeros(self.S.cols, bool)
        cols[self.S.indices] = True
        return (np.bincount(self.word, minlength=self.count),
                np.bincount(word, minlength=self.count),
                cols.reshape(self.count, self.n).sum(axis=1))

    def row_sums(self) -> np.ndarray:
        """The row sums of each product, one row of the result per product:
        ``reduceat`` over the run of each row, as ``NonnegMatrix.row_sums``
        takes each row of one product, so bit for bit."""
        start, word, row = self.runs()
        out = np.zeros((self.count, self.S.rows))
        out[word, row] = np.add.reduceat(self.S.data, start)
        return out

    def scales(self) -> np.ndarray:
        """Each product's factor in :func:`_normalized`, bit for bit: ``1.0
        /`` its largest row sum, or 1.0 for a zero product."""
        norm = self.row_sums().max(axis=1)
        with np.errstate(over="ignore"):  # inf, as Python's float division gives
            return 1.0 / np.where(norm > 0, norm, 1.0)

    def children(self, m: Partition, keep: np.ndarray) -> "_Block":
        """The products ``P M(w)`` side by side for the products ``P`` where
        ``keep`` holds, in order and label by label: one product with a
        right factor that holds the members side by side
        (``Partition._stack``) in the rows of each kept ``P``, moved to the
        columns of its children, and nothing elsewhere.

        ``csr_matmat`` forms each row of a product from that row of the left
        factor, adding the terms of each entry in stored order, so each
        entry of ``P M(w)`` adds the same terms in the same order as
        ``P @ M(w)``, and the children are bit-equal to those products."""
        T, k, n = m._stack, m.num_labels, self.n
        kept = int(keep.sum())
        lens = np.zeros((self.count, n), np.int64)
        lens[keep] = np.diff(T.indptr)
        idx = self.S.indices.dtype
        indptr = np.zeros(self.count * n + 1, idx)
        np.cumsum(lens.ravel(), out=indptr[1:])
        indices = (T.indices + (np.arange(kept, dtype=idx) * (k * n))[:, None]).ravel()
        out = self.S @ NonnegMatrix._csr((self.count * n, kept * k * n), indptr, indices,
                                         np.tile(T.data, kept))
        # the kernel's arrays hold room for every term: keep the entries, let those go
        out = NonnegMatrix._csr((out.rows, out.cols), out.indptr, out.indices.copy(), out.data.copy())
        return _Block(out, n)

    def extension_bytes(self, m: Partition) -> np.ndarray:
        """The bytes that extending each product takes at most: an entry per
        pair of one of its entries and an entry of the member row it meets,
        the members in its part of the right factor, and the product
        kernel's two arrays over its children's columns."""
        T, S = m._stack, self.S
        start, word, _ = self.runs()
        met = np.add.reduceat(np.diff(T.indptr)[S.indices % self.n], start)
        return ((8 + S.indices.itemsize)
                * (np.bincount(word, met, self.count) + T.data.size + T.cols))

    def spread_bounds(self, row_floor: float, scale: np.ndarray | None = None) -> np.ndarray:
        """For each product ``P_i``, a lower bound on ``rank_one_proximity(.,
        row_floor)`` of ``P_i.scaled(scale[i])`` (``P_i`` with no ``scale``):
        the largest l1 distance from the first to the others of its kept rows
        among ``_SPREAD_ROWS`` rows spread through it, or 0.0 with under two.

        Those rows are made dense, summed, kept where the sum is above the
        floor, divided by it and paired by the same numpy calls along a
        contiguous axis of length ``n`` as in :func:`_kept_rows` and
        :func:`_l1_blocks`, so each distance is one of the proximity's
        pairwise values bit for bit, and the bound needs no rounding slack.
        A slack would not do: where two rows have disjoint supports the
        proximity is 2 up to rounding, stored on either side of 2.0, and a
        bound below 2.0 could not skip such a product once another has
        reached 2.0."""
        S, n = self.S, self.n
        rows = sorted({t * (S.rows - 1) // (_SPREAD_ROWS - 1) for t in range(_SPREAD_ROWS)})
        at = np.concatenate([np.arange(S.indptr[r], S.indptr[r + 1]) for r in rows])
        lens = [S.indptr[r + 1] - S.indptr[r] for r in rows]
        # entry (product, candidate, column) of a flat array
        flat = (self.word[at] * ((len(rows) - 1) * n) + S.indices[at]
                + np.repeat(np.arange(0, len(rows) * n, n), lens))
        dense = np.zeros(self.count * len(rows) * n)
        dense[flat] = S.data[at] if scale is None else S.data[at] * scale[self.word[at]]
        dense = dense.reshape(self.count, len(rows), n)
        sums = dense.sum(axis=2)
        kept = sums > row_floor
        dense /= np.where(kept, sums, 1.0)[:, :, None]
        d = dense[np.arange(self.count), kept.argmax(axis=1), None] - dense
        d = np.abs(d, out=d).sum(axis=2)
        return np.where(kept, d, 0.0).max(axis=1, initial=0.0)


class _Level:
    """The words of one length that one block holds, their tests, and the
    level of the children of words ``lo`` to ``hi``, where those of word
    ``p`` start at ``first[p - lo]``."""

    __slots__ = ("words", "block", "nonzero", "values", "cost", "child", "lo", "hi", "first")

    def __init__(self, words: list, block: _Block, test):
        self.words, self.block, self.values = words, block, test(block)
        self.nonzero = (np.bincount(block.word, minlength=block.count) > 0).tolist()
        self.cost = self.child = self.first = None
        self.lo = self.hi = 0

    def extend(self, m: Partition, i: int, room: float, test) -> None:
        """Form the level of the children of word ``i`` and of the nonzero
        words after it whose extension bytes fit in ``room`` with its own."""
        self.child = None  # its words have all been walked; free it first
        if self.cost is None:
            self.cost = self.block.extension_bytes(m) * np.array(self.nonzero)
        fits = np.searchsorted(np.cumsum(self.cost[i + 1:]), room - self.cost[i], "right")
        hi = i + 1 + int(fits)
        keep = np.zeros(len(self.words), bool)
        keep[i:hi] = self.nonzero[i:hi]
        words = [self.words[p] + (w,) for p in np.flatnonzero(keep).tolist() for w in m.labels]
        self.child = _Level(words, self.block.children(m, keep), test)
        self.lo, self.hi = i, hi
        self.first = ((np.cumsum(keep[i:hi]) - 1) * m.num_labels).tolist()


def _exhaustive_walk(m: Partition, depth: int, budget: _Budget, test):
    """The nonzero words up to ``depth`` as ``(word, value)``, depth-first in
    label order, so prefixes come before their extensions; ``value`` is the
    word's item of ``test(block)``, which reads a :class:`_Block` of words.
    Every word taken costs one unit, zero products included; those are
    neither yielded nor extended.

    Words are formed in blocks: when a word is extended, so are the words of
    its length that follow it in its block, as many as the extension's
    bytes (:meth:`_Block.extension_bytes`) fit in a share of
    ``core_model._BLOCK_BYTES`` (one at least), and all their children come
    from one product (:meth:`_Block.children`) and are tested at once.  The
    extensions that form words of length ``depth`` get the whole of it and
    each length above ``1 / sqrt(2)`` of the share of the one below, so the
    shares sum to less than ``3.5 * _BLOCK_BYTES`` whatever the depth; a
    length exceeds its share only where one word alone does.  The words
    are still taken, paid for and yielded one at a time in depth-first
    order, so a walk that ends early leaves some formed children unread."""
    k = m.num_labels

    def walk(L: _Level, lo: int, length: int):
        for i in range(lo, lo + k):
            if not budget.left():
                return
            budget.spent += 1
            if not L.nonzero[i]:
                continue
            yield L.words[i], L.values[i]
            if length < depth:
                if not L.lo <= i < L.hi:
                    L.extend(m, i, core_model._BLOCK_BYTES / 2 ** ((depth - 1 - length) / 2), test)
                yield from walk(L.child, L.first[i - L.lo], length + 1)

    yield from walk(_Level([(w,) for w in m.labels], _Block(m._stack, m.n), test), 0, 1)


def _greedy_walk(m: Partition, max_len: int, budget: _Budget):
    """One word extended by the label maximising the product norm, yielded
    as ``(word, normalised product)`` after each step.  A step forms its k
    candidate products at once, side by side from one product with the
    members side by side, and each norm is the largest of its candidate's
    row sums (:meth:`_Block.row_sums`), bit-equal to ``operator_norm``.
    Every candidate costs one unit, and the walk ends before a candidate the
    budget cannot pay for; ties break towards the earlier label."""
    n = m.n
    word, prod = (), NonnegMatrix.identity(n)
    while len(word) < max_len and budget.left():
        cands = _Block(prod @ m._stack, n)
        best = None
        for t, nrm in enumerate(cands.row_sums().max(axis=1).tolist()):
            if not budget.left():
                return
            budget.spent += 1
            if nrm > 0 and (best is None or nrm > best[1] + 1e-15):
                best = (t, nrm)
        if best is None:
            return
        word = word + (m.labels[best[0]],)
        prod = cands.product(best[0]).scaled(1.0 / best[1])
        yield word, prod


def _power_walk(base: NonnegMatrix, iters: int, budget: _Budget):
    """Normalised powers ``(k, H_k, lag)``, k = 1..iters, of a word product:
    ``H_1 = base / |base|`` and ``H_k = H_{k-1} H_1 / |H_{k-1} H_1|``.
    Every power costs one unit; the walk ends before the first power that
    vanishes, which costs none, or that the budget cannot pay for.  A power
    is a function of the previous one's stored bits, so once ``H_k`` is
    stored as ``H_{k-lag}`` they cycle: no more products are formed, and
    from ``k`` on each comes as ``(k, None, lag)``, before with ``lag`` 0.
    Brent's test (*BIT* 20, 1980) against the previous power and a
    checkpoint moved at powers of two finds period λ after μ powers within
    2 max(μ, λ) + λ powers; besides ``H_1`` it holds two earlier powers."""
    if base.is_zero():
        return
    H = H1 = mark = _normalized(base)
    lag = 0
    for k in range(1, iters + 1):
        if not budget.left():
            return
        if k > 1 and not lag:
            nxt = H @ H1
            if nxt.is_zero():
                return
            nxt = _normalized(nxt)
            lag = 1 if nxt._same_layout(H) else k - c if nxt._same_layout(mark) else 0
            H = nxt
        if k & (k - 1) == 0:
            mark, c = H, k
        budget.spent += 1
        yield k, None if lag else H, lag


def _word_search(m: Partition, test, max_len: int, budget: int):
    """Bounded search for a word whose product passes ``test``, which takes
    the support counts ``(entries, rows, cols)`` of a block of products
    (:meth:`_Block.support_counts`) and says which pass.

    Phase 1 enumerates all words up to the exhaustive depth in label order
    (depth-first, so prefixes are tested before their extensions); phase 2
    extends a single word greedily by the label maximising the product norm.
    Returns the first hit or None; ties in the greedy phase break
    lexicographically.
    """
    if max_len < 1:
        raise ModelError("word search requires max_len >= 1")
    work = _Budget(budget)
    depth = min(max_len, default_search_depth(m.num_labels))

    def hits(block):
        return test(*block.support_counts()).tolist()

    greedy = ((word, hits(_Block(prod, m.n))[0]) for word, prod in _greedy_walk(m, max_len, work))
    for word, hit in chain(_exhaustive_walk(m, depth, work, hits), greedy):
        if hit:
            return word
    return None


def find_subrectangular_word(m: Partition, max_len: int = 8,
                             budget: int = DEFAULT_BUDGET) -> tuple | None:
    """Search for a word whose product is nonzero and subrectangular.

    A None result is inconclusive (budget or depth ran out), never a
    refutation.
    """
    return _word_search(m, _subrectangular, max_len, budget)


def default_col_bound(n: int) -> int:
    """On a truncated space "finitely many columns" is read as "at most
    ceil(n/4) columns" unless the caller says otherwise."""
    return -(-n // 4)


def find_localizing_word(m: Partition, max_len: int = 8, col_bound: int | None = None,
                         budget: int = DEFAULT_BUDGET) -> tuple | None:
    """Search for a word whose product has at most ``col_bound`` nonzero
    columns (default bound: ceil(n/4)).  None is inconclusive."""
    bound = default_col_bound(m.n) if col_bound is None else int(col_bound)
    return _word_search(m, lambda entries, rows, cols: cols <= bound, max_len, budget)


def _kept_rows(M: NonnegMatrix | np.ndarray, row_floor: float) -> np.ndarray:
    """The rows with l1 mass above ``row_floor``, each divided by its mass."""
    a = M.toarray() if isinstance(M, NonnegMatrix) else np.asarray(M, dtype=float)
    sums = a.sum(axis=1)
    keep = sums > row_floor
    if not keep.any():
        raise ModelError("rank_one_proximity: all rows at or below the floor")
    rows = a[keep]  # a copy, so the division may write into it
    rows /= sums[keep, None]
    return rows


def rank_one_proximity(M: NonnegMatrix | np.ndarray, row_floor: float = 0.0) -> float:
    """How far the rows (with l1 mass above ``row_floor``) are from being
    proportional: the maximum pairwise l1 distance between normalised rows.
    Zero exactly when those rows are proportional.

    This is twice Dobrushin's ergodicity coefficient tau_1 of the kept rows
    (Seneta, *Non-negative Matrices and Markov Chains*, 1981, ch. 3).
    :meth:`_Block.spread_bounds` bounds it from below at O(n) cost instead of
    O(r^2 n)."""
    rows = _kept_rows(M, row_floor)
    return max(float(d.max()) for *_, d in _l1_blocks(rows))


def _l1_blocks(rows: np.ndarray):
    """The pairwise l1 distances between the rows of ``rows`` in blocks
    ``(i, j, d)``, where ``d[a, b]`` pairs rows ``i + a`` and ``j + b``.
    Each block takes 8 rows against at most ``max(64, 2**14 // n)`` rows
    from theirs on, so it holds at most ``max(512 n, 2**17)`` values
    whatever the row count (1 MB up to n = 256).  At n <= 64 columns and
    at most 64 rows, as in the word products, each block is the 8 rows
    against all rows from theirs on.  Every unordered pair appears in some
    block, and ``d`` is bit-equal to ``np.abs(u - v).sum()`` for each of
    its pairs, since each is summed along a contiguous axis of length
    ``n``.  Where ``i == j``, ``d[a, a]`` pairs a row with itself."""
    r, n = rows.shape
    step = max(64, 2**14 // n)
    for i in range(0, r, 8):
        for j in range(i, r, step):
            d = np.subtract(rows[i:i + 8, None, :], rows[None, j:j + step, :])
            yield i, j, np.abs(d, out=d).sum(axis=2)


def detect_rank_one_limit(m: Partition, tol: float = 1e-8, max_depth: int | None = None,
                          power_iters: int = 500, row_floor: float | None = None,
                          repeat_words: Sequence[tuple] | None = None,
                          policy: Sequence[str] = ("exhaustive", "repeat", "greedy"),
                          budget: int = DEFAULT_BUDGET) -> StabilityVerdict:
    """Look for word sequences whose normalised products become rank one.

    Three bounded policies are tried: exhaustive enumeration up to
    ``max_depth``; powers of repeated unit words (all single labels and
    ordered label pairs unless ``repeat_words`` is given); and a single
    greedy word extended by maximal product norm.  Success returns a
    ``b1_converged`` verdict whose ``W`` is the normalised product itself
    (operator norm 1, rows above ``row_floor`` aligned within ``tol``);
    otherwise the verdict is ``undecided`` — never "unstable".

    ``row_floor`` (default ``sqrt(tol)``) is the relative row mass below
    which a row is treated as vanished; vanishing rows are the signature of
    limits whose row-scale vector has zero entries.

    One unit of ``budget`` is one word popped by the enumeration, one power
    of a repeated word, or one candidate product of the greedy word.  It is
    checked before each of them, so ``examined`` never exceeds ``budget``;
    a repeated word reached with the budget spent gets an empty curve.  Once
    the powers cycle, each power stored exactly as the one ``lag`` before it
    costs a unit but no product, and adds that power's proximity to its
    curve again.

    The curves record every value, so each power before a cycle and each
    greedy prefix has its proximity computed in full.  The enumeration
    forms its words in blocks bounded in bytes (:func:`_exhaustive_walk`),
    one product for the children of a block of words, and bounds each
    block's words at once (:meth:`_Block.spread_bounds`), scaling only the
    entries it reads; the words are still taken one by one in depth-first
    order.  A word's bound is one of its pairwise row distances bit for
    bit, so it never exceeds its proximity: when it already reaches the
    least proximity so far, the word can neither converge nor lower
    ``min_proximity``, and its full proximity is never computed; otherwise
    its product alone is normalised.

    ``diagnostics`` holds ``tol``, ``row_floor``, ``curves`` (proximities of
    the powers of each repeated word, keyed by ``repr(unit)``, and of the
    greedy prefixes under ``"greedy"``), ``examined`` (units spent) and
    ``min_proximity``; then ``policy`` (and ``repetitions`` of ``word`` in
    ``W`` for ``repeat``) on success, or ``best_word``, whose normalised
    product attains ``min_proximity``, and ``budget_spent`` when undecided.
    """
    if not tol >= 0:
        raise ModelError(f"tol must be nonnegative, got {tol!r}")
    if row_floor is None:
        row_floor = math.sqrt(tol)
    if max_depth is None:
        max_depth = default_search_depth(m.num_labels)
    diagnostics: dict = {"tol": tol, "row_floor": row_floor, "curves": {}}
    work = _Budget(budget)
    best: list = [float("inf"), None]  # least proximity so far and a word attaining it

    def converged(word, H, curve=None, lag=0) -> bool:
        prox = curve[-lag] if lag else rank_one_proximity(H, row_floor)
        if curve is not None:
            curve.append(prox)
        if prox < best[0]:
            best[:] = prox, word
        return prox <= tol

    def verdict(name, word, W, **extra) -> StabilityVerdict:
        # every earlier proximity exceeded tol, so the hit is the least one
        diagnostics.update(examined=work.spent, min_proximity=best[0])
        return StabilityVerdict("b1_converged", word=word, W=W,
                                diagnostics=diagnostics | {"policy": name, **extra})

    if "exhaustive" in policy and max_depth >= 1:
        def bounded(block):
            scale = block.scales()
            bounds = block.spread_bounds(row_floor, scale)
            return [(block, i, *bs) for i, bs in enumerate(zip(bounds.tolist(), scale.tolist()))]

        for word, (block, i, bound, s) in _exhaustive_walk(m, max_depth, work, bounded):
            # best[0] > tol while the search runs, so a word whose bound
            # reaches it can neither converge nor improve min_proximity
            if bound < best[0] and converged(word, H := block.product(i).scaled(s)):
                return verdict("exhaustive", word, H)

    if "repeat" in policy:
        if repeat_words is None:
            repeat_words = [(w,) for w in m.labels] + list(permutations(m.labels, 2))
        for unit in map(tuple, repeat_words):
            curve = diagnostics["curves"][repr(unit)] = []
            for k, H, lag in _power_walk(matrix_word_product(m, unit), power_iters, work):
                if converged(unit * k, H, curve, lag):
                    return verdict("repeat", unit, H, repetitions=k)

    if "greedy" in policy and work.left():
        curve = diagnostics["curves"]["greedy"] = []
        for word, H in _greedy_walk(m, max(32, 2 * m.n), work):
            if converged(word, H, curve):
                return verdict("greedy", word, H)

    diagnostics.update(examined=work.spent, min_proximity=best[0], best_word=best[1])
    return StabilityVerdict("undecided", diagnostics=diagnostics | {"budget_spent": work.spent})


# ---------------------------------------------------------------------------
# witness composition
# ---------------------------------------------------------------------------

def _connector_word(m: Partition, start: int, goal: int, max_len: int) -> tuple | None:
    """Shortest label word whose product has a positive (start, goal) entry,
    found by BFS over single-member support edges."""
    if start == goal:
        return ()
    frontier = {start: ()}
    seen = {start}
    for _ in range(max_len):
        nxt: dict[int, tuple] = {}
        for u, word in frontier.items():
            for w, M in m:
                for v in M.indices[M.indptr[u]:M.indptr[u + 1]].tolist():
                    if v in seen:
                        continue
                    cand = word + (w,)
                    if v == goal:
                        return cand
                    nxt[v] = cand
                    seen.add(v)
        if not nxt:
            return None
        frontier = nxt
    return None


def compose_rank_one_witness(m: Partition, max_len: int = 8, tol: float = 1e-9,
                             col_bound: int | None = None, power_iters: int = 10_000,
                             row_floor: float | None = None):
    """Assemble a rank-one witness from a subrectangular word, a localizing
    word, and connector words found on the support graph.

    Requires the base chain irreducible and aperiodic.  The four pieces are
    chained as ``d + a + c + b`` so that the combined product ``G`` is
    subrectangular with boundedly many columns and a positive diagonal
    entry; its normalised powers then converge to rank one, and the witness
    ``(word, W)`` is returned.  None means some prerequisite word was not
    found within the budget, or the powers did not come within ``tol`` of
    rank one in ``power_iters`` steps, or cycled (a fixed point is a cycle
    of period 1) through matrices that are not — an inconclusive outcome.
    """
    if not tol >= 0:
        raise ModelError(f"tol must be nonnegative, got {tol!r}")
    verdict = check_irreducible_aperiodic(m.base)
    if not (verdict["irreducible"] and verdict["aperiodic"]):
        raise ModelError("witness composition requires an irreducible aperiodic base chain")
    if row_floor is None:
        row_floor = math.sqrt(tol)

    word_a = find_subrectangular_word(m, max_len=max_len)
    if word_a is None:
        return None
    word_b = find_localizing_word(m, max_len=max_len, col_bound=col_bound)
    if word_b is None:
        return None
    Ma = matrix_word_product(m, word_a)
    Mb = matrix_word_product(m, word_b)
    i1, j1, _ = Ma.triplets()[0]
    i0, j0, _ = Mb.triplets()[0]
    conn_len = max(2 * m.n, max_len)
    word_c = _connector_word(m, j1, i0, conn_len)
    word_d = _connector_word(m, j0, i1, conn_len)
    if word_c is None or word_d is None:
        return None

    word = tuple(word_d) + tuple(word_a) + tuple(word_c) + tuple(word_b)
    for _, H, lag in _power_walk(matrix_word_product(m, word), power_iters, _Budget()):
        if lag:  # the powers cycle through matrices already found above tol
            return None
        bound = _Block(H, H.cols).spread_bounds(row_floor)[0]
        if bound <= tol and rank_one_proximity(H, row_floor) <= tol:
            return word, H
    return None


# ---------------------------------------------------------------------------
# non-stability hypotheses
# ---------------------------------------------------------------------------

@dataclass
class NonstabilityReport:
    """Sampled verification of the three non-stability hypotheses on a
    state subset: isolated orbit points, start-independent active word
    sets, and exact isometry of the normalised word action."""

    subset: tuple[int, ...]
    separation: float
    isolated_pass: bool
    equal_words_pass: bool
    isometry_pass: bool
    max_isometry_deviation: float
    witnesses: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.isolated_pass and self.equal_words_pass and self.isometry_pass


def _active_words(xs: np.ndarray, m: Partition, n_max: int):
    """The words of each length 1..n_max with positive mass from each start
    ``xs[s]``, with one ``fan_out`` over every start's frontier per length.

    Returns ``words``, those active from some start in canonical order (by
    length, then label by label), and for every active (start, word) the
    arrays ``start``, ``word`` (an index into ``words``), ``mass`` and
    ``point``, the direction the word leads to.  Each start's entries are
    consecutive, in the order of a depth-first walk in label order that
    lists a word's children, last label first, when it reaches the word:
    by the parent's labels, prefixes first, then by label descending."""
    k, words, digits, found = m.num_labels, [], [], []
    level, rows = [()], np.full((1, n_max), -1)  # each word's label indices, -1 padded
    vec, mass, start, rank = xs, np.ones(len(xs)), np.arange(len(xs)), np.zeros(len(xs), int)
    for length in range(n_max):
        masses, children = m.fan_out(vec)
        r, lab = np.nonzero(masses > 0.0)
        p = masses[r, lab]
        # ``rank`` numbers the previous length's words in canonical order, so
        # these keys sort this length's words canonically too
        keys, rank_new = np.unique(rank[r] * k + lab, return_inverse=True)
        parent = rank[r] + len(words) - len(level)  # -1 for the empty word
        rows = np.hstack([rows[keys // k, :length], (keys % k)[:, None],
                          np.full((keys.size, n_max - length - 1), -1)])
        level = [level[q // k] + (m.labels[q % k],) for q in keys.tolist()]
        vec, mass, start, rank = children[r, lab] / p[:, None], mass[r] * p, start[r], rank_new
        found.append((start, rank + len(words), mass, vec, parent, lab))
        words += level
        digits.append(rows)
        if not r.size:
            break
    start, word, mass, point, parent, lab = map(np.concatenate, zip(*found))
    up = np.concatenate(digits + [np.full((1, n_max), -1)])[parent]
    order = np.lexsort([-lab, *up.T[::-1], start])
    return words, start[order], word[order], mass[order], point[order]


def check_isometry_obstruction(m: Partition, subset: Sequence[int], n_max: int = 4,
                               sample_count: int = 6, seed: int = 0,
                               dedup_eps: float = 1e-9) -> NonstabilityReport:
    """Check, on sampled starts supported in ``subset``, the three
    hypotheses under which the filter chain cannot be asymptotically stable.

    1. orbit points are separated: minimum pairwise l1 distance over each
       start's reachable set (to depth ``n_max``) is positive — reported as
       ``separation``;
    2. the set of words with positive mass does not depend on the start;
    3. the normalised word action is an exact l1 isometry between starts.

    Vertices of the subset are always included among the samples, besides
    ``sample_count`` random points; a negative count raises.  An
    ``n_max`` below 1 raises :class:`ModelError`: no word would be active,
    and every hypothesis would pass vacuously.  ``isolated_pass`` cannot
    fail: a point is kept only if it lies more than ``dedup_eps`` from every
    point kept before it, and the merge and :func:`_l1_blocks` sum each
    distance alike, bit for bit, so ``separation > dedup_eps`` always.
    """
    subset = tuple(sorted(int(i) for i in subset))
    if len(subset) < 2:
        raise ModelError("subset must contain at least two states")
    n = m.n
    if any(i < 0 or i >= n for i in subset):
        raise ModelError("subset index out of range")
    for i, j in zip(subset, subset[1:]):
        if i == j:
            raise ModelError(f"subset repeats state {i}")
    if n_max < 1:
        raise ModelError("n_max must be at least 1")
    if sample_count < 0:
        raise ModelError(f"sample_count (--samples) must be >= 0, got {sample_count}")
    rng = np.random.default_rng(seed)
    samples = np.zeros((len(subset) + sample_count, n))
    samples[np.arange(len(subset)), subset] = 1.0
    for x in samples[len(subset):]:
        x[list(subset)] = rng.dirichlet(np.ones(len(subset)))
    words, start, word, _, points = _active_words(samples, m, n_max)

    # orbits are finite point sets; they fail to look isolated only when two
    # distinct points collapse below the dedup floor.  First seen wins: a
    # point is kept unless it lies within the floor of a point kept before
    # it, so an orbit that collapses to a few points is compared against
    # those few only: the atom merge with unit weights, where no later atom
    # is heavier than a representative, so none moves.  Singleton orbits are
    # isolated vacuously and contribute no separation value.
    separation = float("inf")
    bounds = np.searchsorted(start, np.arange(len(samples) + 1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        kept = _merge_atoms(np.ones(hi - lo), points[lo:hi], dedup_eps)[1]
        if len(kept) < 2:
            continue
        for i, j, d in _l1_blocks(kept):
            if i == j:
                np.fill_diagonal(d, np.inf)
            separation = min(separation, float(d.min()))
    isolated = separation > dedup_eps

    # pairs and words are visited in a fixed order, so witnesses never
    # depend on how labels hash; ``row[s, i]`` is the row in ``points`` of
    # sample s's orbit point after ``words[i]``, or -1 when s does not make
    # it active.  A block of pairs spans about 2**16 coordinates of words,
    # or is one pair where a pair alone spans more
    row = np.full((len(samples), len(words)), -1)
    row[start, word] = np.arange(start.size)
    present = row >= 0
    pair_a, pair_b = np.triu_indices(len(samples), 1)
    base = np.abs(samples[pair_a] - samples[pair_b]).sum(axis=1)
    step = 2**16 // (len(words) * n + 1) + 1
    words_witness, iso_witness, max_dev = None, None, 0.0
    for lo in range(0, pair_a.size, step):
        a, b = pair_a[lo:lo + step], pair_b[lo:lo + step]
        # the first pair whose word sets differ, and the first such word
        diff = present[a] != present[b]
        if words_witness is None and diff.any():
            p, i = divmod(int(diff.argmax()), len(words))
            words_witness = {"pair": (int(a[p]), int(b[p])), "differing_word": words[i]}
        # the first largest deviation in pair order, then word order, which
        # a later block must exceed strictly
        p, i = np.nonzero(present[a] & present[b])
        dev = np.abs(np.abs(points[row[a[p], i]] - points[row[b[p], i]]).sum(axis=1)
                     - base[lo + p])
        if dev.size and dev.max() > max_dev:
            t = int(dev.argmax())
            max_dev = float(dev[t])
            iso_witness = {"pair": (int(a[p[t]]), int(b[p[t]])), "word": words[i[t]],
                           "deviation": max_dev}

    return NonstabilityReport(
        subset=subset,
        separation=separation,
        isolated_pass=isolated,
        equal_words_pass=words_witness is None,
        isometry_pass=max_dev <= 1e-9,
        max_isometry_deviation=max_dev,
        witnesses={"equal_words": words_witness, "isometry": iso_witness},
    )
