"""Checkable sufficient conditions for asymptotic stability of the filter
chain, and a checker for the hypotheses that certify non-stability.

Stability here is approached through words: finite label sequences and the
matrix products they induce.  A partition passes the *subrectangularity*
search when some word's product is nonzero with product-set support; it is
*localizing* when some word's product has few nonzero columns; and the
rank-one detector looks for word sequences whose normalised products
approach a nonnegative rank-1 matrix of norm 1 — the checkable core of the
sufficient stability conditions.  All searches are bounded; the support
searches can also prove that no word passes.  These conditions are
sufficient, not necessary, so absence of a witness never certifies instability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import cycle, islice, permutations
from typing import Sequence

import numpy as np

from . import core_model
from .core_model import (
    ModelError,
    NonnegMatrix,
    Partition,
    _l1_pairs,
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
_PATTERN_BYTES = 2**27  # the most the keys of one word search's patterns take


@dataclass
class StabilityVerdict:
    """Outcome of a stability search.

    The library returns ``kind`` ``b1_converged`` or ``undecided``; the CLI
    also writes ``condition_a``, ``localizing``, ``refuted``, ``nonstable``
    and ``hypotheses_failed``.  ``refuted`` (exit code 0, a decided verdict)
    means that the word supports closed: no word is subrectangular, or
    localizing, and so for ``thm93`` no witness can be composed.  A
    ``b1_converged`` verdict carries the witness ``W`` (a normalised word
    product of operator norm 1 whose rows above the floor are aligned
    within the tolerance).
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
    return bool(M.nnz == np.count_nonzero(np.diff(M.indptr)) * M.nonzero_column_count())


def default_search_depth(num_labels: int, cap: int = 8, node_budget: int = 10**6) -> int:
    """Exhaustive enumeration depth: the largest ``d`` with
    ``num_labels**d <= node_budget``, and at most ``cap``."""
    if num_labels < 2:
        return cap
    depth = 0
    while depth < cap and num_labels ** (depth + 1) <= node_budget:
        depth += 1
    return depth


def _divided(data: np.ndarray, norm) -> np.ndarray:
    """``data`` over ``norm`` > 0 (a float, or one per value): times ``1.0 / norm``,
    or divided at or below 2**-1024, exactly where that reciprocal overflows."""
    if np.ndim(norm):
        ok = norm > 2.0**-1024
        return np.where(ok, data * (1.0 / np.where(ok, norm, 1.0)), data / norm)
    return data * (1.0 / norm) if norm > 2.0**-1024 else data / norm


def _normalized(M: NonnegMatrix, nrm: float | None = None) -> NonnegMatrix:
    """``M`` over its operator norm ``nrm`` by :func:`_divided`, less what underflows."""
    nrm = operator_norm(M) if nrm is None else nrm
    if nrm <= 0:
        raise ModelError("cannot normalise the zero matrix")
    return M._with_values(_divided(M.data, nrm))


class _Budget:
    """Units of search work, shared by the walks below and spent up to ``limit``."""

    def __init__(self, limit: float = math.inf):
        self.limit, self.spent = limit, 0

    def left(self) -> bool:
        return self.spent < self.limit

    def room(self) -> float:
        """How many more units :meth:`left` allows: a whole number, or inf."""
        gap = self.limit - self.spent
        return gap if gap == math.inf else max(0, math.ceil(gap))


class _CycleTest:
    """Brent's test (*BIT* 20, 1980) for a walk whose each step is a function
    of the previous step's stored bits.  Fed ``H_1, H_2, ...`` in turn, it
    holds the previous one and a checkpoint moved at powers of two, and
    returns ``lag`` > 0 once ``H_k`` is stored exactly as ``H_{k-lag}``,
    else 0.  It finds period λ after μ steps within 2 max(μ, λ) + λ steps."""

    def __call__(self, k: int, H: NonnegMatrix) -> int:
        lag = 0
        if k > 1:
            lag = 1 if H._same_layout(self.prev) else k - self.at if H._same_layout(self.mark) else 0
        self.prev = H
        if k & (k - 1) == 0:
            self.mark, self.at = H, k
        return lag


_SPREAD_ROWS = 8  # rows per product that _Block.spread_bounds pairs


class _Block:
    """Word products side by side in one matrix ``S``, ``n`` columns each:
    product ``i`` is columns ``i n`` to ``(i + 1) n``, the matrix analogue of
    the stack of states that ``Partition.fan_out`` takes: one product forms
    the children of all its products (:meth:`children`), and each test reads
    them all at once.  Besides ``S`` it keeps a run table: ``start``, the
    first entry of each run of entries one row of one product holds (its
    columns are sorted), and ``prod``, that run's product."""

    __slots__ = ("S", "n", "count", "start", "prod")

    def __init__(self, S: NonnegMatrix, n: int):
        self.S, self.n, self.count, word = S, n, S.cols // n, S.indices // n
        new = np.zeros(word.size + 1, bool)
        new[S.indptr] = True
        new[1:-1] |= word[1:] != word[:-1]
        self.start = np.flatnonzero(new[:-1])
        self.prod = word[self.start]

    def product(self, i: int) -> NonnegMatrix:
        """Product ``i`` on its own, in the dtypes of ``S``."""
        S, mine = self.S, self.S.indices // self.n == i
        return NonnegMatrix._csr((S.rows, self.n), core_model._kept_indptr(S.indptr, mine),
                                 S.indices[mine] - i * self.n, S.data[mine])

    def row_sums(self) -> np.ndarray:
        """The row sums of each product, one row of the result per product:
        ``reduceat`` over the run of each row, as ``NonnegMatrix.row_sums``
        takes each row of one product, so bit for bit."""
        out = np.zeros((self.count, self.S.rows))
        row = np.searchsorted(self.S.indptr, self.start, "right") - 1
        out[self.prod, row] = np.add.reduceat(self.S.data, self.start)
        return out

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
        return _Block(self.S @ NonnegMatrix._csr((self.count * n, kept * k * n), indptr, indices,
                                                 np.tile(T.data, kept)), n)

    def extension_bytes(self, m: Partition) -> np.ndarray:
        """The bytes that extending each product takes at most: an entry per
        pair of one of its entries and an entry of the member row it meets,
        the members in its part of the right factor, and the product
        kernel's two arrays over its children's columns."""
        T, S = m._stack, self.S
        met = np.add.reduceat(np.diff(T.indptr)[S.indices % self.n], self.start)
        return ((8 + S.indices.itemsize)
                * (np.bincount(self.prod, met, self.count) + T.data.size + T.cols))

    def spread_bounds(self, row_floor: float, norm: np.ndarray | None = None) -> np.ndarray:
        """For each product ``P_i``, a lower bound on ``rank_one_proximity(.,
        row_floor)`` of ``_normalized(P_i, norm[i])`` (``P_i`` with no ``norm``):
        the largest l1 distance from the first to the others of its kept rows
        among ``_SPREAD_ROWS`` rows spread through it, or 0.0 with under two.

        Those rows are made dense, summed, kept where the sum is above the
        floor, divided by it and paired by the same numpy calls along a
        contiguous axis of length ``n`` as in :func:`rank_one_proximity` and
        :func:`_l1_pairs` (:func:`_divided` only the entries read), so each
        distance is one of the proximity's pairwise values bit for bit, and
        the bound needs no rounding slack.
        A slack would not do: where two rows have disjoint supports the
        proximity is 2 up to rounding, stored on either side of 2.0, and a
        bound below 2.0 could not skip such a product once another has
        reached 2.0."""
        S, n = self.S, self.n
        rows = sorted({t * (S.rows - 1) // (_SPREAD_ROWS - 1) for t in range(_SPREAD_ROWS)})
        at = np.concatenate([np.arange(S.indptr[r], S.indptr[r + 1]) for r in rows])
        lens = [S.indptr[r + 1] - S.indptr[r] for r in rows]
        word = S.indices[at] // n
        # entry (product, candidate, column) of a flat array
        flat = (word * ((len(rows) - 1) * n) + S.indices[at]
                + np.repeat(np.arange(0, len(rows) * n, n), lens))
        dense = np.zeros(self.count * len(rows) * n)
        dense[flat] = S.data[at] if norm is None else _divided(S.data[at], norm[word])
        dense = dense.reshape(self.count, len(rows), n)
        sums = dense.sum(axis=2)
        kept = sums > row_floor
        dense /= np.where(kept, sums, 1.0)[:, :, None]
        d = dense[np.arange(self.count), kept.argmax(axis=1), None] - dense
        d = np.abs(d, out=d).sum(axis=2)
        return np.where(kept, d, 0.0).max(axis=1, initial=0.0)


class _Level:
    """The products of the words of one length that one block holds, their
    tests, and where the level of the children of words ``lo`` to ``hi``
    puts them: those of word ``p`` start at ``first[p - lo]``."""

    __slots__ = ("block", "nonzero", "values", "cost", "lo", "hi", "first")

    def __init__(self, block: _Block, test):
        self.block, self.values = block, test(block)
        self.nonzero = (np.bincount(block.prod, minlength=block.count) > 0).tolist()
        self.cost = self.first = None
        self.lo = self.hi = 0

    def extend(self, m: Partition, i: int, room: float, test) -> "_Level":
        """The level of the children of word ``i`` and of the nonzero words
        after it whose extension bytes fit in ``room`` with its own."""
        if self.cost is None:
            self.cost = self.block.extension_bytes(m) * np.array(self.nonzero)
        fits = np.searchsorted(np.cumsum(self.cost[i + 1:]), room - self.cost[i], "right")
        hi = i + 1 + int(fits)
        keep = np.zeros(self.block.count, bool)
        keep[i:hi] = self.nonzero[i:hi]
        self.lo, self.hi = i, hi
        self.first = ((np.cumsum(keep[i:hi]) - 1) * m.num_labels).tolist()
        return _Level(self.block.children(m, keep), test)


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
    order, so a walk that ends early leaves some formed children unread.
    Each word is formed from its prefix on the way down.  The walk is a
    loop over one level per length on the path walked: only the budget bounds its depth."""
    k, labels = m.num_labels, m.labels
    levels = [_Level(_Block(m._stack, m.n), test)]
    todo = [(iter(range(k)), ())]  # per length walked: its level's words left, their prefix
    while todo:
        words, prefix = todo[-1]
        L = levels[len(todo) - 1]
        for i in words:
            if not budget.left():
                return
            budget.spent += 1
            if not L.nonzero[i]:
                continue
            word = prefix + (labels[i % k],)
            yield word, L.values[i]
            if len(word) < depth:
                if not L.lo <= i < L.hi:
                    del levels[len(todo):]  # walked; freed before the next is formed
                    share = core_model._BLOCK_BYTES * 2.0 ** ((len(word) + 1 - depth) / 2)
                    levels.append(L.extend(m, i, share, test))
                first = L.first[i - L.lo]
                todo.append((iter(range(first, first + k)), word))
                break
        else:
            todo.pop()


def _greedy_walk(m: Partition, max_len: int, budget: _Budget):
    """One word extended by the label maximising the product norm, yielded
    as ``(word, normalised product, lag)`` after each step.  A step forms its
    k candidate products at once, side by side from one product with the
    members side by side, and each norm is the largest of its candidate's
    row sums (:meth:`_Block.row_sums`), bit-equal to ``operator_norm``.
    Every candidate costs one unit, and the walk ends before a candidate the
    budget cannot pay for; ties break towards the earlier label.  A step is
    a function of the previous product's stored bits, so once a product is
    stored as the one ``lag`` steps before (:class:`_CycleTest`) the words
    cycle: that step comes as ``(word, None, lag)``, with ``lag`` 0 before,
    and the walk ends there."""
    n = m.n
    word, prod = (), NonnegMatrix.identity(n)
    repeats = _CycleTest()
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
        word, prod = word + (m.labels[best[0]],), _normalized(cands.product(best[0]), best[1])
        lag = repeats(len(word), prod)
        yield word, None if lag else prod, lag
        if lag:
            return


def _power_walk(base: NonnegMatrix, iters: int, budget: _Budget):
    """Normalised powers ``(k, H_k, lag)``, k = 1..iters, of a word product:
    ``H_1 = base / |base|`` and ``H_k = H_{k-1} H_1 / |H_{k-1} H_1|``.
    Every power costs one unit; the walk ends before the first power that
    vanishes, which costs none, or that the budget cannot pay for.  A power
    is a function of the previous one's stored bits, so once ``H_k`` is
    stored as ``H_{k-lag}`` they cycle: no more products are formed, and
    from ``k`` on each comes as ``(k, None, lag)``, before with ``lag`` 0.
    The cycle is found by :class:`_CycleTest`, which besides ``H_1`` holds
    two earlier powers."""
    if base.is_zero():
        return
    H = H1 = _normalized(base)
    repeats, lag = _CycleTest(), 0
    for k in range(1, iters + 1):
        if not budget.left():
            return
        if k > 1 and not lag:
            H = H @ H1
            if H.is_zero():
                return
            H = _normalized(H)
        lag = lag or repeats(k, H)
        budget.spent += 1
        yield k, None if lag else H, lag


def _word_search(m: Partition, test, max_len: int, budget: int, start: int | None = None):
    """Search for the shortlex-least word (shorter first, then label order)
    whose product (its row ``start`` if given) is nonzero with a support
    that passes ``test``.

    For nonnegative matrices the support of ``P M(w)`` is the boolean
    product of the two, with no rounding, so the supports of words form a
    finite semigroup (Paz 1971, *Introduction to Probabilistic Automata*).
    The walk is breadth first over 0/1 patterns, each product's values set
    to 1, from the identity or a 1 x n row, and keeps each distinct pattern
    once, keyed by its index arrays: a word whose pattern came earlier is
    neither tested nor extended, as its extensions have the patterns of the
    earlier word's.  Each product formed costs one unit.  Returns
    ``(word, None)`` for the first passing word; ``(None, length)`` when
    that length adds no new pattern, which proves that no word of any length
    passes; or ``(None, None)`` when ``max_len``, ``budget`` or
    ``_PATTERN_BYTES`` of stored keys ran out first."""
    if max_len < 1:
        raise ModelError("word search requires max_len >= 1")
    work, seen, stored = _Budget(budget), set(), 0
    members = [(w, M._with_values(np.ones(M.nnz))) for w, M in m]
    level = [((), NonnegMatrix.identity(m.n) if start is None
              else NonnegMatrix(1, m.n, [(0, start, 1.0)]))]
    for length in range(1, max_len + 1):
        nxt = []
        for word, P in level:
            for w, M in members:
                if not work.left():
                    return None, None
                work.spent += 1
                Q = P @ M
                key = Q.indptr.tobytes() + Q.indices.tobytes()
                if Q.is_zero() or key in seen:
                    continue
                seen.add(key)
                stored += len(key)
                Q.data[:] = 1.0
                if test(Q):
                    return word + (w,), None
                if stored > _PATTERN_BYTES:
                    return None, None
                nxt.append((word + (w,), Q))
        if not nxt:
            return None, length
        level = nxt
    return None, None


def find_subrectangular_word(m: Partition, max_len: int = 8,
                             budget: int = DEFAULT_BUDGET) -> tuple | None:
    """The shortlex-least word whose product is nonzero and subrectangular
    (:func:`_word_search`).  None means that no word of any length is, or
    that the search ran out first; ``check --condition a`` tells which."""
    return _word_search(m, is_subrectangular, max_len, budget)[0]


def default_col_bound(n: int) -> int:
    """On a truncated space "finitely many columns" is read as "at most
    ceil(n/4) columns" unless the caller says otherwise."""
    return -(-n // 4)


def _localizing(bound: int):
    """The test of a product with at most ``bound`` nonzero columns."""
    return lambda M: M.nonzero_column_count() <= bound


def find_localizing_word(m: Partition, max_len: int = 8, col_bound: int | None = None,
                         budget: int = DEFAULT_BUDGET) -> tuple | None:
    """The shortlex-least word whose product is nonzero with at most
    ``col_bound`` nonzero columns (default bound: ceil(n/4)), or None, as
    :func:`find_subrectangular_word`."""
    bound = default_col_bound(m.n) if col_bound is None else int(col_bound)
    return _word_search(m, _localizing(bound), max_len, budget)[0]

def rank_one_proximity(M: NonnegMatrix | np.ndarray, row_floor: float = 0.0) -> float:
    """How far the rows (with l1 mass above ``row_floor``) are from being
    proportional: the maximum pairwise l1 distance between normalised rows.
    Zero exactly when those rows are proportional.

    This is twice Dobrushin's ergodicity coefficient tau_1 of the kept rows
    (Seneta, *Non-negative Matrices and Markov Chains*, 1981, ch. 3).
    :meth:`_Block.spread_bounds` bounds it from below at O(n) cost instead of
    O(r^2 n)."""
    a = M.toarray() if isinstance(M, NonnegMatrix) else np.asarray(M, dtype=float)
    sums = a.sum(axis=1)
    keep = sums > row_floor
    if not keep.any():
        raise ModelError("rank_one_proximity: all rows at or below the floor")
    rows = a[keep]  # a copy, so the division may write into it
    rows /= sums[keep, None]
    return max((float(d.max()) for *_, d in _l1_pairs(rows, np.arange(len(rows))[::-1])),
               default=0.0)


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
    a repeated word reached with the budget spent gets an empty curve.  The
    power and greedy walks stop at their first cycle, a product stored as
    the one ``lag`` steps before it.  The rest of the curve, its last ``lag``
    values repeated, is appended unwalked, and the budget is charged what
    the walk would have spent, up to the budget, including the candidates
    of a last greedy step that it cuts partway, which adds no value.  Each
    repeated value already exceeded ``tol`` and was weighed against
    ``min_proximity`` when first computed.

    The curves record every value, so each power and greedy prefix before a
    cycle has its proximity computed in full.  The enumeration
    forms its words in blocks bounded in bytes (:func:`_exhaustive_walk`),
    one product for the children of a block of words, and bounds each
    block's words at once (:meth:`_Block.spread_bounds`), dividing only the
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

    def converged(word, H, curve=None) -> bool:
        prox = rank_one_proximity(H, row_floor)
        if curve is not None:
            curve.append(prox)
        if prox < best[0]:
            best[:] = prox, word
        return prox <= tol

    def cycled(curve, lag, steps, cost) -> None:
        # the signalled step and up to ``steps`` more, each ``cost`` units
        room = work.room()
        curve.extend(islice(cycle(curve[-lag:]), 1 + min(steps, room // cost)))
        work.spent += min(steps * cost, room)

    def verdict(name, word, W, **extra) -> StabilityVerdict:
        # every earlier proximity exceeded tol, so the hit is the least one
        diagnostics.update(examined=work.spent, min_proximity=best[0])
        return StabilityVerdict("b1_converged", word=word, W=W,
                                diagnostics=diagnostics | {"policy": name, **extra})

    if "exhaustive" in policy and max_depth >= 1:
        def bounded(block):
            norm = block.row_sums().max(axis=1)
            bounds = block.spread_bounds(row_floor, norm)
            return [(block, i, *bn) for i, bn in enumerate(zip(bounds.tolist(), norm.tolist()))]

        for word, (block, i, bound, nrm) in _exhaustive_walk(m, max_depth, work, bounded):
            # best[0] > tol while the search runs, so a word whose bound
            # reaches it can neither converge nor improve min_proximity
            if bound < best[0] and converged(word, H := _normalized(block.product(i), nrm)):
                return verdict("exhaustive", word, H)

    if "repeat" in policy:
        if repeat_words is None:
            repeat_words = [(w,) for w in m.labels] + list(permutations(m.labels, 2))
        for unit in map(tuple, repeat_words):
            curve = diagnostics["curves"][repr(unit)] = []
            for k, H, lag in _power_walk(matrix_word_product(m, unit), power_iters, work):
                if lag:
                    cycled(curve, lag, power_iters - k, 1)
                    break
                if converged(unit * k, H, curve):
                    return verdict("repeat", unit, H, repetitions=k)

    if "greedy" in policy and work.left():
        curve = diagnostics["curves"]["greedy"] = []
        max_len = max(32, 2 * m.n)
        for word, H, lag in _greedy_walk(m, max_len, work):
            if lag:
                cycled(curve, lag, max_len - len(word), m.num_labels)
                break
            if converged(word, H, curve):
                return verdict("greedy", word, H)

    diagnostics.update(examined=work.spent, min_proximity=best[0], best_word=best[1])
    return StabilityVerdict("undecided", diagnostics=diagnostics | {"budget_spent": work.spent})


# ---------------------------------------------------------------------------
# witness composition
# ---------------------------------------------------------------------------

def _connector_word(m: Partition, start: int, goal: int, max_len: int) -> tuple | None:
    """The shortlex-least word of at most ``max_len`` labels whose product
    has a positive (start, goal) entry: ``()`` when ``start == goal``, else
    the closure walk from row ``start`` (:func:`_word_search`) within
    ``DEFAULT_BUDGET``.  None when no word has one, or the walk ran out."""
    if start == goal:
        return ()
    if max_len < 1:
        return None
    return _word_search(m, lambda row: goal in row.indices, max_len, DEFAULT_BUDGET, start)[0]


def compose_rank_one_witness(m: Partition, max_len: int = 8, tol: float = 1e-9,
                             col_bound: int | None = None, power_iters: int = 10_000,
                             row_floor: float | None = None):
    """Assemble a rank-one witness from a subrectangular word, a localizing
    word, and two connector words, each found by :func:`_word_search`.

    Requires the base chain irreducible and aperiodic.  The four pieces are
    chained as ``d + a + c + b`` so that the combined product ``G`` is
    subrectangular with boundedly many columns and a positive diagonal
    entry; its normalised powers then converge to rank one, and the witness
    ``(word, W)`` is returned.  None means some prerequisite word was not
    found (within the budget, or at all: ``check --condition thm93`` tells
    which for the first two; the base chain being irreducible, a connector
    is missed only when its walk runs out), or the powers did not come
    within ``tol`` of rank one in ``power_iters`` steps, or cycled (a fixed
    point is a cycle of period 1) through matrices that are not — an
    inconclusive outcome.
    """
    return _compose_rank_one_witness(m, max_len, tol, col_bound, power_iters, row_floor)[0]


def _compose_rank_one_witness(m: Partition, max_len: int, tol: float, col_bound: int | None,
                              power_iters: int = 10_000, row_floor: float | None = None):
    """``(witness, refuted)``: :func:`compose_rank_one_witness`'s result, and
    ``(what, length)`` if the supports closed at ``length`` without a
    ``what`` ("subrectangular" or "localizing") word, so no witness exists."""
    if not tol >= 0:
        raise ModelError(f"tol must be nonnegative, got {tol!r}")
    verdict = check_irreducible_aperiodic(m.base)
    if not (verdict["irreducible"] and verdict["aperiodic"]):
        raise ModelError("witness composition requires an irreducible aperiodic base chain")
    if row_floor is None:
        row_floor = math.sqrt(tol)

    word_a, closed = _word_search(m, is_subrectangular, max_len, DEFAULT_BUDGET)
    if word_a is None:
        return None, None if closed is None else ("subrectangular", closed)
    cols = default_col_bound(m.n) if col_bound is None else int(col_bound)
    word_b, closed = _word_search(m, _localizing(cols), max_len, DEFAULT_BUDGET)
    if word_b is None:
        return None, None if closed is None else ("localizing", closed)
    Ma = matrix_word_product(m, word_a)
    Mb = matrix_word_product(m, word_b)
    i1, j1, _ = Ma.triplets()[0]
    i0, j0, _ = Mb.triplets()[0]
    conn_len = max(2 * m.n, max_len)
    word_c = _connector_word(m, j1, i0, conn_len)
    word_d = _connector_word(m, j0, i1, conn_len)
    if word_c is None or word_d is None:
        return None, None

    word = tuple(word_d) + tuple(word_a) + tuple(word_c) + tuple(word_b)
    for _, H, lag in _power_walk(matrix_word_product(m, word), power_iters, _Budget()):
        if lag:  # the powers cycle through matrices already found above tol
            return None, None
        bound = _Block(H, H.cols).spread_bounds(row_floor)[0]
        if bound <= tol and rank_one_proximity(H, row_floor) <= tol:
            return (word, H), None
    return None, None


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
    ``n_max`` below 1 raises :class:`ModelError` (no word would be active,
    and every hypothesis would pass vacuously), as do a negative ``seed``
    and a NaN or negative ``dedup_eps``.  One atom merge of every start's
    orbit, each start a part, keeps a point only if it lies more than
    ``dedup_eps`` from every point of its start kept before it;
    ``separation`` is the least distance between kept points of one start.
    Both sum each distance alike, bit for bit, so ``isolated_pass`` cannot
    fail: ``separation > dedup_eps`` always.
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
    for name, value in [("sample_count (--samples)", sample_count), ("seed (--seed)", seed),
                        ("dedup_eps", dedup_eps)]:
        if not value >= 0:  # NaN fails too
            raise ModelError(f"{name} must be >= 0, got {value}")
    rng = np.random.default_rng(seed)
    samples = np.zeros((len(subset) + sample_count, n))
    samples[np.arange(len(subset)), subset] = 1.0
    for x in samples[len(subset):]:
        x[list(subset)] = rng.dirichlet(np.ones(len(subset)))
    words, start, word, _, points = _active_words(samples, m, n_max)

    # orbits are finite point sets; they fail to look isolated only when two
    # distinct points collapse below the dedup floor.  First seen wins: one
    # atom merge of every orbit, each start a part, with unit weights (no
    # later atom is heavier than a representative, so none moves) keeps a
    # point unless it lies within the floor of one kept before it.  Each kept
    # point is then measured against the later ones of its start; singleton
    # orbits are isolated vacuously and contribute no separation value.
    _, kept, part = _merge_atoms(np.ones(start.size), points, dedup_eps, start)
    later = np.searchsorted(part, part, side="right") - np.arange(1, part.size + 1)
    separation = min((float(d.min()) for *_, d in _l1_pairs(kept, later)), default=float("inf"))
    isolated = separation > dedup_eps

    # pairs and words are visited in a fixed order, so witnesses never
    # depend on how labels hash; ``row[s, i]`` is the row in ``points`` of
    # sample s's orbit point after ``words[i]``, or -1 when s does not make
    # it active.  A block of pairs spans about 2**16 coordinates of words,
    # or is one pair where a pair alone spans more
    row = np.full((len(samples), len(words)), -1)
    row[start, word] = np.arange(start.size)
    present = row >= 0
    # two word sets differ only if one differs from sample 0's, so the first
    # pair in pair order that differs is (0, b) for the first such b
    diff = present[1:] != present[0]
    b, i = divmod(int(diff.argmax()), len(words))
    words_witness = {"pair": (0, b + 1), "differing_word": words[i]} if diff.any() else None
    pair_a, pair_b = np.triu_indices(len(samples), 1)
    base = np.abs(samples[pair_a] - samples[pair_b]).sum(axis=1)
    step = 2**16 // (len(words) * n + 1) + 1
    iso_witness, max_dev = None, 0.0
    for lo in range(0, pair_a.size, step):
        a, b = pair_a[lo:lo + step], pair_b[lo:lo + step]
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
