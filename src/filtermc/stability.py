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
    entries, rows, cols = M._support_counts()
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


def _exhaustive_walk(m: Partition, depth: int, budget: _Budget):
    """Nonzero ``(word, product)`` pairs of the words up to ``depth``,
    depth-first in label order, so prefixes come before their extensions.
    Every word popped costs one unit, zero products included; those are
    neither yielded nor extended."""
    stack = [((w,), m.member(w)) for w in reversed(m.labels)]
    while stack and budget.left():
        word, prod = stack.pop()
        budget.spent += 1
        if prod.is_zero():
            continue
        yield word, prod
        if len(word) < depth:
            stack.extend((word + (w,), prod @ m.member(w)) for w in reversed(m.labels))


def _greedy_walk(m: Partition, max_len: int, budget: _Budget):
    """One word extended by the label maximising the product norm, yielded
    as ``(word, normalised product)`` after each step.  Every candidate
    product costs one unit, and the walk ends before a candidate the budget
    cannot pay for; ties break towards the earlier label."""
    word, prod = (), NonnegMatrix.identity(m.n)
    while len(word) < max_len:
        best = None
        for w in m.labels:
            if not budget.left():
                return
            cand = prod @ m.member(w)
            budget.spent += 1
            nrm = operator_norm(cand)
            if nrm > 0 and (best is None or nrm > best[2] + 1e-15):
                best = (w, cand, nrm)
        if best is None:
            return
        word = word + (best[0],)
        prod = best[1].scaled(1.0 / best[2])
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


def _word_search(m: Partition, predicate, max_len: int, budget: int):
    """Bounded search for a word whose product satisfies ``predicate``.

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
    for word, prod in chain(_exhaustive_walk(m, depth, work), _greedy_walk(m, max_len, work)):
        if predicate(prod):
            return word
    return None


def find_subrectangular_word(m: Partition, max_len: int = 8,
                             budget: int = DEFAULT_BUDGET) -> tuple | None:
    """Search for a word whose product is nonzero and subrectangular.

    A None result is inconclusive (budget or depth ran out), never a
    refutation.
    """
    return _word_search(m, is_subrectangular, max_len, budget)


def default_col_bound(n: int) -> int:
    """On a truncated space "finitely many columns" is read as "at most
    ceil(n/4) columns" unless the caller says otherwise."""
    return -(-n // 4)


def find_localizing_word(m: Partition, max_len: int = 8, col_bound: int | None = None,
                         budget: int = DEFAULT_BUDGET) -> tuple | None:
    """Search for a word whose product has at most ``col_bound`` nonzero
    columns (default bound: ceil(n/4)).  None is inconclusive."""
    bound = default_col_bound(m.n) if col_bound is None else int(col_bound)
    return _word_search(m, lambda prod: prod.nonzero_column_count() <= bound, max_len, budget)


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
    (Seneta, *Non-negative Matrices and Markov Chains*, 1981, ch. 3).  The
    largest distance from the first kept row (:func:`_first_row_spread`)
    lies in ``[prox / 2, prox]`` by the triangle inequality, and it is one
    of the pairwise values, so it bounds ``prox`` from below bit for bit
    at O(r n) cost instead of O(r^2 n)."""
    rows = _kept_rows(M, row_floor)
    return max(float(d.max()) for *_, d in _l1_blocks(rows))


def _first_row_spread(M: NonnegMatrix | np.ndarray, row_floor: float) -> float:
    """The largest l1 distance from the first kept normalised row to the
    others: a lower bound on ``rank_one_proximity(M, row_floor)`` equal to
    one of its pairwise values bit for bit, since each pair is summed along
    the same contiguous axis as in :func:`_l1_blocks`."""
    rows = _kept_rows(M, row_floor)
    return float(np.abs(rows[0] - rows).sum(axis=1).max())


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
    greedy prefix has its proximity computed in full.  A word of the
    enumeration is only bounded first, by the distances from its first
    kept row (:func:`_first_row_spread`), which never exceed its
    proximity: when that bound already reaches the least proximity so
    far, the word can neither converge nor lower ``min_proximity``, and
    its full proximity is never computed.

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
        # best[0] > tol while the search runs, so an exhaustive word whose
        # bound reaches it can neither converge nor improve min_proximity
        if curve is None and _first_row_spread(H, row_floor) >= best[0]:
            return False
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
        for word, prod in _exhaustive_walk(m, max_depth, work):
            if converged(word, H := _normalized(prod)):
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
    graphs = [M.support() for _, M in m]
    frontier = {start: ()}
    seen = {start}
    for _ in range(max_len):
        nxt: dict[int, tuple] = {}
        for u, word in frontier.items():
            for w, g in zip(m.labels, graphs):
                for v in g.indices[g.indptr[u]:g.indptr[u + 1]].tolist():
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
        if _first_row_spread(H, row_floor) <= tol and rank_one_proximity(H, row_floor) <= tol:
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
    and every hypothesis would pass vacuously.
    """
    subset = tuple(sorted(int(i) for i in subset))
    if len(subset) < 2:
        raise ModelError("subset must contain at least two states")
    n = m.n
    if any(i < 0 or i >= n for i in subset):
        raise ModelError("subset index out of range")
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
