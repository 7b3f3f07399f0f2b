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
from itertools import chain, combinations, permutations
from typing import Sequence

import numpy as np

from .core_model import (
    ModelError,
    NonnegMatrix,
    Partition,
    check_irreducible_aperiodic,
    label_sort_key,
    matrix_word_product,
    operator_norm,
)

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
    with entries); the zero matrix passes vacuously."""
    a = M.toarray() if isinstance(M, NonnegMatrix) else np.asarray(M)
    sup = a > 0
    rows = sup.any(axis=1)
    cols = sup.any(axis=0)
    return bool((sup == np.outer(rows, cols)).all())


def default_search_depth(num_labels: int, cap: int = 8, node_budget: int = 10**6) -> int:
    """Exhaustive enumeration depth: at most ``cap``, and no more than
    ``node_budget`` words."""
    if num_labels < 2:
        return cap
    return min(cap, int(math.log(node_budget) / math.log(num_labels)))


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
    product costs one unit; ties break towards the earlier label."""
    word, prod = (), NonnegMatrix.identity(m.n)
    while len(word) < max_len and budget.left():
        best = None
        for w in m.labels:
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
    """Normalised powers ``(k, H_k)``, k = 1..iters, of a word product:
    ``H_1 = base / |base|`` and ``H_k = H_{k-1} H_1 / |H_{k-1} H_1|``.
    Every power costs one unit; the curve ends before the first power that
    vanishes, so a zero ``base`` yields nothing."""
    if base.is_zero():
        return
    H = H1 = _normalized(base)
    for k in range(1, iters + 1):
        if k > 1:
            H = H @ H1
            if H.is_zero():
                return
            H = _normalized(H)
        budget.spent += 1
        yield k, H


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


def rank_one_proximity(M: NonnegMatrix | np.ndarray, row_floor: float = 0.0) -> float:
    """How far the rows (with l1 mass above ``row_floor``) are from being
    proportional: the maximum pairwise l1 distance between normalised rows.
    Zero exactly when those rows are proportional."""
    a = M.toarray() if isinstance(M, NonnegMatrix) else np.asarray(M, dtype=float)
    sums = a.sum(axis=1)
    keep = sums > row_floor
    if not keep.any():
        raise ModelError("rank_one_proximity: all rows at or below the floor")
    rows = a[keep] / sums[keep, None]
    if rows.shape[0] == 1:
        return 0.0
    diffs = np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2)
    return float(diffs.max())


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
    of a repeated word, or one candidate product of the greedy word.
    ``diagnostics`` holds ``tol``, ``row_floor``, ``curves`` (proximities of
    the powers of each repeated word, keyed by ``repr(unit)``, and of the
    greedy prefixes under ``"greedy"``), ``examined`` (units spent) and
    ``min_proximity``; then ``policy`` (and ``repetitions`` of ``word`` in
    ``W`` for ``repeat``) on success, or ``best_word``, whose normalised
    product attains ``min_proximity``, and ``budget_spent`` when undecided.
    """
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
            for k, H in _power_walk(matrix_word_product(m, unit), power_iters, work):
                if converged(unit * k, H, curve):
                    return verdict("repeat", unit, H, repetitions=k)
            if not work.left():
                break

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
    found within the budget — an inconclusive outcome.
    """
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
    for _, H in _power_walk(matrix_word_product(m, word), power_iters, _Budget()):
        if rank_one_proximity(H, row_floor) <= tol:
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


def _word_key(word: tuple):
    """Canonical word order: by length, then label by label."""
    return len(word), label_sort_key(word)


def _active_words(x: np.ndarray, m: Partition, n_max: int):
    """Words of each length 1..n_max with positive mass from x, together
    with the (mass, direction) they lead to."""
    out: dict[tuple, tuple[float, np.ndarray]] = {}
    stack = [((), x, 1.0)]
    while stack:
        word, vec, mass = stack.pop()
        if len(word) >= n_max:
            continue
        masses, children = m.fan_out(vec)
        for w, p, y in reversed(list(zip(m.labels, masses.tolist(), children))):
            if p <= 0.0:
                continue
            nw = word + (w,)
            ynorm = y / p
            out[nw] = (mass * p, ynorm)
            stack.append((nw, ynorm, mass * p))
    return out


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

    Vertices of the subset are always included among the samples.
    """
    subset = tuple(sorted(int(i) for i in subset))
    if len(subset) < 2:
        raise ModelError("subset must contain at least two states")
    n = m.n
    if any(i < 0 or i >= n for i in subset):
        raise ModelError("subset index out of range")
    rng = np.random.default_rng(seed)
    samples = []
    for i in subset:
        e = np.zeros(n)
        e[i] = 1.0
        samples.append(e)
    for _ in range(sample_count):
        x = np.zeros(n)
        x[list(subset)] = rng.dirichlet(np.ones(len(subset)))
        samples.append(x)

    actives = [_active_words(x, m, n_max) for x in samples]

    # pairs and words are visited in a fixed order, so witnesses never
    # depend on how labels hash
    pairs = list(combinations(range(len(samples)), 2))
    diffs = ((a, b, set(actives[a]) ^ set(actives[b])) for a, b in pairs)
    words_witness = next(({"pair": (a, b), "differing_word": min(diff, key=_word_key)}
                          for a, b, diff in diffs if diff), None)
    equal_words = words_witness is None

    max_dev = 0.0
    iso_witness = None
    words = sorted(set().union(*actives), key=_word_key)
    for a, b in pairs:
        base_dist = float(np.abs(samples[a] - samples[b]).sum())
        for word in [w for w in words if w in actives[a] and w in actives[b]]:
            da = actives[a][word][1]
            db = actives[b][word][1]
            dev = abs(float(np.abs(da - db).sum()) - base_dist)
            if dev > max_dev:
                max_dev = dev
                iso_witness = {"pair": (a, b), "word": word, "deviation": dev}
    isometry_pass = max_dev <= 1e-9

    # orbits are finite point sets; they fail to look isolated only when two
    # distinct points collapse below the dedup floor.  Singleton orbits are
    # isolated vacuously and contribute no separation value.
    separation = float("inf")
    for act in actives:
        pts = [direction for _, direction in act.values()]
        uniq: list[np.ndarray] = []
        for p in pts:
            if not any(np.abs(p - q).sum() <= dedup_eps for q in uniq):
                uniq.append(p)
        if len(uniq) < 2:
            continue
        stackpts = np.asarray(uniq)
        d = np.abs(stackpts[:, None, :] - stackpts[None, :, :]).sum(axis=2)
        np.fill_diagonal(d, np.inf)
        separation = min(separation, float(d.min()))
    isolated = separation > dedup_eps

    return NonstabilityReport(
        subset=subset,
        separation=separation,
        isolated_pass=isolated,
        equal_words_pass=equal_words,
        isometry_pass=isometry_pass,
        max_isometry_deviation=max_dev,
        witnesses={"equal_words": words_witness, "isometry": iso_witness},
    )
