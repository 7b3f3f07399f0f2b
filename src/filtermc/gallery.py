"""Generators for the concrete models exercised throughout the package:
the 8-state periodic-filter counterexample due to Kesten, reflecting
birth-death chains with an odd/even column split, block-permutation
families built over a small base chain, and partitions of doubly
stochastic matrices into permutation matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core_model import (
    PROB_ATOL,
    ModelError,
    FilterModel,
    NonnegMatrix,
    Partition,
    TransitionMatrix,
    partition_from_lumping,
)

__all__ = [
    "RandomWalkParams",
    "PermFamilySpec",
    "kesten_model",
    "KESTEN_DEFAULT_START",
    "random_walk_model",
    "random_walk_case_a",
    "random_walk_case_b",
    "perm_family_model",
    "kesten_perm_spec",
    "birkhoff_decompose",
    "birkhoff_partition_model",
]

# Admissible start for the Kesten chain: supported on the first block with
# coordinates 1 and 3 equal and strictly below the equal coordinates 2 and 4.
KESTEN_DEFAULT_START = (0.15, 0.35, 0.15, 0.35, 0.0, 0.0, 0.0, 0.0)


def kesten_model() -> FilterModel:
    """The 8-state doubly stochastic chain, lumped into two 4-state blocks,
    whose filter chain is periodic (hence not asymptotically stable): the
    blow-up of :func:`kesten_perm_spec`, whose members are the lumping's."""
    meta = {
        "name": "kesten",
        "partition_spec": {"lumping": ["a"] * 4 + ["b"] * 4},
        "default_start": list(KESTEN_DEFAULT_START),
        "blocks": [[0, 1, 2, 3], [4, 5, 6, 7]],
    }
    return FilterModel(Partition(*_perm_members(kesten_perm_spec())), meta=meta)


# ---------------------------------------------------------------------------
# reflecting birth-death chains with odd/even observation split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomWalkParams:
    """Coefficients of a birth-death chain on {0, ..., n-1}.

    ``b[i]`` holds, ``c[i]`` steps up, ``a[i]`` steps down (``a`` is indexed
    from state 1, so ``len(a) == n - 1``).  Row sums must be 1:
    ``b[0] + c[0] == 1`` and ``a[i] + b[i] + c[i] == 1`` for interior and top
    states; at the top the up-rate is folded into the holding rate
    (reflection), which keeps the truncated matrix exactly stochastic.
    """

    a: Sequence[float]
    b: Sequence[float]
    c: Sequence[float]
    n_trunc: int

    def __post_init__(self):
        n = self.n_trunc
        if n < 2:
            raise ModelError("random walk needs at least two states")
        a, b, c = self._arrays()
        if b.shape != (n,) or c.shape != (n,) or a.shape != (n - 1,):
            raise ModelError("coefficient arrays must have lengths n, n, n-1")
        if (b <= 0).any() or (c <= 0).any() or (a <= 0).any():
            raise ModelError("random walk coefficients must be strictly positive")
        if abs(b[0] + c[0] - 1.0) > PROB_ATOL:
            raise ModelError("b[0] + c[0] must equal 1")
        bad = np.abs(a + b[1:] + c[1:] - 1.0) > PROB_ATOL
        if bad.any():
            i = int(np.argmax(bad)) + 1
            raise ModelError(f"a[{i}] + b[{i}] + c[{i}] must equal 1")

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``a``, ``b`` and ``c`` as float arrays."""
        return tuple(np.asarray(v, dtype=float) for v in (self.a, self.b, self.c))

    def ratio_partial_sums(self) -> list[float]:
        """Partial sums of prod_{i<=k} c[i-1]/a[i], inf where they overflow;
        boundedness of these is the positive-recurrence proxy for the untruncated chain."""
        a, _, c = self._arrays()
        with np.errstate(over="ignore"):  # an upward drift makes them unbounded
            return np.cumsum(np.cumprod(c[:-1] / a)).tolist()


def random_walk_model(params: RandomWalkParams) -> FilterModel:
    """Truncated birth-death chain observed through column parity: one
    member keeps the odd columns, the other the even columns."""
    n = params.n_trunc
    a, b, c = params._arrays()
    hold = np.append(b[:-1], b[-1] + c[-1])  # the up-rate folded in at the top
    i = np.arange(n)
    entries = np.concatenate([np.column_stack((i[1:], i[:-1], a)), np.column_stack((i, i, hold)),
                              np.column_stack((i[:-1], i[1:], c[:-1]))])
    P = TransitionMatrix(NonnegMatrix(n, n, entries))
    lumping = [1 if j % 2 == 1 else 2 for j in range(n)]
    partition = partition_from_lumping(P, lumping)
    meta = {
        "name": "random_walk",
        "partition_spec": {"lumping": lumping},
        "boundary": {"rule": "reflect", "folded_up_rate": float(c[-1])},
        "ratio_partial_sums": params.ratio_partial_sums(),
    }
    return FilterModel(partition, meta=meta)


def random_walk_case_a(n: int = 64) -> FilterModel:
    """Constant holding probability 1/3 with downward drift; the rank-one
    detector converges on this model."""
    b = tuple(1.0 / 3.0 for _ in range(n))
    c = (2.0 / 3.0,) + tuple(1.0 / 6.0 for _ in range(n - 1))
    a = tuple(0.5 for _ in range(n - 1))
    model = random_walk_model(RandomWalkParams(a=a, b=b, c=c, n_trunc=n))
    model.meta["name"] = "random_walk_case_a"
    return model


def random_walk_case_b(n: int = 64, peak_state: int = 1, peak_hold: float = 0.6) -> FilterModel:
    """A single state holds with strictly larger probability than all
    others; the repeated single-label powers then converge to a rank-one
    matrix concentrated on that state's column."""
    if not (0 < peak_state < n - 1):
        raise ModelError("peak_state must be interior")
    b = [1.0 / 3.0] * n
    c = [1.0 / 6.0] * n
    a = [0.5] * (n - 1)
    c[0] = 2.0 / 3.0
    b[peak_state] = peak_hold
    a[peak_state - 1] = 0.3
    c[peak_state] = 1.0 - peak_hold - 0.3
    if c[peak_state] <= 0:
        raise ModelError("peak_hold too large")
    model = random_walk_model(RandomWalkParams(a=tuple(a), b=tuple(b), c=tuple(c), n_trunc=n))
    model.meta["name"] = "random_walk_case_b"
    model.meta["peak_state"] = peak_state
    return model


# ---------------------------------------------------------------------------
# block-permutation families
# ---------------------------------------------------------------------------

@dataclass
class PermFamilySpec:
    """A base chain on block indices, a column-exclusive partition of it,
    and a permutation for every positive (block, block, label) transition.

    Column exclusivity means every member row has at most one positive
    entry, so each (start block, label) pair determines the landing block;
    the permutations then act on the within-block coordinates, which makes
    the induced filter an exact isometry on every block simplex.
    """

    base: TransitionMatrix
    members: Partition
    d: int
    Q: Mapping[tuple, Sequence[int]] | Callable[[int, int, object], Sequence[int]]

    def __post_init__(self):
        if self.d < 2:
            raise ModelError("block size d must be at least 2")
        if self.members.base is not self.base and not np.allclose(
            self.members.base.toarray(), self.base.toarray()
        ):
            raise ModelError("members must partition the base chain")
        for w, M in self.members:
            if (np.diff(M.indptr) > 1).any():
                raise ModelError(f"member {w!r} violates column exclusivity "
                                 "(a row has two positive entries)")

    def perm(self, i: int, k: int, w) -> np.ndarray:
        if callable(self.Q):
            sigma = self.Q(i, k, w)
        else:
            try:
                sigma = self.Q[(i, k, w)]
            except KeyError:
                raise ModelError(f"no permutation supplied for transition ({i}, {k}, {w!r})") from None
        # the length first: a large d would build a long range, a large int an overflow
        if len(sigma) != self.d or sorted(sigma) != list(range(self.d)):
            raise ModelError(f"Q({i}, {k}, {w!r}) is not a permutation of range(d)")
        return np.asarray(sigma, dtype=int)


def _perm_members(spec: PermFamilySpec) -> tuple[dict, TransitionMatrix]:
    """Each member of ``spec`` with its block transitions blown up into d x d
    permutation blocks, and the chain they sum to."""
    d, n = spec.d, spec.base.n * spec.d
    members = {w: NonnegMatrix(n, n, [(i * d + j, k * d + s, v) for i, k, v in M.triplets()
                                      for j, s in enumerate(spec.perm(i, k, w).tolist())])
               for w, M in spec.members}
    return members, TransitionMatrix(functools.reduce(NonnegMatrix.add, members.values()))


def perm_family_model(spec: PermFamilySpec) -> FilterModel:
    """Blow each block transition up into a d x d permutation block.

    State (i, j) maps to flat index i*d + j.  The resulting partition
    satisfies the non-stability hypotheses on every block simplex
    {i} x {0..d-1}.
    """
    nb, d = spec.base.n, spec.d
    partition = Partition(*_perm_members(spec))  # first: it checks d before meta spans it
    meta = {
        "name": "perm_family",
        "blocks": [[i * d + j for j in range(d)] for i in range(nb)],
        "block_size": d,
    }
    return FilterModel(partition, meta=meta)


def kesten_perm_spec() -> PermFamilySpec:
    """The Kesten chain written as a block-permutation family: two blocks of
    size four over the symmetric two-state base chain.  The permutations were
    recovered by block inspection of the 8x8 matrix; all four are odd, which
    is what makes the induced filter periodic."""
    base = TransitionMatrix.from_dense([[0.5, 0.5], [0.5, 0.5]])
    members = partition_from_lumping(base, ["a", "b"])
    swap34 = [0, 1, 3, 2]
    cycle = [3, 2, 0, 1]
    Q = {
        (0, 0, "a"): swap34,
        (1, 0, "a"): swap34,
        (0, 1, "b"): swap34,
        (1, 1, "b"): cycle,
    }
    return PermFamilySpec(base=base, members=members, d=4, Q=Q)


# ---------------------------------------------------------------------------
# Birkhoff decomposition
# ---------------------------------------------------------------------------

def _lex_perfect_matching(support: np.ndarray) -> list[int] | None:
    """Row-by-row backtracking matching on a boolean support matrix, trying
    columns in ascending order (lexicographic tie-break)."""
    n = support.shape[0]
    assign: list[int] = []
    used = [False] * n

    def rec(row: int) -> bool:
        if row == n:
            return True
        for col in range(n):
            if support[row, col] and not used[col]:
                used[col] = True
                assign.append(col)
                if rec(row + 1):
                    return True
                assign.pop()
                used[col] = False
        return False

    return assign if rec(0) else None


def birkhoff_decompose(D, tol: float = 1e-9) -> list[tuple[float, np.ndarray]]:
    """Write a doubly stochastic matrix as a convex mix of permutations.

    Repeatedly finds a perfect matching on the positive support and removes
    the minimal matched weight.  Returns (weight, permutation array sigma)
    pairs with weights summing to 1 reconstructing ``D`` entrywise; at most
    (n-1)^2 + 1 terms.
    """
    a = D.toarray() if isinstance(D, NonnegMatrix) else np.asarray(D, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ModelError("birkhoff_decompose expects a square matrix")
    n = a.shape[0]
    if (a < -tol).any():
        raise ModelError("matrix must be nonnegative")
    if not (np.abs(a.sum(axis=1) - 1.0).max() <= tol and np.abs(a.sum(axis=0) - 1.0).max() <= tol):
        raise ModelError("matrix is not doubly stochastic within tol")

    work = a.copy()
    out: list[tuple[float, np.ndarray]] = []
    max_terms = (n - 1) ** 2 + 1
    eps = 1e-12
    for _ in range(max_terms):
        if work.max() <= eps:
            break
        sigma = _lex_perfect_matching(work > eps)
        if sigma is None:
            raise ModelError("no perfect matching on the residual support; input too far from doubly stochastic")
        weight = float(min(work[i, sigma[i]] for i in range(n)))
        out.append((weight, np.asarray(sigma, dtype=int)))
        for i in range(n):
            work[i, sigma[i]] -= weight
        work[work < eps] = 0.0
    total = sum(w for w, _ in out)
    out = [(w / total, sigma) for w, sigma in out]
    return out


def birkhoff_partition_model(D, tol: float = 1e-9) -> FilterModel:
    """Explicit partition of a doubly stochastic matrix into its weighted
    permutation terms; the resulting filter satisfies the non-stability
    hypotheses on the full state set."""
    terms = birkhoff_decompose(D, tol=tol)
    n = terms[0][1].size
    members = {f"p{k}": NonnegMatrix(n, n, [(i, int(sigma[i]), w) for i in range(n)])
               for k, (w, sigma) in enumerate(terms)}
    # rebuild the base from the terms, in term order, so the partition sum is exact
    P = TransitionMatrix(functools.reduce(NonnegMatrix.add, members.values()))
    return FilterModel(Partition(members, P), meta={"name": "birkhoff", "terms": len(terms)})
