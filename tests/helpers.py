"""Shared generators and independent oracles for the test suite.

The oracles here (sign-vector operator norm, quantifier subrectangularity,
spanning-tree transport enumeration) deliberately avoid the library code
paths they are used to check.  The ``reference_*`` functions keep earlier
code paths as differential oracles for what replaced them: the word
searches of ``filtermc.stability`` (three hand-written walks, each with its
own budget bookkeeping, forming one product per word and label) for the
shared search engine and its block walk, the all-pairs ``r x r x n``
proximity and the pair-by-pair isometry check for the blocked distance
kernel and the spread bound, the fixed-point power walk, the
list-based atom merge for the one filled in place, the per-label loops of
the filter kernel (one ``left_apply`` per label) for ``Partition.fan_out``
and its batched callers, one entropy walk per start for the bracket's
shared walk, the simulator's per-step numpy draw (one
``rng.random()``, ``np.cumsum`` and ``searchsorted`` a step) for the draw
on Python floats, the trace writer with one ``repr`` per coordinate for
the memoised and blocked one, the triplet scans of the partition constructors
for their masks, the random-walk gallery's tuple loops for its arrays, the
dense support-graph walks and the stationary power iteration for the sparse
graph check, connector search and direct
stationary solve, and ``linprog`` for the transport LP on the HiGHS core.
``from_csr_array`` and ``as_csr_array`` move CSR arrays between
``NonnegMatrix`` and scipy, for the differential tests of its kernels.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse import _sparsetools
from scipy.sparse.csgraph import connected_components

from filtermc import (
    DiscreteMeasure,
    FilterTrace,
    ModelError,
    NonnegMatrix,
    Partition,
    StabilityVerdict,
    TestFunction,
    TransitionMatrix,
    is_subrectangular,
    kesten_perm_spec,
    matrix_word_product,
    operator_norm,
    partition_from_lumping,
    partition_from_observation,
    stationary_vector,
)
from filtermc.core_model import (
    PROB_ATOL,
    ProbVector,
    _lumping_as_list,
    as_prob_vector,
    label_sort_key,
)
from filtermc.entropy import _PI_FLOOR, EntropyReport, EntropySeries, h
from filtermc.filter_dynamics import Outcome, evolve, simulate_filter
from filtermc.kantorovich import _transport_columns
from filtermc.stability import (
    NonstabilityReport,
    _active_words,
    default_col_bound,
    default_search_depth,
)



def from_csr_array(a) -> NonnegMatrix:
    """The ``NonnegMatrix`` holding the arrays of a scipy CSR array as they
    are.  A matrix stores sorted columns without duplicates, and positive
    values only, so an array that does not is rejected: sort it with
    ``sort_indices`` and drop its zeros with ``eliminate_zeros`` first."""
    if not _sparsetools.csr_has_canonical_format(a.shape[0], a.indptr, a.indices):
        raise ValueError("from_csr_array needs sorted column indices without duplicates")
    if not (a.data > 0).all():
        raise ValueError("from_csr_array needs positive stored values")
    return NonnegMatrix._csr(a.shape, a.indptr, a.indices, a.data)


def as_csr_array(M: NonnegMatrix) -> sp.csr_array:
    """A scipy CSR array on a copy of ``M``'s arrays."""
    return sp.csr_array((M.data.copy(), M.indices.copy(), M.indptr.copy()), shape=(M.rows, M.cols))

# ---------------------------------------------------------------------------
# random model generators
# ---------------------------------------------------------------------------

def kesten_perm_params(labels=("a", "b")) -> dict:
    """:func:`kesten_perm_spec` as a ``gallery perm-family --params``
    document, its labels ``"a"`` and ``"b"`` renamed to ``labels``.  Its
    members are the lumping of the two base states."""
    spec = kesten_perm_spec()
    rename = dict(zip(("a", "b"), labels))
    return {"base": spec.base.toarray().tolist(),
            "members": {"lumping": list(labels)},
            "d": spec.d,
            "Q": {f"{i},{k},{rename[w]}": list(sigma) for (i, k, w), sigma in spec.Q.items()}}


def random_transition(rng, n: int, sparsity: float = 0.0) -> TransitionMatrix:
    """Random row-stochastic matrix; with sparsity > 0 some entries are
    zeroed (rows keep at least two positive entries)."""
    rows = rng.dirichlet(np.ones(n), size=n)
    if sparsity > 0.0 and n > 2:
        for i in range(n):
            mask = rng.random(n) < sparsity
            keep = np.flatnonzero(~mask)
            if keep.size < 2:
                keep = rng.choice(n, size=2, replace=False)
            row = np.zeros(n)
            row[keep] = rng.dirichlet(np.ones(keep.size))
            rows[i] = row
    return TransitionMatrix.from_dense(rows)


def random_partition(rng, P: TransitionMatrix, num_labels: int, kind: str | None = None) -> Partition:
    """Random partition of P: lumping, observation, or explicit value split."""
    n = P.n
    if kind is None:
        kind = rng.choice(["lumping", "observation", "explicit"])
    if kind == "lumping":
        g = [int(rng.integers(num_labels)) for _ in range(n)]
        # make the label set surjective so num_labels is honest
        for a in range(min(num_labels, n)):
            g[a] = a
        return partition_from_lumping(P, g)
    if kind == "observation":
        R = rng.dirichlet(np.ones(num_labels), size=n)
        return partition_from_observation(P, NonnegMatrix.from_dense(R))
    # explicit: split every entry across labels with positive weights
    members = {a: [] for a in range(num_labels)}
    for i, j, v in P.triplets():
        weights = rng.dirichlet(np.ones(num_labels))
        weights = np.maximum(weights, 1e-12)
        weights /= weights.sum()
        for a in range(num_labels):
            members[a].append((i, j, v * weights[a]))
    return Partition(
        {a: NonnegMatrix(n, n, trips) for a, trips in members.items()}, P
    )


def random_measure(rng, dim: int, atoms: int) -> DiscreteMeasure:
    w = rng.dirichlet(np.ones(atoms))
    pts = rng.dirichlet(np.ones(dim), size=atoms)
    return DiscreteMeasure(w, pts, merge_eps=0.0)


def random_affine_max(rng, n: int, pieces: int = 3) -> TestFunction:
    ps = [(rng.uniform(-1.0, 1.0, size=n), float(rng.uniform(-0.5, 0.5)))
          for _ in range(pieces)]
    return TestFunction.affine_max(ps)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def reference_solve_linprog(c: np.ndarray, b_eq: np.ndarray, m: int, n: int) -> np.ndarray:
    """The transportation LP of ``kantorovich._solve_highs`` through
    ``linprog(method="highs")``, which the direct HiGHS call reproduces."""
    start, index = _transport_columns(m, n)
    A_eq = sp.csc_array((np.ones(index.size), index, start), shape=(m + n - 1, m * n))
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise ModelError(f"transport solver failed: {res.message}")
    return res.x


def operator_norm_by_sign_vectors(M: NonnegMatrix) -> float:
    """Brute force over the extreme points +-e_i of the l1 unit ball."""
    a = M.toarray()
    best = 0.0
    n = a.shape[0]
    for i in range(n):
        for sign in (1.0, -1.0):
            x = np.zeros(n)
            x[i] = sign
            best = max(best, float(np.abs(x @ a).sum()))
    return best


def subrectangular_by_quantifiers(a: np.ndarray) -> bool:
    """Literal four-index quantifier check."""
    nz = list(zip(*np.nonzero(a)))
    for (i1, j1) in nz:
        for (i2, j2) in nz:
            if a[i1, j2] == 0 or a[i2, j1] == 0:
                return False
    return True


def transport_by_tree_enumeration(mu_w: np.ndarray, nu_w: np.ndarray, C: np.ndarray) -> float:
    """Exact min-cost transport by enumerating spanning-tree vertices of the
    transportation polytope (feasible for supports up to about 3x3)."""
    m, n = C.shape
    cells = list(itertools.product(range(m), range(n)))
    nodes = m + n
    best = np.inf
    for subset in itertools.combinations(cells, nodes - 1):
        # spanning tree check on the bipartite graph
        parent = list(range(nodes))

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        acyclic = True
        for (i, j) in subset:
            ru, rv = find(i), find(m + j)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if not acyclic or len({find(u) for u in range(nodes)}) != 1:
            continue
        flow = _solve_tree_flow(subset, mu_w, nu_w, m, n)
        if flow is None:
            continue
        cost = sum(f * C[i, j] for (i, j), f in zip(subset, flow))
        best = min(best, cost)
    return float(best)


def _solve_tree_flow(edges, mu_w, nu_w, m, n):
    residual = np.concatenate([np.asarray(mu_w, dtype=float), np.asarray(nu_w, dtype=float)])
    adj = {u: [] for u in range(m + n)}
    for k, (i, j) in enumerate(edges):
        adj[i].append((k, m + j))
        adj[m + j].append((k, i))
    flow = [None] * len(edges)
    degree = {u: len(adj[u]) for u in adj}
    leaves = [u for u, d in degree.items() if d == 1]
    removed = [False] * len(edges)
    while leaves:
        u = leaves.pop()
        edge = next(((k, v) for k, v in adj[u] if not removed[k]), None)
        if edge is None:
            continue
        k, v = edge
        flow[k] = residual[u]
        if flow[k] < -1e-12:
            return None
        residual[v] -= residual[u]
        residual[u] = 0.0
        removed[k] = True
        degree[u] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            leaves.append(v)
    if any(f is None for f in flow) or np.abs(residual).max() > 1e-9:
        return None
    if min(flow) < -1e-12:
        return None
    return [max(0.0, f) for f in flow]


def measures_close(mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = 1e-9) -> bool:
    """Equality of discrete measures up to atom matching at tolerance."""
    if mu.size != nu.size:
        return False
    used = [False] * nu.size
    for w, p in zip(mu.weights, mu.points):
        hit = False
        for k in range(nu.size):
            if used[k]:
                continue
            if abs(w - nu.weights[k]) <= tol and np.abs(p - nu.points[k]).sum() <= tol:
                used[k] = True
                hit = True
                break
        if not hit:
            return False
    return True


# ---------------------------------------------------------------------------
# reference word searches
# ---------------------------------------------------------------------------

def reference_l1_distances(rows: np.ndarray) -> np.ndarray:
    """The full ``r x r`` matrix of l1 distances, from one ``r x r x n`` array."""
    return np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2)


def _reference_kept_rows(M, row_floor: float) -> np.ndarray:
    a = M.toarray() if isinstance(M, NonnegMatrix) else np.asarray(M, dtype=float)
    sums = a.sum(axis=1)
    keep = sums > row_floor
    if not keep.any():
        raise ModelError("rank_one_proximity: all rows at or below the floor")
    return a[keep] / sums[keep, None]


def reference_rank_one_proximity(M, row_floor: float = 0.0) -> float:
    rows = _reference_kept_rows(M, row_floor)
    if rows.shape[0] == 1:
        return 0.0
    return float(reference_l1_distances(rows).max())


def _reference_word_key(word: tuple):
    return len(word), label_sort_key(word)


def reference_check_isometry_obstruction(m: Partition, subset, n_max: int = 4,
                                         sample_count: int = 6, seed: int = 0,
                                         dedup_eps: float = 1e-9) -> NonstabilityReport:
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

    actives = [reference_active_words(x, m, n_max) for x in samples]

    pairs = list(itertools.combinations(range(len(samples)), 2))
    diffs = ((a, b, set(actives[a]) ^ set(actives[b])) for a, b in pairs)
    words_witness = next(({"pair": (a, b), "differing_word": min(diff, key=_reference_word_key)}
                          for a, b, diff in diffs if diff), None)
    equal_words = words_witness is None

    max_dev = 0.0
    iso_witness = None
    words = sorted(set().union(*actives), key=_reference_word_key)
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

    separation = float("inf")
    for act in actives:
        pts = [direction for _, direction in act.values()]
        uniq: list[np.ndarray] = []
        for p in pts:
            if not any(np.abs(p - q).sum() <= dedup_eps for q in uniq):
                uniq.append(p)
        if len(uniq) < 2:
            continue
        d = reference_l1_distances(np.asarray(uniq))
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


def reference_word_search(m: Partition, predicate, max_len: int, budget: int):
    if max_len < 1:
        raise ModelError("word search requires max_len >= 1")
    labels = m.labels
    exhaustive_depth = min(max_len, default_search_depth(len(labels)))
    examined = 0

    stack = [((w,), m.member(w)) for w in reversed(labels)]
    while stack and examined < budget:
        word, prod = stack.pop()
        examined += 1
        if not prod.is_zero() and predicate(prod):
            return word
        if len(word) < exhaustive_depth and not prod.is_zero():
            for w in reversed(labels):
                stack.append((word + (w,), prod @ m.member(w)))

    word: tuple = ()
    prod = NonnegMatrix.identity(m.n)
    while len(word) < max_len:
        best = None
        for w in labels:
            if examined >= budget:  # no candidate is formed past the budget
                return None
            cand = prod @ m.member(w)
            examined += 1
            nrm = operator_norm(cand)
            if nrm > 0 and (best is None or nrm > best[2] + 1e-15):
                best = (w, cand, nrm)
        if best is None:
            break
        word = word + (best[0],)
        prod = best[1].scaled(1.0 / best[2])
        if predicate(prod):
            return word
    return None


def _reference_normalized(M: NonnegMatrix) -> NonnegMatrix:
    nrm = operator_norm(M)
    if nrm <= 0:
        raise ModelError("cannot normalise the zero matrix")
    return M.scaled(1.0 / nrm)


def reference_powers(base: NonnegMatrix, iters: int) -> list:
    """The normalised powers 1..iters of ``base``, every one formed from the
    one before; the list ends before the first power that vanishes."""
    powers: list = []
    H = base
    while len(powers) < iters and not H.is_zero():
        powers.append(_reference_normalized(H))
        H = powers[-1] @ powers[0]
    return powers


def reference_power_curve(m: Partition, unit: tuple, tol: float, row_floor: float, iters: int):
    base = matrix_word_product(m, unit)
    if base.is_zero():
        return [], None, 0
    base = _reference_normalized(base)
    H = base
    curve = []
    for k in range(1, iters + 1):
        prox = reference_rank_one_proximity(H, row_floor)
        curve.append(prox)
        if prox <= tol:
            return curve, H, k
        if k < iters:  # the last power is never read, so it is not formed
            H = H @ base
            if H.is_zero():  # a vanishing power ends the curve
                break
            H = _reference_normalized(H)
    return curve, None, 0


def reference_detect_rank_one_limit(m: Partition, tol: float = 1e-8, max_depth=None,
                                    power_iters: int = 500, row_floor=None, repeat_words=None,
                                    policy=("exhaustive", "repeat", "greedy"),
                                    budget: int = 200_000) -> StabilityVerdict:
    if row_floor is None:
        row_floor = math.sqrt(tol)
    if max_depth is None:
        max_depth = default_search_depth(m.num_labels)
    diagnostics: dict = {"tol": tol, "row_floor": row_floor, "curves": {}}
    examined = 0
    best_prox = float("inf")
    best_word = None

    if "exhaustive" in policy and max_depth >= 1:
        stack = [((w,), m.member(w)) for w in reversed(m.labels)]
        while stack and examined < budget:
            word, prod = stack.pop()
            examined += 1
            if prod.is_zero():
                continue
            H = _reference_normalized(prod)
            prox = reference_rank_one_proximity(H, row_floor)
            if prox < best_prox:
                best_prox, best_word = prox, word
            if prox <= tol:
                diagnostics["examined"] = examined
                diagnostics["min_proximity"] = prox
                return StabilityVerdict("b1_converged", word=word, W=H,
                                        diagnostics=diagnostics | {"policy": "exhaustive"})
            if len(word) < max_depth:
                for w in reversed(m.labels):
                    stack.append((word + (w,), prod @ m.member(w)))

    if "repeat" in policy:
        if repeat_words is None:
            singles = [(w,) for w in m.labels]
            pairs = [(w1, w2) for w1 in m.labels for w2 in m.labels if (w1,) != (w2,)]
            repeat_words = singles + pairs
        for unit in repeat_words:
            # no power is formed past the budget
            curve, W, reps = reference_power_curve(m, tuple(unit), tol, row_floor,
                                                   min(power_iters, budget - examined))
            examined += len(curve)
            diagnostics["curves"][repr(tuple(unit))] = curve
            if curve:
                best_here = min(curve)
                if best_here < best_prox:  # the first power that attains it
                    best_prox, best_word = best_here, tuple(unit) * (curve.index(best_here) + 1)
            if W is not None:
                diagnostics["examined"] = examined
                diagnostics["min_proximity"] = min(curve)
                return StabilityVerdict("b1_converged", word=tuple(unit), W=W,
                                        diagnostics=diagnostics | {
                                            "policy": "repeat", "repetitions": reps})

    if "greedy" in policy and examined < budget:
        word: tuple = ()
        prod = NonnegMatrix.identity(m.n)
        curve = []
        greedy_len = max(32, 2 * m.n)
        while len(word) < greedy_len:
            best, paid = None, True
            for w in m.labels:
                if examined >= budget:  # no candidate is formed past the budget
                    paid = False
                    break
                cand = prod @ m.member(w)
                examined += 1
                nrm = operator_norm(cand)
                if nrm > 0 and (best is None or nrm > best[2] + 1e-15):
                    best = (w, cand, nrm)
            if best is None or not paid:
                break
            word = word + (best[0],)
            prod = best[1].scaled(1.0 / best[2])
            prox = reference_rank_one_proximity(prod, row_floor)
            curve.append(prox)
            if prox < best_prox:
                best_prox, best_word = prox, word
            if prox <= tol:
                diagnostics["curves"]["greedy"] = curve
                diagnostics["examined"] = examined
                diagnostics["min_proximity"] = prox
                return StabilityVerdict("b1_converged", word=word, W=prod,
                                        diagnostics=diagnostics | {"policy": "greedy"})
        diagnostics["curves"]["greedy"] = curve

    diagnostics["examined"] = examined
    diagnostics["min_proximity"] = best_prox
    diagnostics["best_word"] = best_word
    return StabilityVerdict("undecided", diagnostics=diagnostics | {"budget_spent": examined})


def reference_compose_rank_one_witness(m: Partition, max_len: int = 8, tol: float = 1e-9,
                                       col_bound=None, power_iters: int = 10_000,
                                       row_floor=None):
    verdict = reference_check_irreducible_aperiodic(m.base)
    if not (verdict["irreducible"] and verdict["aperiodic"]):
        raise ModelError("witness composition requires an irreducible aperiodic base chain")
    if row_floor is None:
        row_floor = math.sqrt(tol)

    word_a = reference_word_search(m, is_subrectangular, max_len, 200_000)
    if word_a is None:
        return None
    bound = default_col_bound(m.n) if col_bound is None else int(col_bound)
    word_b = reference_word_search(m, lambda prod: prod.nonzero_column_count() <= bound,
                                   max_len, 200_000)
    if word_b is None:
        return None
    Ma = matrix_word_product(m, word_a)
    Mb = matrix_word_product(m, word_b)
    i1, j1, _ = Ma.triplets()[0]
    i0, j0, _ = Mb.triplets()[0]
    conn_len = max(2 * m.n, max_len)
    word_c = reference_connector_word(m, j1, i0, conn_len)
    word_d = reference_connector_word(m, j0, i1, conn_len)
    if word_c is None or word_d is None:
        return None

    word = tuple(word_d) + tuple(word_a) + tuple(word_c) + tuple(word_b)
    G = matrix_word_product(m, word)
    if G.is_zero():
        return None
    H = _reference_normalized(G)
    base = H
    for _ in range(power_iters):
        if reference_rank_one_proximity(H, row_floor) <= tol:
            return word, H
        H = H @ base
        # a vanishing power ends the walk, as in reference_power_curve
        if H.is_zero():
            return None
        H = _reference_normalized(H)
    return None


# ---------------------------------------------------------------------------
# reference partition constructors: a scan of Python triplets per label
# ---------------------------------------------------------------------------

def reference_partition_from_lumping(P: TransitionMatrix, g) -> Partition:
    gl = _lumping_as_list(g, P.n)
    members = {}
    for a in sorted(set(gl), key=label_sort_key):
        cols = {j for j, lab in enumerate(gl) if lab == a}
        members[a] = NonnegMatrix(P.n, P.n, [(i, j, v) for i, j, v in P.triplets()
                                             if j in cols])
    return Partition(members, P)


def reference_partition_from_observation(P: TransitionMatrix, R) -> Partition:
    Rd = np.asarray(R, dtype=float)
    members = {}
    for a in range(Rd.shape[1]):
        members[a] = NonnegMatrix(P.n, P.n, [(i, j, v * Rd[j, a]) for i, j, v in P.triplets()
                                             if Rd[j, a] > 0.0])
    return Partition(members, P)


def reference_random_walk(a, b, c, n: int):
    """What ``RandomWalkParams`` and ``random_walk_model`` made of the
    coefficients with tuple loops: the error message, or None and the
    chain's triplets (sorted) and ratio partial sums."""
    if n < 2:
        return "random walk needs at least two states", None, None
    if len(b) != n or len(c) != n or len(a) != n - 1:
        return "coefficient arrays must have lengths n, n, n-1", None, None
    if min(b) <= 0 or min(c) <= 0 or min(a) <= 0:
        return "random walk coefficients must be strictly positive", None, None
    if abs(b[0] + c[0] - 1.0) > PROB_ATOL:
        return "b[0] + c[0] must equal 1", None, None
    for i in range(1, n):
        if abs(a[i - 1] + b[i] + c[i] - 1.0) > PROB_ATOL:
            return f"a[{i}] + b[{i}] + c[{i}] must equal 1", None, None
    entries = [(0, 0, b[0]), (0, 1, c[0])]
    for i in range(1, n - 1):
        entries += [(i, i - 1, a[i - 1]), (i, i, b[i]), (i, i + 1, c[i])]
    entries += [(n - 1, n - 2, a[n - 2]), (n - 1, n - 1, b[n - 1] + c[n - 1])]
    sums, total, prod = [], 0.0, 1.0
    for k in range(1, n):
        prod *= c[k - 1] / a[k - 1]
        total += prod
        sums.append(total)
    return None, sorted(entries), sums


# ---------------------------------------------------------------------------
# reference atom merge: representatives kept in lists
# ---------------------------------------------------------------------------

def reference_merge_atoms(w: np.ndarray, pts: np.ndarray, eps: float):
    rep_w: list[float] = []
    rep_p: list[np.ndarray] = []
    for k in range(w.shape[0]):
        p = pts[k]
        merged = False
        if rep_p:
            stack = np.asarray(rep_p)
            d = np.abs(stack - p).sum(axis=1)
            j = int(np.argmin(d))
            if d[j] <= eps:
                # keep the coordinates of the weight-larger atom
                if w[k] > rep_w[j]:
                    rep_p[j] = p
                rep_w[j] += float(w[k])
                merged = True
        if not merged:
            rep_w.append(float(w[k]))
            rep_p.append(p)
    return np.asarray(rep_w), np.asarray(rep_p)


# ---------------------------------------------------------------------------
# reference filter kernel: one left_apply per label
# ---------------------------------------------------------------------------

def reference_step_outcomes(x, m: Partition, threshold: float = 0.0) -> list[Outcome]:
    xv = as_prob_vector(x)
    if xv.dim != m.n:
        raise ModelError("state vector dimension does not match the partition")
    out = []
    for w, M in m:
        y = M.left_apply(xv.coords)
        p = float(y.sum())
        if p > threshold:
            out.append(Outcome(w, p, ProbVector(y / p)))
    return out


def reference_pushforward(mu: DiscreteMeasure, m: Partition, prune: float = 1e-12,
                          merge_eps: float = 1e-10) -> DiscreteMeasure:
    new_w: list[float] = []
    new_p: list[np.ndarray] = []
    pruned_share = 0.0  # of this step's measure
    pruned_count = mu.pruned_count
    for w_atom, point in zip(mu.weights, mu.points):
        for w, M in m:
            y = M.left_apply(point)
            p = float(y.sum())
            if p <= 0.0:
                continue
            mass = float(w_atom) * p
            if mass <= prune:
                pruned_share += mass
                pruned_count += 1
                continue
            new_w.append(mass)
            new_p.append(y / p)
    if not new_w:
        raise ModelError("pushforward pruned away all mass; lower `prune`")
    new_w = np.asarray(new_w)
    if abs(float(new_w.sum()) - 1.0) > 1e-9:  # renormalise the kept mass
        new_w = new_w / new_w.sum()
    pruned_mass = mu.pruned_mass + (1.0 - mu.pruned_mass) * pruned_share
    return DiscreteMeasure(new_w, new_p, merge_eps=merge_eps,
                           pruned_mass=pruned_mass, pruned_count=pruned_count)


class _Kahan:
    """Compensated accumulator; summation order is the word order."""

    __slots__ = ("total", "comp")

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, value: float) -> None:
        y = value - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


def reference_entropy_series(x, m: Partition, n_max: int, prune: float = 1e-12) -> EntropySeries:
    if n_max < 1:
        raise ModelError("entropy_series requires n_max >= 1")
    xv = as_prob_vector(x)
    acc = [_Kahan() for _ in range(n_max)]
    pruned_mass = 0.0
    pruned_count = 0

    def rec(vec: np.ndarray, mass: float, depth: int) -> None:
        nonlocal pruned_mass, pruned_count
        for w, M in m:
            y = M.left_apply(vec)
            p = float(y.sum())
            if p <= 0.0:
                continue
            child_mass = mass * p
            if child_mass <= prune:
                pruned_mass += child_mass
                pruned_count += 1
                continue
            acc[depth].add(h(child_mass))
            if depth + 1 < n_max:
                rec(y / p, child_mass, depth + 1)

    rec(xv.coords, 1.0, 0)
    return EntropySeries(values=tuple(a.total for a in acc), pruned_mass=pruned_mass,
                         pruned_count=pruned_count)


def reference_entropy_bracket(m: Partition, n_max: int, prune: float = 1e-12,
                              pi: ProbVector | None = None) -> EntropyReport:
    """The bracket by one walk from ``pi`` and one from each vertex ``e_i``
    with ``pi_i > _PI_FLOOR``, each walked alone."""
    if n_max < 1:
        raise ModelError("entropy_bracket requires n_max >= 1")
    if pi is None:
        pi = stationary_vector(m.base)
    pi_series = reference_entropy_series(pi, m, n_max + 1, prune=prune)
    upper = tuple(pi_series.values[k + 1] - pi_series.values[k] for k in range(n_max))
    lower_acc = [_Kahan() for _ in range(n_max)]
    pruned_mass = pi_series.pruned_mass
    folded_tail = 0.0
    for i in np.flatnonzero(pi.coords > 0):
        wi = float(pi.coords[i])
        if wi <= _PI_FLOOR:
            folded_tail += wi
            continue
        s = reference_entropy_series(ProbVector.vertex(int(i), m.n), m, n_max + 1, prune=prune)
        pruned_mass += wi * s.pruned_mass
        for k in range(n_max):
            lower_acc[k].add(wi * (s.values[k + 1] - s.values[k]))
    lower = tuple(a.total for a in lower_acc)
    return EntropyReport(horizon=n_max, H_n=pi_series.values[n_max - 1], increment=upper[-1],
                         pruned_mass=pruned_mass + folded_tail,
                         dropped_entropy_bound=pi_series.dropped_entropy_bound,
                         bracket=(lower, upper), series=pi_series)


def reference_one_step_entropy(point: np.ndarray, m: Partition, base: str) -> float:
    total = 0.0
    for _, M in m:
        p = float(M.left_apply(point).sum())
        if p <= 0.0:
            continue
        total += h(min(p, 1.0)) if base == "log2" else -p * math.log(min(p, 1.0))
    return total


def reference_entropy_rate_integral(x, m: Partition, n: int, prune: float = 1e-12) -> float:
    mu = evolve(x, m, n, prune=prune)
    total = _Kahan()
    for weight, point in zip(mu.weights, mu.points):
        total.add(float(weight) * reference_one_step_entropy(point, m, base="log2"))
    return total.total


def reference_entropy_rate_mc(m: Partition, burn_in: int = 200, samples: int = 5000,
                              seed: int = 0, x0=None, batches: int = 20) -> tuple[float, float]:
    start = as_prob_vector(x0) if x0 is not None else stationary_vector(m.base)
    trace = simulate_filter(start, m, steps=burn_in + samples, seed=seed)
    values = np.array([reference_one_step_entropy(state.coords, m, base="log2")
                       for _, state in trace.steps[burn_in:]])
    est = float(values.mean())
    per_batch = values[: (samples // batches) * batches].reshape(batches, -1).mean(axis=1)
    return est, float(per_batch.std(ddof=1) / math.sqrt(batches))


def reference_check_entropy_condition(m: Partition, sample_count: int = 32,
                                      seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    n = m.n
    best = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        best = max(best, reference_one_step_entropy(e, m, base="ln"))
    for _ in range(sample_count):
        x = rng.dirichlet(np.ones(n))
        best = max(best, reference_one_step_entropy(x, m, base="ln"))
    return best


def reference_active_words(x: np.ndarray, m: Partition, n_max: int):
    out: dict[tuple, tuple[float, np.ndarray]] = {}
    stack = [((), x, 1.0)]
    while stack:
        word, vec, mass = stack.pop()
        if len(word) >= n_max:
            continue
        for w in reversed(m.labels):
            y = m.member(w).left_apply(vec)
            p = float(y.sum())
            if p <= 0.0:
                continue
            nw = word + (w,)
            ynorm = y / p
            out[nw] = (mass * p, ynorm)
            stack.append((nw, ynorm, mass * p))
    return out


def active_word_dicts(xs, m: Partition, n_max: int) -> list[dict]:
    """The batched walk ``_active_words`` from the stacked starts ``xs``, as
    one dict per start in the form of :func:`reference_active_words`."""
    words, start, word, mass, point = _active_words(np.asarray(xs, dtype=float), m, n_max)
    out: list[dict] = [{} for _ in xs]
    for s, i, mu, pt in zip(start.tolist(), word.tolist(), mass.tolist(), point):
        out[s][words[i]] = (mu, pt)
    return out


def reference_simulate_filter(x0, m: Partition, steps: int, seed: int = 0,
                              threshold: float = 0.0) -> FilterTrace:
    if steps < 1:
        raise ModelError("simulate_filter requires steps >= 1")
    x = as_prob_vector(x0)
    rng = np.random.default_rng(seed)
    path = []
    for _ in range(steps):
        outs = reference_step_outcomes(x, m, threshold=threshold)
        if not outs:
            raise ModelError("no outcome above threshold; filter cannot move")
        probs = np.array([o.prob for o in outs])
        cdf = np.cumsum(probs)
        r = rng.random() * cdf[-1]
        k = int(np.searchsorted(cdf, r, side="right"))
        k = min(k, len(outs) - 1)
        chosen = outs[k]
        path.append((chosen.label, chosen.next_state))
        x = chosen.next_state
    return FilterTrace(x0=as_prob_vector(x0), steps=tuple(path), seed=seed)


def reference_trace_csv(trace: FilterTrace, path) -> None:
    """``FilterTrace.to_csv`` as a plain ``csv.writer`` of every row, one
    ``repr`` per coordinate."""
    n = trace.x0.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "label"] + [f"x{i}" for i in range(n)])
        writer.writerow([0, ""] + [repr(float(v)) for v in trace.x0.coords])
        for k, (lab, state) in enumerate(trace.steps, start=1):
            writer.writerow([k, lab] + [repr(float(v)) for v in state.coords])


# ---------------------------------------------------------------------------
# reference support-graph walks and stationary solve: dense supports,
# Python BFS, power iteration
# ---------------------------------------------------------------------------

def reference_check_irreducible_aperiodic(P) -> dict:
    a = P.toarray() > 0
    ncomp, comp = connected_components(sp.csr_matrix(a), directed=True, connection="strong")
    irreducible = bool(ncomp == 1)

    aperiodic = True
    for c in range(ncomp):
        nodes = np.flatnonzero(comp == c)
        if nodes.size == 0:
            continue
        inside = a[np.ix_(nodes, nodes)]
        if not inside.any():
            continue
        depth = {int(nodes[0]): 0}
        order = [int(nodes[0])]
        local = {int(s): k for k, s in enumerate(nodes)}
        g = 0
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for v_local in np.flatnonzero(inside[local[u]]):
                v = int(nodes[v_local])
                if v not in depth:
                    depth[v] = depth[u] + 1
                    order.append(v)
                else:
                    g = math.gcd(g, depth[u] + 1 - depth[v])
        for u in order:
            for v_local in np.flatnonzero(inside[local[u]]):
                v = int(nodes[v_local])
                g = math.gcd(g, depth[u] + 1 - depth[v])
        if g != 1:
            aperiodic = False
    return {"irreducible": irreducible, "aperiodic": aperiodic}


def reference_stationary_vector(P: TransitionMatrix, tol: float = 1e-12,
                                max_iter: int = 200_000) -> ProbVector:
    verdict = reference_check_irreducible_aperiodic(P)
    if not (verdict["irreducible"] and verdict["aperiodic"]):
        raise ModelError(f"stationary_vector requires an irreducible aperiodic chain, got {verdict}")
    # iterate from every point mass at once: the rows of P^k.  The stationary
    # vector is a convex combination of them (pi = pi P^k), so once the
    # column-wise spread of the rows is at most tol, every row lies within
    # tol of pi.  A small step |x P - x| bounds nothing: on a slowly mixing
    # chain, a step of 1e-12 leaves an error near 1e-12 / (1 - lambda_2)
    X = np.eye(P.n)
    for _ in range(max_iter):
        X = P.left_apply(X)
        X /= X.sum(axis=1, keepdims=True)
        if (X.max(axis=0) - X.min(axis=0)).sum() <= tol:
            return ProbVector(X.mean(axis=0))
    raise ModelError(f"power iteration did not converge within {max_iter} iterations")


def reference_connector_word(m: Partition, start: int, goal: int, max_len: int):
    if start == goal:
        return ()
    supports = {w: (M.toarray() > 0) for w, M in m}
    frontier = {start: ()}
    seen = {start}
    for _ in range(max_len):
        nxt: dict[int, tuple] = {}
        for u, word in frontier.items():
            for w in m.labels:
                for v in np.flatnonzero(supports[w][u]):
                    v = int(v)
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
