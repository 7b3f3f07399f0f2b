"""The filtering process as a Markov chain on the probability simplex.

Given a partition ``{M(w)}`` of a transition matrix, a point ``x`` of the
simplex jumps to ``x M(w) / |x M(w)|`` with probability ``|x M(w)|`` (l1
norms throughout).  This module implements one step of that kernel, its
action on finitely supported measures and on test functions, barycenters,
and seeded simulation of sample paths.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core_model import (
    PROB_ATOL,
    ModelError,
    Partition,
    ProbVector,
    _l1_pairs,
    _write_json,
    as_prob_vector,
)

__all__ = [
    "Outcome",
    "DiscreteMeasure",
    "TestFunction",
    "FilterTrace",
    "step_outcomes",
    "pushforward",
    "evolve",
    "transition_operator",
    "transition_operator_power",
    "barycenter",
    "vertex_measure",
    "simulate_filter",
    "dirac",
    "save_measure",
    "load_measure",
]

DEFAULT_PRUNE = 1e-12
DEFAULT_MERGE_EPS = 1e-10


@dataclass(frozen=True)
class Outcome:
    """One possible filter transition: observe ``label`` with probability
    ``prob`` and move to ``next_state``."""

    label: object
    prob: float
    next_state: ProbVector


def _check_threshold(name: str, value: float) -> None:
    """Raise a ModelError naming ``name`` if ``value`` is NaN: every
    comparison with it is false, so it would act as no threshold at all."""
    if math.isnan(value):
        raise ModelError(f"{name} must be a number, got {value!r}")


class DiscreteMeasure:
    """A finitely supported probability measure on the simplex.

    Atoms are ``(weight, point)`` pairs with finite points and positive
    weights summing to 1 (renormalised within the usual tolerance).
    Construction merges atoms closer than ``merge_eps`` in l1: weights add
    up and the coordinates of the heavier atom are kept, ties resolved in
    favour of the first seen.
    ``pruned_mass``/``pruned_count`` record what pushforward pruning dropped
    upstream: the share of the start's mass, ``1 - prod(1 - s_t)`` over the
    shares ``s_t`` dropped at each step, so never above 1, and the number of
    dropped branches.  They are bookkeeping, not part of the measure.
    """

    __slots__ = ("weights", "points", "pruned_mass", "pruned_count")

    def __init__(self, weights, points, merge_eps: float = DEFAULT_MERGE_EPS,
                 pruned_mass: float = 0.0, pruned_count: int = 0):
        _check_threshold("merge_eps", merge_eps)
        w = np.asarray(weights, dtype=float)
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if w.ndim != 1 or w.shape[0] != pts.shape[0]:
            raise ModelError("DiscreteMeasure weights/points mismatch")
        if w.size == 0:
            raise ModelError("DiscreteMeasure must have at least one atom")
        if (w <= 0).any():
            raise ModelError("DiscreteMeasure weights must be strictly positive")
        total = float(w.sum())
        if not abs(total - 1.0) <= PROB_ATOL:  # NaN fails too
            raise ModelError(f"DiscreteMeasure mass {total!r} deviates from 1")
        if not np.isfinite(pts).all():
            raise ModelError("DiscreteMeasure points must be finite")
        w = w / total
        if merge_eps > 0.0 and w.size > 1:
            w, pts, _ = _merge_atoms(w, pts, merge_eps)
            w = w / w.sum()
        pts = pts.copy()
        pts.setflags(write=False)
        w.setflags(write=False)
        self.weights = w
        self.points = pts
        self.pruned_mass = float(pruned_mass)
        self.pruned_count = int(pruned_count)

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def integrate(self, u: Callable[[np.ndarray], float]) -> float:
        """<u, mu> = sum of weight * u(point)."""
        return float(sum(w * u(p) for w, p in zip(self.weights, self.points)))

    def __repr__(self) -> str:
        return f"DiscreteMeasure(size={self.size}, dim={self.dim})"


_WINDOW_PAIRS = 32  # window pairs per atom above which the merge scans instead


def _merge_atoms(w: np.ndarray, pts: np.ndarray, eps: float, part: np.ndarray | None = None):
    """Greedy first-seen merge of finite atoms within l1 distance ``eps``,
    which must be >= 0: each atom joins the nearest representative so far
    (the first on ties) if that lies within eps, else it becomes one.  Atoms
    of different parts never merge (``part`` numbers each atom's, each
    part's atoms consecutive; one part by default): the representatives'
    weights, points and parts are each part's merge in turn, and exact
    duplicates collapse by (part, point).

    Representatives sit at atoms' points, so only pairs of distinct points
    within eps matter.  Numbered in the order of their keys ``p @ c``, ``c``
    in [1/2, 1]^n, those whose keys lie within ``width`` are the pairs of
    :func:`_l1_pairs` by ``count``, each summed as in the scan.  Sound: with
    u = 2**-53, a computed ``d <= eps`` bounds the true distance by
    ``eps / (1 - u)**n <= 2 eps``; keys differ by at most that plus their
    rounding, ``2 n u S`` each for S the largest l1 norm, and the slack
    covers those and the rounding of ``key + width``; parts only drop pairs.
    Above ``_WINDOW_PAIRS`` pairs per atom (say all within eps) it scans
    instead, each part's atoms against its representatives."""
    n = pts.shape[1]
    part = np.zeros(w.shape[0], int) if part is None else np.asarray(part)
    rows = np.column_stack((part, pts))  # float rows: parts are exact small integers
    _, first, group = np.unique(rows.view(np.dtype((np.void, 8 * n + 8))).ravel(),
                                return_index=True, return_inverse=True)
    keys = pts[first] @ (0.5 + 0.5 * np.modf(np.arange(n) * 0.6180339887)[0])
    order = np.argsort(keys)
    keys, group = keys[order], np.argsort(order)[group]
    pts_u, part_u = pts[first[order]], part[first[order]]  # the distinct rows in key order
    norm = float(np.abs(pts_u).sum(axis=1).max(initial=0))
    width = 2 * eps + (n + 4) * 2.0**-50 * (norm + eps)
    count = np.searchsorted(keys, keys + width, side="right") - np.arange(1, keys.size + 1)
    if n and np.isfinite(width) and int(count.sum()) <= _WINDOW_PAIRS * w.shape[0]:
        near = [[] for _ in range(keys.size)]
        for i, j, d in _l1_pairs(pts_u, count):
            hit = (d <= eps) & (part_u[i] == part_u[j])
            for g, h, dg in zip(i[hit].tolist(), j[hit].tolist(), d[hit].tolist()):
                near[g].append((dg, h))
                near[h].append((dg, g))
        # an atom at distance 0 from a representative joins it, so no two
        # representatives ever share a point, and ``rep_at[g]`` is the one
        # at ``pts_u[g]``, or -1
        rep_at, rep_w, rep_g = [-1] * keys.size, [], []
        for g, wk in zip(group.tolist(), w.tolist()):
            j = rep_at[g]
            if j < 0:
                j = min(((d, rep_at[h]) for d, h in near[g] if rep_at[h] >= 0), default=(0, -1))[1]
            if j < 0:  # a new representative, of weight 0 until this atom's is added
                j = rep_at[g] = len(rep_w)
                rep_w.append(0.0)
                rep_g.append(g)
            elif wk > rep_w[j]:  # the heavier atom keeps its coordinates
                rep_at[rep_g[j]], rep_at[g], rep_g[j] = -1, j, g
            rep_w[j] += wk
        return np.array(rep_w), pts_u[rep_g], part_u[rep_g]
    rep_w, rep_p, rep_k, lo = np.empty(w.shape[0]), np.empty(pts.shape), [], 0
    for k, p in enumerate(pts):
        u = len(rep_k)
        if k and part[k] != part[k - 1]:  # the part's representatives start at ``lo``
            lo = u
        if u > lo:
            d = np.abs(rep_p[lo:u] - p).sum(axis=1)
            j = lo + int(np.argmin(d))
            if d[j - lo] <= eps:
                if w[k] > rep_w[j]:  # the heavier atom keeps its coordinates
                    rep_p[j] = p
                rep_w[j] += w[k]
                continue
        rep_w[u], rep_p[u] = w[k], p
        rep_k.append(k)
    return rep_w[:len(rep_k)], rep_p[:len(rep_k)], part[rep_k]


def dirac(x) -> DiscreteMeasure:
    """Point mass at ``x``."""
    x = as_prob_vector(x)
    return DiscreteMeasure([1.0], [x.coords])


@dataclass
class TestFunction:
    """A real function on the simplex, optionally with a Lipschitz bound.

    ``convex_rep`` stores a finite list of affine pieces ``(a, b)`` whose
    pointwise maximum is the function; in that case the evaluator is derived
    and ``lipschitz`` defaults to the exact seminorm of an affine piece with
    respect to the l1 metric on the simplex, ``(max(a) - min(a)) / 2``,
    maximised over pieces.
    """

    evaluator: Callable[[np.ndarray], float] | None = None
    lipschitz: float | None = None
    convex_rep: list[tuple[np.ndarray, float]] | None = None

    def __post_init__(self):
        if self.convex_rep is not None:
            pieces = [(np.asarray(a, dtype=float), float(b)) for a, b in self.convex_rep]
            self.convex_rep = pieces
            if self.evaluator is None:
                A = np.stack([a for a, _ in pieces])
                bs = np.array([b for _, b in pieces])
                self.evaluator = lambda x: float((A @ np.asarray(x) + bs).max())
            if self.lipschitz is None:
                self.lipschitz = max(
                    (float(a.max() - a.min()) / 2.0) for a, _ in pieces
                )
        if self.evaluator is None:
            raise ModelError("TestFunction needs an evaluator or a convex_rep")

    @classmethod
    def constant(cls, c: float) -> "TestFunction":
        return cls(convex_rep=[(np.zeros(1), c)], evaluator=lambda x: c, lipschitz=0.0)

    @classmethod
    def coordinate(cls, i: int, n: int) -> "TestFunction":
        a = np.zeros(n)
        a[i] = 1.0
        return cls(convex_rep=[(a, 0.0)])

    @classmethod
    def affine_max(cls, pieces: Iterable[tuple[Sequence[float], float]]) -> "TestFunction":
        return cls(convex_rep=[(np.asarray(a, dtype=float), float(b)) for a, b in pieces])

    def __call__(self, x) -> float:
        c = x.coords if isinstance(x, ProbVector) else np.asarray(x, dtype=float)
        return float(self.evaluator(c))


@dataclass(frozen=True)
class FilterTrace:
    """A simulated path of the filtering process: observed labels and states.

    Steps that reach states of equal bits share one read-only ``ProbVector``
    (:func:`simulate_filter` interns them).  The last state may have no
    label above the threshold: only a step from such a state raises."""

    x0: ProbVector
    steps: tuple[tuple[object, ProbVector], ...]
    seed: int

    def labels(self) -> list:
        return [lab for lab, _ in self.steps]

    def to_csv(self, path) -> None:
        """Columns: step, label, one column per state coordinate (full
        round-trip decimal precision).  Step 0 is the start vector.

        The bytes are those of ``csv.writer`` with ``repr`` of every
        coordinate.  A path repeats its values (each state is zero off the
        columns of the last ``M(w)``), so each distinct float64 bit pattern
        is formatted once per call: bits, not values, as ``-0.0 == 0.0``.
        Rows go in blocks of about 2**13 values, which bounds the memory
        beyond the memo: each block looks up its distinct bit patterns
        (``np.unique``) and gathers its cells from their texts in one pass.
        A float's ``repr`` never needs quoting; each label's ``label,``
        prefix is still quoted by ``csv.writer``, once per label."""
        n = self.x0.dim
        rows = [("", self.x0), *self.steps]
        block = max(1, 2**13 // n)
        memo, prefixes = {}, {}
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["step", "label"] + [f"x{i}" for i in range(n)])
            for start in range(0, len(rows), block):
                part = rows[start:start + block]
                coords = np.stack([state.coords for _, state in part])
                bits, inv = np.unique(coords.view(np.int64), return_inverse=True)
                keys = bits.tolist()
                for b, v in zip(keys, bits.view(np.float64).tolist()):
                    if b not in memo:
                        memo[b] = repr(v)
                texts = np.array(list(map(memo.__getitem__, keys)), dtype=object)
                for k, (lab, _), cells in zip(range(start, start + len(part)), part,
                                              texts[inv].reshape(len(part), n).tolist()):
                    prefix = prefixes.get(id(lab))  # the trace keeps every label alive
                    if prefix is None:
                        buf = io.StringIO()
                        csv.writer(buf).writerow([lab, "x"])
                        prefix = prefixes[id(lab)] = buf.getvalue()[:-3]  # drop "x\r\n"
                    fh.write(f"{k},{prefix}{','.join(cells)}\r\n")


# ---------------------------------------------------------------------------
# the kernel, its operators, and barycenters
# ---------------------------------------------------------------------------

def step_outcomes(x, m: Partition, threshold: float = 0.0) -> list[Outcome]:
    """All one-step transitions from ``x`` with mass above ``threshold``.

    Outcomes come back sorted by label.  At ``threshold == 0`` the outcome
    probabilities sum to 1 exactly (up to float error); with a positive
    threshold the missing mass is ``1 - sum(prob)``.
    """
    xv = as_prob_vector(x)
    masses, children = m.fan_out(xv.coords)
    return [Outcome(w, float(p), ProbVector(y / p))
            for w, p, y in zip(m.labels, masses, children) if p > threshold]


def pushforward(mu: DiscreteMeasure, m: Partition, prune: float = DEFAULT_PRUNE,
                merge_eps: float = DEFAULT_MERGE_EPS) -> DiscreteMeasure:
    """One step of the kernel applied to a finitely supported measure.

    Every atom fans out over the outcome set; branches of mass at most
    ``prune`` are dropped (never silently: their ``share`` of this step's
    measure raises ``pruned_mass`` by ``(1 - pruned_mass) * share``), the rest
    is merged within ``merge_eps`` and renormalised.
    """
    _check_threshold("prune", prune)  # merge_eps is checked by the measure it builds
    masses, children = m.fan_out(mu.points)
    mass = mu.weights[:, None] * masses
    cut = (masses > 0.0) & (mass <= prune)
    keep = (masses > 0.0) & ~cut
    share = 0.0
    for t in mass[cut].tolist():  # atom by atom, each in label order
        share += t
    if not keep.any():
        raise ModelError("pushforward pruned away all mass; lower `prune`")
    w = mass[keep]  # renormalised only where the measure would reject it
    w = w / w.sum() if abs(float(w.sum()) - 1.0) > PROB_ATOL else w
    return DiscreteMeasure(w, children[keep] / masses[keep][:, None],
                           merge_eps=merge_eps,
                           pruned_mass=mu.pruned_mass + (1.0 - mu.pruned_mass) * share,
                           pruned_count=mu.pruned_count + int(cut.sum()))


def evolve(x, m: Partition, n: int, prune: float = DEFAULT_PRUNE,
           merge_eps: float = DEFAULT_MERGE_EPS) -> DiscreteMeasure:
    """The n-step distribution of the filter started at ``x``: the n-fold
    pushforward of the point mass at ``x``."""
    if n < 1:
        raise ModelError("evolve requires n >= 1")
    mu = dirac(x)
    for _ in range(n):
        mu = pushforward(mu, m, prune=prune, merge_eps=merge_eps)
    return mu


def transition_operator(u, m: Partition, x) -> float:
    """The operator dual to the kernel: ``(Tu)(x) = sum prob * u(next)``
    over the one-step outcomes from ``x``."""
    ev = u if callable(u) else u.evaluator
    return float(sum(o.prob * ev(o.next_state.coords) for o in step_outcomes(x, m)))


def transition_operator_power(u, m: Partition, x, n: int) -> float:
    """(T^n u)(x), computed by integrating u against the exact n-step
    distribution (no pruning, no merging)."""
    ev = u if callable(u) else u.evaluator
    if n == 0:
        return float(ev(as_prob_vector(x).coords))
    return evolve(x, m, n, prune=0.0, merge_eps=0.0).integrate(ev)


def barycenter(mu: DiscreteMeasure) -> ProbVector:
    """Weighted average of the atoms; always a point of the simplex."""
    return ProbVector(mu.weights @ mu.points)


def vertex_measure(q) -> DiscreteMeasure:
    """The measure on the simplex vertices with weight ``q_i`` at vertex
    ``e_i``; its barycenter is ``q``."""
    qv = as_prob_vector(q)
    n = qv.dim
    idx = np.flatnonzero(qv.coords > 0)
    pts = np.zeros((idx.size, n))
    pts[np.arange(idx.size), idx] = 1.0
    return DiscreteMeasure(qv.coords[idx], pts)


def simulate_filter(x0, m: Partition, steps: int, seed: int = 0,
                    threshold: float = 0.0) -> FilterTrace:
    """Sample one path of the filtering process with a seeded generator.

    Each step draws among the outcomes (sorted by label) by inverse CDF, so
    a fixed seed reproduces the trace bit for bit.  The uniforms are drawn
    in one call, the same stream as one ``rng.random()`` per step, and the
    CDF is summed left to right in Python floats, as ``np.cumsum`` sums.

    States are interned by their float64 bits (bits, not values, as
    ``-0.0 == 0.0``): a state formed with the bits of one met before is
    replaced by it.  The first step from a state fans it out; the second
    also keeps its live labels, CDF and fan-out, so later steps are one
    ``bisect``.  A state with no label above ``threshold`` raises
    ``ModelError`` only on a step from it.
    """
    if steps < 1:
        raise ModelError("simulate_filter requires steps >= 1")
    x = x0 = as_prob_vector(x0)
    index = {hash(x0.coords.tobytes()): x0}  # hash of a state's bits -> the first such state
    tables, seen, path = {}, False, []  # id of a state stepped from twice -> its table
    for u in np.random.default_rng(seed).random(steps).tolist():
        table = tables.get(id(x)) if seen else None
        if table is None:
            masses, children = m.fan_out(x.coords)
            p = masses.tolist()
            live = [i for i, q in enumerate(p) if q > threshold]
            if not live:
                raise ModelError("no outcome above threshold; filter cannot move")
            cdf = list(itertools.accumulate(map(p.__getitem__, live)))
            if seen:  # the second step from x
                table = tables[id(x)] = (live, cdf, [None] * len(live), masses, children)
        else:
            live, cdf, _, masses, children = table
        k = min(bisect.bisect_right(cdf, u * cdf[-1]), len(live) - 1)
        step = table and table[2][k]
        if step:
            seen = True
        else:
            i = live[k]
            y = ProbVector(children[i] / masses[i])
            z = index.setdefault(hash(y.coords.tobytes()), y)  # on a hash collision y stays out
            seen = z is not y and z.coords.tobytes() == y.coords.tobytes()
            step = (m.labels[i], z if seen else y)
            if table:
                table[2][k] = step
        path.append(step)
        x = step[1]
    return FilterTrace(x0=x0, steps=tuple(path), seed=seed)


# ---------------------------------------------------------------------------
# measure files
# ---------------------------------------------------------------------------

def save_measure(mu: DiscreteMeasure, path) -> None:
    """Measure file: ``{"atoms": [{"w": weight, "x": [coords]}, ...]}``."""
    _write_json({"atoms": [{"w": w, "x": p}
                           for w, p in zip(mu.weights.tolist(), mu.points.tolist())]}, path)


def _atom_values(atoms: list, key: str, convert, what: str) -> list:
    """``convert`` applied to the ``key`` of every measure-file atom."""
    try:
        return [convert(a[key]) for a in atoms]
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ModelError(f"measure file atom {key!r} must be {what}") from None


def load_measure(path) -> DiscreteMeasure:
    """Read a measure file (schema in :func:`save_measure`), whose weights must be
    finite and positive and whose points must lie on one simplex.  Only files
    are checked: ``pushforward``'s points are valid by construction."""
    with open(path) as fh:
        doc = json.load(fh)
    atoms = doc.get("atoms") if isinstance(doc, dict) else None
    if not (isinstance(atoms, list) and atoms and all(isinstance(a, dict) for a in atoms)):
        raise ModelError("a measure file must be an object whose 'atoms' is a nonempty list "
                         "of objects")
    w = np.array(_atom_values(atoms, "w", float, "a number"))
    pts = _atom_values(atoms, "x", lambda x: np.asarray(x, dtype=float), "a list of numbers")
    if pts[0].ndim != 1 or any(p.shape != pts[0].shape for p in pts):
        raise ModelError("measure file points must be vectors of one length")
    pts = np.stack(pts)
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise ModelError("measure file weights must be finite and positive")
    if not (np.isfinite(pts).all() and (pts >= 0).all()):
        raise ModelError("measure file coordinates must be finite and nonnegative")
    if (np.abs(pts.sum(axis=1) - 1.0) > PROB_ATOL).any():
        raise ModelError(f"measure file points must sum to 1 within {PROB_ATOL}")
    return DiscreteMeasure(w, pts, merge_eps=0.0)
