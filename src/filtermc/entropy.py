"""Entropy of the observation process of a lumped Markov chain.

The chance of seeing a label word ``w1..wn`` from state distribution ``x``
is the l1 mass of ``x M(w1) ... M(wn)``, so finite-horizon entropies are
sums of ``h(mass)`` over the word tree, with ``h(t) = -t log2 t``.  The
per-step increments admit an integral form against the filter's n-step
distribution, are monotone when started from the stationary vector or its
vertex measure, and bracket the entropy rate from both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_model import (ModelError, Partition, ProbVector, _block_rows, as_prob_vector,
                         stationary_vector)
from .filter_dynamics import DEFAULT_PRUNE, _check_threshold, evolve, simulate_filter

__all__ = [
    "h",
    "EntropySeries",
    "EntropyReport",
    "entropy_series",
    "block_entropy",
    "entropy_rate_increment",
    "entropy_bracket",
    "entropy_rate_mc",
    "check_entropy_condition",
]

_LN2 = math.log(2.0)
# states with stationary mass at or below this are folded into the error
# budget instead of contributing a lower-bracket term
_PI_FLOOR = 1e-12


def h(t: float) -> float:
    """The entropy summand ``-t log2 t`` on [0, 1], with ``h(0) = h(1) = 0``.

    Peaks at ``t = 1/e`` with value ``1/(e ln 2)``.
    """
    if t < 0.0 or t > 1.0 + 1e-12:
        raise ModelError(f"h(t) requires t in [0, 1]; got {t!r}")
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -t * math.log(t) / _LN2


def _h_array(ts: np.ndarray, base: str = "log2") -> np.ndarray:
    """``h`` of each entry of ``ts`` (``-t ln t`` for ``base="ln"``), bit-equal to
    ``h`` entry by entry: libm's log is mapped over the entries, as ``h`` takes
    it, since numpy's vectorised log may differ in the last bit."""
    bad = ts[(ts < 0.0) | (ts > 1.0 + 1e-12)]
    if bad.size:
        h(float(bad[0]))  # raises h's error for the first one
    out, inner = np.zeros(ts.shape), ~((ts <= 0.0) | (ts >= 1.0))
    t = ts[inner]
    out[inner] = -t * np.fromiter(map(math.log, t.tolist()), float, t.size)
    return out / _LN2 if base == "log2" else out


def _kahan_fold(state: tuple[float, float], values) -> tuple[float, float]:
    """Continue the compensated sum ``state = (total, compensation)`` over
    ``values`` in their order."""
    total, comp = state
    for value in values:
        y = value - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total, comp


@dataclass(frozen=True)
class EntropySeries:
    """Block entropies H^1..H^n from one start, with pruning bookkeeping.

    ``dropped_entropy_bound`` bounds the entropy the pruned branches could
    have contributed at any single horizon: with ``c`` pruned branches of
    total mass ``m``, concavity of ``h`` gives at most ``c * h(m / c)``.
    """

    values: tuple[float, ...]
    pruned_mass: float
    pruned_count: int

    @property
    def dropped_entropy_bound(self) -> float:
        if self.pruned_count == 0:
            return 0.0
        return self.pruned_count * h(min(1.0, self.pruned_mass / self.pruned_count))


@dataclass(frozen=True)
class EntropyReport:
    """Entropy figures at one horizon, in bits.

    ``bracket``, when present, holds the lower/upper entropy-rate bracket
    sequences (nondecreasing / nonincreasing) up to the horizon, and
    ``series`` the series from the stationary vector they were taken from.
    """

    horizon: int
    H_n: float
    increment: float
    pruned_mass: float
    dropped_entropy_bound: float
    bracket: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    series: EntropySeries | None = None


def _walk(m: Partition, x: np.ndarray, n_max: int, prune: float,
          vertices=()) -> list[EntropySeries]:
    """The series from ``x`` and from each vertex ``e_i``, ``i`` in
    ``vertices``, by one depth-first walk (see ``entropy_bracket``).  Every
    row on the stack carries its start's index; the starts enter in blocks
    of ``_block_rows(m)``, each walked to the end before the next is built."""
    _check_threshold("prune", prune)
    k, rows = m.num_labels, _block_rows(m)
    ids = np.array([-1, *vertices])  # start j is x if ids[j] < 0, else e_{ids[j]}
    acc = [[(0.0, 0.0)] * ids.size for _ in range(n_max)]  # Kahan state per depth and start
    pruned_mass, pruned_count = [0.0] * ids.size, [0] * ids.size
    for lo in range(0, ids.size, rows):
        b = ids[lo:lo + rows]
        states = np.zeros((b.size, x.size))  # fan_out checks the width
        states[b < 0] = x
        states[np.flatnonzero(b >= 0), b[b >= 0]] = 1.0
        # each word is its start index, then its label indices padded with -1
        words = np.full((b.size, n_max + 1), -1, np.min_scalar_type(-max(k, ids.size)))
        words[:, 0] = np.arange(lo, lo + b.size)
        stack, pruned = [(0, states, np.ones(b.size), words)], []  # (depth, states, masses, words)
        while stack:
            depth, states, mass, words = stack.pop()
            p, children = m.fan_out(states)
            p, child_mass = p.ravel(), (mass[:, None] * p).ravel()
            words = np.repeat(words, k, axis=0)
            words[:, depth + 1] = np.tile(np.arange(k), states.shape[0])
            cut = (p > 0.0) & (child_mass <= prune)
            keep = (p > 0.0) & ~cut
            pruned.append((child_mass[cut], words[cut]))
            mass, words = child_mass[keep], words[keep]
            who, hs = words[:, 0], _h_array(mass).tolist()
            runs = [0, *(np.flatnonzero(who[1:] != who[:-1]) + 1).tolist(), len(hs)] if hs else []
            for s, e in zip(runs, runs[1:]):  # the words of one start
                acc[depth][who[s]] = _kahan_fold(acc[depth][who[s]], hs[s:e])
            if depth + 1 < n_max:
                nxt = children.reshape(-1, m.n)[keep]
                nxt /= p[keep, None]  # in place, so a block holds one such array
                for s in reversed(range(0, mass.size, rows)):
                    stack.append((depth + 1, nxt[s:s + rows], mass[s:s + rows], words[s:s + rows]))
            del children  # freed before the next fan_out allocates its own
        cut_mass, cut_words = (np.concatenate(a) for a in zip(*pruned))
        order = np.lexsort(cut_words.T[::-1])
        for j, t in zip(cut_words[order, 0].tolist(), cut_mass[order].tolist()):
            pruned_mass[j] += t
            pruned_count[j] += 1
    return [EntropySeries(values=tuple(a[j][0] for a in acc), pruned_mass=pruned_mass[j],
                          pruned_count=pruned_count[j]) for j in range(ids.size)]


def entropy_series(x, m: Partition, n_max: int, prune: float = DEFAULT_PRUNE) -> EntropySeries:
    """H^n for n = 1..n_max by depth-first word enumeration.

    Prefix masses are reused down the tree; branches of mass at most
    ``prune`` are dropped and accounted.  It is ``entropy_bracket``'s walk
    from one start, so each horizon is accumulated in word order
    (Kahan-compensated), and the pruned mass is summed in the depth-first
    order of the pruned words.
    """
    if n_max < 1:
        raise ModelError("entropy_series requires n_max >= 1")
    return _walk(m, as_prob_vector(x).coords, n_max, prune)[0]


def block_entropy(x, m: Partition, n: int, prune: float = DEFAULT_PRUNE) -> tuple[float, float]:
    """H^n, the entropy in bits of the length-n label word seen from ``x``;
    returns (value, pruned_mass)."""
    series = entropy_series(x, m, n, prune=prune)
    return series.values[n - 1], series.pruned_mass


def entropy_rate_increment(x, m: Partition, n: int, prune: float = DEFAULT_PRUNE,
                           method: str = "difference") -> float:
    """The n-th entropy increment ``H^{n+1} - H^n`` from ``x``.

    ``method="difference"`` takes the literal difference of block entropies;
    ``method="integral"`` evaluates the one-step entropy integrated against
    the n-step filter distribution.  The two agree up to the pruning budget.
    """
    if n < 1:
        raise ModelError("entropy_rate_increment requires n >= 1")
    if method == "difference":
        series = entropy_series(x, m, n + 1, prune=prune)
        return series.values[n] - series.values[n - 1]
    if method == "integral":
        mu = evolve(x, m, n, prune=prune)
        return _kahan_fold((0.0, 0.0), (weight * e for weight, e in zip(
            mu.weights.tolist(), _one_step_entropy(mu.points, m, "log2"))))[0]
    raise ModelError("method must be 'difference' or 'integral'")


def _one_step_entropy(points, m: Partition, base: str) -> list[float]:
    """The one-step entropy of each row of the 2-d array ``points``, taken
    in blocks of rows; each sum is in label order."""
    rows = _block_rows(m)
    out = []
    for s in range(0, points.shape[0], rows):
        terms = _h_array(np.minimum(m.fan_out(points[s:s + rows])[0], 1.0), base)
        total = np.zeros(terms.shape[0])
        for column in terms.T:  # a label of mass 0 adds +0.0, which changes no sum
            total += column
        out += total.tolist()
    return out


def entropy_bracket(m: Partition, n_max: int, prune: float = DEFAULT_PRUNE,
                    pi: ProbVector | None = None) -> EntropyReport:
    """Two-sided entropy-rate bracket from the stationary vector.

    The lower sequence integrates the increments over the vertex measure of
    ``pi`` (nondecreasing in n); the upper sequence is the increment started
    at ``pi`` itself (nonincreasing).  Lower never exceeds upper, and for a
    lumping that separates every state the two meet already at n = 1.

    ``pi`` and every vertex ``e_i`` with ``pi_i > _PI_FLOOR`` are walked in
    one depth-first walk, their rows fanned out together.  Each start's
    figures are bit-equal to a walk of its own: a fan-out row does not depend
    on the other rows of its block, and a depth-first walk reaches the words
    of each length in (start, word) order, so each start's horizons still
    sum in its word order and its pruned mass in the depth-first order of
    its pruned words (sorted with the start as the leading key).
    """
    if n_max < 1:
        raise ModelError("entropy_bracket requires n_max >= 1")
    if pi is None:
        pi = stationary_vector(m.base)
    vertices = np.flatnonzero(pi.coords > _PI_FLOOR)
    pi_series, *vertex_series = _walk(m, pi.coords, n_max + 1, prune, vertices)
    upper = tuple(pi_series.values[k + 1] - pi_series.values[k] for k in range(n_max))
    weights = pi.coords[vertices].tolist()
    lower = tuple(_kahan_fold((0.0, 0.0), [w * (s.values[k + 1] - s.values[k]) for w, s in zip(
        weights, vertex_series)])[0] for k in range(n_max))
    pruned_mass = pi_series.pruned_mass
    for w, s in zip(weights, vertex_series):
        pruned_mass += w * s.pruned_mass
    folded_tail = 0.0  # mass skipped in the lower mix
    for w in pi.coords[(pi.coords > 0) & (pi.coords <= _PI_FLOOR)].tolist():
        folded_tail += w
    return EntropyReport(horizon=n_max, H_n=pi_series.values[n_max - 1], increment=upper[-1],
                         pruned_mass=pruned_mass + folded_tail,
                         dropped_entropy_bound=pi_series.dropped_entropy_bound,
                         bracket=(lower, upper), series=pi_series)


def entropy_rate_mc(m: Partition, burn_in: int = 200, samples: int = 5000, seed: int = 0,
                    x0=None, batches: int = 20) -> tuple[float, float]:
    """Monte Carlo entropy rate: average the one-step entropy along a
    simulated filter path started from the stationary vector.

    Returns (estimate, stderr) with the standard error taken over batch
    means.  Meaningful when the filter chain has a detected rank-one limit
    (otherwise the path need not equilibrate; the caller is expected to have
    vetted stability).
    """
    if burn_in < 0:  # steps[burn_in:] would then keep only the last -burn_in states
        raise ModelError(f"burn_in must be >= 0, got {burn_in}")
    if not 2 <= batches <= samples:  # the batch means' spread needs two of them
        raise ModelError(f"need 2 <= batches <= samples, got batches={batches}, samples={samples}")
    start = as_prob_vector(x0) if x0 is not None else stationary_vector(m.base)
    trace = simulate_filter(start, m, steps=burn_in + samples, seed=seed)
    states = np.array([state.coords for _, state in trace.steps[burn_in:]])
    values = np.array(_one_step_entropy(states, m, "log2"))
    est = float(values.mean())
    per_batch = values[: (samples // batches) * batches].reshape(batches, -1).mean(axis=1)
    return est, float(per_batch.std(ddof=1) / math.sqrt(batches))


def check_entropy_condition(m: Partition, sample_count: int = 32, seed: int = 0) -> float:
    """Sampled lower estimate of the supremum over the simplex of the
    one-step entropy sum ``sum -p ln p`` (natural log).

    Finiteness of that supremum is the integrability hypothesis behind the
    entropy formulas; with finitely many labels it is at most ln(#labels).
    The returned value is a max over vertices and random points, so it is a
    lower estimate of the sup, and is reported as such.
    """
    rng = np.random.default_rng(seed)
    n, rows = m.n, _block_rows(m)
    values = _one_step_entropy(rng.dirichlet(np.ones(n), size=sample_count), m, "ln")
    for s in range(0, n, rows):  # the vertices a block at a time: no n x n identity is formed
        values += _one_step_entropy(np.eye(min(rows, n - s), n, s), m, "ln")
    return max([0.0, *values])
