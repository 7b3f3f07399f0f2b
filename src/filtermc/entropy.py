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

from .core_model import ModelError, Partition, ProbVector, as_prob_vector, stationary_vector
from .filter_dynamics import DEFAULT_PRUNE, evolve, simulate_filter

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
# a fan-out block's children take at most this many bytes
_BLOCK_BYTES = 2**18


def h(t: float) -> float:
    """The entropy summand ``-t log2 t`` on [0, 1], with ``h(0) = h(1) = 0``.

    Peaks at ``t = 1/e`` with value ``1/(e ln 2)``.
    """
    if t < 0.0 or t > 1.0 + 1e-12:
        raise ModelError(f"h(t) requires t in [0, 1]; got {t!r}")
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -t * math.log(t) / _LN2


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


def _block_rows(m: Partition) -> int:
    """Rows per fan-out block: its children take at most ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * m.num_labels * m.n))


def entropy_series(x, m: Partition, n_max: int, prune: float = DEFAULT_PRUNE) -> EntropySeries:
    """H^n for n = 1..n_max by depth-first word enumeration.

    Prefix masses are reused down the tree; branches of mass at most
    ``prune`` are dropped and accounted.  The walk is depth first over blocks
    of words of one length, each block in label order, so each horizon is
    accumulated in word order (Kahan-compensated), and the pruned mass is
    summed in the depth-first order of the pruned words.
    """
    if n_max < 1:
        raise ModelError("entropy_series requires n_max >= 1")
    xv = as_prob_vector(x)
    k, rows = m.num_labels, _block_rows(m)
    acc = [_Kahan() for _ in range(n_max)]
    pruned, pruned_words = [], []
    # (depth, states, prefix masses, label-index words padded with -1)
    stack = [(0, xv.coords[None], np.ones(1), np.full((1, n_max), -1))]
    while stack:
        depth, states, mass, words = stack.pop()
        p, children = m.fan_out(states)
        p, child_mass = p.ravel(), (mass[:, None] * p).ravel()
        words = np.repeat(words, k, axis=0)
        words[:, depth] = np.tile(np.arange(k), states.shape[0])
        cut = (p > 0.0) & (child_mass <= prune)
        keep = (p > 0.0) & ~cut
        pruned.append(child_mass[cut])
        pruned_words.append(words[cut])
        for t in child_mass[keep].tolist():
            acc[depth].add(h(t))
        if depth + 1 < n_max:
            nxt = children.reshape(-1, m.n)[keep] / p[keep, None]
            mass, words = child_mass[keep], words[keep]
            for s in reversed(range(0, mass.size, rows)):
                stack.append((depth + 1, nxt[s:s + rows], mass[s:s + rows], words[s:s + rows]))
    pruned, pruned_words = np.concatenate(pruned), np.concatenate(pruned_words)
    pruned_mass = 0.0
    for t in pruned[np.lexsort(pruned_words.T[::-1])].tolist():
        pruned_mass += t
    return EntropySeries(values=tuple(a.total for a in acc), pruned_mass=pruned_mass,
                         pruned_count=int(pruned.size))


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
        total = _Kahan()
        for weight, e in zip(mu.weights.tolist(), _one_step_entropy(mu.points, m, "log2")):
            total.add(weight * e)
        return total.total
    raise ModelError("method must be 'difference' or 'integral'")


def _one_step_entropy(points, m: Partition, base: str) -> list[float]:
    """The one-step entropy of each row of the 2-d array ``points``, taken
    in blocks of rows; each sum is in label order."""
    rows = _block_rows(m)
    out = []
    for s in range(0, points.shape[0], rows):
        for masses in m.fan_out(points[s:s + rows])[0].tolist():
            total = 0.0
            for p in masses:
                if p <= 0.0:
                    continue
                total += h(min(p, 1.0)) if base == "log2" else -p * math.log(min(p, 1.0))
            out.append(total)
    return out


def entropy_bracket(m: Partition, n_max: int, prune: float = DEFAULT_PRUNE,
                    pi: ProbVector | None = None) -> EntropyReport:
    """Two-sided entropy-rate bracket from the stationary vector.

    The lower sequence integrates the increments over the vertex measure of
    ``pi`` (nondecreasing in n); the upper sequence is the increment started
    at ``pi`` itself (nonincreasing).  Lower never exceeds upper, and for a
    lumping that separates every state the two meet already at n = 1.
    """
    if n_max < 1:
        raise ModelError("entropy_bracket requires n_max >= 1")
    if pi is None:
        pi = stationary_vector(m.base)
    pi_series = entropy_series(pi, m, n_max + 1, prune=prune)
    upper = tuple(pi_series.values[k + 1] - pi_series.values[k] for k in range(n_max))

    lower_acc = [_Kahan() for _ in range(n_max)]
    pruned_mass = pi_series.pruned_mass
    folded_tail = 0.0  # mass skipped in the lower mix
    for i in np.flatnonzero(pi.coords > 0):
        wi = float(pi.coords[i])
        if wi <= _PI_FLOOR:
            folded_tail += wi
            continue
        s = entropy_series(ProbVector.vertex(int(i), m.n), m, n_max + 1, prune=prune)
        pruned_mass += wi * s.pruned_mass
        for k in range(n_max):
            lower_acc[k].add(wi * (s.values[k + 1] - s.values[k]))
    lower = tuple(a.total for a in lower_acc)
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
    if samples < batches:
        raise ModelError("need at least as many samples as batches")
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
