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
    sequences (nondecreasing / nonincreasing) up to the horizon.
    """

    horizon: int
    H_n: float
    increment: float
    pruned_mass: float
    dropped_entropy_bound: float
    bracket: tuple[tuple[float, ...], tuple[float, ...]] | None = None


def entropy_series(x, m: Partition, n_max: int, prune: float = DEFAULT_PRUNE) -> EntropySeries:
    """H^n for n = 1..n_max by depth-first word enumeration.

    Prefix masses are reused down the tree; branches of mass at most
    ``prune`` are dropped and accounted.  Enumeration follows label order,
    so each horizon is accumulated in word order (Kahan-compensated).
    """
    if n_max < 1:
        raise ModelError("entropy_series requires n_max >= 1")
    xv = as_prob_vector(x)
    acc = [_Kahan() for _ in range(n_max)]
    pruned_mass = 0.0
    pruned_count = 0

    def rec(vec: np.ndarray, mass: float, depth: int) -> None:
        nonlocal pruned_mass, pruned_count
        masses, children = m.fan_out(vec)
        for p, y in zip(masses.tolist(), children):
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
    return EntropySeries(
        values=tuple(a.total for a in acc),
        pruned_mass=pruned_mass,
        pruned_count=pruned_count,
    )


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
        for weight, point in zip(mu.weights, mu.points):
            total.add(float(weight) * _one_step_entropy(point, m, base="log2"))
        return total.total
    raise ModelError("method must be 'difference' or 'integral'")


def _one_step_entropy(point: np.ndarray, m: Partition, base: str) -> float:
    total = 0.0
    for p in m.fan_out(point)[0].tolist():
        if p <= 0.0:
            continue
        total += h(min(p, 1.0)) if base == "log2" else -p * math.log(min(p, 1.0))
    return total


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
    pruned_count = pi_series.pruned_count
    folded_tail = 0.0
    for i in np.flatnonzero(pi.coords > 0):
        wi = float(pi.coords[i])
        if wi <= _PI_FLOOR:
            folded_tail += wi
            continue
        s = entropy_series(ProbVector.vertex(int(i), m.n), m, n_max + 1, prune=prune)
        pruned_mass += wi * s.pruned_mass
        pruned_count += s.pruned_count
        for k in range(n_max):
            lower_acc[k].add(wi * (s.values[k + 1] - s.values[k]))
    lower = tuple(a.total for a in lower_acc)

    series_tail_bound = folded_tail  # mass skipped in the lower mix
    return EntropyReport(
        horizon=n_max,
        H_n=pi_series.values[n_max - 1],
        increment=upper[-1],
        pruned_mass=pruned_mass + series_tail_bound,
        dropped_entropy_bound=pi_series.dropped_entropy_bound,
        bracket=(lower, upper),
    )


def entropy_rate_mc(m: Partition, burn_in: int = 200, samples: int = 5000, seed: int = 0,
                    x0=None, batches: int = 20) -> tuple[float, float]:
    """Monte Carlo entropy rate: average the one-step entropy along a
    simulated filter path started from the stationary vector.

    Returns (estimate, stderr) with the standard error taken over batch
    means.  Meaningful when the filter chain has a detected rank-one limit
    (otherwise the path need not equilibrate; the caller is expected to have
    vetted stability).
    """
    if samples < batches:
        raise ModelError("need at least as many samples as batches")
    start = as_prob_vector(x0) if x0 is not None else stationary_vector(m.base)
    trace = simulate_filter(start, m, steps=burn_in + samples, seed=seed)
    values = np.array([
        _one_step_entropy(state.coords, m, base="log2")
        for _, state in trace.steps[burn_in:]
    ])
    est = float(values.mean())
    per_batch = values[: (samples // batches) * batches].reshape(batches, -1).mean(axis=1)
    stderr = float(per_batch.std(ddof=1) / math.sqrt(batches))
    return est, stderr


def check_entropy_condition(m: Partition, sample_count: int = 32, seed: int = 0) -> float:
    """Sampled lower estimate of the supremum over the simplex of the
    one-step entropy sum ``sum -p ln p`` (natural log).

    Finiteness of that supremum is the integrability hypothesis behind the
    entropy formulas; with finitely many labels it is at most ln(#labels).
    The returned value is a max over vertices and random points, so it is a
    lower estimate of the sup, and is reported as such.
    """
    rng = np.random.default_rng(seed)
    n = m.n
    best = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        best = max(best, _one_step_entropy(e, m, base="ln"))
    for _ in range(sample_count):
        x = rng.dirichlet(np.ones(n))
        best = max(best, _one_step_entropy(x, m, base="ln"))
    return best
