"""Exact Kantorovich (l1 optimal transport) distances between discrete
measures on the simplex, barycenter bounds, and a constructive algorithm
that moves a measure's barycenter to a prescribed target at optimal cost.

The primal transport problem on the bipartite support graph is solved
exactly (HiGHS, through ``scipy.optimize.linprog``); supports here are
small, which is what makes equality assertions in the tests meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .core_model import PROB_ATOL, ModelError, ProbVector, _write_json, as_prob_vector
from .filter_dynamics import DiscreteMeasure, TestFunction, barycenter

__all__ = [
    "TransportPlan",
    "kantorovich_distance",
    "dual_lower_bound",
    "barycenter_gap",
    "retarget_barycenter",
    "distance_to_fiber",
    "fiber_mass_check",
    "FiberMassResult",
    "save_plan",
]


@dataclass(frozen=True)
class TransportPlan:
    """An optimal coupling: entries (source index, target index, mass)."""

    entries: tuple[tuple[int, int, float], ...]
    cost: float

    def check_marginals(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """Max deviation of the plan's marginals from the two weight vectors."""
        row = np.zeros(mu.size)
        col = np.zeros(nu.size)
        for i, j, mass in self.entries:
            row[i] += mass
            col[j] += mass
        return float(max(np.abs(row - mu.weights).max(), np.abs(col - nu.weights).max()))


def _cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """l1 distances between the atoms, in blocks of 8 atoms of ``mu``: no
    ``m x n x dim`` array, and each pair still summed along its length-dim axis."""
    if mu.dim != nu.dim:
        raise ModelError("measures live on simplices of different dimension")
    C = np.empty((mu.size, nu.size))
    for i in range(0, mu.size, 8):
        C[i:i + 8] = np.abs(mu.points[i:i + 8, None] - nu.points).sum(axis=2)
    return C


def kantorovich_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[float, TransportPlan]:
    """Exact Kantorovich distance with l1 ground metric, plus an optimal plan.

    The minimum-cost coupling of the two weight vectors is computed on the
    bipartite support graph; the returned plan attains the value and its
    marginals match the inputs within 1e-9.
    """
    if mu.size == 0 or nu.size == 0:
        raise ModelError("kantorovich_distance requires nonempty supports")
    C = _cost_matrix(mu, nu)
    m, n = C.shape
    if m == 1:
        entries = tuple((0, j, float(wj)) for j, wj in enumerate(nu.weights))
        cost = float(C[0] @ nu.weights)
        return cost, TransportPlan(entries, cost)
    if n == 1:
        entries = tuple((i, 0, float(wi)) for i, wi in enumerate(mu.weights))
        cost = float(mu.weights @ C[:, 0])
        return cost, TransportPlan(entries, cost)

    # equality-constrained transportation LP: variable k = i * n + j appears
    # in row i (mass out of source i) and row m + j (mass into target j);
    # the last (redundant) row is dropped
    k = np.arange(m * n)
    A_eq = sp.csr_array((np.ones(2 * k.size), (np.concatenate([k // n, m + k % n]),
                                               np.concatenate([k, k]))),
                        shape=(m + n, m * n))[:-1]
    b_eq = np.concatenate([mu.weights, nu.weights])[:-1]
    res = linprog(
        C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status != 0:
        raise ModelError(f"transport solver failed: {res.message}")
    plan = res.x.reshape(m, n)
    plan[plan < 0] = 0.0
    entries = tuple(
        (int(i), int(j), float(plan[i, j]))
        for i, j in zip(*np.nonzero(plan > 1e-15))
    )
    cost = float((plan * C).sum())
    return cost, TransportPlan(entries, cost)


def dual_lower_bound(mu: DiscreteMeasure, nu: DiscreteMeasure, u: TestFunction) -> float:
    """The dual gap ``<u, mu> - <u, nu>`` for a test function certified
    1-Lipschitz by the caller; by weak duality it never exceeds the primal
    optimum."""
    if u.lipschitz is not None and u.lipschitz > 1.0 + 1e-12:
        raise ModelError("dual_lower_bound needs a 1-Lipschitz test function")
    return mu.integrate(u.evaluator) - nu.integrate(u.evaluator)


def barycenter_gap(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """l1 distance between barycenters; a lower bound for the transport
    distance (take the coordinate sign pattern as the dual function)."""
    return float(np.abs(barycenter(mu).coords - barycenter(nu).coords).sum())


# ---------------------------------------------------------------------------
# constructive retargeting
# ---------------------------------------------------------------------------

def retarget_barycenter(phi, b) -> tuple[list[ProbVector], DiscreteMeasure]:
    """Move the atoms of ``phi`` so the barycenter becomes ``b`` at optimal cost.

    ``phi`` is a DiscreteMeasure or a list of ``(weight, point)`` pairs with
    positive weights summing to 1; ``b`` is a nonnegative vector of the same
    total mass as ``a = sum(weight * point)``.  Returns the moved atoms
    ``zeta_k`` and the measure ``Psi = sum weight_k * delta(zeta_k)``, which
    satisfy

    * ``sum weight_k * zeta_k == b`` and
    * ``sum weight_k * |xi_k - zeta_k| == |a - b|``,

    so the transport distance from ``phi`` to ``Psi`` equals ``|a - b|``
    exactly — optimal, because the barycenter gap is a lower bound.

    Atoms are processed last to first; the mass moved out of an atom is
    allocated to its deficient coordinates by a deterministic greedy sweep
    (rows ascending, columns ascending).  Any feasible allocation attains the
    same cost; the deterministic one keeps results reproducible.
    """
    if isinstance(phi, DiscreteMeasure):
        betas = [float(w) for w in phi.weights]
        xis = [np.array(p, dtype=float) for p in phi.points]
    else:
        betas = [float(w) for w, _ in phi]
        xis = [np.asarray(as_prob_vector(p).coords, dtype=float) for _, p in phi]
    if any(w <= 0 for w in betas):
        raise ModelError("retarget_barycenter rejects zero-weight atoms")
    if abs(sum(betas) - 1.0) > PROB_ATOL:
        raise ModelError("retarget_barycenter expects a probability measure")

    b_vec = np.asarray(b, dtype=float)
    if (b_vec < 0).any():
        raise ModelError("target vector must be nonnegative")
    a_vec = np.zeros_like(b_vec)
    for w, xi in zip(betas, xis):
        a_vec = a_vec + w * xi
    if abs(float(b_vec.sum()) - float(a_vec.sum())) > PROB_ATOL:
        raise ModelError("target vector mass must equal the barycenter mass")

    zetas_rev: list[np.ndarray] = []
    a = a_vec.copy()
    b_cur = b_vec.copy()
    for k in range(len(betas) - 1, -1, -1):
        beta = betas[k]
        xi = xis[k]
        if k == 0:
            zeta = b_cur / beta
        else:
            zeta = _retarget_step(a, b_cur, beta, xi)
        zeta = np.maximum(zeta, 0.0)
        zetas_rev.append(zeta)
        a = np.maximum(a - beta * xi, 0.0)
        b_cur = np.maximum(b_cur - beta * zeta, 0.0)
    zetas = [ProbVector(z) for z in reversed(zetas_rev)]
    psi = DiscreteMeasure(betas, [z.coords for z in zetas])
    return zetas, psi


def _retarget_step(a: np.ndarray, b: np.ndarray, beta: float, xi: np.ndarray) -> np.ndarray:
    """One induction step: move as much as possible of the current atom's
    mass from coordinates where ``a`` exceeds ``b`` to those where it falls
    short, without overshooting either side."""
    s1 = a > b
    s2 = a < b
    r1 = np.flatnonzero(s1 & (xi > 0))
    if r1.size == 0:
        return xi.copy()
    js = np.flatnonzero(s2)
    demand = np.minimum(beta * xi[r1], (a - b)[r1])
    capacity = (b - a)[js]
    moved_out = np.zeros(r1.size)
    moved_in = np.zeros(js.size)
    jj = 0
    for idx in range(r1.size):
        need = demand[idx]
        while need > 0 and jj < js.size:
            take = min(need, capacity[jj] - moved_in[jj])
            if take > 0:
                moved_in[jj] += take
                moved_out[idx] += take
                need -= take
            if capacity[jj] - moved_in[jj] <= 0:
                jj += 1
        # rounding can leave a residue smaller than float noise; ignore it
    zeta = xi.copy()
    zeta[r1] -= moved_out / beta
    zeta[js] += moved_in / beta
    return zeta


def distance_to_fiber(mu: DiscreteMeasure, q) -> float:
    """Distance from ``mu`` to the set of measures with barycenter ``q``:
    exactly the l1 gap between barycenters.  A witness measure attaining it
    comes from :func:`retarget_barycenter` with target ``q``."""
    qv = as_prob_vector(q)
    return float(np.abs(barycenter(mu).coords - qv.coords).sum())


@dataclass(frozen=True)
class FiberMassResult:
    mass: float
    passed: bool


def fiber_mass_check(mu: DiscreteMeasure, i: int, q=None) -> FiberMassResult:
    """For a measure with barycenter ``q``: mass of ``{x : x_i >= q_i / 2}``,
    which is always at least ``q_i / 2``."""
    qv = as_prob_vector(q) if q is not None else barycenter(mu)
    if float(np.abs(barycenter(mu).coords - qv.coords).sum()) > 1e-9:
        raise ModelError("measure barycenter does not match q")
    qi = float(qv.coords[i])
    if qi <= 0:
        raise ModelError("fiber_mass_check requires q_i > 0")
    mass = float(mu.weights[mu.points[:, i] >= qi / 2.0].sum())
    return FiberMassResult(mass=mass, passed=bool(mass >= qi / 2.0 - 1e-12))


def save_plan(plan: TransportPlan, path) -> None:
    """Plan file: list of (source, target, mass) triplets plus the cost."""
    _write_json({"cost": plan.cost, "entries": [[i, j, mass] for i, j, mass in plan.entries]},
                path)
